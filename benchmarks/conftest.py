"""Shared (session-scoped) scenario runs for the benchmark harness.

The 19-VP large-access study backs Figures 14, 15, and 16; the four
validation scenarios back §5.6 and Table 1.  Each is built once per
session; the per-benchmark timed callables are the analysis stages.

``bench_recorder`` is the shared machine-readable summary writer: a
bench module calls ``bench_recorder("obs_tier", payload)`` and a
``BENCH_obs_tier.json`` lands in the repo root (or ``$BENCH_OUTPUT_DIR``),
so the perf trajectory is tracked across PRs.  Other bench modules can
adopt it as-is.
"""

import json
import os

import pytest

from repro import (
    build_data_bundle,
    build_scenario,
    large_access,
    mini,
    re_network,
    small_access,
    tier1,
)
from repro.core.bdrmap import Bdrmap, run_bdrmap


@pytest.fixture(scope="session")
def access_study():
    """The §6 study: 19 VPs in the large access network."""
    scenario = build_scenario(large_access())
    data = build_data_bundle(scenario)
    results = [Bdrmap(scenario.network, vp, data).run() for vp in scenario.vps]
    return scenario, data, results


@pytest.fixture(scope="session")
def validation_runs():
    """One bdrmap run per §5.6 network type."""
    runs = {}
    for config in (re_network(), tier1(), small_access()):
        scenario = build_scenario(config)
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        runs[config.name] = (scenario, data, result)
    return runs


@pytest.fixture(scope="session")
def bench_recorder():
    """Write ``BENCH_<name>.json`` next to the repo (or under
    ``$BENCH_OUTPUT_DIR``) with a stable envelope other tooling can
    diff across PRs: ``{"bench": name, "schema": int, ...payload}``."""

    def record(name, payload, schema=1):
        directory = os.environ.get("BENCH_OUTPUT_DIR", os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        envelope = {"bench": name, "schema": schema}
        envelope.update(payload)
        path = os.path.join(directory, "BENCH_%s.json" % name)
        with open(path, "w") as handle:
            json.dump(envelope, handle, indent=1)
        return path

    return record


@pytest.fixture(scope="session")
def mini_run():
    scenario = build_scenario(mini(seed=1))
    data = build_data_bundle(scenario)
    result = run_bdrmap(scenario, data=data)
    return scenario, data, result
