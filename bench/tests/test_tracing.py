"""Layer accounting, and the guarantee that tracing leaves nothing
behind."""

import importlib
import json

import pytest

from bench import run as bench_run
from bench.tracing import PLAN, Tracer, installed_wrappers


def _plan_attributes():
    """The raw attribute of every ``PLAN`` target in its defining
    module or class."""
    found = {}
    for module_name, path, _, _ in PLAN:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        found[(module_name, path)] = vars(owner)[attr]
    return found


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        [0, None, "bench.x", "bench", 0.0, 10.0],
        [1, 0, "f", "outer", 1.0, 5.0],
        [2, 1, "g", "inner", 2.0, 3.0],
        [3, 0, "f", "outer", 6.0, 9.0],
    ]
    assert tracer.self_times() == {"bench": 3.0, "outer": 6.0, "inner": 1.0}
    assert tracer.closure() == pytest.approx(0.7)


def test_region_restores_wrappers_when_the_block_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.region("bench.x"):
            assert installed_wrappers()
            raise RuntimeError("boom")
    assert installed_wrappers() == []


def test_traced_run_leaves_no_wrapper_installed(capsys):
    before = _plan_attributes()
    code = bench_run.main(["--workload", "serve-zipf", "--smoke", "--trace"])
    assert code == 0
    assert installed_wrappers() == []
    after = _plan_attributes()
    assert all(after[key] is before[key] for key in before)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = result["metrics"]
    # The wrappers were live during the run: the front end and the wire
    # codec were measured.
    assert metrics["serving.frontend.self_us"]["value"] > 0
    assert metrics["remote.protocol.encode_us"]["value"] > 0
    assert metrics["serving.swap.prepare_ms"]["value"] > 0
