"""Tests for multi-VP coordination with shared alias evidence."""

import pytest

from repro import build_scenario, build_data_bundle, mini
from repro.analysis import validate_result
from repro.core.orchestrator import MultiVPOrchestrator


def run_all_vps(share_alias_evidence):
    """Every VP of one scenario, one VP after another."""
    scenario = build_scenario(mini(seed=27))
    data = build_data_bundle(scenario)
    return scenario, MultiVPOrchestrator(
        scenario, data=data, share_alias_evidence=share_alias_evidence,
        interleave=False,
    ).run()


@pytest.fixture(scope="module")
def shared_run():
    return run_all_vps(share_alias_evidence=True)


@pytest.fixture(scope="module")
def independent_run():
    return run_all_vps(share_alias_evidence=False)


class TestSharedEvidence:
    def test_one_result_per_vp(self, shared_run):
        scenario, run = shared_run
        assert len(run.results) == len(scenario.vps)

    def test_sharing_saves_probes(self, shared_run, independent_run):
        _, shared = shared_run
        _, independent = independent_run
        assert shared.total_probes() < independent.total_probes()

    def test_sharing_preserves_accuracy(self, shared_run, independent_run):
        shared_scenario, shared = shared_run
        independent_scenario, independent = independent_run
        for scenario, run in (
            (shared_scenario, shared),
            (independent_scenario, independent),
        ):
            for result in run.results:
                report = validate_result(result, scenario.internet)
                assert report.accuracy >= 0.8

    def test_shared_resolver_accumulates(self, shared_run):
        _, run = shared_run
        assert run.shared_resolver is not None
        assert len(run.shared_resolver.evidence) > 0
        for result in run.results:
            # evidence can only grow; later results see earlier verdicts
            assert result.probes_used > 0

    def test_all_links_union(self, shared_run):
        _, run = shared_run
        assert len(run.all_links()) == sum(
            len(result.links) for result in run.results
        )

    def test_stop_sets_not_shared(self, shared_run):
        """Each VP's traces must reflect its own forward paths: the second
        VP must still run its own traceroutes (only alias work is saved)."""
        _, run = shared_run
        assert all(result.traces_run > 0 for result in run.results)
