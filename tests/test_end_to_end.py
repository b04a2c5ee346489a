"""End-to-end integration tests: full bdrmap runs on scenarios, checked
against ground truth, plus determinism and cross-layer invariants."""


from repro import build_scenario, build_data_bundle, mini, run_bdrmap
from repro.analysis import validate_result
from repro.analysis.validation import neighbor_coverage
from repro.core import BdrmapConfig
from repro.core.collection import CollectionConfig
from repro.core.heuristics import DEFAULT_PASS_ORDER, HeuristicConfig
from repro.topology import re_network, small_access, tier1


class TestMiniEndToEnd:
    def test_accuracy_band(self, mini_result, mini_scenario):
        report = validate_result(mini_result, mini_scenario.internet)
        assert report.total >= 10
        assert report.accuracy >= 0.85

    def test_neighbor_coverage_band(self, mini_result, mini_scenario):
        covered, total, fraction = neighbor_coverage(
            mini_result, mini_scenario.internet
        )
        assert fraction >= 0.6

    def test_all_owners_are_real_ases(self, mini_result, mini_scenario):
        for router in mini_result.graph.routers.values():
            if router.owner is not None:
                assert router.owner in mini_scenario.internet.ases

    def test_near_side_owned_by_vp(self, mini_result):
        for link in mini_result.links:
            near = mini_result.graph.routers[link.near_rid]
            assert near.owner == mini_result.focal_asn

    def test_links_never_to_vp_family(self, mini_result):
        for link in mini_result.links:
            assert link.neighbor_as not in mini_result.vp_ases

    def test_probe_accounting_positive(self, mini_result):
        assert mini_result.probes_used > 0
        assert mini_result.traces_run > 0
        assert mini_result.runtime_virtual_seconds > 0

    def test_second_vp_also_works(self, mini_scenario, mini_data):
        result = run_bdrmap(mini_scenario, vp_index=1, data=mini_data)
        report = validate_result(result, mini_scenario.internet)
        assert report.accuracy >= 0.8


class TestDeterminism:
    def test_identical_runs(self):
        results = []
        for _ in range(2):
            scenario = build_scenario(mini(seed=17))
            data = build_data_bundle(scenario)
            results.append(run_bdrmap(scenario, data=data))
        a, b = results
        assert a.border_pairs() == b.border_pairs()
        assert a.probes_used == b.probes_used
        assert a.heuristic_counts() == b.heuristic_counts()


class TestAblations:
    def _run(self, seed=19, **kwargs):
        scenario = build_scenario(mini(seed=seed))
        data = build_data_bundle(scenario)
        config = BdrmapConfig(
            collection=kwargs.get("collection", CollectionConfig()),
            heuristics=kwargs.get("heuristics", HeuristicConfig()),
        )
        result = run_bdrmap(scenario, data=data, config=config)
        return scenario, result

    def test_no_alias_resolution_still_runs(self):
        scenario, result = self._run(
            collection=CollectionConfig(use_alias_resolution=False)
        )
        assert result.links
        report = validate_result(result, scenario.internet)
        assert report.total > 0

    def test_one_addr_per_block_reduces_probes(self):
        _, five = self._run()
        _, one = self._run(
            collection=CollectionConfig(max_addrs_per_block=1)
        )
        assert one.probes_used < five.probes_used

    def test_no_stop_set_costs_more(self):
        _, with_stop = self._run()
        _, without = self._run(collection=CollectionConfig(use_stop_set=False))
        assert without.probes_used > with_stop.probes_used

    def test_heuristic_ablation_changes_reasons(self):
        _, full = self._run()
        _, ablated = self._run(
            heuristics=HeuristicConfig(passes=tuple(
                name for name in DEFAULT_PASS_ORDER
                if name not in ("relationship", "third_party")
            ))
        )
        full_reasons = set(full.heuristic_counts())
        ablated_reasons = set(ablated.heuristic_counts())
        assert not any(r.startswith("5") for r in ablated_reasons)
        assert any(r.startswith("5") for r in full_reasons)


class TestOtherScenariosSmoke:
    """The §5.6 scenarios, pinned exactly: links judged correct out of
    those judged, and probes spent.  A change that moves any of them
    changes what bdrmap infers or how it probes, and must say so."""

    @staticmethod
    def _run(config):
        scenario = build_scenario(config)
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        return scenario, result, validate_result(result, scenario.internet)

    def test_re_network_accuracy(self):
        scenario, result, report = self._run(re_network())
        # Paper: 96.3% on the R&E network.
        assert (report.correct, report.total) == (38, 38)
        assert result.probes_used == 12015
        covered, total, fraction = neighbor_coverage(result, scenario.internet)
        assert fraction >= 0.85

    def test_small_access_with_unannounced_own_space(self):
        """small_access hides the VP network's own infrastructure prefix
        (§5.4.1's RIR case) and must still validate well."""
        scenario, result, report = self._run(small_access())
        assert not scenario.internet.ases[scenario.focal_asn].infra_announced
        assert (report.correct, report.total) == (43, 46)
        assert result.probes_used == 9089

    def test_tier1_accuracy(self):
        _, result, report = self._run(tier1())
        # Paper: 96.3-98.9% of links correct.
        assert (report.correct, report.total) == (342, 348)
        assert result.probes_used == 53045
