"""Tests for the border-map serving subsystem.

Covers the compile→save→load→query round trip (including a property
test over randomized maps), agreement between the compiled map and the
naive per-query baseline, the engine's batching accounting, and —
the acceptance-critical one — hot swaps under concurrent queries never
exposing a partially built map.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr import Prefix, aton
from repro.analysis import diff_border_maps
from repro.core.orchestrator import MultiVPOrchestrator
from repro.errors import DataError
from repro.io import (
    bordermap_from_dict,
    bordermap_to_dict,
    load_border_map,
    save_border_map,
)
from repro.serving import (
    BorderLink,
    BorderMap,
    BorderMapService,
    CompiledBorderMap,
    CompiledRouter,
    QueryEngine,
    compile_border_map,
    make_workload,
    naive_border_for,
    naive_owner_of,
)


@pytest.fixture(scope="module")
def mini_map(mini_data, mini_result):
    return compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="test",
    )


class TestCompile:
    def test_tables_cover_the_result(self, mini_result, mini_map):
        assert len(mini_map.routers) == len(mini_result.graph.routers)
        assert len(mini_map.links) == len(mini_result.links)
        assert set(mini_map.neighbor_ases()) == mini_result.neighbor_ases()
        assert mini_map.focal_asn == mini_result.focal_asn

    def test_every_interface_resolves(self, mini_result, mini_map):
        for addr, (rid, owner) in mini_result.interface_owners().items():
            answer = mini_map.owner_of(addr)
            if owner is not None:
                assert answer is not None
                assert answer.asn == owner
                assert answer.source == "interface"

    def test_as_table_interned_and_sorted(self, mini_map):
        table = mini_map.as_table
        assert list(table) == sorted(set(table))
        assert mini_map.focal_asn in table

    def test_relationship_labels(self, mini_map):
        labels = {link.relationship for link in mini_map.links}
        assert labels <= {"customer", "provider", "peer", "sibling",
                          "unknown"}
        assert labels - {"unknown"}, "rels were supplied: expect real labels"

    def test_zero_results_rejected(self):
        with pytest.raises(DataError):
            compile_border_map([])

    def test_mixed_focal_rejected(self, mini_result):
        import copy

        other = copy.copy(mini_result)
        other.focal_asn = mini_result.focal_asn + 1
        with pytest.raises(DataError):
            compile_border_map([mini_result, other])

    def test_immutability(self, mini_map):
        assert isinstance(mini_map.routers, tuple)
        assert isinstance(mini_map.links, tuple)
        with pytest.raises(TypeError):
            mini_map._iface[0] = 1  # mappingproxy


class TestQueries:
    def test_owner_matches_naive(self, mini_data, mini_result, mini_map):
        results = [mini_result]
        probes = [addr for router in mini_map.routers[:40]
                  for addr in router.addrs]
        probes += [aton("1.2.3.4"), aton("233.0.0.1")]
        for prefix, _ in mini_map.prefixes[:30]:
            probes.append(prefix.addr + 1)
        for addr in probes:
            compiled = mini_map.owner_of(addr)
            naive = naive_owner_of(results, addr, view=mini_data.view)
            if naive is None:
                assert compiled is None
            else:
                assert compiled is not None
                assert compiled.asn == naive.asn
                assert compiled.source == naive.source

    def test_border_matches_naive(self, mini_data, mini_result, mini_map):
        results = [mini_result]
        probes = [prefix.addr + 1 for prefix, _ in mini_map.prefixes]
        nonempty = 0
        for addr in probes:
            compiled = {link.neighbor_as for link in mini_map.border_for(addr)}
            naive = {
                link.neighbor_as
                for _, link in naive_border_for(results, addr,
                                                view=mini_data.view)
            }
            assert compiled == naive
            nonempty += bool(compiled)
        assert nonempty > 0

    def test_border_inside_vp_network_is_empty(self, mini_map):
        # Destinations that resolve to the VP network itself have no
        # border to cross.  (A VP-side interface numbered from provider
        # space legitimately resolves to the provider instead.)
        internal = [
            prefix.addr + 1
            for prefix, origin in mini_map.prefixes
            if origin in mini_map.vp_ases
        ]
        assert internal, "mini VP network announces prefixes"
        for addr in internal:
            if mini_map.dst_as(addr) in mini_map.vp_ases:
                assert mini_map.border_for(addr) == ()

    def test_neighbors_info(self, mini_map):
        asn = mini_map.neighbor_ases()[0]
        info = mini_map.neighbors(asn)
        assert info is not None
        assert info.asn == asn
        assert all(link.neighbor_as == asn for link in info.links)
        assert 0.0 < info.best_confidence <= 1.0
        assert mini_map.neighbors(64511) is None

    def test_batch_matches_single(self, mini_map):
        addrs = [addr for router in mini_map.routers[:30]
                 for addr in router.addrs]
        addrs += [0, (1 << 32) - 1]
        assert mini_map.owner_of_batch(addrs) == [
            mini_map.owner_of(addr) for addr in addrs
        ]


class TestEngine:
    @pytest.mark.parametrize("lowered", [False, True],
                             ids=["dict", "compiled"])
    def test_batch_with_duplicates_counts_every_request(self, mini_map,
                                                        lowered):
        bmap = (CompiledBorderMap.from_border_map(mini_map) if lowered
                else mini_map)
        engine = QueryEngine(bmap)
        addr = mini_map.routers[0].addrs[0]
        asn = mini_map.neighbor_ases()[0]
        addrs = [addr, addr + 1, addr, addr]
        assert engine.owner_of_batch(addrs) == [
            bmap.owner_of(a) for a in addrs
        ]
        assert engine.border_for_batch(addrs) == [
            bmap.border_for(a) for a in addrs
        ]
        assert engine.neighbors_batch([asn, asn]) == [bmap.neighbors(asn)] * 2
        assert engine.stats.op("owner").calls == len(addrs)
        assert engine.stats.op("border").calls == len(addrs)
        assert engine.stats.op("neighbors").calls == 2
        assert engine.stats.hits == engine.stats.misses == 0


class TestService:
    def test_submit_flushes_at_batch_size(self, mini_map):
        service = BorderMapService(mini_map, batch_size=3)
        addr = mini_map.routers[0].addrs[0]
        assert service.submit("owner", addr) == []
        assert service.submit("owner", addr + 1) == []
        answers = service.submit("owner", addr + 2)
        assert len(answers) == 3
        assert service.batches == 1
        assert service.requests == 3

    def test_flush_drains_partial(self, mini_map):
        service = BorderMapService(mini_map, batch_size=10)
        service.submit("neighbors", mini_map.neighbor_ases()[0])
        answers = service.flush()
        assert len(answers) == 1
        assert service.flush() == []

    def test_answers_keep_submission_order(self, mini_map):
        service = BorderMapService(mini_map)
        addr = mini_map.routers[0].addrs[0]
        asn = mini_map.neighbor_ases()[0]
        answers = service.batch(
            [("border", addr), ("owner", addr), ("neighbors", asn)]
        )
        assert [a.op for a in answers] == ["border", "owner", "neighbors"]
        assert [a.key for a in answers] == [addr, addr, asn]
        assert all(a.epoch == mini_map.epoch for a in answers)

    def test_unknown_op_rejected(self, mini_map):
        service = BorderMapService(mini_map)
        with pytest.raises(DataError):
            service.submit("frobnicate", 1)
        with pytest.raises(DataError):
            service.batch([("frobnicate", 1)])

    def test_swap_retires_old_epoch(self, mini_map, mini_data, mini_result):
        service = BorderMapService(mini_map)
        new_map = compile_border_map(
            [mini_result], view=mini_data.view, rels=mini_data.rels,
            epoch=mini_map.epoch + 1,
        )
        retired = service.swap(new_map)
        assert retired == mini_map.epoch
        assert service.epoch == new_map.epoch
        assert service.swaps == 1

    def test_refresh_serves_stale_during_compile(self, mini_map, mini_data,
                                                 mini_result):
        service = BorderMapService(mini_map)
        observed_during_compile = []

        def compile_fn():
            # While "recompiling", the old epoch must keep answering.
            answer = service.query("owner", mini_map.routers[0].addrs[0])
            observed_during_compile.append(answer.epoch)
            return compile_border_map(
                [mini_result], view=mini_data.view, epoch=7,
            )

        new_map = service.refresh(compile_fn)
        assert observed_during_compile == [mini_map.epoch]
        assert service.epoch == 7
        assert new_map.epoch == 7


class TestHotSwapConcurrency:
    def test_queries_never_observe_a_partial_map(self, mini_data,
                                                 mini_result):
        """Acceptance: queries issued concurrently with swaps observe
        old or new answers only.  Each epoch's map gives a different
        (but internally consistent) answer set; every concurrent answer
        must exactly match the answer precomputed from the epoch it
        claims to come from."""
        maps = {
            epoch: compile_border_map(
                [mini_result], view=mini_data.view, rels=mini_data.rels,
                epoch=epoch,
            )
            for epoch in (1, 2, 3)
        }
        probe_addrs = [
            addr for router in maps[1].routers[:25] for addr in router.addrs
        ][:60]
        expected = {
            epoch: {addr: bmap.owner_of(addr) for addr in probe_addrs}
            for epoch, bmap in maps.items()
        }

        service = BorderMapService(maps[1])
        mismatches = []
        seen_epochs = set()
        stop = threading.Event()

        def worker():
            while not stop.is_set():
                for addr in probe_addrs:
                    answer = service.query("owner", addr)
                    seen_epochs.add(answer.epoch)
                    if answer.epoch not in expected:
                        mismatches.append(("bad epoch", answer.epoch))
                        return
                    if expected[answer.epoch][addr] != answer.value:
                        mismatches.append((answer.epoch, addr, answer.value))
                        return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(50):
            for epoch in (2, 3, 1):
                service.swap(maps[epoch])
        stop.set()
        for thread in threads:
            thread.join()
        assert not mismatches
        assert service.swaps == 150
        assert seen_epochs <= {1, 2, 3}


class TestSwapCacheIsolation:
    """Regression: a swap must never leave a previous map answering.
    ``epoch`` is caller-assigned and can collide across independently
    compiled maps, so these swap between maps that share one."""

    @staticmethod
    def _prefix_map(asn, epoch=0):
        # Minimal map whose only evidence is one announced prefix, so
        # owner_of(addr) answers (asn, "bgp") for any addr inside it.
        return BorderMap(
            focal_asn=100, vp_ases=[100], routers=[], links=[],
            prefixes=[(Prefix(aton("10.0.0.0"), 8), asn)], epoch=epoch,
        )

    def test_swap_to_same_epoch_map_does_not_serve_stale_answers(self):
        map_a = self._prefix_map(111, epoch=0)
        map_b = self._prefix_map(222, epoch=0)
        addr = aton("10.1.2.3")
        service = BorderMapService(map_a)
        # Prime both the single-key and batched cache paths.
        assert service.query("owner", addr).value.asn == 111
        assert service.batch([("owner", addr)])[0].value.asn == 111
        service.swap(map_b)
        assert service.query("owner", addr).value.asn == 222
        assert service.batch([("owner", addr)])[0].value.asn == 222

    def test_concurrent_swaps_between_same_epoch_maps(self):
        """Swapping between two maps that share an epoch number, under
        concurrent queries: every answer must be one of the two maps'
        true answers (never None, never a cross-map hybrid), and once
        swapping stops the service answers for the final map."""
        map_a = self._prefix_map(111, epoch=5)
        map_b = self._prefix_map(222, epoch=5)
        addrs = [aton("10.0.0.%d" % i) for i in range(1, 21)]
        service = BorderMapService(map_a)
        bad = []
        stop = threading.Event()

        def worker():
            while not stop.is_set():
                for addr in addrs:
                    answer = service.query("owner", addr)
                    if answer.value is None or answer.value.asn not in (111, 222):
                        bad.append((addr, answer.value))
                        return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(100):
            service.swap(map_b)
            service.swap(map_a)
        service.swap(map_b)
        stop.set()
        for thread in threads:
            thread.join()
        assert not bad
        assert all(
            service.query("owner", addr).value.asn == 222 for addr in addrs
        )


def test_bench_workload_is_deterministic(mini_map, mini_data):
    """Same seed, same map → byte-identical workload (QPS numbers vary
    with the host; the queries they time must not)."""
    first = make_workload(mini_map, mini_data.view, 300, seed=5)
    second = make_workload(mini_map, mini_data.view, 300, seed=5)
    assert first == second
    assert first != make_workload(mini_map, mini_data.view, 300, seed=6)


class TestRoundTrip:
    def test_mini_map_roundtrip(self, mini_map, tmp_path):
        path = tmp_path / "map.json"
        save_border_map(mini_map, str(path))
        loaded = load_border_map(str(path))
        assert bordermap_to_dict(loaded) == bordermap_to_dict(mini_map)
        # Query equivalence, not just table equality.
        for router in mini_map.routers[:20]:
            for addr in router.addrs:
                assert loaded.owner_of(addr) == mini_map.owner_of(addr)
                assert loaded.border_for(addr) == mini_map.border_for(addr)

    def test_dict_is_json_safe(self, mini_map):
        json.dumps(bordermap_to_dict(mini_map))

    def test_unknown_format_rejected(self, mini_map):
        data = bordermap_to_dict(mini_map)
        data["format"] = "bdrmap-repro-bordermap/999"
        with pytest.raises(DataError):
            bordermap_from_dict(data)

    def test_unknown_fields_tolerated(self, mini_map):
        data = bordermap_to_dict(mini_map)
        data["generator"] = "future-writer/9"
        data["routers"][0]["annotations"] = {"pop": "SEA"}
        data["links"][0]["latency_ms"] = 1.25
        loaded = bordermap_from_dict(data)
        assert bordermap_to_dict(loaded) == bordermap_to_dict(mini_map)

    def test_malformed_rejected(self, mini_map):
        data = bordermap_to_dict(mini_map)
        del data["routers"][0]["addrs"]
        with pytest.raises(DataError):
            bordermap_from_dict(data)


@st.composite
def border_maps(draw):
    """Small randomized—but valid—maps: a handful of routers with /32
    interfaces, links between them, and a few announced prefixes."""
    n_routers = draw(st.integers(min_value=1, max_value=6))
    focal = draw(st.integers(min_value=1, max_value=1000))
    vp_ases = {focal}
    routers = []
    pool = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << 32) - 1),
            min_size=n_routers, max_size=3 * n_routers, unique=True,
        )
    )
    for index in range(n_routers):
        addrs = tuple(sorted(pool[index::n_routers]))
        owner = draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=1000)
        ))
        routers.append(
            CompiledRouter(
                index=index,
                vp_name="vp0",
                rid=index + 1,
                addrs=addrs,
                owner=owner,
                reason="5 relationship" if owner is not None else "",
                dsts=tuple(sorted(draw(st.sets(
                    st.integers(min_value=1, max_value=1000), max_size=3
                )))),
            )
        )
    n_links = draw(st.integers(min_value=0, max_value=4))
    links = []
    for index in range(n_links):
        near = draw(st.integers(min_value=0, max_value=n_routers - 1))
        far = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=n_routers - 1)
        ))
        links.append(
            BorderLink(
                index=index,
                vp_name="vp0",
                near_router=near,
                far_router=far,
                neighbor_as=draw(st.integers(min_value=1, max_value=1000)),
                relationship=draw(st.sampled_from(
                    ["customer", "provider", "peer", "sibling", "unknown"]
                )),
                reason=draw(st.sampled_from(
                    ["5 relationship", "6 count", "ixp", "novel heuristic"]
                )),
                via_ixp=draw(st.booleans()),
            )
        )
    prefix_specs = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=8, max_value=24),
            st.integers(min_value=1, max_value=1000),
        ),
        max_size=5,
    ))
    prefixes = {}
    for addr, plen, origin in prefix_specs:
        prefixes[Prefix.of(addr, plen)] = origin
    return BorderMap(
        focal_asn=focal,
        vp_ases=vp_ases,
        routers=routers,
        links=links,
        prefixes=sorted(prefixes.items()),
        epoch=draw(st.integers(min_value=0, max_value=99)),
        source=draw(st.text(max_size=20)),
    )


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(border_maps())
    def test_compile_save_load_query_is_lossless(self, bmap):
        restored = bordermap_from_dict(
            json.loads(json.dumps(bordermap_to_dict(bmap)))
        )
        assert bordermap_to_dict(restored) == bordermap_to_dict(bmap)
        assert restored.epoch == bmap.epoch
        assert restored.source == bmap.source
        assert restored.vp_ases == bmap.vp_ases
        assert restored.as_table == bmap.as_table
        probes = [addr for router in bmap.routers for addr in router.addrs]
        probes += [prefix.addr for prefix, _ in bmap.prefixes]
        probes += [0, (1 << 32) - 1]
        for addr in probes:
            assert restored.owner_of(addr) == bmap.owner_of(addr)
            assert restored.border_for(addr) == bmap.border_for(addr)
        for asn in bmap.neighbor_ases():
            assert restored.neighbors(asn) == bmap.neighbors(asn)


class TestOrchestratorExport:
    def test_to_border_map(self, mini_scenario, mini_data):
        run = MultiVPOrchestrator(mini_scenario, data=mini_data).run()
        bmap = run.to_border_map(data=mini_data, epoch=3, source="orch")
        assert bmap.epoch == 3
        assert bmap.focal_asn == mini_data.focal_asn
        assert len(bmap.routers) == sum(
            len(result.graph.routers) for result in run.results
        )
        assert len(bmap.prefixes) > 0
        bare = run.to_border_map()
        assert bare.prefixes == ()
        assert {link.relationship for link in bare.links} <= {"unknown"}


class TestDiff:
    def test_identical_maps_no_changes(self, mini_map):
        diff = diff_border_maps(mini_map, mini_map)
        assert not diff.changed
        assert diff.stable_links == len(
            {(l.neighbor_as, mini_map.routers[l.near_router].addrs)
             for l in mini_map.links}
        )

    def test_detects_added_and_removed(self, mini_map, mini_data,
                                       mini_result):
        import copy

        smaller = copy.copy(mini_result)
        smaller.links = mini_result.links[:-2]
        before = compile_border_map(
            [smaller], view=mini_data.view, rels=mini_data.rels, epoch=1
        )
        after = compile_border_map(
            [mini_result], view=mini_data.view, rels=mini_data.rels, epoch=2
        )
        diff = diff_border_maps(before, after)
        assert diff.stable_links > 0
        assert not diff.removed_links
        dropped = {link.neighbor_as for link in mini_result.links[-2:]}
        kept = {link.neighbor_as for link in mini_result.links[:-2]}
        only_dropped = dropped - kept
        if only_dropped:
            assert diff.changed
            assert only_dropped <= {key[0] for key in diff.added_links} | \
                diff.gained_neighbors


class TestAsTableCaching:
    def test_computed_once(self, mini_map):
        # The interning universe is an O(entire-map) scan; the map is
        # immutable, so repeated accesses must return the same tuple
        # object, not recompute it.
        assert mini_map.as_table is mini_map.as_table

    def test_survives_serialization(self, mini_map):
        restored = bordermap_from_dict(bordermap_to_dict(mini_map))
        assert restored.as_table == mini_map.as_table
        assert restored.as_table is restored.as_table


class TestBatchSkipsTrieWhenAnswered:
    def test_no_trie_walk_on_full_interface_coverage(self, mini_map,
                                                     monkeypatch):
        from repro.trie import FrozenLPM

        addrs = [
            addr
            for router in mini_map.routers if router.owner is not None
            for addr in router.addrs
        ][:20]
        assert addrs, "mini map should have owned interfaces"
        expected = [mini_map.owner_of(addr) for addr in addrs]
        assert all(
            answer is not None and answer.source == "interface"
            for answer in expected
        )

        def boom(self, addr):
            raise AssertionError(
                "owner_of_batch read the LPM although every address "
                "was answered from the interface map"
            )

        monkeypatch.setattr(FrozenLPM, "lookup_value", boom)
        assert mini_map.owner_of_batch(addrs) == expected

    def test_empty_batch(self, mini_map):
        assert mini_map.owner_of_batch([]) == []


class TestNeighborRelationship:
    @staticmethod
    def _two_link_map(first_reason, second_reason):
        routers = [
            CompiledRouter(index=0, vp_name="vp0", rid=1,
                           addrs=(aton("10.0.0.1"),), owner=65000,
                           reason="5 relationship", dsts=(65010,)),
            CompiledRouter(index=1, vp_name="vp0", rid=2,
                           addrs=(aton("10.0.0.2"),), owner=65010,
                           reason="5 relationship", dsts=()),
        ]
        links = [
            BorderLink(index=0, vp_name="vp0", near_router=0, far_router=1,
                       neighbor_as=65010, relationship="customer",
                       reason=first_reason, via_ixp=False),
            BorderLink(index=1, vp_name="vp0", near_router=0, far_router=1,
                       neighbor_as=65010, relationship="peer",
                       reason=second_reason, via_ixp=False),
        ]
        return BorderMap(focal_asn=65000, vp_ases={65000}, routers=routers,
                         links=links, prefixes=(), epoch=1, source="test")

    def test_reports_highest_confidence_link(self):
        # links[0] says customer from a weak heuristic (0.70); links[1]
        # says peer from the strongest one (0.97).  The summary must
        # follow the evidence, not the table order.
        bmap = self._two_link_map("5 missing customer", "5 relationship")
        info = bmap.neighbors(65010)
        assert info is not None
        assert info.relationship == "peer"
        assert info.best_confidence == pytest.approx(0.97)
        assert len(info.links) == 2

    def test_tie_keeps_first_link(self):
        bmap = self._two_link_map("5 relationship", "5 relationship")
        info = bmap.neighbors(65010)
        assert info.relationship == "customer"

    def test_best_relationship_helper(self):
        from repro.serving import best_relationship

        bmap = self._two_link_map("6 count", "ixp")
        best = best_relationship(bmap.links)
        assert best is bmap.links[1]

    def test_compiled_map_agrees(self):
        from repro.serving import CompiledBorderMap

        bmap = self._two_link_map("5 missing customer", "5 relationship")
        flat = CompiledBorderMap.from_border_map(bmap)
        assert flat.neighbors(65010) == bmap.neighbors(65010)
        assert flat.neighbors(65010).relationship == "peer"
