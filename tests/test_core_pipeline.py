"""Tests for targets, collection, router-graph construction, nextas, and
the result model — the plumbing around the heuristics."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.addr import (
    MAX_ADDR,
    AddressBlock,
    Prefix,
    aton,
    block_of,
    subtract_blocks,
)
from repro.asgraph import InferredRelationships
from repro.bgp import BGPView, RibEntry
from repro.core import (
    CollectionConfig,
    Collector,
    build_router_graph,
    build_targets,
    compute_nextas,
)
from repro.core.report import BdrmapResult
from repro.core.routergraph import InferredRouter
from repro.core.targets import TargetBlock, group_by_origin
from repro.io.serialize import result_from_dict, result_to_dict
from repro.net import ResponseKind
from repro.topology import build_scenario, mini

from tests.helpers import VP_AS, CaseBuilder


def _view(*entries):
    view = BGPView()
    for prefix, origins in entries:
        for origin in origins:
            view.add(RibEntry(9999, Prefix.parse(prefix), (9999, origin)))
    return view


def _all_pairs_targets(view, vp_ases):
    """Reference for build_targets: each prefix minus every announced
    prefix it contains, found by comparing all pairs."""
    vp_set = set(vp_ases)
    prefixes = view.prefixes()
    targets = []
    for prefix in prefixes:
        origins = tuple(sorted(view.origins(prefix)))
        if not origins or set(origins) & vp_set:
            continue
        more_specifics = [
            block_of(other)
            for other in prefixes
            if other != prefix and prefix.contains_prefix(other)
        ]
        for block in subtract_blocks(block_of(prefix), more_specifics):
            targets.append(TargetBlock(block=block, origins=origins))
    targets.sort(key=lambda t: (t.block.first, t.block.last))
    return targets


_ORIGINS = st.lists(st.sampled_from((100, 200, 300, 400)), min_size=1,
                    max_size=2, unique=True)


@st.composite
def _nested_prefixes(draw):
    """(prefix text, origins) pairs: /8-/16 roots with up to three levels of
    more-specifics down to /24, some starting at their covering prefix's
    first address, some with an adjacent sibling; prefixes drawn twice
    with other origins are MOAS."""
    entries = []

    def more_specifics(parent, depth):
        if depth == 3 or parent.plen == 24:
            return
        for _ in range(draw(st.integers(0, 3))):
            plen = draw(st.integers(parent.plen + 1, min(24, parent.plen + 8)))
            slots = 1 << (plen - parent.plen)
            offset = draw(st.one_of(st.just(0), st.integers(0, slots - 1)))
            child = Prefix(parent.addr + (offset << (32 - plen)), plen)
            entries.append((str(child), draw(_ORIGINS)))
            if draw(st.booleans()):
                sibling = Prefix(child.addr ^ (1 << (32 - plen)), plen)
                entries.append((str(sibling), draw(_ORIGINS)))
            more_specifics(child, depth + 1)

    for _ in range(draw(st.integers(1, 4))):
        root = Prefix.of(draw(st.integers(0, MAX_ADDR)),
                         draw(st.integers(8, 16)))
        entries.append((str(root), draw(_ORIGINS)))
        more_specifics(root, 1)
    return entries


_THREE_LEVELS = [
    ("10.0.0.0/8", [100]),
    ("10.0.0.0/16", [200]),
    ("10.0.0.0/24", [300]),
    ("10.0.1.0/24", [300]),
    ("10.1.0.0/16", [200, 300]),
]


class TestBuildTargets:
    @settings(max_examples=200, deadline=None)
    @given(_nested_prefixes(), st.sets(st.sampled_from((100, 200, 900))))
    @example(_THREE_LEVELS, {100})
    @example(_THREE_LEVELS, set())
    def test_sweep_matches_all_pairs(self, entries, vp_ases):
        view = _view(*entries)
        assert build_targets(view, vp_ases) == _all_pairs_targets(view, vp_ases)

    def test_excludes_vp_prefixes(self):
        view = _view(("10.0.0.0/16", [100]), ("20.0.0.0/16", [200]))
        targets = build_targets(view, {100})
        assert all(t.origins == (200,) for t in targets)

    def test_more_specific_punched_out(self):
        """§5.3: X's /16 minus Y's /24 leaves two blocks for X."""
        view = _view(("128.66.0.0/16", [200]), ("128.66.2.0/24", [300]))
        targets = build_targets(view, {100})
        blocks_200 = [t.block for t in targets if t.origins == (200,)]
        assert blocks_200 == [
            AddressBlock(aton("128.66.0.0"), aton("128.66.1.255")),
            AddressBlock(aton("128.66.3.0"), aton("128.66.255.255")),
        ]
        blocks_300 = [t.block for t in targets if t.origins == (300,)]
        assert blocks_300 == [
            AddressBlock(aton("128.66.2.0"), aton("128.66.2.255"))
        ]

    def test_candidate_addrs_start_at_dot1(self):
        view = _view(("20.0.0.0/24", [200]))
        target = build_targets(view, {100})[0]
        candidates = target.candidate_addrs(5)
        assert candidates[0] == aton("20.0.0.1")
        assert len(candidates) == 5

    def test_candidate_addrs_unaligned_block(self):
        """A block that does not start on a .0 boundary is probed from its
        first address (there is no .1 to prefer)."""
        block = TargetBlock(
            block=AddressBlock(aton("128.66.0.128"), aton("128.66.0.255")),
            origins=(200,),
        )
        candidates = block.candidate_addrs(5)
        assert candidates[0] == aton("128.66.0.128")
        assert len(candidates) == 5

    def test_view_plen_filter_limits_punching(self):
        """Prefixes longer than /24 never enter the view (§5.2), so they
        cannot punch holes in target blocks."""
        targets = build_targets(
            _view(("128.66.0.0/24", [200]), ("128.66.0.0/25", [300])), {100}
        )
        assert len(targets) == 1
        assert targets[0].origins == (200,)
        assert targets[0].block.size == 256

    def test_group_by_origin(self):
        view = _view(("20.0.0.0/16", [200]), ("20.1.0.0/16", [200]),
                     ("30.0.0.0/16", [300]))
        groups = group_by_origin(build_targets(view, {100}))
        assert set(groups) == {(200,), (300,)}
        assert len(groups[(200,)]) == 2

    def test_moas_target_key_has_both_origins(self):
        view = _view(("20.0.0.0/16", [200, 300]))
        targets = build_targets(view, {100})
        assert targets[0].origins == (200, 300)

    def test_deterministic_order(self):
        view = _view(("30.0.0.0/16", [300]), ("20.0.0.0/16", [200]))
        targets = build_targets(view, {100})
        assert targets == sorted(targets, key=lambda t: (t.block.first, t.block.last))


class TestCollector:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(mini(seed=2))

    def _collector(self, scenario, **overrides):
        config = CollectionConfig(**overrides)
        from repro.bgp import collect_public_view

        view = collect_public_view(
            scenario.internet, scenario.network.oracle,
            focal_asn=scenario.focal_asn,
        )
        return Collector(
            scenario.network,
            scenario.vps[0].addr,
            view,
            set(scenario.vp_as_list),
            config,
        )

    def _collect(self, scenario, **overrides):
        return self._collector(scenario, **overrides).run()

    def test_externality_answers_match_definition(self, scenario):
        """The collector answers each address's externality once; over
        every hop address of a collection the remembered answer equals
        the definition: announced, and by no VP AS."""
        collector = self._collector(scenario)
        collection = collector.run()
        addrs = sorted({
            addr
            for trace in collection.traces
            for addr in trace.addrs
            if addr is not None
        })
        answers = set()
        for addr in addrs:
            origins = collector.view.origins_of_addr(addr)
            expected = bool(origins) and not (set(origins) & collector.vp_ases)
            assert collector._is_external(addr) is expected, addr
            answers.add(expected)
        assert answers == {True, False}

    def test_traces_cover_every_target_as(self, scenario):
        collection = self._collect(scenario, use_alias_resolution=False)
        assert collection.traces
        assert collection.per_target
        for key, traces in collection.per_target.items():
            assert traces, "target %r got no traces" % (key,)

    def test_stop_set_reduces_probes(self, scenario):
        with_stop = self._collect(scenario, use_alias_resolution=False,
                                  use_stop_set=True)
        without = self._collect(scenario, use_alias_resolution=False,
                                use_stop_set=False)
        assert with_stop.probes_used < without.probes_used

    def test_stop_set_entries_accumulate(self, scenario):
        collection = self._collect(scenario, use_alias_resolution=False)
        assert collection.stop_set.total_entries() > 0

    def test_trace_keys_parallel_to_traces(self, scenario):
        collection = self._collect(scenario, use_alias_resolution=False)
        assert len(collection.trace_keys) == len(collection.traces)

    def test_alias_phase_records_evidence(self, scenario):
        collection = self._collect(scenario, ally_rounds=2, ally_interval=5.0)
        assert collection.resolver is not None
        assert len(collection.resolver.evidence) > 0

    def test_prefixscan_confirms_interdomain_subnets(self, scenario):
        collection = self._collect(scenario, ally_rounds=2, ally_interval=5.0)
        confirmed = [p for p in collection.prefixscans.values() if p.confirmed]
        assert confirmed


class TestRouterGraphBuild:
    def test_echo_reply_hops_not_interfaces(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.announce("20.0.0.0/8", 200)
        case.trace(200, "20.0.0.1", ["10.0.0.1"], final=("20.0.0.1", "echo-reply"))
        graph = build_router_graph(case.collection)
        assert graph.router_of_addr(aton("20.0.0.1")) is None
        assert graph.paths[0].final_kind is ResponseKind.ECHO_REPLY

    def test_dst_matching_ttl_expired_skipped(self):
        """§4: a TTL-expired source equal to the probed destination is not
        usable as an interface observation."""
        case = CaseBuilder()
        case.announce("20.0.0.0/8", 200)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "20.0.0.1", "20.0.1.1"])
        graph = build_router_graph(case.collection)
        assert graph.router_of_addr(aton("20.0.0.1")) is None
        # and no adjacency is fabricated across the skipped hop
        r1 = graph.router_of_addr(aton("10.0.0.1"))
        r3 = graph.router_of_addr(aton("20.0.1.1"))
        assert r3.rid not in graph.successors(r1.rid)

    def test_gap_breaks_adjacency(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", None, "10.0.2.1"])
        graph = build_router_graph(case.collection)
        r1 = graph.router_of_addr(aton("10.0.0.1"))
        r2 = graph.router_of_addr(aton("10.0.2.1"))
        assert r2.rid not in graph.successors(r1.rid)

    def test_aliases_collapse_to_one_router(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "10.0.1.1"])
        case.trace(300, "30.0.0.1", ["10.0.0.1", "10.0.1.2"])
        case.alias("10.0.1.1", "10.0.1.2")
        graph = build_router_graph(case.collection)
        assert graph.router_of_addr(aton("10.0.1.1")) is graph.router_of_addr(
            aton("10.0.1.2")
        )

    def test_min_dist_tracks_smallest_ttl(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "10.0.1.1"])
        case.trace(300, "30.0.0.1", ["10.0.1.1"])
        graph = build_router_graph(case.collection)
        assert graph.router_of_addr(aton("10.0.1.1")).min_dist == 1

    def test_dsts_accumulate_targets(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1"])
        case.trace(300, "30.0.0.1", ["10.0.0.1"])
        graph = build_router_graph(case.collection)
        assert graph.router_of_addr(aton("10.0.0.1")).dsts == {200, 300}

    def test_last_hop_attribution(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None])
        graph = build_router_graph(case.collection)
        assert 200 in graph.router_of_addr(aton("10.0.1.1")).last_hop_for
        assert 200 not in graph.router_of_addr(aton("10.0.0.1")).last_hop_for

    def test_merge_rewrites_paths_and_edges(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "10.0.1.1", "10.0.2.1"])
        case.trace(300, "30.0.0.1", ["10.0.0.1", "10.0.3.1", "10.0.2.1"])
        graph = build_router_graph(case.collection)
        keep = graph.router_of_addr(aton("10.0.1.1"))
        absorb = graph.router_of_addr(aton("10.0.3.1"))
        graph.merge(keep.rid, absorb.rid)
        assert graph.router_of_addr(aton("10.0.3.1")) is keep
        assert absorb.rid not in graph.routers
        for path in graph.paths:
            assert absorb.rid not in path.routers
        r1 = graph.router_of_addr(aton("10.0.0.1"))
        assert keep.rid in graph.successors(r1.rid)

    def test_by_distance_order(self):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        case.trace(200, "20.0.0.1", ["10.0.0.1", "10.0.1.1", "10.0.2.1"])
        graph = build_router_graph(case.collection)
        dists = [r.min_dist for r in graph.by_distance()]
        assert dists == sorted(dists)

    @staticmethod
    def _assert_index(graph, rids):
        """``paths_through`` names, once and in ``paths`` order, exactly
        the path objects each rid appears on."""
        for rid in rids:
            through = graph.paths_through(rid)
            expected = [path for path in graph.paths if rid in path.routers]
            assert len(through) == len(expected), rid
            assert all(a is b for a, b in zip(through, expected)), rid

    @settings(max_examples=60, deadline=None)
    @given(
        traces=st.lists(
            st.lists(st.one_of(st.none(), st.integers(0, 7)),
                     min_size=1, max_size=9),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    def test_path_index_tracks_build_and_merges(self, traces, data):
        case = CaseBuilder()
        case.announce("10.0.0.0/8", 100)
        # A router that repeats non-consecutively on one path.
        traces = traces + [[0, 1, 0, None, 2, 0]]
        for index, hops in enumerate(traces):
            case.trace(200 + index, "20.0.%d.1" % index, [
                None if hop is None else "10.0.%d.1" % hop for hop in hops
            ])
        graph = build_router_graph(case.collection)
        every_rid = set(graph.routers)
        reference = [tuple(path.routers) for path in graph.paths]
        self._assert_index(graph, every_rid)

        for _ in range(data.draw(st.integers(0, 5))):
            rids = sorted(graph.routers)
            if len(rids) < 2:
                break
            keep, absorb = data.draw(
                st.lists(st.sampled_from(rids), min_size=2, max_size=2,
                         unique=True))
            graph.merge(keep, absorb)
            reference = [
                tuple(keep if rid == absorb else rid for rid in routers)
                for routers in reference
            ]
            assert [path.routers for path in graph.paths] == reference
            self._assert_index(graph, every_rid)

        result = BdrmapResult(
            vp_name="vp", vp_addr=aton("10.0.0.10"), focal_asn=VP_AS,
            vp_ases={VP_AS}, graph=graph,
        )
        for rebuilt in (result_from_dict(result_to_dict(result)).graph,
                        pickle.loads(pickle.dumps(graph))):
            assert [path.routers for path in rebuilt.paths] == reference
            self._assert_index(rebuilt, every_rid)


class TestNextas:
    def test_most_common_provider(self):
        rels = InferredRelationships()
        rels.c2p.update({(200, 900), (300, 900), (400, 901)})
        router = InferredRouter(rid=1, dsts={200, 300, 400})
        assert compute_nextas(router, rels, {100}) == 900

    def test_undefined_for_single_dst(self):
        rels = InferredRelationships()
        rels.c2p.add((200, 900))
        router = InferredRouter(rid=1, dsts={200})
        assert compute_nextas(router, rels, {100}) is None

    def test_undefined_without_provider_knowledge(self):
        router = InferredRouter(rid=1, dsts={200, 300})
        assert compute_nextas(router, InferredRelationships(), {100}) is None

    def test_tie_breaks_to_lowest_asn(self):
        rels = InferredRelationships()
        rels.c2p.update({(200, 900), (300, 901)})
        router = InferredRouter(rid=1, dsts={200, 300})
        assert compute_nextas(router, rels, {100}) == 900


class TestResultModel:
    def test_summary_mentions_counts(self, mini_result):
        text = mini_result.summary()
        assert "interdomain links" in text
        assert "neighbor routers" in text

    def test_link_table_renders(self, mini_result):
        table = mini_result.link_table(limit=5)
        assert "neighbor-AS" in table
        assert len(table.splitlines()) <= 6 + 1

    def test_border_pairs_unique(self, mini_result):
        pairs = mini_result.border_pairs()
        assert len(pairs) <= len(mini_result.links)

    def test_links_with_filters(self, mini_result):
        for asn in mini_result.neighbor_ases():
            for link in mini_result.links_with(asn):
                assert link.neighbor_as == asn

    def test_heuristic_counts_sum(self, mini_result):
        counts = mini_result.heuristic_counts()
        assert sum(counts.values()) == len(mini_result.neighbor_routers())


class TestCollectorAblations:
    def _collect_with(self, scenario, **overrides):
        from repro.bgp import collect_public_view

        view = collect_public_view(
            scenario.internet, scenario.network.oracle,
            focal_asn=scenario.focal_asn,
        )
        collector = Collector(
            scenario.network,
            scenario.vps[0].addr,
            view,
            set(scenario.vp_as_list),
            CollectionConfig(ally_rounds=2, ally_interval=5.0, **overrides),
        )
        return collector.run()

    def test_prefixscan_off_means_no_scans(self):
        scenario = build_scenario(mini(seed=3))
        collection = self._collect_with(scenario, use_prefixscan=False)
        assert not collection.prefixscans

    def test_prefixscan_on_confirms_subnets(self):
        scenario = build_scenario(mini(seed=3))
        collection = self._collect_with(scenario, use_prefixscan=True)
        confirmed = [p for p in collection.prefixscans.values() if p.confirmed]
        assert confirmed
        # Confirmed scans must also leave positive alias evidence.
        assert collection.resolver is not None
        for result in confirmed[:5]:
            if result.mate is not None and result.mate != result.prev:
                evidence = collection.resolver.evidence.get(
                    result.mate, result.prev
                )
                assert evidence.for_methods or evidence.against_methods

    def test_candidate_fanout_cap_respected(self):
        scenario = build_scenario(mini(seed=3))
        low = self._collect_with(scenario, max_candidate_fanout=2)
        assert low.resolver is not None
        # With a tiny fanout cap, fewer pairwise tests run.
        scenario2 = build_scenario(mini(seed=3))
        high = self._collect_with(scenario2, max_candidate_fanout=12)
        assert high.resolver.pairs_tested >= low.resolver.pairs_tested
