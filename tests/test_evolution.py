"""Tests for topology evolution and longitudinal run diffing."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_scenario, build_data_bundle, mini, run_bdrmap
from repro.analysis.diff import RunDiff, diff_border_maps, diff_results
from repro.asgraph import Rel
from repro.errors import TopologyError
from repro.topology.evolve import (
    LinkAdded,
    LinkMoved,
    LinkRemoved,
    RelationshipChanged,
    add_border_link,
    de_peer,
    move_border_link,
    rebuild_network,
    remove_link,
)
from repro.topology.model import LinkKind


@pytest.fixture()
def scenario():
    return build_scenario(mini(seed=33))


def _fresh_candidate(scenario):
    """A background AS with no existing relationship to the focal net."""
    internet = scenario.internet
    focal = scenario.focal_asn
    return next(
        asn
        for asn in sorted(internet.ases)
        if internet.graph.relationship(focal, asn) is None
        and internet.ases[asn].router_ids
        and asn != focal
    )


class TestAddBorderLink:
    def test_new_peering_provisioned(self, scenario):
        internet = scenario.internet
        focal = scenario.focal_asn
        candidate = _fresh_candidate(scenario)
        event = add_border_link(scenario, focal, candidate)
        assert isinstance(event, LinkAdded)
        assert event.created_relationship
        assert event.relationship == Rel.PEER.value
        assert internet.graph.relationship(focal, candidate) is Rel.PEER
        link = internet.links[event.link_id]
        assert link.kind is LinkKind.INTERDOMAIN
        owners = {internet.routers[i.router_id].asn for i in link.interfaces}
        assert owners == {focal, candidate}
        assert sorted(event.addrs) == sorted(
            i.addr for i in link.interfaces if i.addr is not None
        )
        for iface in link.interfaces:
            assert internet.addr_to_iface[iface.addr] is iface

    def test_existing_relationship_not_recreated(self, scenario):
        focal = scenario.focal_asn
        customer = scenario.internet.graph.customers(focal)[0]
        event = add_border_link(scenario, focal, customer)
        assert not event.created_relationship
        assert event.relationship == Rel.CUSTOMER.value

    def test_provider_supplies_subnet(self, scenario):
        focal = scenario.focal_asn
        customer = scenario.internet.graph.customers(focal)[0]
        event = add_border_link(scenario, focal, customer)
        assert event.supplier_asn == focal

    def test_event_recorded_and_dirty_flag_set(self, scenario):
        assert not scenario.topology_dirty
        focal = scenario.focal_asn
        event = add_border_link(scenario, focal, _fresh_candidate(scenario))
        assert scenario.mutations[-1] is event
        assert scenario.topology_dirty
        rebuild_network(scenario)
        assert not scenario.topology_dirty

    def test_unknown_as_rejected(self, scenario):
        with pytest.raises(TopologyError):
            add_border_link(scenario, scenario.focal_asn, 999999)


class TestRemoveLink:
    def test_link_gone(self, scenario):
        internet = scenario.internet
        link = next(iter(internet.interdomain_links(scenario.focal_asn)))
        addrs = sorted(i.addr for i in link.interfaces if i.addr is not None)
        event = remove_link(scenario, link.link_id)
        assert isinstance(event, LinkRemoved)
        assert event.link_id == link.link_id
        assert sorted(event.addrs) == addrs
        assert link.link_id not in internet.links
        for addr in addrs:
            assert addr not in internet.addr_to_iface

    def test_subnet_returned_to_pool(self, scenario):
        """A turned-down circuit's subnet is reused by the next
        provisioning from the same supplier."""
        focal = scenario.focal_asn
        customer = scenario.internet.graph.customers(focal)[0]
        # Same AS argument order both times → same supplier (focal), so
        # the released subnet lands back in the pool we draw from.
        first = add_border_link(scenario, focal, customer)
        remove_link(scenario, first.link_id)
        second = add_border_link(scenario, focal, customer)
        assert second.supplier_asn == first.supplier_asn == focal
        assert sorted(second.addrs) == sorted(first.addrs)

    def test_unknown_link_rejected(self, scenario):
        with pytest.raises(TopologyError):
            remove_link(scenario, 10**9)


class TestMoveBorderLink:
    def test_rehomed_to_sibling_router(self, scenario):
        internet = scenario.internet
        focal = scenario.focal_asn
        link = next(iter(internet.interdomain_links(focal)))
        iface = next(
            i for i in link.interfaces
            if internet.routers[i.router_id].asn == focal
        )
        target = next(
            rid for rid in internet.ases[focal].router_ids
            if rid != iface.router_id
        )
        event = move_border_link(scenario, link.link_id, target)
        assert isinstance(event, LinkMoved)
        assert event.from_router != event.to_router == target
        assert iface.router_id == target
        assert iface in internet.routers[target].interfaces
        assert internet.routers[target].is_border
        assert iface not in internet.routers[event.from_router].interfaces

    def test_noop_move_rejected(self, scenario):
        internet = scenario.internet
        focal = scenario.focal_asn
        link = next(iter(internet.interdomain_links(focal)))
        iface = next(
            i for i in link.interfaces
            if internet.routers[i.router_id].asn == focal
        )
        with pytest.raises(TopologyError):
            move_border_link(scenario, link.link_id, iface.router_id)


class TestDePeer:
    def test_links_and_relationship_torn_down(self, scenario):
        internet = scenario.internet
        focal = scenario.focal_asn
        neighbor = internet.graph.customers(focal)[0]
        doomed = [
            link.link_id
            for link in internet.interdomain_links(focal)
            if {internet.routers[i.router_id].asn for i in link.interfaces}
            == {focal, neighbor}
        ]
        events = de_peer(scenario, focal, neighbor)
        removed = [e for e in events if isinstance(e, LinkRemoved)]
        assert sorted(e.link_id for e in removed) == sorted(doomed)
        final = events[-1]
        assert isinstance(final, RelationshipChanged)
        assert final.before == Rel.CUSTOMER.value and final.after is None
        assert internet.graph.relationship(focal, neighbor) is None
        for link_id in doomed:
            assert link_id not in internet.links

    def test_non_adjacent_rejected(self, scenario):
        with pytest.raises(TopologyError):
            de_peer(scenario, scenario.focal_asn, _fresh_candidate(scenario))


class TestStalenessGuard:
    def test_run_refused_until_rebuild(self, scenario):
        data = build_data_bundle(scenario)
        add_border_link(
            scenario, scenario.focal_asn, _fresh_candidate(scenario)
        )
        with pytest.raises(TopologyError):
            run_bdrmap(scenario, data=data)
        rebuild_network(scenario)
        run_bdrmap(scenario, data=build_data_bundle(scenario))


class TestRebuild:
    def test_clock_and_vps_preserved(self, scenario):
        scenario.network.advance(100.0)
        old_now = scenario.network.now
        vp_addrs = {vp.addr for vp in scenario.vps}
        network = rebuild_network(scenario)
        assert network is scenario.network
        assert network.now == old_now
        assert set(network.vps) == vp_addrs


class TestLongitudinalDiff:
    def test_no_change_no_diff(self, scenario):
        data = build_data_bundle(scenario)
        before = run_bdrmap(scenario, data=data)
        after = run_bdrmap(scenario, data=data)
        diff = diff_results(before, after)
        assert not diff.added_links
        assert not diff.removed_links
        assert diff.stable_links == len(after.links)

    def test_new_peering_detected(self, scenario):
        internet = scenario.internet
        focal = scenario.focal_asn
        data = build_data_bundle(scenario)
        before = run_bdrmap(scenario, data=data)

        candidate = next(
            asn
            for asn in sorted(before.neighbor_ases() ^ set(internet.ases))
            if asn in internet.ases
            and internet.graph.relationship(focal, asn) is None
            and internet.ases[asn].router_ids
            and asn != focal
            and internet.ases[asn].kind.value not in ("ixp_rs",)
        )
        add_border_link(scenario, focal, candidate)
        rebuild_network(scenario)
        # Routing changed: rebuild the public view too (new best paths).
        data_after = build_data_bundle(scenario)
        after = run_bdrmap(scenario, data=data_after)
        diff = diff_results(before, after)
        assert candidate in after.neighbor_ases()
        assert candidate in diff.gained_neighbors or any(
            key[0] == candidate for key in diff.added_links
        )

    def test_depeering_detected(self, scenario):
        internet = scenario.internet
        data = build_data_bundle(scenario)
        before = run_bdrmap(scenario, data=data)
        # Turn down every link to one inferred neighbor.
        victim = min(before.neighbor_ases())
        victim_links = [
            link.link_id
            for link in internet.interdomain_links(scenario.focal_asn)
            if victim
            in {internet.routers[i.router_id].asn for i in link.interfaces}
        ]
        if not victim_links:
            pytest.skip("neighbor attaches via IXP only")
        for link_id in victim_links:
            remove_link(scenario, link_id)
        rebuild_network(scenario)
        after = run_bdrmap(scenario, data=build_data_bundle(scenario))
        diff = diff_results(before, after)
        assert diff.changed
        assert victim in diff.lost_neighbors or any(
            key[0] == victim for key in diff.removed_links
        )

    def test_summary_renders(self, scenario):
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        diff = diff_results(result, result)
        assert "stable" in diff.summary()

    def test_diff_deterministic_and_json_ready(self, scenario):
        data = build_data_bundle(scenario)
        before = run_bdrmap(scenario, data=data)
        add_border_link(
            scenario, scenario.focal_asn, _fresh_candidate(scenario)
        )
        rebuild_network(scenario)
        after = run_bdrmap(scenario, data=build_data_bundle(scenario))
        baseline = diff_results(before, after).to_dict()
        for _ in range(5):
            assert diff_results(before, after).to_dict() == baseline
        assert baseline["stable_links"] >= 0
        assert all(
            isinstance(n, int) and addrs == sorted(addrs)
            for n, addrs in baseline["added_links"] + baseline["removed_links"]
        )


def _quadratic_diff(before_keys, after_keys):
    """The diff as it was computed when every after-key sorted the whole
    unmatched pool again: the reference for the one-sort match."""
    def order(key):
        return key[0], sorted(key[1])

    def match(key, pool):
        neighbor, addrs = key
        for candidate in sorted(pool, key=order):
            if candidate[0] == neighbor and (candidate[1] & addrs or not addrs):
                return candidate
        return None

    diff = RunDiff()
    before_neighbors = {key[0] for key in before_keys}
    after_neighbors = {key[0] for key in after_keys}
    diff.gained_neighbors = after_neighbors - before_neighbors
    diff.lost_neighbors = before_neighbors - after_neighbors
    unmatched = set(before_keys)
    for key in sorted(after_keys, key=order):
        matched = match(key, unmatched)
        if matched is not None:
            unmatched.discard(matched)
            diff.stable_links += 1
        else:
            diff.added_links.append(key)
    diff.removed_links = sorted(unmatched, key=order)
    return diff.to_dict()


def _as_result(keys):
    """A stand-in run with one link per key; a key without addresses has
    no near router in the graph."""
    links, routers = [], {}
    for rid, (neighbor, addrs) in enumerate(sorted(keys, key=repr)):
        links.append(SimpleNamespace(near_rid=rid, neighbor_as=neighbor))
        if addrs:
            routers[rid] = SimpleNamespace(addrs=sorted(addrs))
    return SimpleNamespace(
        links=links,
        graph=SimpleNamespace(routers=routers),
        neighbor_ases=lambda: {link.neighbor_as for link in links},
    )


def _as_border_map(keys):
    keys = sorted(keys, key=repr)
    return SimpleNamespace(
        links=[SimpleNamespace(near_router=index, neighbor_as=neighbor)
               for index, (neighbor, _) in enumerate(keys)],
        routers=[SimpleNamespace(addrs=tuple(sorted(addrs)))
                 for _, addrs in keys],
        neighbor_ases=lambda: tuple(sorted({key[0] for key in keys})),
    )


_keys = st.sets(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=3),
    ),
    max_size=10,
)


class TestDiffMatching:
    """Sorting the before-keys once and scanning each neighbor's list
    matches exactly what sorting the unmatched pool per after-key did:
    shared neighbors, overlapping and empty address sets included."""

    @settings(max_examples=200, deadline=None)
    @given(_keys, _keys)
    def test_equals_the_quadratic_match(self, before, after):
        reference = _quadratic_diff(before, after)
        assert diff_results(
            _as_result(before), _as_result(after)
        ).to_dict() == reference
        assert diff_border_maps(
            _as_border_map(before), _as_border_map(after)
        ).to_dict() == reference
