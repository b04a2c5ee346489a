"""Tests for routing-oracle internals: class fingerprints, class routes,
egress selection, and the links-between index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asgraph import ASGraph, Rel
from repro.net.routing import (
    RoutingOracle,
    StepKind,
    _ClassRoutes,
    _class_fingerprint,
)
from repro.topology import build_scenario, large_access, mini
from repro.topology.model import LinkKind


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(mini(seed=2))


@pytest.fixture(scope="module")
def oracle(scenario):
    return scenario.network.oracle


class TestClassFingerprint:
    def test_deterministic(self):
        key = ((100, 200), frozenset({1, 2, 3}))
        assert _class_fingerprint(key) == _class_fingerprint(key)

    def test_restriction_changes_fingerprint(self):
        base = ((100,), None)
        restricted = ((100,), frozenset({7}))
        assert _class_fingerprint(base) != _class_fingerprint(restricted)

    def test_origin_changes_fingerprint(self):
        assert _class_fingerprint(((100,), None)) != _class_fingerprint(
            ((101,), None)
        )

    def test_32bit_range(self):
        value = _class_fingerprint(((65000, 65001), frozenset(range(50))))
        assert 0 <= value < (1 << 32)


class TestLinksBetween:
    def test_symmetric_entries(self, scenario, oracle):
        internet = scenario.internet
        for link in internet.interdomain_links():
            if link.kind is not LinkKind.INTERDOMAIN:
                continue
            owners = sorted(
                {internet.routers[i.router_id].asn for i in link.interfaces}
            )
            if len(owners) != 2:
                continue
            a, b = owners
            forward = oracle.links_between(a, b)
            backward = oracle.links_between(b, a)
            assert any(link.link_id == l for _, l in forward)
            assert any(link.link_id == l for _, l in backward)

    def test_near_router_belongs_to_first_as(self, scenario, oracle):
        internet = scenario.internet
        focal = scenario.focal_asn
        for neighbor in internet.graph.neighbors(focal):
            for near_router, link_id in oracle.links_between(focal, neighbor):
                assert internet.routers[near_router].asn == focal


class TestClassRoutes:
    def test_origin_selects_itself(self, scenario, oracle):
        policy = next(
            p for p in scenario.internet.prefix_policies.values() if p.announced
        )
        routes = oracle.class_routes(oracle.class_key(policy))
        for origin in policy.origins:
            assert routes.next_as(origin) == origin

    def test_chain_reaches_origin(self, scenario, oracle):
        internet = scenario.internet
        focal = scenario.focal_asn
        for policy in list(internet.prefix_policies.values())[:25]:
            if not policy.announced:
                continue
            routes = oracle.class_routes(oracle.class_key(policy))
            current = focal
            for _ in range(20):
                nxt = routes.next_as(current)
                if nxt is None or nxt == current:
                    break
                current = nxt
            assert current in policy.origins or routes.next_as(focal) is None

    def test_customer_routes_preferred(self):
        """Local preference: a longer customer route beats a shorter peer
        route."""
        graph = ASGraph()
        # origin 1 is customer of 2, 2 customer of 3; 3 peers with 9.
        # 9 also peers with 1 directly.
        graph.add_edge(1, 2, Rel.PROVIDER)
        graph.add_edge(2, 3, Rel.PROVIDER)
        graph.add_edge(3, 9, Rel.PEER)
        graph.add_edge(9, 1, Rel.PEER)

        routes = _ClassRoutes(graph, (1,), None, lambda o, n: True)
        # 3 has a customer route (via 2, length 2) and no direct peer link
        # to 1... but 9 has a peer route of length 1 via its peering with 1.
        assert routes.next_as(9) == 1
        selected = routes.sel(3)
        assert selected is not None
        assert selected[2] == 2  # customer route via 2, not peer via 9

    def test_unreachable_when_no_export(self):
        """A prefix announced only over a restricted link set is invisible
        to ASes with no allowed path."""
        graph = ASGraph()
        graph.add_edge(1, 2, Rel.PROVIDER)
        graph.add_edge(1, 3, Rel.PROVIDER)

        # Origin 1 exports to nobody (no allowed first hops).
        routes = _ClassRoutes(graph, (1,), frozenset(), lambda o, n: False)
        assert routes.next_as(2) is None
        assert routes.next_as(3) is None


def _fixed_point(graph, routes):
    """Every AS's selected route, computed apart from ``sel``: customer
    and peer routes as the class built them, and provider and sibling
    routes relaxed to the shortest-path fixed point (then lowest next
    AS), starting from no route."""
    chosen = {}
    for asn in graph.ases():
        own = [(rank,) + route
               for rank, table in ((0, routes.dist_c), (1, routes.peer))
               for route in [table.get(asn)] if route is not None]
        chosen[asn] = min(own) if own else None
    upward = {
        asn: [n for n in graph.neighbors(asn)
              if graph.relationship(asn, n) in (Rel.PROVIDER, Rel.SIBLING)]
        for asn in graph.ases()
        if chosen[asn] is None
    }
    changed = True
    while changed:
        changed = False
        for asn, neighbors in upward.items():
            options = [(chosen[n][1] + 1, n)
                       for n in neighbors if chosen[n] is not None]
            best = (2,) + min(options) if options else None
            if best != chosen[asn]:
                chosen[asn] = best
                changed = True
    return chosen


@st.composite
def _graphs(draw):
    """A small AS graph: providers only above their customers, siblings
    and peers anywhere, and one or two origins."""
    size = draw(st.integers(min_value=2, max_value=8))
    graph = ASGraph()
    for asn in range(size):
        graph.add_as(asn)
    for a in range(size):
        for b in range(a + 1, size):
            rel = draw(st.sampled_from(
                (None, None, Rel.PROVIDER, Rel.SIBLING, Rel.PEER)
            ))
            if rel is not None:
                graph.add_edge(a, b, rel)
    origins = tuple(sorted(draw(
        st.sets(st.integers(0, size - 1), min_size=1, max_size=2)
    )))
    order = draw(st.permutations(range(size)))
    return graph, origins, order


class TestClassRouteOrder:
    """A class's answers do not depend on which ASes were asked before:
    the sibling recursion guard cuts loops, and an answer computed with a
    route cut above its AS is not memoized."""

    def test_sibling_answer_does_not_depend_on_the_order_asked(self):
        # 10 and 11 are siblings; 20 provides 10 and 30 provides 11.  The
        # origin 50 is a customer of 20 and of 40, a customer of 30.
        graph = ASGraph()
        graph.add_edge(10, 11, Rel.SIBLING)
        graph.add_edge(10, 20, Rel.PROVIDER)
        graph.add_edge(11, 30, Rel.PROVIDER)
        graph.add_edge(50, 20, Rel.PROVIDER)
        graph.add_edge(50, 40, Rel.PROVIDER)
        graph.add_edge(40, 30, Rel.PROVIDER)

        def answers(order):
            routes = _ClassRoutes(graph, (50,), None, lambda o, n: True)
            return {asn: routes.sel(asn) for asn in order}

        # Via 10 (over 20) and via 30 both take three hops; 10 is lower.
        assert answers([10, 11]) == answers([11, 10])
        assert answers([10, 11])[11] == (2, 3, 10)

    def test_large_access_answers_do_not_depend_on_the_order_asked(self):
        internet = build_scenario(large_access()).internet
        keys = sorted(
            {(p.origins, p.restricted_links)
             for p in internet.prefix_policies.values() if p.announced},
            key=lambda key: (key[0], sorted(key[1] or ())),
        )
        ases = sorted(internet.graph.ases())

        def answers(order):
            oracle = RoutingOracle(internet)
            return [
                {asn: routes.sel(asn) for asn in order}
                for key in keys for routes in [oracle.class_routes(key)]
            ]

        assert answers(ases) == answers(ases[::-1])

    @settings(max_examples=150, deadline=None)
    @given(_graphs())
    def test_answers_equal_the_shortest_path_fixed_point(self, drawn):
        graph, origins, order = drawn
        routes = _ClassRoutes(graph, origins, None, lambda o, n: True)
        asked = {asn: routes.sel(asn) for asn in order}
        assert asked == _fixed_point(graph, routes)


class TestStepSemantics:
    def test_unreachable_for_unannounced(self, scenario, oracle):
        step = oracle.step(scenario.vps[0].first_router, 0xCB007107)
        assert step.kind is StepKind.UNREACHABLE

    def test_forward_steps_carry_link_metadata(self, scenario, oracle):
        policy = next(
            p
            for p in scenario.internet.prefix_policies.values()
            if p.announced
            and scenario.focal_asn not in p.origins
        )
        step = oracle.step(scenario.vps[0].first_router, policy.prefix.addr + 1)
        assert step.kind is StepKind.FORWARD
        assert step.link_id in scenario.internet.links
        assert step.next_router in scenario.internet.routers

    def test_igp_distance_cross_as_rejected(self, scenario, oracle):
        internet = scenario.internet
        focal_router = internet.ases[scenario.focal_asn].router_ids[0]
        other_asn = next(
            asn
            for asn in internet.ases
            if asn != scenario.focal_asn and internet.ases[asn].router_ids
        )
        other_router = internet.ases[other_asn].router_ids[0]
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            oracle.igp_distance(focal_router, other_router)
