"""Tests for the packet-level simulator: IPID models, policies, routing
decisions, and the forwarding walk with all its ICMP idiosyncrasies."""

import hashlib
import inspect
import pickle

import pytest

from repro.bgp import collect_public_view
from repro.core import build_targets
from repro.net import (
    IPIDModel,
    IPIDState,
    Probe,
    ProbeKind,
    Response,
    ResponseKind,
    SourceSel,
)
from repro.net.faults import make_fault_plan
from repro.net.policies import RateLimiter
from repro.net.routing import RoutingOracle, StepKind
from repro.rng import make_rng
from repro.topology import build_scenario, mini
from repro.errors import ProbeError


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(mini(seed=2))


def external_target(scenario, index=0):
    """An announced prefix not originated by the VP network."""
    focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
    policies = sorted(
        (
            p
            for p in scenario.internet.prefix_policies.values()
            if p.announced and not (set(p.origins) & focal_family)
        ),
        key=lambda p: p.prefix,
    )
    return policies[index]


class TestIPIDState:
    def test_shared_counter_monotonic(self):
        state = IPIDState(IPIDModel.SHARED_COUNTER, 100.0, make_rng(1))
        values = [state.next(float(i) / 100, None) for i in range(10)]
        unwrapped = []
        offset = 0
        prev = None
        for v in values:
            if prev is not None and v < prev:
                offset += 1 << 16
            unwrapped.append(v + offset)
            prev = v
        assert unwrapped == sorted(unwrapped)
        assert len(set(unwrapped)) == len(unwrapped)

    def test_zero_model(self):
        state = IPIDState(IPIDModel.ZERO, 100.0, make_rng(1))
        assert all(state.next(i, None) == 0 for i in range(5))

    def test_per_interface_counters_independent(self):
        state = IPIDState(IPIDModel.PER_INTERFACE, 0.0, make_rng(1))
        a = [state.next(0.0, 1) for _ in range(3)]
        b = [state.next(0.0, 2) for _ in range(3)]
        assert a[1] - a[0] == 1 and a[2] - a[1] == 1
        assert b[1] - b[0] == 1
        assert a[0] != b[0]  # different bases (with high probability)

    def test_random_model_varies(self):
        state = IPIDState(IPIDModel.RANDOM, 0.0, make_rng(1))
        values = {state.next(0.0, None) for _ in range(10)}
        assert len(values) > 3

    def test_velocity_advances_counter(self):
        state = IPIDState(IPIDModel.SHARED_COUNTER, 1000.0, make_rng(1), base=0)
        early = state.next(0.0, None)
        late = state.next(10.0, None)
        assert (late - early) % (1 << 16) > 5000


class TestRateLimiter:
    def test_burst_then_blocked(self):
        limiter = RateLimiter(pps=1.0, burst=2.0)
        assert limiter.allow(0.0)
        assert limiter.allow(0.0)
        assert not limiter.allow(0.0)

    def test_refills_over_time(self):
        limiter = RateLimiter(pps=1.0, burst=1.0)
        assert limiter.allow(0.0)
        assert not limiter.allow(0.1)
        assert limiter.allow(2.0)


class TestRoutingOracle:
    def test_valley_free_paths(self, scenario):
        """No AS-level path may go down (to a customer) or across (peer)
        and then back up."""
        from repro.asgraph import Rel

        oracle = scenario.network.oracle
        internet = scenario.internet
        graph = internet.graph
        for policy in list(internet.prefix_policies.values())[:40]:
            if not policy.announced:
                continue
            key = oracle.class_key(policy)
            routes = oracle.class_routes(key)
            for asn in list(internet.ases)[:40]:
                # Walk the AS-level path and check valley-freedom.
                path = [asn]
                current = asn
                for _ in range(16):
                    nxt = routes.next_as(current)
                    if nxt is None or nxt == current:
                        break
                    path.append(nxt)
                    current = nxt
                descended = False
                for left, right in zip(path, path[1:]):
                    rel = graph.relationship(left, right)
                    if rel in (Rel.CUSTOMER, Rel.PEER):
                        if rel is Rel.CUSTOMER and descended:
                            pass  # staying downhill is fine
                        assert not (descended and rel is Rel.PEER), path
                        descended = True
                    elif rel is Rel.PROVIDER:
                        assert not descended, "valley in %s" % (path,)

    def test_origin_delivers_to_self(self, scenario):
        oracle = scenario.network.oracle
        policy = external_target(scenario)
        origin = policy.origins[0]
        assert oracle.next_as_of(origin, policy.prefix.addr + 1) == origin

    def test_unannounced_space_unreachable(self, scenario):
        oracle = scenario.network.oracle
        vp = scenario.vps[0]
        first = vp.first_router
        # 203.0.113.0/24 (TEST-NET-3) is never allocated by the generator.
        step = oracle.step(first, 0xCB007107)
        assert step.kind is StepKind.UNREACHABLE

    def test_step_arrive_on_own_address(self, scenario):
        internet = scenario.internet
        router = next(
            r for r in internet.routers.values() if r.addresses()
        )
        step = scenario.network.oracle.step(
            router.router_id, router.addresses()[0]
        )
        assert step.kind is StepKind.ARRIVE

    def test_igp_distance_self_zero(self, scenario):
        internet = scenario.internet
        router = next(iter(internet.routers.values()))
        assert scenario.network.oracle.igp_distance(
            router.router_id, router.router_id
        ) == 0.0

    def test_hot_potato_prefers_close_egress(self, scenario):
        """The egress border router chosen must be (near-)minimal in IGP
        distance among candidates."""
        oracle = scenario.network.oracle
        policy = external_target(scenario)
        key = oracle.class_key(policy)
        focal = scenario.focal_asn
        next_as = oracle.class_routes(key).next_as(focal)
        if next_as is None or next_as == focal:
            pytest.skip("target routes inside focal network")
        candidates = oracle.links_between(focal, next_as)
        if not candidates:
            pytest.skip("no direct links for this target")
        router_id = scenario.vps[0].first_router
        chosen = oracle._egress(router_id, next_as, key)
        assert chosen is not None
        table = oracle._intra_table(focal)[router_id]
        chosen_dist = 0.0 if chosen[0] == router_id else table[chosen[0]][0]
        best = min(
            (0.0 if near == router_id else table.get(near, (float("inf"),))[0])
            for near, _ in candidates
        )
        assert chosen_dist <= best + 0.25


def _forwarded(scenario, oracle):
    """A policy without an announcement restriction, and the first
    router of the first VP, whose decision for it forwards."""
    router_id = scenario.vps[0].first_router
    policy = next(
        p for p in sorted(scenario.internet.prefix_policies.values(),
                          key=lambda p: p.prefix)
        if p.announced and p.restricted_links is None
        and oracle.prefix_step(router_id, p).kind is StepKind.FORWARD
    )
    return policy, router_id


class TestClassRouteCarry:
    def test_taken_only_from_an_oracle_over_the_same_internet(self, scenario):
        """An oracle takes another's unrestricted class routes, intra-AS
        tables and decisions only when both route over one Internet: an
        identical copy built from the same seed has an equal AS graph,
        yet gives nothing."""
        policy = next(
            p for p in sorted(scenario.internet.prefix_policies.values(),
                              key=lambda p: p.prefix)
            if p.announced and p.restricted_links is None
        )
        previous = RoutingOracle(scenario.internet)
        key = previous.class_key(policy)
        routes = previous.class_routes(key)
        forwarded, router_id = _forwarded(scenario, previous)
        step = previous.prefix_step(router_id, forwarded)
        asn = scenario.internet.routers[router_id].asn
        table = previous._intra_table(asn)
        previous.record_inputs()
        same = RoutingOracle(scenario.internet)
        same.record_inputs()
        same.take_routes(previous)
        assert same.class_routes(key) is routes
        assert same._intra_table(asn) is table
        assert same.prefix_step(router_id, forwarded) is step
        copy = build_scenario(mini(seed=2)).internet
        assert copy.graph.same_as(scenario.internet.graph)
        other = RoutingOracle(copy)
        other.record_inputs()
        other.take_routes(previous)
        assert other.class_routes(key) is not routes
        assert other._intra == {} and other._prefix_memo == {}

    def test_nothing_taken_without_both_records(self, scenario):
        def held(record_previous, record_current):
            previous = RoutingOracle(scenario.internet)
            _forwarded(scenario, previous)  # a class, tables, decisions
            current = RoutingOracle(scenario.internet)
            if record_previous:
                previous.record_inputs()
            if record_current:
                current.record_inputs()
            current.take_routes(previous)
            return current._classes, current._intra, current._prefix_memo

        assert held(False, True) == held(True, False) == ({}, {}, {})
        assert all(held(True, True))

    def test_record_is_made_on_request_only(self, scenario):
        assert RoutingOracle(scenario.internet)._inputs is None


class TestStepSharing:
    """Forwarding decisions are memoized per (router, destination) and,
    past the infrastructure checks, per (router, covering prefix).  The
    memos must not make an answer depend on what was asked before."""

    UNROUTED = (0xCB007107, 0, (1 << 32) - 1)  # TEST-NET-3 and the ends

    @staticmethod
    def _sample(scenario):
        internet = scenario.internet
        announced = sorted(
            (p for p in internet.prefix_policies.values() if p.announced),
            key=lambda p: p.prefix,
        )
        live = sorted({addr for p in announced for addr in p.live_hosts})
        dead = [
            addr
            for p in announced[::7]
            for addr in (p.prefix.addr + 2, p.prefix.last - 1)
            if addr not in p.live_hosts and addr not in internet.addr_to_iface
        ]
        ifaces = sorted(internet.addr_to_iface)[::11]
        dsts = (ifaces + live[::5] + dead + list(TestStepSharing.UNROUTED)
                + [scenario.vps[0].addr])
        routers = sorted(internet.routers)[::3]
        return [(router, dst) for router in routers for dst in dsts]

    def test_order_does_not_change_any_step(self, scenario):
        pairs = self._sample(scenario)
        forward = RoutingOracle(scenario.internet)
        backward = RoutingOracle(scenario.internet)
        ahead = [forward.step(router, dst) for router, dst in pairs]
        behind = [backward.step(router, dst) for router, dst in reversed(pairs)]
        assert ahead == behind[::-1]
        assert {step.kind for step in ahead} == set(StepKind)

    def test_hosts_of_one_prefix_share_a_step(self, scenario):
        internet = scenario.internet
        oracle = RoutingOracle(internet)
        policy = external_target(scenario)
        first, second = policy.prefix.addr + 1, policy.prefix.last - 1
        assert first not in internet.addr_to_iface
        assert second not in internet.addr_to_iface
        router = scenario.vps[0].first_router
        step = oracle.step(router, first)
        assert step.kind is StepKind.FORWARD
        assert oracle.step(router, second) is step

    def test_steps_are_frozen(self, scenario):
        step = scenario.network.oracle.step(
            scenario.vps[0].first_router, external_target(scenario).prefix.addr
        )
        with pytest.raises(AttributeError):
            step.next_router = None


class TestNetworkWalk:
    def test_unknown_vp_rejected(self, scenario):
        with pytest.raises(ProbeError):
            scenario.network.send(Probe(src=12345, dst=1, ttl=4))

    def test_ttl1_hits_first_router(self, scenario):
        vp = scenario.vps[0]
        policy = external_target(scenario)
        response = scenario.network.send(
            Probe(vp.addr, policy.prefix.addr + 1, ttl=1)
        )
        assert response is not None
        assert response.kind is ResponseKind.TTL_EXPIRED
        assert response.truth_router_id == vp.first_router

    def test_increasing_ttl_walks_path(self, scenario):
        vp = scenario.vps[0]
        policy = external_target(scenario, index=3)
        dst = policy.prefix.addr + 1
        seen = []
        for ttl in range(1, 24):
            response = scenario.network.send(Probe(vp.addr, dst, ttl=ttl))
            if response is None:
                continue
            if response.kind is not ResponseKind.TTL_EXPIRED:
                break
            seen.append(response.truth_router_id)
        assert len(seen) >= 2
        # consecutive distinct routers (no repeats from the same TTL walk)
        assert all(a != b for a, b in zip(seen, seen[1:]))

    def test_live_host_echo_reply(self, scenario):
        vp = scenario.vps[0]
        internet = scenario.internet
        focal_family = internet.sibling_asns(scenario.focal_asn)
        for policy in internet.prefix_policies.values():
            if not policy.announced or set(policy.origins) & focal_family:
                continue
            if not policy.live_hosts:
                continue
            # Make sure no firewall protects this origin.
            origin = policy.origins[0]
            routers = internet.routers_of(origin)
            if any(r.policy.firewall or not r.policy.responds_echo for r in routers):
                continue
            dst = min(policy.live_hosts)
            response = scenario.network.send(Probe(vp.addr, dst, ttl=40))
            if response is None:
                continue
            assert response.kind in (
                ResponseKind.ECHO_REPLY,
                ResponseKind.DEST_UNREACH_PORT,
            )
            assert response.src == dst
            return
        pytest.skip("no unfirewalled live host in this topology")

    def test_probe_router_interface_echo(self, scenario):
        """Pinging a router interface returns an echo reply sourced from the
        probed address (§4: reply source = probed destination)."""
        vp = scenario.vps[0]
        internet = scenario.internet
        focal = internet.ases[scenario.focal_asn]
        router = internet.routers[focal.router_ids[0]]
        addr = router.addresses()[0]
        response = scenario.network.send(Probe(vp.addr, addr, ttl=40))
        assert response is not None
        assert response.kind is ResponseKind.ECHO_REPLY
        assert response.src == addr

    def test_udp_probe_port_unreachable(self, scenario):
        vp = scenario.vps[0]
        internet = scenario.internet
        for router in internet.routers_of(scenario.focal_asn):
            if router.policy.responds_udp and router.addresses():
                addr = router.addresses()[0]
                response = scenario.network.send(
                    Probe(vp.addr, addr, ttl=40, kind=ProbeKind.UDP)
                )
                assert response is not None
                assert response.kind is ResponseKind.DEST_UNREACH_PORT
                return
        pytest.skip("no UDP responder in focal network")

    def test_clock_advances_per_probe(self, scenario):
        network = scenario.network
        before = network.now
        vp = scenario.vps[0]
        network.send(Probe(vp.addr, external_target(scenario).prefix.addr, 1))
        assert network.now == pytest.approx(before + 1.0 / network.pps)

    def test_advance_rejects_negative(self, scenario):
        with pytest.raises(ProbeError):
            scenario.network.advance(-1.0)

    def test_truth_path_matches_walk(self, scenario):
        vp = scenario.vps[0]
        policy = external_target(scenario, index=5)
        dst = policy.prefix.addr + 1
        path = scenario.network.truth_path(vp.addr, dst)
        assert path[0] == vp.first_router
        assert len(path) == len(set(path)), "routing loop in truth path"


class TestPolicyBehaviours:
    def _build_custom(self):
        """A scenario where we can flip policies directly."""
        return build_scenario(mini(seed=31))

    def test_silent_router_no_response(self):
        scenario = self._build_custom()
        vp = scenario.vps[0]
        router = scenario.internet.routers[vp.first_router]
        router.policy.responds_ttl_expired = False
        policy = external_target(scenario)
        response = scenario.network.send(
            Probe(vp.addr, policy.prefix.addr + 1, ttl=1)
        )
        assert response is None

    def test_echo_only_router(self):
        scenario = self._build_custom()
        vp = scenario.vps[0]
        router = scenario.internet.routers[vp.first_router]
        router.policy.responds_ttl_expired = False
        router.policy.responds_echo = True
        addr = router.addresses()[0]
        response = scenario.network.send(Probe(vp.addr, addr, ttl=40))
        assert response is not None
        assert response.kind is ResponseKind.ECHO_REPLY

    def test_reply_egress_source_selection(self):
        """REPLY_EGRESS routers answer from the interface toward the VP."""
        scenario = self._build_custom()
        vp = scenario.vps[0]
        policy = external_target(scenario, index=2)
        dst = policy.prefix.addr + 1
        # Find the router at TTL 3 and flip its source selection.
        response = scenario.network.send(Probe(vp.addr, dst, ttl=3))
        if response is None or response.kind is not ResponseKind.TTL_EXPIRED:
            pytest.skip("no responsive router at ttl 3")
        router = scenario.internet.routers[response.truth_router_id]
        router.policy.source_sel = SourceSel.REPLY_EGRESS
        router.policy.vrouter = {}
        again = scenario.network.send(Probe(vp.addr, dst, ttl=3))
        assert again is not None
        step = scenario.network.oracle.step(router.router_id, vp.addr)
        if step.kind is StepKind.FORWARD:
            assert again.src == step.out_addr

    def test_firewall_blocks_transit_but_answers_ttl(self):
        """§4 challenge 3 (R5): the firewall router itself answers TTL
        expiry, but nothing behind it is reachable."""
        scenario = self._build_custom()
        internet = scenario.internet
        vp = scenario.vps[0]
        # Choose a customer with >= 2 routers and force a firewall.
        for asn in internet.graph.customers(scenario.focal_asn):
            routers = internet.routers_of(asn)
            if len(routers) < 2:
                continue
            policy = next(
                (
                    p
                    for p in internet.prefix_policies.values()
                    if p.origins == (asn,) and p.announced
                ),
                None,
            )
            if policy is None:
                continue
            for router in routers:
                router.policy.firewall = router.is_border
                router.policy.firewall_admin_reply = False
                router.policy.responds_ttl_expired = True
            dst = policy.prefix.addr + 1
            hops = []
            for ttl in range(1, 24):
                response = scenario.network.send(Probe(vp.addr, dst, ttl=ttl))
                hops.append(response)
            responded = [r for r in hops if r is not None]
            # The customer's border may respond, but no probe reaches a
            # live host or interior router *behind* the firewall.
            interior = [
                r
                for r in responded
                if r.truth_router_id is not None
                and internet.routers[r.truth_router_id].asn == asn
                and not internet.routers[r.truth_router_id].is_border
            ]
            assert not interior
            return
        pytest.skip("no suitable customer")

    def test_vrouter_source_depends_on_destination(self):
        """§4 challenge 4: virtual routers answer with the address of the
        session facing the destination's next-hop AS."""
        scenario = self._build_custom()
        internet = scenario.internet
        vp = scenario.vps[0]
        oracle = scenario.network.oracle
        # Find any responding border router on a path and give it vrouter
        # addresses for two neighbor ASes.
        policy_a = external_target(scenario, index=1)
        dst_a = policy_a.prefix.addr + 1
        for ttl in range(2, 12):
            response = scenario.network.send(Probe(vp.addr, dst_a, ttl=ttl))
            if response is None or response.kind is not ResponseKind.TTL_EXPIRED:
                continue
            router = internet.routers[response.truth_router_id]
            next_as = oracle.next_as_of(router.asn, dst_a)
            if next_as is None:
                continue
            fake_addr = router.addresses()[0]
            router.policy.vrouter = {next_as: fake_addr}
            again = scenario.network.send(Probe(vp.addr, dst_a, ttl=ttl))
            assert again is not None
            assert again.src == fake_addr
            return
        pytest.skip("no usable hop found")


class TestRecords:
    """The probe and reply records: their fields, their defaults,
    immutability, and pickling (parallel workers ship traces home)."""

    EMPTY = inspect.Parameter.empty
    RECORDS = pytest.mark.parametrize("cls, args, fields", [
        (Probe, (1, 2, 3),
         [("src", EMPTY), ("dst", EMPTY), ("ttl", EMPTY),
          ("kind", ProbeKind.ICMP_ECHO), ("flow_id", 0)]),
        (Response, (4, ResponseKind.ECHO_REPLY, 5, 6, 1.5),
         [("src", EMPTY), ("kind", EMPTY), ("ipid", EMPTY),
          ("quoted_dst", EMPTY), ("rtt", EMPTY), ("truth_router_id", None)]),
    ], ids=["probe", "response"])

    @RECORDS
    def test_fields_in_order_with_defaults(self, cls, args, fields):
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in parameters] == fields

    @RECORDS
    def test_immutable_and_hashable(self, cls, args, fields):
        record = cls(*args)
        for name, _ in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert hash(record) == hash(cls(*args))
        assert record == cls(*args)

    @RECORDS
    def test_pickle_round_trip(self, cls, args, fields):
        record = cls(*args)
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record)
        assert again == record
        assert repr(again) == repr(record)

    def test_repr_names_every_field(self):
        assert repr(Probe(1, 2, 3)) == (
            "Probe(src=1, dst=2, ttl=3, "
            "kind=<ProbeKind.ICMP_ECHO: 'icmp-echo'>, flow_id=0)"
        )


class TestRouteMemo:
    """Without faults or congestion a probe walks the recorded route of
    its (first router, destination); every answer must equal the
    hop-by-hop walk's, which stays the reference (and the only walk under
    faults or congestion)."""

    SEED = 31
    UNROUTED = 0xCB007107  # TEST-NET-3, never allocated

    def _twins(self):
        """Two identical scenarios; the second is pinned to the
        hop-by-hop walk."""
        memo = build_scenario(mini(seed=self.SEED))
        reference = build_scenario(mini(seed=self.SEED))
        network = reference.network
        network._walk_route = lambda vp, probe: network._walk(vp, probe, None)
        return memo, reference

    @staticmethod
    def _firewall(scenario):
        """Border firewalls on the focal network's customers, cycling
        through echo-allowed, admin-reply and silent drop."""
        internet = scenario.internet
        routers = sorted(
            (
                router
                for asn in internet.graph.customers(scenario.focal_asn)
                for router in internet.routers_of(asn)
                if router.is_border
            ),
            key=lambda router: router.router_id,
        )
        for index, router in enumerate(routers):
            router.policy.firewall = True
            router.policy.responds_ttl_expired = True
            router.policy.firewall_allow_echo = index % 3 == 0
            router.policy.firewall_admin_reply = index % 3 == 1

    @staticmethod
    def _paths(scenario, dsts):
        """(VP address, destination) -> the ground-truth router path."""
        network = scenario.network
        return {
            (vp.addr, dst): network.truth_path(vp.addr, dst)
            for vp in scenario.vps
            for dst in dsts
        }

    @staticmethod
    def _unfirewalled(internet, path, hop):
        """No firewall on ``path`` before ``hop`` can stop a probe."""
        return not any(
            internet.routers[router_id].policy.firewall
            for router_id in path[1:hop]
        )

    @classmethod
    def _vary_policies(cls, scenario, paths):
        """Give the routers a probe reaches behind no firewall, past the
        first hop, each reply behaviour the recorded-route walk reads at
        its final hop, cycling through silent TTL expiry, a
        virtual-router source, reply-egress source selection and a rate
        limit, and through every IPID model; the routers owning probed
        interfaces alternately answer UDP from the probed address."""
        internet = scenario.internet
        reached = sorted({
            path[hop]
            for path in paths.values()
            for hop in range(1, len(path))
            if cls._unfirewalled(internet, path, hop + 1)
        })
        models = list(IPIDModel)
        for index, router_id in enumerate(reached):
            router = internet.routers[router_id]
            policy = router.policy
            role = index % 4
            policy.responds_ttl_expired = role != 0
            if role == 1:
                policy.vrouter = {
                    asn: max(router.addresses())
                    for asn in internet.graph.neighbors(router.asn)
                }
            policy.source_sel = (
                SourceSel.REPLY_EGRESS if role == 2 else SourceSel.INGRESS
            )
            policy.rate_limit_pps = 1.0 if role == 3 else None
            policy.ipid_model = models[index // 4 % len(models)]
        owners = sorted({
            internet.addr_to_iface[dst].router_id
            for _, dst in paths
            if dst in internet.addr_to_iface
        })
        for index, router_id in enumerate(owners):
            policy = internet.routers[router_id].policy
            policy.responds_udp = True
            policy.udp_reply_egress = index % 2 == 0

    @classmethod
    def _final_hop_cases(cls, scenario, paths, probes, answers):
        """The reply behaviours ``answers`` show at the hop where a
        probe's TTL ran out, or at the probed interface."""
        internet = scenario.internet
        oracle = scenario.network.oracle
        cases = set()
        for probe, answer in zip(probes, answers):
            path = paths[probe.src, probe.dst]
            hop = probe.ttl - 1
            if answer is not None:
                policy = internet.routers[answer.truth_router_id].policy \
                    if answer.truth_router_id is not None else None
                if policy is not None:
                    cases.add(policy.ipid_model)
                if answer.kind is ResponseKind.DEST_UNREACH_PORT \
                        and policy is not None \
                        and not policy.udp_reply_egress:
                    assert answer.src == probe.dst
                    cases.add("udp from the probed address")
            if not 1 <= hop < len(path) \
                    or not cls._unfirewalled(internet, path, hop) \
                    or oracle.step(path[hop], probe.dst).kind \
                    is StepKind.ARRIVE:
                continue
            policy = internet.routers[path[hop]].policy
            in_addr = oracle.step(path[hop - 1], probe.dst).in_addr
            if answer is None:
                if not policy.responds_ttl_expired:
                    cases.add("silent")
                elif policy.rate_limit_pps is not None:
                    cases.add("rate-limited drop")
            elif answer.kind is ResponseKind.TTL_EXPIRED \
                    and answer.src != in_addr:
                if answer.src in policy.vrouter.values():
                    cases.add("virtual-router source")
                elif policy.source_sel is SourceSel.REPLY_EGRESS:
                    cases.add("reply-egress source")
        return cases

    def _destinations(self, scenario):
        """Target candidates of every VP, live and dead host addresses,
        router interfaces and unrouted space."""
        internet = scenario.internet
        view = collect_public_view(
            internet, scenario.network.oracle, focal_asn=scenario.focal_asn
        )
        dsts = {self.UNROUTED}
        for vp in scenario.vps:
            targets = build_targets(view, internet.sibling_asns(vp.asn))
            for target in targets[::6]:
                dsts.update(target.candidate_addrs(2))
        live = set()
        for policy in internet.prefix_policies.values():
            if policy.announced and policy.live_hosts:
                live.update(policy.live_hosts)
        dsts.update(sorted(live)[::4])
        dsts.update(sorted(internet.addr_to_iface)[::25])
        assert dsts & live and dsts - live - set(internet.addr_to_iface)
        return sorted(dsts)

    @staticmethod
    def _probes(scenario, dsts, ttls):
        return [
            Probe(vp.addr, dst, ttl=ttl, kind=kind, flow_id=dst & 0xFFFF)
            for vp in scenario.vps
            for dst in dsts
            for kind in ProbeKind
            for ttl in ttls
        ]

    @staticmethod
    def _answers(memo, reference, probes, cold):
        """Send ``probes`` to both twins; the answers must be equal.
        ``cold`` forgets both recorded routes before every probe."""
        answers = []
        for probe in probes:
            if cold:
                memo.network._route = memo.network._last_route = None
            got = memo.network.send(probe)
            assert got == reference.network.send(probe), probe
            answers.append(got)
        assert memo.network.now == reference.network.now
        return answers

    @staticmethod
    def _kinds(answers):
        return {None if answer is None else answer.kind for answer in answers}

    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_matches_hop_by_hop_walk(self, cold):
        memo, reference = self._twins()
        dsts = self._destinations(memo)
        paths = self._paths(memo, dsts)
        for twin in (memo, reference):
            self._firewall(twin)
            self._vary_policies(twin, paths)
        ascending = self._probes(memo, dsts, range(1, 33))
        answers = self._answers(memo, reference, ascending, cold)
        # Shorter TTLs over routes already recorded in full.
        descending = self._probes(memo, dsts, range(32, 0, -1))
        answers += self._answers(memo, reference, descending, cold)
        assert memo.network._route is not None
        assert self._kinds(answers) >= {
            None,
            ResponseKind.TTL_EXPIRED,
            ResponseKind.ECHO_REPLY,
            ResponseKind.DEST_UNREACH_PORT,
            ResponseKind.DEST_UNREACH_ADMIN,
            ResponseKind.TCP_RST,
        }
        cases = self._final_hop_cases(
            memo, paths, ascending + descending, answers
        )
        assert cases >= set(IPIDModel) | {
            "silent",
            "rate-limited drop",
            "virtual-router source",
            "reply-egress source",
            "udp from the probed address",
        }
        digest = hashlib.sha256()
        for answer in answers:
            digest.update(repr(answer).encode())
        network = memo.network
        digest.update(repr((network.now, network.probes_sent)).encode())
        assert digest.hexdigest() == ROUTE_WALK_DIGEST

    def test_hop_cap(self, monkeypatch):
        """Routes longer than ``_MAX_HOPS`` end the walk silently at the
        cap, on both walks."""
        monkeypatch.setattr("repro.net.network._MAX_HOPS", 4)
        memo, reference = self._twins()
        dsts = self._destinations(memo)[::3]
        probes = self._probes(memo, dsts, (1, 3, 4, 5, 9, 32))
        for cold in (True, False):
            answers = self._answers(memo, reference, probes, cold)
            capped = [
                answer
                for probe, answer in zip(probes, answers)
                if probe.ttl > 4
                and len(memo.network.truth_path(probe.src, probe.dst)) > 4
            ]
            assert capped and not any(capped)

    @staticmethod
    def _unfirewalled_customer(scenario):
        """A customer of the focal network with no firewall, and the
        first address of one of its prefixes."""
        internet = scenario.internet
        return next(
            (policy.origins[0], policy.prefix.addr + 1)
            for policy in sorted(internet.prefix_policies.values(),
                                 key=lambda policy: policy.prefix)
            if policy.announced
            and len(policy.origins) == 1
            and policy.origins[0] in internet.graph.customers(
                scenario.focal_asn)
            and not any(router.policy.firewall
                        for router in internet.routers_of(policy.origins[0]))
        )

    @staticmethod
    def _firewall_customer(twins, asn):
        for twin in twins:
            for router in twin.internet.routers_of(asn):
                router.policy.firewall = router.is_border
                router.policy.firewall_admin_reply = True
                router.policy.responds_ttl_expired = True

    def test_policy_change_between_probes(self):
        """A firewall switched on after a route was recorded takes effect
        on the next probe to the same destination (as in
        test_firewall_blocks_transit_but_answers_ttl)."""
        memo, reference = self._twins()
        asn, dst = self._unfirewalled_customer(memo)
        vp = memo.vps[0]
        probes = [Probe(vp.addr, dst, ttl=ttl, flow_id=dst & 0xFFFF)
                  for ttl in range(1, 25)]
        before = self._answers(memo, reference, probes, cold=False)
        route = memo.network._route
        self._firewall_customer((memo, reference), asn)
        after = self._answers(memo, reference, probes, cold=False)
        assert memo.network._route is route
        assert ResponseKind.DEST_UNREACH_ADMIN not in self._kinds(before)
        assert ResponseKind.DEST_UNREACH_ADMIN in self._kinds(after)

    def test_alternating_destinations_reuse_route_before_last(self):
        """Ally's pattern: probes alternate between two addresses, so
        each probe after the first two walks the route before last,
        reused as recorded, with every kind of probe at TTL 64 and at
        short TTLs; a firewall switched on between two alternations
        takes effect on the next probe."""
        memo, reference = self._twins()
        asn, dst_a = self._unfirewalled_customer(memo)
        dst_b = dst_a + 1
        vp = memo.vps[0]
        network = memo.network

        def alternate():
            probes = [
                Probe(vp.addr, dst, ttl=ttl, kind=kind, flow_id=dst & 0xFFFF)
                for kind in ProbeKind
                for ttl in (64, 1, 2, 3, 5, 8)
                for dst in (dst_a, dst_b)
            ]
            answers = []
            for probe in probes:
                got = network.send(probe)
                assert got == reference.network.send(probe), probe
                answers.append(got)
                assert network._route is routes.setdefault(
                    probe.dst, network._route)
            assert network.now == reference.network.now
            return answers

        routes = {}
        before = alternate()
        assert sorted(routes) == [dst_a, dst_b]
        self._firewall_customer((memo, reference), asn)
        after = alternate()
        assert network._route is routes[dst_b]
        assert network._last_route is routes[dst_a]
        assert ResponseKind.DEST_UNREACH_ADMIN not in self._kinds(before)
        assert ResponseKind.DEST_UNREACH_ADMIN in self._kinds(after)
        assert ResponseKind.TTL_EXPIRED in self._kinds(after)

    def test_faults_and_congestion_walk_unchanged(self):
        """Under a fault plan and a congested link every probe takes the
        hop-by-hop walk; its answers are pinned byte for byte."""
        scenario = build_scenario(mini(seed=self.SEED))
        network = scenario.network
        vp = scenario.vps[0]
        dst = external_target(scenario, index=2).prefix.addr + 1
        for router_id in network.truth_path(vp.addr, dst):
            step = network.oracle.step(router_id, dst)
            if step.link_id is not None:
                network.congestion.congest(step.link_id)
        network.faults = make_fault_plan("heavy", seed=5)
        network.advance(17 * 3600.0)  # inside the busy window
        dsts = [external_target(scenario, index=i).prefix.addr + 1
                for i in range(6)]
        digest = hashlib.sha256()
        for probe in self._probes(scenario, dsts, range(1, 33)):
            digest.update(repr(network.send(probe)).encode())
        assert digest.hexdigest() == FAULTED_WALK_DIGEST


#: sha256 of the answers in TestRouteMemo.test_faults_and_congestion_walk_unchanged;
#: the hop-by-hop walk must keep producing exactly these.
FAULTED_WALK_DIGEST = (
    "994b224072fb3ce12e7c73e937072028cd3b898bd7b0af77f5fcb7475928299d"
)

#: sha256 of the answers of both sweeps in
#: TestRouteMemo.test_matches_hop_by_hop_walk, then the final clock and
#: probe count.  Both walks build replies through one builder, so
#: comparing them cannot catch a drift in it; this digest can.
ROUTE_WALK_DIGEST = (
    "029e9d2d05bc4e762314ff98bd8c2c4f2bbabd6164cadf1a0ff25ab499f0d1c9"
)
