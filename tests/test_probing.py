"""Tests for the measurement tools: traceroute, ping, stop sets, Ally,
MIDAR, Mercator, prefixscan, and the scheduler."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.addr import Prefix, ntoa
from repro.bgp import BGPView, RibEntry, collect_public_view
from repro.core.collection import CollectionConfig, Collector
from repro.core.routergraph import build_router_graph
from repro.errors import DataError
from repro.io import trace_from_dict, trace_to_dict
from repro.net import ResponseKind
from repro.probing import (
    AliasVerdict,
    RoundRobinScheduler,
    StopSet,
    ally_repeated,
    ally_test,
    midar_test,
    monotonic_shared_counter,
    paris_traceroute,
    ping,
    prefixscan,
)
from repro.probing.mercator import mercator_probe
from repro.probing.traceroute import TraceResult
from repro.probing.ttl_limited import TTLLimitedProber
from repro.topology import build_scenario, mini
from repro.topology.model import LinkKind
from repro.net.ipid import IPIDModel


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(mini(seed=2))


@pytest.fixture(scope="module")
def vp(scenario):
    return scenario.vps[0]


def external_policy(scenario, index=0):
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


class TestTraceroute:
    def test_walks_to_destination(self, scenario, vp):
        policy = external_policy(scenario, 0)
        trace = paris_traceroute(scenario.network, vp.addr, policy.prefix.addr + 1)
        assert trace.addrs
        assert len(trace.addrs) == len(trace.kinds) == len(trace.rtts) \
            == len(trace.ipids)
        assert trace.stop_reason in (
            "completed", "unreach", "gaplimit", "maxttl", "stopset"
        )

    def test_hops_have_increasing_ttl(self, scenario, vp):
        """Position ``i`` of a trace is TTL ``i + 1``: a trace cut at TTL
        ``k`` holds the first ``k`` hops of the full trace."""
        policy = external_policy(scenario, 1)
        dst = policy.prefix.addr + 1
        full = paris_traceroute(scenario.network, vp.addr, dst)
        for max_ttl in (1, 2, 3):
            cut = paris_traceroute(scenario.network, vp.addr, dst,
                                   max_ttl=max_ttl)
            assert cut.addrs == full.addrs[:max_ttl]
            assert cut.kinds == full.kinds[:max_ttl]

    def test_gap_limit_respected(self, scenario, vp):
        # Tracing unannounced space dies at the first hop... which still
        # responds; beyond it nothing does, so the gap limit must kick in.
        trace = paris_traceroute(
            scenario.network, vp.addr, 0xCB007107, gap_limit=3
        )
        if trace.stop_reason == "gaplimit":
            assert trace.addrs[-3:] == (None, None, None)

    def test_stop_set_truncates(self, scenario, vp):
        policy = external_policy(scenario, 2)
        dst = policy.prefix.addr + 1
        full = paris_traceroute(scenario.network, vp.addr, dst)
        externals = [
            addr
            for addr, kind in zip(full.addrs, full.kinds)
            if kind is ResponseKind.TTL_EXPIRED
        ]
        if len(externals) < 2:
            pytest.skip("path too short for stop-set test")
        stop = {externals[1]}
        truncated = paris_traceroute(
            scenario.network, vp.addr, dst, stop_set=stop
        )
        assert truncated.stop_reason == "stopset"
        assert len(truncated.addrs) < len(full.addrs) \
            or full.stop_reason != "completed"

    def test_probes_counted(self, scenario, vp):
        policy = external_policy(scenario, 0)
        before = scenario.network.probes_sent
        trace = paris_traceroute(scenario.network, vp.addr, policy.prefix.addr + 1)
        assert scenario.network.probes_sent - before == trace.probes_used


class TestPing:
    def test_ping_live_interface(self, scenario, vp):
        router = scenario.internet.routers[vp.first_router]
        addr = router.addresses()[0]
        response = ping(scenario.network, vp.addr, addr)
        assert response is not None
        assert response.kind is ResponseKind.ECHO_REPLY

    def test_ping_dead_space(self, scenario, vp):
        assert ping(scenario.network, vp.addr, 0xCB007107) is None


class TestStopSet:
    def test_per_target_isolation(self):
        stop = StopSet()
        stop.add((1,), 100)
        assert ((1,), 100) in stop
        assert ((2,), 100) not in stop

    def test_add_many_and_total(self):
        stop = StopSet()
        stop.add_many((1,), [1, 2, 3])
        stop.add((2,), 4)
        assert stop.total_entries() == 4

    def test_for_target_returns_live_set(self):
        stop = StopSet()
        live = stop.for_target((5,))
        live.add(42)
        assert ((5,), 42) in stop


class TestMonotonicSharedCounter:
    def test_shared_counter_accepted(self):
        samples = [(0.0, 0, 10), (0.1, 1, 12), (0.2, 0, 14), (0.3, 1, 16)]
        assert monotonic_shared_counter(samples) is True

    def test_wraparound_accepted(self):
        samples = [(0.0, 0, 65530), (0.1, 1, 65534), (0.2, 0, 3), (0.3, 1, 8)]
        assert monotonic_shared_counter(samples) is True

    def test_non_monotonic_rejected(self):
        samples = [(0.0, 0, 100), (0.1, 1, 50), (0.2, 0, 102), (0.3, 1, 52)]
        assert monotonic_shared_counter(samples) is False

    def test_implausible_velocity_rejected(self):
        samples = [(0.0, 0, 0), (0.1, 1, 30000), (0.2, 0, 60000), (0.3, 1, 61000)]
        assert monotonic_shared_counter(samples) is False

    def test_constant_counter_unusable(self):
        samples = [(0.0, 0, 0), (0.1, 1, 0), (0.2, 0, 0), (0.3, 1, 0)]
        assert monotonic_shared_counter(samples) is None

    def test_single_address_unusable(self):
        samples = [(0.0, 0, 1), (0.1, 0, 2), (0.2, 0, 3), (0.3, 0, 4)]
        assert monotonic_shared_counter(samples) is None

    def test_too_few_samples_unusable(self):
        assert monotonic_shared_counter([(0.0, 0, 1), (0.1, 1, 2)]) is None

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=12))
    def test_true_shared_counter_always_accepted(self, gaps):
        value = 0
        samples = []
        for index, gap in enumerate(gaps):
            value += gap
            samples.append((index * 0.1, index % 2, value & 0xFFFF))
        assert monotonic_shared_counter(samples) is True


class TestAllyOnSimulator:
    def _router_with_model(self, scenario, model, min_addrs=2):
        for router in scenario.internet.routers.values():
            if router.policy.ipid_model is model and len(router.addresses()) >= min_addrs:
                if (
                    router.policy.responds_echo
                    and not router.policy.is_fully_silent()
                    and router.policy.rate_limit_pps is None
                ):
                    return router
        return None

    def test_true_aliases_detected(self, scenario, vp):
        router = self._router_with_model(scenario, IPIDModel.SHARED_COUNTER)
        if router is None:
            pytest.skip("no shared-counter router")
        a, b = router.addresses()[:2]
        result = ally_test(scenario.network, vp.addr, a, b)
        assert result.verdict is AliasVerdict.ALIAS

    def test_different_routers_not_aliases(self, scenario, vp):
        routers = [
            r
            for r in scenario.internet.routers.values()
            if r.policy.ipid_model is IPIDModel.SHARED_COUNTER
            and r.addresses()
            and r.policy.rate_limit_pps is None
        ]
        if len(routers) < 2:
            pytest.skip("need two shared-counter routers")
        a = routers[0].addresses()[0]
        b = routers[1].addresses()[0]
        result = ally_repeated(scenario.network, vp.addr, a, b, rounds=3,
                               interval=10.0)
        assert result.verdict in (AliasVerdict.NOT_ALIAS, AliasVerdict.UNKNOWN)

    def test_random_ipid_router_unresolvable(self, scenario, vp):
        router = self._router_with_model(scenario, IPIDModel.RANDOM)
        if router is None:
            pytest.skip("no random-ipid router")
        a, b = router.addresses()[:2]
        result = ally_test(scenario.network, vp.addr, a, b)
        assert result.verdict is not AliasVerdict.ALIAS

    def test_silent_pair_unknown(self, scenario, vp):
        result = ally_test(scenario.network, vp.addr, 0xCB007101, 0xCB007102)
        assert result.verdict is AliasVerdict.UNKNOWN

    def test_midar_test_agrees_on_true_alias(self, scenario, vp):
        router = self._router_with_model(scenario, IPIDModel.SHARED_COUNTER)
        if router is None:
            pytest.skip("no shared-counter router")
        a, b = router.addresses()[:2]
        assert midar_test(scenario.network, vp.addr, a, b) is True


class TestMercator:
    def test_udp_responder_reveals_alias(self, scenario, vp):
        for router in scenario.internet.routers_of(scenario.focal_asn):
            if router.policy.responds_udp and router.policy.udp_reply_egress:
                addrs = router.addresses()
                if len(addrs) < 2:
                    continue
                source = mercator_probe(scenario.network, vp.addr, addrs[0])
                if source is None:
                    continue
                truth = scenario.internet.router_of_addr(source)
                assert truth is not None
                assert truth.router_id == router.router_id
                return
        pytest.skip("no suitable router")

    def test_non_responder_returns_none(self, scenario, vp):
        for router in scenario.internet.routers.values():
            if not router.policy.responds_udp and router.addresses():
                source = mercator_probe(
                    scenario.network, vp.addr, router.addresses()[0]
                )
                assert source is None
                return
        pytest.skip("every router responds to UDP")


class TestPrefixscan:
    def test_confirms_true_p2p_link(self, scenario, vp):
        internet = scenario.internet
        for link in internet.interdomain_links():
            if link.kind is not LinkKind.INTERDOMAIN or link.subnet is None:
                continue
            a, b = link.interfaces[0], link.interfaces[1]
            if a.addr is None or b.addr is None:
                continue
            result = prefixscan(scenario.network, vp.addr, a.addr, b.addr)
            assert result.confirmed
            assert result.mate == a.addr
            return
        pytest.skip("no p2p link")

    def test_unrelated_pair_unconfirmed(self, scenario, vp):
        internet = scenario.internet
        routers = [r for r in internet.routers.values() if r.addresses()]
        a = routers[0].addresses()[0]
        # Use an address far away (different /24) so mates cannot match.
        b = next(
            addr
            for r in routers[5:]
            for addr in r.addresses()
            if addr >> 8 != a >> 8
        )
        result = prefixscan(scenario.network, vp.addr, a, b)
        assert result.mate != a


class TestScheduler:
    def test_runs_all_tasks(self):
        log = []

        def task(name, steps):
            for i in range(steps):
                log.append((name, i))
                yield

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(task("a", 3))
        scheduler.add(task("b", 2))
        scheduler.add(task("c", 1))
        scheduler.run()
        assert scheduler.tasks_completed == 3
        assert ("a", 2) in log and ("b", 1) in log and ("c", 0) in log

    def test_interleaves_within_parallelism(self):
        log = []

        def task(name):
            for i in range(2):
                log.append(name)
                yield

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(task("a"))
        scheduler.add(task("b"))
        scheduler.run()
        assert log[:2] == ["a", "b"]  # round robin, not sequential

    def test_queued_tasks_start_after_slots_free(self):
        order = []

        def task(name, steps):
            for _ in range(steps):
                order.append(name)
                yield

        scheduler = RoundRobinScheduler(parallelism=1)
        scheduler.add(task("first", 2))
        scheduler.add(task("second", 1))
        scheduler.run()
        assert order == ["first", "first", "second"]

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(parallelism=0)

    def test_failing_task_does_not_kill_the_round(self):
        """Regression: a task raising mid-run used to abort the scheduler,
        stranding every queued and in-flight task."""
        log = []

        def good(name, steps):
            for i in range(steps):
                log.append((name, i))
                yield

        def bad():
            log.append(("bad", 0))
            yield
            raise RuntimeError("target AS unreachable")

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(good("a", 3))
        scheduler.add(bad())
        scheduler.add(good("b", 2))
        with pytest.raises(RuntimeError, match="unreachable"):
            scheduler.run()
        # Despite the re-raise, everything else ran to completion first.
        assert scheduler.tasks_completed == 2
        assert scheduler.tasks_failed == 1
        assert ("a", 2) in log and ("b", 1) in log
        assert len(scheduler.failures) == 1
        assert isinstance(scheduler.failures[0][1], RuntimeError)

    def test_failures_swallowed_with_reraise_false(self):
        def bad():
            yield
            raise ValueError("boom")

        def good():
            yield
            yield

        scheduler = RoundRobinScheduler(parallelism=4)
        scheduler.add(bad())
        scheduler.add(good())
        steps = scheduler.run(reraise=False)
        assert steps > 0
        assert scheduler.tasks_completed == 1
        assert scheduler.tasks_failed == 1

    def test_immediate_failure_isolated(self):
        """A task that raises on its very first step is also contained."""
        def instant_bad():
            raise RuntimeError("dead on arrival")
            yield  # pragma: no cover - generator marker

        def good():
            yield

        scheduler = RoundRobinScheduler(parallelism=1)
        scheduler.add(instant_bad())
        scheduler.add(good())
        scheduler.run(reraise=False)
        assert scheduler.tasks_completed == 1
        assert scheduler.tasks_failed == 1

    def test_first_step_crash_appears_exactly_once(self):
        """A generator that raises before its first yield must show up
        once — not zero or two times — in the failure accounting."""
        def instant_bad():
            raise RuntimeError("dead on arrival")
            yield  # pragma: no cover - generator marker

        scheduler = RoundRobinScheduler(parallelism=3)
        scheduler.add(instant_bad())
        scheduler.run(reraise=False)
        assert scheduler.tasks_failed == 1
        assert len(scheduler.failures) == 1
        assert scheduler.tasks_completed == 0

    def test_mid_step_crash_appears_exactly_once(self):
        def mid_bad():
            yield
            yield
            raise RuntimeError("mid-flight")

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(mid_bad())
        scheduler.run(reraise=False)
        assert scheduler.tasks_failed == 1
        assert len(scheduler.failures) == 1

    def test_second_run_does_not_reraise_stale_failure(self):
        """Regression: ``failures`` accumulates across run() calls for
        post-hoc inspection, but a clean second run used to re-raise the
        first run's already-reported exception."""
        def bad():
            yield
            raise RuntimeError("first-run failure")

        def good():
            yield

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(bad())
        scheduler.run(reraise=False)
        assert scheduler.tasks_failed == 1
        scheduler.add(good())
        # Must not raise: the only failure belongs to the previous run.
        steps = scheduler.run(reraise=True)
        assert steps > 0
        assert scheduler.tasks_completed == 1
        # The record of the old failure is still inspectable.
        assert len(scheduler.failures) == 1

    def test_reraise_scoped_to_current_runs_first_failure(self):
        """With old failures on the books, a failing second run raises
        *its own* first failure, not the stale one."""
        def bad(message):
            yield
            raise RuntimeError(message)

        scheduler = RoundRobinScheduler(parallelism=2)
        scheduler.add(bad("stale"))
        scheduler.run(reraise=False)
        scheduler.add(bad("fresh"))
        with pytest.raises(RuntimeError, match="fresh"):
            scheduler.run(reraise=True)
        assert len(scheduler.failures) == 2


class TestTraceColumns:
    """A trace stores four exact tuples, not hop objects, and its hot
    readers read the columns; each must equal the per-hop definition it
    replaced, kept here as the reference over rows the test draws."""

    ADDRS = [0x0A000001 + (block << 8) for block in range(6)]  # 10.0.N.1

    @staticmethod
    def _rows(draw, addrs):
        """Hop rows ``(ttl, addr, kind, rtt, ipid)`` for TTLs 1..n."""
        rows = []
        for ttl in range(1, draw(st.integers(min_value=0, max_value=10)) + 1):
            if draw(st.booleans()):
                rows.append((ttl, None, None, 0.0, 0))
                continue
            # Any kind at any position: helpers.CaseBuilder puts
            # non-TTL-expired replies mid-trace too.
            kind = draw(st.sampled_from(
                [ResponseKind.TTL_EXPIRED] * 3 + list(ResponseKind)
            ))
            rows.append((
                ttl, draw(st.sampled_from(addrs)), kind,
                round(draw(st.floats(min_value=0, max_value=500)), 3),
                draw(st.integers(min_value=0, max_value=0xFFFF)),
            ))
        return rows

    @classmethod
    def _trace(cls, draw):
        rows = cls._rows(draw, cls.ADDRS)
        trace = TraceResult(
            vp_addr=0x0A0000FE, dst=draw(st.sampled_from(cls.ADDRS)),
            stop_reason="gaplimit",
            probes_used=draw(st.integers(min_value=0, max_value=64)),
            addrs=[row[1] for row in rows],
            kinds=[row[2] for row in rows],
            rtts=[row[3] for row in rows],
            ipids=[row[4] for row in rows],
        )
        return rows, trace

    # The per-hop definitions the column readers replaced, over each
    # trace's drawn rows.

    @staticmethod
    def _expired(rows):
        """(ttl, addr) of each TTL-expired hop."""
        return [(ttl, addr) for ttl, addr, kind, _, _ in rows
                if addr is not None and kind is ResponseKind.TTL_EXPIRED]

    @classmethod
    def _observed_reference(cls, drawn):
        found = set()
        for rows, trace in drawn:
            for _, addr in cls._expired(rows):
                if addr != trace.dst:
                    found.add(addr)
        return found

    @classmethod
    def _first_external_reference(cls, rows, is_external):
        for _, addr in cls._expired(rows):
            if is_external(addr):
                return addr
        return None

    @staticmethod
    def _adjacent_pairs_reference(drawn):
        expired = ResponseKind.TTL_EXPIRED
        pairs = set()
        for rows, _ in drawn:
            for (_, left, left_kind, _, _), (_, right, right_kind, _, _) \
                    in zip(rows, rows[1:]):
                if (left is not None and right is not None
                        and left_kind is expired and right_kind is expired
                        and left != right):
                    pairs.add((left, right))
        return sorted(pairs)

    @classmethod
    def _aims_reference(cls, drawn):
        aims = {}
        for rows, trace in drawn:
            for ttl, addr in cls._expired(rows):
                if addr != trace.dst:
                    aims.setdefault(addr, (trace.dst, ttl))
        return aims

    def _collector(self, traces, external):
        """A collector over ``traces`` whose view announces the external
        addresses from AS 200 and the others from the VP's AS 100."""
        view = BGPView()
        for addr in self.ADDRS:
            origin = 200 if addr in external else 100
            prefix = Prefix(addr & ~0xFF, 24)
            view.add(RibEntry(9999, prefix, (9999, origin)))
        collector = Collector(None, 0x0A0000FE, view, {100})
        for trace in traces:
            collector._record_trace((200,), trace, None)
        return collector

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_and_readers_match_per_hop_definitions(self, data):
        drawn = [self._trace(data.draw) for _ in range(data.draw(
            st.integers(min_value=1, max_value=4)))]
        traces = [trace for _, trace in drawn]
        for rows, trace in drawn:
            record = trace_to_dict(trace)
            assert [tuple(hop.values()) for hop in record["hops"]] == [
                (ttl, None if addr is None else ntoa(addr),
                 None if kind is None else kind.value, rtt, ipid)
                for ttl, addr, kind, rtt, ipid in rows
            ]
            assert trace_from_dict(record) == trace
        external = set(data.draw(st.sets(st.sampled_from(self.ADDRS))))
        collector = self._collector(traces, external)
        assert collector.collection.observed_ttl_expired_addrs() == \
            self._observed_reference(drawn)
        for rows, trace in drawn:
            assert collector._first_external(trace) == \
                self._first_external_reference(rows, external.__contains__)
        assert collector._adjacent_pairs() == \
            self._adjacent_pairs_reference(drawn)
        prober = TTLLimitedProber(None, 0x0A0000FE)
        for trace in traces:
            prober.learn_from_trace(trace)
        assert prober._aims == self._aims_reference(drawn)

    def test_rows_must_hold_ttls_one_to_n(self):
        """The trace codec is the one check of outside hop rows: their
        TTLs must run 1..n, and a row has an address exactly when it has
        a reply kind.  A trace's own columns must be equally long."""
        def record(*rows):
            return {
                "vp": "10.0.0.254", "dst": "10.0.0.1",
                "stop_reason": "gaplimit",
                "hops": [dict(zip(("ttl", "addr", "kind", "rtt", "ipid"), row))
                         for row in rows],
            }

        expired = ResponseKind.TTL_EXPIRED.value
        with pytest.raises(DataError, match="TTL"):
            trace_from_dict(record((1, "10.0.0.5", expired, 1.0, 0),
                                   (7, "10.0.0.6", expired, 1.0, 0)))
        with pytest.raises(DataError, match="reply kind"):
            trace_from_dict(record((1, None, expired, 0.0, 0)))
        with pytest.raises(DataError, match="reply kind"):
            trace_from_dict(record((1, "10.0.0.5", None, 0.0, 0)))
        trace = trace_from_dict(record((1, None, None, 0.0, 0)))
        assert trace.addrs == (None,) and trace.kinds == (None,)
        with pytest.raises(ValueError, match="equally long"):
            TraceResult(1, 2, addrs=(None,), kinds=())

    def test_collector_keeps_no_hop_objects(self):
        """After a collection and its router graph, the collector untracks
        every trace's int and float columns and every path's two tuples:
        a kept trace costs it two tracked objects, the trace and its
        kinds, however many hops it has."""
        scenario = build_scenario(mini(seed=2))
        view = collect_public_view(
            scenario.internet, scenario.network.oracle,
            focal_asn=scenario.focal_asn,
        )
        collection = Collector(
            scenario.network, scenario.vps[0].addr, view,
            set(scenario.vp_as_list),
            CollectionConfig(ally_rounds=2, ally_interval=5.0),
        ).run()
        graph = build_router_graph(collection)
        gc.collect()
        assert collection.traces and graph.paths
        for trace in collection.traces:
            for column in (trace.addrs, trace.rtts, trace.ipids):
                assert type(column) is tuple and not gc.is_tracked(column)
        for path in graph.paths:
            for column in (path.routers, path.had_gap_before):
                assert type(column) is tuple and not gc.is_tracked(column)
