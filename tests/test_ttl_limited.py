"""Tests for TTL-limited alias probing (§5.3's fourth Ally method)."""

import pytest

from repro.net.ipid import IPIDModel
from repro.probing import (
    AliasVerdict,
    TTLLimitedProber,
    ally_test,
    paris_traceroute,
)
from repro.topology import build_scenario, mini
from repro.topology.challenges import ChallengeConfig


@pytest.fixture(scope="module")
def scenario():
    config = mini(seed=41)
    config.challenges = ChallengeConfig(ttl_only_rate=0.0)
    return build_scenario(config)


def _trained_prober(scenario, min_hops=2):
    """A prober trained from traces toward every external target."""
    vp = scenario.vps[0]
    prober = TTLLimitedProber(scenario.network, vp.addr)
    focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
    for policy in sorted(
        scenario.internet.prefix_policies.values(), key=lambda p: p.prefix
    ):
        if not policy.announced or set(policy.origins) & focal_family:
            continue
        trace = paris_traceroute(scenario.network, vp.addr, policy.prefix.addr + 1)
        prober.learn_from_trace(trace)
    return prober


@pytest.fixture(scope="module")
def prober(scenario):
    return _trained_prober(scenario)


class TestLearning:
    def test_learns_addresses_from_traces(self, prober):
        assert len(prober._aims) > 5

    def test_can_probe_learned_only(self, prober):
        learned = next(iter(prober._aims))
        assert prober.can_probe(learned)
        assert not prober.can_probe(0xCB007107)

    def test_learn_skips_dst_matching_hops(self, scenario):
        from repro.probing.traceroute import TraceResult
        from repro.net import ResponseKind

        prober = TTLLimitedProber(scenario.network, scenario.vps[0].addr)
        trace = TraceResult(
            vp_addr=0,
            dst=42,
            addrs=(42,),
            kinds=(ResponseKind.TTL_EXPIRED,),
            rtts=(0.0,),
            ipids=(0,),
        )
        prober.learn_from_trace(trace)
        assert not prober.can_probe(42)


class TestSampling:
    def test_samples_are_increasing_for_shared_counter(self, scenario, prober):
        for addr in sorted(prober._aims):
            router = scenario.internet.router_of_addr(addr)
            if (
                router is None
                or router.policy.ipid_model is not IPIDModel.SHARED_COUNTER
                or router.policy.rate_limit_pps is not None
            ):
                continue
            samples = prober.samples(addr, tag=0, count=4)
            if len(samples) < 3:
                continue
            ids = [ipid for _, _, ipid in samples]
            assert ids == sorted(ids) or max(ids) - min(ids) > 60000
            return
        pytest.skip("no shared-counter sampled router")

    def test_interleaved_empty_without_aims(self, scenario, prober):
        learned = next(iter(prober._aims))
        assert prober.interleaved_samples(learned, 0xCB007107) == []


class TestAllyIntegration:
    def test_deaf_router_resolvable_via_ttl(self):
        """A router deaf to direct probes but talkative in transit must be
        alias-resolvable through the TTL-limited method."""
        config = mini(seed=42)
        config.challenges = ChallengeConfig(ttl_only_rate=0.0)
        scenario = build_scenario(config)
        vp = scenario.vps[0]
        prober = _trained_prober(scenario)
        # Find a router observed via two distinct ingress addresses.
        by_router = {}
        for addr in prober._aims:
            router = scenario.internet.router_of_addr(addr)
            if router is None:
                continue
            by_router.setdefault(router.router_id, []).append(addr)
        candidates = {
            rid: addrs for rid, addrs in by_router.items() if len(addrs) >= 2
        }
        if not candidates:
            pytest.skip("no router observed via two ingresses")
        rid, addrs = sorted(candidates.items())[0]
        router = scenario.internet.routers[rid]
        router.policy.responds_echo = False
        router.policy.responds_udp = False
        router.policy.ipid_model = IPIDModel.SHARED_COUNTER
        router.policy.rate_limit_pps = None
        scenario.network._ipid.pop(rid, None)

        without = ally_test(scenario.network, vp.addr, addrs[0], addrs[1])
        assert without.verdict is AliasVerdict.UNKNOWN
        with_ttl = ally_test(
            scenario.network, vp.addr, addrs[0], addrs[1], ttl_prober=prober
        )
        assert with_ttl.verdict is AliasVerdict.ALIAS

    def test_end_to_end_collection_uses_ttl_prober(self):
        """The collector must train the resolver's TTL prober."""
        from repro import build_data_bundle
        from repro.core.collection import CollectionConfig, Collector

        scenario = build_scenario(mini(seed=43))
        data = build_data_bundle(scenario)
        collector = Collector(
            scenario.network,
            scenario.vps[0].addr,
            data.view,
            set(scenario.vp_as_list),
            CollectionConfig(ally_rounds=2, ally_interval=5.0),
        )
        collection = collector.run()
        assert len(collection.resolver._ttl_prober._aims) > 0
