"""Micro-benchmarks of the hot-path primitives.

The frozen longest-prefix match runs once per traceroute hop per address
classification — millions of times in a paper-scale run — and the
forwarding walk dominates collection time.  These benches watch for
regressions in both, and in the sweep that builds the LPM tables.
"""

import pytest

from repro.addr import Prefix, aton, ntoa
from repro.net import Probe
from repro.rng import make_rng
from repro.topology import build_scenario, mini
from repro.trie import FrozenLPM


@pytest.fixture(scope="module")
def lpm_pairs():
    rng = make_rng(7)
    pairs = []
    for index in range(20000):
        addr = rng.randint(0, (1 << 32) - 1)
        plen = rng.choice([8, 12, 16, 20, 24])
        pairs.append((Prefix.of(addr, plen), index))
    return pairs


def test_bench_trie_lpm(benchmark, lpm_pairs):
    rng = make_rng(8)
    probes = [rng.randint(0, (1 << 32) - 1) for _ in range(1000)]
    lpm = FrozenLPM(lpm_pairs)

    def lookup_batch():
        hits = 0
        for addr in probes:
            if lpm.lookup_value(addr) is not None:
                hits += 1
        return hits

    assert benchmark(lookup_batch) >= 0


def test_bench_trie_insert(benchmark):
    rng = make_rng(9)
    entries = [
        (Prefix.of(rng.randint(0, (1 << 32) - 1), 24), i) for i in range(2000)
    ]

    def build():
        return len(FrozenLPM(entries).starts)

    assert benchmark(build) > 0


def test_bench_aton_ntoa(benchmark):
    def roundtrip():
        total = 0
        for value in range(0, 1 << 20, 1 << 12):
            total += aton(ntoa(value))
        return total

    assert benchmark(roundtrip) >= 0


def test_bench_forwarding_walk(benchmark):
    scenario = build_scenario(mini(seed=1))
    vp = scenario.vps[0]
    focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
    targets = [
        p.prefix.addr + 1
        for p in sorted(
            scenario.internet.prefix_policies.values(), key=lambda p: p.prefix
        )
        if p.announced and not (set(p.origins) & focal_family)
    ][:50]
    # Warm the routing caches so the bench measures the walk itself.
    for dst in targets:
        scenario.network.send(Probe(vp.addr, dst, ttl=32))

    def walk_batch():
        responses = 0
        for dst in targets:
            if scenario.network.send(Probe(vp.addr, dst, ttl=32)) is not None:
                responses += 1
        return responses

    assert benchmark(walk_batch) >= 0
