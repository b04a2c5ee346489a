"""Data collection (§5.3): traceroutes with stop sets, then alias probing.

The collector probes each target AS one block at a time (multiple ASes
interleaved via the round-robin scheduler), records the first external
address per trace into the target's stop set, retries further addresses in
a block (up to five) when a trace shows no external address other than the
probed one, and finally drives Mercator / prefixscan / Ally alias probing
over what was observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..alias import AliasResolver
from ..bgp import BGPView
from ..net import Network, ResponseKind
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..probing import StopSet, paris_traceroute
from ..probing.prefixscan import PrefixscanResult, prefixscan
from ..probing.retry import RetryPolicy, RetryStats
from ..probing.scheduler import RoundRobinScheduler
from ..probing.traceroute import TraceResult
from .targets import TargetBlock, group_by_origin

TargetKey = Tuple[int, ...]

_TTL_EXPIRED = ResponseKind.TTL_EXPIRED


@dataclass
class CollectionConfig:
    max_addrs_per_block: int = 5
    max_ttl: int = 32
    gap_limit: int = 5
    attempts: int = 2
    parallelism: int = 8
    use_stop_set: bool = True          # ablation: doubletree on/off
    # Cross-target stop-set sharing: a first-external address learned for
    # one target AS also stops traces toward every other target.  Cuts
    # redundant crossings of the VP network's own borders at some cost in
    # per-target egress fidelity, hence off by default.
    share_stop_sets: bool = False
    use_alias_resolution: bool = True  # ablation: Fig 13 effect
    use_prefixscan: bool = True
    ally_rounds: int = 5
    ally_interval: float = 300.0
    max_candidate_fanout: int = 12
    # Loss-tolerant probing: when set, every probe (traceroute hops, pings,
    # Ally samples, Mercator) runs under this exponential-backoff budget
    # instead of the flat `attempts` loop.  None keeps the legacy behaviour
    # byte-identical.
    retry: Optional[RetryPolicy] = None


@dataclass
class Collection:
    """Everything the inference stage consumes."""

    traces: List[TraceResult] = field(default_factory=list)
    trace_keys: List[TargetKey] = field(default_factory=list)  # parallel to traces
    per_target: Dict[TargetKey, List[TraceResult]] = field(default_factory=dict)
    stop_set: StopSet = field(default_factory=StopSet)
    resolver: Optional[AliasResolver] = None
    prefixscans: Dict[Tuple[int, int], PrefixscanResult] = field(default_factory=dict)
    probes_used: int = 0
    traces_run: int = 0
    # Traceroute-phase retry accounting (per-trace detail lives on each
    # TraceResult; this aggregates the same events for the run report).
    retry_stats: RetryStats = field(default_factory=RetryStats)

    def observed_ttl_expired_addrs(self) -> Set[int]:
        """TTL-expired source addresses, excluding those equal to the probed
        destination (whose interface placement is ambiguous, §4)."""
        found: Set[int] = set()
        for trace in self.traces:
            dst = trace.dst
            for addr, kind in zip(trace.addrs, trace.kinds):
                if kind is _TTL_EXPIRED and addr != dst:
                    found.add(addr)
        return found


class Collector:
    """Runs the §5.3 collection for one VP."""

    def __init__(
        self,
        network: Network,
        vp_addr: int,
        view: BGPView,
        vp_ases: Set[int],
        config: Optional[CollectionConfig] = None,
        resolver: Optional[AliasResolver] = None,
        metrics: Optional[MetricsRegistry] = None,
        label: str = "vp",
    ) -> None:
        self.network = network
        self.vp_addr = vp_addr
        self.view = view
        self.vp_ases = set(vp_ases)
        self.config = config or CollectionConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.label = label
        self.collection = Collection()
        self.collection.stop_set.shared = self.config.share_stop_sets
        # address -> _is_external's answer.  A collector's view and VP
        # ASes are fixed for its life; an epoch builds a new collector.
        self._external: Dict[int, bool] = {}
        # Retry counters become views over the shared registry, under a
        # per-VP prefix so concurrent collections stay distinguishable.
        self.collection.retry_stats.bind(
            self.metrics, "retry.%s." % label
        )
        # A shared resolver lets the central system (§5.8) reuse alias
        # evidence across the VPs it drives: aliases are a property of the
        # routers, not of the vantage point.
        self.collection.resolver = resolver or AliasResolver(
            network,
            vp_addr,
            ally_rounds=self.config.ally_rounds,
            ally_interval=self.config.ally_interval,
            retry=self.config.retry,
            metrics=self.metrics,
        )
        if self.collection.resolver is not None:
            self.collection.resolver.retry_stats.bind(
                self.metrics, "retry.alias."
            )

    # -- helpers ------------------------------------------------------------

    def _is_external(self, addr: int) -> bool:
        """Is ``addr`` announced, and by no VP AS?"""
        external = self._external.get(addr)
        if external is None:
            origins = self.view.origins_of_addr(addr)
            external = self._external[addr] = bool(origins) and not (
                set(origins) & self.vp_ases
            )
        return external

    def _first_external(self, trace: TraceResult) -> Optional[int]:
        for addr, kind in zip(trace.addrs, trace.kinds):
            if kind is _TTL_EXPIRED and self._is_external(addr):
                return addr
        return None

    def _saw_external_router(self, trace: TraceResult, probed: int) -> bool:
        """Did the trace reveal any external address besides the probed
        destination itself?  (§5.3: retry other addresses otherwise, to
        avoid interpreting third-party addresses as neighbors.)"""
        for addr in trace.addrs:
            if addr is None or addr == probed:
                continue
            if self._is_external(addr):
                return True
        return False

    # -- phase 1: traceroute ----------------------------------------------------

    def _trace(self, dst: int, stop: Optional[Set[int]]) -> TraceResult:
        """One traceroute; remote deployments override this to dispatch the
        command to the on-device prober (§5.8)."""
        return paris_traceroute(
            self.network,
            self.vp_addr,
            dst,
            max_ttl=self.config.max_ttl,
            attempts=self.config.attempts,
            gap_limit=self.config.gap_limit,
            stop_set=stop,
            retry=self.config.retry,
            retry_stats=self.collection.retry_stats,
        )

    def _prefixscan(self, prev: int, nxt: int) -> PrefixscanResult:
        """One prefixscan; override point for remote deployments."""
        return prefixscan(self.network, self.vp_addr, prev, nxt)

    def _target_stop(self, key: TargetKey) -> Optional[Set[int]]:
        """The stop set traces toward ``key`` consult and feed."""
        if not self.config.use_stop_set:
            return None
        return self.collection.stop_set.for_target(key)

    def _record_trace(
        self, key: TargetKey, trace: TraceResult, stop: Optional[Set[int]]
    ) -> None:
        """File one finished trace toward ``key`` and feed its first
        external address to the target's stop set."""
        if self.metrics.enabled:
            self.metrics.observe("trace.hops", len(trace.addrs))
        self.collection.traces.append(trace)
        self.collection.trace_keys.append(key)
        self.collection.per_target.setdefault(key, []).append(trace)
        self.collection.traces_run += 1
        first_external = self._first_external(trace)
        if first_external is not None and stop is not None:
            stop.add(first_external)

    def _target_task(self, key: TargetKey, blocks: List[TargetBlock]) -> Iterator[None]:
        stop = self._target_stop(key)
        for block in blocks:
            for addr in block.candidate_addrs(self.config.max_addrs_per_block):
                trace = self._trace(addr, stop)
                self._record_trace(key, trace, stop)
                yield
                if self._saw_external_router(trace, addr):
                    break  # this block is done; next block

    def traceroute_tasks(self) -> List[Iterator[None]]:
        """The per-target probing generators, ready for a scheduler.

        Exposed so a multi-VP orchestrator can interleave several VPs'
        collection through one :class:`RoundRobinScheduler` — N VPs then
        probe concurrently in virtual time (§5.8).
        """
        groups = group_by_origin(self._targets())
        return [self._target_task(key, groups[key]) for key in sorted(groups)]

    def run_traceroutes(self) -> None:
        scheduler = RoundRobinScheduler(
            parallelism=self.config.parallelism,
            metrics=self.metrics,
            label="traceroute.%s" % self.label,
        )
        scheduler.add_all(self.traceroute_tasks())
        scheduler.run()

    def _targets(self) -> List[TargetBlock]:
        from .targets import build_targets

        return build_targets(self.view, self.vp_ases)

    # -- phase 2: alias resolution ---------------------------------------------------

    def _adjacent_pairs(self) -> List[Tuple[int, int]]:
        """Consecutive responsive TTL-expired hop pairs across all traces."""
        pairs: Set[Tuple[int, int]] = set()
        for trace in self.collection.traces:
            left = None  # the previous hop's address, if it was TTL-expired
            for addr, kind in zip(trace.addrs, trace.kinds):
                if kind is not _TTL_EXPIRED:
                    left = None
                    continue
                if left is not None and left != addr:
                    pairs.add((left, addr))
                left = addr
        return sorted(pairs)

    def run_alias_resolution(self) -> None:
        if not self.config.use_alias_resolution:
            return
        resolver = self.collection.resolver
        assert resolver is not None
        observed = self.collection.observed_ttl_expired_addrs()
        # Teach the TTL-limited prober where each address was seen, so Ally
        # can fall back to in-transit expiry for probe-deaf routers (§5.3).
        for trace in self.collection.traces:
            resolver.learn_from_trace(trace)
        resolver.mercator_sweep(observed)

        pairs = self._adjacent_pairs()
        successors: Dict[int, Set[int]] = {}
        predecessors: Dict[int, Set[int]] = {}
        for prev, nxt in pairs:
            successors.setdefault(prev, set()).add(nxt)
            predecessors.setdefault(nxt, set()).add(prev)

        # Prefixscan on hop pairs that cross into external address space:
        # confirms the inbound interface and finds near-side aliases (§5.3).
        if self.config.use_prefixscan:
            for prev, nxt in pairs:
                origins_next = self.view.origins_of_addr(nxt)
                if origins_next and not self._is_external(nxt):
                    continue  # internal hop: not an interdomain candidate
                result = self._prefixscan(prev, nxt)
                self.collection.prefixscans[(prev, nxt)] = result
                if result.confirmed and result.mate is not None:
                    resolver.evidence.record_for(result.mate, prev, "prefixscan")
                    if result.mate != prev:
                        # Confirm through the hardened pairwise test too.
                        resolver.test_pair(result.mate, prev)

        # Candidate alias sets: addresses sharing a common predecessor or
        # successor might be interfaces of one router (virtual routers,
        # per-destination response addresses — Fig 13).
        for _, members in sorted(successors.items()):
            if 2 <= len(members) <= self.config.max_candidate_fanout:
                resolver.resolve_candidate_set(members)
        for _, members in sorted(predecessors.items()):
            if 2 <= len(members) <= self.config.max_candidate_fanout:
                resolver.resolve_candidate_set(members)

    # -- entry point ---------------------------------------------------------------

    def run(self) -> Collection:
        before = self.network.probes_sent
        self.run_traceroutes()
        self.run_alias_resolution()
        self.collection.probes_used = self.network.probes_sent - before
        return self.collection
