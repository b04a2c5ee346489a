"""Incremental epoch pipeline: delta-driven re-inference (§4 longitudinal).

The deployed bdrmap re-runs continuously because interconnection changes
— but real churn is sparse and localized, so paying a full re-probe,
full heuristic re-run, and full compile every epoch scales cost with
world size instead of churn.  This module is the delta path:

* :class:`EpochCollector` / :class:`EpochAliasResolver` — a collection
  engine that caches every *raw probing unit* (per-target traceroute
  batches, Mercator, Ally, velocity, prefixscan) together with a
  forwarding signature of everything the unit's behaviour depends on.
  A unit whose signature is unchanged is replayed from cache without
  sending a probe; everything else re-probes.  Crucially the full and
  delta modes share one canonical probing discipline (sorted targets,
  ``network.reset()`` before every probing unit), so a replayed unit's
  bytes are exactly what a fresh run would have produced.
* :func:`run_incremental_inference` — :func:`~repro.core.heuristics.run_inference`
  with a dirty-tracking router loop: per-router pass applications from
  the previous epoch are recorded as replayable
  :class:`ApplicationEvent`\\ s (consult trail + deciding pass + full
  attempted assignment list + the AS set whose relationship annotations
  the decision could have read); a router re-runs its passes live only
  when its inputs changed.
* :class:`EpochRunner` — drives collection → inference → compile per
  epoch over the structured mutation events
  :mod:`repro.topology.evolve` records, patches the compiled map in place
  (:func:`repro.serving.compiled.patch_compiled_map`), and emits an
  :class:`EpochChain` of versioned deltas that
  :func:`repro.analysis.diff.diff_border_maps` can replay and the
  sharded tier can ship as patches.

Correctness bar: every epoch's patched compiled map is byte-identical
to a from-scratch recompute of the mutated world (asserted in tests and
`benchmarks/test_bench_epochs.py`); the win is cost proportional to
churn.

Epoch mode refuses fault plans (probing must be loss-free for replay
soundness) and shared stop sets (cross-target coupling would break
per-unit independence).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..alias import AliasResolver
from ..errors import DataError, TopologyError
from ..net.network import _MAX_HOPS
from ..net.routing import StepKind
from ..obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry, NULL_REGISTRY
from ..obs.provenance import ASSIGNED, CO_ASSIGNED, CONSIDERED, DEGRADED
from ..obs.trace import NULL_TRACER, Tracer, perf_clock
from ..rng import make_rng
from ..topology.evolve import (
    LinkAdded,
    MutationEvent,
    add_border_link,
    move_border_link,
    rebuild_network,
    remove_link,
)
from ..topology.model import LinkKind
from .bdrmap import BdrmapConfig, DataBundle, build_data_bundle
from .collection import Collection, CollectionConfig, Collector, TargetKey
from .heuristics import _apply_passes_to_router, build_context, run_inference
from .report import BdrmapResult
from .routergraph import build_router_graph
from .targets import TargetBlock, group_by_origin

# A forwarding signature is a nested tuple; a router's stable identity
# across epochs is its sorted address tuple (addresses are unique to one
# router within a collection, so keys never collide).
Sig = Tuple
RouterKey = Tuple[int, ...]


class EpochError(DataError):
    """Epoch-mode precondition or chain-consistency violation."""


# ---------------------------------------------------------------- forward signatures


class SigCache:
    """Memoized forwarding signatures for one (network, VP) pair.

    ``signature(dst)`` captures everything that determines the wire
    behaviour of probing ``dst`` from the VP: the oracle walk (router,
    link, interface addresses, border crossings), each hop router's
    reply selection inputs (next-AS toward the destination, the reply
    step back toward the VP, the router's full address set), and the
    terminal fate (arrival / host liveness / unreachable).  Two epochs
    whose signatures for a destination are equal produce byte-identical
    probe exchanges for it — the replay soundness contract.
    """

    def __init__(self, network, vp_addr: int, first_router: int) -> None:
        self.network = network
        self.vp_addr = vp_addr
        self.first_router = first_router
        self._memo: Dict[int, Sig] = {}
        self._reply_memo: Dict[int, Sig] = {}
        self._addrs_memo: Dict[int, RouterKey] = {}

    def _addrs(self, router_id: int) -> RouterKey:
        addrs = self._addrs_memo.get(router_id)
        if addrs is None:
            router = self.network.internet.routers[router_id]
            addrs = self._addrs_memo[router_id] = tuple(
                sorted(router.addresses())
            )
        return addrs

    def _reply_sig(self, router_id: int) -> Sig:
        cached = self._reply_memo.get(router_id)
        if cached is not None:
            return cached
        step = self.network.oracle.step(router_id, self.vp_addr)
        sig = (step.kind.value, step.out_addr, step.link_id)
        self._reply_memo[router_id] = sig
        return sig

    def signature(self, dst: int) -> Sig:
        cached = self._memo.get(dst)
        if cached is not None:
            return cached
        oracle = self.network.oracle
        routers = self.network.internet.routers
        # Every forward hop's next AS comes from the destination's one
        # class route, looked up once here instead of once per hop.
        policy = oracle.lookup_policy(dst)
        routes = (
            oracle.class_routes(oracle.class_key(policy))
            if policy is not None else None
        )
        router_id = self.first_router
        hops: List[Sig] = []
        for _ in range(_MAX_HOPS):
            step = oracle.step(router_id, dst)
            addrs = self._addrs(router_id)
            if step.kind is StepKind.ARRIVE:
                hops.append(("arrive", router_id, self._reply_sig(router_id),
                             addrs))
                break
            if step.kind is StepKind.HOST:
                live = (
                    step.policy is not None
                    and dst in step.policy.live_hosts
                )
                hops.append(("host", router_id, live, addrs))
                break
            if step.kind is StepKind.UNREACHABLE:
                hops.append(("unreachable", router_id, addrs))
                break
            hops.append((
                router_id,
                step.link_id,
                step.out_addr,
                step.in_addr,
                step.crosses_border,
                routes.next_as(routers[router_id].asn)
                if routes is not None else None,
                self._reply_sig(router_id),
                addrs,
            ))
            router_id = step.next_router
        else:
            hops.append(("cap",))
        sig = tuple(hops)
        self._memo[dst] = sig
        return sig


class ProbeMeter:
    """Counts probes actually sent across the per-unit network resets,
    and replays or runs each cached probing unit.

    ``network.reset()`` zeroes ``probes_sent``, so the canonical
    discipline (reset before every probing unit) needs an accumulator:
    call :meth:`unit_reset` before each unit (:meth:`unit` does) and
    :meth:`settle` once at the end."""

    def __init__(self, network, cost: EpochCost) -> None:
        self.network = network
        self.cost = cost
        self.total = 0

    def begin(self) -> None:
        self.network.reset()
        self.total = 0

    def unit_reset(self) -> None:
        self.total += self.network.probes_sent
        self.network.reset()

    def settle(self) -> int:
        self.total += self.network.probes_sent
        self.network.probes_sent = 0
        return self.total

    def unit(self, store: Dict, key, deps, probe: Callable[[], object]):
        """One cached probing unit: the result ``store`` holds for ``key``
        when it was recorded under dependency signatures equal to
        ``deps``, else ``probe()`` run on a freshly reset network and
        stored with ``deps``."""
        record = store.get(key)
        if record is not None and record[1] == deps:
            self.cost.units_reused += 1
            return record[0]
        self.unit_reset()
        result = probe()
        store[key] = (result, deps)
        self.cost.units_probed += 1
        return result


# ---------------------------------------------------------------- raw unit caches


@dataclass
class TargetRecord:
    """One target AS's cached traceroute unit."""

    blocks_sig: Tuple
    candidate_sigs: Tuple[Tuple[int, Sig], ...]
    external: Tuple[Tuple[int, bool], ...]   # observed addr -> was external
    traces: List = field(default_factory=list)


@dataclass
class RawUnits:
    """One VP's cross-epoch cache of raw probing units (per-target
    traceroute batches and alias-probing units), each stored with the
    forwarding signatures it depends on."""

    targets: Dict[TargetKey, TargetRecord] = field(default_factory=dict)
    mercator: Dict[int, Tuple[object, Sig]] = field(default_factory=dict)
    velocity: Dict[int, Tuple[object, Sig]] = field(default_factory=dict)
    ally: Dict[Tuple[int, int], Tuple[object, Tuple]] = field(
        default_factory=dict
    )
    prefixscan: Dict[Tuple[int, int], Tuple[object, Tuple]] = field(
        default_factory=dict
    )


class EpochAliasResolver(AliasResolver):
    """An :class:`AliasResolver` whose raw probing units are memoized
    across epochs.  The resolver logic (evidence, caches, candidate-set
    screening) runs normally every epoch — only the wire exchanges are
    replayed, so the evidence store is rebuilt identically by
    construction."""

    def __init__(
        self,
        network,
        vp_addr: int,
        units: RawUnits,
        sigs: SigCache,
        meter: ProbeMeter,
        **kwargs,
    ) -> None:
        super().__init__(network, vp_addr, **kwargs)
        self._units = units
        self._sigs = sigs
        self._meter = meter

    def _mercator_raw(self, addr):
        return self._meter.unit(
            self._units.mercator, addr, self._sigs.signature(addr),
            partial(super()._mercator_raw, addr),
        )

    def _velocity_raw(self, addr):
        return self._meter.unit(
            self._units.velocity, addr, self._sigs.signature(addr),
            partial(super()._velocity_raw, addr),
        )

    def _ally_deps(self, a: int, b: int) -> Tuple:
        deps: List = [self._sigs.signature(a), self._sigs.signature(b)]
        for endpoint in (a, b):
            aim = (
                self._ttl_prober.aim(endpoint)
                if self._ttl_prober is not None
                else None
            )
            deps.append(aim)
            if aim is not None:
                deps.append(self._sigs.signature(aim[0]))
        return tuple(deps)

    def _ally_raw(self, a: int, b: int):
        return self._meter.unit(
            self._units.ally, (a, b), self._ally_deps(a, b),
            partial(super()._ally_raw, a, b),
        )


class EpochCollector(Collector):
    """The §5.3 collection under the canonical epoch discipline.

    Targets run sequentially in sorted order with a ``network.reset()``
    before every probing unit, in *both* full and delta modes — a unit's
    bytes then depend only on its own forwarding signatures, never on
    what ran before it, which is what makes cross-epoch replay sound.
    A target is replayed from cache when its block list, every candidate
    destination's forwarding signature, and the externality of every
    previously observed hop address are unchanged.  What the run probes
    and replays is counted into ``cost``.
    """

    def __init__(
        self,
        network,
        vp,
        view,
        vp_ases,
        units: RawUnits,
        cost: EpochCost,
        config: Optional[CollectionConfig] = None,
        metrics=None,
        label: str = "vp",
    ) -> None:
        config = config or CollectionConfig()
        if config.share_stop_sets:
            raise EpochError(
                "epoch mode requires share_stop_sets=False: shared stop "
                "sets couple targets across probing units"
            )
        if network.faults is not None:
            raise EpochError(
                "epoch mode requires a fault-free network: lossy probing "
                "is not replayable"
            )
        self.cost = cost
        self.meter = ProbeMeter(network, cost)
        self.sigs = SigCache(network, vp.addr, vp.first_router)
        self._units = units
        self._fresh_targets: Dict[TargetKey, TargetRecord] = {}
        resolver = EpochAliasResolver(
            network,
            vp.addr,
            units=units,
            sigs=self.sigs,
            meter=self.meter,
            ally_rounds=config.ally_rounds,
            ally_interval=config.ally_interval,
            retry=config.retry,
            metrics=metrics,
        )
        super().__init__(
            network,
            vp.addr,
            view,
            vp_ases,
            config=config,
            resolver=resolver,
            metrics=metrics,
            label=label,
        )

    # -- traceroute phase ---------------------------------------------------

    @staticmethod
    def _blocks_sig(blocks: List[TargetBlock]) -> Tuple:
        return tuple(
            (block.block.first, block.block.last, tuple(block.origins))
            for block in blocks
        )

    def _candidate_sigs(
        self, blocks: List[TargetBlock]
    ) -> Tuple[Tuple[int, Sig], ...]:
        found: List[Tuple[int, Sig]] = []
        for block in blocks:
            for addr in block.candidate_addrs(self.config.max_addrs_per_block):
                found.append((addr, self.sigs.signature(addr)))
        return tuple(found)

    def _target_clean(
        self, record: TargetRecord, blocks: List[TargetBlock],
        candidate_sigs: Tuple,
    ) -> bool:
        if record.blocks_sig != self._blocks_sig(blocks):
            return False
        if record.candidate_sigs != candidate_sigs:
            return False
        for addr, was_external in record.external:
            if self._is_external(addr) != was_external:
                return False
        return True

    def _observed_external(self, traces) -> Tuple:
        seen: Dict[int, bool] = {}
        for trace in traces:
            for hop in trace.hops:
                if hop.addr is not None and hop.addr not in seen:
                    seen[hop.addr] = self._is_external(hop.addr)
        return tuple(sorted(seen.items()))

    def run_traceroutes(self) -> None:
        groups = group_by_origin(self._targets())
        for key in sorted(groups):
            blocks = groups[key]
            candidate_sigs = self._candidate_sigs(blocks)
            record = self._units.targets.get(key)
            if record is not None and self._target_clean(
                record, blocks, candidate_sigs
            ):
                stop = self._target_stop(key)
                for trace in record.traces:
                    self._record_trace(key, trace, stop)
                self.cost.targets_replayed += 1
                self.cost.traces_replayed += len(record.traces)
            else:
                self.meter.unit_reset()
                for _ in self._target_task(key, blocks):
                    pass
                traces = self.collection.per_target.get(key, [])
                record = TargetRecord(
                    blocks_sig=self._blocks_sig(blocks),
                    candidate_sigs=candidate_sigs,
                    external=self._observed_external(traces),
                    traces=list(traces),
                )
                self.cost.targets_probed += 1
                self.cost.traces_probed += len(traces)
            self._fresh_targets[key] = record

    # -- alias phase --------------------------------------------------------

    def _prefixscan_deps(self, prev: int, nxt: int) -> Tuple:
        from ..topology.addressing import p2p_mate

        addrs = [prev, nxt]
        for plen in (31, 30):
            mate = p2p_mate(nxt, plen)
            if mate is not None and mate not in addrs:
                addrs.append(mate)
        return tuple(
            (addr, self.sigs.signature(addr)) for addr in addrs
        )

    def _prefixscan(self, prev: int, nxt: int):
        return self.meter.unit(
            self._units.prefixscan, (prev, nxt),
            self._prefixscan_deps(prev, nxt),
            partial(super()._prefixscan, prev, nxt),
        )

    # -- entry point --------------------------------------------------------

    def run(self) -> Collection:
        self.meter.begin()
        self.run_traceroutes()
        self.run_alias_resolution()
        probes = self.meter.settle()
        self.cost.probes += probes
        self.collection.probes_used = probes
        # Swap in the refreshed target cache only after a complete run.
        self._units.targets = self._fresh_targets
        return self.collection


# ---------------------------------------------------------------- inference events


@dataclass(frozen=True)
class ApplicationEvent:
    """A replayable record of one router's trip through the router-level
    pass sequence: the consult trail (pass, verdict, error type), the
    deciding pass, its *full* attempted assignment list (applied
    only-if-unowned at replay, exactly like the live loop), and the AS
    set whose relationship annotations the decision could have read."""

    trail: Tuple[Tuple[str, str, Optional[str]], ...]
    deciding: Optional[str]
    assignments: Tuple[Tuple[RouterKey, Optional[int], Optional[str]], ...]
    as_deps: FrozenSet[int]


@dataclass
class InferenceSnapshot:
    """Everything the dirty computation compares across epochs."""

    rows: Dict[RouterKey, Tuple] = field(default_factory=dict)
    addr_info: Dict[int, Tuple] = field(default_factory=dict)
    path_sigs: Dict[Tuple, Tuple] = field(default_factory=dict)
    rels_fps: Dict[int, Tuple] = field(default_factory=dict)


@dataclass
class InferenceCache:
    """Per-VP cross-epoch inference state."""

    snapshot: Optional[InferenceSnapshot] = None
    events: Dict[RouterKey, ApplicationEvent] = field(default_factory=dict)
    config_fp: Optional[str] = None


def _router_key(router) -> RouterKey:
    return tuple(sorted(router.all_addrs()))


def _router_row(ctx, router) -> Tuple:
    return (
        tuple(sorted(router.addrs)),
        tuple(sorted(router.extra_addrs)),
        router.min_dist,
        tuple(sorted(router.dsts)),
        tuple(sorted(router.last_hop_for)),
        tuple(sorted(_router_key(n) for n in ctx.succ_routers(router))),
        tuple(sorted(_router_key(n) for n in ctx.pred_routers(router))),
    )


def _path_sig(path, keys_by_rid) -> Tuple:
    return (
        tuple(keys_by_rid.get(rid, ()) for rid in path.routers),
        tuple(path.had_gap_before),
        path.final_kind.value if path.final_kind is not None else None,
        path.final_src,
        path.reached,
    )


def _rels_fingerprints(rels) -> Dict[int, Tuple]:
    c2p_by_as: Dict[int, List] = {}
    for customer, provider in rels.c2p:
        c2p_by_as.setdefault(customer, []).append((customer, provider))
        c2p_by_as.setdefault(provider, []).append((customer, provider))
    p2p_by_as: Dict[int, List] = {}
    for pair in rels.p2p:
        canon = tuple(sorted(pair))
        for asn in pair:
            p2p_by_as.setdefault(asn, []).append(canon)
    ases = set(c2p_by_as) | set(p2p_by_as) | set(rels.siblings)
    return {
        asn: (
            tuple(sorted(c2p_by_as.get(asn, ()))),
            tuple(sorted(p2p_by_as.get(asn, ()))),
            tuple(sorted(rels.siblings.get(asn, frozenset()))),
        )
        for asn in ases
    }


def _capture_snapshot(ctx) -> InferenceSnapshot:
    snap = InferenceSnapshot()
    keys_by_rid: Dict[int, RouterKey] = {}
    for rid, router in ctx.graph.routers.items():
        keys_by_rid[rid] = _router_key(router)
    for rid, router in ctx.graph.routers.items():
        snap.rows[keys_by_rid[rid]] = _router_row(ctx, router)
    for addr, cls in ctx.addr_class.items():
        snap.addr_info[addr] = (cls, tuple(ctx.addr_origins.get(addr, ())))
    for path in ctx.graph.paths:
        key = (tuple(path.key), path.dst)
        sig = _path_sig(path, keys_by_rid)
        existing = snap.path_sigs.get(key, ())
        snap.path_sigs[key] = existing + (sig,)
    snap.rels_fps = _rels_fingerprints(ctx.rels)
    return snap


def _as_deps(ctx, router) -> FrozenSet[int]:
    """The conservative AS-dependency cone of one router's decision:
    every AS whose relationship annotations any router-level pass could
    have consulted while deciding this router (tie-breaks, providers_of
    votes over destination and on-path external ASes, sibling collapse)."""
    deps: Set[int] = {ctx.focal_asn}
    deps.update(ctx.vp_ases)
    cone = {router.rid}
    for hop in (ctx.succ_routers(router) + ctx.pred_routers(router)):
        cone.add(hop.rid)
        for hop2 in (ctx.succ_routers(hop) + ctx.pred_routers(hop)):
            cone.add(hop2.rid)
    for rid in cone:
        near = ctx.graph.routers.get(rid)
        if near is None:
            continue
        deps.update(near.dsts)
        deps.update(near.last_hop_for)
        for addr in near.all_addrs():
            deps.update(ctx.addr_origins.get(addr, ()))
    for path in ctx.graph.paths_through(router.rid):
        for rid in path.routers:
            on_path = ctx.graph.routers.get(rid)
            if on_path is None:
                continue
            for addr in on_path.all_addrs():
                deps.update(ctx.addr_origins.get(addr, ()))
    return frozenset(deps)


def _dirty_keys(
    snap: InferenceSnapshot, cache: InferenceCache
) -> Set[RouterKey]:
    prev = cache.snapshot
    assert prev is not None
    changed: Set[RouterKey] = set()
    key_of_addr: Dict[int, RouterKey] = {}
    for key in snap.rows:
        for addr in key:
            key_of_addr[addr] = key
    for key, row in snap.rows.items():
        if prev.rows.get(key) != row:
            changed.add(key)
    for addr, info in snap.addr_info.items():
        if addr in prev.addr_info and prev.addr_info[addr] != info:
            owner = key_of_addr.get(addr)
            if owner is not None:
                changed.add(owner)

    adjacency: Dict[RouterKey, Set[RouterKey]] = {}
    for key, row in snap.rows.items():
        neighbors = set(row[5]) | set(row[6])
        adjacency.setdefault(key, set()).update(neighbors)
        for neighbor in neighbors:
            adjacency.setdefault(neighbor, set()).add(key)

    dirty = set(changed)
    frontier = set(changed)
    for _ in range(2):
        frontier = {
            neighbor
            for key in frontier
            for neighbor in adjacency.get(key, ())
        } - dirty
        dirty |= frontier

    def path_routers(sigs) -> Set[RouterKey]:
        keys: Set[RouterKey] = set()
        for sig in sigs:
            keys.update(k for k in sig[0] if k)
        return keys

    for pkey, sigs in snap.path_sigs.items():
        on_path = path_routers(sigs)
        if prev.path_sigs.get(pkey) != sigs or (on_path & changed):
            dirty |= on_path
            old = prev.path_sigs.get(pkey)
            if old is not None:
                dirty |= {k for k in path_routers(old) if k in snap.rows}
    for pkey in set(prev.path_sigs) - set(snap.path_sigs):
        dirty |= {
            k for k in path_routers(prev.path_sigs[pkey]) if k in snap.rows
        }

    changed_ases = {
        asn
        for asn in set(prev.rels_fps) | set(snap.rels_fps)
        if prev.rels_fps.get(asn) != snap.rels_fps.get(asn)
    }
    if changed_ases:
        for key, event in cache.events.items():
            if event.as_deps & changed_ases:
                dirty.add(key)
    return dirty


def _replay_event(ctx, router, event: ApplicationEvent, pass_map) -> bool:
    """Re-emit a recorded pass application against the current graph.

    Resolves everything first and returns False (no side effects) when
    the record no longer maps onto the graph — the caller then runs the
    passes live."""
    targets = []
    for key, owner, reason in event.assignments:
        if not key:
            return False
        rid = ctx.graph.by_addr.get(key[0])
        target = ctx.graph.routers.get(rid) if rid is not None else None
        if target is None or _router_key(target) != key:
            return False
        targets.append((target, owner, reason))
    if event.deciding is not None and event.deciding not in pass_map:
        return False
    for name, _, _ in event.trail:
        if name not in pass_map:
            return False

    provenance = ctx.provenance
    for name, verdict, error in event.trail:
        section = pass_map[name].section
        if verdict == DEGRADED:
            ctx.degrade(name)
            provenance.add(
                router.rid, name, section, DEGRADED,
                evidence={"error": error},
            )
        else:
            provenance.add(router.rid, name, section, CONSIDERED)
    if event.deciding is not None:
        deciding = pass_map[event.deciding]
        for target, owner, reason in targets:
            if target.owner is None:
                target.owner = owner
                target.reason = reason
                ctx.record(deciding.name, reason)
                if target.rid == router.rid:
                    provenance.add(
                        router.rid, deciding.name, deciding.section,
                        ASSIGNED, owner=owner, reason=reason,
                    )
                else:
                    provenance.add(
                        target.rid, deciding.name, deciding.section,
                        CO_ASSIGNED, owner=owner, reason=reason,
                        evidence={"via_router": router.rid},
                    )
    return True


def _config_fingerprint(config: BdrmapConfig) -> str:
    return repr((config.collection, config.heuristics))


def run_incremental_inference(
    ctx, cache: InferenceCache, config_fp: str, cost: EpochCost
):
    """:func:`repro.core.heuristics.run_inference`, with the router-level
    pass loop replayed from the previous epoch's events wherever the
    dirty computation proves the inputs unchanged (an empty ``cache``
    runs every router live).  Graph-level passes, link assembly, and
    (when enabled) refinement always run live — they read ownership
    state, which is cheap to recompute and unsafe to replay.  Routers
    run live and replayed are counted into ``cost``."""

    def replay_or_live(ctx, router_passes) -> None:
        pass_map = {p.name: p for p in router_passes}
        snap = _capture_snapshot(ctx)
        full = (
            cache.snapshot is None
            or cache.config_fp != config_fp
            or ctx.config.use_refinement
        )
        dirty = set() if full else _dirty_keys(snap, cache)
        events: Dict[RouterKey, ApplicationEvent] = {}

        def observer(router, trail, deciding, attempted):
            events[_router_key(router)] = ApplicationEvent(
                trail=tuple(trail),
                deciding=deciding,
                assignments=tuple(
                    (_router_key(a.router), a.owner, a.reason)
                    for a in attempted
                ),
                as_deps=_as_deps(ctx, router),
            )

        for router in ctx.graph.by_distance():
            if router.owner is not None:
                continue
            key = _router_key(router)
            event = None if full else cache.events.get(key)
            if (
                event is not None
                and key not in dirty
                and _replay_event(ctx, router, event, pass_map)
            ):
                events[key] = event
                cost.routers_replayed += 1
            else:
                _apply_passes_to_router(
                    ctx, router, router_passes, observer=observer
                )
                cost.routers_live += 1
        cache.snapshot = snap
        cache.events = events
        cache.config_fp = config_fp

    return run_inference(ctx, replay_or_live)


# ---------------------------------------------------------------- epoch chain


@dataclass
class EpochCost:
    """What one epoch actually cost, the quantities the ≥3x delta-vs-full
    bench floors are asserted over.  Every VP's collector and inference
    count straight into the epoch's one instance."""

    probes: int = 0
    traces_probed: int = 0
    traces_replayed: int = 0
    targets_probed: int = 0
    targets_replayed: int = 0
    units_probed: int = 0
    units_reused: int = 0
    routers_live: int = 0
    routers_replayed: int = 0
    compile_seconds: float = 0.0
    sections_patched: int = 0
    sections_reused: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EpochRecord:
    """One link of the epoch chain."""

    epoch: int
    mode: str                      # "full" | "delta"
    events: List[dict]
    cost: EpochCost
    diff: Optional[dict]
    map_path: Optional[str] = None
    patch_path: Optional[str] = None
    section_crcs: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "events": self.events,
            "cost": self.cost.to_dict(),
            "diff": self.diff,
            "map_path": self.map_path,
            "patch_path": self.patch_path,
            "section_crcs": dict(self.section_crcs),
        }


CHAIN_FORMAT = "bdrmap-repro-epoch-chain/1"


@dataclass
class EpochChain:
    """The versioned delta sequence for one longitudinal run."""

    records: List[EpochRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format": CHAIN_FORMAT,
            "records": [record.to_dict() for record in self.records],
        }

    def save(self, path: str) -> None:
        from ..io.serialize import atomic_write_text

        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        atomic_write_text(path, payload + "\n")


class EpochRunner:
    """Drive collection → inference → compile per epoch, incrementally.

    One runner owns one scenario's longitudinal state: per-VP raw-unit
    and inference caches, the previous compiled map, and the chain of
    :class:`EpochRecord`\\ s.  ``force_full=True`` disables every cache
    (the from-scratch baseline the byte-identity bar is measured
    against)."""

    def __init__(
        self,
        scenario,
        config: Optional[BdrmapConfig] = None,
        out_dir: Optional[str] = None,
        source: str = "epochs",
        first_epoch: int = 0,
        force_full: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or BdrmapConfig()
        self.out_dir = out_dir
        self.source = source
        self.force_full = force_full
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.chain = EpochChain()
        self._epoch = first_epoch
        self._mutation_cursor = len(scenario.mutations)
        # Per VP name: its raw probing units and its inference cache.
        self._caches: Dict[str, Tuple[RawUnits, InferenceCache]] = {}
        self._prev_compiled = None
        #: The dict BorderMap of each completed epoch, in order (tests
        #: compare these against from-scratch recomputes).
        self.result_maps: List = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

    # -- helpers ------------------------------------------------------------

    def _run_vp(self, vp, data: DataBundle, cost: EpochCost) -> BdrmapResult:
        name = vp.name
        if self.force_full:
            units, infer_cache = RawUnits(), InferenceCache()
        else:
            units, infer_cache = self._caches.setdefault(
                name, (RawUnits(), InferenceCache())
            )
        with self.tracer.span("epoch.collect", vp=name):
            collection = EpochCollector(
                self.scenario.network,
                vp,
                data.view,
                data.vp_ases,
                units=units,
                cost=cost,
                config=self.config.collection,
                metrics=self.metrics,
                label=name,
            ).run()
        with self.tracer.span("epoch.infer", vp=name):
            graph = build_router_graph(collection)
            ctx = build_context(
                graph=graph,
                collection=collection,
                data=data,
                config=self.config.heuristics,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            links = run_incremental_inference(
                ctx, infer_cache, _config_fingerprint(self.config), cost
            )
        return BdrmapResult(
            vp_name=vp.name,
            vp_addr=vp.addr,
            focal_asn=data.focal_asn,
            vp_ases=set(data.vp_ases),
            graph=graph,
            links=links,
            probes_used=collection.probes_used,
            traces_run=collection.traces_run,
            runtime_virtual_seconds=0.0,
            provenance=list(ctx.provenance.records),
        )

    # -- the epoch ----------------------------------------------------------

    def run_epoch(self) -> EpochRecord:
        """Measure the world as it stands now: one epoch of the chain."""
        from ..analysis.diff import diff_border_maps
        from ..serving.bordermap import compile_border_map
        from ..serving.compiled import (
            compile_map,
            patch_compiled_map,
            save_compiled_map,
            save_map_patch,
        )

        scenario = self.scenario
        scenario.ensure_forwarding_current()
        epoch = self._epoch
        full = self._prev_compiled is None or self.force_full
        cost = EpochCost()
        with self.tracer.span("epoch", index=epoch):
            data = build_data_bundle(scenario)
            results = [
                self._run_vp(vp, data, cost) for vp in scenario.vps
            ]
            with self.tracer.span("epoch.compile"):
                started = perf_clock()
                bmap = compile_border_map(
                    results,
                    view=data.view,
                    rels=data.rels,
                    epoch=epoch,
                    source=self.source,
                )
                patch = None
                if full:
                    compiled = compile_map(bmap)
                else:
                    compiled, patch = patch_compiled_map(
                        self._prev_compiled, bmap
                    )
                    cost.sections_patched = len(patch.changed)
                    cost.sections_reused = (
                        len(patch.base_crcs) - len(patch.changed)
                    )
                cost.compile_seconds = perf_clock() - started
        diff_summary = None
        if self.result_maps:
            diff_summary = diff_border_maps(
                self.result_maps[-1], bmap
            ).to_dict()

        map_path = patch_path = None
        sections = compiled.sections()
        if self.out_dir is not None:
            map_path = os.path.join(
                self.out_dir, "epoch_%03d.bdrm" % epoch
            )
            save_compiled_map(compiled, map_path)
            if patch is not None:
                patch_path = os.path.join(
                    self.out_dir, "epoch_%03d.patch.bdrm" % epoch
                )
                save_map_patch(patch, patch_path)

        record = EpochRecord(
            epoch=epoch,
            mode="full" if full else "delta",
            events=[
                event.to_dict()
                for event in scenario.mutations[self._mutation_cursor:]
            ],
            cost=cost,
            diff=diff_summary,
            map_path=map_path,
            patch_path=patch_path,
            section_crcs={
                name: zlib.crc32(bytes(payload))
                for name, payload in sections.items()
            },
        )
        self.chain.records.append(record)
        if self.metrics.enabled:
            self.metrics.inc("epoch.runs")
            self.metrics.inc("epoch.probes", cost.probes)
            self.metrics.inc("epoch.traces.probed", cost.traces_probed)
            self.metrics.inc("epoch.traces.replayed", cost.traces_replayed)
            self.metrics.inc("epoch.routers.live", cost.routers_live)
            self.metrics.inc(
                "epoch.routers.replayed", cost.routers_replayed
            )
            self.metrics.inc("epoch.units.probed", cost.units_probed)
            self.metrics.inc("epoch.units.reused", cost.units_reused)
            self.metrics.time("epoch.compile.seconds", cost.compile_seconds)
            # Per-epoch distributions, in the same histogram shapes the
            # serving tier harvests: compile latency feeds the p50/p99
            # SLO surface, probe counts show churn spread across epochs.
            self.metrics.observe(
                "epoch.compile.ms", 1e3 * cost.compile_seconds,
                bounds=LATENCY_BUCKETS_MS,
            )
            self.metrics.observe("epoch.probes.per_epoch", cost.probes)
            self.metrics.set_gauge("epoch.last", float(epoch))
        self._mutation_cursor = len(scenario.mutations)
        self._prev_compiled = compiled
        self._epoch = epoch + 1
        self.result_maps.append(bmap)
        return record

    def save_chain(self, path: Optional[str] = None) -> Optional[str]:
        if path is None:
            if self.out_dir is None:
                return None
            path = os.path.join(self.out_dir, "chain.json")
        self.chain.save(path)
        return path


# ---------------------------------------------------------------- chain replay


def _chain_records(chain_path: str) -> List[dict]:
    """The records of a saved epoch chain, each checked to name a saved
    artifact; anything else raises :class:`EpochError`."""
    from ..io.serialize import read_json

    try:
        payload = read_json(chain_path)
    except DataError as exc:
        raise EpochError(
            "cannot read epoch chain %s: %s" % (chain_path, exc)
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != CHAIN_FORMAT:
        raise EpochError("%s is not an epoch chain" % chain_path)
    records = payload.get("records")
    if not isinstance(records, list):
        raise EpochError("%s: records is not a list" % chain_path)
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise EpochError(
                "%s: record %d is not a JSON object" % (chain_path, index)
            )
        map_path = record.get("map_path")
        if not isinstance(map_path, str) or not os.path.isfile(map_path):
            raise EpochError(
                "epoch %s has no saved artifact to verify"
                % record.get("epoch")
            )
        if not isinstance(record.get("patch_path"), (str, type(None))):
            raise EpochError(
                "epoch %s: patch_path is not a path" % record.get("epoch")
            )
    return records


def replay_chain(chain_path: str) -> List[str]:
    """Verify a saved epoch chain end to end: apply each epoch's patch to
    the previous epoch's artifact and assert the result is byte-identical
    to the epoch's own artifact.  Returns the verified artifact paths.
    A chain file that is not a well-formed chain raises
    :class:`EpochError`."""
    from ..serving.compiled import apply_map_patch

    verified: List[str] = []
    prev_path: Optional[str] = None
    for record in _chain_records(chain_path):
        map_path = record["map_path"]
        patch_path = record.get("patch_path")
        if patch_path is not None:
            if prev_path is None:
                raise EpochError(
                    "epoch %s carries a patch but has no predecessor"
                    % record.get("epoch")
                )
            rebuilt = map_path + ".replayed"
            apply_map_patch(prev_path, patch_path, rebuilt)
            with open(rebuilt, "rb") as fh_a, open(map_path, "rb") as fh_b:
                if fh_a.read() != fh_b.read():
                    raise EpochError(
                        "epoch %s replay mismatch: patch over %s does not "
                        "reproduce %s"
                        % (record.get("epoch"), prev_path, map_path)
                    )
            os.unlink(rebuilt)
        verified.append(map_path)
        prev_path = map_path
    return verified


# ---------------------------------------------------------------- seeded churn


def apply_seeded_churn(
    scenario,
    seed: int,
    epoch: int,
    fraction: float = 0.08,
) -> List[MutationEvent]:
    """Apply a deterministic, bounded mutation batch to ``scenario``.

    The batch touches at most ``fraction`` of the interdomain links
    (adds, removes of previously added links, border re-homings), all
    incident to the focal network so every epoch actually moves borders
    the heuristics must re-infer.  Deterministic in ``(seed, epoch)``
    and the scenario state, so two same-seed worlds evolve identically —
    which is how the full-recompute baseline stays comparable.  Calls
    :func:`rebuild_network` before returning.
    """
    internet = scenario.internet
    focal = scenario.focal_asn
    rng = make_rng(seed, "epoch-churn", str(epoch))
    inter = [
        link
        for link in internet.links.values()
        if link.kind is LinkKind.INTERDOMAIN
    ]
    budget = max(1, int(len(inter) * fraction))

    def _supplier_ok(asn_a: int, asn_b: int) -> bool:
        from ..asgraph import Rel
        from ..topology.addressing import SubnetPool

        rel = internet.graph.relationship(asn_a, asn_b)
        if rel is Rel.CUSTOMER:
            supplier = asn_a
        elif rel is Rel.PROVIDER:
            supplier = asn_b
        else:
            supplier = asn_a
        return isinstance(scenario.state.pools.get(supplier), SubnetPool)

    neighbors = [
        asn
        for asn in sorted(internet.graph.neighbors(focal))
        if _supplier_ok(focal, asn)
    ]
    added = {
        event.link_id
        for event in scenario.mutations
        if isinstance(event, LinkAdded)
    }
    removed = {
        event.link_id
        for event in scenario.mutations
        if event.kind == "link_removed"
    }
    recyclable = sorted(
        link_id
        for link_id in (added - removed)
        if link_id in internet.links
    )
    focal_routers = sorted(internet.ases[focal].router_ids)

    events: List[MutationEvent] = []
    for _ in range(budget):
        op = rng.choice(("add", "add", "remove", "move"))
        if op == "remove" and recyclable:
            link_id = rng.choice(recyclable)
            recyclable.remove(link_id)
            events.append(remove_link(scenario, link_id))
        elif op == "move" and recyclable:
            link_id = rng.choice(recyclable)
            link = internet.links[link_id]
            current = next(
                (
                    iface.router_id
                    for iface in link.interfaces
                    if internet.routers[iface.router_id].asn == focal
                ),
                None,
            )
            choices = [rid for rid in focal_routers if rid != current]
            if current is None or not choices:
                continue
            events.append(
                move_border_link(scenario, link_id, rng.choice(choices))
            )
        elif neighbors:
            event = add_border_link(scenario, focal, rng.choice(neighbors))
            recyclable.append(event.link_id)
            recyclable.sort()
            events.append(event)
    if not events:
        raise TopologyError(
            "seeded churn produced no mutations for epoch %d" % epoch
        )
    rebuild_network(scenario)
    return events
