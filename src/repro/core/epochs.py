"""Incremental epoch pipeline: delta re-measurement (§4 longitudinal).

The deployed bdrmap re-runs continuously because interconnection changes
— but real churn is sparse and localized, so paying a full re-probe and
a full compile every epoch scales cost with world size instead of
churn.  This module is the delta path:

* :class:`EpochCollector` / :class:`EpochAliasResolver` — a collection
  engine that caches every *raw probing unit* (per-target traceroute
  batches, Mercator, Ally, velocity, prefixscan) together with a
  forwarding signature of everything the unit's behaviour depends on.
  A unit whose signature is unchanged is replayed from cache without
  sending a probe; everything else re-probes.  Crucially the full and
  delta modes share one canonical probing discipline (sorted targets,
  ``network.reset()`` before every probing unit), so a replayed unit's
  bytes are exactly what a fresh run would have produced.
* :func:`run_incremental_inference` — the epoch's inference step:
  :func:`~repro.core.heuristics.run_inference` over every router, every
  epoch.  Decisions are not cached: working out which routers could
  reuse theirs costs more than running every router live.
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

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..alias import AliasResolver
from ..errors import DataError, TopologyError
from ..net.network import _MAX_HOPS
from ..net.routing import StepKind
from ..obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry, NULL_REGISTRY
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
from .heuristics import build_context, run_inference
from .report import BdrmapResult
from .routergraph import build_router_graph
from .targets import TargetBlock, group_by_origin

# A forwarding signature is a nested tuple.
Sig = Tuple


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
        self._addrs_memo: Dict[int, Tuple[int, ...]] = {}

    def _addrs(self, router_id: int) -> Tuple[int, ...]:
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


# ---------------------------------------------------------------- inference


def run_incremental_inference(ctx, cost: EpochCost):
    """One epoch's inference step: :func:`~repro.core.heuristics.run_inference`
    over ``ctx``, with the routers it ran over counted into ``cost``.

    Every router runs its passes live each epoch; what the epoch path
    reuses is probing, not decisions.  The name is kept because the
    benchmark's tracing plan wraps this function as its epoch inference
    layer."""
    cost.routers_live += len(ctx.graph.routers)
    return run_inference(ctx)


# ---------------------------------------------------------------- epoch chain


@dataclass
class EpochCost:
    """What one epoch actually cost, the quantities the ≥3x delta-vs-full
    bench floors are asserted over.  Every VP's collector and inference
    count straight into the epoch's one instance.  ``routers_live`` is
    every router inference ran over; ``routers_replayed`` always reads 0
    and is kept for readers of saved chains and bench records."""

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
        """Write the chain to ``path``, each artifact path relative to
        the chain file's directory, so the directory replays from any
        working directory and after it is moved."""
        from ..io.serialize import atomic_write_text

        base = os.path.dirname(os.path.abspath(path))
        chain = self.to_dict()
        for record in chain["records"]:
            for key in ("map_path", "patch_path"):
                if record[key] is not None:
                    record[key] = os.path.relpath(record[key], base)
        payload = json.dumps(chain, indent=2, sort_keys=True)
        atomic_write_text(path, payload + "\n")


class EpochRunner:
    """Drive collection → inference → compile per epoch, incrementally.

    One runner owns one scenario's longitudinal state: per-VP raw-unit
    caches, the previous compiled map, and the chain of
    :class:`EpochRecord`\\ s.  Inference runs live in every epoch; the
    §5.2 inputs are rebuilt only where what they read changed (see
    :func:`~repro.core.bdrmap.build_data_bundle`).  ``force_full=True``
    disables every cache, that reuse included (the from-scratch
    baseline the byte-identity bar is measured against)."""

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
        # Per VP name: its raw probing units.
        self._caches: Dict[str, RawUnits] = {}
        self._prev_compiled = None
        # The last epoch's §5.2 inputs: build_data_bundle takes every
        # part whose inputs are unchanged from it.
        self._prev_data: Optional[DataBundle] = None
        #: The dict BorderMap of each completed epoch, in order (tests
        #: compare these against from-scratch recomputes).
        self.result_maps: List = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

    # -- helpers ------------------------------------------------------------

    def _run_vp(self, vp, data: DataBundle, cost: EpochCost) -> BdrmapResult:
        name = vp.name
        if self.force_full:
            units = RawUnits()
        else:
            units = self._caches.setdefault(name, RawUnits())
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
            links = run_incremental_inference(ctx, cost)
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
            data = build_data_bundle(
                scenario,
                previous=None if self.force_full else self._prev_data,
            )
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
        self._prev_data = data
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
    artifact; anything else raises :class:`EpochError`.  A relative
    artifact path is resolved against the chain file's directory."""
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
    base = os.path.dirname(chain_path)
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise EpochError(
                "%s: record %d is not a JSON object" % (chain_path, index)
            )
        map_path = record.get("map_path")
        if not isinstance(map_path, str) \
                or not os.path.isfile(os.path.join(base, map_path)):
            raise EpochError(
                "epoch %s has no saved artifact to verify"
                % record.get("epoch")
            )
        patch_path = record.get("patch_path")
        if not isinstance(patch_path, (str, type(None))):
            raise EpochError(
                "epoch %s: patch_path is not a path" % record.get("epoch")
            )
        record["map_path"] = os.path.join(base, map_path)
        if patch_path is not None:
            record["patch_path"] = os.path.join(base, patch_path)
    return records


def replay_chain(chain_path: str) -> List[str]:
    """Verify a saved epoch chain end to end: apply each epoch's patch to
    the previous epoch's artifact, in memory, and assert the result is
    byte-identical to the epoch's own artifact.  Nothing is written.
    Returns the verified artifact paths, resolved against the chain
    file's directory.
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
            rebuilt = io.BytesIO()
            apply_map_patch(prev_path, patch_path, rebuilt)
            with open(map_path, "rb") as handle:
                if rebuilt.getvalue() != handle.read():
                    raise EpochError(
                        "epoch %s replay mismatch: patch over %s does not "
                        "reproduce %s"
                        % (record.get("epoch"), prev_path, map_path)
                    )
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
