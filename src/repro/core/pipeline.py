"""The staged bdrmap pipeline.

The end-to-end run (Fig 2) is expressed as explicit stages — collection →
router-graph build → heuristic inference — each a :class:`PipelineStage`
operating on a shared :class:`PipelineState`.  Remote (§5.8) deployments
swap only the collection stage; everything downstream is byte-identical.

The inference stage threads an :class:`InferenceContext` through the
heuristic passes (see :mod:`repro.core.heuristics`).  The context is
immutable-ish: the §5.2 inputs (BGP view, relationships, RIR, IXP data,
the VP sibling set) are never mutated by passes — only the derived caches
(address classification, nextas), the router annotations, and the link
list grow as passes run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..asgraph import InferredRelationships
from ..bgp import BGPView
from ..datasets import IXPDataset, RIRDelegations
from ..net import ResponseKind
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.provenance import ProvenanceLog
from ..obs.trace import NULL_TRACER, Tracer
from .collection import Collection, Collector
from .nextas import compute_nextas
from .report import InferredLink
from .routergraph import InferredRouter, RouterGraph, build_router_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .heuristics import HeuristicConfig

# Address classes (§5.4): every observed address is one of these.
VP = "vp"
EXT = "ext"
IXP_CLASS = "ixp"
UNROUTED = "unrouted"


# ---------------------------------------------------------------- inference context


@dataclass
class InferenceContext:
    """Everything the §5.4 heuristic passes read, plus their shared caches.

    The §5.2 inputs (``view``, ``rels``, ``rir``, ``ixp_data``,
    ``vp_ases``, ``focal_asn``) are shared across VPs by the orchestrator
    and must not be mutated; the per-run fields (``graph``,
    ``addr_class``, ``links``, the counters) belong to one VP's run.
    """

    graph: RouterGraph
    collection: Collection
    view: BGPView
    rels: InferredRelationships
    vp_ases: FrozenSet[int]
    focal_asn: int
    config: "HeuristicConfig"
    ixp_data: Optional[IXPDataset] = None
    rir: Optional[RIRDelegations] = None
    # Derived caches and outputs (filled in as passes run).
    addr_class: Dict[int, str] = field(default_factory=dict)
    addr_origins: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    links: List[InferredLink] = field(default_factory=list)
    pass_counts: Counter = field(default_factory=Counter)    # pass name -> assignments
    reason_counts: Counter = field(default_factory=Counter)  # Table 1 label -> assignments
    # Passes that failed on partial evidence and fell through to weaker
    # heuristics instead of aborting the run (pass name -> count).
    degradations: Counter = field(default_factory=Counter)
    # Observability: shared metrics/tracing sinks (no-op by default)
    # and the decision-provenance log behind ``repro explain``.
    metrics: MetricsRegistry = field(default=NULL_REGISTRY)
    tracer: Tracer = field(default=NULL_TRACER)
    provenance: ProvenanceLog = field(default_factory=ProvenanceLog)
    _nextas_cache: Dict[int, Optional[int]] = field(default_factory=dict)

    # -- setup ---------------------------------------------------------------

    def classify_addr(self, addr: int) -> str:
        if self.ixp_data is not None and self.ixp_data.is_ixp_addr(addr):
            self.addr_origins[addr] = ()
            return IXP_CLASS
        origins = self.view.origins_of_addr(addr)
        self.addr_origins[addr] = origins
        if not origins:
            return UNROUTED
        if set(origins) & self.vp_ases:
            return VP
        return EXT

    def prepare(self) -> None:
        for addr in self.graph.by_addr:
            self.addr_class[addr] = self.classify_addr(addr)
        if self.rir is not None:
            self._extend_vp_space()

    def _extend_vp_space(self) -> None:
        """§5.4.1: addresses before a VP-originated address in a trace are
        assumed delegated to the VP network; the RIR files identify the
        enclosing blocks, which we then treat as VP space."""
        vp_opaque_ids: Set[str] = set()
        ttl_expired = ResponseKind.TTL_EXPIRED
        for trace in self.collection.traces:
            addrs = [
                addr
                for addr, kind in zip(trace.addrs, trace.kinds)
                if kind is ttl_expired
            ]
            last_vp = -1
            for index, addr in enumerate(addrs):
                if self.addr_class.get(addr) == VP:
                    last_vp = index
            for addr in addrs[:last_vp]:
                if self.addr_class.get(addr) == UNROUTED:
                    opaque = self.rir.opaque_id_of(addr)
                    if opaque is not None:
                        vp_opaque_ids.add(opaque)
        if not vp_opaque_ids:
            return
        for addr, cls in list(self.addr_class.items()):
            if cls == UNROUTED and self.rir.opaque_id_of(addr) in vp_opaque_ids:
                self.addr_class[addr] = VP

    # -- router views --------------------------------------------------------

    def classes(self, router: InferredRouter) -> Set[str]:
        return {self.addr_class[a] for a in router.addrs if a in self.addr_class}

    def ext_ases(self, router: InferredRouter) -> Set[int]:
        """External ASes that the router's addresses map to."""
        found: Set[int] = set()
        for addr in router.addrs:
            if self.addr_class.get(addr) == EXT:
                found.update(self.addr_origins.get(addr, ()))
        return found - self.vp_ases

    def single_ext_as(self, router: InferredRouter) -> Optional[int]:
        """The single external AS all of the router's addresses map to, or
        None if the mapping is absent or ambiguous."""
        ases: Optional[Set[int]] = None
        for addr in router.addrs:
            if self.addr_class.get(addr) != EXT:
                return None
            origins = set(self.addr_origins.get(addr, ())) - self.vp_ases
            if not origins:
                return None
            ases = origins if ases is None else (ases & origins)
        if ases and len(ases) == 1:
            return next(iter(ases))
        if ases and len(ases) > 1:
            return min(ases)  # MOAS: deterministic choice
        return None

    def succ_routers(self, router: InferredRouter) -> List[InferredRouter]:
        return [
            self.graph.routers[rid]
            for rid in sorted(self.graph.successors(router.rid))
            if rid in self.graph.routers
        ]

    def pred_routers(self, router: InferredRouter) -> List[InferredRouter]:
        return [
            self.graph.routers[rid]
            for rid in sorted(self.graph.predecessors(router.rid))
            if rid in self.graph.routers
        ]

    def adjacent_ext_addr_counts(self, router: InferredRouter) -> Counter:
        """Per-external-AS count of addresses on successor routers."""
        counts: Counter = Counter()
        for successor in self.succ_routers(router):
            for addr in successor.addrs:
                if self.addr_class.get(addr) == EXT:
                    for asn in self.addr_origins.get(addr, ()):
                        if asn not in self.vp_ases:
                            counts[asn] += 1
        return counts

    def nextas(self, router: InferredRouter) -> Optional[int]:
        if router.rid not in self._nextas_cache:
            self._nextas_cache[router.rid] = compute_nextas(
                router, self.rels, self.vp_ases
            )
        return self._nextas_cache[router.rid]

    def dst_sibling_collapse(self, dsts: Set[int]) -> Set[int]:
        """Collapse a destination-AS set by inferred siblinghood: {B, B's
        sibling} counts as one destination network."""
        remaining = set(dsts)
        representatives: Set[int] = set()
        while remaining:
            asn = min(remaining)
            family = (self.rels.siblings.get(asn) or frozenset((asn,))) & remaining
            remaining -= family or {asn}
            representatives.add(asn)
        return representatives

    def count_winner(self, adjacent: Counter) -> int:
        """The AS with the most adjacent addresses; ties prefer an AS with
        a known relationship to the VP network (§5.4.6)."""
        ranked = sorted(adjacent.items(), key=lambda kv: (-kv[1], kv[0]))
        top_count = ranked[0][1]
        tied = [asn for asn, count in ranked if count == top_count]
        if len(tied) > 1:
            for asn in tied:
                if self.rels.relationship(self.focal_asn, asn) is not None:
                    return asn
        return tied[0]

    # -- bookkeeping ---------------------------------------------------------

    def record(self, pass_name: str, reason: str) -> None:
        """Count one ownership assignment (or emitted link) by the pass
        that produced it and by its Table 1 reason label."""
        self.pass_counts[pass_name] += 1
        self.reason_counts[reason] += 1
        self.metrics.inc("pass.%s.claimed" % pass_name)

    def degrade(self, pass_name: str) -> None:
        """Record that a pass failed on partial evidence and inference
        degraded to the next (weaker) heuristic instead of crashing."""
        self.degradations[pass_name] += 1
        self.metrics.inc("pass.%s.degraded" % pass_name)


# ---------------------------------------------------------------- pipeline state


@dataclass
class StageTiming:
    """Cost of one pipeline stage, in virtual time and probes."""

    name: str
    virtual_seconds: float = 0.0
    probes: int = 0


@dataclass
class PipelineState:
    """Mutable run state threaded through the stages of one VP's run."""

    network: object
    vp_name: str
    vp_addr: int
    data: object           # DataBundle
    config: object         # BdrmapConfig
    resolver: object = None  # optional shared AliasResolver (§5.8)
    collection: Optional[Collection] = None
    graph: Optional[RouterGraph] = None
    ctx: Optional[InferenceContext] = None
    links: Optional[List[InferredLink]] = None
    timings: List[StageTiming] = field(default_factory=list)
    metrics: MetricsRegistry = field(default=NULL_REGISTRY)
    tracer: Tracer = field(default=NULL_TRACER)

    def timing(self, name: str) -> Optional[StageTiming]:
        for entry in self.timings:
            if entry.name == name:
                return entry
        return None


class PipelineStage(Protocol):
    """One stage of the bdrmap pipeline: reads and extends the state."""

    name: str

    def run(self, state: PipelineState) -> None:  # pragma: no cover - protocol
        ...


class Pipeline:
    """Run stages in order, timing each in virtual seconds and probes."""

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        self.stages = list(stages)

    def run(self, state: PipelineState) -> PipelineState:
        for stage in self.stages:
            network = state.network
            now_before = network.now if network is not None else 0.0
            probes_before = network.probes_sent if network is not None else 0
            with state.tracer.span("stage." + stage.name, vp=state.vp_name):
                stage.run(state)
            timing = StageTiming(
                name=stage.name,
                virtual_seconds=(
                    (network.now - now_before) if network is not None else 0.0
                ),
                probes=(
                    (network.probes_sent - probes_before)
                    if network is not None
                    else 0
                ),
            )
            state.timings.append(timing)
            if state.metrics.enabled:
                state.metrics.inc(
                    "stage.%s.probes" % stage.name, timing.probes
                )
                state.metrics.time(
                    "stage.%s.virtual_seconds" % stage.name,
                    timing.virtual_seconds,
                )
        return state


# ---------------------------------------------------------------- the stages


class CollectionStage:
    """§5.3 data collection.  Remote deployments override
    :meth:`make_collector` to dispatch probes to the on-device prober."""

    name = "collection"

    def make_collector(self, state: PipelineState) -> Collector:
        return Collector(
            state.network,
            state.vp_addr,
            state.data.view,
            state.data.vp_ases,
            state.config.collection,
            resolver=state.resolver,
            metrics=state.metrics,
            label=state.vp_name,
        )

    def run(self, state: PipelineState) -> None:
        collector = self.make_collector(state)
        state.collection = collector.run()


class GraphBuildStage:
    """Collapse observed interfaces into the router graph."""

    name = "graph"

    def run(self, state: PipelineState) -> None:
        state.graph = build_router_graph(state.collection)
        if state.metrics.enabled:
            state.metrics.set_gauge(
                "graph.routers", len(state.graph.routers)
            )
            state.metrics.set_gauge("graph.paths", len(state.graph.paths))


class InferenceStage:
    """Run the registered §5.4 heuristic passes over the router graph."""

    name = "inference"

    def run(self, state: PipelineState) -> None:
        from .heuristics import build_context, run_inference

        ctx = build_context(
            graph=state.graph,
            collection=state.collection,
            data=state.data,
            config=state.config.heuristics,
            metrics=state.metrics,
            tracer=state.tracer,
        )
        state.ctx = ctx
        state.links = run_inference(ctx)


def default_stages() -> List[PipelineStage]:
    """The local (non-remote) stage sequence."""
    return [CollectionStage(), GraphBuildStage(), InferenceStage()]
