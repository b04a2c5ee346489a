"""The ordered ownership heuristics of §5.4, as a registry of passes.

Routers are visited in order of observed hop distance from the VP; for each
router the first matching *router-level* pass assigns an owner.  Two
*graph-level* passes then run: the §5.4.7 analytical alias collapse (before
link assembly) and the §5.4.8 silent-neighbor attachment (after).  Each
pass is one small class with a uniform
``apply(router, ctx) -> Optional[PassOutcome]`` interface reading a shared
:class:`~repro.core.pipeline.InferenceContext`:

========================  ========  ==========================================
pass                      paper     Table 1 labels
========================  ========  ==========================================
``vp_router``             §5.4.1    ``1 multihomed`` (VP routers: ``vp``)
``firewall``              §5.4.2    ``2 firewall``
``unrouted``              §5.4.3    ``3 unrouted``
``onenet``                §5.4.4    ``4 onenet``
``third_party``           §5.4.5    ``5 thirdparty``
``relationship``          §5.4.5    ``5 relationship``, ``5 missing
                                    customer``, ``5 hidden peer``
``ambiguous``             §5.4.6    ``6 count``, ``6 ipas``
``ixp_fabric``            §4 ch.6   ``ixp``
``alias_collapse``        §5.4.7    ``7 alias``
``silent_neighbor``       §5.4.8    ``8 silent``, ``8 other icmp``
========================  ========  ==========================================

Order and ablation are configured through one knob, the
:class:`HeuristicConfig` ``passes`` tuple (omitting a name drops that
pass), not through if-chains.  Reasons are recorded with the labels
Table 1 uses so the coverage analysis can reproduce the table's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type

from ..asgraph import Rel
from ..errors import InferenceError
from ..net import ResponseKind
from ..obs.provenance import (
    ASSIGNED,
    CO_ASSIGNED,
    CONSIDERED,
    DEGRADED,
    LINKED,
    MERGED,
)
from ..obs.trace import perf_clock
from ..topology.addressing import p2p_mate
from .pipeline import EXT, IXP_CLASS, UNROUTED, VP, InferenceContext
from .report import InferredLink
from .routergraph import InferredRouter

__all__ = [
    "VP",
    "EXT",
    "IXP_CLASS",
    "UNROUTED",
    "Assignment",
    "PassOutcome",
    "HeuristicPass",
    "GraphHeuristicPass",
    "HeuristicConfig",
    "PASS_REGISTRY",
    "DEFAULT_PASS_ORDER",
    "build_context",
    "build_passes",
    "run_inference",
    "table1_row_order",
]


@dataclass
class HeuristicConfig:
    """Ablation and ordering switches for the heuristic passes."""

    # Extension (off by default — the paper stops at the first border):
    # bdrmapIT-style neighbor-constraint refinement of deep annotations.
    use_refinement: bool = False
    # Pass order override: names from PASS_REGISTRY, applied in sequence.
    # None means DEFAULT_PASS_ORDER.  Omitting a name ablates that pass.
    passes: Optional[Tuple[str, ...]] = None


# ---------------------------------------------------------------- pass framework


@dataclass(frozen=True)
class Assignment:
    """One router-ownership decision made by a pass."""

    router: InferredRouter
    owner: int
    reason: str


@dataclass
class PassOutcome:
    """What a router-level pass decided: the primary router's assignment
    first, optionally followed by co-assignments (e.g. a multihomed chain
    or a third-party successor)."""

    assignments: List[Assignment] = field(default_factory=list)


class HeuristicPass:
    """A router-level §5.4 heuristic.

    ``apply`` returns None when the pass does not match; otherwise a
    :class:`PassOutcome` whose assignments the driver applies (owners are
    only ever written once) and counts.
    """

    name: str = ""
    section: str = ""
    # Reason labels this pass can emit for *neighbor* routers, in Table 1
    # display order.  ("vp" is not a Table 1 row: it marks VP-owned routers.)
    table1_labels: Tuple[str, ...] = ()

    def apply(
        self, router: InferredRouter, ctx: InferenceContext
    ) -> Optional[PassOutcome]:
        raise NotImplementedError


class GraphHeuristicPass(HeuristicPass):
    """A graph-level pass (§5.4.7, §5.4.8): runs once over the whole graph
    instead of per router.  ``after_link_assembly`` orders it relative to
    link assembly."""

    after_link_assembly = False

    def apply(self, router, ctx):  # pragma: no cover - not router-level
        return None

    def apply_graph(self, ctx: InferenceContext) -> None:
        raise NotImplementedError


PASS_REGISTRY: Dict[str, Type[HeuristicPass]] = {}


def register_pass(cls: Type[HeuristicPass]) -> Type[HeuristicPass]:
    PASS_REGISTRY[cls.name] = cls
    return cls


# ---------------------------------------------------------------- router passes


@register_pass
class VPRouterPass(HeuristicPass):
    """§5.4.1: routers operated by the network hosting the VP, with the
    multihomed-neighbor exception (Fig 4)."""

    name = "vp_router"
    section = "§5.4.1"
    table1_labels = ("1 multihomed",)

    def apply(self, router, ctx):
        if ctx.classes(router) - {VP}:
            return None
        successors = ctx.succ_routers(router)
        vp_successors = [s for s in successors if VP in ctx.classes(s)]
        if not vp_successors:
            # A VP-addressed router whose next hop is an IXP fabric address
            # is the VP network's fabric-facing border: the fabric address
            # belongs to the *member's* router on the far side.
            if any(IXP_CLASS in ctx.classes(s) for s in successors):
                return PassOutcome([Assignment(router, ctx.focal_asn, "vp")])
            return None
        # Exception 1.1: a neighbor multihomed via adjacent routers.
        adjacent_ext = ctx.adjacent_ext_addr_counts(router)
        if len(adjacent_ext) == 1:
            neighbor_as = next(iter(adjacent_ext))
            chained = [
                s
                for s in vp_successors
                if self._succ_chain_only_reaches(s, neighbor_as, ctx)
            ]
            if chained and self._multihome_guard_ok(router, neighbor_as, ctx):
                assignments = [Assignment(router, neighbor_as, "1 multihomed")]
                assignments.extend(
                    Assignment(successor, neighbor_as, "1 multihomed")
                    for successor in chained
                )
                return PassOutcome(assignments)
        return PassOutcome([Assignment(router, ctx.focal_asn, "vp")])

    @staticmethod
    def _succ_chain_only_reaches(
        router: InferredRouter, asn: int, ctx: InferenceContext
    ) -> bool:
        """Does this VP-addressed router's own onward path actually lead
        into ``asn``?  (An empty onward view is no evidence of a chain —
        treating it as one made shared aggregation routers look like
        multihomed neighbors.)"""
        if ctx.classes(router) - {VP}:
            return False
        ext = ctx.adjacent_ext_addr_counts(router)
        return set(ext) == {asn}

    @staticmethod
    def _multihome_guard_ok(
        router: InferredRouter, neighbor_as: int, ctx: InferenceContext
    ) -> bool:
        """§5.4.1's guard: if any would-be owner downstream is a customer of
        the VP network but not a known neighbor of ``neighbor_as``, the
        router belongs to the VP network after all."""
        neighbor_neighbors = ctx.rels.neighbors(neighbor_as)
        for dst_as in sorted(router.dsts - ctx.vp_ases):
            if dst_as == neighbor_as:
                continue
            if (
                ctx.focal_asn in ctx.rels.providers_of(dst_as)
                and dst_as not in neighbor_neighbors
            ):
                return False
        return True


@register_pass
class FirewallPass(HeuristicPass):
    """§5.4.2: neighbor edge routers behind firewalls (Fig 5)."""

    name = "firewall"
    section = "§5.4.2"
    table1_labels = ("2 firewall",)

    def apply(self, router, ctx):
        if ctx.classes(router) - {VP}:
            return None
        if ctx.graph.successors(router.rid):
            return None
        last_for = ctx.dst_sibling_collapse(router.last_hop_for - ctx.vp_ases)
        if len(last_for) == 1:
            owner = next(iter(last_for))
            return PassOutcome([Assignment(router, owner, "2 firewall")])
        if len(last_for) > 1:
            candidate = ctx.nextas(router)
            if candidate is not None:
                if candidate in ctx.vp_ases:
                    return PassOutcome(
                        [Assignment(router, ctx.focal_asn, "vp")]
                    )
                return PassOutcome(
                    [Assignment(router, candidate, "2 firewall")]
                )
        return None


@register_pass
class UnroutedPass(HeuristicPass):
    """§5.4.3: neighbor routers with unrouted interface addresses (Fig 6)."""

    name = "unrouted"
    section = "§5.4.3"
    table1_labels = ("3 unrouted",)

    def apply(self, router, ctx):
        classes = ctx.classes(router)
        if not classes or classes - {UNROUTED}:
            return None
        first_routed: Set[int] = set()
        for path in ctx.graph.paths_through(router.rid):
            index = path.routers.index(router.rid)
            for rid in path.routers[index + 1:]:
                later = ctx.graph.routers.get(rid)
                if later is None:
                    continue
                ases = ctx.ext_ases(later)
                if ases:
                    first_routed.update(ases)
                    break
        first_routed -= ctx.vp_ases
        if len(first_routed) == 1:
            owner = next(iter(first_routed))
            return PassOutcome([Assignment(router, owner, "3 unrouted")])
        if len(first_routed) > 1:
            votes: Dict[int, int] = {}
            for asn in first_routed:
                for provider in ctx.rels.providers_of(asn):
                    votes[provider] = votes.get(provider, 0) + 1
            if votes:
                best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
                return PassOutcome(
                    [Assignment(router, best[0], "3 unrouted")]
                )
        candidate = ctx.nextas(router)
        if candidate is not None:
            return PassOutcome([Assignment(router, candidate, "3 unrouted")])
        return None


@register_pass
class OnenetPass(HeuristicPass):
    """§5.4.4: onenet — two consecutive hops in the same external AS
    (Fig 7)."""

    name = "onenet"
    section = "§5.4.4"
    table1_labels = ("4 onenet",)

    def apply(self, router, ctx):
        single = ctx.single_ext_as(router)
        if single is not None:
            # 4.1: the router's own addresses and some successor agree.
            for successor in ctx.succ_routers(router):
                if single in ctx.ext_ases(successor):
                    return PassOutcome(
                        [Assignment(router, single, "4 onenet")]
                    )
            return None
        if ctx.classes(router) - {VP}:
            return None
        # 4.2: VP-addressed router followed by two consecutive routers in
        # the same external AS.
        for path in ctx.graph.paths_through(router.rid):
            routers = path.routers
            for index, rid in enumerate(routers[:-2]):
                if rid != router.rid:
                    continue
                first = ctx.graph.routers.get(routers[index + 1])
                second = ctx.graph.routers.get(routers[index + 2])
                if first is None or second is None:
                    continue
                shared = (
                    ctx.ext_ases(first) & ctx.ext_ases(second)
                ) - ctx.vp_ases
                if len(shared) == 1:
                    owner = next(iter(shared))
                    return PassOutcome(
                        [Assignment(router, owner, "4 onenet")]
                    )
        return None


def _third_party_shape(
    router: InferredRouter, ctx: InferenceContext
) -> Optional[int]:
    """If this router looks like a third-party responder — single external
    mapping A, observed only on paths toward a single network B, with A a
    provider of B — return B (§5.4.5, Fig 8)."""
    single = ctx.single_ext_as(router)
    if single is None:
        return None
    dsts = ctx.dst_sibling_collapse(router.dsts - ctx.vp_ases)
    if len(dsts) != 1:
        return None
    dst_as = next(iter(dsts))
    if dst_as == single:
        return None
    if ctx.rels.is_provider_of(single, dst_as):
        return dst_as
    return None


@register_pass
class ThirdPartyPass(HeuristicPass):
    """§5.4.5 steps 5.1–5.2: third-party responder detection."""

    name = "third_party"
    section = "§5.4.5"
    table1_labels = ("5 thirdparty",)

    def apply(self, router, ctx):
        classes = ctx.classes(router)
        if classes <= {EXT} and classes:
            # 5.2: the router itself responds with a third-party address.
            third = _third_party_shape(router, ctx)
            if third is not None:
                return PassOutcome(
                    [Assignment(router, third, "5 thirdparty")]
                )
            return None
        if classes - {VP}:
            return None
        # 5.1: the router holds VP-supplied addresses (a far-side
        # candidate) and a successor is a third-party responder.
        for successor in ctx.succ_routers(router):
            third = _third_party_shape(successor, ctx)
            if third is not None:
                return PassOutcome(
                    [
                        Assignment(router, third, "5 thirdparty"),
                        Assignment(successor, third, "5 thirdparty"),
                    ]
                )
        return None


@register_pass
class RelationshipPass(HeuristicPass):
    """§5.4.5 steps 5.3–5.5: relationship-guided inference."""

    name = "relationship"
    section = "§5.4.5"
    table1_labels = ("5 relationship", "5 missing customer", "5 hidden peer")

    def apply(self, router, ctx):
        classes = ctx.classes(router)
        if classes - {VP}:
            return None
        adjacent = ctx.adjacent_ext_addr_counts(router)
        if len(adjacent) != 1:
            return None
        neighbor_as = next(iter(adjacent))
        rel = ctx.rels.relationship(ctx.focal_asn, neighbor_as)
        # 5.3: a known peer or customer.
        if rel in (Rel.CUSTOMER, Rel.PEER):
            return PassOutcome(
                [Assignment(router, neighbor_as, "5 relationship")]
            )
        # 5.4: a customer of a customer (sibling-induced gaps).
        intermediates = sorted(
            ctx.rels.providers_of(neighbor_as)
            & ctx.rels.customers_of(ctx.focal_asn)
        )
        if intermediates:
            return PassOutcome(
                [Assignment(router, intermediates[0], "5 missing customer")]
            )
        # 5.5: subsequent interfaces in a single AS with no known
        # relationship — a peering link hidden from public BGP.
        return PassOutcome(
            [Assignment(router, neighbor_as, "5 hidden peer")]
        )


@register_pass
class AmbiguousPass(HeuristicPass):
    """§5.4.6: IP-AS mapping in ambiguous multi-AS neighborhoods (Fig 9)."""

    name = "ambiguous"
    section = "§5.4.6"
    table1_labels = ("6 count", "6 ipas")

    def apply(self, router, ctx):
        classes = ctx.classes(router)
        if IXP_CLASS in classes:
            return None  # fabric addresses are the ixp_fabric pass's job
        adjacent = ctx.adjacent_ext_addr_counts(router)
        if classes <= {VP} and classes and len(adjacent) >= 2:
            # 6.1: choose the AS with the most adjacent addresses.
            return PassOutcome(
                [Assignment(router, ctx.count_winner(adjacent), "6 count")]
            )
        ext = ctx.ext_ases(router)
        if ext:
            # 6.2: plain IP-AS mapping of the router's own addresses.
            single = ctx.single_ext_as(router)
            owner = single if single is not None else min(ext)
            return PassOutcome([Assignment(router, owner, "6 ipas")])
        return None


@register_pass
class IXPFabricPass(HeuristicPass):
    """Routers answering with IXP fabric addresses (§4 challenge 6):
    infer from what follows across the fabric."""

    name = "ixp_fabric"
    section = "§4 ch.6"
    table1_labels = ("ixp",)

    def apply(self, router, ctx):
        if IXP_CLASS not in ctx.classes(router):
            return None
        adjacent = ctx.adjacent_ext_addr_counts(router)
        if adjacent:
            return PassOutcome(
                [Assignment(router, ctx.count_winner(adjacent), "ixp")]
            )
        last_for = ctx.dst_sibling_collapse(router.last_hop_for - ctx.vp_ases)
        if len(last_for) == 1:
            return PassOutcome(
                [Assignment(router, next(iter(last_for)), "ixp")]
            )
        candidate = ctx.nextas(router)
        if candidate is not None and candidate not in ctx.vp_ases:
            return PassOutcome([Assignment(router, candidate, "ixp")])
        return None


# ---------------------------------------------------------------- graph passes


@register_pass
class AliasCollapsePass(GraphHeuristicPass):
    """§5.4.7: collapse single-interface VP routers that share one neighbor
    router reached over point-to-point links (Fig 10)."""

    name = "alias_collapse"
    section = "§5.4.7"
    table1_labels = ("7 alias",)
    after_link_assembly = False

    def apply_graph(self, ctx):
        resolver = ctx.collection.resolver
        confirmed = {
            pair
            for pair, result in ctx.collection.prefixscans.items()
            if result.confirmed
        }
        for neighbor in sorted(ctx.graph.routers):
            far = ctx.graph.routers.get(neighbor)
            if far is None or far.owner is None or far.owner in ctx.vp_ases:
                continue
            if far.owner == ctx.focal_asn:
                continue
            candidates: List[InferredRouter] = []
            for pred in ctx.pred_routers(far):
                if pred.owner != ctx.focal_asn or len(pred.addrs) != 1:
                    continue
                pred_addr = next(iter(pred.addrs))
                if self._p2p_attached(pred_addr, far, confirmed):
                    candidates.append(pred)
            if len(candidates) < 2:
                continue
            keep = candidates[0]
            for absorb in candidates[1:]:
                if resolver is not None:
                    conflict = any(
                        resolver.evidence.get(a, b).negative
                        for a in keep.addrs
                        for b in absorb.addrs
                    )
                    if conflict:
                        continue
                ctx.graph.merge(keep.rid, absorb.rid)
                keep.reason = "7 alias"
                ctx.record(self.name, "7 alias")
                ctx.provenance.add(
                    absorb.rid, self.name, self.section, MERGED,
                    owner=far.owner, reason="7 alias",
                    evidence={"into_router": keep.rid,
                              "neighbor_router": far.rid},
                )

    @staticmethod
    def _p2p_attached(
        pred_addr: int, far: InferredRouter, confirmed: Set[Tuple[int, int]]
    ) -> bool:
        """``confirmed`` holds the (previous, next) hop pairs whose
        prefixscan confirmed a point-to-point subnet."""
        for addr in far.addrs:
            for plen in (31, 30):
                if p2p_mate(addr, plen) == pred_addr:
                    return True
        return any((pred_addr, addr) in confirmed for addr in far.addrs)


@register_pass
class SilentNeighborPass(GraphHeuristicPass):
    """§5.4.8: BGP neighbors that never send TTL-expired messages
    (Fig 11) — attach them at the last VP router their probes reached."""

    name = "silent_neighbor"
    section = "§5.4.8"
    table1_labels = ("8 silent", "8 other icmp")
    after_link_assembly = True

    def apply_graph(self, ctx):
        already = self._inferred_neighbor_ases(ctx)
        bgp_neighbors = ctx.view.neighbors_of_group(ctx.vp_ases)
        for neighbor_as in sorted(bgp_neighbors - already):
            final_vp_routers: Set[int] = set()
            saw_beyond = False
            icmp_from_neighbor = False
            considered = 0
            for path in ctx.graph.paths:
                if neighbor_as not in path.key:
                    continue
                considered += 1
                last_vp: Optional[int] = None
                for rid in path.routers:
                    if ctx.graph.routers[rid].owner == ctx.focal_asn:
                        last_vp = rid
                if last_vp is None:
                    continue
                final_vp_routers.add(last_vp)
                if path.routers and path.routers[-1] != last_vp:
                    saw_beyond = True
                if path.final_src is not None and path.final_kind in (
                    ResponseKind.ECHO_REPLY,
                    ResponseKind.DEST_UNREACH_ADMIN,
                    ResponseKind.DEST_UNREACH_NET,
                    ResponseKind.DEST_UNREACH_PORT,
                ):
                    src_origins = set(
                        ctx.view.origins_of_addr(path.final_src)
                    )
                    if neighbor_as in src_origins:
                        icmp_from_neighbor = True
            if considered == 0 or saw_beyond or len(final_vp_routers) != 1:
                continue
            near_rid = next(iter(final_vp_routers))
            reason = "8 other icmp" if icmp_from_neighbor else "8 silent"
            ctx.links.append(
                InferredLink(
                    near_rid=near_rid,
                    far_rid=None,
                    neighbor_as=neighbor_as,
                    reason=reason,
                    via_ixp=False,
                )
            )
            ctx.record(self.name, reason)
            ctx.provenance.add(
                near_rid, self.name, self.section, LINKED,
                owner=neighbor_as, reason=reason,
            )

    @staticmethod
    def _inferred_neighbor_ases(ctx: InferenceContext) -> Set[int]:
        found: Set[int] = set()
        for router in ctx.graph.routers.values():
            if router.owner is not None and router.owner not in ctx.vp_ases:
                found.add(router.owner)
        return found


# The §5.4 application order.  ``ambiguous`` and ``ixp_fabric`` partition
# §5.4.6's routers (fabric-addressed vs not), so their relative order only
# fixes Table 1's row order.
DEFAULT_PASS_ORDER: Tuple[str, ...] = (
    "vp_router",
    "firewall",
    "unrouted",
    "onenet",
    "third_party",
    "relationship",
    "ambiguous",
    "ixp_fabric",
    "alias_collapse",
    "silent_neighbor",
)


def build_passes(config: HeuristicConfig) -> List[HeuristicPass]:
    """Instantiate the configured passes, in order."""
    order = config.passes if config.passes is not None else DEFAULT_PASS_ORDER
    passes: List[HeuristicPass] = []
    for name in order:
        try:
            cls = PASS_REGISTRY[name]
        except KeyError:
            raise ValueError(
                "unknown heuristic pass %r (known: %s)"
                % (name, ", ".join(sorted(PASS_REGISTRY)))
            ) from None
        passes.append(cls())
    return passes


def table1_row_order() -> List[str]:
    """Table 1's heuristic rows, derived from the pass registry order."""
    rows: List[str] = []
    for name in DEFAULT_PASS_ORDER:
        rows.extend(PASS_REGISTRY[name].table1_labels)
    return rows


# ---------------------------------------------------------------- the driver


def build_context(graph, collection, data, config=None,
                  metrics=None, tracer=None) -> InferenceContext:
    """Assemble an :class:`InferenceContext` from a router graph, a
    collection, and the shared §5.2 :class:`~repro.core.bdrmap.DataBundle`."""
    ctx = InferenceContext(
        graph=graph,
        collection=collection,
        view=data.view,
        rels=data.rels,
        vp_ases=frozenset(data.vp_ases),
        focal_asn=data.focal_asn,
        ixp_data=data.ixp,
        rir=data.rir,
        config=config or HeuristicConfig(),
    )
    if metrics is not None:
        ctx.metrics = metrics
    if tracer is not None:
        ctx.tracer = tracer
    return ctx


# Exceptions a heuristic pass can hit on partial or noisy evidence
# (missing hops, empty candidate sets, inconsistent caches).  They are a
# property of the data, not a bug: inference falls through to the next —
# weaker — pass rather than aborting the run.
_PARTIAL_EVIDENCE_ERRORS = (
    InferenceError,
    KeyError,
    IndexError,
    ZeroDivisionError,
)


def _apply_passes_to_router(
    ctx: InferenceContext,
    router: InferredRouter,
    passes: List[HeuristicPass],
) -> None:
    """Run the ordered router-level passes over one unowned router
    (first match wins), with full metrics/tracing/provenance emission."""
    metrics = ctx.metrics
    timed = metrics.enabled
    provenance = ctx.provenance
    for heuristic in passes:
        with ctx.tracer.span(
            "pass.%s" % heuristic.name, router=router.rid
        ):
            started = perf_clock() if timed else 0.0
            try:
                outcome = heuristic.apply(router, ctx)
            except _PARTIAL_EVIDENCE_ERRORS as exc:
                ctx.degrade(heuristic.name)
                provenance.add(
                    router.rid, heuristic.name, heuristic.section,
                    DEGRADED,
                    evidence={"error": type(exc).__name__},
                )
                if timed:
                    metrics.time(
                        "pass.%s.seconds" % heuristic.name,
                        perf_clock() - started,
                    )
                continue
            if timed:
                metrics.time(
                    "pass.%s.seconds" % heuristic.name,
                    perf_clock() - started,
                )
        if outcome is None:
            provenance.add(
                router.rid, heuristic.name, heuristic.section,
                CONSIDERED,
            )
            continue
        for assignment in outcome.assignments:
            if assignment.router.owner is None:
                assignment.router.owner = assignment.owner
                assignment.router.reason = assignment.reason
                ctx.record(heuristic.name, assignment.reason)
                if assignment.router.rid == router.rid:
                    provenance.add(
                        router.rid, heuristic.name, heuristic.section,
                        ASSIGNED, owner=assignment.owner,
                        reason=assignment.reason,
                    )
                else:
                    provenance.add(
                        assignment.router.rid, heuristic.name,
                        heuristic.section, CO_ASSIGNED,
                        owner=assignment.owner,
                        reason=assignment.reason,
                        evidence={"via_router": router.rid},
                    )
        break


def _assemble_links(ctx: InferenceContext) -> None:
    seen: Set[Tuple[int, Optional[int], int]] = set()
    for rid in sorted(ctx.graph.routers):
        far = ctx.graph.routers[rid]
        if far.owner is None or far.owner == ctx.focal_asn:
            continue
        if far.owner in ctx.vp_ases:
            continue
        via_ixp = any(
            ctx.addr_class.get(addr) == IXP_CLASS for addr in far.addrs
        )
        for pred in ctx.pred_routers(far):
            if pred.owner != ctx.focal_asn:
                continue
            key = (pred.rid, far.rid, far.owner)
            if key in seen:
                continue
            seen.add(key)
            ctx.links.append(
                InferredLink(
                    near_rid=pred.rid,
                    far_rid=far.rid,
                    neighbor_as=far.owner,
                    reason=far.reason,
                    via_ixp=via_ixp,
                )
            )


def run_inference(ctx: InferenceContext) -> List[InferredLink]:
    """Run the configured passes over ``ctx``'s router graph and return
    the inferred interdomain links."""
    passes = build_passes(ctx.config)
    router_passes = [
        p for p in passes if not isinstance(p, GraphHeuristicPass)
    ]
    pre_assembly = [
        p
        for p in passes
        if isinstance(p, GraphHeuristicPass) and not p.after_link_assembly
    ]
    post_assembly = [
        p
        for p in passes
        if isinstance(p, GraphHeuristicPass) and p.after_link_assembly
    ]
    tracer = ctx.tracer
    with tracer.span("inference.prepare"):
        ctx.prepare()
    with tracer.span("inference.router_passes"):
        for router in ctx.graph.by_distance():
            if router.owner is None:
                _apply_passes_to_router(ctx, router, router_passes)
    for heuristic in pre_assembly:
        with tracer.span("pass.%s" % heuristic.name):
            try:
                heuristic.apply_graph(ctx)
            except _PARTIAL_EVIDENCE_ERRORS:
                ctx.degrade(heuristic.name)
    if ctx.config.use_refinement:
        from .refine import refine_ownership

        with tracer.span("inference.refine"):
            refine_ownership(ctx.graph, ctx.rels, ctx.vp_ases, ctx.focal_asn)
    with tracer.span("inference.link_assembly"):
        _assemble_links(ctx)
    for heuristic in post_assembly:
        with tracer.span("pass.%s" % heuristic.name):
            try:
                heuristic.apply_graph(ctx)
            except _PARTIAL_EVIDENCE_ERRORS:
                ctx.degrade(heuristic.name)
    return ctx.links
