"""The compiled BorderMap artifact — bdrmap's output as a served product.

A bdrmap run answers "where are my network's borders?" once; the deployed
system (§4, §6) must answer it *per query*: which AS owns this interface,
where is the border on the path to this destination, who is the far-side
neighbor.  :func:`compile_border_map` turns one or more per-VP
:class:`~repro.core.report.BdrmapResult`\\ s (plus, optionally, the BGP view
and relationship inferences they were computed from) into an immutable,
versioned :class:`BorderMap`:

* an interned AS table and a global router table (per-VP router ids are
  run-local; the compiler assigns stable global indices),
* an exact interface→router→owner map over every observed alias,
* a longest-prefix-match index over the announced prefixes (a
  :class:`repro.trie.FrozenLPM`, the same read side the inference hot
  path uses) for addresses never seen in a trace,
* border-link adjacency with the far-side neighbor AS, the business
  relationship, and the producing heuristic's validated confidence.

The artifact is deliberately *dumb*: every index here is derivable from
the tables, so serialization (``repro.io.serialize``) stores only the
tables and rebuilds the indexes on load — compile→save→load→query is
lossless.  Batching and counters live one layer up in
:class:`~repro.serving.engine.QueryEngine`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..addr import Prefix
from ..core.report import HEURISTIC_CONFIDENCE, _DEFAULT_CONFIDENCE, BdrmapResult
from ..errors import DataError
from ..trie import FrozenLPM

BORDERMAP_FORMAT = "bdrmap-repro-bordermap/1"


@dataclass(frozen=True)
class CompiledRouter:
    """One row of the global router table."""

    index: int                 # global index (stable across save/load)
    vp_name: str               # the VP whose run inferred this router
    rid: int                   # run-local router id in that VP's graph
    addrs: Tuple[int, ...]     # every alias (observed + never-traced)
    owner: Optional[int]       # owning AS, or None when uninferred
    reason: str                # Table 1 heuristic label ("" when uninferred)
    dsts: Tuple[int, ...]      # target ASes this router carried probes toward


@dataclass(frozen=True)
class BorderLink:
    """One inferred interdomain link, with its far-side context."""

    index: int
    vp_name: str
    near_router: int           # CompiledRouter.index on the VP side
    far_router: Optional[int]  # CompiledRouter.index, None for §5.4.8 links
    neighbor_as: int
    relationship: str          # "customer"|"provider"|"peer"|"sibling"|"unknown"
    reason: str
    via_ixp: bool

    @property
    def confidence(self) -> float:
        """Validated accuracy prior of the heuristic that found this link."""
        return HEURISTIC_CONFIDENCE.get(self.reason, _DEFAULT_CONFIDENCE)


@dataclass(frozen=True)
class Ownership:
    """Answer to ``owner_of``: the AS plus how the map knows it."""

    asn: int
    source: str                # "interface" (observed alias) or "bgp" (LPM)
    router: Optional[int]      # CompiledRouter.index when source=="interface"


@dataclass(frozen=True)
class NeighborInfo:
    """Answer to ``neighbors``: one far-side network's attachment."""

    asn: int
    relationship: str
    links: Tuple[BorderLink, ...]
    best_confidence: float


_generations = itertools.count(1)


def next_generation() -> int:
    """Mint a fresh process-unique token (the serving tier's two-phase
    swap token); never 0, which means "no swap committed yet"."""
    return next(_generations)


class BorderMap:
    """Immutable, versioned query artifact compiled from bdrmap results.

    All state is fixed at construction; the derived indexes (interface
    map, frozen LPM, per-neighbor and per-destination link adjacency) are
    built once here and never mutated, so a map can be shared across
    threads and hot-swapped under a live service without locking.
    """

    FORMAT = BORDERMAP_FORMAT

    def __init__(
        self,
        focal_asn: int,
        vp_ases: Iterable[int],
        routers: Sequence[CompiledRouter],
        links: Sequence[BorderLink],
        prefixes: Sequence[Tuple[Prefix, int]],
        epoch: int = 0,
        source: str = "",
    ) -> None:
        self.focal_asn = focal_asn
        self.vp_ases = frozenset(vp_ases)
        self.routers: Tuple[CompiledRouter, ...] = tuple(routers)
        self.links: Tuple[BorderLink, ...] = tuple(links)
        self.prefixes: Tuple[Tuple[Prefix, int], ...] = tuple(prefixes)
        self.epoch = epoch
        self.source = source

        for position, router in enumerate(self.routers):
            if router.index != position:
                raise DataError(
                    "router table out of order: index %d at position %d"
                    % (router.index, position)
                )
        for position, link in enumerate(self.links):
            if link.index != position:
                raise DataError(
                    "link table out of order: index %d at position %d"
                    % (link.index, position)
                )

        # -- derived indexes (rebuilt identically on load) -----------------
        # First owned router wins per address (an alias can appear in
        # several VPs' graphs, not all of which inferred an owner).
        iface: Dict[int, int] = {}
        for router in self.routers:
            for addr in router.addrs:
                existing = iface.get(addr)
                if existing is None or (
                    self.routers[existing].owner is None
                    and router.owner is not None
                ):
                    iface[addr] = router.index
        self._iface: Mapping[int, int] = MappingProxyType(iface)

        self._lpm: FrozenLPM[int] = FrozenLPM(self.prefixes)

        by_neighbor: Dict[int, List[int]] = {}
        for link in self.links:
            by_neighbor.setdefault(link.neighbor_as, []).append(link.index)
        self._by_neighbor: Mapping[int, Tuple[int, ...]] = MappingProxyType(
            {asn: tuple(ids) for asn, ids in by_neighbor.items()}
        )

        # Which border links carried probes toward each destination AS —
        # the observed crossing point, not a guess from the AS graph.
        toward: Dict[int, List[int]] = {}
        for link in self.links:
            near = self.routers[link.near_router]
            for dst_as in near.dsts:
                if dst_as not in self.vp_ases:
                    toward.setdefault(dst_as, []).append(link.index)
        self._toward: Mapping[int, Tuple[int, ...]] = MappingProxyType(
            {asn: tuple(ids) for asn, ids in toward.items()}
        )

        # The interning universe is an O(entire-map) scan; the map is
        # immutable, so compute it once here instead of on every
        # ``as_table`` access (stats() and the serializer both hit it).
        ases = set(self.vp_ases)
        ases.add(self.focal_asn)
        for router in self.routers:
            if router.owner is not None:
                ases.add(router.owner)
            ases.update(router.dsts)
        for link in self.links:
            ases.add(link.neighbor_as)
        for _, origin in self.prefixes:
            ases.add(origin)
        self._as_table: Tuple[int, ...] = tuple(sorted(ases))

    # -- interned views ----------------------------------------------------

    @property
    def as_table(self) -> Tuple[int, ...]:
        """Every AS the map mentions, sorted — the interning universe the
        serializer references by index."""
        return self._as_table

    def interface_count(self) -> int:
        return len(self._iface)

    def stats(self) -> Dict[str, int]:
        return {
            "routers": len(self.routers),
            "links": len(self.links),
            "interfaces": len(self._iface),
            "prefixes": len(self.prefixes),
            "neighbors": len(self._by_neighbor),
            "ases": len(self.as_table),
        }

    # -- queries (uncached; QueryEngine wraps these) ------------------------

    def owner_of(self, addr: int) -> Optional[Ownership]:
        """Who owns ``addr``: observed interface evidence first, then the
        longest matching announced prefix, else None (unrouted)."""
        router_index = self._iface.get(addr)
        if router_index is not None:
            owner = self.routers[router_index].owner
            if owner is not None:
                return Ownership(asn=owner, source="interface",
                                 router=router_index)
        origin = self._lpm.lookup_value(addr)
        if origin is not None:
            return Ownership(asn=origin, source="bgp", router=None)
        return None

    def owner_of_batch(
        self, addrs: Sequence[int]
    ) -> List[Optional[Ownership]]:
        """:meth:`owner_of` for many addresses."""
        return [self.owner_of(addr) for addr in addrs]

    def dst_as(self, addr: int) -> Optional[int]:
        """The destination AS of ``addr`` for border lookup: BGP origin of
        the longest matching prefix, falling back to interface evidence."""
        origin = self._lpm.lookup_value(addr)
        if origin is not None:
            return origin
        router_index = self._iface.get(addr)
        if router_index is not None:
            return self.routers[router_index].owner
        return None

    def border_for(self, addr: int) -> Tuple[BorderLink, ...]:
        """The border links traffic toward ``addr`` was observed to cross.

        Prefers links whose near router actually carried probes toward the
        destination AS; falls back to any link facing that AS directly.
        Empty when the destination is unrouted or inside the VP network.
        """
        asn = self.dst_as(addr)
        if asn is None or asn in self.vp_ases:
            return ()
        ids = self._toward.get(asn) or self._by_neighbor.get(asn) or ()
        return tuple(self.links[i] for i in ids)

    def neighbor_ases(self) -> Tuple[int, ...]:
        return tuple(sorted(self._by_neighbor))

    def neighbors(self, asn: int) -> Optional[NeighborInfo]:
        """The attachment summary for far-side network ``asn``.

        A neighbor's links can disagree on the relationship (hybrid
        interconnections: e.g. customer on one link, peer on another);
        the summary reports the relationship of the highest-confidence
        link rather than whichever happened to sort first.
        """
        ids = self._by_neighbor.get(asn)
        if not ids:
            return None
        links = tuple(self.links[i] for i in ids)
        best = best_relationship(links)
        return NeighborInfo(
            asn=asn,
            relationship=best.relationship,
            links=links,
            best_confidence=best.confidence,
        )


def best_relationship(links: Sequence[BorderLink]) -> BorderLink:
    """The link whose producing heuristic carries the highest validated
    confidence — the map's best evidence for a neighbor's relationship.
    Ties keep the earliest link (stable, since the link table order is
    deterministic)."""
    return max(links, key=lambda link: link.confidence)


def _relationship_label(rels, focal_asn: int, neighbor: int) -> str:
    if rels is None:
        return "unknown"
    relationship = rels.relationship(focal_asn, neighbor)
    return relationship.value if relationship is not None else "unknown"


def compile_border_map(
    results: Sequence[BdrmapResult],
    view=None,
    rels=None,
    epoch: int = 0,
    source: str = "",
) -> BorderMap:
    """Compile per-VP results into one :class:`BorderMap`.

    ``view`` (a :class:`~repro.bgp.BGPView`) supplies the announced
    prefixes for the LPM fallback index; ``rels`` (an
    :class:`~repro.asgraph.InferredRelationships`) labels each link with
    the neighbor's business relationship.  Both are optional — without
    them the map answers from interface evidence alone, with
    ``relationship == "unknown"``.

    MOAS prefixes are resolved to the lowest origin AS (deterministic).
    """
    if not results:
        raise DataError("cannot compile a BorderMap from zero results")
    focal_asn = results[0].focal_asn
    vp_ases = set()
    for result in results:
        if result.focal_asn != focal_asn:
            raise DataError(
                "results disagree on the focal AS (%d vs %d)"
                % (focal_asn, result.focal_asn)
            )
        vp_ases.update(result.vp_ases)

    routers: List[CompiledRouter] = []
    links: List[BorderLink] = []
    for result in results:
        local_index: Dict[int, int] = {}
        for rid in sorted(result.graph.routers):
            router = result.graph.routers[rid]
            compiled = CompiledRouter(
                index=len(routers),
                vp_name=result.vp_name,
                rid=rid,
                addrs=tuple(sorted(router.all_addrs())),
                owner=router.owner,
                reason=router.reason,
                dsts=tuple(sorted(router.dsts)),
            )
            local_index[rid] = compiled.index
            routers.append(compiled)
        ordered = sorted(
            result.links,
            key=lambda l: (l.neighbor_as, l.near_rid,
                           l.far_rid if l.far_rid is not None else -1,
                           l.reason),
        )
        for link in ordered:
            links.append(
                BorderLink(
                    index=len(links),
                    vp_name=result.vp_name,
                    near_router=local_index[link.near_rid],
                    far_router=(
                        local_index.get(link.far_rid)
                        if link.far_rid is not None
                        else None
                    ),
                    neighbor_as=link.neighbor_as,
                    relationship=_relationship_label(
                        rels, focal_asn, link.neighbor_as
                    ),
                    reason=link.reason,
                    via_ixp=link.via_ixp,
                )
            )

    prefixes: List[Tuple[Prefix, int]] = []
    if view is not None:
        for prefix in view.prefixes():
            origins = view.origins(prefix)
            if origins:
                prefixes.append((prefix, min(origins)))

    return BorderMap(
        focal_asn=focal_asn,
        vp_ases=vp_ases,
        routers=routers,
        links=links,
        prefixes=prefixes,
        epoch=epoch,
        source=source,
    )
