"""Router-level graph construction (§5.3 "Build router-level graph").

Collapses the observed interface graph into inferred routers using the
alias-resolution closure, keeps only interfaces observed in ICMP
time-exceeded messages as ownership evidence (echo replies carry the probed
address and say nothing about interface placement — §4), and preserves the
per-trace router sequences the heuristics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..net import ResponseKind
from .collection import Collection, TargetKey


@dataclass
class InferredRouter:
    """One inferred router: an alias set with topological context."""

    rid: int
    addrs: Set[int] = field(default_factory=set)          # TTL-expired observed
    extra_addrs: Set[int] = field(default_factory=set)    # aliases never traced
    min_dist: int = 10**9
    dsts: Set[int] = field(default_factory=set)           # target ASes through
    last_hop_for: Set[int] = field(default_factory=set)   # targets ending here
    owner: Optional[int] = None
    reason: str = ""
    merged_from: List[int] = field(default_factory=list)

    def all_addrs(self) -> Set[int]:
        return self.addrs | self.extra_addrs


@dataclass
class TracePath:
    """One trace reduced to its router sequence."""

    key: TargetKey
    dst: int
    routers: Tuple[int, ...]              # rids, consecutive duplicates merged
    had_gap_before: Tuple[bool, ...]      # per position: unresponsive gap before
    final_kind: Optional[ResponseKind]    # non-TTL-expired terminal response
    final_src: Optional[int]
    reached: bool
    # Index in its graph's ``paths``; set by RouterGraph.add_path.
    position: int = field(default=-1, init=False, compare=False, repr=False)


class RouterGraph:
    """The inferred router-level topology for one VP."""

    def __init__(self) -> None:
        self.routers: Dict[int, InferredRouter] = {}
        self.by_addr: Dict[int, int] = {}
        self.succ: Dict[int, Set[int]] = {}
        self.pred: Dict[int, Set[int]] = {}
        self.paths: List[TracePath] = []
        # rid -> the paths it appears on, each once, in ``paths`` order.
        # Kept by add_path and merge.
        self._on_paths: Dict[int, List[TracePath]] = {}
        self._next_rid = 1

    # -- construction -----------------------------------------------------------

    def _router_for(self, addr: int) -> InferredRouter:
        rid = self.by_addr.get(addr)
        if rid is not None:
            return self.routers[rid]
        router = InferredRouter(rid=self._next_rid)
        self._next_rid += 1
        self.routers[router.rid] = router
        router.addrs.add(addr)
        self.by_addr[addr] = router.rid
        return router

    def add_component(self, addrs: Set[int], observed: Set[int]) -> InferredRouter:
        router = InferredRouter(rid=self._next_rid)
        self._next_rid += 1
        self.routers[router.rid] = router
        for addr in addrs:
            if addr in observed:
                router.addrs.add(addr)
            else:
                router.extra_addrs.add(addr)
            self.by_addr[addr] = router.rid
        return router

    def add_path(self, path: TracePath) -> None:
        """Append ``path`` to ``paths`` and index it by its routers; the
        only way a path enters the graph."""
        path.position = len(self.paths)
        self.paths.append(path)
        on_paths = self._on_paths
        for rid in set(path.routers):
            on_paths.setdefault(rid, []).append(path)

    def add_edge(self, from_rid: int, to_rid: int) -> None:
        if from_rid == to_rid:
            return
        self.succ.setdefault(from_rid, set()).add(to_rid)
        self.pred.setdefault(to_rid, set()).add(from_rid)

    def merge(self, keep_rid: int, absorb_rid: int) -> None:
        """Merge two inferred routers (the §5.4.7 analytical alias step)."""
        if keep_rid == absorb_rid:
            return
        keep = self.routers[keep_rid]
        absorb = self.routers.pop(absorb_rid)
        keep.addrs.update(absorb.addrs)
        keep.extra_addrs.update(absorb.extra_addrs)
        keep.min_dist = min(keep.min_dist, absorb.min_dist)
        keep.dsts.update(absorb.dsts)
        keep.last_hop_for.update(absorb.last_hop_for)
        keep.merged_from.append(absorb_rid)
        keep.merged_from.extend(absorb.merged_from)
        for addr in absorb.all_addrs():
            self.by_addr[addr] = keep_rid
        for source in list(self.pred.get(absorb_rid, ())):
            self.succ[source].discard(absorb_rid)
            if source != keep_rid:
                self.add_edge(source, keep_rid)
        for target in list(self.succ.get(absorb_rid, ())):
            self.pred[target].discard(absorb_rid)
            if target != keep_rid:
                self.add_edge(keep_rid, target)
        self.succ.pop(absorb_rid, None)
        self.pred.pop(absorb_rid, None)
        moved = self._on_paths.pop(absorb_rid, None)
        if moved:
            for path in moved:
                path.routers = tuple([
                    keep_rid if rid == absorb_rid else rid
                    for rid in path.routers
                ])
            kept = self._on_paths.get(keep_rid, [])
            union = {path.position: path for path in kept + moved}
            self._on_paths[keep_rid] = [union[p] for p in sorted(union)]

    # -- queries ------------------------------------------------------------------

    def paths_through(self, rid: int) -> List[TracePath]:
        """The paths ``rid`` appears on, each once, in ``paths`` order.
        The list is the index's own: read it, do not change it."""
        return self._on_paths.get(rid, [])

    def successors(self, rid: int) -> Set[int]:
        return self.succ.get(rid, set())

    def predecessors(self, rid: int) -> Set[int]:
        return self.pred.get(rid, set())

    def by_distance(self) -> List[InferredRouter]:
        return sorted(self.routers.values(), key=lambda r: (r.min_dist, r.rid))

    def router_of_addr(self, addr: int) -> Optional[InferredRouter]:
        rid = self.by_addr.get(addr)
        return self.routers.get(rid) if rid is not None else None


def build_router_graph(collection: Collection) -> RouterGraph:
    """Assemble the router graph from a finished collection."""
    graph = RouterGraph()
    observed = collection.observed_ttl_expired_addrs()
    ttl_expired = ResponseKind.TTL_EXPIRED

    # Alias closure → routers.  Addresses with no positive alias evidence
    # become single-interface routers.
    assigned: Set[int] = set()
    if collection.resolver is not None:
        closure = collection.resolver.components(observed)
        for component in sorted(closure.components(), key=lambda c: min(c)):
            if not component & observed:
                continue  # aliases of something never traced: ignore
            graph.add_component(set(component), observed)
            assigned.update(component)
    for addr in sorted(observed - assigned):
        graph._router_for(addr)

    # Per-trace router sequences, adjacency, distances, and destination sets.
    for index, trace in enumerate(collection.traces):
        key = (
            collection.trace_keys[index]
            if index < len(collection.trace_keys)
            else ()
        )
        rids: List[int] = []
        gaps: List[bool] = []
        gap_pending = False
        final_kind: Optional[ResponseKind] = None
        final_src: Optional[int] = None
        last_router: Optional[int] = None
        dst = trace.dst
        for ttl, (addr, kind) in enumerate(zip(trace.addrs, trace.kinds), 1):
            if addr is None:
                gap_pending = True
                continue
            if kind is not ttl_expired:
                final_kind = kind
                final_src = addr
                continue
            if addr == dst:
                # A time-exceeded source equal to the probed destination is
                # position-ambiguous (§4); do not use it as an interface.
                gap_pending = True
                continue
            router = graph.router_of_addr(addr)
            if router is None:
                router = graph._router_for(addr)
            router.min_dist = min(router.min_dist, ttl)
            for origin in key:
                router.dsts.add(origin)
            if router.rid != last_router:
                if last_router is not None and not gap_pending:
                    graph.add_edge(last_router, router.rid)
                rids.append(router.rid)
                gaps.append(gap_pending)
                last_router = router.rid
            gap_pending = False
        if rids:
            for origin in key:
                graph.routers[rids[-1]].last_hop_for.add(origin)
        graph.add_path(
            TracePath(
                key=key,
                dst=trace.dst,
                routers=tuple(rids),
                had_gap_before=tuple(gaps),
                final_kind=final_kind,
                final_src=final_src,
                reached=trace.reached_dst(),
            )
        )
    return graph
