"""The naive baseline: answer queries from raw results, per query.

This is what downstream consumers did before the BorderMap existed —
rescan every :class:`~repro.core.report.BdrmapResult` (and the BGP view)
on *every* lookup.  It exists to cross-check the compiled map's answers
in tests: for any address, compiled and naive must agree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.report import BdrmapResult, InferredLink
from .bordermap import Ownership


def naive_owner_of(
    results: Sequence[BdrmapResult], addr: int, view=None
) -> Optional[Ownership]:
    """Scan every router of every result for ``addr``; fall back to the
    BGP view's longest-prefix match.  O(routers) per query."""
    for result in results:
        for rid in sorted(result.graph.routers):
            router = result.graph.routers[rid]
            if addr in router.addrs or addr in router.extra_addrs:
                if router.owner is not None:
                    return Ownership(asn=router.owner, source="interface",
                                     router=None)
    if view is not None:
        origins = view.origins_of_addr(addr)
        if origins:
            return Ownership(asn=min(origins), source="bgp", router=None)
    return None


def naive_border_for(
    results: Sequence[BdrmapResult], addr: int, view=None
) -> List[Tuple[str, InferredLink]]:
    """Recompute the border crossing toward ``addr`` from scratch:
    re-derive the destination AS, then rescan every result's links and
    near routers.  Returns ``(vp_name, link)`` pairs."""
    dst_as: Optional[int] = None
    if view is not None:
        origins = view.origins_of_addr(addr)
        if origins:
            dst_as = min(origins)
    if dst_as is None:
        owner = naive_owner_of(results, addr)
        dst_as = owner.asn if owner is not None else None
    if dst_as is None:
        return []
    for result in results:
        if dst_as in result.vp_ases:
            return []
    toward: List[Tuple[str, InferredLink]] = []
    facing: List[Tuple[str, InferredLink]] = []
    for result in results:
        for link in result.links:
            near = result.graph.routers.get(link.near_rid)
            if near is not None and dst_as in near.dsts:
                toward.append((result.vp_name, link))
            if link.neighbor_as == dst_as:
                facing.append((result.vp_name, link))
    return toward or facing
