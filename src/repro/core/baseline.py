"""The canonical IP-AS baseline bdrmap improves on.

§1/§4: "the canonical approach of mapping an IP address observed in
traceroute to the organization that announces the longest matching prefix
... may be incorrect for at least seven reasons.  Yet, lack of a better
method leaves researchers using simple but error-prone IP-AS mappings."

This module implements that canonical method — infer an interdomain link
wherever consecutive traceroute hops map to different ASes, owner = origin
of the longest matching prefix — so the evaluation can quantify exactly
how much the bdrmap heuristics buy (the paper cites 71% for the best prior
router-ownership heuristic [17]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..bgp import BGPView
from ..net import ResponseKind
from .collection import Collection


@dataclass(frozen=True)
class NaiveLink:
    """A border inferred by plain IP-AS transition."""

    near_addr: int
    far_addr: int
    neighbor_as: int


def naive_borders(
    collection: Collection,
    view: BGPView,
    vp_ases: Set[int],
) -> List[NaiveLink]:
    """The canonical inference: a link exists wherever a VP-mapped hop is
    followed by an externally-mapped hop; the neighbor is the external
    hop's LPM origin.  No alias resolution, no relationship reasoning, no
    third-party handling — exactly the error-prone method of [44].
    """
    found: Set[NaiveLink] = set()
    ttl_expired = ResponseKind.TTL_EXPIRED
    for trace in collection.traces:
        addrs = [
            addr
            for addr, kind in zip(trace.addrs, trace.kinds)
            if kind is ttl_expired
        ]
        for left, right in zip(addrs, addrs[1:]):
            left_origins = set(view.origins_of_addr(left))
            right_origins = set(view.origins_of_addr(right))
            if not left_origins or not right_origins:
                continue
            if left_origins & vp_ases and not (right_origins & vp_ases):
                found.add(
                    NaiveLink(
                        near_addr=left,
                        far_addr=right,
                        neighbor_as=min(right_origins),
                    )
                )
    return sorted(found, key=lambda l: (l.near_addr, l.far_addr))


def naive_owner(view: BGPView, addr: int) -> Optional[int]:
    """Canonical router-ownership: the LPM origin of the address."""
    origins = view.origins_of_addr(addr)
    return min(origins) if origins else None
