"""The *nextas* candidate owner (§5.4, final paragraph).

For each router, *nextas* is the most common provider AS among all the
destination ASes probed through that router — the AS most plausibly
providing transit to whatever lies beyond.  Steps 1–3 use it as a fallback
owner when no stronger constraint exists.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Set

from ..asgraph import InferredRelationships
from .routergraph import InferredRouter


def compute_nextas(
    router: InferredRouter,
    rels: InferredRelationships,
    vp_ases: Set[int],
) -> Optional[int]:
    """nextas for one router, or None when undefined.

    Only defined when the router appears on paths to multiple destination
    ASes; ties break toward the lowest ASN for determinism.
    """
    dsts = router.dsts - vp_ases
    if len(dsts) < 2:
        return None
    votes: Counter = Counter()
    for dst_as in dsts:
        for provider in rels.providers_of(dst_as):
            votes[provider] += 1
    if not votes:
        return None
    best = max(votes.items(), key=lambda item: (item[1], -item[0]))
    return best[0]
