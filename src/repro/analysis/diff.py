"""Diffing bdrmap runs — longitudinal interconnection monitoring.

The deployed system re-runs bdrmap on a cadence; what operators and
researchers consume is the *delta*: which neighbors appeared, which
interconnections were added or turned down, which moved to a different
border router.  Link identity across runs uses the near-side interface
addresses plus the neighbor AS (stable operational identifiers a real
monitor has; router ids are run-local).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..addr import ntoa
from ..core.report import BdrmapResult

LinkKey = Tuple[int, FrozenSet[int]]  # (neighbor AS, near-side addresses)


def _link_keys(result: BdrmapResult) -> Set[LinkKey]:
    keys: Set[LinkKey] = set()
    for link in result.links:
        near = result.graph.routers.get(link.near_rid)
        addrs = frozenset(near.addrs) if near is not None else frozenset()
        keys.add((link.neighbor_as, addrs))
    return keys


@dataclass
class RunDiff:
    """Differences between two runs from the same VP."""

    gained_neighbors: Set[int] = field(default_factory=set)
    lost_neighbors: Set[int] = field(default_factory=set)
    added_links: List[LinkKey] = field(default_factory=list)
    removed_links: List[LinkKey] = field(default_factory=list)
    stable_links: int = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.gained_neighbors
            or self.lost_neighbors
            or self.added_links
            or self.removed_links
        )

    def summary(self) -> str:
        lines = [
            "diff: +%d/-%d neighbors, +%d/-%d links, %d stable"
            % (
                len(self.gained_neighbors),
                len(self.lost_neighbors),
                len(self.added_links),
                len(self.removed_links),
                self.stable_links,
            )
        ]
        for neighbor, addrs in self.added_links:
            shown = ",".join(ntoa(a) for a in sorted(addrs)[:3]) or "?"
            lines.append("  + AS%d at %s" % (neighbor, shown))
        for neighbor, addrs in self.removed_links:
            shown = ",".join(ntoa(a) for a in sorted(addrs)[:3]) or "?"
            lines.append("  - AS%d at %s" % (neighbor, shown))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-ready canonical form (epoch chains embed this)."""
        return {
            "gained_neighbors": sorted(self.gained_neighbors),
            "lost_neighbors": sorted(self.lost_neighbors),
            "added_links": [
                [neighbor, sorted(addrs)]
                for neighbor, addrs in self.added_links
            ],
            "removed_links": [
                [neighbor, sorted(addrs)]
                for neighbor, addrs in self.removed_links
            ],
            "stable_links": self.stable_links,
        }


def _key_order(key: LinkKey):
    return key[0], sorted(key[1])


def _diff_key_sets(
    diff: RunDiff, before_keys: Set[LinkKey], after_keys: Set[LinkKey]
) -> RunDiff:
    """Match each after-key, in sorted order, to the first unmatched
    before-key in sorted order with the same neighbor and overlapping
    near addresses (any, when the after-key has none): the same physical
    link.  Sorted order makes the match, and so the whole diff,
    deterministic when several candidates overlap (set iteration order
    varies across processes with hash randomization; a longitudinal
    monitor must produce one canonical delta for one pair of maps).
    The before-keys are sorted once and scanned per neighbor."""
    before_sorted = sorted(before_keys, key=_key_order)
    by_neighbor: Dict[int, List[LinkKey]] = {}
    for key in before_sorted:
        by_neighbor.setdefault(key[0], []).append(key)
    matched: Set[LinkKey] = set()
    for key in sorted(after_keys, key=_key_order):
        addrs = key[1]
        candidate = next(
            (
                candidate
                for candidate in by_neighbor.get(key[0], ())
                if candidate not in matched
                and (candidate[1] & addrs or not addrs)
            ),
            None,
        )
        if candidate is not None:
            matched.add(candidate)
            diff.stable_links += 1
        else:
            diff.added_links.append(key)
    diff.removed_links = [
        key for key in before_sorted if key not in matched
    ]
    return diff


def diff_results(before: BdrmapResult, after: BdrmapResult) -> RunDiff:
    """Compare two runs (ideally from the same VP)."""
    diff = RunDiff()
    diff.gained_neighbors = after.neighbor_ases() - before.neighbor_ases()
    diff.lost_neighbors = before.neighbor_ases() - after.neighbor_ases()
    return _diff_key_sets(diff, _link_keys(before), _link_keys(after))


def _border_map_link_keys(bmap) -> Set[LinkKey]:
    keys: Set[LinkKey] = set()
    for link in bmap.links:
        near = bmap.routers[link.near_router]
        keys.add((link.neighbor_as, frozenset(near.addrs)))
    return keys


def diff_border_maps(before, after) -> RunDiff:
    """Compare two compiled :class:`~repro.serving.bordermap.BorderMap`
    epochs — the longitudinal delta a serving deployment publishes when
    it hot-swaps a recompiled map."""
    diff = RunDiff()
    before_neighbors = set(before.neighbor_ases())
    after_neighbors = set(after.neighbor_ases())
    diff.gained_neighbors = after_neighbors - before_neighbors
    diff.lost_neighbors = before_neighbors - after_neighbors
    return _diff_key_sets(
        diff, _border_map_link_keys(before), _border_map_link_keys(after)
    )
