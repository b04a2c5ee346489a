"""Target list generation (§5.3, "Generate list of address blocks to probe").

For every announced prefix in the public BGP view we build the address
blocks it exclusively covers — the prefix minus any announced
more-specifics (which belong to whoever announces them).  Blocks originated
by the VP network or its siblings are excluded: bdrmap maps *interdomain*
connectivity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..addr import AddressBlock, block_of, subtract_blocks
from ..bgp import BGPView


@dataclass(frozen=True)
class TargetBlock:
    """One probing target: a block and the origin(s) of its covering
    prefix."""

    block: AddressBlock
    origins: Tuple[int, ...]

    def candidate_addrs(self, limit: int = 5) -> List[int]:
        """Addresses to try inside the block, ``.1`` first (§5.3)."""
        first = self.block.first
        start = first + 1 if first & 0xFF == 0 else first
        return [
            addr for addr in range(start, start + limit) if addr in self.block
        ]


def build_targets(view: BGPView, vp_ases: Iterable[int]) -> List[TargetBlock]:
    """All target blocks, ordered by address.

    A sorted sweep: ``view.prefixes()`` is ordered by (address, length)
    and prefixes either nest or are disjoint, so the more-specifics of a
    prefix are exactly the prefixes that follow it and start no later
    than its last address.
    """
    vp_set = set(vp_ases)
    prefixes = view.prefixes()
    firsts = [prefix.first for prefix in prefixes]
    targets: List[TargetBlock] = []
    for index, prefix in enumerate(prefixes):
        origins = tuple(sorted(view.origins(prefix)))
        if not origins or set(origins) & vp_set:
            continue
        end = bisect_right(firsts, prefix.last, index + 1)
        more_specifics = [block_of(other) for other in prefixes[index + 1:end]]
        for block in subtract_blocks(block_of(prefix), more_specifics):
            targets.append(TargetBlock(block=block, origins=origins))
    targets.sort(key=lambda t: (t.block.first, t.block.last))
    return targets


def group_by_origin(targets: Iterable[TargetBlock]) -> Dict[Tuple[int, ...], List[TargetBlock]]:
    """Group targets by origin tuple — bdrmap probes one block per target AS
    at a time, target ASes in parallel (§5.3)."""
    groups: Dict[Tuple[int, ...], List[TargetBlock]] = {}
    for target in targets:
        groups.setdefault(target.origins, []).append(target)
    return groups
