"""The public BGP view: RIB entries, prefix→origin mapping, AS paths.

bdrmap's canonical IP→AS mapping (§5.2) looks up the origin ASes of the
longest matching *publicly announced* prefix of at least /8 and no smaller
than /24.  The view also carries the AS-path corpus used for relationship
inference and the per-AS neighbor sets used by Table 1's coverage analysis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..addr import Prefix
from ..trie import FrozenLPM


@dataclass(frozen=True)
class RibEntry:
    """One path observed at one collector peer."""

    peer_asn: int
    prefix: Prefix
    path: Tuple[int, ...]  # first element = peer, last element = origin

    @property
    def origin(self) -> int:
        return self.path[-1]


class BGPView:
    """An assembled public routing view."""

    MIN_PLEN = 8
    MAX_PLEN = 24

    def __init__(self) -> None:
        self.entries: List[RibEntry] = []
        self._origins: Dict[Prefix, Set[int]] = defaultdict(set)
        # Frozen on first read once the adds are done; add() thaws it.
        self._lpm: Optional[FrozenLPM[Tuple[int, ...]]] = None
        # Longest-match answers per address, beside the LPM: collection
        # asks about the same few thousand hop addresses hundreds of
        # thousands of times.  Cleared with the LPM in add().
        self._addr_origins: Dict[int, Tuple[int, ...]] = {}
        self._neighbors: Optional[Dict[int, Set[int]]] = None

    def add(self, entry: RibEntry) -> None:
        plen = entry.prefix.plen
        if plen < self.MIN_PLEN or plen > self.MAX_PLEN:
            return  # mirror the paper's /8../24 filter
        self.entries.append(entry)
        self._origins[entry.prefix].add(entry.origin)
        self._lpm = None
        self._addr_origins.clear()
        self._neighbors = None

    # -- prefix → origin -------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        return sorted(self._origins)

    def origins(self, prefix: Prefix) -> FrozenSet[int]:
        return frozenset(self._origins.get(prefix, ()))

    def _origin_lpm(self) -> FrozenLPM[Tuple[int, ...]]:
        if self._lpm is None:
            self._lpm = FrozenLPM(
                (prefix, tuple(sorted(origins)))
                for prefix, origins in self._origins.items()
            )
        return self._lpm

    def origins_of_addr(self, addr: int) -> Tuple[int, ...]:
        """Origin ASes of the longest matching announced prefix (may be
        empty — the address is unrouted; may have several — MOAS)."""
        found = self._addr_origins.get(addr)
        if found is None:
            found = self._origin_lpm().lookup_value(addr) or ()
            self._addr_origins[addr] = found
        return found

    def lookup(self, addr: int) -> Optional[Tuple[Prefix, Tuple[int, ...]]]:
        return self._origin_lpm().lookup(addr)

    # -- AS paths and adjacency ---------------------------------------------------

    def paths(self) -> List[Tuple[int, ...]]:
        return [entry.path for entry in self.entries]

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """AS adjacency observed anywhere in the public paths."""
        if self._neighbors is None:
            neighbors: Dict[int, Set[int]] = defaultdict(set)
            for entry in self.entries:
                path = entry.path
                for left, right in zip(path, path[1:]):
                    if left != right:
                        neighbors[left].add(right)
                        neighbors[right].add(left)
            self._neighbors = neighbors
        return self._neighbors

    def neighbors_of(self, asn: int) -> Set[int]:
        return set(self.neighbor_map().get(asn, ()))

    def neighbors_of_group(self, asns: Iterable[int]) -> Set[int]:
        """BGP-observed neighbors of a sibling group (excluding the group)."""
        group = set(asns)
        found: Set[int] = set()
        for asn in group:
            found.update(self.neighbor_map().get(asn, ()))
        return found - group
