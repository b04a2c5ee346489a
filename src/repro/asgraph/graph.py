"""AS-level graph container.

Stores directed relationship annotations for every adjacent AS pair and
answers the queries the rest of the system needs: neighbor sets by class,
relationship lookup, and degree statistics.  This structure is used both for
the simulator's ground-truth graph and for bdrmap's *inferred* view — the
two must never be confused, so neither knows which role it is playing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import TopologyError
from .relationships import Rel


class ASGraph:
    """A graph of ASes with per-edge business relationships."""

    def __init__(self) -> None:
        self._rel: Dict[int, Dict[int, Rel]] = {}

    # -- construction ------------------------------------------------------

    def add_as(self, asn: int) -> None:
        """Ensure ``asn`` exists in the graph (possibly with no edges)."""
        self._rel.setdefault(asn, {})

    def add_edge(self, a: int, b: int, rel_a_to_b: Rel) -> None:
        """Record that, from ``a``'s view, ``b`` is ``rel_a_to_b``.

        The inverse annotation for ``b`` is stored automatically.  Re-adding
        an existing edge with a conflicting relationship raises.
        """
        if a == b:
            raise TopologyError("self edge on AS%d" % a)
        existing = self._rel.get(a, {}).get(b)
        if existing is not None and existing is not rel_a_to_b:
            raise TopologyError(
                "conflicting relationship AS%d-AS%d: %s vs %s"
                % (a, b, existing.value, rel_a_to_b.value)
            )
        self._rel.setdefault(a, {})[b] = rel_a_to_b
        self._rel.setdefault(b, {})[a] = rel_a_to_b.invert()

    def remove_edge(self, a: int, b: int) -> Rel:
        """Drop the ``a``–``b`` adjacency (both directions); returns the
        relationship ``b`` had from ``a``'s view.  Raises if absent."""
        rel = self._rel.get(a, {}).pop(b, None)
        self._rel.get(b, {}).pop(a, None)
        if rel is None:
            raise TopologyError("no AS%d-AS%d edge to remove" % (a, b))
        return rel

    # -- queries -----------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._rel

    def __len__(self) -> int:
        return len(self._rel)

    def ases(self) -> Iterator[int]:
        return iter(self._rel)

    def relationship(self, a: int, b: int) -> Optional[Rel]:
        """Relationship of ``b`` from ``a``'s view, or None if not adjacent."""
        return self._rel.get(a, {}).get(b)

    def neighbors(self, asn: int) -> Iterator[int]:
        return iter(self._rel.get(asn, {}))

    def degree(self, asn: int) -> int:
        return len(self._rel.get(asn, {}))

    def neighbors_by_rel(self, asn: int, rel: Rel) -> List[int]:
        """Neighbors of ``asn`` that are ``rel`` from ``asn``'s view."""
        return sorted(
            neighbor
            for neighbor, r in self._rel.get(asn, {}).items()
            if r is rel
        )

    def customers(self, asn: int) -> List[int]:
        return self.neighbors_by_rel(asn, Rel.CUSTOMER)

    def providers(self, asn: int) -> List[int]:
        return self.neighbors_by_rel(asn, Rel.PROVIDER)

    def peers(self, asn: int) -> List[int]:
        return self.neighbors_by_rel(asn, Rel.PEER)

    def siblings(self, asn: int) -> List[int]:
        return self.neighbors_by_rel(asn, Rel.SIBLING)

    def sibling_set(self, asn: int) -> Set[int]:
        """The full sibling closure of ``asn`` (includes ``asn`` itself)."""
        seen = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors_by_rel(current, Rel.SIBLING):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def edges(self) -> Iterator[Tuple[int, int, Rel]]:
        """Iterate each undirected edge once as (a, b, rel of b from a),
        with a < b."""
        for a, adjacent in self._rel.items():
            for b, rel in adjacent.items():
                if a < b:
                    yield a, b, rel

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def same_as(self, other: "ASGraph") -> bool:
        """True when both graphs hold the same ASes and the same edges,
        each with the same relationship."""
        return self._rel == other._rel

    def copy(self) -> "ASGraph":
        clone = ASGraph()
        for asn, adjacent in self._rel.items():
            clone._rel[asn] = dict(adjacent)
        return clone

    def subgraph(self, ases: Iterable[int]) -> "ASGraph":
        """The induced subgraph on ``ases``."""
        keep = set(ases)
        clone = ASGraph()
        for asn in keep:
            clone.add_as(asn)
        for a, b, rel in self.edges():
            if a in keep and b in keep:
                clone.add_edge(a, b, rel)
        return clone
