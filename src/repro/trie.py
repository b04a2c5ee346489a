"""Longest-prefix match over IPv4 prefixes: a trie to build, ranges to read.

The canonical IP→AS mapping step (§4) is a longest-prefix match against the
set of BGP-announced prefixes; bdrmap performs that match for every address
in every traceroute, so this module sits on the hottest path of the whole
system.  It has two halves:

* :class:`PrefixTrie` is the builder: a plain binary trie with path-free
  internal nodes that takes inserts and removals in any order.
* :class:`FrozenLPM` is the one read side.  Once a table is sealed (the
  announced prefixes of one routing epoch, a BGP view after its adds, a
  compiled map's prefix table), it is frozen into sorted disjoint address
  ranges in one sweep, and a lookup is one ``bisect`` instead of a 32-step
  walk.  A table already held as (prefix, value) pairs freezes straight
  from them; :meth:`PrefixTrie.freeze` freezes a trie.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from .addr import MAX_ADDR, Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("zero", "one", "value", "has_value")

    def __init__(self) -> None:
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Map from :class:`Prefix` to arbitrary values with LPM lookup."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._root
        for bit_index in range(prefix.plen):
            bit = (prefix.addr >> (31 - bit_index)) & 1
            if bit:
                if node.one is None:
                    node.one = _Node()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _Node()
                node = node.zero
        if not node.has_value:
            self._len += 1
        node.value = value
        node.has_value = True

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; return True if it was present.

        Leaves empty internal nodes in place — removal is rare (used only by
        tests and incremental dataset updates), so we do not prune.
        """
        node: Optional[_Node[V]] = self._root
        for bit_index in range(prefix.plen):
            if node is None:
                return False
            bit = (prefix.addr >> (31 - bit_index)) & 1
            node = node.one if bit else node.zero
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._len -= 1
        return True

    def exact(self, prefix: Prefix) -> Optional[V]:
        """Return the value stored exactly at ``prefix``, or None."""
        node: Optional[_Node[V]] = self._root
        for bit_index in range(prefix.plen):
            if node is None:
                return None
            bit = (prefix.addr >> (31 - bit_index)) & 1
            node = node.one if bit else node.zero
        if node is not None and node.has_value:
            return node.value
        return None

    def __contains__(self, prefix: Prefix) -> bool:
        return self.exact(prefix) is not None

    def lookup(self, addr: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for ``addr``.

        Returns the (prefix, value) of the most specific stored prefix
        covering ``addr``, or None if nothing covers it.
        """
        node: Optional[_Node[V]] = self._root
        best: Optional[Tuple[int, V]] = None
        depth = 0
        while node is not None:
            if node.has_value:
                best = (depth, node.value)  # type: ignore[arg-type]
            if depth == 32:
                break
            bit = (addr >> (31 - depth)) & 1
            node = node.one if bit else node.zero
            depth += 1
        if best is None:
            return None
        plen, value = best
        return Prefix.of(addr, plen), value

    def lookup_value(self, addr: int) -> Optional[V]:
        """Longest-prefix match returning only the stored value."""
        found = self.lookup(addr)
        return found[1] if found is not None else None

    def lookup_all(self, addr: int) -> List[Tuple[Prefix, V]]:
        """All stored prefixes covering ``addr``, least specific first."""
        matches: List[Tuple[Prefix, V]] = []
        node: Optional[_Node[V]] = self._root
        depth = 0
        while node is not None:
            if node.has_value:
                matches.append((Prefix.of(addr, depth), node.value))  # type: ignore[arg-type]
            if depth == 32:
                break
            bit = (addr >> (31 - depth)) & 1
            node = node.one if bit else node.zero
            depth += 1
        return matches

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Iterate stored (prefix, value) pairs at or below ``prefix``."""
        node: Optional[_Node[V]] = self._root
        for bit_index in range(prefix.plen):
            if node is None:
                return
            bit = (prefix.addr >> (31 - bit_index)) & 1
            node = node.one if bit else node.zero
        if node is None:
            return
        stack: List[Tuple[_Node[V], int, int]] = [(node, prefix.addr, prefix.plen)]
        while stack:
            current, addr, plen = stack.pop()
            if current.has_value:
                yield Prefix(addr, plen), current.value  # type: ignore[misc]
            if plen == 32:
                continue
            if current.one is not None:
                stack.append((current.one, addr | (1 << (31 - plen)), plen + 1))
            if current.zero is not None:
                stack.append((current.zero, addr, plen + 1))

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all stored (prefix, value) pairs (unordered)."""
        yield from self.covered(Prefix(0, 0))

    def freeze(self) -> "FrozenLPM[V]":
        """The table as it stands, frozen for reading (see
        :class:`FrozenLPM`).  Later inserts do not reach the frozen form."""
        return FrozenLPM(self.items())


def _prefix_order(item: Tuple[Prefix, object]) -> Tuple[int, int]:
    return item[0].addr, item[0].plen


class FrozenLPM(Generic[V]):
    """A sealed prefix table as sorted disjoint address ranges.

    The longest match can only change where some prefix starts or ends, so
    the table splits the address space into ranges that each have one
    answer: range ``i`` covers ``[starts[i], starts[i + 1])`` and its
    longest match is ``prefixes[i]`` with ``values[i]`` (both None for
    unrouted space).  Ranges are never merged across distinct prefixes,
    even when their values are equal, so :meth:`lookup` returns the same
    prefix as :meth:`PrefixTrie.lookup`.

    Build one from (prefix, value) pairs, or with :meth:`PrefixTrie.freeze`
    from a table that was built incrementally.
    """

    __slots__ = ("starts", "prefixes", "values")

    def __init__(self, items: Iterable[Tuple[Prefix, V]] = ()) -> None:
        """Freeze (prefix, value) pairs; a prefix given twice keeps its
        last value, as repeated :meth:`PrefixTrie.insert` calls would.

        One sweep in (address, length) order, keeping a stack of the open
        prefixes that nest around the sweep position, innermost last.  The
        sort is stable, so a repeated prefix's last value sits innermost
        and answers for the whole prefix.
        """
        starts: List[int] = []
        prefixes: List[Optional[Prefix]] = []
        values: List[Optional[V]] = []
        # (end, prefix, value) of each prefix open at the sweep position,
        # innermost last, above a no-match entry spanning the whole space.
        open_: List[Tuple[int, Optional[Prefix], Optional[V]]] = [
            (MAX_ADDR + 1, None, None)
        ]
        position = 0

        def emit(end: int, prefix: Optional[Prefix],
                 value: Optional[V]) -> None:
            nonlocal position
            starts.append(position)
            prefixes.append(prefix)
            values.append(value)
            position = end

        def advance(to: int) -> None:
            """Emit every range below ``to``: close the open prefixes that
            end by then, and let the innermost one left answer up to it."""
            while open_ and open_[-1][0] <= to:
                end, prefix, value = open_.pop()
                if position < end:
                    emit(end, prefix, value)
            if position < to:
                emit(to, open_[-1][1], open_[-1][2])

        for prefix, value in sorted(items, key=_prefix_order):
            advance(prefix.addr)
            open_.append((prefix.last + 1, prefix, value))
        advance(MAX_ADDR + 1)
        self.starts: List[int] = starts
        self.prefixes: List[Optional[Prefix]] = prefixes
        self.values: List[Optional[V]] = values

    def lookup(self, addr: int) -> Optional[Tuple[Prefix, V]]:
        """The (prefix, value) of the longest match for ``addr``, or None."""
        index = bisect_right(self.starts, addr) - 1
        prefix = self.prefixes[index]
        if prefix is None:
            return None
        return prefix, self.values[index]  # type: ignore[return-value]

    def lookup_value(self, addr: int) -> Optional[V]:
        """The value of the longest match for ``addr``, or None."""
        return self.values[bisect_right(self.starts, addr) - 1]

    def ranges(self) -> Iterator[Tuple[int, Optional[Prefix], Optional[V]]]:
        """(start, prefix, value) per range, in address order."""
        return zip(self.starts, self.prefixes, self.values)
