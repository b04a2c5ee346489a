"""Longest-prefix match over IPv4 prefixes, as sorted address ranges.

The canonical IP→AS mapping step (§4) is a longest-prefix match against the
set of BGP-announced prefixes; bdrmap performs that match for every address
in every traceroute, so this module sits on the hottest path of the whole
system.  Every table it serves is sealed before it is read (the announced
prefixes of one routing epoch, a BGP view after its adds, a compiled map's
prefix table), so :class:`FrozenLPM` freezes the (prefix, value) pairs into
sorted disjoint address ranges in one sweep, and a lookup is one ``bisect``
instead of a 32-step trie walk.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from .addr import MAX_ADDR, Prefix

V = TypeVar("V")


def _prefix_order(item: Tuple[Prefix, object]) -> Tuple[int, int]:
    return item[0].addr, item[0].plen


class FrozenLPM(Generic[V]):
    """A sealed prefix table as sorted disjoint address ranges.

    The longest match can only change where some prefix starts or ends, so
    the table splits the address space into ranges that each have one
    answer: range ``i`` covers ``[starts[i], starts[i + 1])`` and its
    longest match is ``prefixes[i]`` with ``values[i]`` (both None for
    unrouted space).  Ranges are never merged across distinct prefixes,
    even when their values are equal, so :meth:`lookup` returns the most
    specific prefix that covers the address, not just its value.  The
    table copies its pairs: later changes to their source do not reach it.
    """

    __slots__ = ("starts", "prefixes", "values")

    def __init__(self, items: Iterable[Tuple[Prefix, V]] = ()) -> None:
        """Freeze (prefix, value) pairs; a prefix given twice keeps its
        last value.

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
