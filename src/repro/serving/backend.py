"""The backend protocol both border-map data planes satisfy.

:class:`~repro.serving.bordermap.BorderMap` (dict-and-dataclass object
graph, rebuilt indexes) and
:class:`~repro.serving.compiled.CompiledBorderMap` (flat array tables,
mmap-backed) answer the same queries with byte-identical values; the
engine, service, and CLI program against this protocol so either
backend drops in unchanged.
"""

from __future__ import annotations

from typing import (
    Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

from .bordermap import BorderLink, NeighborInfo, Ownership


@runtime_checkable
class BorderMapBackend(Protocol):
    """What a served border map must provide.

    ``epoch`` is the caller-assigned artifact version answers are tagged
    with.
    """

    focal_asn: int
    epoch: int
    source: str
    vp_ases: frozenset

    def owner_of(self, addr: int) -> Optional[Ownership]: ...

    def owner_of_batch(
        self, addrs: Sequence[int]
    ) -> List[Optional[Ownership]]: ...

    def dst_as(self, addr: int) -> Optional[int]: ...

    def border_for(self, addr: int) -> Tuple[BorderLink, ...]: ...

    def neighbor_ases(self) -> Tuple[int, ...]: ...

    def neighbors(self, asn: int) -> Optional[NeighborInfo]: ...

    def interface_count(self) -> int: ...

    def stats(self) -> Dict[str, int]: ...


def close_backend(backend: object) -> None:
    """Release a backend's resources, if it holds any.

    The dict backend owns nothing beyond Python objects; the compiled
    backend may hold an mmap and its file handle.  Shard workers call
    this on every retired map (epoch swap, shutdown) so a long-lived
    serving process can't leak mappings across hundreds of swaps.
    """
    close = getattr(backend, "close", None)
    if callable(close):
        close()
