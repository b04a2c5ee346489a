"""The zero-copy compiled data plane: a flat, array-backed BorderMap.

:class:`~repro.serving.bordermap.BorderMap` is a dict-and-dataclass
object graph: one Python object per router, link, and prefix, with
every derived index rebuilt in ``__init__`` on each load.  That shape is
the scaling wall at internet scale (~600k announced prefixes): load time
is O(map), resident memory is object-per-prefix, and nothing is shared
between worker processes.

:class:`CompiledBorderMap` lowers the same artifact into contiguous
integer tables (stdlib ``array``/``memoryview`` — no third-party deps):

* **columnar router/link tables** — integer offsets instead of object
  references; variable-length fields (router aliases, destination sets,
  adjacency lists) in CSR form (an offsets column plus a values column);
* **a sorted interface index** — ``(addr, router)`` parallel arrays,
  exact-matched by binary search;
* **a flat LPM index** — the map's :class:`~repro.trie.FrozenLPM`
  ranges with each origin interned and equal neighbours merged
  (``lpm_base``/``lpm_origin``), so a longest-prefix match is one
  ``bisect`` over a contiguous ``u32`` array;
* **interned strings and ASes** — every AS number and string lives once.

The tables serialize into the mmap-able container of
:mod:`repro.io.binfmt` (format :data:`BIN_FORMAT`): ``load_compiled_map``
maps the file and serves straight from the page cache — no JSON parse,
no index rebuild, O(sections) start — and any number of worker
processes mapping the same artifact share its pages copy-free.

Answers are byte-identical to the dict engine's: the same
:class:`~repro.serving.bordermap.Ownership` / ``BorderLink`` /
``NeighborInfo`` values, materialized lazily from the flat tables and
memoized (there are few routers/links/neighbors; the unbounded address
space is what stays flat).
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Any, Dict, IO, List, Optional, Sequence, Tuple, Union,
)

from ..addr import Prefix
from ..errors import DataError
from ..io.binfmt import BinaryContainer, open_container, write_container
from .bordermap import (
    BorderLink,
    BorderMap,
    CompiledRouter,
    NeighborInfo,
    Ownership,
    best_relationship,
)

#: Format tag carried in the ``meta`` section; bumped on any table-layout
#: change (the binfmt container version covers the envelope only).
BIN_FORMAT = "bdrmap-repro-bordermap-bin/1"

#: Format tag of a map *patch* artifact (see :class:`MapPatch`).
PATCH_FORMAT = "bdrmap-repro-bordermap-patch/1"

#: Sentinel for "absent" in u32 index columns (owner, far router, LPM
#: origin).  It is an *index* sentinel — table sizes stay far below it.
NONE_U32 = 0xFFFFFFFF

_U32 = "I" if array("I").itemsize == 4 else "L"
if array(_U32).itemsize != 4:  # pragma: no cover - exotic platforms only
    raise ImportError("no 4-byte unsigned array type on this platform")
_LITTLE = sys.byteorder == "little"

#: The u32 columns of the artifact, in canonical section order.
_U32_SECTIONS = (
    "ases",
    "rt_vp", "rt_rid", "rt_owner", "rt_reason",
    "rt_addr_off", "rt_addr", "rt_dst_off", "rt_dst",
    "lk_vp", "lk_near", "lk_far", "lk_nbr", "lk_rel", "lk_reason",
    "if_addr", "if_router",
    "lpm_base", "lpm_origin",
    "pfx_addr", "pfx_origin",
    "nbr_as", "nbr_off", "nbr_link",
    "twd_as", "twd_off", "twd_link",
)
#: The u8 columns.
_U8_SECTIONS = ("lk_ixp", "pfx_plen")


def _u32(values) -> "array":
    return array(_U32, values)


def _u8(values) -> "array":
    return array("B", values)


def _tobytes(column: "array") -> bytes:
    if _LITTLE or column.itemsize == 1:
        return column.tobytes()
    swapped = array(column.typecode, column)  # pragma: no cover - BE host
    swapped.byteswap()  # pragma: no cover - BE host
    return swapped.tobytes()  # pragma: no cover - BE host


def _cast(view: memoryview, typecode: str, name: str) -> Sequence[int]:
    """A section payload as a u32/u8 sequence — zero-copy on
    little-endian hosts, a byteswapped array copy elsewhere."""
    itemsize = array(typecode).itemsize
    if len(view) % itemsize:
        raise DataError(
            "corrupt section %r: %d bytes is not a whole number of "
            "%d-byte items" % (name, len(view), itemsize)
        )
    if _LITTLE or itemsize == 1:
        return view.cast(typecode)
    copied = array(typecode)  # pragma: no cover - BE host
    copied.frombytes(view.tobytes())  # pragma: no cover - BE host
    copied.byteswap()  # pragma: no cover - BE host
    return copied  # pragma: no cover - BE host


def _csr(rows: Sequence[Sequence[int]]) -> Tuple["array", "array"]:
    """Pack variable-length rows into (offsets, values) CSR columns."""
    offsets = _u32([0])
    values = _u32([])
    total = 0
    for row in rows:
        values.extend(row)
        total += len(row)
        offsets.append(total)
    return offsets, values


class CompiledBorderMap:
    """Flat array-backed border map: same query surface, same answers,
    contiguous memory.

    Never constructed directly — use :meth:`from_border_map` (lower a
    dict map at compile time) or :func:`load_compiled_map` (map a saved
    artifact).  Instances are immutable and safe to share across
    threads.
    """

    FORMAT = BIN_FORMAT

    def __init__(
        self,
        meta: Dict[str, Any],
        tables: Dict[str, Sequence[int]],
        container: Optional[BinaryContainer] = None,
    ) -> None:
        if meta.get("format") != BIN_FORMAT:
            raise DataError(
                "unknown compiled border map format %r" % meta.get("format")
            )
        self.focal_asn: int = meta["focal_asn"]
        self.vp_ases = frozenset(meta["vp_ases"])
        self.epoch: int = meta["epoch"]
        self.source: str = meta["source"]
        self._strings: List[str] = list(meta["strings"])
        self._meta = meta
        self._tables = tables
        self._container = container

        try:
            for name in _U32_SECTIONS + _U8_SECTIONS:
                setattr(self, "_" + name, tables[name])
        except KeyError as exc:
            raise DataError("compiled map missing table %s" % exc) from exc
        self._check_shape()

        n_routers = len(tables["rt_vp"])
        n_links = len(tables["lk_near"])
        n_ases = len(tables["ases"])
        # Lazy materialization memos: tiny (routers/links/ASes, never
        # addresses), filled on demand so load stays O(sections).
        self._owner_memo: List[Optional[Ownership]] = [None] * n_routers
        self._bgp_memo: List[Optional[Ownership]] = [None] * n_ases
        self._link_memo: List[Optional[BorderLink]] = [None] * n_links
        self._border_memo: Dict[int, Tuple[BorderLink, ...]] = {}
        self._range_border_memo: List[
            Optional[Tuple[BorderLink, ...]]
        ] = [None] * len(tables["lpm_base"])
        self._neighbor_memo: Dict[int, Optional[NeighborInfo]] = {}
        self._routers_memo: Optional[Tuple[CompiledRouter, ...]] = None
        self._prefixes_memo: Optional[Tuple[Tuple[Prefix, int], ...]] = None

    def _check_shape(self) -> None:
        t = self._tables
        n_routers = len(t["rt_vp"])
        n_links = len(t["lk_near"])
        same_as_routers = ("rt_rid", "rt_owner", "rt_reason")
        same_as_links = ("lk_vp", "lk_far", "lk_nbr", "lk_rel",
                         "lk_reason", "lk_ixp")
        checks = (
            [(name, len(t[name]), n_routers) for name in same_as_routers]
            + [(name, len(t[name]), n_links) for name in same_as_links]
            + [
                ("rt_addr_off", len(t["rt_addr_off"]), n_routers + 1),
                ("rt_dst_off", len(t["rt_dst_off"]), n_routers + 1),
                ("if_router", len(t["if_router"]), len(t["if_addr"])),
                ("lpm_origin", len(t["lpm_origin"]), len(t["lpm_base"])),
                ("pfx_plen", len(t["pfx_plen"]), len(t["pfx_addr"])),
                ("pfx_origin", len(t["pfx_origin"]), len(t["pfx_addr"])),
                ("nbr_off", len(t["nbr_off"]), len(t["nbr_as"]) + 1),
                ("twd_off", len(t["twd_off"]), len(t["twd_as"]) + 1),
            ]
        )
        for name, actual, expected in checks:
            if actual != expected:
                raise DataError(
                    "corrupt compiled map: table %r has %d rows, want %d"
                    % (name, actual, expected)
                )
        if len(t["lpm_base"]) == 0 or t["lpm_base"][0] != 0:
            raise DataError(
                "corrupt compiled map: LPM index must start at address 0"
            )

    # -- compilation --------------------------------------------------------

    @classmethod
    def from_border_map(cls, bmap: BorderMap) -> "CompiledBorderMap":
        """Lower a dict :class:`BorderMap` into flat tables.

        This is the compile-time path: it may walk the object graph
        freely — the serving path never does.
        """
        ases = list(bmap.as_table)
        as_index = {asn: i for i, asn in enumerate(ases)}
        strings: List[str] = []
        string_index: Dict[str, int] = {}

        def intern(text: str) -> int:
            found = string_index.get(text)
            if found is None:
                found = string_index[text] = len(strings)
                strings.append(text)
            return found

        rt_addr_off, rt_addr = _csr([r.addrs for r in bmap.routers])
        rt_dst_off, rt_dst = _csr(
            [[as_index[a] for a in r.dsts] for r in bmap.routers]
        )
        iface = sorted(bmap._iface.items())
        nbr_items = sorted(
            (as_index[asn], ids) for asn, ids in bmap._by_neighbor.items()
        )
        twd_items = sorted(
            (as_index[asn], ids) for asn, ids in bmap._toward.items()
        )
        nbr_off, nbr_link = _csr([ids for _, ids in nbr_items])
        twd_off, twd_link = _csr([ids for _, ids in twd_items])
        pfx_addr = _u32(p.addr for p, _ in bmap.prefixes)
        pfx_plen = _u8(p.plen for p, _ in bmap.prefixes)
        pfx_origin = _u32(as_index[o] for _, o in bmap.prefixes)
        # The frozen LPM keeps one range per matched prefix; the flat
        # index needs only the origin, so equal neighbours merge.
        lpm_base = _u32([])
        lpm_origin = _u32([])
        previous = -1
        for start, _, origin in bmap._lpm.ranges():
            index = as_index[origin] if origin is not None else NONE_U32
            if index != previous:
                lpm_base.append(start)
                lpm_origin.append(index)
                previous = index

        tables: Dict[str, Sequence[int]] = {
            "ases": _u32(ases),
            "rt_vp": _u32(intern(r.vp_name) for r in bmap.routers),
            "rt_rid": _u32(r.rid for r in bmap.routers),
            "rt_owner": _u32(
                as_index[r.owner] if r.owner is not None else NONE_U32
                for r in bmap.routers
            ),
            "rt_reason": _u32(intern(r.reason) for r in bmap.routers),
            "rt_addr_off": rt_addr_off,
            "rt_addr": rt_addr,
            "rt_dst_off": rt_dst_off,
            "rt_dst": rt_dst,
            "lk_vp": _u32(intern(l.vp_name) for l in bmap.links),
            "lk_near": _u32(l.near_router for l in bmap.links),
            "lk_far": _u32(
                l.far_router if l.far_router is not None else NONE_U32
                for l in bmap.links
            ),
            "lk_nbr": _u32(as_index[l.neighbor_as] for l in bmap.links),
            "lk_rel": _u32(intern(l.relationship) for l in bmap.links),
            "lk_reason": _u32(intern(l.reason) for l in bmap.links),
            "lk_ixp": _u8(int(l.via_ixp) for l in bmap.links),
            "if_addr": _u32(addr for addr, _ in iface),
            "if_router": _u32(router for _, router in iface),
            "lpm_base": lpm_base,
            "lpm_origin": lpm_origin,
            "pfx_addr": pfx_addr,
            "pfx_plen": pfx_plen,
            "pfx_origin": pfx_origin,
            "nbr_as": _u32(key for key, _ in nbr_items),
            "nbr_off": nbr_off,
            "nbr_link": nbr_link,
            "twd_as": _u32(key for key, _ in twd_items),
            "twd_off": twd_off,
            "twd_link": twd_link,
        }
        meta = {
            "format": BIN_FORMAT,
            "focal_asn": bmap.focal_asn,
            "vp_ases": sorted(bmap.vp_ases),
            "epoch": bmap.epoch,
            "source": bmap.source,
            "strings": strings,
        }
        return cls(meta, tables)

    # -- persistence --------------------------------------------------------

    def sections(self) -> Dict[str, bytes]:
        """The artifact's named sections, ready for
        :func:`repro.io.binfmt.write_container`."""
        payload: Dict[str, bytes] = {
            "meta": json.dumps(self._meta, sort_keys=True).encode("utf-8"),
        }
        for name in _U32_SECTIONS:
            column = self._tables[name]
            if not isinstance(column, array):
                column = _u32(column)
            payload[name] = _tobytes(column)
        for name in _U8_SECTIONS:
            column = self._tables[name]
            if not isinstance(column, array):
                column = _u8(column)
            payload[name] = _tobytes(column)
        return payload

    @classmethod
    def from_container(
        cls, container: BinaryContainer
    ) -> "CompiledBorderMap":
        try:
            meta = json.loads(container.section_bytes("meta"))
        except ValueError as exc:
            raise DataError(
                "corrupt section 'meta' in %s: %s" % (container.path, exc)
            ) from exc
        tables: Dict[str, Sequence[int]] = {}
        for name in _U32_SECTIONS:
            tables[name] = _cast(container.section(name), _U32, name)
        for name in _U8_SECTIONS:
            tables[name] = _cast(container.section(name), "B", name)
        try:
            return cls(meta, tables, container=container)
        except (KeyError, TypeError) as exc:
            raise DataError(
                "malformed compiled border map %s: %s"
                % (container.path, exc)
            ) from exc

    def close(self) -> None:
        """Release the underlying mapping (no-op for compiled-in-memory
        maps).  Queries after close raise."""
        if self._container is not None:
            self._container.close()

    # -- interned views -----------------------------------------------------

    @property
    def as_table(self) -> Tuple[int, ...]:
        return tuple(self._ases)

    @property
    def prefixes(self) -> Tuple[Tuple[Prefix, int], ...]:
        """The announced-prefix table, materialized on first use (the
        serving path never touches it — the LPM index answers)."""
        if self._prefixes_memo is None:
            ases = self._ases
            self._prefixes_memo = tuple(
                (Prefix(addr, plen), ases[origin])
                for addr, plen, origin in zip(
                    self._pfx_addr, self._pfx_plen, self._pfx_origin
                )
            )
        return self._prefixes_memo

    @property
    def routers(self) -> Tuple[CompiledRouter, ...]:
        """The router table materialized as dataclass rows (diagnostics
        and interop; the serving path reads the columns directly)."""
        if self._routers_memo is None:
            strings, ases = self._strings, self._ases
            addr_off, addrs = self._rt_addr_off, self._rt_addr
            dst_off, dsts = self._rt_dst_off, self._rt_dst
            rows = []
            for i in range(len(self._rt_vp)):
                owner = self._rt_owner[i]
                rows.append(CompiledRouter(
                    index=i,
                    vp_name=strings[self._rt_vp[i]],
                    rid=self._rt_rid[i],
                    addrs=tuple(addrs[addr_off[i]:addr_off[i + 1]]),
                    owner=ases[owner] if owner != NONE_U32 else None,
                    reason=strings[self._rt_reason[i]],
                    dsts=tuple(ases[d]
                               for d in dsts[dst_off[i]:dst_off[i + 1]]),
                ))
            self._routers_memo = tuple(rows)
        return self._routers_memo

    @property
    def links(self) -> Tuple[BorderLink, ...]:
        return tuple(self._link(i) for i in range(len(self._lk_near)))

    def interface_count(self) -> int:
        return len(self._if_addr)

    def stats(self) -> Dict[str, int]:
        return {
            "routers": len(self._rt_vp),
            "links": len(self._lk_near),
            "interfaces": len(self._if_addr),
            "prefixes": len(self._pfx_addr),
            "neighbors": len(self._nbr_as),
            "ases": len(self._ases),
        }

    def to_border_map(self) -> BorderMap:
        """Re-hydrate a dict :class:`BorderMap` (object graph, rebuilt
        indexes) — for diff tooling and round-trip tests, not serving."""
        return BorderMap(
            focal_asn=self.focal_asn,
            vp_ases=self.vp_ases,
            routers=self.routers,
            links=self.links,
            prefixes=self.prefixes,
            epoch=self.epoch,
            source=self.source,
        )

    # -- lazy row materialization -------------------------------------------

    def _owner_answer(self, router_index: int) -> Optional[Ownership]:
        answer = self._owner_memo[router_index]
        if answer is None:
            owner = self._rt_owner[router_index]
            if owner == NONE_U32:
                return None
            answer = Ownership(asn=self._ases[owner], source="interface",
                               router=router_index)
            self._owner_memo[router_index] = answer
        return answer

    def _bgp_answer(self, origin_index: int) -> Ownership:
        answer = self._bgp_memo[origin_index]
        if answer is None:
            answer = Ownership(asn=self._ases[origin_index], source="bgp",
                               router=None)
            self._bgp_memo[origin_index] = answer
        return answer

    def _link(self, index: int) -> BorderLink:
        link = self._link_memo[index]
        if link is None:
            far = self._lk_far[index]
            link = BorderLink(
                index=index,
                vp_name=self._strings[self._lk_vp[index]],
                near_router=self._lk_near[index],
                far_router=far if far != NONE_U32 else None,
                neighbor_as=self._ases[self._lk_nbr[index]],
                relationship=self._strings[self._lk_rel[index]],
                reason=self._strings[self._lk_reason[index]],
                via_ixp=bool(self._lk_ixp[index]),
            )
            self._link_memo[index] = link
        return link

    def _as_index_of(self, asn: int) -> int:
        """Position of ``asn`` in the sorted AS table, or NONE_U32."""
        ases = self._ases
        i = bisect_right(ases, asn) - 1
        if i >= 0 and ases[i] == asn:
            return i
        return NONE_U32

    # -- queries (same contract as BorderMap) -------------------------------

    def owner_of(self, addr: int) -> Optional[Ownership]:
        # The memo fast paths are inlined (no helper call) — this is the
        # hottest entry point of the data plane.
        if_addr = self._if_addr
        i = bisect_right(if_addr, addr) - 1
        if i >= 0 and if_addr[i] == addr:
            router = self._if_router[i]
            answer = self._owner_memo[router]
            if answer is not None:
                return answer
            owner = self._rt_owner[router]
            if owner != NONE_U32:
                answer = Ownership(asn=self._ases[owner],
                                   source="interface", router=router)
                self._owner_memo[router] = answer
                return answer
        origin = self._lpm_origin[bisect_right(self._lpm_base, addr) - 1]
        if origin == NONE_U32:
            return None
        answer = self._bgp_memo[origin]
        if answer is None:
            answer = Ownership(asn=self._ases[origin], source="bgp",
                               router=None)
            self._bgp_memo[origin] = answer
        return answer

    def owner_of_batch(
        self, addrs: Sequence[int]
    ) -> List[Optional[Ownership]]:
        # One tight loop, locals bound once: two binary searches per
        # address over contiguous u32 arrays, memoized answer rows.
        if_addr = self._if_addr
        if_router = self._if_router
        lpm_base = self._lpm_base
        lpm_origin = self._lpm_origin
        owner_answer = self._owner_answer
        bgp_answer = self._bgp_answer
        search = bisect_right
        answers: List[Optional[Ownership]] = []
        append = answers.append
        for addr in addrs:
            i = search(if_addr, addr) - 1
            if i >= 0 and if_addr[i] == addr:
                answer = owner_answer(if_router[i])
                if answer is not None:
                    append(answer)
                    continue
            origin = lpm_origin[search(lpm_base, addr) - 1]
            append(bgp_answer(origin) if origin != NONE_U32 else None)
        return answers

    def dst_as(self, addr: int) -> Optional[int]:
        origin = self._lpm_origin[bisect_right(self._lpm_base, addr) - 1]
        if origin != NONE_U32:
            return self._ases[origin]
        if_addr = self._if_addr
        i = bisect_right(if_addr, addr) - 1
        if i >= 0 and if_addr[i] == addr:
            owner = self._rt_owner[self._if_router[i]]
            return self._ases[owner] if owner != NONE_U32 else None
        return None

    def _links_toward(self, as_index: int) -> Tuple[BorderLink, ...]:
        found = self._border_memo.get(as_index)
        if found is None:
            keys, offsets, values = self._twd_as, self._twd_off, self._twd_link
            i = bisect_right(keys, as_index) - 1
            if i < 0 or keys[i] != as_index:
                keys, offsets, values = (
                    self._nbr_as, self._nbr_off, self._nbr_link
                )
                i = bisect_right(keys, as_index) - 1
            if i >= 0 and keys[i] == as_index:
                found = tuple(
                    self._link(l) for l in values[offsets[i]:offsets[i + 1]]
                )
            else:
                found = ()
            self._border_memo[as_index] = found
        return found

    def border_for(self, addr: int) -> Tuple[BorderLink, ...]:
        # The whole answer is a function of the LPM range the address
        # falls in (the origin index IS the interned AS index), so it is
        # memoized per range — bounded by the LPM table, not by the
        # address space.
        ri = bisect_right(self._lpm_base, addr) - 1
        origin = self._lpm_origin[ri]
        if origin != NONE_U32:
            found = self._range_border_memo[ri]
            if found is None:
                if self._ases[origin] in self.vp_ases:
                    found = ()
                else:
                    found = self._links_toward(origin)
                self._range_border_memo[ri] = found
            return found
        # No announced prefix covers the address: fall back to the
        # interface map, exactly like the dict engine's dst_as.
        asn = self.dst_as(addr)
        if asn is None or asn in self.vp_ases:
            return ()
        as_index = self._as_index_of(asn)
        if as_index == NONE_U32:
            return ()
        return self._links_toward(as_index)

    def neighbor_ases(self) -> Tuple[int, ...]:
        ases = self._ases
        return tuple(ases[i] for i in self._nbr_as)

    def neighbors(self, asn: int) -> Optional[NeighborInfo]:
        info = self._neighbor_memo.get(asn, False)
        if info is False:
            info = None
            as_index = self._as_index_of(asn)
            if as_index != NONE_U32:
                keys, offsets = self._nbr_as, self._nbr_off
                i = bisect_right(keys, as_index) - 1
                if i >= 0 and keys[i] == as_index:
                    links = tuple(
                        self._link(l)
                        for l in self._nbr_link[offsets[i]:offsets[i + 1]]
                    )
                    best = best_relationship(links)
                    info = NeighborInfo(
                        asn=asn,
                        relationship=best.relationship,
                        links=links,
                        best_confidence=best.confidence,
                    )
            self._neighbor_memo[asn] = info
        return info


# -- module-level artifact API ------------------------------------------------


def compile_map(bmap: BorderMap) -> CompiledBorderMap:
    """Lower a dict BorderMap to its flat compiled form."""
    return CompiledBorderMap.from_border_map(bmap)


def save_compiled_map(
    source: Union[BorderMap, CompiledBorderMap],
    target: Union[str, IO[bytes]],
) -> int:
    """Write ``source`` (dict or compiled) as a binary artifact; returns
    the bytes written."""
    compiled = (
        source if isinstance(source, CompiledBorderMap)
        else CompiledBorderMap.from_border_map(source)
    )
    return write_container(target, compiled.sections())


def load_compiled_map(path: str) -> CompiledBorderMap:
    """Map a binary artifact and serve it without deserialization.

    Every section's checksum is proven before the first answer — a
    corrupted or truncated artifact raises :class:`DataError` naming
    the section, never a silent partial load.
    """
    container = open_container(path)
    try:
        return CompiledBorderMap.from_container(container)
    except DataError:
        container.close()
        raise


def load_served_map(path: str) -> CompiledBorderMap:
    """Load either artifact format as a compiled map, for serving.

    A binary artifact maps zero-copy; a JSON artifact parses to the dict
    :class:`BorderMap` and is lowered once here.  Either way every
    answer comes from the compiled map's memos — the serving read path
    keeps no result cache of its own.
    """
    from ..io import load_border_map

    bmap = load_border_map(path)
    if isinstance(bmap, CompiledBorderMap):
        return bmap
    return compile_map(bmap)


# -- in-place patching --------------------------------------------------------


@dataclass(frozen=True)
class MapPatch:
    """The section-level delta between two compiled maps.

    ``changed`` holds the full bytes of every section that differs (the
    section is the patch granularity: sections are columns, and a column
    either changed or it didn't); ``base_crcs`` pins the exact base
    artifact the patch applies to — :func:`apply_map_patch` refuses any
    other base rather than producing a silently wrong map.  A patch is
    what the epoch pipeline ships to serving shards instead of a full
    artifact when churn is low.
    """

    base_epoch: int
    new_epoch: int
    changed: Dict[str, bytes] = field(default_factory=dict)
    base_crcs: Dict[str, int] = field(default_factory=dict)


def patch_compiled_map(
    prev: CompiledBorderMap, bmap: BorderMap
) -> Tuple[CompiledBorderMap, MapPatch]:
    """Compile ``bmap`` against the previous epoch's compiled map.

    Returns the new compiled map — byte-identical to
    ``compile_map(bmap)`` — plus the :class:`MapPatch` carrying only the
    sections that changed.
    """
    compiled = CompiledBorderMap.from_border_map(bmap)
    new_sections = compiled.sections()
    old_sections = prev.sections()
    if set(new_sections) != set(old_sections):  # pragma: no cover - same BIN_FORMAT
        raise DataError("section sets differ between map generations")
    changed = {
        name: payload
        for name, payload in new_sections.items()
        if old_sections[name] != payload
    }
    patch = MapPatch(
        base_epoch=prev.epoch,
        new_epoch=compiled.epoch,
        changed=changed,
        base_crcs={
            name: zlib.crc32(payload)
            for name, payload in old_sections.items()
        },
    )
    return compiled, patch


def save_map_patch(
    patch: MapPatch, target: Union[str, IO[bytes]]
) -> int:
    """Write a :class:`MapPatch` as a binfmt container; returns the bytes
    written.  Layout: a ``patch_meta`` JSON section (format tag, epochs,
    base crcs, changed-section list) followed by the changed sections in
    canonical artifact order."""
    meta = {
        "format": PATCH_FORMAT,
        "base_epoch": patch.base_epoch,
        "new_epoch": patch.new_epoch,
        "base_crcs": dict(sorted(patch.base_crcs.items())),
        "changed": sorted(patch.changed),
    }
    sections: Dict[str, bytes] = {
        "patch_meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
    }
    for name in ("meta",) + _U32_SECTIONS + _U8_SECTIONS:
        if name in patch.changed:
            sections[name] = patch.changed[name]
    return write_container(target, sections)


def load_map_patch(path: str) -> MapPatch:
    """Read a patch artifact written by :func:`save_map_patch`.

    The container's checksums seal the bytes, not what ``patch_meta``
    says, so its fields are mapped behind the same guard as the JSON
    loaders: malformed metadata raises :class:`DataError`."""
    from ..io.serialize import _decoding

    with open_container(path) as container:
        try:
            meta = json.loads(container.section_bytes("patch_meta"))
        except ValueError as exc:
            raise DataError(
                "corrupt section 'patch_meta' in %s: %s" % (path, exc)
            ) from exc
        with _decoding(meta, PATCH_FORMAT, "map patch %s" % path):
            return MapPatch(
                base_epoch=meta["base_epoch"],
                new_epoch=meta["new_epoch"],
                changed={
                    name: container.section_bytes(name)
                    for name in meta["changed"]
                },
                base_crcs={
                    name: crc for name, crc in meta["base_crcs"].items()
                },
            )


def apply_map_patch(
    base_path: str,
    patch_path: str,
    out_path: Union[str, IO[bytes]],
) -> int:
    """Overlay a patch onto a base artifact, producing the next epoch's
    full artifact (byte-identical to saving the patched compiled map).

    Every base section is CRC-checked against the patch's expectations
    first; a mismatched or wrong-generation base raises
    :class:`DataError` naming the section instead of writing a corrupt
    map.  Returns the bytes written.
    """
    patch = load_map_patch(patch_path)
    with open_container(base_path) as container:
        names = container.names()
        if set(names) != set(patch.base_crcs):
            raise DataError(
                "patch %s does not match base %s: section sets differ"
                % (patch_path, base_path)
            )
        unknown = set(patch.changed) - set(names)
        if unknown:
            raise DataError(
                "patch %s carries unknown sections: %s"
                % (patch_path, ", ".join(sorted(unknown)))
            )
        sections: Dict[str, bytes] = {}
        for name in names:
            payload = container.section_bytes(name)
            if zlib.crc32(payload) != patch.base_crcs[name]:
                raise DataError(
                    "patch %s does not apply: base section %r of %s has "
                    "a different checksum (wrong base artifact?)"
                    % (patch_path, name, base_path)
                )
            sections[name] = patch.changed.get(name, payload)
    return write_container(out_path, sections)
