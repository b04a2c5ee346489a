"""Typed binary frames for the shard ``query`` op.

Every other shard op (ping, prepare, commit, abort, harvest, stats,
shutdown) and every error reply crosses the wire as the JSON body of
:mod:`repro.remote.protocol`.  The query op is the hot one: a JSON
command per batch and a JSON object per answer cost several times the
compiled lookups that produce the answers.  So a query travels as one
typed frame each way instead, and the first body byte tells the kinds
apart: a JSON body starts with ``{``, a typed one with its kind byte.

Both kinds are sealed the same way (all integers little-endian)::

    offset 0  kind   u8    b"Q" query command, b"A" answer table
           1  crc32  u32   zlib.crc32 of every byte after this field
           5  ...          the kind's body, below

A **query command** is ``seq u64, count u32, trace flags u8``, then the
optional trace context (flag 1: ``seed u64, span id u64``; flag 2, only
with flag 1, says the span id is present), then ``count`` one-byte op
codes (positions in :data:`~repro.serving.service.OPS`), then ``count``
signed 64-bit keys.

An **answer table** is ``seq u64, epoch i64, token i64`` — once per
frame, because one engine snapshot answers the whole batch — then four
counts (``strings, links, runs, answers``, u32 each) and the tables:

* strings: one u32 byte length per string, then the UTF-8 bytes;
* links: one :data:`LINK` row per distinct :class:`BorderLink`, its
  text fields as string-table indexes;
* runs: one u32 length per distinct link tuple, then the concatenated
  u32 link-table indexes of every run;
* answers: one fixed-width :data:`RECORD` per answer, in request order.

A record is ``op u8, tag u8, key i64, asn i64, router i64, text u32,
run u32, confidence f64``.  The tag says which fields mean anything:
:data:`TAG_NONE` (no value), :data:`TAG_BGP` and :data:`TAG_INTERFACE`
(an :class:`Ownership` without and with a router), :data:`TAG_LINKS`
(a link tuple) and :data:`TAG_NEIGHBOR` (a :class:`NeighborInfo`).

The CRC matters because a binary body, unlike JSON text, has no
redundancy of its own: a flipped key or ASN byte would decode to a
wrong answer that looks valid.  Every decode check — the CRC, a short
or overlong body, an unknown kind, op code, tag, flag or table index —
raises :class:`~repro.errors.DataError`, and no other exception type
escapes a decoder.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import DataError
from .bordermap import BorderLink, NeighborInfo, Ownership
from .service import OPS

QUERY_KIND = 0x51      # b"Q"
ANSWERS_KIND = 0x41    # b"A"

TAG_NONE = 0
TAG_BGP = 1            # Ownership with router None
TAG_INTERFACE = 2      # Ownership with a router index
TAG_LINKS = 3
TAG_NEIGHBOR = 4

_OP_CODES = {op: code for code, op in enumerate(OPS)}
_SEAL = struct.Struct("<BI")              # kind, crc32
_QUERY_HEAD = struct.Struct("<QIB")       # seq, count, trace flags
_ANSWERS_HEAD = struct.Struct("<QqqIIII")  # seq, epoch, token, 4 counts
_TRACE = struct.Struct("<QQ")             # seed, span id
_TRACE_SEED, _TRACE_ID = 1, 2
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: One link-table row: index, vp_name, near_router, far_router,
#: neighbor_as, relationship, reason (text fields as string indexes),
#: flags (bit 0 via_ixp, bit 1 far_router present).
LINK = struct.Struct("<qIqqqIIB")
_LINK_IXP, _LINK_FAR = 1, 2

#: One answer record (see the module docs).
RECORD = struct.Struct("<BBqqqIId")


class QueryFrame(NamedTuple):
    seq: int
    trace: Optional[Dict[str, Any]]
    requests: List[Tuple[str, int]]


class AnswerTable(NamedTuple):
    """A decoded answer table.  ``entries`` holds one
    ``(op, key, value, epoch)`` tuple per answer, in request order, with
    every value rebuilt from the frame's tables."""

    seq: int
    epoch: int
    token: int
    entries: List[Tuple[str, int, Any, int]]


def _seal(kind: int, body: bytes) -> bytes:
    return _SEAL.pack(kind, zlib.crc32(body)) + body


def _unseal(data: bytes, kind: int, head: struct.Struct) -> tuple:
    """Check a typed frame's size, kind and CRC, then unpack the
    kind's fixed header."""
    if len(data) < _SEAL.size + head.size:
        raise DataError("short typed frame: %d bytes, the header alone "
                        "is %d" % (len(data), _SEAL.size + head.size))
    found, crc = _SEAL.unpack_from(data)
    if found != kind:
        raise DataError("unknown frame kind 0x%02x (want 0x%02x)"
                        % (found, kind))
    actual = zlib.crc32(memoryview(data)[_SEAL.size:])
    if actual != crc:
        raise DataError("typed frame crc32 %08x != stored %08x"
                        % (actual, crc))
    return head.unpack_from(data, _SEAL.size)


def _span_number(ident: str) -> int:
    """A tracer span id (16 lowercase hex digits, as
    :func:`~repro.obs.trace.span_id` prints it) as the u64 it spells."""
    try:
        number = int(ident, 16)
    except (TypeError, ValueError):
        number = -1
    if not 0 <= number <= _MASK64 or "%016x" % number != ident:
        raise DataError("trace span id %r is not 16 hex digits" % (ident,))
    return number


def _need(data: bytes, end: int) -> None:
    if end > len(data):
        raise DataError("truncated typed frame: needs %d bytes, has %d"
                        % (end, len(data)))


# -- the query command --------------------------------------------------------


def encode_query(seq: int, requests: Sequence[Tuple[str, int]],
                 trace: Optional[Dict[str, Any]] = None) -> bytes:
    """One query command body: an op-code column and a key column.

    Raises :class:`DataError` for an op outside ``OPS`` or a key outside
    the signed 64-bit range (the tier's admission check rejects both
    before any shard work, so a channel never sees them)."""
    count = len(requests)
    try:
        if count:
            ops, keys = zip(*requests)
            codes = bytes(map(_OP_CODES.__getitem__, ops))
            column = struct.pack("<%dq" % count, *keys)
        else:
            codes = column = b""
    except KeyError as exc:
        raise DataError("unknown query op %s (want one of %s)"
                        % (exc, "/".join(OPS))) from None
    except struct.error as exc:
        raise DataError("query key outside the signed 64-bit range: %s"
                        % exc) from None
    flags, context = 0, b""
    if trace is not None:
        flags, span = _TRACE_SEED, 0
        ident = trace.get("id")
        if ident is not None:
            flags, span = _TRACE_SEED | _TRACE_ID, _span_number(ident)
        context = _TRACE.pack(int(trace.get("seed", 0)) & _MASK64, span)
    return _seal(QUERY_KIND, b"".join((
        _QUERY_HEAD.pack(seq, count, flags), context, codes, column,
    )))


def decode_query(data: bytes) -> QueryFrame:
    """Inverse of :func:`encode_query`; :class:`DataError` on any
    malformed, truncated or corrupted body."""
    seq, count, flags = _unseal(data, QUERY_KIND, _QUERY_HEAD)
    offset = _SEAL.size + _QUERY_HEAD.size
    trace = None
    if flags & ~(_TRACE_SEED | _TRACE_ID) or flags == _TRACE_ID:
        raise DataError("unknown trace flags 0x%02x" % flags)
    if flags:
        _need(data, offset + _TRACE.size)
        seed, span = _TRACE.unpack_from(data, offset)
        offset += _TRACE.size
        trace = {"id": "%016x" % span if flags & _TRACE_ID else None,
                 "seed": seed}
    if len(data) != offset + 9 * count:
        raise DataError("query frame is %d bytes, its header says %d"
                        % (len(data), offset + 9 * count))
    codes = data[offset:offset + count]
    if count and max(codes) >= len(OPS):
        raise DataError("unknown query op code %d" % max(codes))
    keys = struct.unpack_from("<%dq" % count, data, offset + count)
    return QueryFrame(seq, trace,
                      list(zip(map(OPS.__getitem__, codes), keys)))


# -- the answer table ---------------------------------------------------------


def encode_answers(seq: int, epoch: int, token: int,
                   answers: Sequence[Any]) -> bytes:
    """One answer-table body for ``answers`` (objects with ``op``,
    ``key`` and ``value``, as :class:`~repro.serving.service.Answer`).

    Strings, links and link tuples are interned per frame by identity:
    the compiled map hands out one object per row, so each distinct
    link crosses the wire once however many answers name it."""
    strings: Dict[str, int] = {}
    link_rows: List[bytes] = []
    link_at: Dict[int, int] = {}
    run_counts: List[int] = []
    run_refs: List[int] = []
    run_at: Dict[int, int] = {}
    records: List[bytes] = []
    # ``text(s, len(strings))``: the string-table index of ``s``, which
    # is appended if new (one C call; this runs several times a link).
    text = strings.setdefault

    def run(links: Sequence[BorderLink]) -> int:
        index = run_at.get(id(links))
        if index is None:
            for link in links:
                row = link_at.get(id(link))
                if row is None:
                    row = link_at[id(link)] = len(link_rows)
                    far = link.far_router
                    link_rows.append(LINK.pack(
                        link.index, text(link.vp_name, len(strings)),
                        link.near_router, 0 if far is None else far,
                        link.neighbor_as,
                        text(link.relationship, len(strings)),
                        text(link.reason, len(strings)),
                        (_LINK_IXP if link.via_ixp else 0)
                        | (0 if far is None else _LINK_FAR),
                    ))
                run_refs.append(row)
            index = run_at[id(links)] = len(run_counts)
            run_counts.append(len(links))
        return index

    pack = RECORD.pack
    append = records.append
    for answer in answers:
        op = answer.op
        value = answer.value
        code = _OP_CODES[op]
        if value is None:
            append(pack(code, TAG_NONE, answer.key, 0, 0, 0, 0, 0.0))
        elif op == "owner":
            router = value.router
            if router is None:
                append(pack(code, TAG_BGP, answer.key, value.asn, 0,
                            text(value.source, len(strings)), 0, 0.0))
            else:
                append(pack(code, TAG_INTERFACE, answer.key, value.asn,
                            router, text(value.source, len(strings)), 0,
                            0.0))
        elif op == "border":
            append(pack(code, TAG_LINKS, answer.key, 0, 0, 0, run(value),
                        0.0))
        else:
            append(pack(code, TAG_NEIGHBOR, answer.key, value.asn, 0,
                        text(value.relationship, len(strings)),
                        run(value.links), value.best_confidence))
    encoded = [string.encode("utf-8") for string in strings]
    return _seal(ANSWERS_KIND, b"".join((
        _ANSWERS_HEAD.pack(seq, epoch, token, len(encoded), len(link_rows),
                           len(run_counts), len(records)),
        struct.pack("<%dI" % len(encoded), *map(len, encoded)),
        *encoded,
        *link_rows,
        struct.pack("<%dI" % len(run_counts), *run_counts),
        struct.pack("<%dI" % len(run_refs), *run_refs),
        *records,
    )))


def decode_answers(data: bytes) -> AnswerTable:
    """Inverse of :func:`encode_answers`: every answer value rebuilt as
    the equal :class:`Ownership` / link tuple / :class:`NeighborInfo`,
    each distinct link and link tuple built once per frame.
    :class:`DataError` on any malformed, truncated or corrupted body."""
    (seq, epoch, token, n_strings, n_links, n_runs,
     n_answers) = _unseal(data, ANSWERS_KIND, _ANSWERS_HEAD)
    view = memoryview(data)
    offset = _SEAL.size + _ANSWERS_HEAD.size
    try:
        _need(data, offset + 4 * n_strings)
        lengths = struct.unpack_from("<%dI" % n_strings, data, offset)
        offset += 4 * n_strings
        _need(data, offset + sum(lengths))
        strings = []
        for length in lengths:
            strings.append(str(view[offset:offset + length], "utf-8"))
            offset += length

        end = offset + LINK.size * n_links
        _need(data, end)
        links = []
        for (index, vp_name, near, far, neighbor_as, relationship, reason,
             flags) in LINK.iter_unpack(view[offset:end]):
            if flags & ~(_LINK_IXP | _LINK_FAR):
                raise DataError("unknown link flags 0x%02x" % flags)
            links.append(BorderLink(
                index, strings[vp_name], near,
                far if flags & _LINK_FAR else None, neighbor_as,
                strings[relationship], strings[reason],
                bool(flags & _LINK_IXP),
            ))
        offset = end

        _need(data, offset + 4 * n_runs)
        counts = struct.unpack_from("<%dI" % n_runs, data, offset)
        offset += 4 * n_runs
        total = sum(counts)
        _need(data, offset + 4 * total)
        refs = struct.unpack_from("<%dI" % total, data, offset)
        offset += 4 * total
        runs = []
        start = 0
        for count in counts:
            runs.append(tuple([links[i] for i in refs[start:start + count]]))
            start += count

        if len(data) != offset + RECORD.size * n_answers:
            raise DataError("answer table is %d bytes, its header says %d"
                            % (len(data), offset + RECORD.size * n_answers))
        entries = []
        append = entries.append
        for code, tag, key, asn, router, text, run, confidence in \
                RECORD.iter_unpack(view[offset:]):
            if tag == TAG_INTERFACE:
                value = Ownership(asn, strings[text], router)
            elif tag == TAG_BGP:
                value = Ownership(asn, strings[text], None)
            elif tag == TAG_LINKS:
                value = runs[run]
            elif tag == TAG_NONE:
                value = None
            elif tag == TAG_NEIGHBOR:
                value = NeighborInfo(asn, strings[text], runs[run],
                                     confidence)
            else:
                raise DataError("unknown answer tag %d" % tag)
            append((OPS[code], key, value, epoch))
    except IndexError as exc:
        raise DataError("answer table index out of range: %s" % exc) \
            from None
    except UnicodeDecodeError as exc:
        raise DataError("malformed answer-table string: %s" % exc) \
            from None
    return AnswerTable(seq, epoch, token, entries)
