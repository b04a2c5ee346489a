"""The mmap-able binary container behind compiled border maps.

JSON artifacts deserialize: every load re-parses text, re-interns every
AS, and rebuilds every derived index.  The binary container exists so a
compiled artifact can be *mapped*, not parsed — the kernel lends the
process pages of the file, several worker processes share those pages
copy-free, and "loading" is reading a fixed-size header plus a section
table.

Layout (all integers little-endian, independent of host byte order)::

    offset 0   magic      4 bytes   b"BDRM"
           4   version    u16       container layout version (1)
           6   nsections  u16       entries in the section table
           8   flags      u32       reserved, must be 0
          12   table...   nsections * 40-byte entries:
                 name     16 bytes  ASCII, NUL padded
                 offset   u64       from file start, 8-byte aligned
                 length   u64       payload bytes (before padding)
                 crc32    u32       zlib.crc32 of the payload
                 reserved u32       must be 0
         ...   payloads, each padded to 8-byte alignment

What a section *means* is the writer's business (`repro.serving.compiled`
defines the border-map section set and its own format version inside the
``meta`` section); this module only guarantees the container: named,
checksummed, aligned byte ranges that read back as zero-copy
``memoryview``\\ s over one ``mmap``.

Corruption is never silent: a bad magic/version, a section table that
points past the end of the file (truncation), or a checksum mismatch all
raise :class:`~repro.errors.DataError` naming the offending section.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import tempfile
import zlib
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import DataError

MAGIC = b"BDRM"
CONTAINER_VERSION = 1

_HEADER = struct.Struct("<4sHHI")          # magic, version, nsections, flags
_ENTRY = struct.Struct("<16sQQII")         # name, offset, length, crc32, rsvd
_ALIGN = 8

#: Longest section name the 16-byte fixed field can hold.
MAX_NAME = 16


def _pad(length: int) -> int:
    return (-length) % _ALIGN


def _encode_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if not raw or len(raw) > MAX_NAME:
        raise DataError(
            "bad section name %r (want 1..%d ASCII bytes)" % (name, MAX_NAME)
        )
    if b"\x00" in raw:
        raise DataError("section name %r contains NUL" % name)
    return raw.ljust(MAX_NAME, b"\x00")


def write_container(
    target: Union[str, "os.PathLike[str]", io.BufferedIOBase],
    sections: Mapping[str, Union[bytes, bytearray, memoryview]],
) -> int:
    """Write ``sections`` (an ordered name→bytes mapping) as one
    container file; returns the total bytes written.

    Section payloads land in mapping order, each 8-byte aligned, each
    checksummed individually so a reader can point at exactly which
    section rotted.
    """
    entries: List[Tuple[bytes, int, int, int]] = []
    offset = _HEADER.size + _ENTRY.size * len(sections)
    offset += _pad(offset)
    blobs: List[bytes] = []
    for name, payload in sections.items():
        blob = bytes(payload)
        entries.append((_encode_name(name), offset, len(blob),
                        zlib.crc32(blob)))
        blobs.append(blob)
        offset += len(blob) + _pad(len(blob))

    out = bytearray()
    out += _HEADER.pack(MAGIC, CONTAINER_VERSION, len(sections), 0)
    for name, start, length, crc in entries:
        out += _ENTRY.pack(name, start, length, crc, 0)
    out += b"\x00" * _pad(len(out))
    for blob in blobs:
        out += blob
        out += b"\x00" * _pad(len(blob))

    if hasattr(target, "write"):
        target.write(bytes(out))
        return len(out)
    # Atomic publish: a crash mid-save (or a concurrent reader mmap-ing
    # the path) must see the old container or the new one, never a
    # truncated file whose checksums cannot even be read.
    target = os.fspath(target)
    directory = os.path.dirname(os.path.abspath(target))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(bytes(out))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(out)


def sniff(path: Union[str, "os.PathLike[str]"]) -> bool:
    """True when ``path`` starts with the container magic — how the CLI
    tells a binary artifact from a JSON one without an extension rule."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class BinaryContainer:
    """A mapped container: named sections as zero-copy memoryviews.

    The file's pages are borrowed via ``mmap`` (sharable read-only
    across processes); ``section(name)`` hands out a ``memoryview`` over
    the mapping, so no payload byte is copied into the Python heap until
    a consumer asks for one.

    Checksums are verified per section — eagerly for every section when
    ``verify=True`` (the default: no silent partial loads), or lazily on
    first access otherwise (pure O(header) open for latency-critical
    paths that trust local storage).
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        verify: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < _HEADER.size:
                raise DataError(
                    "not a border map container: %s (file too short)"
                    % self.path
                )
            self._mmap: Optional[mmap.mmap] = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except DataError:
            self._file.close()
            raise
        except (OSError, ValueError) as exc:
            self._file.close()
            raise DataError("cannot map %s: %s" % (self.path, exc)) from exc
        self._checked: Dict[str, bool] = {}
        try:
            self._entries = self._read_table(size)
            if verify:
                for name in self._entries:
                    self._verify(name)
        except DataError:
            self.close()
            raise

    # -- table ---------------------------------------------------------------

    def _read_table(self, size: int) -> "Dict[str, Tuple[int, int, int]]":
        magic, version, nsections, flags = _HEADER.unpack_from(self._mmap, 0)
        if magic != MAGIC:
            raise DataError(
                "not a border map container: %s (bad magic %r)"
                % (self.path, magic)
            )
        if version != CONTAINER_VERSION:
            raise DataError(
                "unsupported container version %d in %s (this reader "
                "understands version %d)"
                % (version, self.path, CONTAINER_VERSION)
            )
        if flags != 0:
            raise DataError(
                "unknown container flags 0x%x in %s" % (flags, self.path)
            )
        table_end = _HEADER.size + _ENTRY.size * nsections
        if table_end > size:
            raise DataError(
                "truncated container %s: section table needs %d bytes, "
                "file has %d" % (self.path, table_end, size)
            )
        entries: Dict[str, Tuple[int, int, int]] = {}
        for position in range(nsections):
            raw_name, offset, length, crc, reserved = _ENTRY.unpack_from(
                self._mmap, _HEADER.size + _ENTRY.size * position
            )
            name = raw_name.rstrip(b"\x00").decode("ascii", "replace")
            if reserved != 0:
                raise DataError(
                    "corrupt section table entry %r in %s" % (name, self.path)
                )
            if name in entries:
                raise DataError(
                    "duplicate section %r in %s" % (name, self.path)
                )
            if offset + length > size:
                raise DataError(
                    "truncated section %r in %s: wants bytes [%d, %d) of a "
                    "%d-byte file" % (name, self.path, offset,
                                      offset + length, size)
                )
            entries[name] = (offset, length, crc)
        return entries

    def _verify(self, name: str) -> None:
        if self._checked.get(name):
            return
        offset, length, crc = self._entries[name]
        actual = zlib.crc32(memoryview(self._mmap)[offset:offset + length])
        if actual != crc:
            raise DataError(
                "corrupt section %r in %s: crc32 %08x != stored %08x"
                % (name, self.path, actual, crc)
            )
        self._checked[name] = True

    # -- access --------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def section(self, name: str) -> memoryview:
        """The named section as a read-only zero-copy memoryview."""
        if self._mmap is None:
            raise DataError("container %s is closed" % self.path)
        try:
            offset, length, _ = self._entries[name]
        except KeyError:
            raise DataError(
                "missing section %r in %s (has: %s)"
                % (name, self.path, ", ".join(self._entries) or "none")
            ) from None
        self._verify(name)
        return memoryview(self._mmap)[offset:offset + length]

    def section_bytes(self, name: str) -> bytes:
        """The named section copied out as ``bytes`` (for tiny sections
        like JSON metadata, where a copy is cheaper than care)."""
        return bytes(self.section(name))

    def close(self) -> None:
        """Release the mapping.  Any memoryview handed out earlier keeps
        the pages alive until it is itself released."""
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Exported memoryviews still alive; the mapping dies with
                # them.  Dropping our reference is the best we can do.
                pass
            self._mmap = None
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "BinaryContainer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_container(
    path: Union[str, "os.PathLike[str]"], verify: bool = True
) -> BinaryContainer:
    """Map ``path`` and return its :class:`BinaryContainer`."""
    return BinaryContainer(path, verify=verify)
