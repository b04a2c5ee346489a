"""Hostile bytes for the binary decoders: every truncation and single-byte
flip of a compiled artifact, a map patch or a framed shard command or
reply either loads or fails with DataError, never with anything else.

Modelled on ``tests/test_hostile_archives.py``.  The artifact and patch
are built from mini.  The flips stride over the artifact and the patch
(every third byte, which still meets every offset modulo the container's
8-byte alignment) so the module stays a few seconds long.
"""

import io
from types import SimpleNamespace

import pytest

from repro.errors import DataError
from repro.remote.protocol import (
    Command,
    Reply,
    decode,
    encode,
    pack_frame,
    unpack_frame,
)
from repro.serving import BorderMap, compile_border_map
from repro.serving.compiled import (
    apply_map_patch,
    compile_map,
    load_compiled_map,
    load_map_patch,
    patch_compiled_map,
    save_compiled_map,
    save_map_patch,
)
from repro.serving.shard import ShardWorker

MASKS = (0x01, 0x80, 0xFF)
STRIDE = 3


def mutations(blob: bytes, stride: int):
    """(label, bytes) for every truncation of ``blob`` and each
    :data:`MASKS` flip of every ``stride``-th byte."""
    for end in range(len(blob)):
        yield "cut@%d" % end, blob[:end]
    for position in range(0, len(blob), stride):
        for mask in MASKS:
            damaged = bytearray(blob)
            damaged[position] ^= mask
            yield "flip@%d^0x%02x" % (position, mask), bytes(damaged)


def survivors(blob: bytes, load, path=None, stride: int = STRIDE) -> list:
    """Each mutation whose load raised something other than DataError.
    With ``path``, each mutation is written there and ``load`` gets the
    path; otherwise it gets the bytes."""
    wrong = []
    for label, damaged in mutations(blob, stride):
        source = damaged
        if path is not None:
            with open(path, "wb") as handle:
                handle.write(damaged)
            source = path
        try:
            load(source)
        except DataError:
            pass
        except Exception as exc:  # noqa: BLE001 - the failure under test
            wrong.append("%s: %r" % (label, exc))
    return wrong


@pytest.fixture(scope="module")
def artifacts(mini_data, mini_result, tmp_path_factory):
    """A mini artifact, and a patch from it to a map with one link and
    one prefix fewer."""
    workdir = tmp_path_factory.mktemp("hostile-binary")
    bmap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="hostile-binary",
    )
    smaller = BorderMap(
        bmap.focal_asn, bmap.vp_ases, bmap.routers, bmap.links[:-1],
        bmap.prefixes[:-1], epoch=2, source="hostile-binary",
    )
    _, patch = patch_compiled_map(compile_map(bmap), smaller)
    base_path = str(workdir / "base.bdrm")
    patch_path = str(workdir / "patch.bdrm")
    save_compiled_map(bmap, base_path)
    save_map_patch(patch, patch_path)
    with open(base_path, "rb") as handle:
        base_bytes = handle.read()
    with open(patch_path, "rb") as handle:
        patch_bytes = handle.read()
    return SimpleNamespace(
        base_path=base_path, base_bytes=base_bytes, patch_bytes=patch_bytes,
        addr=bmap.routers[0].addrs[0], asn=bmap.neighbor_ases()[0],
    )


class TestHostileBinary:
    def test_compiled_map_loads_or_fails_cleanly(self, artifacts, tmp_path):
        def load_and_query(path):
            compiled = load_compiled_map(path)
            try:
                compiled.owner_of(artifacts.addr)
                compiled.border_for(artifacts.addr)
                compiled.neighbors(artifacts.asn)
            finally:
                compiled.close()

        load_and_query(artifacts.base_path)  # the intact artifact serves
        path = str(tmp_path / "damaged.bdrm")
        assert survivors(artifacts.base_bytes, load_and_query, path) == []

    def test_map_patch_loads_or_fails_cleanly(self, artifacts, tmp_path):
        def load_and_apply(path):
            load_map_patch(path)
            apply_map_patch(artifacts.base_path, path, io.BytesIO())

        intact = str(tmp_path / "patch.bdrm")
        with open(intact, "wb") as handle:
            handle.write(artifacts.patch_bytes)
        load_and_apply(intact)
        path = str(tmp_path / "damaged.patch.bdrm")
        assert survivors(artifacts.patch_bytes, load_and_apply, path) == []

    def test_frame_unpacks_or_fails_cleanly(self, artifacts):
        """Every mutation of a framed command and of a framed reply
        decodes or raises DataError (a flipped type tag included), and a
        shard worker handed it answers with a well-formed frame instead
        of raising."""
        worker = ShardWorker(artifacts.base_path)
        try:
            for message in (Command(op="ping", args={}, seq=1),
                            Reply(seq=1, payload={"epoch": 1, "token": 0})):
                frame = pack_frame(encode(message))
                assert decode(unpack_frame(frame)) == message
                assert survivors(
                    frame, lambda data: decode(unpack_frame(data)), stride=1
                ) == []
                escaped = []
                for label, damaged in mutations(frame, stride=1):
                    try:
                        unpack_frame(worker.handle_frame(damaged))
                    except Exception as exc:  # noqa: BLE001 - under test
                        escaped.append("%s: %r" % (label, exc))
                assert escaped == [], type(message).__name__
        finally:
            worker.close()
