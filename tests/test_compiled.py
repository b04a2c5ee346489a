"""Tests for the zero-copy compiled data plane (`repro.serving.compiled`).

The contract under test: :class:`CompiledBorderMap` answers every query
**byte-identically** to the dict :class:`BorderMap` it was lowered from
— on the mini scenario, on randomized property-based maps, after a
save/load round trip through the binary container, and from a freshly
spawned worker process mapping the same artifact.  Corruption must
surface as :class:`DataError` naming the section, and both backends
must serve interchangeably behind :class:`QueryEngine` /
:class:`BorderMapService`.
"""

import json
import tempfile
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings

from repro.errors import DataError
from repro.io import bordermap_to_dict, load_border_map, save_border_map
from repro.serving import (
    BIN_FORMAT,
    BorderMap,
    BorderMapBackend,
    BorderMapService,
    CompiledBorderMap,
    QueryEngine,
    compile_border_map,
    compile_map,
    load_compiled_map,
    load_served_map,
    save_compiled_map,
)
from repro.serving.compiled import NONE_U32, _U32_SECTIONS
from tests.test_serving import border_maps


@pytest.fixture(scope="module")
def dict_map(mini_data, mini_result):
    return compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="test",
    )


@pytest.fixture(scope="module")
def flat_map(dict_map):
    return CompiledBorderMap.from_border_map(dict_map)


def _probe_addrs(bmap):
    """Addresses that exercise every code path: interface exact hits,
    prefix interior/boundary, and the unrouted edges of the space."""
    addrs = [addr for router in bmap.routers for addr in router.addrs]
    for prefix, _ in bmap.prefixes:
        addrs += [prefix.addr, prefix.addr + prefix.size // 2, prefix.last]
        if prefix.last + 1 < (1 << 32):
            addrs.append(prefix.last + 1)
        if prefix.addr > 0:
            addrs.append(prefix.addr - 1)
    addrs += [0, (1 << 32) - 1]
    return addrs


def _assert_identical_answers(bmap, other):
    addrs = _probe_addrs(bmap)
    for addr in addrs:
        assert other.owner_of(addr) == bmap.owner_of(addr)
        assert other.dst_as(addr) == bmap.dst_as(addr)
        assert other.border_for(addr) == bmap.border_for(addr)
    assert other.owner_of_batch(addrs) == bmap.owner_of_batch(addrs)
    assert other.neighbor_ases() == bmap.neighbor_ases()
    for asn in list(bmap.neighbor_ases()) + [bmap.focal_asn, 4200000000]:
        assert other.neighbors(asn) == bmap.neighbors(asn)


class TestLowering:
    def test_every_answer_identical(self, dict_map, flat_map):
        _assert_identical_answers(dict_map, flat_map)

    def test_metadata_identical(self, dict_map, flat_map):
        assert flat_map.focal_asn == dict_map.focal_asn
        assert flat_map.vp_ases == dict_map.vp_ases
        assert flat_map.epoch == dict_map.epoch
        assert flat_map.source == dict_map.source
        assert flat_map.as_table == dict_map.as_table
        assert flat_map.stats() == dict_map.stats()
        assert flat_map.interface_count() == dict_map.interface_count()

    def test_rows_materialize_identically(self, dict_map, flat_map):
        assert flat_map.routers == tuple(dict_map.routers)
        assert flat_map.links == tuple(dict_map.links)
        assert flat_map.prefixes == tuple(dict_map.prefixes)

    def test_to_border_map_round_trips(self, dict_map, flat_map):
        rehydrated = flat_map.to_border_map()
        assert bordermap_to_dict(rehydrated) == bordermap_to_dict(dict_map)

    def test_lpm_index_starts_at_zero(self, flat_map):
        assert flat_map._lpm_base[0] == 0

    def test_compile_map_alias(self, dict_map):
        assert compile_map(dict_map).stats() == dict_map.stats()

    def test_satisfies_backend_protocol(self, dict_map, flat_map):
        assert isinstance(dict_map, BorderMapBackend)
        assert isinstance(flat_map, BorderMapBackend)

    def test_load_is_lazy(self, flat_map, tmp_path):
        """Loading the binary must not materialize any dataclass rows —
        that is what keeps load O(sections)."""
        path = str(tmp_path / "map.bdrm")
        save_compiled_map(flat_map, path)
        loaded = load_compiled_map(path)
        try:
            assert loaded._routers_memo is None
            assert loaded._prefixes_memo is None
            assert not any(loaded._link_memo)
            assert not any(loaded._owner_memo)
        finally:
            loaded.close()


class TestBinaryRoundTrip:
    def test_save_load_identical(self, dict_map, flat_map, tmp_path):
        path = str(tmp_path / "map.bdrm")
        written = save_compiled_map(flat_map, path)
        assert written > 0
        loaded = load_compiled_map(path)
        try:
            _assert_identical_answers(dict_map, loaded)
            assert loaded.epoch == dict_map.epoch
            assert loaded.source == dict_map.source
            assert loaded.vp_ases == dict_map.vp_ases
        finally:
            loaded.close()

    def test_save_accepts_dict_map(self, dict_map, tmp_path):
        path = str(tmp_path / "from_dict.bdrm")
        save_compiled_map(dict_map, path)
        loaded = load_compiled_map(path)
        try:
            assert loaded.stats() == dict_map.stats()
        finally:
            loaded.close()

    def test_save_border_map_format_binary(self, dict_map, tmp_path):
        path = str(tmp_path / "map.bdrm")
        save_border_map(dict_map, path, format="binary")
        loaded = load_border_map(path)
        try:
            assert isinstance(loaded, CompiledBorderMap)
            assert loaded.stats() == dict_map.stats()
        finally:
            loaded.close()

    def test_save_border_map_unknown_format(self, dict_map, tmp_path):
        with pytest.raises(DataError, match="format"):
            save_border_map(dict_map, str(tmp_path / "x"), format="xml")

    def test_load_auto_dispatches_json(self, dict_map, tmp_path):
        path = str(tmp_path / "map.json")
        save_border_map(dict_map, path)
        loaded = load_border_map(path)
        assert isinstance(loaded, BorderMap)
        assert bordermap_to_dict(loaded) == bordermap_to_dict(dict_map)

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_load_served_map_is_compiled(self, dict_map, tmp_path, fmt):
        """Both artifact formats are served as a compiled map (a JSON
        one lowered on load) with the dict map's answers."""
        path = str(tmp_path / "map.out")
        save_border_map(dict_map, path, format=fmt)
        loaded = load_served_map(path)
        try:
            assert isinstance(loaded, CompiledBorderMap)
            assert loaded.epoch == dict_map.epoch
            _assert_identical_answers(dict_map, loaded)
        finally:
            loaded.close()

    def test_wrong_meta_format_rejected(self, flat_map, tmp_path):
        path = str(tmp_path / "bad.bdrm")
        sections = flat_map.sections()
        meta = json.loads(sections["meta"])
        meta["format"] = "somebody-else/9"
        sections["meta"] = json.dumps(meta).encode("utf-8")
        from repro.io import write_container
        write_container(path, sections)
        with pytest.raises(DataError, match="format"):
            load_compiled_map(path)

    def test_meta_format_tag(self, flat_map):
        assert json.loads(flat_map.sections()["meta"])["format"] == BIN_FORMAT


class TestCorruption:
    @pytest.fixture()
    def artifact(self, flat_map, tmp_path):
        path = str(tmp_path / "map.bdrm")
        save_compiled_map(flat_map, path)
        return path

    def test_flipped_byte_names_section(self, artifact):
        from repro.io import open_container
        with open_container(artifact, verify=False) as container:
            offset, length, _ = container._entries["lpm_base"]
        with open(artifact, "r+b") as handle:
            handle.seek(offset + length - 1)
            handle.write(b"\xfe")
        with pytest.raises(DataError, match="'lpm_base'"):
            load_compiled_map(artifact)

    def test_truncated_artifact(self, artifact):
        with open(artifact, "rb") as handle:
            data = handle.read()
        with open(artifact, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(DataError):
            load_compiled_map(artifact)

    def test_missing_table_section(self, flat_map, tmp_path):
        from repro.io import write_container
        path = str(tmp_path / "missing.bdrm")
        sections = flat_map.sections()
        del sections["lk_near"]
        write_container(path, sections)
        with pytest.raises(DataError, match="'lk_near'"):
            load_compiled_map(path)

    def test_ragged_table_rejected(self, flat_map, tmp_path):
        # Checksums intact, but one column is short a row: the shape
        # check has to catch what the container cannot.
        from repro.io import write_container
        path = str(tmp_path / "ragged.bdrm")
        sections = flat_map.sections()
        sections["rt_rid"] = sections["rt_rid"][:-4]
        write_container(path, sections)
        with pytest.raises(DataError, match="rt_rid"):
            load_compiled_map(path)

    def test_non_whole_item_count_rejected(self, flat_map, tmp_path):
        from repro.io import write_container
        path = str(tmp_path / "odd.bdrm")
        sections = flat_map.sections()
        sections["lpm_origin"] = sections["lpm_origin"] + b"\x01\x02"
        write_container(path, sections)
        with pytest.raises(DataError, match="'lpm_origin'"):
            load_compiled_map(path)

    def test_meta_json_corruption(self, flat_map, tmp_path):
        from repro.io import write_container
        path = str(tmp_path / "badmeta.bdrm")
        sections = flat_map.sections()
        sections["meta"] = b"{not json"
        write_container(path, sections)
        with pytest.raises(DataError, match="'meta'"):
            load_compiled_map(path)


class TestBackendsBehindEngine:
    def test_engine_answers_match(self, dict_map, flat_map):
        dict_engine = QueryEngine(dict_map)
        flat_engine = QueryEngine(flat_map)
        addrs = _probe_addrs(dict_map)[:64]
        assert flat_engine.owner_of_batch(addrs) == \
            dict_engine.owner_of_batch(addrs)
        assert flat_engine.border_for_batch(addrs) == \
            dict_engine.border_for_batch(addrs)

    def test_service_serves_compiled(self, dict_map, flat_map):
        service = BorderMapService(flat_map)
        addr = dict_map.routers[0].addrs[0]
        [answer] = service.batch([("owner", addr)])
        assert answer.value == dict_map.owner_of(addr)
        assert answer.epoch == flat_map.epoch

    def test_service_swaps_between_backends(self, dict_map, mini_data,
                                            mini_result):
        service = BorderMapService(dict_map)
        upgraded = CompiledBorderMap.from_border_map(
            compile_border_map(
                [mini_result], view=mini_data.view, rels=mini_data.rels,
                epoch=dict_map.epoch + 1, source="swap",
            )
        )
        retired = service.swap(upgraded)
        assert retired == dict_map.epoch
        addr = dict_map.routers[0].addrs[0]
        assert service.batch([("owner", addr)])[0].epoch == upgraded.epoch


class TestPropertyLowering:
    @settings(max_examples=40, deadline=None)
    @given(border_maps())
    def test_random_maps_lower_identically(self, bmap):
        flat = CompiledBorderMap.from_border_map(bmap)
        _assert_identical_answers(bmap, flat)

    @settings(max_examples=15, deadline=None)
    @given(border_maps())
    def test_random_maps_survive_the_container(self, bmap):
        flat = CompiledBorderMap.from_border_map(bmap)
        with tempfile.TemporaryDirectory() as workdir:
            path = workdir + "/map.bdrm"
            save_compiled_map(flat, path)
            loaded = load_compiled_map(path)
            try:
                _assert_identical_answers(bmap, loaded)
            finally:
                loaded.close()


def _child_answers(path, addrs, asns):
    """Spawn-context worker: map the artifact and answer queries.

    Module-level so the child can import it; returns plain dataclass
    values (picklable) for the parent to compare.
    """
    worker_map = load_compiled_map(path)
    try:
        return {
            "owners": [worker_map.owner_of(addr) for addr in addrs],
            "batch": worker_map.owner_of_batch(addrs),
            "dst": [worker_map.dst_as(addr) for addr in addrs],
            "borders": [worker_map.border_for(addr) for addr in addrs],
            "neighbors": [worker_map.neighbors(asn) for asn in asns],
            "stats": worker_map.stats(),
        }
    finally:
        worker_map.close()


class TestCrossProcess:
    def test_spawned_worker_serves_identical_answers(
        self, dict_map, flat_map, tmp_path
    ):
        import multiprocessing

        path = str(tmp_path / "shared.bdrm")
        save_compiled_map(flat_map, path)
        addrs = _probe_addrs(dict_map)[:80]
        asns = list(dict_map.neighbor_ases())
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=context) as executor:
            answers = executor.submit(
                _child_answers, path, addrs, asns
            ).result(timeout=120)
        assert answers["owners"] == [dict_map.owner_of(a) for a in addrs]
        assert answers["batch"] == dict_map.owner_of_batch(addrs)
        assert answers["dst"] == [dict_map.dst_as(a) for a in addrs]
        assert answers["borders"] == [dict_map.border_for(a) for a in addrs]
        assert answers["neighbors"] == [
            dict_map.neighbors(asn) for asn in asns
        ]
        assert answers["stats"] == dict_map.stats()

    def test_sections_cover_all_tables(self, flat_map):
        names = set(flat_map.sections())
        assert names.issuperset(_U32_SECTIONS)
        assert "meta" in names

    def test_none_sentinel_not_a_valid_index(self, flat_map):
        assert len(flat_map._ases) < NONE_U32
