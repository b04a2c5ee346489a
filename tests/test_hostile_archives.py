"""Hostile input for every ``repro.io`` JSON loader: a damaged archive
either loads or fails with DataError, never with anything else.

Modelled on ``tests/test_wire.py``: one small valid archive of each kind,
built from mini, then every mutation of it — truncations, bytes that are
not UTF-8, and the whole document, each top-level field and each field of
each table's first record replaced by a value of the wrong type.
"""

import itertools
import json

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.core.bdrmap import Bdrmap
from repro.core.orchestrator import MultiVPOrchestrator
from repro.core.parallel import ParallelOrchestrator, ScenarioSpec
from repro.errors import DataError
from repro.io import (
    load_border_map,
    load_bundle,
    load_checkpoint,
    load_report,
    load_result,
    save_border_map,
    save_bundle,
    save_report,
    save_result,
)
from repro.obs.metrics import MetricsRegistry

SWAPS = (None, [], {}, "x", -1)
CUTS = 64


def mutations(document: bytes):
    """(label, bytes) for each damaged copy of one JSON archive."""
    for cut in range(CUTS):
        end = len(document) * cut // CUTS
        yield "cut@%d" % end, document[:end]
    yield "non-utf8 head", b"\xff" + document
    middle = len(document) // 2
    yield "non-utf8 middle", document[:middle] + b"\xc3\x28" + document[middle:]
    data = json.loads(document)
    for value in SWAPS:
        yield "document=%r" % (value,), json.dumps(value).encode()
    for key in list(data):
        original = data[key]
        for value in SWAPS:
            data[key] = value
            yield "%s=%r" % (key, value), json.dumps(data).encode()
        data[key] = original
    for key, table in data.items():
        if not (isinstance(table, list) and table
                and isinstance(table[0], (dict, list))):
            continue
        record = table[0]
        fields = list(record) if isinstance(record, dict) \
            else range(len(record))
        for field in fields:
            original = record[field]
            for value in SWAPS:
                record[field] = value
                yield ("%s[0].%s=%r" % (key, field, value),
                       json.dumps(data).encode())
            record[field] = original


def survivors(document: bytes, load) -> list:
    """Each mutation whose load raised something other than DataError."""
    wrong = []
    for label, damaged in mutations(document):
        try:
            load(damaged)
        except DataError:
            pass
        except Exception as exc:  # noqa: BLE001 - the failure under test
            wrong.append("%s: %r" % (label, exc))
    return wrong


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """One small valid archive of each kind, as bytes, plus what the
    resume paths need to run against them."""
    root = tmp_path_factory.mktemp("archives")
    scenario = build_scenario(mini(seed=1, n_vps=1))
    data = build_data_bundle(scenario)
    checkpoint = root / "ck.json"
    run = MultiVPOrchestrator(
        scenario, data=data, interleave=False,
        checkpoint_path=str(checkpoint), metrics=MetricsRegistry(),
    ).run()
    save_result(run.results[0], str(root / "result.json"))
    save_report(run.report, str(root / "report.json"))
    save_border_map(run.to_border_map(data), str(root / "map.json"))
    driver = Bdrmap(scenario.network, scenario.vps[0], data)
    driver.run()
    collection = driver.collection
    del collection.traces[16:], collection.trace_keys[16:]
    save_bundle(str(root / "bundle"), scenario, data, collection=collection)
    found = {
        name: (root / ("%s.json" % name)).read_bytes()
        for name in ("result", "report", "map")
    }
    found.update(
        checkpoint=checkpoint.read_bytes(),
        bundle=root / "bundle",
        scenario=scenario,
        data=data,
    )
    return found


def fresh_dirs(root):
    """A new directory per damaged copy, so no case sees another's files."""
    for count in itertools.count():
        directory = root / ("case%d" % count)
        directory.mkdir()
        yield directory


@pytest.mark.parametrize("kind,loader", [
    ("result", load_result),
    ("report", load_report),
    ("map", load_border_map),
    ("checkpoint", load_checkpoint),
])
def test_loader_fails_only_with_data_error(archives, tmp_path, kind, loader):
    dirs = fresh_dirs(tmp_path)

    def load(damaged):
        path = next(dirs) / "archive.json"
        path.write_bytes(damaged)
        loader(str(path))

    load(archives[kind])  # the undamaged archive loads
    assert survivors(archives[kind], load) == []


@pytest.mark.parametrize("placement", ["ck.json", "ck.json.worker0"])
@pytest.mark.parametrize("engine", ["orchestrator", "parallel"])
def test_resume_fails_only_with_data_error(archives, tmp_path, engine,
                                           placement):
    """Both resume paths read a damaged checkpoint, as the canonical
    file and as a stranded worker partial, before any probing."""
    dirs = fresh_dirs(tmp_path)
    scenario, data = archives["scenario"], archives["data"]

    def load(damaged):
        directory = next(dirs)
        (directory / placement).write_bytes(damaged)
        checkpoint = str(directory / "ck.json")
        if engine == "orchestrator":
            MultiVPOrchestrator(
                scenario, data=data, checkpoint_path=checkpoint, resume=True
            ).run()
        else:
            ParallelOrchestrator(
                ScenarioSpec.make("mini", seed=1, n_vps=1), scenario=scenario,
                data=data, checkpoint_path=checkpoint, resume=True,
            ).run()

    load(archives["checkpoint"])
    assert survivors(archives["checkpoint"], load) == []


@pytest.mark.parametrize("name", ["traces.json", "meta.json"])
def test_bundle_fails_only_with_data_error(archives, name):
    target = archives["bundle"] / name
    document = target.read_bytes()

    def load(damaged):
        target.write_bytes(damaged)
        load_bundle(str(archives["bundle"]))

    try:
        load(document)
        assert survivors(document, load) == []
    finally:
        target.write_bytes(document)


def test_bundle_trace_with_ttl_gap_fails_with_data_error(archives):
    """A trace's hops hold TTLs 1..n (position i is TTL i + 1); a trace
    whose TTLs skip from 1 to 7 is not one this package writes, and the
    bundle fails to load with DataError instead of storing it."""
    target = archives["bundle"] / "traces.json"
    document = target.read_bytes()
    data = json.loads(document)
    hops = data["traces"][0]["hops"]
    assert len(hops) >= 2
    data["traces"][0]["hops"] = [hops[0], dict(hops[1], ttl=7)]
    try:
        target.write_text(json.dumps(data))
        with pytest.raises(DataError, match="TTL"):
            load_bundle(str(archives["bundle"]))
    finally:
        target.write_bytes(document)
