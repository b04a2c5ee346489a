"""Tests for JSON serialization and the CLI."""

import io
import json
import os

import pytest

from repro.cli import main
from repro.errors import DataError
from repro.io import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
    trace_from_dict,
    trace_to_dict,
)
from repro.probing.traceroute import TraceResult
from repro.net import ResponseKind


class TestTraceSerialization:
    def _trace(self):
        return TraceResult(
            vp_addr=0x0A00000A,
            dst=0x14000001,
            stop_reason="completed",
            probes_used=4,
            addrs=(0x0A000001, None, 0x14000001),
            kinds=(ResponseKind.TTL_EXPIRED, None, ResponseKind.ECHO_REPLY),
            rtts=(1.5, 0.0, 4.5),
            ipids=(42, 0, 7),
        )

    def test_roundtrip(self):
        trace = self._trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored == trace

    def test_dict_is_json_safe(self):
        json.dumps(trace_to_dict(self._trace()))

    def test_malformed_rejected(self):
        with pytest.raises(DataError):
            trace_from_dict({"vp": "1.2.3.4"})
        record = trace_to_dict(self._trace())
        for field, value in (("stop_reason", 5), ("probes", "4"),
                             ("probes", None), ("retries", 1.5),
                             ("recovered", True), ("silent", [])):
            with pytest.raises(DataError, match="wrong types"):
                trace_from_dict(dict(record, **{field: value}))


class TestResultSerialization:
    def test_roundtrip_preserves_everything(self, mini_result):
        restored = result_from_dict(result_to_dict(mini_result))
        assert restored.vp_name == mini_result.vp_name
        assert restored.vp_addr == mini_result.vp_addr
        assert restored.focal_asn == mini_result.focal_asn
        assert restored.vp_ases == mini_result.vp_ases
        assert restored.border_pairs() == mini_result.border_pairs()
        assert set(restored.graph.routers) == set(mini_result.graph.routers)
        for rid, router in mini_result.graph.routers.items():
            copy = restored.graph.routers[rid]
            assert copy.addrs == router.addrs
            assert copy.owner == router.owner
            assert copy.reason == router.reason
            assert copy.dsts == router.dsts
        assert restored.graph.succ == mini_result.graph.succ
        assert len(restored.graph.paths) == len(mini_result.graph.paths)

    def test_roundtrip_supports_analysis(self, mini_result, mini_scenario):
        """A loaded result must work with the analysis layer."""
        from repro.analysis import validate_result

        restored = result_from_dict(result_to_dict(mini_result))
        fresh = validate_result(mini_result, mini_scenario.internet)
        loaded = validate_result(restored, mini_scenario.internet)
        assert fresh.accuracy == loaded.accuracy

    def test_file_roundtrip(self, mini_result, tmp_path):
        path = tmp_path / "run.json"
        save_result(mini_result, str(path))
        restored = load_result(str(path))
        assert restored.border_pairs() == mini_result.border_pairs()

    def test_stream_roundtrip(self, mini_result):
        buffer = io.StringIO()
        save_result(mini_result, buffer)
        buffer.seek(0)
        restored = load_result(buffer)
        assert restored.border_pairs() == mini_result.border_pairs()

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            result_from_dict({"format": "other/9"})


class TestCLI:
    def test_scenario_command(self, capsys):
        assert main(["scenario", "--name", "mini", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "focal network" in output
        assert "routers" in output

    def test_run_and_show(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        assert main(["run", "--name", "mini", "--seed", "1",
                     "--out", path, "--validate"]) == 0
        output = capsys.readouterr().out
        assert "links correct" in output
        assert main(["show", path, "--links"]) == 0
        output = capsys.readouterr().out
        assert "interdomain links" in output
        assert "neighbor-AS" in output

    def test_run_out_write_is_atomic(self, capsys, tmp_path, monkeypatch):
        """A run file save that fails before it is durable leaves the
        previous file byte for byte and no temp litter."""
        target = tmp_path / "run.json"

        def run(seed):
            return main(["run", "--name", "mini", "--seed", str(seed),
                         "--all-vps", "--run-out", str(target)])

        assert run(1) == 0
        before = target.read_bytes()
        assert json.loads(before)["results"]

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            run(3)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_run_bad_vp_index(self, capsys):
        assert main(["run", "--name", "mini", "--vp", "99"]) == 2

    def test_table1_command(self, capsys):
        assert main(["table1", "--names", "mini", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Coverage of BGP" in output

    def test_study_command_mini(self, capsys):
        assert main(["study", "--name", "mini", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "diversity" in output

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--name", "nope"])


class TestTextRendering:
    def test_format_trace_basic(self):
        from repro.io.text import format_trace

        trace = TraceResult(
            vp_addr=0x0A00000A,
            dst=0x14000001,
            stop_reason="completed",
            addrs=(0x0A000001, None, 0x14000001),
            kinds=(ResponseKind.TTL_EXPIRED, None, ResponseKind.ECHO_REPLY),
            rtts=(1.5, 0.0, 4.5),
            ipids=(42, 0, 7),
        )
        text = format_trace(trace)
        lines = text.splitlines()
        assert "traceroute to 20.0.0.1" in lines[0]
        assert lines[1].startswith(" 1  10.0.0.1")
        assert lines[2] == " 2  *"
        assert "20.0.0.1" in lines[3]

    def test_format_trace_with_names(self):
        from repro.io.text import format_trace

        trace = TraceResult(
            vp_addr=1,
            dst=0x14000001,
            addrs=(0x0A000001,),
            kinds=(ResponseKind.TTL_EXPIRED,),
            rtts=(1.5,),
            ipids=(0,),
        )
        text = format_trace(trace, name_of=lambda addr: "r1.sea.example.net")
        assert "r1.sea.example.net (10.0.0.1)" in text

    def test_format_trace_unreach_note(self):
        from repro.io.text import format_trace

        trace = TraceResult(
            vp_addr=1,
            dst=0x14000001,
            addrs=(0x0A000001,),
            kinds=(ResponseKind.DEST_UNREACH_ADMIN,),
            rtts=(1.0,),
            ipids=(0,),
        )
        assert "!X" in format_trace(trace)

    def test_format_result_groups_by_neighbor(self, mini_result):
        from repro.io.text import format_result

        text = format_result(mini_result)
        assert "# bdrmap" in text
        for asn in sorted(mini_result.neighbor_ases())[:3]:
            assert "AS%d:" % asn in text

    def test_format_result_marks_silent(self, mini_result):
        from repro.io.text import format_result

        if any(l.far_rid is None for l in mini_result.links):
            assert "(silent)" in format_result(mini_result)


class TestCongestCommand:
    def test_congest_runs(self, capsys):
        assert main(["congest", "--name", "mini", "--seed", "5",
                     "--days", "1", "--links", "2"]) == 0
        output = capsys.readouterr().out
        assert "monitored" in output
        assert "detected" in output


from hypothesis import given, strategies as st

_addr = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def _random_trace(draw):
    addrs, kinds, rtts, ipids = [], [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if draw(st.booleans()):
            hop = (None, None, 0.0, 0)
        else:
            hop = (
                draw(_addr),
                draw(st.sampled_from(list(ResponseKind))),
                round(draw(st.floats(min_value=0, max_value=500)), 3),
                draw(st.integers(min_value=0, max_value=0xFFFF)),
            )
        for column, value in zip((addrs, kinds, rtts, ipids), hop):
            column.append(value)
    return TraceResult(
        vp_addr=draw(_addr),
        dst=draw(_addr),
        stop_reason=draw(
            st.sampled_from(["completed", "gaplimit", "maxttl", "stopset"])
        ),
        probes_used=draw(st.integers(min_value=0, max_value=100)),
        addrs=addrs,
        kinds=kinds,
        rtts=rtts,
        ipids=ipids,
    )


class TestSerializationProperties:
    @given(_random_trace())
    def test_any_trace_roundtrips(self, trace):
        assert trace_from_dict(trace_to_dict(trace)) == trace

    @given(_random_trace())
    def test_dict_always_json_safe(self, trace):
        json.dumps(trace_to_dict(trace))


class TestExplain:
    def test_explain_owned_router(self, mini_result):
        rid, owner, reason = mini_result.neighbor_routers()[0]
        text = mini_result.explain(rid)
        assert "router r%d" % rid in text
        assert "AS%d" % owner in text
        assert reason in text

    def test_explain_vp_router(self, mini_result):
        vp_rids = [
            r.rid
            for r in mini_result.graph.routers.values()
            if r.owner == mini_result.focal_asn
        ]
        text = mini_result.explain(vp_rids[0])
        assert "the VP network" in text

    def test_explain_unknown_rid(self, mini_result):
        assert "no such" in mini_result.explain(10**9)

    def test_cli_show_explain(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        assert main(["run", "--name", "mini", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
        assert main(["show", path, "--explain", "1"]) == 0
        output = capsys.readouterr().out
        assert "router r1" in output


class TestOfflineInference:
    """Archive traces, reload, re-infer — identical borders, no probing."""

    def test_offline_matches_live(self, mini_scenario, mini_data):
        from repro.core.bdrmap import Bdrmap, infer_from_collection
        from repro.io.serialize import collection_from_dict, collection_to_dict

        driver = Bdrmap(mini_scenario.network, mini_scenario.vps[0], mini_data)
        live = driver.run()

        archive = collection_to_dict(driver.collection)
        json.dumps(archive)  # must be a real archive format
        restored = collection_from_dict(archive)
        offline = infer_from_collection(restored, mini_data)

        assert offline.border_pairs() == live.border_pairs()
        assert offline.neighbor_ases() == live.neighbor_ases()
        assert offline.heuristic_counts() == live.heuristic_counts()

    def test_offline_reanalysis_with_different_config(self, mini_scenario, mini_data):
        """The point of archives: re-run inference under ablations without
        re-probing."""
        from repro.core.bdrmap import Bdrmap, BdrmapConfig, infer_from_collection
        from repro.core.heuristics import DEFAULT_PASS_ORDER, HeuristicConfig
        from repro.io.serialize import collection_from_dict, collection_to_dict

        driver = Bdrmap(mini_scenario.network, mini_scenario.vps[0], mini_data)
        driver.run()
        archive = collection_to_dict(driver.collection)

        base = infer_from_collection(collection_from_dict(archive), mini_data)
        ablated = infer_from_collection(
            collection_from_dict(archive),
            mini_data,
            config=BdrmapConfig(
                heuristics=HeuristicConfig(passes=tuple(
                    name for name in DEFAULT_PASS_ORDER
                    if name not in ("relationship", "third_party")
                ))
            ),
        )
        assert not any(
            reason.startswith("5") for reason in ablated.heuristic_counts()
        )
        assert any(
            reason.startswith("5") for reason in base.heuristic_counts()
        )

    def test_archive_rejects_unknown_format(self):
        from repro.errors import DataError
        from repro.io.serialize import collection_from_dict

        with pytest.raises(DataError):
            collection_from_dict({"format": "nope"})


class TestBundles:
    def test_bundle_roundtrip(self, mini_scenario, mini_data, tmp_path):
        from repro.core.bdrmap import Bdrmap, infer_from_collection
        from repro.io import load_bundle, save_bundle

        driver = Bdrmap(mini_scenario.network, mini_scenario.vps[0], mini_data)
        live = driver.run()
        directory = str(tmp_path / "bundle")
        save_bundle(directory, mini_scenario, mini_data,
                    collection=driver.collection)

        data, collection = load_bundle(directory)
        assert data.focal_asn == mini_data.focal_asn
        assert data.vp_ases == mini_data.vp_ases
        assert set(data.view.prefixes()) == set(mini_data.view.prefixes())
        assert collection is not None
        offline = infer_from_collection(collection, data)
        assert offline.border_pairs() == live.border_pairs()

    def test_bundle_without_traces(self, mini_scenario, mini_data, tmp_path):
        from repro.io import load_bundle, save_bundle

        directory = str(tmp_path / "bundle")
        save_bundle(directory, mini_scenario, mini_data)
        data, collection = load_bundle(directory)
        assert collection is None
        assert data.rels.known_pairs() > 0

    def test_failed_save_keeps_previous_bundle(
        self, mini_scenario, mini_data, tmp_path, monkeypatch
    ):
        """A save over an existing bundle that fails before it is durable
        leaves every file of the previous bundle byte for byte, and no
        temp litter."""
        from repro import build_data_bundle, build_scenario, mini
        from repro.io import save_bundle

        directory = tmp_path / "bundle"
        save_bundle(str(directory), mini_scenario, mini_data)
        before = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        other = build_scenario(mini(seed=2))
        other_data = build_data_bundle(other)

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            save_bundle(str(directory), other, other_data)
        monkeypatch.undo()
        after = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        assert after == before
        assert list(directory.glob("*.tmp")) == []

    @staticmethod
    def _failing_from_third_call(real):
        calls = []

        def fail(*args):
            calls.append(args)
            if len(calls) >= 3:
                raise OSError(28, "No space left on device")
            return real(*args)

        return fail

    def test_resave_failing_to_stage_keeps_previous_bundle(
        self, mini_scenario, mini_data, tmp_path, monkeypatch
    ):
        """A re-save whose third fsync fails renames nothing: every file
        keeps the first bundle's bytes, and no temp file is left."""
        from repro import build_data_bundle, build_scenario, mini
        from repro.io import save_bundle

        directory = tmp_path / "bundle"
        save_bundle(str(directory), mini_scenario, mini_data)
        before = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        other = build_scenario(mini(seed=2))
        other_data = build_data_bundle(other)
        monkeypatch.setattr(os, "fsync", self._failing_from_third_call(os.fsync))
        with pytest.raises(OSError):
            save_bundle(str(directory), other, other_data)
        monkeypatch.undo()
        after = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        assert after == before

    def test_resave_without_collection_drops_old_traces(
        self, mini_scenario, mini_data, tmp_path
    ):
        from repro import build_data_bundle, build_scenario, mini
        from repro.core.bdrmap import Bdrmap
        from repro.io import load_bundle, save_bundle

        driver = Bdrmap(mini_scenario.network, mini_scenario.vps[0], mini_data)
        driver.run()
        directory = tmp_path / "bundle"
        save_bundle(str(directory), mini_scenario, mini_data,
                    collection=driver.collection)
        other = build_scenario(mini(seed=2))
        save_bundle(str(directory), other, build_data_bundle(other))
        data, collection = load_bundle(str(directory))
        assert collection is None
        assert not (directory / "traces.json").exists()
        assert data.focal_asn == other.focal_asn

    def test_resave_cut_short_while_renaming_is_refused(
        self, mini_scenario, mini_data, tmp_path, monkeypatch
    ):
        """A re-save that fails after its first renames has withdrawn the
        old meta.json, so the directory is refused, never read as a mix
        of the two bundles."""
        from repro import build_data_bundle, build_scenario, mini
        from repro.errors import DataError
        from repro.io import load_bundle, save_bundle

        directory = tmp_path / "bundle"
        save_bundle(str(directory), mini_scenario, mini_data)
        other = build_scenario(mini(seed=2))
        other_data = build_data_bundle(other)
        monkeypatch.setattr(
            os, "replace", self._failing_from_third_call(os.replace)
        )
        with pytest.raises(OSError):
            save_bundle(str(directory), other, other_data)
        monkeypatch.undo()
        assert list(directory.glob("*.tmp")) == []
        with pytest.raises(DataError):
            load_bundle(str(directory))

    def test_incomplete_bundle_rejected(self, tmp_path):
        from repro.errors import DataError
        from repro.io import load_bundle

        directory = tmp_path / "broken"
        directory.mkdir()
        (directory / "rib.txt").write_text("")
        with pytest.raises(DataError):
            load_bundle(str(directory))

    def test_cli_run_bundle_then_infer(self, capsys, tmp_path):
        directory = str(tmp_path / "b")
        assert main(["run", "--name", "mini", "--seed", "1",
                     "--bundle", directory]) == 0
        first = capsys.readouterr().out
        assert main(["infer", directory]) == 0
        second = capsys.readouterr().out
        # Identical heuristic mix from the archive.
        live_line = [l for l in first.splitlines() if "heuristics:" in l][0]
        offline_line = [l for l in second.splitlines() if "heuristics:" in l][0]
        assert live_line == offline_line

    def test_cli_infer_missing_traces(self, capsys, tmp_path, mini_scenario, mini_data):
        from repro.io import save_bundle

        directory = str(tmp_path / "nb")
        save_bundle(directory, mini_scenario, mini_data)
        assert main(["infer", directory]) == 2


class TestStudyPlot:
    def test_study_plot_flag(self, capsys):
        assert main(["study", "--name", "mini", "--seed", "1", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "Fig 15" in output
        assert "Fig 16" in output


class TestTable1CSV:
    def test_csv_flag(self, capsys):
        assert main(["table1", "--names", "mini", "--seed", "1", "--csv"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("network,row,class,value")
        assert "mini,coverage" in output


class TestCheckpointEdgeCases:
    """Checkpoint round-trips at the boundaries: nothing done yet, a VP
    that crashed mid-run, and archives from a future writer that added
    fields this reader has never heard of."""

    @staticmethod
    def _document(*entries):
        from repro.io.serialize import CHECKPOINT_FORMAT

        return {"format": CHECKPOINT_FORMAT, "vps": list(entries)}

    @staticmethod
    def _load(data):
        from repro.io import load_checkpoint

        return load_checkpoint(io.StringIO(json.dumps(data)))

    def test_empty_checkpoint_roundtrip(self, tmp_path):
        from repro.io import load_checkpoint, write_checkpoint

        path = str(tmp_path / "empty.json")
        write_checkpoint(path, [])
        results, reports = load_checkpoint(path)
        assert results == []
        assert reports == []

    def test_failed_vp_report_roundtrip(self):
        """Writers never checkpoint a failed VP, so its markers travel in
        the run report."""
        from repro.core.orchestrator import RunReport, VPReport
        from repro.io import report_from_dict, report_to_dict

        crashed = VPReport(
            vp_name="vp-crash",
            vp_addr=0x0A000001,
            traces_run=3,
            probes_used=17,
            failed=True,
            error="scheduler raised: injected fault",
        )
        data = report_to_dict(RunReport(focal_asn=1, vp_reports=[crashed]))
        # Failure markers are written only when set.
        entry = data["vps"][0]
        assert entry["failed"] is True
        assert "injected fault" in entry["error"]

        reports = report_from_dict(json.loads(json.dumps(data))).vp_reports
        assert reports[0].failed is True
        assert reports[0].error == crashed.error
        assert reports[0].retries == 0

    def test_clean_vp_report_omits_failure_fields(self, mini_result):
        from repro.core.orchestrator import VPReport
        from repro.io import checkpoint_entry

        clean = VPReport(vp_name="vp-ok", vp_addr=0x0A000002)
        entry = checkpoint_entry(mini_result, clean)["report"]
        assert "failed" not in entry
        assert "error" not in entry
        assert "retries" not in entry

    def test_unknown_fields_tolerated(self, mini_result):
        from repro.core.orchestrator import VPReport
        from repro.io import checkpoint_entry

        report = VPReport(vp_name="vp", vp_addr=0x0A000003)
        data = self._document(checkpoint_entry(mini_result, report))
        # A future writer may annotate records; this reader must ignore
        # what it does not understand rather than crash.
        data["written_by"] = "bdrmap-repro/99"
        data["vps"][0]["report"]["gps_coordinates"] = [0.0, 0.0]
        data["vps"][0]["result"]["extra_index"] = {"a": 1}
        results, reports = self._load(data)
        assert reports[0].vp_name == "vp"
        assert len(results) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            self._load({"format": "not-a-checkpoint", "vps": []})

    def test_truncated_checkpoint_rejected(self, mini_result):
        from repro.core.orchestrator import VPReport
        from repro.io import checkpoint_entry

        data = self._document(
            checkpoint_entry(mini_result, VPReport(vp_name="vp", vp_addr=1))
        )
        del data["vps"][0]["report"]["vp_addr"]
        with pytest.raises(DataError):
            self._load(data)


class TestMalformedArchiveCLI:
    """Every command that reads an archive fails on a malformed one with
    one error line and exit 2, never a traceback."""

    RUN = ["run", "--name", "mini", "--seed", "1", "--all-vps",
           "--checkpoint", "{bad}", "--resume"]

    @pytest.mark.parametrize("argv", [
        ["compile", "--checkpoint", "{bad}", "--out", "{dir}/map.json"],
        RUN,
        RUN + ["--workers", "1"],
        ["show", "{bad}"],
        ["report", "{bad}"],
        ["query", "{bad}", "owner", "1.0.0.0"],
        ["infer", "{dir}"],
    ], ids=["compile", "run-resume", "run-resume-workers", "show", "report",
            "query", "infer"])
    def test_list_document_exits_2(self, argv, tmp_path, capsys):
        from repro.io.bundle import _FILES

        for name in _FILES + ("bad.json",):
            (tmp_path / name).write_text("[]")
        argv = [arg.format(bad=tmp_path / "bad.json", dir=tmp_path)
                for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1
