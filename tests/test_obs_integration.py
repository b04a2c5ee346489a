"""End-to-end observability: instrumented runs, determinism, CLI, lint.

The contract under test:

* one shared registry sees every layer (probing, retries, passes,
  stages) of a real run;
* every owned router's decision is explainable — provenance names the
  exact heuristic pass that decided it;
* two same-seed runs write byte-identical trace JSONL (no wall time
  anywhere in a span);
* provenance survives the result archive round-trip, and archives
  written without provenance keep their historical byte layout;
* the wall clock is read in exactly one sanctioned place
  (``repro.obs.trace.perf_clock``) — enforced by a grep lint;
* files are written in exactly two places, both atomic — enforced by
  a lint over the source's ``open`` calls.
"""

import ast
import json
import os

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.cli import main
from repro.core.bdrmap import Bdrmap
from repro.io import result_from_dict, result_to_dict
from repro.obs import DECIDING, MetricsRegistry, Tracer


def _instrumented_run(seed=1):
    scenario = build_scenario(mini(seed=seed))
    data = build_data_bundle(scenario)
    metrics = MetricsRegistry()
    tracer = Tracer(clock=lambda: scenario.network.now, seed=seed)
    scenario.network.attach_metrics(metrics)
    result = Bdrmap(
        scenario.network, scenario.vps[0], data,
        metrics=metrics, tracer=tracer,
    ).run()
    return scenario, result, metrics, tracer


@pytest.fixture(scope="module")
def instrumented():
    return _instrumented_run()


class TestEndToEndCounters:
    def test_every_layer_reports_into_one_registry(self, instrumented):
        scenario, result, metrics, tracer = instrumented
        counters = metrics.counters
        # probing layer
        assert counters["probe.sent"] == scenario.network.probes_sent
        assert (counters["probe.answered"] + counters["probe.unanswered"]
                == counters["probe.sent"])
        # scheduler + stages
        assert any(name.startswith("scheduler.") for name in counters)
        assert any(name.startswith("stage.") for name in counters)
        # heuristic passes: claims must add up to the owned routers
        claimed = sum(
            value for name, value in counters.items()
            if name.startswith("pass.") and name.endswith(".claimed")
        )
        assert claimed > 0
        # alias resolution
        assert counters["alias.pairs_tested"] > 0
        # gauges and histograms record the run's shape
        assert metrics.gauge("graph.routers") == len(result.graph.routers)
        hops = metrics.as_dict()["histograms"]["trace.hops"]
        assert hops["count"] == result.traces_run

    def test_stage_virtual_time_matches_result(self, instrumented):
        _, result, metrics, _ = instrumented
        total = sum(
            value for name, value in metrics.timers.items()
            if name.startswith("stage.")
            and name.endswith(".virtual_seconds")
        )
        assert total == pytest.approx(result.runtime_virtual_seconds)

    def test_spans_cover_the_pipeline(self, instrumented):
        _, _, _, tracer = instrumented
        names = {span.name for span in tracer.spans}
        assert "stage.collection" in names
        assert "stage.graph" in names
        assert "stage.inference" in names
        assert any(name.startswith("pass.") for name in names)

    def test_span_timestamps_are_virtual(self, instrumented):
        scenario, _, _, tracer = instrumented
        # Every span closes within the simulation's final clock reading —
        # impossible if any timestamp were a wall-clock epoch read.
        assert all(
            0.0 <= span.t0 <= span.t1 <= scenario.network.now
            for span in tracer.spans
        )


class TestProvenanceCompleteness:
    def test_every_owned_router_has_a_deciding_pass(self, instrumented):
        _, result, _, _ = instrumented
        owned = [
            rid for rid, router in result.graph.routers.items()
            if router.owner is not None
        ]
        assert owned
        for rid in owned:
            record = result.deciding_record(rid)
            assert record is not None, "router r%d has no deciding pass" % rid
            assert record.verdict in DECIDING
            assert record.section
        # and explain() surfaces it
        sample = owned[0]
        text = result.explain(sample)
        assert "decision provenance" in text
        assert "decided by" in text


class TestTraceDeterminism:
    def test_same_seed_runs_write_identical_jsonl(self):
        _, _, first_metrics, first = _instrumented_run(seed=4)
        _, _, second_metrics, second = _instrumented_run(seed=4)
        assert first.to_jsonl() == second.to_jsonl()
        # Counters and histograms are deterministic; timers are real
        # pass-latency measurements and legitimately vary per host.
        assert first_metrics.counters == second_metrics.counters
        assert (first_metrics.as_dict()["histograms"]
                == second_metrics.as_dict()["histograms"])

    def test_different_seed_changes_span_ids(self):
        _, _, _, first = _instrumented_run(seed=4)
        _, _, _, other = _instrumented_run(seed=5)
        assert (first.spans[0].sid != other.spans[0].sid)


class TestProvenanceSerialization:
    def test_roundtrip_through_result_archive(self, instrumented):
        _, result, _, _ = instrumented
        restored = result_from_dict(result_to_dict(result))
        assert restored.provenance == result.provenance
        owned = next(
            rid for rid, router in result.graph.routers.items()
            if router.owner is not None
        )
        assert restored.deciding_record(owned) == result.deciding_record(owned)

    def test_old_archives_without_provenance_still_load(self, mini_result):
        # Archives written before provenance existed have no key; they
        # must load, and re-serializing them must not invent one.
        data = result_to_dict(mini_result)
        data.pop("provenance", None)
        restored = result_from_dict(data)
        assert restored.provenance == []
        assert "provenance" not in result_to_dict(restored)


class TestObservabilityCLI:
    def _run(self, tmp_path, *extra):
        out = str(tmp_path / "res.json")
        met = str(tmp_path / "met.json")
        trc = str(tmp_path / "trace.jsonl")
        code = main([
            "run", "--name", "mini", "--seed", "1", "--out", out,
            "--metrics-out", met, "--trace-out", trc, *extra,
        ])
        assert code == 0
        return out, met, trc

    def test_run_writes_obs_artifacts(self, capsys, tmp_path):
        out, met, trc = self._run(tmp_path)
        captured = capsys.readouterr().out
        assert "metrics written to" in captured
        assert "trace written to" in captured
        payload = json.loads(open(met).read())
        assert payload["counters"]["probe.sent"] > 0
        assert all(json.loads(line)["id"]
                   for line in open(trc) if line.strip())

    def test_explain_by_rid_and_address(self, capsys, tmp_path):
        out, _, _ = self._run(tmp_path)
        capsys.readouterr()
        result = json.loads(open(out).read())
        router = next(r for r in result["routers"] if r["owner"])
        assert main(["explain", out, str(router["rid"])]) == 0
        by_rid = capsys.readouterr().out
        assert "decided by" in by_rid
        assert main(["explain", out, router["addrs"][0]]) == 0
        by_addr = capsys.readouterr().out
        assert by_rid == by_addr

    def test_explain_rejects_unknown_operands(self, capsys, tmp_path):
        out, _, _ = self._run(tmp_path)
        capsys.readouterr()
        assert main(["explain", out, "203.0.113.200"]) == 2
        assert main(["explain", out, "banana"]) == 2
        assert main(["explain", str(tmp_path / "missing.json"), "1"]) == 2

    def test_metrics_and_trace_commands(self, capsys, tmp_path):
        _, met, trc = self._run(tmp_path)
        capsys.readouterr()
        assert main(["metrics", met]) == 0
        assert "probe.sent" in capsys.readouterr().out
        assert main(["metrics", met, "--prefix", "pass."]) == 0
        listed = capsys.readouterr().out
        assert "pass." in listed
        assert "probe.sent" not in listed
        assert main(["trace", trc]) == 0
        assert "stage.collection" in capsys.readouterr().out

    def test_chaos_and_serve_bench_accept_obs_flags(self, capsys, tmp_path):
        met = str(tmp_path / "chaos_met.json")
        trc = str(tmp_path / "chaos_trace.jsonl")
        assert main([
            "chaos", "--name", "mini", "--seed", "1", "--loss", "0", "2",
            "--metrics-out", met, "--trace-out", trc,
        ]) == 0
        captured = capsys.readouterr().out
        assert "metrics written to" in captured
        payload = json.loads(open(met).read())
        assert payload["counters"]["probe.sent"] > 0
        spans = [json.loads(line) for line in open(trc) if line.strip()]
        assert any(span["name"].startswith("chaos.") for span in spans)

    def test_report_format_table(self, capsys, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["run", "--name", "mini", "--seed", "1",
                     "--all-vps", "--out", out]) == 0
        capsys.readouterr()
        assert main(["report", out, "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert "pass" in table


SOURCE_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src", "repro")
)


def _source_files():
    for directory, _, names in os.walk(SOURCE_ROOT):
        for name in names:
            if name.endswith(".py"):
                yield os.path.join(directory, name)


class TestWallClockLint:
    """The wall clock has exactly one sanctioned read point."""

    def test_no_wall_clock_outside_obs(self):
        sanctioned = os.path.join("obs", "trace.py")
        offenders = []
        for path in _source_files():
            if path.endswith(sanctioned):
                continue  # perf_clock lives here, by definition
            with open(path) as handle:
                text = handle.read()
            if "time.time(" in text:
                offenders.append("%s: time.time()" % path)
            if "time.perf_counter(" in text:
                offenders.append("%s: time.perf_counter()" % path)
        assert not offenders, (
            "wall-clock reads outside repro.obs.trace.perf_clock:\n%s"
            % "\n".join(offenders)
        )


class _FileWriters(ast.NodeVisitor):
    """(function, mode) for each call that may write a file: an
    ``open``/``fdopen`` whose mode writes, appends or creates (or is not
    a literal), and pathlib's ``write_text``/``write_bytes``.
    ``function`` is the innermost enclosing function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
        if callee in ("open", "fdopen"):
            modes = node.args[1:2] + [
                kw.value for kw in node.keywords if kw.arg == "mode"
            ]
            for mode in modes:
                text = getattr(mode, "value", None)
                if not isinstance(text, str) or set(text) & set("wax+"):
                    self.found.append((self.scope[-1], text))
        elif callee in ("write_text", "write_bytes"):
            self.found.append((self.scope[-1], callee))
        self.generic_visit(node)


class TestFileWriterLint:
    """Every file the package writes goes through one of two atomic
    writers: ``io.serialize.stage_text`` (text; ``atomic_write_text``
    and ``write_payload`` call it) and binfmt's ``write_container``."""

    def test_only_atomic_writers_open_files_for_writing(self):
        writers = set()
        for path in _source_files():
            with open(path) as handle:
                visitor = _FileWriters()
                visitor.visit(ast.parse(handle.read()))
            relative = os.path.relpath(path, SOURCE_ROOT)
            writers.update(
                (relative, function, mode)
                for function, mode in visitor.found
            )
        assert writers == {
            (os.path.join("io", "serialize.py"), "stage_text", "w"),
            (os.path.join("io", "binfmt.py"), "write_container", "wb"),
        }
