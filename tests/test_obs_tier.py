"""Distributed telemetry for the sharded serving tier: trace-context
propagation over the shard protocol, deterministic cross-process trace
merges, the metrics harvest path, SLO health reports, Prometheus text
exposition, and the ``repro health`` / ``repro top`` CLI surfaces.

The acceptance bar: the same seed and workload produce a byte-identical
merged span tree whether the shards live in-process or in spawned child
processes, and a health report reads per-shard latency percentiles and
breaker state straight out of the harvested registries.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.errors import DataError
from repro.io import save_border_map
from repro.obs import (
    DEFAULT_SLO,
    HEALTH_FORMAT,
    LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    SLO,
    Tracer,
    build_health_report,
    format_span_tree,
    health_from_dict,
    load_metrics,
    load_trace,
    render_prometheus,
    sanitize_name,
    span_tree,
)
from repro.obs.trace import NULL_TRACER
from repro.remote.protocol import (
    Command,
    decode,
    encode,
    pack_frame,
    unpack_frame,
)
from repro.serving import compile_border_map, make_workload
from repro.serving.server import make_local_server, make_process_server
from repro.serving.shard import ShardWorker, span_from_wire, span_to_wire
from repro.serving.wire import decode_answers, encode_query


@pytest.fixture(scope="module")
def artifact(mini_data, mini_result, tmp_path_factory):
    """One saved epoch of the mini map plus a small workload."""
    workdir = tmp_path_factory.mktemp("obs-tier")
    bmap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="obs-tier-test",
    )
    path = str(workdir / "map-epoch1.json")
    save_border_map(bmap, path)
    workload = make_workload(bmap, 60, seed=5)
    return SimpleNamespace(bmap=bmap, path=path, workload=workload)


# -- histogram percentiles (satellite: deterministic quantiles) --------------


class TestHistogramPercentile:
    def test_empty_is_zero(self):
        assert Histogram((1, 2, 4)).percentile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        hist = Histogram((1, 2, 4))
        with pytest.raises(ValueError):
            hist.percentile(-0.1)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_interpolates_within_bucket(self):
        # Ten samples in the first bucket (0, 1]: the median sits at
        # rank 5 of 10, i.e. halfway up the bucket.
        hist = Histogram((1, 2, 4))
        for _ in range(10):
            hist.observe(0.5)
        assert hist.percentile(0.5) == pytest.approx(0.5)
        # Lower edge of the second bucket is the first bound.
        hist2 = Histogram((1, 2, 4))
        for _ in range(10):
            hist2.observe(1.5)
        assert 1.0 <= hist2.percentile(0.5) <= 2.0

    def test_overflow_clamps_to_top_bound(self):
        hist = Histogram((1, 2, 4))
        hist.observe(1000.0)
        assert hist.percentile(0.99) == 4.0

    def test_deterministic_and_monotonic(self):
        values = [0.03, 0.2, 0.2, 1.7, 9.0, 40.0, 300.0]
        a = Histogram(LATENCY_BUCKETS_MS)
        b = Histogram(LATENCY_BUCKETS_MS)
        for value in values:
            a.observe(value)
            b.observe(value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert a.percentile(q) == b.percentile(q)
        assert a.percentile(0.5) <= a.percentile(0.99)

    def test_summary_includes_percentiles(self):
        registry = MetricsRegistry()
        registry.observe("x.ms", 0.2, bounds=LATENCY_BUCKETS_MS)
        line = registry.summary()
        assert "p50=" in line and "p99=" in line


# -- delta merging under a prefix --------------------------------------------


class TestMergeDeltaPrefix:
    def _delta(self):
        source = MetricsRegistry()
        source.inc("worker.queries", 7)
        source.time("worker.query.seconds", 0.25)
        source.set_gauge("worker.epoch", 3.0)
        source.observe("worker.query.ms", 0.4, bounds=LATENCY_BUCKETS_MS)
        return source.delta_since(MetricsRegistry().snapshot())

    def test_prefix_namespaces_every_slot(self):
        registry = MetricsRegistry()
        registry.merge_delta(self._delta(), prefix="shard.2.")
        assert registry.counter("shard.2.worker.queries") == 7
        assert registry.timer("shard.2.worker.query.seconds") == 0.25
        assert registry.gauge("shard.2.worker.epoch") == 3.0
        hist = registry.histograms["shard.2.worker.query.ms"]
        assert hist.count == 1
        assert registry.counter("worker.queries") == 0

    def test_merge_is_additive(self):
        registry = MetricsRegistry()
        registry.merge_delta(self._delta(), prefix="shard.0.")
        registry.merge_delta(self._delta(), prefix="shard.0.")
        assert registry.counter("shard.0.worker.queries") == 14
        assert registry.histograms["shard.0.worker.query.ms"].count == 2

    def test_null_registry_merge_is_noop(self):
        null = NullRegistry()
        null.merge_delta(self._delta(), prefix="shard.0.")
        assert null.counters == {}
        assert null.histograms == {}
        assert null.counter("shard.0.worker.queries") == 0


# -- trace context on the wire ------------------------------------------------


class TestTraceContextWire:
    def test_round_trip(self):
        ctx = {"id": "00deadbeef00cafe", "seed": 5}
        command = Command(seq=9, op="query", args={"requests": []},
                         trace=ctx)
        restored = decode(encode(command))
        assert restored.trace == ctx
        assert restored.seq == 9 and restored.op == "query"

    def test_absent_context_keeps_frames_byte_identical(self):
        bare = Command(seq=1, op="ping", args={})
        explicit = Command(seq=1, op="ping", args={}, trace=None)
        assert encode(bare) == encode(explicit)
        assert b'"tc"' not in encode(bare)
        assert decode(encode(bare)).trace is None


# -- span trees ---------------------------------------------------------------


class TestSpanTree:
    def _spans(self):
        return [
            {"id": "a", "parent": None, "name": "root",
             "t0": 0.0, "t1": 4.0, "attrs": {}},
            {"id": "b", "parent": "a", "name": "child",
             "t0": 1.0, "t1": 2.0, "attrs": {"k": 1}},
            {"id": "c", "parent": "zz", "name": "orphan",
             "t0": 2.0, "t1": 3.0, "attrs": {}},
        ]

    def test_nests_and_orphans_become_roots(self):
        roots = span_tree(self._spans())
        assert [root["name"] for root in roots] == ["root", "orphan"]
        assert [c["name"] for c in roots[0]["children"]] == ["child"]

    def test_wire_form_round_trips(self):
        tracer = Tracer(seed=9)
        with tracer.span("shard.query", shard=1, size=4):
            pass
        span = tracer.spans[0]
        entry = span_to_wire(span)
        assert isinstance(entry, list) and len(entry) == 6
        assert span_from_wire(entry) == span.as_dict()
        with pytest.raises(DataError):
            span_from_wire(["too", "short"])

    def test_format_indents_children(self):
        text = format_span_tree(self._spans())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "k=1" in lines[1]


# -- worker-side harvest ------------------------------------------------------


class TestWorkerHarvest:
    def _query(self, worker, ctx):
        requests = [("owner", 1), ("owner", 2), ("border", 1)]
        frame = pack_frame(encode_query(1, requests, ctx))
        return decode_answers(unpack_frame(worker.handle_frame(frame)))

    def test_harvest_returns_delta_then_empty(self, artifact):
        worker = ShardWorker(artifact.path, shard_id=0)
        self._query(worker, None)
        first = worker.handle("harvest", {})
        assert first["shard"] == 0
        assert first["metrics"]["counters"]["worker.queries"] == 3
        assert "worker.query.ms" in first["metrics"]["histograms"]
        # Nothing happened since: the second delta carries only the
        # harvest's own bookkeeping, no query slots.
        second = worker.handle("harvest", {})
        assert "worker.queries" not in second["metrics"]["counters"]
        assert second["metrics"]["histograms"] == {}
        assert second["spans"] == []
        worker.close()

    def test_no_context_keeps_tracer_null(self, artifact):
        worker = ShardWorker(artifact.path, shard_id=0)
        self._query(worker, None)
        assert worker.tracer is NULL_TRACER
        assert worker.handle("harvest", {})["spans"] == []
        worker.close()

    def test_context_seeds_tracer_deterministically(self, artifact):
        worker = ShardWorker(artifact.path, shard_id=2)
        self._query(worker, {"id": "f" * 16, "seed": 5})
        expected = (5 * 1000003 + 2 + 1) & 0xFFFFFFFFFFFFFFFF
        assert worker.tracer.seed == expected
        spans = [
            span_from_wire(entry)
            for entry in worker.handle("harvest", {})["spans"]
        ]
        names = [span["name"] for span in spans]
        assert names == ["shard.decode", "shard.lookup", "shard.query"]
        query = spans[names.index("shard.query")]
        assert query["parent"] == "f" * 16
        # Drained: a second harvest ships nothing old.
        assert worker.handle("harvest", {})["spans"] == []
        worker.close()


# -- front-end canonical metrics (regression) ---------------------------------


class TestServerCanonicalMetrics:
    def test_default_registry_is_private_and_real(self, artifact):
        server, clock = make_local_server(artifact.path, epoch=1, shards=2)
        try:
            assert isinstance(server.metrics, MetricsRegistry)
            assert server.metrics.enabled
            assert server.telemetry is False
            # The supervisor books into the same registry: one source
            # of truth, no divergent private counters.
            assert server.supervisor.metrics is server.metrics
            server.batch(artifact.workload[:8])
            assert server.requests == 8
        finally:
            server.close()

    def test_disabled_registry_swapped_for_real_one(self, artifact):
        null = NullRegistry()
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2, metrics=null
        )
        try:
            assert server.metrics is not null
            assert server.metrics.enabled
            assert server.telemetry is False
            server.batch(artifact.workload[:4])
            assert server.requests == 4
        finally:
            server.close()

    def test_enabled_registry_is_canonical(self, artifact):
        registry = MetricsRegistry()
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2, metrics=registry
        )
        try:
            assert server.metrics is registry
            assert server.telemetry is True
        finally:
            server.close()

    def test_tracer_alone_enables_telemetry(self, artifact):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2, tracer=Tracer(seed=1)
        )
        try:
            assert server.telemetry is True
        finally:
            server.close()


# -- harvest fold at the front end --------------------------------------------


class TestHarvestFold:
    def test_collect_folds_under_shard_prefix(self, artifact):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2, metrics=MetricsRegistry()
        )
        try:
            server.batch(artifact.workload[:20])
            outcomes = server.collect_metrics()
            assert outcomes == {0: "harvested", 1: "harvested"}
            harvested = sum(
                server.metrics.counter("shard.%d.worker.queries" % k)
                for k in range(2)
            )
            assert harvested == 20
            assert any(
                "shard.%d.worker.query.ms" % k in server.metrics.histograms
                for k in range(2)
            )
            # Idle harvest adds bookkeeping only, no phantom queries.
            server.collect_metrics()
            harvested_again = sum(
                server.metrics.counter("shard.%d.worker.queries" % k)
                for k in range(2)
            )
            assert harvested_again == 20
        finally:
            server.close()

    def test_tick_harvests_only_with_telemetry(self, artifact):
        telem, clock = make_local_server(
            artifact.path, epoch=1, shards=2, metrics=MetricsRegistry()
        )
        plain, clock2 = make_local_server(artifact.path, epoch=1, shards=2)
        try:
            # Round-robin: one shard per tick, constant per-tick cost.
            telem.tick()
            plain.tick()
            assert telem.metrics.counter("serving.server.harvests") == 1
            telem.tick()
            assert telem.metrics.counter("serving.server.harvests") == 2
            assert plain.metrics.counter("serving.server.harvests") == 0
        finally:
            telem.close()
            plain.close()


# -- cross-process trace determinism (acceptance) -----------------------------


def _drive(server, workload):
    for start in range(0, len(workload), 16):
        server.batch(workload[start:start + 16])
    server.collect_metrics()


def _merged_jsonl(server):
    return "".join(
        json.dumps(span, sort_keys=True) + "\n"
        for span in server.merged_trace()
    )


class TestCrossProcessTraceDeterminism:
    def _run_local(self, artifact, seed):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2,
            metrics=MetricsRegistry(), tracer=Tracer(seed=seed),
        )
        try:
            _drive(server, artifact.workload)
            return _merged_jsonl(server), server.merged_trace()
        finally:
            server.close()

    def _run_process(self, artifact, seed):
        server = make_process_server(
            artifact.path, epoch=1, shards=2,
            metrics=MetricsRegistry(), tracer=Tracer(seed=seed),
        )
        try:
            _drive(server, artifact.workload)
            return _merged_jsonl(server), server.merged_trace()
        finally:
            server.close()

    def test_local_and_process_trees_byte_identical(self, artifact):
        local, spans = self._run_local(artifact, seed=5)
        proc, _ = self._run_process(artifact, seed=5)
        proc2, _ = self._run_process(artifact, seed=5)
        assert local == proc
        assert proc == proc2
        assert spans

    def test_worker_spans_parent_under_query_groups(self, artifact):
        _, spans = self._run_local(artifact, seed=5)
        names = {span["name"] for span in spans}
        assert {"server.batch", "server.query_group", "shard.query",
                "shard.decode", "shard.lookup"} <= names
        group_ids = {
            span["id"] for span in spans
            if span["name"] == "server.query_group"
        }
        queries = [s for s in spans if s["name"] == "shard.query"]
        assert queries
        assert all(span["parent"] in group_ids for span in queries)
        roots = span_tree(spans)
        assert roots
        assert all(root["name"] == "server.batch" for root in roots)

    def test_different_seeds_differ(self, artifact):
        a, _ = self._run_local(artifact, seed=5)
        b, _ = self._run_local(artifact, seed=6)
        assert a != b


# -- health / SLO reports -----------------------------------------------------


class TestHealthReport:
    @pytest.fixture()
    def served(self, artifact):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2,
            metrics=MetricsRegistry(), tracer=Tracer(seed=5),
        )
        server.batch(artifact.workload[:40])
        clock.advance(1.0)
        server.tick()
        yield server
        server.close()

    def test_reads_live_shard_telemetry(self, served):
        report = build_health_report(served)
        assert report.ok is True
        assert report.total == 2 and report.healthy == 2
        assert report.converged is True
        assert report.requests == 40
        for shard in report.shards:
            assert shard.alive and shard.breaker == "closed"
            assert shard.queries > 0
            assert shard.p99_ms > 0.0
        assert report.p99_ms >= report.p50_ms > 0.0

    def test_json_round_trip_is_exact(self, served):
        report = build_health_report(served)
        payload = report.to_dict()
        assert payload["format"] == HEALTH_FORMAT
        json.dumps(payload)  # JSON-safe
        assert health_from_dict(payload).to_dict() == payload

    def test_slo_violations_fail_checks(self, served):
        report = build_health_report(served, slo=SLO(p99_ms=0.0))
        assert report.checks["p99_ms"]["ok"] is False
        assert report.ok is False

    def test_shed_rate_check(self, artifact):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2, max_inflight=4,
            metrics=MetricsRegistry(),
        )
        try:
            server.batch(artifact.workload[:20])
            report = build_health_report(server, slo=SLO(shed_rate=0.0))
            assert report.shed == 16
            assert report.checks["shed_rate"]["ok"] is False
            relaxed = build_health_report(server, slo=SLO(shed_rate=1.0,
                                                          degraded_rate=1.0))
            assert relaxed.checks["shed_rate"]["ok"] is True
        finally:
            server.close()

    def test_table_renders(self, served):
        text = build_health_report(served).table()
        assert text.startswith("tier: epoch 1")
        assert "breaker" in text
        assert "check p99_ms" in text

    def test_malformed_payloads_rejected(self):
        with pytest.raises(DataError):
            health_from_dict({"format": "nope"})
        with pytest.raises(DataError):
            health_from_dict({})
        with pytest.raises(DataError):
            SLO.from_dict({"p99_ms": "fast"})

    def test_default_slo_round_trips(self):
        assert SLO.from_dict(DEFAULT_SLO.to_dict()) == DEFAULT_SLO


# -- Prometheus text exposition -----------------------------------------------


class TestPromtext:
    def test_sanitize(self):
        assert sanitize_name("shard.0.worker.query.ms") == \
            "shard_0_worker_query_ms"
        assert sanitize_name("9lives") == "_9lives"
        assert sanitize_name("a:b_c") == "a:b_c"

    def test_render_families(self):
        registry = MetricsRegistry()
        registry.inc("worker.queries", 3)
        registry.set_gauge("worker.epoch", 2.0)
        registry.time("worker.query.seconds", 0.5)
        registry.observe("worker.query.ms", 0.3, bounds=(0.25, 1.0))
        registry.observe("worker.query.ms", 0.1, bounds=(0.25, 1.0))
        text = render_prometheus(registry)
        assert "# TYPE bdrmap_worker_queries counter" in text
        assert "bdrmap_worker_queries 3" in text
        assert "# TYPE bdrmap_worker_epoch gauge" in text
        assert ("# TYPE bdrmap_worker_query_seconds_seconds_total "
                "counter") in text
        assert "bdrmap_worker_query_seconds_seconds_total 0.5" in text
        assert 'bdrmap_worker_query_ms_bucket{le="0.25"} 1' in text
        assert 'bdrmap_worker_query_ms_bucket{le="1.0"} 2' in text
        assert 'bdrmap_worker_query_ms_bucket{le="+Inf"} 2' in text
        assert "bdrmap_worker_query_ms_count 2" in text
        assert text.endswith("\n")
        assert render_prometheus(registry) == text  # deterministic

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


# -- atomic exports (satellite: route through atomic_write_text) --------------


class TestAtomicExports:
    def test_metrics_json_is_atomic_and_loadable(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a.b", 2)
        target = tmp_path / "metrics.json"
        registry.write_json(str(target))
        assert load_metrics(str(target))["counters"]["a.b"] == 2
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name != "metrics.json"
        ]
        assert leftovers == []

    def test_trace_jsonl_is_atomic_and_loadable(self, tmp_path):
        tracer = Tracer(seed=3)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(target))
        spans = load_trace(str(target))
        assert [span["name"] for span in spans] == ["inner", "outer"]
        assert os.listdir(str(tmp_path)) == ["trace.jsonl"]

    def test_merged_trace_export(self, artifact, tmp_path):
        server, clock = make_local_server(
            artifact.path, epoch=1, shards=2,
            metrics=MetricsRegistry(), tracer=Tracer(seed=5),
        )
        try:
            _drive(server, artifact.workload[:16])
            target = tmp_path / "merged.jsonl"
            server.write_merged_trace(str(target))
            spans = load_trace(str(target))
            assert {s["name"] for s in spans} >= {"server.batch",
                                                  "shard.query"}
        finally:
            server.close()


# -- CLI: repro health / repro top / repro trace --tree -----------------------


class TestHealthCli:
    def test_health_json_schema_and_exit_zero(self, artifact, capsys):
        code = main(["health", "--map", artifact.path, "--shards", "2",
                     "--queries", "40", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == HEALTH_FORMAT
        assert payload["ok"] is True
        assert len(payload["shards"]) == 2
        for shard in payload["shards"]:
            assert shard["breaker"] == "closed"
            assert shard["p99_ms"] > 0.0
        assert set(payload["checks"]) == {
            "p99_ms", "shed_rate", "degraded_rate", "healthy_fraction",
            "converged",
        }

    def test_health_exit_one_on_slo_failure(self, artifact, capsys):
        code = main(["health", "--map", artifact.path, "--shards", "2",
                     "--queries", "40", "--json", "--slo-p99-ms", "0.0"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_health_missing_map_exits_two(self, tmp_path, capsys):
        code = main(["health", "--map", str(tmp_path / "absent.json")])
        assert code == 2

    def test_health_writes_metrics_and_trace(self, artifact, tmp_path,
                                             capsys):
        metrics_out = str(tmp_path / "m.json")
        trace_out = str(tmp_path / "t.jsonl")
        code = main(["health", "--map", artifact.path, "--shards", "2",
                     "--queries", "24", "--metrics-out", metrics_out,
                     "--trace-out", trace_out])
        assert code == 0
        counters = load_metrics(metrics_out)["counters"]
        assert any(name.startswith("shard.") for name in counters)
        spans = load_trace(trace_out)
        assert any(span["name"] == "shard.query" for span in spans)

    def test_top_iterations(self, artifact, capsys):
        code = main(["top", "--map", artifact.path, "--shards", "2",
                     "--queries", "24", "--iterations", "2",
                     "--interval", "0", "--no-clear"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top — refresh") == 2
        assert out.count("tier: epoch 1") == 2

    def test_trace_tree_renders_cross_process_spans(self, artifact,
                                                    tmp_path, capsys):
        trace_out = str(tmp_path / "t.jsonl")
        assert main(["health", "--map", artifact.path, "--shards", "2",
                     "--queries", "24", "--trace-out", trace_out]) == 0
        capsys.readouterr()
        assert main(["trace", trace_out, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "server.batch" in out
        assert "  server.query_group" in out
        assert "    shard.query" in out


# -- chaos and epoch integration through the harvest path ---------------------


class TestChaosHealthCapture:
    def test_chaos_runs_capture_health_when_telemetered(self, artifact):
        from repro.analysis.chaos import run_shard_chaos

        report = run_shard_chaos(
            artifact.path, artifact.workload[:32], shards=2,
            batch_size=16, seed=7,
            metrics=MetricsRegistry(), tracer=Tracer(seed=7),
        )
        assert report.runs
        for run in report.runs:
            assert run.completed
            assert run.health is not None
            assert run.health["format"] == HEALTH_FORMAT
            assert len(run.health["shards"]) == 2

    def test_untelemetered_chaos_skips_health(self, artifact):
        from repro.analysis.chaos import run_shard_chaos

        report = run_shard_chaos(
            artifact.path, artifact.workload[:32], shards=2,
            batch_size=16, seed=7,
        )
        assert report.runs
        assert all(run.health is None for run in report.runs)


class TestEpochPipelineMetrics:
    def test_epoch_run_feeds_latency_histograms(self, tmp_path):
        from repro import build_scenario, mini
        from repro.core.epochs import EpochRunner

        registry = MetricsRegistry()
        runner = EpochRunner(
            build_scenario(mini(seed=7)), out_dir=str(tmp_path),
            first_epoch=1, metrics=registry,
        )
        runner.run_epoch()
        assert registry.counter("epoch.runs") == 1
        hist = registry.histograms["epoch.compile.ms"]
        assert hist.count == 1
        assert hist.bounds == LATENCY_BUCKETS_MS
        assert registry.histograms["epoch.probes.per_epoch"].count == 1
        assert registry.gauge("epoch.last") == 1.0
