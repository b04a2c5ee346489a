"""Distributed-telemetry overhead benchmark for the sharded tier.

The observability contract extends across processes: stamping trace
contexts into shard commands, harvesting per-shard registry deltas on
the supervision cadence, and draining worker spans must together stay
under 5% end-to-end overhead on the open-loop service benchmark.  Each
round runs the same seeded workload twice over the same saved artifact —
once untelemetered (the private bookkeeping registry only), once with a
live registry + tracer and the periodic-tick harvest — back-to-back so
both arms share the host's state, gates on the best paired per-round
ratio, and records ``BENCH_obs_tier.json`` via the shared
``bench_recorder``.

Both arms tick the supervisor every ``TICK_EVERY`` waves inside the
timed region, so the budget charges exactly the telemetry delta
(harvest + tracing), not the supervision pass both deployments pay.

``OBS_TIER_BENCH_SMOKE=1`` (the CI smoke job) shrinks the workload; the
assertions are identical.
"""

import os
from typing import Any, Dict, List, Tuple

import pytest

from repro.io import save_border_map
from repro.obs import MetricsRegistry, Tracer, build_health_report, perf_clock
from repro.obs.trace import span_tree
from repro.serving import Answer, compile_border_map, make_workload
from repro.serving.server import make_local_server

SMOKE = os.environ.get("OBS_TIER_BENCH_SMOKE") == "1"
# Smoke trims rounds, not the workload: shrinking the timed window puts
# the fixed per-tick harvest cost and scheduler noise right at the 5%
# line, so the window must stay large enough to amortize both.
ROUNDS = 4 if SMOKE else 6
REQUESTS = 1536
BURST = 256
SHARDS = 3
MAX_INFLIGHT = 128
TICK_EVERY = 4
WAVE_GAP_S = 0.01

#: The acceptance bar: telemetered <= 1.05x the untelemetered baseline.
MAX_OVERHEAD = 0.05


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


def bench_service(
    server,
    workload: List[Tuple[str, int]],
    arrivals: List[float],
    tick_every: int = 0,
) -> Dict[str, Any]:
    """Open-loop load generation against a sharded server.

    ``arrivals[i]`` is the (simulated) arrival second of request
    ``workload[i]`` — fixed in advance, never slowed by the server,
    which is what makes the loop *open*: an overloaded tier sees the
    queue it earned.  Service time per wave is real wall time
    (:func:`~repro.obs.trace.perf_clock`); a request's latency is its
    wave's completion instant minus its own arrival instant.  Requests
    the server sheds are counted, not timed — rejection is immediate.

    ``tick_every`` > 0 runs a supervision pass (which, with telemetry
    on, harvests shard metrics and spans) every that-many waves — the
    production cadence this benchmark charges against its overhead
    budget.  The tick is *inside* the timed region on purpose.
    """
    assert len(arrivals) == len(workload)
    latencies: List[float] = []
    accepted = shed = degraded = waves = 0
    busy_seconds = 0.0
    now = 0.0
    position = 0
    while position < len(workload):
        # The wave: the next pending request plus everything that
        # arrived while the server was busy.
        start = max(now, arrivals[position])
        end = position
        while end < len(workload) and arrivals[end] <= start:
            end += 1
        wave = workload[position:end]
        started = perf_clock()
        answers = server.batch(wave)
        if tick_every and (waves + 1) % tick_every == 0:
            server.tick()
        elapsed = perf_clock() - started
        busy_seconds += elapsed
        done = start + elapsed
        for offset, answer in enumerate(answers):
            if answer.note.startswith("shed"):
                shed += 1
                continue
            if answer.degraded:
                degraded += 1
            accepted += 1
            latencies.append(done - arrivals[position + offset])
        waves += 1
        now = done
        position = end
    latencies.sort()
    return {
        "accepted": accepted,
        "shed": shed,
        "degraded": degraded,
        "waves": waves,
        "p50_ms": 1e3 * _percentile(latencies, 0.50),
        "p99_ms": 1e3 * _percentile(latencies, 0.99),
        "max_ms": 1e3 * (latencies[-1] if latencies else 0.0),
        "service_qps": accepted / max(busy_seconds, 1e-9),
    }


@pytest.fixture(scope="module")
def tier(mini_run, tmp_path_factory):
    """One saved artifact plus the open-loop schedule, shared by every
    arm so rounds differ only in telemetry.

    Arrivals come in admission-sized bursts every ``WAVE_GAP_S`` — the
    batched operating point the tier is built for, where per-wave span
    and harvest costs amortize over full waves — and finish with one
    oversized burst so admission control must shed.  The schedule is
    fixed in advance (never slowed by the server), so the load loop
    stays open.
    """
    scenario, data, result = mini_run
    bmap = compile_border_map(
        [result], view=data.view, rels=data.rels, epoch=1,
        source="obs-tier-bench",
    )
    workdir = tmp_path_factory.mktemp("obs-tier-bench")
    artifact_path = os.path.join(str(workdir), "map.json")
    save_border_map(bmap, artifact_path)
    total = REQUESTS + BURST
    workload = make_workload(bmap, data.view, total, seed=1)
    arrivals = [
        (index // MAX_INFLIGHT) * WAVE_GAP_S for index in range(REQUESTS)
    ]
    arrivals.extend([arrivals[-1] + WAVE_GAP_S] * BURST)
    return artifact_path, workload, arrivals


def _timed_arm(tier, telemetry: bool):
    """One bench_service pass; returns (elapsed, measured, artifacts).

    The server is rebuilt and warmed outside the timed window each
    call; only the load loop (batches + periodic ticks, which harvest
    when telemetry is on) is measured.
    """
    artifact_path, workload, arrivals = tier
    metrics = MetricsRegistry() if telemetry else None
    tracer = Tracer(seed=1) if telemetry else None
    server, _ = make_local_server(
        artifact_path, epoch=1, shards=SHARDS, max_inflight=MAX_INFLIGHT,
        metrics=metrics, tracer=tracer,
    )
    try:
        for start in range(0, len(workload), MAX_INFLIGHT):
            server.batch(workload[start:start + MAX_INFLIGHT])
        if telemetry:
            # Ship the warm-up's accumulated telemetry outside the
            # timed window (a steady-state tier harvests continuously).
            server.collect_metrics()
        started = perf_clock()
        measured = bench_service(
            server, workload, arrivals, tick_every=TICK_EVERY
        )
        elapsed = perf_clock() - started
        artifacts = None
        if telemetry:
            server.collect_metrics()
            artifacts = (
                server.metrics,
                server.merged_trace(),
                build_health_report(server, harvest=False),
            )
        return elapsed, measured, artifacts
    finally:
        server.close()


@pytest.fixture(scope="module")
def tier_overhead(tier):
    """Runs ROUNDS interleaved (baseline, telemetered) pairs and keeps
    the per-round elapsed pairs.

    The overhead statistic is the best *paired* ratio: the two arms of a
    round run back-to-back and share whatever state the host is in, so
    their ratio cancels inter-round drift that comparing global minima
    across different rounds would not.
    """
    pairs = []
    last = None
    for _ in range(ROUNDS):
        baseline_s, baseline_measured, _ = _timed_arm(tier, telemetry=False)
        telemetered_s, measured, artifacts = _timed_arm(tier, telemetry=True)
        pairs.append((baseline_s, telemetered_s))
        last = (measured, artifacts)
    measured, artifacts = last
    return pairs, measured, artifacts


def test_bench_obs_tier_overhead(tier_overhead, bench_recorder):
    pairs, measured, artifacts = tier_overhead
    registry, merged, report = artifacts
    baseline, telemetered = min(
        pairs, key=lambda pair: pair[1] / pair[0]
    )
    # Gate on the best paired round (noise only inflates a ratio, so the
    # cleanest round is the fairest upper bound); report the median too.
    overhead = telemetered / baseline - 1.0
    ratios = sorted(t / b - 1.0 for b, t in pairs)
    mid = len(ratios) // 2
    median_overhead = (
        ratios[mid] if len(ratios) % 2 else
        (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    harvested_queries = sum(
        registry.counter("shard.%d.worker.queries" % k)
        for k in range(SHARDS)
    )
    print()
    print(
        "obs-tier overhead: baseline %.4fs, telemetered %.4fs "
        "(best %+.1f%%, median %+.1f%%), "
        "%d harvested queries, %d merged spans, %d harvests"
        % (baseline, telemetered, 100 * overhead, 100 * median_overhead,
           harvested_queries, len(merged),
           registry.counter("serving.server.harvests"))
    )
    path = bench_recorder("obs_tier", {
        "config": {
            "scenario": "mini", "seed": 1, "rounds": ROUNDS,
            "requests": REQUESTS, "burst": BURST, "shards": SHARDS,
            "max_inflight": MAX_INFLIGHT, "tick_every": TICK_EVERY,
        },
        "metrics": {
            "baseline_s": round(baseline, 5),
            "telemetered_s": round(telemetered, 5),
            "overhead_pct": round(100 * overhead, 2),
            "median_overhead_pct": round(100 * median_overhead, 2),
            "harvested_queries": harvested_queries,
            "merged_spans": len(merged),
            "harvests": registry.counter("serving.server.harvests"),
            "p99_ms": round(measured["p99_ms"], 4),
            "service_qps": round(measured["service_qps"], 1),
            "slo_ok": report.ok,
        },
    })
    print("recorded %s" % path)

    # The telemetered arm must actually have observed the tier...
    assert harvested_queries > 0
    assert registry.counter("serving.server.harvests") >= SHARDS
    assert any(
        "shard.%d.worker.query.ms" % k in registry.histograms
        for k in range(SHARDS)
    )
    assert merged
    names = {span["name"] for span in merged}
    assert {"server.batch", "shard.query"} <= names
    roots = span_tree(merged)
    assert roots and all(
        root["name"] in ("server.batch", "server.tick") for root in roots
    )
    # ...and the health layer reads it live.
    assert report.total == SHARDS
    assert all(shard.breaker == "closed" for shard in report.shards)
    assert any(shard.p99_ms > 0.0 for shard in report.shards)

    # ...at bounded cost.
    assert telemetered <= (1.0 + MAX_OVERHEAD) * baseline, (
        "cross-process telemetry costs %.1f%% end-to-end (budget %.0f%%)"
        % (100 * overhead, 100 * MAX_OVERHEAD)
    )


def test_bench_obs_tier_measures_load(tier_overhead):
    """Sanity on the measured arm: the open-loop figures exist and the
    overload burst exercised admission control."""
    _, measured, _ = tier_overhead
    assert measured["accepted"] > 0
    assert measured["shed"] >= BURST - MAX_INFLIGHT
    assert 0.0 < measured["p50_ms"] <= measured["p99_ms"]
    assert measured["service_qps"] > 0


# -- the open-loop accounting itself -----------------------------------------


class _FixedServer:
    """Deterministic stand-in: admission like the real server, answers
    instantly (the fake clock below supplies the 'service time')."""

    def __init__(self, max_inflight):
        self.max_inflight = max_inflight

    def batch(self, wave):
        answers = []
        for position, (op, key) in enumerate(wave):
            if position < self.max_inflight:
                answers.append(Answer(op=op, key=key, value=1, epoch=1))
            else:
                answers.append(Answer(
                    op=op, key=key, value=None, epoch=1,
                    degraded=True, note="shed: server over capacity",
                ))
        return answers


class TestOpenLoopAccounting:
    def test_burst_wave_sheds_exactly_the_overflow(self, monkeypatch):
        ticks = iter(0.001 * n for n in range(1000))
        monkeypatch.setitem(globals(), "perf_clock", lambda: next(ticks))
        workload = [("owner", k) for k in range(100)]
        arrivals = [0.0] * 100          # one simultaneous burst
        measured = bench_service(
            _FixedServer(max_inflight=64), workload, arrivals
        )
        assert measured["waves"] == 1
        assert measured["accepted"] == 64
        assert measured["shed"] == 36
        assert measured["degraded"] == 0
        # Every accepted request finished at the wave's completion
        # instant (one 1 ms clock delta), so p50 == p99 == max.
        assert measured["p50_ms"] == pytest.approx(1.0)
        assert measured["p99_ms"] == pytest.approx(1.0)
        assert measured["max_ms"] == pytest.approx(1.0)

    def test_spaced_arrivals_never_queue_or_shed(self, monkeypatch):
        ticks = iter(0.001 * n for n in range(1000))
        monkeypatch.setitem(globals(), "perf_clock", lambda: next(ticks))
        workload = [("owner", k) for k in range(10)]
        arrivals = [0.1 * k for k in range(10)]   # far apart vs 1 ms
        measured = bench_service(
            _FixedServer(max_inflight=4), workload, arrivals
        )
        assert measured["waves"] == 10
        assert measured["accepted"] == 10
        assert measured["shed"] == 0
        assert measured["p50_ms"] == pytest.approx(1.0)
