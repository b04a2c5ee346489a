"""Order statistics, the SLO-rate interpolation, and the open loop."""

import asyncio
import math
import statistics

import pytest

from bench import loadgen
from bench.stats import (
    percentile,
    slo_rate,
    spread,
    step_share,
    summarize,
    supports_percentile,
)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 25) == 2.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summary_reports_count_median_and_quartiles():
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = summarize(values)
    assert summary == {"n": 10, "median": 5.5, "q1": q1, "q3": q3}
    assert spread(summary) == pytest.approx((q3 - q1) / 5.5)
    assert summarize([2.0]) == {"n": 1, "median": 2.0, "q1": 2.0, "q3": 2.0}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert supports_percentile(1000, 99)
    assert not supports_percentile(999, 99)
    assert supports_percentile(8192, 99)


def test_slo_rate_log_interpolates_between_the_bracketing_steps():
    # 0.99 lies halfway between the good shares of the last two steps,
    # so the rate is their geometric mean.
    steps = [(4000.0, 1.0), (8000.0, 0.999), (16000.0, 0.981)]
    assert slo_rate(steps) == pytest.approx(math.sqrt(8000.0 * 16000.0))


def test_ladder_step_repeats_unless_its_first_trial_is_all_good():
    def trials(*shares):
        queue = list(shares)
        return lambda: queue.pop(0)

    # Every request of the first trial was good: one trial settles it.
    assert step_share(trials(1.0), 3) == 1.0
    # A noise burst hit the first trial; the other two outvote it.
    assert step_share(trials(0.9, 1.0, 0.999), 3) == 0.999
    # A step past the tier's capacity fails however often it runs.
    assert step_share(trials(0.5, 0.4, 0.995), 3) == 0.5


def test_slo_rate_edges():
    # Missing the first step is a rate of 0, never an absent value.
    assert slo_rate([(4000.0, 0.5)]) == 0.0
    assert slo_rate([(4000.0, 1.0), (5000.0, 0.995)]) == 5000.0
    with pytest.raises(ValueError):
        slo_rate([])


def test_open_loop_counts_waiting_and_skips_idle_time(monkeypatch):
    """Waves take every request due by the virtual clock; a wave's
    service time advances the clock, idle gaps are jumped over."""
    clock = [0.0]
    monkeypatch.setattr(loadgen.time, "perf_counter", lambda: clock[0])
    sizes = []

    async def send(wave):
        sizes.append(len(wave))
        clock[0] += 0.002
        return [None] * len(wave)

    due = [0.0, 0.001, 0.0015, 0.010]
    trial = asyncio.run(loadgen.open_loop(
        send, [("owner", i) for i in range(4)], due, lambda: 1))
    assert sizes == [1, 2, 1]
    assert trial.latencies_ms() == pytest.approx([2.0, 3.0, 2.5, 2.0])
    assert trial.seconds == pytest.approx(0.006)


def test_open_loop_divides_service_time_by_the_host_slowdown(monkeypatch):
    """On a host running at half speed every wave takes twice as long;
    the virtual clock advances by the normalized time, so the waves and
    latencies are those of the full-speed host."""
    clock = [0.0]
    monkeypatch.setattr(loadgen.time, "perf_counter", lambda: clock[0])
    sizes = []

    async def send(wave):
        sizes.append(len(wave))
        clock[0] += 0.004
        return [None] * len(wave)

    due = [0.0, 0.001, 0.0015, 0.010]
    trial = asyncio.run(loadgen.open_loop(
        send, [("owner", i) for i in range(4)], due, lambda: 1,
        factor=lambda: 2.0))
    assert sizes == [1, 2, 1]
    assert trial.latencies_ms() == pytest.approx([2.0, 3.0, 2.5, 2.0])
    assert trial.seconds == pytest.approx(0.006)
    assert trial.wall == pytest.approx(0.012)
