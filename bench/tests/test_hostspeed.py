"""Host-speed normalization."""

import gc
import signal
import time

import pytest

from bench import hostspeed
from bench.hostspeed import REFERENCE_S, Speedometer


def test_measure_divides_by_a_steady_slowdown(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(hostspeed, "spin", lambda: 2 * REFERENCE_S)

    def work():
        clock[0] += 1.0
        return "done"

    result, wall, seconds = Speedometer().measure(work)
    assert result == "done"
    assert wall == 1.0
    assert seconds == pytest.approx(0.5)


def test_measure_divides_each_slice_by_the_speed_around_it(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: clock[0])
    factors = iter([1.0, 2.0, 2.0])   # before, on the timer, after

    def fake_spin():
        seconds = REFERENCE_S * next(factors)
        clock[0] += seconds
        return seconds

    monkeypatch.setattr(hostspeed, "spin", fake_spin)

    def work():
        clock[0] += 1.0
        signal.raise_signal(signal.SIGALRM)   # the timer's spin
        clock[0] += 1.0

    _, wall, seconds = Speedometer(interval=60.0).measure(work)
    assert wall == pytest.approx(2.0 + 2 * REFERENCE_S)
    # Speeds 1, 1/2, 1/2: the first slice runs at their mean 3/4, the
    # second at 1/2.
    assert seconds == pytest.approx(0.75 + 0.5)


def test_measure_spins_on_the_timer_and_then_stops_it():
    previous = signal.getsignal(signal.SIGALRM)
    speed = Speedometer(interval=0.005)

    def busy():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass

    _, wall, seconds = speed.measure(busy)
    # One spin before, one after, and about one per interval between.
    assert len(speed.spins) >= 2 + 5
    assert 0 < seconds
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_spin_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert hostspeed.spin() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.spin()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_factor_spins_once_per_interval(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: clock[0])
    spins = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(hostspeed, "spin", lambda: REFERENCE_S * next(spins))
    speed = Speedometer(interval=0.01)
    factors = []
    for now in (0.0, 0.004, 0.011, 0.015, 0.030):
        clock[0] = now
        factors.append(speed.factor())
    # Between spins the factor is the latest spin's.
    assert factors == pytest.approx([1.0, 1.0, 2.0, 2.0, 3.0])
    assert speed.mean_factor() == pytest.approx(2.0)
