"""Host-speed normalization of measured times.

A host that shares its processors with other tenants (the baseline
host: 2 vCPUs, x86_64) slows this process down by up to 3x, switching
between fast and slow every few milliseconds, with a mean slowdown
that drifts over seconds to minutes.  CPU time slows as much as wall
time, so neither clock can tell a slower program from a busier host:
over 20 runs there, the same deterministic pipeline took from 22 s to
38 s.

A :class:`Speedometer` times a fixed *spin* (see :func:`spin`) again
and again while the program runs.  The spin's time over
``REFERENCE_S``, its time on an uncontended host, is the host's
slowdown *factor* at that moment.  Each stretch of measured work,
spins taken out, divided by the factor around it, and summed, is the
*normalized* time: what the work would have taken on an uncontended
host.

Spins run on a timer signal during an opaque call such as the pipeline
(:meth:`Speedometer.measure`), or between the waves of a serving loop
(:meth:`Speedometer.factor`), where they fall outside every timed wave.
Every spin costs about 110 microseconds (more on a loaded host), once
per ``INTERVAL_S``.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: Rounds of one spin, and its time on the reference host (a 2-vCPU
#: x86_64 host running CPython 3.11.7) while nothing else loaded it.
#: A host of another speed scales every normalized time by the same
#: constant, which leaves comparisons on that host intact.
SPIN_ROUNDS = 6
REFERENCE_S = 112e-6

#: Seconds between spins.
INTERVAL_S = 0.01

#: What one round of a spin encodes and decodes: a small query frame.
_FRAME = [{"op": "owner", "key": 3232235777 + i, "epoch": 1}
          for i in range(12)]
# The spin's own codec objects: a spin never shares state with a JSON
# call of the program it interrupts.
_ENCODE = json.JSONEncoder().encode
_DECODE = json.JSONDecoder().decode


def spin() -> float:
    """Seconds one spin took.

    Each round encodes a small frame to JSON and decodes it again: many
    small allocations, dict and string building, and C code walking
    them, the mix the pipeline and the serving tier spend their time
    on.  On the baseline host, the serving tier's waves and scenario
    builds slowed as much as this spin did, within 5%, at every
    slowdown from 1x to 2.8x.  A spin of pure interpreter work (small
    objects built and read back) slowed up to 1.4x more than they did
    at the high end, so times normalized by it fell as the load rose.
    What a round builds is freed before the next, and the collector is
    off while the spin runs, so a spin never collects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(SPIN_ROUNDS):
            _DECODE(_ENCODE(_FRAME))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Every spin of one run (see module docs)."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.spins: List[float] = []
        self._last = float("-inf")

    def mean_factor(self) -> float:
        """The run's mean slowdown so far (1.0 before the first spin)."""
        if not self.spins:
            return 1.0
        return statistics.fmean(self.spins) / REFERENCE_S

    def factor(self) -> float:
        """The host's slowdown now: the latest spin's.  Spins first when
        the last spin is ``interval`` old or older; call it between
        timed intervals.

        The latest spin lags a change of speed by up to one interval,
        as much at the start of a slow stretch as at its end, so the
        errors cancel.  A filter over several spins (a median) would
        instead drop slow stretches shorter than the filter, and so
        undercount the slowdown on a busy host."""
        if time.perf_counter() - self._last >= self.interval:
            self.spins.append(spin())
            self._last = time.perf_counter()
        return self.spins[-1] / REFERENCE_S

    def measure(self, func: Callable, *args) -> Tuple[Any, float, float]:
        """``func(*args)``, its wall seconds, and its normalized seconds.

        Spins run before and after the call and on a timer signal
        during it, and so cut the call into slices about one interval
        long.  Each slice, spins left out, is divided by the factor
        around it: its two neighbouring spins' speeds (1 / factor) are
        averaged.  Dividing the whole call by the mean factor instead
        would count too little work whenever the factor varies during
        the call, since the mean of the factors' inverses exceeds the
        inverse of their mean."""
        first = spin()
        inside: List[Tuple[float, float]] = []   # (start, seconds) of spins
        busy = [False]

        def on_timer(signum, frame) -> None:
            if busy[0]:   # a signal that lands in the handler's own spin
                return
            busy[0] = True
            try:
                inside.append((time.perf_counter(), spin()))
            finally:
                busy[0] = False

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            started = time.perf_counter()
            result = func(*args)
            ended = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = [mark for mark in inside if mark[0] < ended]
        spins = [first] + [seconds for _, seconds in inside] + [spin()]
        self.spins.extend(spins)
        self._last = time.perf_counter()

        # Slice k runs from the end of spin k to the start of spin k + 1.
        starts = [started] + [start + seconds for start, seconds in inside]
        ends = [start for start, _ in inside] + [ended]
        speeds = [REFERENCE_S / seconds for seconds in spins]
        normalized = sum(
            (end - start) * (speeds[k] + speeds[k + 1]) / 2
            for k, (start, end) in enumerate(zip(starts, ends))
        )
        return result, ended - started, normalized
