"""Order statistics the benchmark reports, and the SLO-rate interpolation.

Quartiles use ``statistics.quantiles(values, n=4)`` (the exclusive
method), the same definition the stability check applies to repeated
runs, so a spread printed here is the spread that check computes.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0-100), linearly interpolated between
    the two closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % pct)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports_percentile(count: int, pct: float, beyond: int = 10) -> bool:
    """Does a sample of ``count`` values leave at least ``beyond`` of
    them above the ``pct``-th percentile?  A tail percentile is only
    reported when it does."""
    return count * (100.0 - pct) / 100.0 >= beyond


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of ``values``."""
    if not values:
        raise ValueError("summary of an empty sample")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(median)


def step_share(trial: Callable[[], float], trials: int) -> float:
    """The good share of one ladder step, from ``trial()``, which runs
    one trial of the step and returns its good share.  A first trial
    in which every request was good settles the step.  Otherwise
    ``trials`` trials run in all and the step's share is their median,
    so one trial hit by a burst of host noise cannot end the ladder."""
    first = trial()
    if first >= 1.0:
        return first
    return statistics.median(
        [first] + [trial() for _ in range(trials - 1)])


def slo_rate(steps: Sequence[Tuple[float, float]],
             target: float = 0.99) -> float:
    """The offered rate at which the good share falls to ``target``.

    ``steps`` are ``(rate, good_share)`` pairs in ladder order.  The
    answer is log-interpolated between the last step at or above the
    target and the first step below it.  0 means even the first step
    missed, so the tier cannot hold the lowest rate offered; when no
    step missed, the last rate is a lower bound and is returned as is.
    """
    if not steps:
        raise ValueError("SLO rate of an empty ladder")
    for index, (rate, good) in enumerate(steps):
        if good >= target:
            continue
        if index == 0:
            return 0.0
        prev_rate, prev_good = steps[index - 1]
        frac = (prev_good - target) / (prev_good - good)
        return math.exp(
            math.log(prev_rate)
            + frac * (math.log(rate) - math.log(prev_rate))
        )
    return steps[-1][0]
