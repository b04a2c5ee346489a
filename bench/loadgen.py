"""Query mixes, the virtual open loop, and the answer oracle.

All load comes from this one process with no extra threads: a trial is
one ``asyncio.run`` whose coroutine feeds the tier wave after wave.

**Virtual open loop.**  Poisson due times are drawn in advance.  A
virtual clock starts at 0; each wave is every request due by the clock,
the wave's service time advances the clock, and when nothing is due the
clock jumps to the next due time instead of sleeping.  A request's
latency is its wave's completion time minus its due time, so time spent
waiting behind a slow wave is counted, and the generator can never fall
behind its schedule: the schedule is fixed before the trial and never
depends on how fast requests are sent.

A wave's service time is its wall time (``perf_counter``) divided by
the host's slowdown factor measured just before it (``factor``, see
:mod:`bench.hostspeed`), so the virtual clock runs as on an uncontended
host.  The measurement happens between waves and costs no virtual time.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from bench.stats import percentile

Request = Tuple[str, int]
Send = Callable[[List[Request]], Awaitable[List[Any]]]
Factor = Callable[[], float]   # the host's slowdown now (bench.hostspeed)

#: A request is "good" for the SLO when it is answered, not degraded,
#: correct, and completed within this many ms of its due time.
LATENCY_LIMIT_MS = 10.0
GOOD_SHARE = 0.99

#: Query op -> the border-map method that answers it.
OPS = {"owner": "owner_of", "border": "border_for", "neighbors": "neighbors"}


# -- query mixes ---------------------------------------------------------------


class MixSource:
    """The uniform mix over one border map: 40% owner on an observed
    interface, 20% owner on a random routed address, 30% border on a
    random routed address, 5% neighbors, 5% owner on an unrouted
    (random 32-bit) address."""

    def __init__(self, bmap) -> None:
        self.interfaces = sorted(
            {addr for router in bmap.routers for addr in router.addrs}
        )
        self.prefixes = [prefix for prefix, _ in bmap.prefixes]
        self.neighbors = list(bmap.neighbor_ases()) or [bmap.focal_asn]
        if not self.interfaces or not self.prefixes:
            raise ValueError("map has no interfaces or no prefixes to query")

    def one(self, rng: random.Random) -> Request:
        roll = rng.random()
        if roll < 0.40:
            return ("owner", rng.choice(self.interfaces))
        if roll < 0.90:
            prefix = rng.choice(self.prefixes)
            op = "owner" if roll < 0.60 else "border"
            return (op, prefix.addr + rng.randrange(prefix.size))
        if roll < 0.95:
            return ("neighbors", rng.choice(self.neighbors))
        return ("owner", rng.randrange(1 << 32))

    def draw(self, rng: random.Random, count: int) -> List[Request]:
        return [self.one(rng) for _ in range(count)]

    def warm_up(self, rng: random.Random, count: int) -> List[Request]:
        """Requests that bring a tier to its steady state on this mix:
        ``count`` ordinary draws."""
        return self.draw(rng, count)


class ZipfSource:
    """Zipf(1) over a fixed pool of distinct keys drawn from the
    uniform mix: the key of rank k is asked with weight 1/k."""

    def __init__(self, bmap, pool_size: int, rng: random.Random) -> None:
        base = MixSource(bmap)
        pool: Dict[Request, None] = {}
        while len(pool) < pool_size:
            pool[base.one(rng)] = None
        self.pool = list(pool)
        self._cum = list(itertools.accumulate(
            1.0 / rank for rank in range(1, pool_size + 1)
        ))

    def draw(self, rng: random.Random, count: int) -> List[Request]:
        return rng.choices(self.pool, cum_weights=self._cum, k=count)

    def warm_up(self, rng: random.Random, count: int) -> List[Request]:
        """Every key of the pool once, so that an LRU larger than the
        pool holds all of it.  Zipf draws alone would leave the tail of
        the pool cold for trial after trial."""
        return list(self.pool)


def poisson_schedule(rng: random.Random, rate: float,
                     count: int) -> List[float]:
    """Due times (seconds) of ``count`` Poisson arrivals at ``rate``/s."""
    clock = 0.0
    due = []
    for _ in range(count):
        clock += rng.expovariate(rate)
        due.append(clock)
    return due


# -- driving the tier ----------------------------------------------------------


def _unit() -> float:
    """The slowdown of an uncontended host (no normalization)."""
    return 1.0


# ``repr=False``: a trial is the result of ``asyncio.run``, which on
# Python 3.11 builds the repr of its main task, result included, while
# it restores the SIGINT handler; a generated repr would walk every
# answer of the trial inside the timed and traced region.


@dataclass(repr=False)
class Wave:
    start: int
    end: int
    done: float          # virtual completion time (open loop only)
    epoch: int           # tier's committed epoch when the wave was sent
    answers: List[Any]


@dataclass(repr=False)
class Trial:
    requests: List[Request]
    waves: List[Wave]
    seconds: float = 0.0                 # busy time, normalized
    wall: float = 0.0                    # busy time, as measured
    due: Optional[List[float]] = None    # open loop only
    swap_s: Optional[float] = None       # normalized

    def latencies_ms(self) -> List[float]:
        out = []
        for wave in self.waves:
            for index in range(wave.start, wave.end):
                out.append(1e3 * (wave.done - self.due[index]))
        return out


async def open_loop(send: Send, requests: List[Request], due: List[float],
                    epoch_of: Callable[[], int],
                    swap: Optional[Callable[[], Awaitable[Any]]] = None,
                    factor: Factor = _unit) -> Trial:
    """One open-loop trial (see module docs).  ``swap``, when given,
    runs once, between waves, when half the requests have been sent;
    its duration advances the virtual clock like any wave's."""
    clock = time.perf_counter
    count = len(requests)
    swap_at = count // 2 if swap is not None else count + 1
    trial = Trial(requests=requests, waves=[], due=due)
    now = 0.0
    sent = 0
    while sent < count:
        if sent >= swap_at and trial.swap_s is None:
            slowdown = factor()
            started = clock()
            await swap()
            trial.swap_s = (clock() - started) / slowdown
            now += trial.swap_s
        if due[sent] > now:
            now = due[sent]
        end = bisect.bisect_right(due, now, sent)
        epoch = epoch_of()
        slowdown = factor()
        started = clock()
        answers = await send(requests[sent:end])
        elapsed = clock() - started
        now += elapsed / slowdown
        trial.seconds += elapsed / slowdown
        trial.wall += elapsed
        trial.waves.append(Wave(sent, end, now, epoch, answers))
        sent = end
    return trial


async def closed_loop(send: Send, requests: List[Request], batch: int,
                      epoch_of: Callable[[], int],
                      factor: Factor = _unit) -> Trial:
    """One closed-loop trial: the next batch goes out when the previous
    one is answered."""
    clock = time.perf_counter
    trial = Trial(requests=requests, waves=[])
    for start in range(0, len(requests), batch):
        end = min(start + batch, len(requests))
        epoch = epoch_of()
        slowdown = factor()
        started = clock()
        answers = await send(requests[start:end])
        elapsed = clock() - started
        trial.seconds += elapsed / slowdown
        trial.wall += elapsed
        trial.waves.append(Wave(start, end, 0.0, epoch, answers))
    return trial


# -- checking answers ----------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one trial's answers against the oracle."""

    sent: int = 0
    failed: int = 0        # shed, degraded or unavailable
    wrong: List[str] = field(default_factory=list)
    good: List[bool] = field(default_factory=list)  # per request


class Oracle:
    """Lookups, in the benchmark's own process, on the dict
    ``BorderMap`` each epoch's artifact was compiled from (the reference
    every tier answer must equal)."""

    def __init__(self, maps: Dict[int, Any]) -> None:
        self.maps = maps
        self._memo: Dict[Tuple[int, Request], Any] = {}

    def expected(self, request: Request, epoch: int) -> Any:
        try:
            return self._memo[epoch, request]
        except KeyError:
            op, key = request
            value = getattr(self.maps[epoch], OPS[op])(key)
            self._memo[epoch, request] = value
            return value

    def check(self, trial: Trial) -> Verdict:
        # The memo lives for one trial: kept across a run, it would grow
        # with every distinct key of the uniform mix and make the run's
        # peak memory depend on how many trials fit its time budget.
        self._memo.clear()
        verdict = Verdict(sent=len(trial.requests))
        for wave in trial.waves:
            wanted = trial.requests[wave.start:wave.end]
            if len(wave.answers) != len(wanted):
                verdict.wrong.append(
                    "wave of %d requests got %d answers"
                    % (len(wanted), len(wave.answers))
                )
                verdict.good.extend([False] * len(wanted))
                continue
            for request, answer in zip(wanted, wave.answers):
                if answer.degraded:
                    verdict.failed += 1
                    verdict.good.append(False)
                    continue
                expected = self.expected(request, wave.epoch)
                if ((answer.op, answer.key) != request
                        or answer.epoch != wave.epoch
                        or answer.value != expected):
                    verdict.wrong.append(
                        "%s %d: tier answered %r (epoch %d), oracle %r "
                        "(epoch %d)" % (request[0], request[1], answer.value,
                                        answer.epoch, expected, wave.epoch)
                    )
                    verdict.good.append(False)
                    continue
                verdict.good.append(True)
        return verdict


def good_share(trial: Trial, verdict: Verdict,
               limit_ms: float = LATENCY_LIMIT_MS) -> float:
    """Share of the trial's requests that were good within the limit."""
    latencies = trial.latencies_ms()
    good = sum(
        1 for ok, latency in zip(verdict.good, latencies)
        if ok and latency <= limit_ms
    )
    return good / len(latencies)


def tail(latencies: Sequence[float]) -> Tuple[float, float]:
    """Median and 99th percentile of one trial's latencies (ms)."""
    return percentile(latencies, 50.0), percentile(latencies, 99.0)
