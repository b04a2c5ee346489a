"""The lookup service: batched answers and zero-downtime map swaps.

:class:`BorderMapService` is what each shard worker of the serving tier
(:mod:`repro.serving.shard`) answers from: :meth:`BorderMapService.batch`
answers a caller-assembled batch of ``(op, key)`` requests against one
engine snapshot, and :meth:`BorderMapService.swap` publishes a new map
with a single reference assignment, so a query observes either the old
map or the new one — never a partially built one.  Batching across
callers, admission control and keep-last-good rollback belong to the
tier (:class:`~repro.serving.server.ShardedBorderServer`).

Every answer is tagged with the epoch of the map that produced it, which
is what the hot-swap tests (and any cache-invalidation layer above) key
on.  :func:`make_workload` draws the deterministic query mix the CLI's
``health``/``top`` sample and the tests replay.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import DataError
from ..obs.metrics import MetricsRegistry
from ..rng import make_rng
from .backend import BorderMapBackend
from .engine import QueryEngine

#: Operations the service accepts, mapping to QueryEngine batch methods.
OPS = ("owner", "border", "neighbors")

#: The key range a query may name: shard query frames carry keys as
#: signed 64-bit integers (:mod:`repro.serving.wire`).
KEY_MIN = -(1 << 63)
KEY_MAX = (1 << 63) - 1


def check_ops(requests: Sequence[Tuple[str, int]]) -> None:
    """Raise :class:`DataError` if any request names an op outside
    :data:`OPS` or a key outside ``[KEY_MIN, KEY_MAX]`` — before any of
    the batch is answered or counted."""
    for op, key in requests:
        if op not in OPS:
            raise DataError("unknown query op %r (want one of %s)"
                            % (op, "/".join(OPS)))
        if not KEY_MIN <= key <= KEY_MAX:
            raise DataError("query key %r outside the signed 64-bit range"
                            % (key,))


def make_workload(bmap, count: int, seed: int = 0) -> List[Tuple[str, int]]:
    """A deterministic serving workload over one compiled map.

    Mixes the query shapes a deployment sees: owner lookups on observed
    interfaces (the common case), owner/border lookups on arbitrary
    routed addresses, border lookups toward announced prefixes, a few
    unrouted addresses, and neighbor summaries.
    """
    rng = make_rng((seed << 8) ^ 0x5E21)
    interfaces = sorted(
        {addr for router in bmap.routers for addr in router.addrs}
    )
    prefixes = [prefix for prefix, _ in bmap.prefixes] or None
    neighbor_ases = list(bmap.neighbor_ases()) or [bmap.focal_asn]
    workload: List[Tuple[str, int]] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.40 and interfaces:
            workload.append(("owner", rng.choice(interfaces)))
        elif roll < 0.60 and prefixes is not None:
            prefix = rng.choice(prefixes)
            workload.append(
                ("owner", prefix.addr + rng.randrange(prefix.size))
            )
        elif roll < 0.90 and prefixes is not None:
            prefix = rng.choice(prefixes)
            workload.append(
                ("border", prefix.addr + rng.randrange(prefix.size))
            )
        elif roll < 0.95:
            workload.append(("neighbors", rng.choice(neighbor_ases)))
        else:
            workload.append(("owner", rng.randrange(1 << 32)))
    return workload


@dataclass(frozen=True)
class Answer:
    """One answered request, tagged with the producing map's epoch.

    ``degraded`` marks an answer the serving tier could not produce at
    full fidelity — shed under overload, or served from a shard that had
    not yet converged to the committed epoch.  The value may be ``None``
    (shed) or stale-but-honest; ``note`` says which.  Degradation is
    always explicit: the tier never silently drops a request or passes a
    stale answer off as fresh.
    """

    op: str
    key: int
    value: Any
    epoch: int
    degraded: bool = False
    note: str = ""


class BorderMapService:
    """Hot-swappable lookup service over a border map (either backend:
    dict or compiled).

    Each :meth:`batch` is answered by one engine snapshot, so a swap can
    never split a batch across maps.
    """

    def __init__(
        self,
        border_map: BorderMapBackend,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Request counters live in a registry (a private one unless the
        # deployment hands us its shared registry), like the engine's.
        if metrics is None or not metrics.enabled:
            self._metrics = MetricsRegistry()
        else:
            self._metrics = metrics
        self.metrics = metrics
        self._engine = QueryEngine(border_map, metrics=self.metrics)
        self._swap_lock = threading.Lock()

    @property
    def requests(self) -> int:
        return self._metrics.counter("serving.service.requests")

    @property
    def batches(self) -> int:
        return self._metrics.counter("serving.service.batches")

    @property
    def swaps(self) -> int:
        return self._metrics.counter("serving.service.swaps")

    # -- the served map -----------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The current engine snapshot.  Readers grab this once per
        batch; the reference is replaced atomically on swap."""
        return self._engine

    @property
    def map(self) -> BorderMapBackend:
        return self._engine.map

    @property
    def epoch(self) -> int:
        return self._engine.map.epoch

    # -- querying -----------------------------------------------------------

    def batch(self, requests: Sequence[Tuple[str, int]]) -> List[Answer]:
        """Answer a caller-assembled batch against one engine snapshot,
        in request order."""
        requests = list(requests)
        if not requests:
            return []
        check_ops(requests)
        engine = self._engine  # one snapshot for the whole batch
        epoch = engine.map.epoch
        self._metrics.inc("serving.service.requests", len(requests))
        self._metrics.inc("serving.service.batches")
        # Group per op to use the engine's batched path, then restore
        # request order.
        answers: List[Optional[Answer]] = [None] * len(requests)
        for op, method in (
            ("owner", engine.owner_of_batch),
            ("border", engine.border_for_batch),
            ("neighbors", engine.neighbors_batch),
        ):
            positions = [i for i, (o, _) in enumerate(requests) if o == op]
            if not positions:
                continue
            values = method([requests[i][1] for i in positions])
            for position, value in zip(positions, values):
                answers[position] = Answer(
                    op=op, key=requests[position][1],
                    value=value, epoch=epoch,
                )
        return answers  # type: ignore[return-value]

    # -- hot swap -----------------------------------------------------------

    def swap(self, new_map: BorderMapBackend) -> int:
        """Serve ``new_map`` from now on; returns the retired epoch.

        The new engine (fresh counters over the new map) is fully
        constructed *before* the single reference assignment that
        publishes it, so concurrent readers see the old engine or the
        new one, never an intermediate state.
        """
        new_engine = QueryEngine(new_map, metrics=self.metrics)
        with self._swap_lock:
            retired = self._engine.map.epoch
            self._engine = new_engine
            self._metrics.inc("serving.service.swaps")
        return retired

    def summary(self) -> str:
        return (
            "service: epoch %d, %d requests in %d batches, %d swaps\n"
            "  map: %s"
            % (
                self.epoch, self.requests, self.batches, self.swaps,
                ", ".join("%s=%d" % (k, v)
                          for k, v in sorted(self.map.stats().items())),
            )
        )
