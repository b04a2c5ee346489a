"""The query engine: counted lookups over one border map.

The engine is the hot path of the serving subsystem.  It wraps one
immutable map backend — the dict
:class:`~repro.serving.bordermap.BorderMap` or the flat
:class:`~repro.serving.compiled.CompiledBorderMap`, anything satisfying
:class:`~repro.serving.backend.BorderMapBackend` — with per-operation
call and latency counters.  It answers batches only, reading the clock
twice per batch instead of twice per key: the service hands it each
batch a shard worker receives.  It keeps no result cache: the compiled
map already memoizes every answer row it materializes, and the tier and
the CLI serve every artifact in that form
(:func:`~repro.serving.compiled.load_served_map` lowers a JSON one).  A
dict map handed to an engine directly is answered uncached — it is the
reference backend, not the served one.

The engine never mutates its map, so many engines may share one map and
a service may drop an engine on the floor mid-request during a hot swap:
in-flight queries finish against the map they started on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import perf_clock
from .backend import BorderMapBackend
from .bordermap import BorderLink, NeighborInfo, Ownership


class OpStats:
    """Per-operation accounting: a view over registry slots (a
    ``<prefix>calls`` counter and a ``<prefix>seconds`` timer) that
    reads and writes like plain fields (``stats.calls += 1``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    @property
    def calls(self) -> int:
        return self._registry.counter(self._prefix + "calls")

    @calls.setter
    def calls(self, value: int) -> None:
        self._registry.set_counter(self._prefix + "calls", value)

    @property
    def seconds(self) -> float:
        return self._registry.timer(self._prefix + "seconds")

    @seconds.setter
    def seconds(self, value: float) -> None:
        self._registry.set_timer(self._prefix + "seconds", value)


class EngineStats:
    """Counters the service and benchmarks read.

    Counts live in a :class:`~repro.obs.metrics.MetricsRegistry` under
    ``serving.<op>.*`` — a private one by default, or the run's shared
    registry when one is passed — so ``repro metrics`` sees the same
    call/latency numbers the engine keeps.
    """

    #: With no result cache nothing hits or misses; both read 0 for
    #: callers that still meter them.
    hits = 0
    misses = 0

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 prefix: str = "serving.") -> None:
        if registry is None or not registry.enabled:
            registry = MetricsRegistry()
        self._registry = registry
        self._prefix = prefix
        self.ops: Dict[str, OpStats] = {}

    def op(self, name: str) -> OpStats:
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats(
                self._registry, "%s%s." % (self._prefix, name)
            )
        return stats

    @property
    def calls(self) -> int:
        return sum(s.calls for s in self.ops.values())

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.ops.values())


class QueryEngine:
    """Counted query front end over one immutable border map (either
    backend: dict or compiled)."""

    def __init__(self, border_map: BorderMapBackend,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.map = border_map
        self.stats = EngineStats(metrics)

    def _counted(self, op: str, count: int,
                 call: Callable[[Any], Any], arg: Any) -> Any:
        """One timed map call answering ``count`` requests of ``op``."""
        started = perf_clock()
        value = call(arg)
        stats = self.stats.op(op)
        stats.calls += count
        stats.seconds += perf_clock() - started
        return value

    # Owner lookups have a bulk path on the map; the other two ops make
    # one map call per key.

    def owner_of_batch(self, addrs: Sequence[int]) -> List[Optional[Ownership]]:
        return self._counted(
            "owner", len(addrs), self.map.owner_of_batch, addrs
        )

    def border_for_batch(
        self, addrs: Sequence[int]
    ) -> List[Tuple[BorderLink, ...]]:
        border_for = self.map.border_for
        return self._counted(
            "border", len(addrs),
            lambda keys: [border_for(key) for key in keys], addrs,
        )

    def neighbors_batch(
        self, asns: Sequence[int]
    ) -> List[Optional[NeighborInfo]]:
        neighbors = self.map.neighbors
        return self._counted(
            "neighbors", len(asns),
            lambda keys: [neighbors(key) for key in keys], asns,
        )
