"""The metrics registry: named counters, gauges, timers, histograms.

Design constraints, in order:

1. **Cheap enough to leave on.**  Counters are plain dict slots bumped
   with integer adds; no locks (the simulator is single-threaded and
   the serving layer tolerates torn reads on monitoring counters), no
   label objects, no per-sample allocation.
2. **Free when off.**  :class:`NullRegistry` overrides every mutator
   with a ``pass`` body, so an uninstrumented hot path pays one no-op
   method call — the :data:`NULL_REGISTRY` singleton is the default
   everywhere instrumentation threads through.
3. **One source of truth.**  Subsystems that used to keep private
   hand-rolled counters (fault stats, retry stats, engine stats) now
   *view* slots in a shared registry, so ``repro metrics`` and the
   RunReport read the same numbers.

Metric names are dotted strings (``"probe.sent"``,
``"pass.5.4.2.claimed"``); the registry imposes no schema beyond that.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Sequence, Union

from ..errors import DataError

METRICS_FORMAT = "bdrmap-repro-metrics/1"

#: Default histogram bounds: powers of four from 1 — wide enough for
#: counts (probes per block, pairs per router) without tuning.
DEFAULT_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)

#: Latency bounds in milliseconds: sub-millisecond resolution at the
#: bottom (engine lookups are microseconds) up to a multi-second
#: overflow for stalled shards.  Used by the serving tier's
#: ``*.query.ms`` histograms, which the SLO layer reads percentiles
#: from.
LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Histogram:
    """A fixed-bucket histogram: ``len(bounds) + 1`` integer counts.

    Bucket ``i`` counts samples ``<= bounds[i]``; the final bucket is
    the overflow.  Bounds are fixed at creation — no resizing, no
    per-sample allocation.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Deterministic bucket-interpolated quantile, ``0 <= q <= 1``.

        Linear interpolation within the bucket holding the ``q``-th
        sample, taking the previous bound as the bucket's lower edge
        (0 for the first).  Overflow samples clamp to the top bound —
        the histogram records nothing finer.  Pure arithmetic on the
        bucket counts, so two registries with equal counts agree
        exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            bucket = self.counts[i]
            if bucket:
                if rank <= cumulative + bucket:
                    fraction = (rank - cumulative) / bucket
                    return lower + (bound - lower) * fraction
                cumulative += bucket
            lower = bound
        return float(self.bounds[-1]) if self.bounds else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named counters, gauges, timers, and histograms in plain dicts."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- mutators (every one is a no-op on NullRegistry) --------------------

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_counter(self, name: str, value: int) -> None:
        self.counters[name] = value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def set_timer(self, name: str, seconds: float) -> None:
        self.timers[name] = seconds

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.observe(value)

    # -- readers (always real, even on NullRegistry) ------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def timer(self, name: str) -> float:
        return self.timers.get(name, 0.0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            name: value for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    # -- deltas and merging ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A cheap point-in-time copy of every slot, for :meth:`delta_since`."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": dict(self.timers),
            "histograms": {
                name: (hist.count, hist.sum, tuple(hist.counts))
                for name, hist in self.histograms.items()
            },
        }

    def delta_since(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """What accumulated since ``snapshot`` — the per-VP slice of a
        shared registry, in :meth:`merge_delta` form.  Slots whose value
        did not move are omitted, so a delta of an idle period is empty."""
        # A slot that exists now but not in the snapshot is part of the
        # delta even at zero: merge_delta must re-create it, or a resumed
        # registry would be missing the zero-valued slots a fresh run has
        # (e.g. a scheduler's tasks_failed counter that never fired).
        counters = {}
        for name, value in self.counters.items():
            moved = value - snapshot["counters"].get(name, 0)
            if moved or name not in snapshot["counters"]:
                counters[name] = moved
        timers = {}
        for name, value in self.timers.items():
            moved = value - snapshot["timers"].get(name, 0.0)
            if moved or name not in snapshot["timers"]:
                timers[name] = moved
        # Gauges are level samples, not accumulators: the "delta" is the
        # final value of every gauge written since the snapshot, replayed
        # with last-write-wins semantics by merge_delta.  Without them a
        # resumed run would lose the gauges its checkpointed VPs set.
        gauges = {}
        before_gauges = snapshot.get("gauges", {})
        for name, value in self.gauges.items():
            if name not in before_gauges or before_gauges[name] != value:
                gauges[name] = value
        histograms = {}
        for name, hist in self.histograms.items():
            before = snapshot["histograms"].get(
                name, (0, 0.0, (0,) * len(hist.counts))
            )
            if hist.count == before[0] and name in snapshot["histograms"]:
                continue
            histograms[name] = {
                "bounds": list(hist.bounds),
                "counts": [
                    now - then for now, then in zip(hist.counts, before[2])
                ],
                "count": hist.count - before[0],
                "sum": hist.sum - before[1],
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": timers,
            "histograms": histograms,
        }

    def merge_delta(self, delta: Dict[str, Any], prefix: str = "") -> None:
        """Add a :meth:`delta_since` (or a whole registry's
        :meth:`as_dict`) into this registry.  Addition is commutative per
        slot, so merging per-VP deltas in VP order reproduces the registry
        a single-process run would have built.

        ``prefix`` namespaces every incoming slot — the serving front end
        folds each shard's harvest under ``shard.<k>.`` so replicas never
        collide."""
        for name, value in delta.get("counters", {}).items():
            self.inc(prefix + name, value)
        for name, value in delta.get("timers", {}).items():
            self.time(prefix + name, value)
        for name, entry in delta.get("histograms", {}).items():
            hist = self.histograms.get(prefix + name)
            if hist is None:
                hist = Histogram(entry["bounds"])
                self.histograms[prefix + name] = hist
            hist.count += entry["count"]
            hist.sum += entry["sum"]
            for index, count in enumerate(entry["counts"]):
                if index < len(hist.counts):
                    hist.counts[index] += count
        for name, value in delta.get("gauges", {}).items():
            self.set_gauge(prefix + name, value)

    # -- export -------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": METRICS_FORMAT,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "timers": {k: self.timers[k] for k in sorted(self.timers)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    def write_json(self, target: Union[str, IO[str]]) -> None:
        payload = json.dumps(self.as_dict(), indent=1, sort_keys=True)
        if hasattr(target, "write"):
            target.write(payload)
            return
        # Function-level import: io.serialize pulls in report/provenance
        # modules that import this one.
        from ..io.serialize import atomic_write_text
        atomic_write_text(target, payload)

    def summary(self) -> str:
        lines = []
        for name in sorted(self.counters):
            lines.append("%-44s %12d" % (name, self.counters[name]))
        for name in sorted(self.gauges):
            lines.append("%-44s %12.3f" % (name, self.gauges[name]))
        for name in sorted(self.timers):
            lines.append("%-44s %9.3f ms" % (name, 1e3 * self.timers[name]))
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append(
                "%-44s n=%-8d mean=%.2f p50=%.2f p99=%.2f"
                % (name, hist.count, hist.mean,
                   hist.percentile(0.5), hist.percentile(0.99))
            )
        return "\n".join(lines)


class NullRegistry(MetricsRegistry):
    """The no-op fallback: every mutator is a ``pass`` body.

    Readers still work (and report zeros/empties), so code may read
    back counters unconditionally.
    """

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def set_counter(self, name: str, value: int) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def time(self, name: str, seconds: float) -> None:
        pass

    def set_timer(self, name: str, seconds: float) -> None:
        pass

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        pass

    def merge_delta(self, delta: Dict[str, Any], prefix: str = "") -> None:
        pass


#: Shared do-nothing instance; the default wherever instrumentation is
#: threaded through.  Never mutated, so sharing one is safe.
NULL_REGISTRY = NullRegistry()


def load_metrics(source: Union[str, IO[str]]) -> Dict[str, Any]:
    """Read a ``--metrics-out`` JSON file back; validates the format."""
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source) as handle:
                payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError("cannot read metrics file: %s" % exc) from exc
    try:
        fmt = payload["format"]
    except (KeyError, TypeError) as exc:
        raise DataError("metrics file has no format marker") from exc
    if fmt != METRICS_FORMAT:
        raise DataError("unsupported metrics format %r" % (fmt,))
    return payload


def registry_from_dict(payload: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.as_dict` output."""
    registry = MetricsRegistry()
    try:
        registry.counters.update(payload.get("counters", {}))
        registry.gauges.update(payload.get("gauges", {}))
        registry.timers.update(payload.get("timers", {}))
        for name, hd in payload.get("histograms", {}).items():
            hist = Histogram(hd["bounds"])
            hist.counts = list(hd["counts"])
            hist.count = hd["count"]
            hist.sum = hd["sum"]
            registry.histograms[name] = hist
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("malformed metrics payload: %s" % exc) from exc
    return registry
