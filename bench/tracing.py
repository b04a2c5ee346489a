"""Layer tracing from outside the program.

A traced run wraps the public function at each module boundary (the
``PLAN`` below), records one span per call (name, layer, start, end,
parent) in memory, and restores every wrapped attribute when the traced
region ends.  Nothing under ``src/`` knows it is being traced.

A layer's *self time* is the time its spans cover minus the time their
child spans cover.  The benchmark's own code runs inside a root span of
layer ``bench``; its self time is the *unattributed* time, and
``closure`` is the share of traced wall time some program layer owns.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

BENCH_LAYER = "bench"

#: Marks every wrapper this module installs, so a test can prove none
#: is left behind.
WRAPPED = "__bench_wrapped__"


def _probes_now(collector) -> int:
    """Probes a collector's network has sent, across the per-unit
    counter resets epoch collection performs."""
    meter = getattr(collector, "meter", None)
    return (meter.total if meter is not None else 0) + \
        collector.network.probes_sent


def _alias_probes(args, kwargs):
    collector = args[0]
    before = _probes_now(collector)
    return lambda result: {"alias.probes": _probes_now(collector) - before}


def _stage_routers(args, kwargs):
    state = args[1]
    return lambda result: {"core.routers": len(state.graph.routers)}


def _incremental_routers(args, kwargs):
    ctx = args[0]
    return lambda result: {"core.routers": len(ctx.graph.routers)}


def _engine_hits(args, kwargs):
    stats = args[0].engine.stats
    hits, misses = stats.hits, stats.misses
    return lambda result: {
        "engine.hits": stats.hits - hits,
        "engine.misses": stats.misses - misses,
    }


def _channel_bytes(args, kwargs):
    channel = args[0]
    before = channel.bytes_out + channel.bytes_in
    return lambda result: {
        "wire.bytes": channel.bytes_out + channel.bytes_in - before,
    }


def _frontend_counts(args, kwargs):
    requests = len(args[1])
    metrics = args[0].metrics
    coalesced = metrics.counter("serving.frontend.coalesced")
    return lambda result: {
        "frontend.requests": requests,
        "frontend.coalesced":
            metrics.counter("serving.frontend.coalesced") - coalesced,
    }


def _channel_layer(args, kwargs) -> str:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    if op in ("prepare", "commit"):
        return "serving.swap." + op
    return "serving.shard.channel"


#: (module, attribute path, layer, meter).  A module-level function is
#: replaced wherever it is bound under its own name (``from x import f``
#: copies included); a method is replaced on its class.  ``layer`` may
#: be a callable of the call's arguments.  A meter is called with the
#: arguments before the call and returns a function of the result that
#: yields counter increments.
PLAN: Tuple[Tuple[str, str, Any, Optional[Callable]], ...] = (
    # input data and targets
    ("repro.core.bdrmap", "build_data_bundle", "bgp.bundle", None),
    ("repro.core.targets", "build_targets", "core.targets", None),
    # probing and alias resolution
    ("repro.probing.traceroute", "paris_traceroute", "probing.traceroute",
     None),
    ("repro.probing.scheduler", "RoundRobinScheduler.run",
     "probing.scheduler", None),
    ("repro.core.collection", "Collector.run_alias_resolution",
     "alias.resolve", _alias_probes),
    # graph and heuristics
    ("repro.core.routergraph", "build_router_graph", "core.graph", None),
    ("repro.core.pipeline", "GraphBuildStage.run", "core.graph", None),
    ("repro.core.pipeline", "InferenceStage.run", "core.heuristics",
     _stage_routers),
    ("repro.core.heuristics", "build_context", "core.heuristics", None),
    ("repro.core.epochs", "run_incremental_inference", "core.heuristics",
     _incremental_routers),
    ("repro.core.orchestrator", "MultiVPOrchestrator.run",
     "core.orchestrator", None),
    # incremental epochs
    ("repro.core.epochs", "SigCache.signature", "epochs.signature", None),
    ("repro.core.epochs", "EpochCollector.run", "epochs.collect", None),
    ("repro.core.epochs", "EpochRunner.run_epoch", "epochs.runner", None),
    ("repro.core.epochs", "apply_seeded_churn", "epochs.churn", None),
    ("repro.analysis.diff", "diff_border_maps", "analysis.diff", None),
    # compile, lower, save
    ("repro.serving.bordermap", "compile_border_map", "serving.compile",
     None),
    ("repro.serving.compiled", "CompiledBorderMap.from_border_map",
     "serving.lower", None),
    ("repro.serving.compiled", "patch_compiled_map", "serving.lower", None),
    ("repro.serving.compiled", "save_compiled_map", "io.save", None),
    # the serving tier, outermost first
    ("repro.serving.server", "ShardedBorderServer.batch",
     "serving.frontend", None),
    ("repro.serving.frontend", "AsyncBorderFrontEnd.batch",
     "serving.frontend", _frontend_counts),
    ("repro.serving.frontend", "AsyncBorderFrontEnd.swap", "serving.swap",
     None),
    ("repro.serving.server", "ShardedBorderServer.swap", "serving.swap",
     None),
    ("repro.serving.shard", "ShardChannel.request", _channel_layer,
     _channel_bytes),
    ("repro.serving.shard", "ShardChannel.answers_from",
     "serving.shard.unwire", None),
    ("repro.serving.shard", "ShardWorker.handle_frame",
     "serving.shard.worker", None),
    ("repro.remote.protocol", "encode", "remote.protocol.encode", None),
    ("repro.remote.protocol", "decode", "remote.protocol.decode", None),
    ("repro.remote.protocol", "pack_frame", "remote.protocol.frame", None),
    ("repro.remote.protocol", "unpack_frame", "remote.protocol.frame", None),
    ("repro.serving.service", "BorderMapService.batch", "serving.engine",
     _engine_hits),
    ("repro.serving.compiled", "CompiledBorderMap.owner_of_batch",
     "serving.compiled.lookup", None),
    ("repro.serving.compiled", "CompiledBorderMap.owner_of",
     "serving.compiled.lookup", None),
    ("repro.serving.compiled", "CompiledBorderMap.border_for",
     "serving.compiled.lookup", None),
    ("repro.serving.compiled", "CompiledBorderMap.neighbors",
     "serving.compiled.lookup", None),
)


class Tracer:
    """Spans and counters of one traced run (see module docs).

    A span is ``[id, parent, name, layer, t0, t1]`` with times in
    seconds since the tracer was created.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> List[Any]:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, layer, time.perf_counter() - self._origin, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: List[Any]) -> None:
        span[5] = time.perf_counter() - self._origin
        if self._stack and self._stack[-1] == span[0]:
            self._stack.pop()
        else:
            self._stack.remove(span[0])

    def _wrap(self, func: Callable, name: str, layer: Any,
              meter: Optional[Callable]) -> Callable:
        tracer = self
        layer_of = layer if callable(layer) else (lambda args, kwargs: layer)

        if inspect.iscoroutinefunction(func):
            async def wrapper(*args, **kwargs):
                done = meter(args, kwargs) if meter is not None else None
                span = tracer._open(name, layer_of(args, kwargs))
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(span)
                if done is not None:
                    tracer.counts.update(done(result))
                return result
        else:
            def wrapper(*args, **kwargs):
                done = meter(args, kwargs) if meter is not None else None
                span = tracer._open(name, layer_of(args, kwargs))
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(span)
                if done is not None:
                    tracer.counts.update(done(result))
                return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every ``PLAN`` target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, path, layer, meter in PLAN:
                module = importlib.import_module(module_name)
                name = "%s.%s" % (module_name, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self._wrap(raw.__func__, name, layer, meter))
                    else:
                        wrapped = self._wrap(raw, name, layer, meter)
                    self._patch(cls, attr, wrapped)
                    continue
                func = getattr(module, path)
                wrapped = self._wrap(func, name, layer, meter)
                for bound in list(sys.modules.values()):
                    namespace = getattr(bound, "__dict__", None)
                    if namespace is not None and namespace.get(path) is func:
                        self._patch(bound, path, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Trace the block: wrappers installed, one root span of layer
        ``bench`` open, everything restored on the way out."""
        self.install()
        try:
            span = self._open(name, BENCH_LAYER)
            try:
                yield
            finally:
                self._close(span)
        finally:
            self.restore()

    # -- accounting ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (``bench`` = unattributed)."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[5] - span[4] - covered[span[0]]
        return dict(totals)

    def calls(self) -> Counter:
        """Number of spans per layer."""
        return Counter(span[3] for span in self.spans)

    def root_seconds(self) -> float:
        """Wall time covered by root spans."""
        return sum(span[5] - span[4] for span in self.spans
                   if span[1] is None)

    def closure(self) -> float:
        wall = self.root_seconds()
        unattributed = self.self_times().get(BENCH_LAYER, 0.0)
        return (wall - unattributed) / wall if wall else 0.0

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, layer, t0, t1 in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": layer, "t0": t0, "t1": t1,
                }) + "\n")


def installed_wrappers() -> List[str]:
    """Every bench wrapper still reachable from a loaded ``repro``
    module or class (empty after a clean restore)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED, False):
                found.append("%s.%s" % (module_name, attr))
            if inspect.isclass(value):
                for member, raw in vars(value).items():
                    inner = getattr(raw, "__func__", raw)
                    if getattr(inner, WRAPPED, False):
                        found.append("%s.%s.%s"
                                     % (module_name, attr, member))
    return found
