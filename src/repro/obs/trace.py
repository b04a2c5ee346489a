"""The span tracer: nested context-manager spans, deterministic ids.

Traces must reproduce: two runs with the same seed write byte-identical
JSONL.  Two rules make that true by construction:

* **Ids** are a 64-bit mix of ``(seed, sequence number)`` — never a
  wall-clock read, never ``id(obj)``.
* **Timestamps** come from the tracer's *clock*, which for simulation
  runs is the network's virtual clock (``lambda: network.now``) and
  otherwise an internal monotonically incrementing tick counter.  The
  wall clock never enters a span.

The one sanctioned wall-clock read point in the repo is
:func:`perf_clock` (the serving layer times real throughput with it);
a lint test forbids ``time.time()`` / ``time.perf_counter()`` calls
anywhere else.
"""

from __future__ import annotations

import json
import time
from typing import (
    Any, Callable, Dict, IO, Iterable, List, Optional, Union,
)

from ..errors import DataError

TRACE_FORMAT = "bdrmap-repro-trace/1"

#: The repo's single wall-clock entry point.  Serving benchmarks (host
#: throughput is a property of the machine, not the simulated Internet)
#: and the instrumentation-overhead guard call this; nothing else may
#: read the wall clock directly.
perf_clock = time.perf_counter


def span_id(seed: int, seq: int) -> str:
    """A deterministic 64-bit id from (run seed, span sequence)."""
    x = ((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
         + seq * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return "%016x" % x


class Span:
    """One timed region.  Use via ``with tracer.span(name, **attrs):``."""

    __slots__ = (
        "name", "sid", "parent", "t0", "t1", "attrs", "_tracer", "_remote",
    )

    def __init__(self, tracer: "Tracer", name: str, sid: str,
                 attrs: Dict[str, Any],
                 remote_parent: Optional[str] = None) -> None:
        self._tracer = tracer
        self.name = name
        self.sid = sid
        self.parent: Optional[str] = None
        self.t0 = 0.0
        self.t1 = 0.0
        self.attrs = attrs
        self._remote = remote_parent

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            self.parent = stack[-1].sid
        else:
            # A remote parent (the trace context a shard command carried
            # over the wire) only applies to a tree root: a local
            # enclosing span always wins.
            self.parent = self._remote
        self.t0 = tracer._now()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.t1 = tracer._now()
        tracer._stack.pop()
        tracer.spans.append(self)
        return False

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Stateless reentrant do-nothing span (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; clock and ids are both deterministic.

    ``clock`` is any zero-arg float callable — pass
    ``lambda: network.now`` to stamp spans in simulated seconds.  With
    no clock, an internal tick counter increments once per clock read,
    which still orders spans totally and deterministically.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 seed: int = 0) -> None:
        self.seed = seed
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._seq = 0
        self._tick = 0
        self._clock = clock

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        self._tick += 1
        return float(self._tick)

    def span(self, name: str, remote_parent: Optional[str] = None,
             **attrs: Any) -> Span:
        self._seq += 1
        return Span(self, name, span_id(self.seed, self._seq), attrs,
                    remote_parent=remote_parent)

    @property
    def current_id(self) -> Optional[str]:
        """Id of the innermost open span, or None outside any span.

        The serving front end stamps this into shard commands so
        worker-side spans parent under the query span that caused them.
        """
        return self._stack[-1].sid if self._stack else None

    def drain(self) -> List[Span]:
        """Hand over (and forget) every finished span.

        Sequence numbers keep counting, so ids stay unique across
        drains — this is how a shard worker ships its spans home at
        each harvest without re-sending old ones.
        """
        spans, self.spans = self.spans, []
        return spans

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(span.as_dict(), sort_keys=True) + "\n"
            for span in self.spans
        )

    def write_jsonl(self, target: Union[str, IO[str]]) -> None:
        # Function-level import: io.serialize imports modules that
        # import this one.
        from ..io.serialize import write_payload
        write_payload(self.to_jsonl(), target)

    def profile(self) -> List[Dict[str, Any]]:
        return profile_spans(span.as_dict() for span in self.spans)

    def profile_table(self) -> str:
        return profile_table(self.profile())


class NullTracer(Tracer):
    """No-op tracer: ``span()`` hands back one shared inert span."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, remote_parent: Optional[str] = None,
             **attrs: Any) -> Any:
        return _NULL_SPAN


#: Shared do-nothing instance; the default wherever tracing threads
#: through.  Its null span keeps no state, so sharing is safe.
NULL_TRACER = NullTracer()


def load_trace(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Read a ``--trace-out`` JSONL file back into span dicts."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source) as handle:
                text = handle.read()
    except OSError as exc:
        raise DataError("cannot read trace file: %s" % exc) from exc
    spans = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            span = json.loads(line)
            span["id"], span["name"], span["t0"], span["t1"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(
                "malformed trace line %d: %s" % (lineno, exc)
            ) from exc
        spans.append(span)
    return spans


def span_tree(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest span dicts under their parents; returns the roots.

    A span whose parent id is None — or references a span not present
    in the input — becomes a root.  Input order is preserved among
    siblings, so a deterministically-ordered merged export yields a
    deterministic tree.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    ordered = []
    for span in spans:
        node = dict(span)
        node["children"] = []
        nodes[node["id"]] = node
        ordered.append(node)
    roots = []
    for node in ordered:
        parent = node.get("parent")
        if parent is not None and parent in nodes and parent != node["id"]:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def format_span_tree(spans: Iterable[Dict[str, Any]]) -> str:
    """Indented one-line-per-span rendering of :func:`span_tree`."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        attrs = node.get("attrs") or {}
        detail = " ".join(
            "%s=%s" % (key, attrs[key]) for key in sorted(attrs)
        )
        lines.append(
            "%s%-*s %10.3f  %s"
            % ("  " * depth, 36 - 2 * depth, node["name"],
               node["t1"] - node["t0"], detail)
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in span_tree(spans):
        walk(root, 0)
    return "\n".join(lines)


def profile_spans(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate span dicts into a self/total-time profile.

    ``total`` is the summed duration of every span with a given name;
    ``self`` subtracts time covered by each span's *direct* children,
    so nested stages do not double-count.  Sorted by self descending.
    """
    spans = list(spans)
    child_time: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = (
                child_time.get(parent, 0.0) + (span["t1"] - span["t0"])
            )
    rows: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        duration = span["t1"] - span["t0"]
        row = rows.get(span["name"])
        if row is None:
            row = rows[span["name"]] = {
                "name": span["name"], "count": 0,
                "total": 0.0, "self": 0.0,
            }
        row["count"] += 1
        row["total"] += duration
        row["self"] += duration - child_time.get(span["id"], 0.0)
    return sorted(
        rows.values(), key=lambda r: (-r["self"], r["name"])
    )


def profile_table(rows: List[Dict[str, Any]]) -> str:
    lines = ["%-36s %8s %12s %12s" % ("span", "count", "total", "self")]
    for row in rows:
        lines.append(
            "%-36s %8d %12.3f %12.3f"
            % (row["name"], row["count"], row["total"], row["self"])
        )
    return "\n".join(lines)
