"""Shard workers: one engine replica behind a framed message channel.

The sharded serving tier (``repro.serving.server``) fans queries out to
N replicas, each wrapping a full :class:`~repro.serving.backend.\
BorderMapBackend` in its own :class:`~repro.serving.service.\
BorderMapService`.  This module is the *replica* side plus the channel
the front end talks through:

* :class:`ShardWorker` — the request loop's brain: decodes one framed
  :class:`~repro.remote.protocol.Command`, executes it against the
  shard's service, and returns a framed
  :class:`~repro.remote.protocol.Reply`.  It also holds the staged map
  of an in-progress two-phase epoch swap.
* :class:`InProcessTransport` / :class:`SpawnProcessTransport` — the
  two ways a worker runs: in the caller's process (deterministic; what
  chaos tests and the load benchmark use) or as a spawn-context child
  process holding the map in its own address space (the production
  shape — one crash never takes the map down).
* :class:`ShardChannel` — the client half: frames requests with
  :func:`~repro.remote.protocol.pack_frame`, applies an optional
  :class:`~repro.net.faults.ChannelFaultPolicy` (the same drop / garble
  / sever / delay faults the remote-control channel suffers), enforces
  a per-request deadline, and surfaces transport failures as the usual
  error taxonomy (:class:`~repro.errors.MeasurementTimeout`,
  :class:`~repro.errors.DataError`, :class:`~repro.errors.ChannelError`).

Every message crosses the wire as one length-prefixed frame, even
in-process, so the serialization path the production transport depends
on is exercised by every test.  A ``query`` travels as the typed binary
frames of :mod:`repro.serving.wire` (a packed op/key column out, a
CRC-sealed answer table back); every other op, and every error reply,
is a JSON body from :mod:`repro.remote.protocol`.  The first body byte
tells the two apart: a JSON body starts with ``{``.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ChannelError, DataError, MeasurementTimeout
from ..net.faults import ChannelFaultPolicy
from ..obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer, perf_clock
from ..remote.protocol import (
    Command,
    Reply,
    decode,
    encode,
    pack_frame,
    unpack_frame,
)
from .backend import close_backend
from .compiled import load_served_map
from .service import Answer, BorderMapService
from .wire import (
    AnswerTable,
    decode_answers,
    decode_query,
    encode_answers,
    encode_query,
)

#: Shard-protocol operations carried as JSON commands; the ``query`` op
#: has its own typed frame (:mod:`repro.serving.wire`).  ``query``,
#: ``ping``, and ``harvest`` are idempotent and safe to re-issue; the
#: swap ops carry a token that makes replays harmless (prepare/commit/
#: abort for an already-settled token is a no-op acknowledged with the
#: current state).
SHARD_OPS = ("ping", "prepare", "commit", "abort", "harvest", "shutdown")

#: The first byte of every JSON body; a typed frame starts with its kind.
_JSON = b"{"


def answer_from_wire(entry: Tuple[str, int, Any, int]) -> Answer:
    """Rebuild one :class:`Answer` from an ``(op, key, value, epoch)``
    entry of :func:`~repro.serving.wire.decode_answers`."""
    return Answer(*entry)


def span_to_wire(span) -> List[Any]:
    """A finished span as the compact harvest-wire array
    ``[id, parent, name, t0, t1, attrs]``.

    Harvest payloads are mostly spans; the array form sheds the six
    repeated dict keys so the frame's JSON encode/decode (paid twice
    per hop) stays cheap on the supervision cadence.
    """
    return [span.sid, span.parent, span.name, span.t0, span.t1,
            span.attrs]


def span_from_wire(entry: Sequence[Any]) -> Dict[str, Any]:
    """Rebuild the standard span dict from :func:`span_to_wire` form."""
    try:
        sid, parent, name, t0, t1, attrs = entry
    except (TypeError, ValueError) as exc:
        raise DataError("malformed wire span: %r" % (entry,)) from exc
    return {
        "id": sid, "parent": parent, "name": name,
        "t0": t0, "t1": t1, "attrs": attrs,
    }


# -- the worker --------------------------------------------------------------


class ShardWorker:
    """One engine replica: a :class:`BorderMapService` plus the staged
    state of an in-progress two-phase swap.

    ``loader`` maps an artifact path to a backend (the default is
    :func:`repro.serving.compiled.load_served_map`: either artifact
    format, served as a compiled map).
    The worker itself is transport-agnostic: :meth:`handle_frame` takes
    one framed request and returns one framed reply, and both
    transports just move those bytes.
    """

    def __init__(
        self,
        artifact_path: str,
        shard_id: int = 0,
        loader: Optional[Callable[[str], Any]] = None,
        token: int = 0,
    ) -> None:
        if loader is None:
            loader = load_served_map
        self._loader = loader
        self.shard_id = shard_id
        self.artifact_path = artifact_path
        self.service = BorderMapService(loader(artifact_path))
        # Two-phase swap staging: (token, path, backend) or None.
        self._staged: Optional[Tuple[int, str, Any]] = None
        # The swap token of the epoch currently being served; 0 until
        # the first committed swap.  The front end compares this against
        # the committed token to spot a replica serving a stale epoch.
        # A *restarted* replica is handed the committed token it just
        # loaded (it starts converged, not stale).
        self.token = token
        # Always-on worker telemetry: a real registry (dict bumps are
        # cheap enough to leave on) harvested as deltas by the front
        # end, and a tracer that stays null until the first command
        # carrying a trace context seeds it deterministically.
        self.metrics = MetricsRegistry()
        self._harvest_mark = self.metrics.snapshot()
        self.tracer: Tracer = NULL_TRACER
        self._frame_bytes = 0
        self._batches = 0
        # Set once a shutdown command is answered; a process loop exits
        # after sending that reply.
        self.shut_down = False

    # -- framed entry point -------------------------------------------------

    def handle_frame(self, data: bytes) -> bytes:
        """Decode one framed command, execute it, return a framed reply.

        A typed query frame gets a typed answer table back; a JSON
        command gets a JSON :class:`Reply`.  A failed op, and a
        malformed frame (seq 0), still get a framed JSON error reply so
        the channel's decode layer — not the worker — decides how to
        classify the failure.
        """
        self._frame_bytes = len(data)
        command = None
        try:
            body = unpack_frame(data)
            if body[:1] == _JSON:
                command = decode(body)
                if not isinstance(command, Command):
                    raise DataError("expected a command, got %r"
                                    % (command,))
                seq = command.seq
            else:
                seq, ctx, requests = decode_query(body)
        except DataError as exc:
            self.metrics.inc("worker.bad_frames")
            reply = Reply(seq=0, payload={}, error="bad frame: %s" % exc)
            return pack_frame(encode(reply))
        try:
            if command is None:
                return pack_frame(self._handle_query(seq, requests, ctx))
            payload = self.handle(command.op, command.args, command.trace)
            reply = Reply(seq=seq, payload=payload)
        except Exception as exc:  # noqa: BLE001 - becomes a wire error
            self.metrics.inc("worker.errors")
            reply = Reply(
                seq=seq, payload={},
                error="%s: %s" % (type(exc).__name__, exc),
            )
        return pack_frame(encode(reply))

    # -- dispatch -----------------------------------------------------------

    def handle(self, op: str, args: Dict[str, Any],
               ctx: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        if op == "ping":
            self.metrics.inc("worker.pings")
            return {
                "ok": True,
                "shard": self.shard_id,
                "epoch": self.service.epoch,
                "token": self.token,
            }
        if op == "prepare":
            return self._handle_prepare(args, ctx)
        if op == "commit":
            return self._handle_commit(args, ctx)
        if op == "abort":
            return self._handle_abort(args, ctx)
        if op == "harvest":
            return self._handle_harvest()
        if op == "shutdown":
            self.shut_down = True
            return {"ok": True}
        raise DataError(
            "unknown shard op %r (want one of %s)" % (op, "/".join(SHARD_OPS))
        )

    def _ensure_tracer(self, ctx: Optional[Dict[str, Any]]) -> Tracer:
        """The worker's tracer, seeded on the first trace context seen.

        The seed mixes the front-end tracer's seed with the shard id, so
        every replica of a run gets a distinct-but-deterministic id
        stream — identical whether the worker lives in-process or in a
        spawned child, which is what makes merged traces byte-identical
        across transports.
        """
        if ctx is None:
            return NULL_TRACER
        if not self.tracer.enabled:
            seed = (int(ctx.get("seed", 0)) * 1000003
                    + self.shard_id + 1) & 0xFFFFFFFFFFFFFFFF
            self.tracer = Tracer(seed=seed)
        return self.tracer

    #: Every query batch gets a ``shard.query`` span; the decode/lookup
    #: detail sub-spans are recorded on every Nth batch only (a
    #: deterministic worker-local counter, so sampling is identical
    #: across transports and runs).  Timing detail at full rate costs
    #: more in span shipping than the lookups themselves; the sampled
    #: batches keep the breakdown visible in every merged trace.
    DETAIL_EVERY = 8

    def _handle_query(self, seq: int, requests: List[Tuple[str, int]],
                      ctx: Optional[Dict[str, Any]] = None) -> bytes:
        """Answer one decoded query frame; returns the answer-table
        body (:func:`~repro.serving.wire.encode_answers`)."""
        self._batches += 1
        self.metrics.inc("worker.queries", len(requests))
        self.metrics.inc("worker.batches")
        self.metrics.observe("worker.batch.size", len(requests))
        tracer = self._ensure_tracer(ctx)
        detail = (self._batches - 1) % self.DETAIL_EVERY == 0
        started = perf_clock()
        with tracer.span("shard.query",
                         remote_parent=ctx.get("id") if ctx else None,
                         shard=self.shard_id, size=len(requests)):
            if detail:
                with tracer.span("shard.decode", bytes=self._frame_bytes):
                    pass
                with tracer.span("shard.lookup"):
                    answers = self.service.batch(requests)
            else:
                answers = self.service.batch(requests)
        elapsed = perf_clock() - started
        self.metrics.time("worker.query.seconds", elapsed)
        self.metrics.observe("worker.query.ms", 1e3 * elapsed,
                             bounds=LATENCY_BUCKETS_MS)
        # One engine snapshot answered the batch: its epoch is theirs.
        epoch = answers[0].epoch if answers else self.service.epoch
        return encode_answers(seq, epoch, self.token, answers)

    def _handle_harvest(self) -> Dict[str, Any]:
        """Delta-since-last-harvest of the worker registry plus every
        span finished since the previous harvest.  Harvesting twice with
        nothing in between returns an empty delta and no spans.

        Spans cross the wire in compact array form (see
        :func:`span_to_wire`) — they dominate the harvest payload, and
        dropping the six dict keys roughly halves the JSON cost on both
        sides of the frame.
        """
        self.metrics.inc("worker.harvests")
        self.metrics.set_gauge("worker.epoch", float(self.service.epoch))
        self.metrics.set_gauge("worker.token", float(self.token))
        delta = self.metrics.delta_since(self._harvest_mark)
        self._harvest_mark = self.metrics.snapshot()
        spans = (
            [span_to_wire(span) for span in self.tracer.drain()]
            if self.tracer.enabled else []
        )
        return {
            "shard": self.shard_id,
            "epoch": self.service.epoch,
            "token": self.token,
            "metrics": delta,
            "spans": spans,
        }

    # -- two-phase swap -----------------------------------------------------

    def _handle_prepare(self, args: Dict[str, Any],
                        ctx: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
        token = int(args["token"])
        path = str(args["path"])
        if self._staged is not None and self._staged[0] == token:
            return {"ok": True, "token": token}  # idempotent replay
        if self._staged is not None:
            close_backend(self._staged[2])
        tracer = self._ensure_tracer(ctx)
        with tracer.span("shard.prepare",
                         remote_parent=ctx.get("id") if ctx else None,
                         shard=self.shard_id, token=token):
            # Loading is the expensive, fallible half; it happens here,
            # while the old map keeps serving, so commit is a pure
            # pointer swap.
            started = perf_clock()
            self._staged = (token, path, self._loader(path))
            self.metrics.time("worker.prepare.seconds",
                              perf_clock() - started)
        self.metrics.inc("worker.prepares")
        return {"ok": True, "token": token}

    def _handle_commit(self, args: Dict[str, Any],
                       ctx: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
        token = int(args["token"])
        if self._staged is None or self._staged[0] != token:
            if self.token == token:
                return {"ok": True, "epoch": self.service.epoch,
                        "token": self.token}  # idempotent replay
            raise DataError(
                "commit for unprepared token %d (staged: %s)"
                % (token, self._staged[0] if self._staged else None)
            )
        tracer = self._ensure_tracer(ctx)
        with tracer.span("shard.commit",
                         remote_parent=ctx.get("id") if ctx else None,
                         shard=self.shard_id, token=token):
            _, path, backend = self._staged
            self._staged = None
            retired = self.service.map
            self.service.swap(backend)
            close_backend(retired)
        self.artifact_path = path
        self.token = token
        self.metrics.inc("worker.swaps")
        return {"ok": True, "epoch": self.service.epoch, "token": self.token}

    def _handle_abort(self, args: Dict[str, Any],
                      ctx: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        token = int(args["token"])
        if self._staged is not None and self._staged[0] == token:
            tracer = self._ensure_tracer(ctx)
            with tracer.span("shard.abort",
                             remote_parent=ctx.get("id") if ctx else None,
                             shard=self.shard_id, token=token):
                close_backend(self._staged[2])
                self._staged = None
            self.metrics.inc("worker.aborts")
        return {"ok": True, "token": token}

    def close(self) -> None:
        if self._staged is not None:
            close_backend(self._staged[2])
            self._staged = None
        close_backend(self.service.map)


# -- transports --------------------------------------------------------------


class InProcessTransport:
    """A worker living in the caller's process, spoken to in framed
    bytes exactly as a remote one would be.

    Deterministic by construction (no real concurrency, virtual
    deadlines), which is what lets chaos tests assert exact degraded
    sets.  :meth:`kill` models a crashed replica: the worker is dropped
    and every exchange fails with :class:`ChannelError` until
    :meth:`restart` builds a fresh worker from an artifact path — the
    same contract a supervisor has with a real child process.
    """

    def __init__(self, artifact_path: str, shard_id: int = 0,
                 loader: Optional[Callable[[str], Any]] = None) -> None:
        self.shard_id = shard_id
        self._loader = loader
        self.worker: Optional[ShardWorker] = ShardWorker(
            artifact_path, shard_id=shard_id, loader=loader,
        )
        self.exchanges = 0

    @property
    def alive(self) -> bool:
        return self.worker is not None

    def exchange(self, data: bytes, deadline_s: float) -> bytes:
        if self.worker is None:
            raise ChannelError("shard %d is down" % self.shard_id)
        self.exchanges += 1
        return self.worker.handle_frame(data)

    def kill(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None

    def restart(self, artifact_path: str, token: int = 0) -> None:
        self.kill()
        self.worker = ShardWorker(
            artifact_path, shard_id=self.shard_id, loader=self._loader,
            token=token,
        )

    def close(self) -> None:
        self.kill()


class SpawnProcessTransport:
    """A worker in a spawn-context child process, one duplex pipe.

    Frames travel over ``multiprocessing.Pipe`` byte messages; the
    deadline maps to ``Connection.poll``.  A child that dies (or a pipe
    that breaks) surfaces as :class:`ChannelError`, after which the
    supervisor may :meth:`restart` — a fresh child loading the artifact
    path it is given (normally the last *committed* epoch).
    """

    def __init__(self, artifact_path: str, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        self._ctx = multiprocessing.get_context("spawn")
        self._process = None
        self._conn = None
        self._start(artifact_path, 0)

    def _start(self, artifact_path: str, token: int) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_process_main,
            args=(child, artifact_path, self.shard_id, token),
            daemon=True,
        )
        process.start()
        child.close()
        self._process = process
        self._conn = parent

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def exchange(self, data: bytes, deadline_s: float) -> bytes:
        if self._conn is None or self._process is None:
            raise ChannelError("shard %d is down" % self.shard_id)
        try:
            self._conn.send_bytes(data)
            if not self._conn.poll(deadline_s):
                raise MeasurementTimeout(
                    "shard %d silent for %.1fs" % (self.shard_id, deadline_s)
                )
            return self._conn.recv_bytes()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ChannelError(
                "shard %d pipe failed: %s" % (self.shard_id, exc)
            ) from exc

    def kill(self) -> None:
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        if process is not None:
            process.terminate()
            process.join(timeout=5.0)

    def restart(self, artifact_path: str, token: int = 0) -> None:
        self.kill()
        self._start(artifact_path, token)

    def close(self) -> None:
        if self._conn is not None and self._process is not None \
                and self._process.is_alive():
            try:
                self._conn.send_bytes(
                    pack_frame(encode(Command(op="shutdown", args={}, seq=0)))
                )
            except (BrokenPipeError, OSError):
                pass
        self.kill()


def shard_process_main(conn, artifact_path: str, shard_id: int,
                       token: int = 0) -> None:
    """Entry point of a spawned shard process: serve framed requests
    from ``conn`` until a shutdown command or EOF."""
    worker = ShardWorker(artifact_path, shard_id=shard_id, token=token)
    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                return
            response = worker.handle_frame(data)
            try:
                conn.send_bytes(response)
            except (BrokenPipeError, OSError):
                return
            # The shutdown handshake: replying first, then exiting, lets
            # the parent join cleanly.
            if worker.shut_down:
                return
    finally:
        worker.close()
        conn.close()


# -- the client channel ------------------------------------------------------


class ShardChannel:
    """The front end's handle on one shard: framing, deadlines, faults.

    Mirrors the remote-control :class:`~repro.remote.protocol.Channel`
    discipline on a different transport: every request is one framed
    command / framed reply exchange, an attached
    :class:`ChannelFaultPolicy` can drop (deadline expires), garble
    (decode fails), sever (channel dies until the supervisor restarts
    the shard), or delay the reply, and all failures surface as the
    standard error taxonomy for the supervisor's breaker to count.

    ``clock_advance`` (optional) charges waits — deadline expiries,
    injected delays — to a virtual clock so fault timelines reproduce.
    """

    def __init__(
        self,
        transport,
        faults: Optional[ChannelFaultPolicy] = None,
        deadline_s: float = 5.0,
        clock_advance: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.transport = transport
        self.faults = faults
        self.deadline_s = deadline_s
        self._advance = clock_advance
        self.requests = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.timeouts = 0
        self.garbled = 0
        self.severed = 0
        self.delays = 0
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def shard_id(self) -> int:
        return self.transport.shard_id

    @property
    def alive(self) -> bool:
        return self.transport.alive

    def _wait(self, seconds: float) -> None:
        if self._advance is not None and seconds > 0:
            self._advance(seconds)

    def request(self, op: str, *,
                trace: Optional[Dict[str, Any]] = None,
                **args: Any) -> Dict[str, Any]:
        """One framed round trip; returns the reply payload.

        ``trace`` (keyword-only, never an op argument) is the optional
        trace context stamped into the command so the worker parents
        its spans under the front-end span that issued this request.
        A ``query`` (``requests=[(op, key), ...]``) travels as a typed
        frame and returns ``{"epoch", "token", "answers"}``, the answers
        as decoded entries for :meth:`answers_from`.

        One exchange at a time: a duplex pipe cannot interleave two
        framed round trips, and the seq and byte accounting are not
        thread-safe, so callers on other threads (the async front end's
        executor) take turns on the channel's lock.
        """
        with self._lock:
            self._seq += 1
            self.requests += 1
            if op == "query":
                body = encode_query(self._seq, args["requests"], trace)
            else:
                body = encode(Command(op=op, args=args, seq=self._seq,
                                      trace=trace))
            wire_out = pack_frame(body)
            self.bytes_out += len(wire_out)

            fault = (self.faults.next_fault()
                     if self.faults is not None else None)
            if fault == "sever":
                self.severed += 1
                self.transport.kill()
                raise ChannelError(
                    "shard %d connection severed" % self.shard_id
                )

            wire_in = self.transport.exchange(wire_out, self.deadline_s)

            if fault == "drop":
                self.timeouts += 1
                self._wait(self.deadline_s)
                raise MeasurementTimeout(
                    "no reply from shard %d within %.1fs"
                    % (self.shard_id, self.deadline_s)
                )
            if fault == "delay":
                self.delays += 1
                self._wait(self.faults.delay_seconds)
            if fault == "garble":
                self.garbled += 1
                wire_in = self.faults.garble(wire_in)

            self.bytes_in += len(wire_in)
            try:
                body = unpack_frame(wire_in)
                if body[:1] == _JSON:
                    reply = decode(body)
                else:
                    reply = decode_answers(body)
            except DataError:
                if fault != "garble":
                    self.garbled += 1
                raise
            if isinstance(reply, AnswerTable):
                if op != "query" or reply.seq != self._seq:
                    raise DataError(
                        "shard %d sent an answer table (seq %d) for %r "
                        "request seq %d" % (self.shard_id, reply.seq, op,
                                            self._seq)
                    )
                return {"epoch": reply.epoch, "token": reply.token,
                        "answers": reply.entries}
            if not isinstance(reply, Reply):
                raise DataError("expected a reply, got %r" % (reply,))
            if reply.error is not None:
                raise ChannelError(
                    "shard %d error for op %r: %s"
                    % (self.shard_id, op, reply.error)
                )
            if op == "query":
                raise DataError("shard %d answered a query without an answer "
                                "table" % self.shard_id)
            return reply.payload

    def query(self, requests: Sequence[Tuple[str, int]],
              trace: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return self.request("query", trace=trace, requests=requests)

    def answers_from(self, payload: Dict[str, Any]) -> List[Answer]:
        return [answer_from_wire(entry) for entry in payload["answers"]]

    def close(self) -> None:
        self.transport.close()
