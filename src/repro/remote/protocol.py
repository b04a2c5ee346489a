"""Wire protocol between the central controller and the on-device prober.

Commands and replies are serialized to compact JSON (what the real system
sends over the scamper control socket).  The :class:`Channel` counts every
byte in both directions and tracks the prober's peak in-flight state so the
§5.8 resource claims can be measured rather than asserted.

The channel is also where control-plane faults live: with a
:class:`~repro.net.faults.ChannelFaultPolicy` attached, replies can be
dropped (the call times out), garbled (decode fails), delayed, or the
connection severed.  :meth:`Channel.call` survives all of these for
idempotent measurement ops: it times out, reconnects, and retries within a
budget, raising :class:`~repro.errors.MeasurementTimeout` only when the
budget is exhausted.  Without a fault policy the channel behaves exactly
as before — same bytes, same accounting.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ChannelError, DataError, MeasurementTimeout, ProbeError
from ..net.faults import ChannelFaultPolicy
from ..probing.retry import RetryStats

# Measurement ops that are safe to re-issue after a transport failure.
# Every bdrmap measurement is idempotent (probing twice just costs probes);
# ops outside this set fail fast on the first transport error.
IDEMPOTENT_OPS = frozenset(
    {"trace", "ping", "ally", "mercator", "prefixscan", "velocity", "status"}
)


@dataclass(frozen=True)
class Command:
    """Controller → prober: one measurement to run.

    ``trace`` is an optional compact trace context (``{"id": <parent
    span id>, "seed": <tracer seed>}``) propagated by the serving tier
    so worker-side spans parent under the front-end span that issued
    the command.  When absent the wire bytes are identical to the
    pre-telemetry protocol.
    """

    op: str                      # "trace" | "ping" | "ally" | "prefixscan"
    args: Dict[str, Any]
    seq: int = 0
    trace: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class Reply:
    """Prober → controller: the measurement's result.

    ``error`` lets the device signal that the op itself failed (bad
    arguments, internal fault) — distinct from transport failures, which
    are the channel's business.
    """

    seq: int
    payload: Dict[str, Any]
    error: Optional[str] = None


def encode(message) -> bytes:
    if isinstance(message, Command):
        body = {"t": "cmd", "seq": message.seq, "op": message.op,
                "args": message.args}
        if message.trace is not None:
            body["tc"] = message.trace
    elif isinstance(message, Reply):
        body = {"t": "rep", "seq": message.seq, "payload": message.payload}
        if message.error is not None:
            body["err"] = message.error
    else:
        raise ProbeError("cannot encode %r" % (message,))
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


#: Each frame type's fields: name, the exact JSON type its value must
#: have (so ``true`` is not an int ``seq``), and whether it must be there.
_FRAME_FIELDS = {
    "cmd": (("op", str, True), ("args", dict, True), ("seq", int, True),
            ("tc", dict, False)),
    "rep": (("seq", int, True), ("payload", dict, True),
            ("err", str, False)),
}


def decode(data: bytes):
    """Decode one wire frame.

    Truncated, garbled or mistyped frames raise :class:`DataError`
    carrying an excerpt of the offending payload; a structurally valid
    frame of an unknown type still raises :class:`ProbeError` (a
    protocol-version problem, not line noise).
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(
            "garbled frame (%s): %r" % (exc, data[:64])
        ) from exc
    if not isinstance(body, dict):
        raise DataError("garbled frame (not an object): %r" % (data[:64],))
    kind = body.get("t")
    fields = _FRAME_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ProbeError("cannot decode message type %r" % kind)
    for name, expected, required in fields:
        if name not in body:
            if required:
                raise DataError(
                    "truncated frame (missing %r): %r" % (name, data[:64])
                )
        elif type(body[name]) is not expected:
            raise DataError(
                "mistyped frame (%s is %s, not %s): %r"
                % (name, type(body[name]).__name__, expected.__name__,
                   data[:64])
            )
    if kind == "cmd":
        return Command(op=body["op"], args=body["args"], seq=body["seq"],
                       trace=body.get("tc"))
    return Reply(seq=body["seq"], payload=body["payload"],
                 error=body.get("err"))


# -- length framing ---------------------------------------------------------
#
# The JSON codec above produces one blob per message; a stream transport
# (socket, pipe) needs to know where each blob ends.  Frames are a 4-byte
# big-endian length prefix followed by the payload — the classic netstring
# shape, shared by the serving tier's shard channels.

FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload.  A corrupted length prefix
#: must not make a reader allocate gigabytes; anything past this is line
#: noise, not a message.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def pack_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its big-endian 4-byte length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise DataError(
            "frame payload too large: %d > %d bytes"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return FRAME_HEADER.pack(len(payload)) + payload


def unpack_frame(data: bytes) -> bytes:
    """Strict inverse of :func:`pack_frame` for single-frame transports.

    Raises :class:`DataError` unless ``data`` is exactly one well-formed
    frame — the check that catches truncated or garbled shard messages.
    """
    header = FRAME_HEADER.size
    if len(data) < header:
        raise DataError(
            "truncated frame: %d bytes, header needs %d" % (len(data), header)
        )
    (length,) = FRAME_HEADER.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise DataError(
            "frame length %d exceeds cap %d (corrupt prefix?)"
            % (length, MAX_FRAME_BYTES)
        )
    if len(data) != header + length:
        raise DataError(
            "expected exactly one frame of %d bytes, got %d"
            % (header + length, len(data))
        )
    return bytes(data[header:])


class Channel:
    """An accounted, in-memory message channel to one prober.

    ``faults`` injects control-plane failures; ``timeout_s`` is how long a
    call waits (in virtual time) for a reply before declaring a timeout;
    ``max_retries`` bounds re-issues of idempotent ops after transport
    failures; a retry is re-sent at once.
    """

    def __init__(self, prober, faults: Optional[ChannelFaultPolicy] = None,
                 timeout_s: float = 10.0, max_retries: int = 3) -> None:
        self._prober = prober
        self._seq = 0
        self._connected = True
        self.faults = faults
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        self.messages = 0
        self.device_peak_bytes = 0
        # Resilience accounting.
        self.retries = 0
        self.timeouts = 0
        self.garbled = 0
        self.severed = 0
        self.delays = 0
        self.reconnects = 0
        self.retry_stats = RetryStats()
        self.retry_stats.budget = max_retries

    # -- faults ------------------------------------------------------------

    def _advance(self, seconds: float) -> None:
        """Waiting costs virtual time on the device's clock."""
        network = getattr(self._prober, "network", None)
        if network is not None and seconds > 0:
            network.advance(seconds)

    def _reconnect(self) -> None:
        self.reconnects += 1
        self._connected = True

    # -- calls -------------------------------------------------------------

    def call(self, op: str, **args) -> Dict[str, Any]:
        """Send one command and return its reply payload.

        Transport failures (timeout, severed connection, garbled frame)
        are retried for idempotent ops, reconnecting as needed; the final
        failure surfaces as :class:`MeasurementTimeout` (chained to the
        last underlying error).  An explicit device error reply raises
        :class:`ChannelError` immediately — the op ran and failed; there
        is nothing to retry.
        """
        last_error: Optional[Exception] = None
        budget = self.max_retries if op in IDEMPOTENT_OPS else 0
        for attempt in range(budget + 1):
            if attempt:
                self.retries += 1
                self.retry_stats.retries += 1
            if not self._connected:
                self._reconnect()
            try:
                payload = self._call_once(op, args)
                if attempt:
                    self.retry_stats.recovered += 1
                return payload
            except (MeasurementTimeout, DataError) as exc:
                last_error = exc
            except ChannelError as exc:
                if self._connected:
                    # Not a transport fault: the device answered with an
                    # explicit error.  Retrying cannot help.
                    raise
                last_error = exc
            if budget == 0:
                raise last_error
        self.retry_stats.exhausted += 1
        raise MeasurementTimeout(
            "op %r failed after %d attempts: %s"
            % (op, budget + 1, last_error)
        ) from last_error

    def _call_once(self, op: str, args: Dict[str, Any]) -> Dict[str, Any]:
        self._seq += 1
        wire_out = encode(Command(op=op, args=args, seq=self._seq))
        self.bytes_to_device += len(wire_out)
        self.messages += 1

        fault = self.faults.next_fault() if self.faults is not None else None
        if fault == "sever":
            self.severed += 1
            self._connected = False
            raise ChannelError("control connection severed mid-call")

        command = decode(wire_out)
        reply = self._prober.handle(command)
        wire_in = encode(reply)

        if fault == "drop":
            # The reply never arrives; the controller waits out the timeout.
            self.timeouts += 1
            self._advance(self.timeout_s)
            raise MeasurementTimeout(
                "no reply to %r within %.1fs" % (op, self.timeout_s)
            )
        if fault == "delay":
            self.delays += 1
            self._advance(self.faults.delay_seconds)
        if fault == "garble":
            self.garbled += 1
            wire_in = self.faults.garble(wire_in)

        self.bytes_from_device += len(wire_in)
        self.messages += 1
        # The device holds at most one command + one reply at a time.
        self.device_peak_bytes = max(
            self.device_peak_bytes, len(wire_out) + len(wire_in)
        )
        decoded = decode(wire_in)
        if decoded.seq != self._seq:
            raise ProbeError("reply out of sequence")
        if decoded.error is not None:
            raise ChannelError(
                "device error for op %r: %s" % (op, decoded.error)
            )
        return decoded.payload

    def fault_counters(self) -> Dict[str, int]:
        """Nonzero resilience counters, for reports."""
        counters = {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "garbled": self.garbled,
            "severed": self.severed,
            "delays": self.delays,
            "reconnects": self.reconnects,
        }
        return {key: value for key, value in counters.items() if value}
