"""Paris traceroute (§5.3).

ICMP-echo probes with a constant flow identifier per trace (the Paris
discipline [2]), per-hop retries, a gap limit, and doubletree-style early
stopping against a caller-supplied stop set.  A trace is four columns with
one entry per TTL (:class:`TraceResult`); there is no per-hop record.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..net import Network, Probe, ProbeKind, ResponseKind
from .retry import RetryPolicy, RetryStats, send_with_retry


class TraceResult:
    """A completed traceroute, held as four columns.

    Position ``i`` of ``addrs``, ``kinds``, ``rtts`` and ``ipids`` is TTL
    ``i + 1``: a trace records every TTL from 1, a silent one as ``None,
    None, 0.0, 0``.  Each column is an exact tuple, so CPython's collector
    untracks ``addrs``, ``rtts`` and ``ipids`` (ints, floats and None) the
    first time it examines them; a kept trace costs the collector two
    tracked objects, itself and ``kinds``, however many hops it has.

    Readers zip the columns they need.  A trace from outside (an archive,
    a remote prober's payload) is checked once, by
    :func:`repro.io.serialize.trace_from_dict`.
    """

    __slots__ = (
        "vp_addr", "dst", "addrs", "kinds", "rtts", "ipids", "stop_reason",
        "probes_used", "retries_used", "recovered_hops", "silent_hops",
    )

    def __init__(
        self,
        vp_addr: int,
        dst: int,
        stop_reason: str = "incomplete",
        probes_used: int = 0,
        # Resilience accounting (all zero when no RetryPolicy is in force).
        retries_used: int = 0,     # extra attempts beyond each hop's first
        recovered_hops: int = 0,   # hops answered only after a retry (loss)
        silent_hops: int = 0,      # hops that exhausted the retry budget
        *,
        addrs: Tuple[Optional[int], ...] = (),
        kinds: Tuple[Optional[ResponseKind], ...] = (),
        rtts: Tuple[float, ...] = (),
        ipids: Tuple[int, ...] = (),
    ) -> None:
        if not len(addrs) == len(kinds) == len(rtts) == len(ipids):
            raise ValueError("a trace's four columns must be equally long")
        self.vp_addr = vp_addr
        self.dst = dst
        self.addrs = tuple(addrs)
        self.kinds = tuple(kinds)
        self.rtts = tuple(rtts)
        self.ipids = tuple(ipids)
        self.stop_reason = stop_reason
        self.probes_used = probes_used
        self.retries_used = retries_used
        self.recovered_hops = recovered_hops
        self.silent_hops = silent_hops

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable and compared by value, as a dataclass

    def __repr__(self) -> str:
        return "TraceResult(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
        )

    def reached_dst(self) -> bool:
        return self.stop_reason == "completed"


def paris_traceroute(
    network: Network,
    vp_addr: int,
    dst: int,
    max_ttl: int = 32,
    attempts: int = 2,
    gap_limit: int = 5,
    stop_set: Optional[Set[int]] = None,
    kind: ProbeKind = ProbeKind.ICMP_ECHO,
    retry: Optional[RetryPolicy] = None,
    retry_stats: Optional[RetryStats] = None,
) -> TraceResult:
    """Trace the forward path from the VP at ``vp_addr`` toward ``dst``.

    ``kind`` selects the probe method: ICMP-echo Paris is what bdrmap uses
    (§5.3); UDP Paris is the classic traceroute, completing on a port
    unreachable from the destination instead of an echo reply.

    ``retry`` replaces the flat ``attempts`` budget with an exponential
    backoff schedule (see :mod:`repro.probing.retry`) and classifies each
    unanswered hop as recovered loss or persistent silence; without it the
    legacy fixed-attempts loop runs unchanged.

    Stops on: destination response (echo reply / unreachable), ``gap_limit``
    consecutive unresponsive hops, an address present in ``stop_set``
    (doubletree), or ``max_ttl``.
    """
    flow_id = dst & 0xFFFF
    completion_kinds = {ResponseKind.ECHO_REPLY, ResponseKind.TCP_RST}
    if kind is ProbeKind.UDP:
        completion_kinds = {ResponseKind.DEST_UNREACH_PORT}
    ttl_expired = ResponseKind.TTL_EXPIRED
    send = network.send
    addrs: List[Optional[int]] = []
    kinds: List[Optional[ResponseKind]] = []
    rtts: List[float] = []
    ipids: List[int] = []
    probes_used = retries_used = recovered_hops = silent_hops = 0
    stop_reason = "maxttl"
    gap = 0
    for ttl in range(1, max_ttl + 1):
        packet = Probe(vp_addr, dst, ttl, kind, flow_id)
        if retry is not None:
            response, verdict, used = send_with_retry(
                network, lambda: packet, retry, retry_stats
            )
            probes_used += used
            retries_used += used - 1
            if verdict == "loss":
                recovered_hops += 1
            elif verdict == "silence":
                silent_hops += 1
        else:
            response = None
            for _ in range(attempts):
                probes_used += 1
                response = send(packet)
                if response is not None:
                    break
        if response is None:
            addrs.append(None)
            kinds.append(None)
            rtts.append(0.0)
            ipids.append(0)
            gap += 1
            if gap >= gap_limit:
                stop_reason = "gaplimit"
                break
            continue
        gap = 0
        src = response.src
        reply = response.kind
        addrs.append(src)
        kinds.append(reply)
        rtts.append(response.rtt)
        ipids.append(response.ipid)
        if reply is not ttl_expired:
            stop_reason = "completed" if reply in completion_kinds else "unreach"
            break
        if stop_set is not None and src in stop_set:
            stop_reason = "stopset"
            break
    return TraceResult(
        vp_addr,
        dst,
        stop_reason=stop_reason,
        probes_used=probes_used,
        retries_used=retries_used,
        recovered_hops=recovered_hops,
        silent_hops=silent_hops,
        addrs=tuple(addrs),
        kinds=tuple(kinds),
        rtts=tuple(rtts),
        ipids=tuple(ipids),
    )
