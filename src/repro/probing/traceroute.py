"""Paris traceroute (§5.3).

ICMP-echo probes with a constant flow identifier per trace (the Paris
discipline [2]), per-hop retries, a gap limit, and doubletree-style early
stopping against a caller-supplied stop set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Set

from ..net import Network, Probe, ProbeKind, ResponseKind
from .retry import RetryPolicy, RetryStats, send_with_retry


class TraceHop(NamedTuple):
    """One TTL's worth of traceroute output (addr None = no response)."""

    ttl: int
    addr: Optional[int]
    kind: Optional[ResponseKind]
    rtt: float
    ipid: int

    @property
    def responded(self) -> bool:
        return self.addr is not None

    @property
    def is_ttl_expired(self) -> bool:
        return self.kind is ResponseKind.TTL_EXPIRED


@dataclass
class TraceResult:
    """A completed traceroute."""

    vp_addr: int
    dst: int
    hops: List[TraceHop] = field(default_factory=list)
    stop_reason: str = "incomplete"
    probes_used: int = 0
    # Resilience accounting (all zero when no RetryPolicy is in force).
    retries_used: int = 0     # extra attempts beyond each hop's first
    recovered_hops: int = 0   # hops answered only after a retry (loss)
    silent_hops: int = 0      # hops that exhausted the retry budget

    def responsive_hops(self) -> List[TraceHop]:
        return [hop for hop in self.hops if hop.responded]

    def addresses(self) -> List[int]:
        return [hop.addr for hop in self.hops if hop.addr is not None]

    def reached_dst(self) -> bool:
        return self.stop_reason == "completed"

    def last_responsive(self) -> Optional[TraceHop]:
        for hop in reversed(self.hops):
            if hop.responded:
                return hop
        return None


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
    result = TraceResult(vp_addr=vp_addr, dst=dst)
    flow_id = dst & 0xFFFF
    completion_kinds = {ResponseKind.ECHO_REPLY, ResponseKind.TCP_RST}
    if kind is ProbeKind.UDP:
        completion_kinds = {ResponseKind.DEST_UNREACH_PORT}
    send = network.send
    gap = 0
    for ttl in range(1, max_ttl + 1):
        packet = Probe(vp_addr, dst, ttl, kind, flow_id)
        if retry is not None:
            response, verdict, used = send_with_retry(
                network, lambda: packet, retry, retry_stats
            )
            result.probes_used += used
            result.retries_used += used - 1
            if verdict == "loss":
                result.recovered_hops += 1
            elif verdict == "silence":
                result.silent_hops += 1
        else:
            response = None
            for _ in range(attempts):
                result.probes_used += 1
                response = send(packet)
                if response is not None:
                    break
        if response is None:
            result.hops.append(TraceHop(ttl, None, None, 0.0, 0))
            gap += 1
            if gap >= gap_limit:
                result.stop_reason = "gaplimit"
                return result
            continue
        gap = 0
        hop = TraceHop(ttl, response.src, response.kind, response.rtt, response.ipid)
        result.hops.append(hop)
        if response.kind is not ResponseKind.TTL_EXPIRED:
            result.stop_reason = (
                "completed" if response.kind in completion_kinds else "unreach"
            )
            return result
        if stop_set is not None and response.src in stop_set:
            result.stop_reason = "stopset"
            return result
    result.stop_reason = "maxttl"
    return result
