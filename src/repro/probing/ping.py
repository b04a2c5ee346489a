"""Direct probing of single addresses (ICMP echo / UDP / TCP)."""

from __future__ import annotations

from typing import Optional

from ..net import Network, Probe, ProbeKind, Response
from .retry import RetryPolicy, RetryStats, send_with_retry


def ping(
    network: Network,
    vp_addr: int,
    dst: int,
    kind: ProbeKind = ProbeKind.ICMP_ECHO,
    attempts: int = 1,
    ttl: int = 64,
    retry: Optional[RetryPolicy] = None,
    retry_stats: Optional[RetryStats] = None,
) -> Optional[Response]:
    """Probe ``dst`` directly; return the first response, if any.

    ``retry`` upgrades the flat ``attempts`` loop to an exponential
    backoff budget (loss-tolerant); without it behaviour is unchanged.
    """
    packet = Probe(src=vp_addr, dst=dst, ttl=ttl, kind=kind,
                   flow_id=dst & 0xFFFF)
    if retry is not None:
        response, _, _ = send_with_retry(
            network, lambda: packet, retry, retry_stats
        )
        return response
    response = None
    for _ in range(attempts):
        response = network.send(packet)
        if response is not None:
            return response
    return response
