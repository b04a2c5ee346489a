"""Probe and response packet models.

Probes carry a ``flow_id`` because the collection stage uses Paris
traceroute (§5.3): keeping the flow identifier constant within a trace makes
load-balanced routers forward every probe of the trace the same way, which
the simulator honours when breaking ECMP ties.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class ProbeKind(enum.Enum):
    ICMP_ECHO = "icmp-echo"
    UDP = "udp"          # high-port UDP, elicits port unreachable
    TCP_ACK = "tcp-ack"  # elicits RST (modelled as a generic response)


class ResponseKind(enum.Enum):
    TTL_EXPIRED = "ttl-expired"
    ECHO_REPLY = "echo-reply"
    DEST_UNREACH_PORT = "unreach-port"
    DEST_UNREACH_ADMIN = "unreach-admin"
    DEST_UNREACH_NET = "unreach-net"
    TCP_RST = "tcp-rst"


class Probe(NamedTuple):
    """A single probe packet injected at a vantage point."""

    src: int
    dst: int
    ttl: int
    kind: ProbeKind = ProbeKind.ICMP_ECHO
    flow_id: int = 0


class Response(NamedTuple):
    """What came back (if anything).

    ``src`` is the source address of the response packet — the only
    addressing information a real prober gets.  ``ipid`` is the IP-ID of the
    response, the raw material of Ally/MIDAR alias resolution.

    ``truth_router_id`` is ground truth carried for validation and debugging
    only; measurement and inference code must never read it.
    """

    src: Optional[int]
    kind: ResponseKind
    ipid: int
    quoted_dst: int
    rtt: float
    truth_router_id: Optional[int] = None
