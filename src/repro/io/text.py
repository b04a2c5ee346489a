"""Human-readable text renderings (sc_bdrmap / traceroute style).

``format_trace`` renders a TraceResult the way traceroute prints paths;
``format_result`` renders a BdrmapResult the way the released sc_bdrmap
dump reads: one block per neighbor AS, listing the border routers and the
heuristic that owned them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from ..addr import ntoa
from ..core.report import BdrmapResult
from ..net import ResponseKind
from ..probing.traceroute import TraceResult

_KIND_NOTES = {
    ResponseKind.ECHO_REPLY: "",
    ResponseKind.TTL_EXPIRED: "",
    ResponseKind.DEST_UNREACH_PORT: " !P",
    ResponseKind.DEST_UNREACH_ADMIN: " !X",
    ResponseKind.DEST_UNREACH_NET: " !N",
    ResponseKind.TCP_RST: " !R",
}


def format_trace(
    trace: TraceResult,
    name_of: Optional[Callable[[int], Optional[str]]] = None,
) -> str:
    """Render one traceroute in the classic text format.

    ``name_of`` optionally supplies hostnames (e.g. a
    :class:`repro.datasets.dns.ReverseDNS` ``lookup``).
    """
    lines = [
        "traceroute to %s, %d hops, stop: %s"
        % (ntoa(trace.dst), len(trace.addrs), trace.stop_reason)
    ]
    for ttl, (addr, kind, rtt) in enumerate(
        zip(trace.addrs, trace.kinds, trace.rtts), 1
    ):
        if addr is None:
            lines.append("%2d  *" % ttl)
            continue
        shown = ntoa(addr)
        if name_of is not None:
            name = name_of(addr)
            if name:
                shown = "%s (%s)" % (name, ntoa(addr))
        note = _KIND_NOTES.get(kind, "")
        lines.append("%2d  %s  %.3f ms%s" % (ttl, shown, rtt, note))
    return "\n".join(lines)


def format_result(result: BdrmapResult, max_addrs: int = 4) -> str:
    """Render a bdrmap result as an sc_bdrmap-style neighbor dump."""
    lines = [
        "# bdrmap %s: AS%d, %d traces, %d probes"
        % (result.vp_name, result.focal_asn, result.traces_run,
           result.probes_used),
        "# %d interdomain links to %d neighbors"
        % (len(result.links), len(result.neighbor_ases())),
    ]
    by_neighbor: Dict[int, List] = defaultdict(list)
    for link in result.links:
        by_neighbor[link.neighbor_as].append(link)
    for neighbor_as in sorted(by_neighbor):
        links = by_neighbor[neighbor_as]
        lines.append("")
        lines.append("AS%d: %d link%s" % (
            neighbor_as, len(links), "s" if len(links) != 1 else ""))
        for link in sorted(links, key=lambda l: l.near_rid):
            near = result.graph.routers.get(link.near_rid)
            near_text = (
                " ".join(ntoa(a) for a in sorted(near.addrs)[:max_addrs])
                if near is not None and near.addrs
                else "?"
            )
            if link.far_rid is not None:
                far = result.graph.routers.get(link.far_rid)
                far_text = (
                    " ".join(ntoa(a) for a in sorted(far.addrs)[:max_addrs])
                    if far is not None and far.addrs
                    else "?"
                )
            else:
                far_text = "(silent)"
            lines.append(
                "  near[%s] -- far[%s]  %s%s"
                % (near_text, far_text, link.reason,
                   "  (ixp)" if link.via_ixp else "")
            )
    return "\n".join(lines)
