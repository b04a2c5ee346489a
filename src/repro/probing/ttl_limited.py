"""TTL-limited alias probing (§5.3).

Some routers ignore packets addressed *to* them (no echo reply, no port
unreachable) yet still generate ICMP time-exceeded for packets expiring
*at* them.  Ally can still sample their IP-ID counter by re-sending probes
toward a destination whose path is known (from earlier traceroutes) to
cross the router at a given TTL — the fourth probe method the paper lists.

A sample is only trusted when the time-exceeded source equals the target
address (otherwise we cannot be sure whose counter we are reading: load
balancing or rerouting may have moved the path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net import Network, Probe, ProbeKind, ResponseKind
from .midar import Sample


class TTLLimitedProber:
    """Samples router IP-ID counters via in-transit TTL expiry.

    Aims — (destination, ttl) pairs at which a probe expires at the target
    address — are learned from traceroute output via :meth:`learn`.
    """

    def __init__(self, network: Network, vp_addr: int) -> None:
        self.network = network
        self.vp_addr = vp_addr
        self._aims: Dict[int, Tuple[int, int]] = {}  # addr -> (dst, ttl)

    def learn(self, addr: int, dst: int, ttl: int) -> None:
        """Record that a trace toward ``dst`` saw ``addr`` at ``ttl``."""
        if addr not in self._aims:
            self._aims[addr] = (dst, ttl)

    def learn_from_trace(self, trace) -> None:
        """Harvest aims from a :class:`TraceResult`."""
        dst = trace.dst
        ttl_expired = ResponseKind.TTL_EXPIRED
        for ttl, (addr, kind) in enumerate(zip(trace.addrs, trace.kinds), 1):
            if kind is ttl_expired and addr != dst:
                self.learn(addr, dst, ttl)

    def can_probe(self, addr: int) -> bool:
        return addr in self._aims

    def aim(self, addr: int) -> Optional[Tuple[int, int]]:
        """The learned (destination, ttl) aim for ``addr``, if any."""
        return self._aims.get(addr)

    def _sample_once(self, addr: int, tag: int) -> Optional[Sample]:
        aim = self._aims.get(addr)
        if aim is None:
            return None
        dst, ttl = aim
        response = self.network.send(
            Probe(src=self.vp_addr, dst=dst, ttl=ttl,
                  kind=ProbeKind.ICMP_ECHO, flow_id=dst & 0xFFFF)
        )
        if (
            response is not None
            and response.kind is ResponseKind.TTL_EXPIRED
            and response.src == addr
        ):
            return (self.network.now, tag, response.ipid)
        return None

    def samples(self, addr: int, tag: int, count: int = 4) -> List[Sample]:
        """IP-ID samples of ``addr``'s router via TTL-limited probes."""
        collected: List[Sample] = []
        for _ in range(count):
            sample = self._sample_once(addr, tag)
            if sample is not None:
                collected.append(sample)
        return collected

    def interleaved_samples(
        self, addr_a: int, addr_b: int, rounds: int = 4
    ) -> List[Sample]:
        """Alternating samples from two addresses for the monotonic test."""
        if not (self.can_probe(addr_a) and self.can_probe(addr_b)):
            return []
        collected: List[Sample] = []
        for _ in range(rounds):
            for tag, addr in ((0, addr_a), (1, addr_b)):
                sample = self._sample_once(addr, tag)
                if sample is not None:
                    collected.append(sample)
        return collected
