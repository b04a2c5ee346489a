"""The packet walk: inject a probe at a vantage point, get a response.

This is the only interface the measurement layer has to the simulated
Internet — exactly as scamper's only interface to the real one is sending
packets and reading ICMP.  Everything bdrmap must cope with (third-party
source addresses, firewalls, silence, virtual routers, rate limiting, IPID
behaviour) is produced here from per-router policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ProbeError
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..rng import make_rng
from ..topology.model import Internet, Router
from .congestion import CongestionSchedule
from .faults import FaultPlan
from .ipid import IPIDState
from .packet import Probe, ProbeKind, Response, ResponseKind
from .policies import RateLimiter, RouterPolicy, SourceSel
from .routing import RoutingOracle, Step, StepKind

_MAX_HOPS = 64
_DEFAULT_POLICY = RouterPolicy()


@dataclass(frozen=True)
class VantagePoint:
    """A measurement host inside some network."""

    name: str
    asn: int
    pop_id: int
    addr: int
    first_router: int


class _Route:
    """The static part of the walk from one first router toward one
    destination, recorded hop by hop as far as probes have needed it.

    Hop ``i`` (0-based) is at ``routers[i]``, where the oracle decided
    ``steps[i]``; the probe reached it after ``delays[i]`` ms of
    propagation and entered it over a border when ``i`` is in
    ``borders``.  ``stop`` is the first ARRIVE/HOST/UNREACHABLE hop once
    known.  All of it is a function of the static topology (the oracle
    memoizes the same steps); router policies, faults, congestion and the
    clock are read per probe.
    """

    __slots__ = ("first_router", "dst", "routers", "steps", "delays",
                 "borders", "stop")

    def __init__(self, first_router: int, dst: int) -> None:
        self.first_router = first_router
        self.dst = dst
        self.routers: List[int] = [first_router]
        self.steps: List[Step] = []
        self.delays: List[float] = [0.5]  # VP access segment
        self.borders: List[int] = []
        self.stop: Optional[int] = None

    def extend(self, network: "Network", limit: int) -> None:
        """Record hops up to index ``limit``, or up to the stop.

        Only called without congestion, so a link's delay is its
        propagation term of :meth:`Network._link_delay` alone."""
        if self.stop is not None:
            return
        steps, routers, delays = self.steps, self.routers, self.delays
        oracle = network.oracle
        decided = oracle.steps_toward(self.dst)
        links = network.internet.links
        index = len(steps)
        router_id, delay = routers[index], delays[index]
        while index <= limit:
            step = decided.get(router_id)
            if step is None:
                step = oracle.step(router_id, self.dst)
            steps.append(step)
            if step.kind is not StepKind.FORWARD:
                self.stop = index
                return
            if step.link_id is not None:
                delay += links[step.link_id].igp_cost * 0.75
            router_id = step.next_router  # type: ignore[assignment]
            routers.append(router_id)
            delays.append(delay)
            index += 1
            if step.crosses_border:
                self.borders.append(index)


class Network:
    """Forwarding simulation with a virtual clock."""

    def __init__(self, internet: Internet, seed: int = 0, pps: float = 100.0,
                 faults: Optional[FaultPlan] = None) -> None:
        self.internet = internet
        self.oracle = RoutingOracle(internet)
        self.pps = pps
        self.now = 0.0
        self.probes_sent = 0
        self.vps: Dict[int, VantagePoint] = {}
        self._ipid: Dict[int, IPIDState] = {}
        self._limiters: Dict[int, RateLimiter] = {}
        self._seed = seed
        self._rng = make_rng(seed, "network")
        self._host_ipid = make_rng(seed, "host-ipid")
        # Optional per-link diurnal queueing delays (§2's congestion).
        self.congestion = CongestionSchedule()
        # Optional fault injection (repro.net.faults).  None means the
        # simulator stays perfectly deterministic and lossless.
        self.faults = faults
        # Instrumentation sink; with NULL_REGISTRY (not enabled) a probe
        # makes no metrics call at all.
        self.metrics: MetricsRegistry = NULL_REGISTRY
        # The two most recent routes walked without faults or congestion.
        # A traceroute sends all its TTLs toward one destination back to
        # back, and Ally alternates two addresses, so the route before
        # last serves most of the rest; a larger memo only costs memory.
        self._route: Optional[_Route] = None
        self._last_route: Optional[_Route] = None

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Adopt the run's shared registry; fault stats become views
        over it too, so drop counts are recorded exactly once."""
        self.metrics = registry
        if self.faults is not None:
            self.faults.stats.bind(registry)

    def reset(self, seed: Optional[int] = None) -> None:
        """Restore the network to its just-built dynamic state.

        Rewinds the virtual clock, probe counter, per-router IPID streams,
        rate limiters, and RNG streams to exactly what a freshly
        constructed ``Network(internet, seed)`` would hold, without paying
        for a topology rebuild.  The routing oracle is deliberately *not*
        reset, nor is the route memo: their state (class routes, intra
        tables, step memo, the two recorded routes) is a pure function of
        the static topology, so keeping it warm cannot change behaviour —
        this is what lets a parallel worker run several VPs back-to-back
        with per-VP-fresh determinism while paying the route
        computations once.

        With a fault plan attached, its stats counters restart from zero
        (draw streams are pure functions of (seed, entity, time), which
        the rewound clock replays identically).
        """
        if seed is None:
            seed = self._seed
        self.now = 0.0
        self.probes_sent = 0
        self._ipid = {}
        self._limiters = {}
        self._rng = make_rng(seed, "network")
        self._host_ipid = make_rng(seed, "host-ipid")
        if self.faults is not None:
            self.faults.reset()
            if self.metrics.enabled:
                self.faults.stats.bind(self.metrics)

    # -- setup ---------------------------------------------------------------

    def add_vp(self, vp: VantagePoint) -> None:
        if vp.addr in self.vps:
            raise ProbeError("duplicate VP address")
        self.vps[vp.addr] = vp

    def advance(self, seconds: float) -> None:
        """Advance the virtual clock (e.g. Ally's five-minute waits)."""
        if seconds < 0:
            raise ProbeError("cannot rewind the clock")
        self.now += seconds

    # -- internals -------------------------------------------------------------

    def _policy(self, router: Router) -> RouterPolicy:
        return router.policy if router.policy is not None else _DEFAULT_POLICY

    def _ipid_state(self, router: Router) -> IPIDState:
        state = self._ipid.get(router.router_id)
        if state is None:
            policy = self._policy(router)
            state = IPIDState(
                policy.ipid_model,
                policy.ipid_velocity,
                make_rng(self.internet.seed, "ipid", str(router.router_id)),
            )
            self._ipid[router.router_id] = state
        return state

    def _rate_ok(self, router: Router) -> bool:
        policy = self._policy(router)
        if policy.rate_limit_pps is None:
            return True
        limiter = self._limiters.get(router.router_id)
        if limiter is None:
            limiter = RateLimiter(policy.rate_limit_pps)
            self._limiters[router.router_id] = limiter
        return limiter.allow(self.now)

    def _rtt(self, delay_ms: float, salt: int) -> float:
        jitter = ((int(delay_ms * 1000) * 2654435761 + salt) % 997) / 1000.0
        return 2.0 * delay_ms + jitter

    def _link_delay(self, link_id: int) -> float:
        """One-way latency of a link in ms: propagation (from IGP cost,
        which encodes geographic distance) plus current queueing delay."""
        link = self.internet.links[link_id]
        return link.igp_cost * 0.75 + self.congestion.delay_ms(
            link_id, self.now
        )

    def _reply_egress_addr(self, router: Router, toward: int) -> Optional[int]:
        """The address of the interface this router would transmit a reply
        from — the source of third-party addresses (§4 challenge 2)."""
        step = self.oracle.step(router.router_id, toward)
        if step.kind is StepKind.FORWARD and step.out_addr is not None:
            return step.out_addr
        addresses = router.addresses()
        return min(addresses) if addresses else None

    def _expired_source(self, router: Router, policy: RouterPolicy,
                        probe: Probe, in_addr: Optional[int]) -> Optional[int]:
        if policy.vrouter:
            next_as = self.oracle.next_as_of(router.asn, probe.dst)
            if next_as is not None and next_as in policy.vrouter:
                return policy.vrouter[next_as]
        if policy.source_sel is SourceSel.REPLY_EGRESS:
            addr = self._reply_egress_addr(router, probe.src)
            if addr is not None:
                return addr
        if in_addr is not None:
            return in_addr
        return self._reply_egress_addr(router, probe.src)

    def _reply(self, router: Router, policy: RouterPolicy, probe: Probe,
               kind: ResponseKind, src: Optional[int],
               delay_ms: float) -> Optional[Response]:
        """The reply ``router`` sends from ``src``, or None when it has no
        source address or its ICMP rate limit drops it.  Every router
        reply, on both walks, is built here."""
        if src is None:
            return None
        if policy.rate_limit_pps is not None and not self._rate_ok(router):
            return None
        router_id = router.router_id
        ipid = self._ipid.get(router_id)
        if ipid is None:
            ipid = self._ipid_state(router)
        dst = probe.dst
        # _rtt's formula, inline to save a call per reply; change both.
        jitter = (
            (int(delay_ms * 1000) * 2654435761 + (dst & 0xFFFF)) % 997
        ) / 1000.0
        return Response(src, kind, ipid.next(self.now, src), dst,
                        2.0 * delay_ms + jitter, router_id)

    def _ttl_expired(self, router: Router, policy: RouterPolicy,
                     probe: Probe, in_addr: Optional[int],
                     delay_ms: float) -> Optional[Response]:
        if not policy.responds_ttl_expired:
            return None
        src = self._expired_source(router, policy, probe, in_addr)
        return self._reply(router, policy, probe, ResponseKind.TTL_EXPIRED,
                           src, delay_ms)

    def _arrival(self, router: Router, policy: RouterPolicy, probe: Probe,
                 delay_ms: float) -> Optional[Response]:
        """The probe is addressed to one of this router's interfaces."""
        if probe.kind is ProbeKind.ICMP_ECHO:
            if not policy.responds_echo:
                return None
            # Echo replies are sourced from the probed address (§4: the
            # reply source gives no clue which interface the probe reached).
            return self._reply(router, policy, probe, ResponseKind.ECHO_REPLY,
                               probe.dst, delay_ms)
        if probe.kind is ProbeKind.UDP:
            if not policy.responds_udp:
                return None
            if policy.udp_reply_egress:
                src = self._reply_egress_addr(router, probe.src)
            else:
                src = probe.dst
            return self._reply(router, policy, probe,
                               ResponseKind.DEST_UNREACH_PORT, src, delay_ms)
        if probe.kind is ProbeKind.TCP_ACK:
            if not policy.responds_echo:
                return None
            return self._reply(router, policy, probe, ResponseKind.TCP_RST,
                               probe.dst, delay_ms)
        return None

    def _host_delivery(self, router: Router, policy: RouterPolicy,
                       probe: Probe, step: Step,
                       delay_ms: float) -> Optional[Response]:
        """The probe reached the router hosting its destination prefix,
        with TTL to spare."""
        if step.policy is not None and probe.dst in step.policy.live_hosts:
            # A live host answers echo (and UDP with port unreachable).
            ipid = self._host_ipid.randint(0, 0xFFFF)
            kind = (
                ResponseKind.ECHO_REPLY
                if probe.kind is ProbeKind.ICMP_ECHO
                else ResponseKind.DEST_UNREACH_PORT
            )
            return Response(
                src=probe.dst,
                kind=kind,
                ipid=ipid,
                quoted_dst=probe.dst,
                rtt=self._rtt(delay_ms + 0.5, probe.dst & 0xFFFF),
                truth_router_id=None,
            )
        # Dead address: some edge routers send host-unreachable, most drop.
        if (router.router_id * 2654435761 + probe.dst) % 10 < 3:
            if policy.responds_ttl_expired:
                src = self._expired_source(router, policy, probe, None)
                return self._reply(router, policy, probe,
                                   ResponseKind.DEST_UNREACH_NET, src,
                                   delay_ms)
        return None

    # -- the walk --------------------------------------------------------------

    def send(self, probe: Probe) -> Optional[Response]:
        """Inject ``probe`` at its source VP; return the response or None.

        With a :class:`~repro.net.faults.FaultPlan` attached, the walk is
        subject to injected faults: withdrawn routes eat the probe at the
        start, dark (blacked-out) routers and lossy links eat it along the
        path, and generated replies can be suppressed (ICMP storms) or
        lost on the reverse path.  Without a plan none of these checks
        run — the zero-fault path is a strict no-op — and, unless a link
        is congested, the probe follows the recorded route.
        """
        vp = self.vps.get(probe.src)
        if vp is None:
            raise ProbeError("probe source %r is not a registered VP" % probe.src)
        self.now += 1.0 / self.pps
        self.probes_sent += 1
        metrics = self.metrics
        counted = metrics.enabled
        if counted:
            metrics.inc("probe.sent")

        faults = self.faults
        if faults is None and not self.congestion.profiles:
            response = self._walk_route(vp, probe)
        else:
            response = self._walk(vp, probe, faults)
            if response is not None and faults is not None:
                if (
                    response.truth_router_id is not None
                    and faults.storm_suppressed(
                        response.truth_router_id, self.now
                    )
                ):
                    response = None
                elif faults.reply_lost(self.now):
                    response = None
        if counted:
            metrics.inc(
                "probe.answered" if response is not None
                else "probe.unanswered"
            )
        return response

    def _walk_route(self, vp: VantagePoint,
                    probe: Probe) -> Optional[Response]:
        """The walk of :meth:`_walk` without faults or congestion, over
        the recorded route: a probe of TTL t jumps straight to the hop
        where its TTL runs out or the route stops, reading live router
        policies only at the hops entered over a border (firewalls) and
        at that final hop.  Every probe of a collection without faults
        takes this path, so it reads policies inline and picks the
        common TTL-expired source itself."""
        route = self._route
        dst = probe.dst
        first_router = vp.first_router
        if (
            route is None
            or route.dst != dst
            or route.first_router != first_router
        ):
            last = self._last_route
            if (
                last is None
                or last.dst != dst
                or last.first_router != first_router
            ):
                last = _Route(first_router, dst)
            self._last_route = route
            self._route = route = last
        ttl = probe.ttl
        expire = ttl - 1 if ttl > 1 else 0  # the hop whose TTL hits 0
        limit = expire if expire < _MAX_HOPS else _MAX_HOPS - 1
        steps = route.steps
        stop = route.stop
        if stop is None and len(steps) <= limit:
            route.extend(self, limit)
            stop = route.stop
        final = limit if stop is None or stop > limit else stop
        path = route.routers
        routers = self.internet.routers

        for hop in route.borders:
            if hop > final or hop >= expire:
                break
            if steps[hop].kind is StepKind.ARRIVE:
                break
            router = routers[path[hop]]
            policy = router.policy
            if policy is None:
                policy = _DEFAULT_POLICY
            if policy.firewall and not (
                policy.firewall_allow_echo
                and probe.kind is ProbeKind.ICMP_ECHO
            ):
                if policy.firewall_admin_reply and policy.responds_ttl_expired:
                    src = self._expired_source(
                        router, policy, probe, steps[hop - 1].in_addr
                    )
                    return self._reply(
                        router, policy, probe,
                        ResponseKind.DEST_UNREACH_ADMIN, src,
                        route.delays[hop]
                    )
                return None

        router = routers[path[final]]
        policy = router.policy
        if policy is None:
            policy = _DEFAULT_POLICY
        step = steps[final]
        delay_ms = route.delays[final]
        if step.kind is StepKind.ARRIVE:
            return self._arrival(router, policy, probe, delay_ms)
        if final == expire:
            if not policy.responds_ttl_expired:
                return None
            src = steps[final - 1].in_addr if final else None
            if (
                src is None
                or policy.vrouter
                or policy.source_sel is not SourceSel.INGRESS
            ):
                src = self._expired_source(router, policy, probe, src)
            return self._reply(router, policy, probe,
                               ResponseKind.TTL_EXPIRED, src, delay_ms)
        if step.kind is StepKind.HOST:
            return self._host_delivery(router, policy, probe, step, delay_ms)
        return None  # unreachable, or the hop cap

    def _walk(self, vp: VantagePoint, probe: Probe,
              faults: Optional[FaultPlan]) -> Optional[Response]:
        """The hop-by-hop walk, under faults and congestion."""
        if faults is not None and faults.route_withdrawn(probe.dst, self.now):
            return None

        router_id = vp.first_router
        in_addr: Optional[int] = None
        arrived_via_border = False
        ttl = probe.ttl
        hops = 0
        delay_ms = 0.5  # VP access segment

        while hops < _MAX_HOPS:
            hops += 1
            router = self.internet.routers[router_id]
            if faults is not None and faults.router_dark(router_id, self.now):
                return None
            step = self.oracle.step(router_id, probe.dst)
            policy = self._policy(router)

            if step.kind is StepKind.ARRIVE:
                return self._arrival(router, policy, probe, delay_ms)

            ttl -= 1
            if ttl <= 0:
                return self._ttl_expired(router, policy, probe, in_addr,
                                         delay_ms)

            if (
                arrived_via_border
                and policy.firewall
                and not (
                    policy.firewall_allow_echo
                    and probe.kind is ProbeKind.ICMP_ECHO
                )
            ):
                # Probes are not allowed deeper into this network.
                if policy.firewall_admin_reply and policy.responds_ttl_expired:
                    src = self._expired_source(router, policy, probe, in_addr)
                    return self._reply(
                        router, policy, probe,
                        ResponseKind.DEST_UNREACH_ADMIN, src, delay_ms
                    )
                return None

            if step.kind is StepKind.HOST:
                return self._host_delivery(router, policy, probe, step,
                                           delay_ms)

            if step.kind is StepKind.UNREACHABLE:
                return None

            # FORWARD
            if step.link_id is not None:
                if faults is not None and faults.link_lost(
                    step.link_id, self.now
                ):
                    return None
                delay_ms += self._link_delay(step.link_id)
            router_id = step.next_router  # type: ignore[assignment]
            in_addr = step.in_addr
            arrived_via_border = step.crosses_border
        return None

    # -- debugging / validation helpers (truth!) --------------------------------

    def truth_path(self, src_addr: int, dst: int, max_hops: int = _MAX_HOPS):
        """Ground-truth router path for a probe — analysis and tests only."""
        vp = self.vps.get(src_addr)
        if vp is None:
            raise ProbeError("unknown VP")
        path = []
        router_id = vp.first_router
        for _ in range(max_hops):
            path.append(router_id)
            step = self.oracle.step(router_id, dst)
            if step.kind is not StepKind.FORWARD:
                break
            router_id = step.next_router
        return path
