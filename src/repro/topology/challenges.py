"""Injection of the seven §4 challenge classes into a generated topology.

After :mod:`asgen` and :mod:`routergen` have produced a clean topology, this
module makes it *hostile* the way the real Internet is:

1. interconnect subnets supplied by one side (already done in routergen),
2. reply-egress source selection → third-party addresses,
3. border firewalls (silent, admin-reply, and echo-pass variants),
4. virtual routers answering with per-neighbor addresses,
5. sibling ASes (already present from asgen) plus multi-origin prefixes,
6. IXP fabric prefixes announced inconsistently,
7. unrouted infrastructure space and provider-aggregatable (PA) delegation
   onto customer routers (the Fig 12 limitation).

Every assignment is deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..asgraph import Rel
from ..net.ipid import IPIDModel
from ..net.policies import RouterPolicy, SourceSel
from ..rng import make_rng, weighted_choice
from .addressing import SubnetPool
from .asgen import GenState
from .model import ASKind, Internet, LinkKind, PrefixPolicy, Router


@dataclass
class ChallengeConfig:
    """Rates for each injected behaviour."""

    reply_egress_rate: float = 0.12      # §4.2 third-party addresses
    udp_responder_rate: float = 0.70     # Mercator-able routers
    udp_reply_egress_rate: float = 0.80
    ipid_shared_rate: float = 0.55       # Ally/MIDAR-resolvable
    ipid_per_iface_rate: float = 0.20
    ipid_random_rate: float = 0.15       # remainder is ZERO
    rate_limit_rate: float = 0.06        # of non-focal routers
    # Routers that only ever generate time-exceeded (direct probes are
    # dropped) — alias-resolvable only via TTL-limited probing (§5.3).
    ttl_only_rate: float = 0.05
    customer_firewall_rate: float = 0.62  # Table 1: firewall dominates customers
    firewall_admin_reply_rate: float = 0.10
    silent_neighbor_rate: float = 0.05   # §5.4.8 step 8.1
    echo_only_neighbor_rate: float = 0.03  # §5.4.8 step 8.2
    vrouter_rate: float = 0.04           # §4.4 virtual routers
    unrouted_infra_rate: float = 0.06    # §5.4.3
    pa_delegation_rate: float = 0.04     # Fig 12 limitation
    multi_origin_rate: float = 0.02      # §4.7
    focal_unrouted_infra: bool = False   # the VP network hides its own space


def apply_challenges(state: GenState, config: Optional[ChallengeConfig] = None) -> None:
    """Assign response policies and rewrite addressing/origination so every
    challenge class occurs in the topology."""
    if config is None:
        config = ChallengeConfig()
    internet = state.internet
    focal = state.focal_asn
    focal_family = internet.sibling_asns(focal)

    _assign_base_policies(state, config)
    _assign_neighbor_firewalls(state, config)
    _assign_virtual_routers(state, config)
    _unroute_infrastructure(state, config)
    _delegate_pa_space(state, config)
    _add_multi_origins(state, config)
    _ixp_fabric_announcements(state, config)

    # The VP network always responds: operators running a VP in their own
    # network do not firewall themselves.
    for asn in focal_family:
        for router in internet.routers_of(asn):
            policy: RouterPolicy = router.policy
            policy.responds_ttl_expired = True
            policy.responds_echo = True
            policy.firewall = False
            policy.rate_limit_pps = None

    if config.focal_unrouted_infra:
        node = internet.ases[focal]
        if node.infra_prefix is not None:
            existing = internet.prefix_policies.get(node.infra_prefix)
            if existing is not None:
                existing.origins = ()
                node.infra_announced = False
                internet._origin_lpm = None  # invalidate cache


def _assign_base_policies(state: GenState, config: ChallengeConfig) -> None:
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "base")
    focal_family = internet.sibling_asns(state.focal_asn)
    ipid_models = [
        IPIDModel.SHARED_COUNTER,
        IPIDModel.PER_INTERFACE,
        IPIDModel.RANDOM,
        IPIDModel.ZERO,
    ]
    zero_rate = max(
        0.0,
        1.0
        - config.ipid_shared_rate
        - config.ipid_per_iface_rate
        - config.ipid_random_rate,
    )
    weights = [
        config.ipid_shared_rate,
        config.ipid_per_iface_rate,
        config.ipid_random_rate,
        zero_rate,
    ]
    for router_id in sorted(internet.routers):
        router = internet.routers[router_id]
        policy = RouterPolicy()
        policy.source_sel = (
            SourceSel.REPLY_EGRESS
            if rng.random() < config.reply_egress_rate
            else SourceSel.INGRESS
        )
        policy.responds_udp = rng.random() < config.udp_responder_rate
        policy.udp_reply_egress = rng.random() < config.udp_reply_egress_rate
        if rng.random() < config.ttl_only_rate:
            # Answers only in-transit expiry; deaf to direct probes.
            policy.responds_echo = False
            policy.responds_udp = False
        policy.ipid_model = weighted_choice(rng, ipid_models, weights)
        policy.ipid_velocity = rng.uniform(5.0, 400.0)
        if (
            router.asn not in focal_family
            and rng.random() < config.rate_limit_rate
        ):
            policy.rate_limit_pps = rng.uniform(2.0, 20.0)
        router.policy = policy


def _neighbor_border_routers(internet: Internet, focal_family) -> Dict[int, List[Router]]:
    """For each neighbor AS of the focal network: its routers that sit on a
    link to the focal network."""
    found: Dict[int, List[Router]] = {}
    for asn in focal_family:
        for link in internet.interdomain_links(asn):
            for iface in link.interfaces:
                router = internet.routers[iface.router_id]
                if router.asn in focal_family:
                    continue
                found.setdefault(router.asn, []).append(router)
    return found


def _assign_neighbor_firewalls(state: GenState, config: ChallengeConfig) -> None:
    """Firewall / silence behaviour at the focal network's customer edges."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "firewalls")
    focal_family = internet.sibling_asns(state.focal_asn)
    by_neighbor = _neighbor_border_routers(internet, focal_family)

    for asn in sorted(by_neighbor):
        rel = internet.relationship(state.focal_asn, asn)
        node = internet.ases[asn]
        roll = rng.random()
        routers = by_neighbor[asn]
        if rel is Rel.CUSTOMER or node.kind in (ASKind.ENTERPRISE, ASKind.STUB):
            if roll < config.silent_neighbor_rate:
                # §5.4.8 step 8.1: nothing ever comes back from this AS.
                for router in internet.routers_of(asn):
                    router.policy.responds_ttl_expired = False
                    router.policy.responds_echo = False
                    router.policy.responds_udp = False
                for router in routers:
                    router.policy.firewall = True
            elif roll < config.silent_neighbor_rate + config.echo_only_neighbor_rate:
                # §5.4.8 step 8.2: firewalled but echo passes / replies map
                # to the neighbor.
                for router in internet.routers_of(asn):
                    router.policy.responds_ttl_expired = False
                for router in routers:
                    router.policy.firewall = True
                    router.policy.firewall_allow_echo = True
            elif roll < (
                config.silent_neighbor_rate
                + config.echo_only_neighbor_rate
                + config.customer_firewall_rate
            ):
                # The common case (§5.4.2): border answers TTL-expired with
                # the provider-supplied ingress address, then drops.
                for router in routers:
                    router.policy.firewall = True
                    if rng.random() < config.firewall_admin_reply_rate:
                        router.policy.firewall_admin_reply = True


def _assign_virtual_routers(state: GenState, config: ChallengeConfig) -> None:
    """§4 challenge 4: routers answering with per-neighbor-AS addresses."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "vrouters")
    for router_id in sorted(internet.routers):
        router = internet.routers[router_id]
        if not router.is_border or rng.random() >= config.vrouter_rate:
            continue
        neighbor_asns = sorted(
            {
                internet.routers[iface.router_id].asn
                for link_id in router.link_ids()
                for iface in internet.links[link_id].interfaces
                if internet.links[link_id].kind is not LinkKind.INTRA
                and internet.routers[iface.router_id].asn != router.asn
            }
        )
        if len(neighbor_asns) < 2:
            continue
        pool = state.pools.get(router.asn)
        if pool is None or not isinstance(pool, SubnetPool):
            continue
        vrouter: Dict[int, int] = {}
        for asn in neighbor_asns:
            try:
                addr = pool.alloc_addr()
            except Exception:
                break
            # Model the virtual-router address as a loopback interface so
            # alias ground truth knows it belongs to this router.
            internet.new_link(LinkKind.INTRA, [(router.router_id, addr)],
                              supplier_asn=router.asn, igp_cost=0.0)
            vrouter[asn] = addr
        if vrouter:
            router.policy.vrouter = vrouter


def _unroute_infrastructure(state: GenState, config: ChallengeConfig) -> None:
    """§5.4.3: some operators do not announce their router addressing."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "unrouted")
    focal_family = internet.sibling_asns(state.focal_asn)
    for asn in sorted(internet.ases):
        node = internet.ases[asn]
        if asn in focal_family or node.infra_prefix is None:
            continue
        if node.kind not in (ASKind.TRANSIT, ASKind.CONTENT, ASKind.ENTERPRISE):
            continue
        if rng.random() >= config.unrouted_infra_rate:
            continue
        existing = internet.prefix_policies.get(node.infra_prefix)
        if existing is not None:
            existing.origins = ()
            node.infra_announced = False
    internet._origin_lpm = None


def _delegate_pa_space(state: GenState, config: ChallengeConfig) -> None:
    """Fig 12: a customer numbers internal routers from provider space."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "pa")
    focal = state.focal_asn
    focal_pool = state.pools.get(focal)
    if not isinstance(focal_pool, SubnetPool):
        return
    customers = internet.graph.customers(focal)
    for asn in customers:
        if rng.random() >= config.pa_delegation_rate:
            continue
        node = internet.ases[asn]
        # Renumber the customer's internal links from the provider's space.
        for router_id in node.router_ids:
            router = internet.routers[router_id]
            for iface in router.interfaces:
                link = internet.links[iface.link_id]
                if link.kind is not LinkKind.INTRA or iface.addr is None:
                    continue
                try:
                    new_addr = focal_pool.alloc_addr()
                except Exception:
                    return
                del internet.addr_to_iface[iface.addr]
                iface.addr = new_addr
                internet.addr_to_iface[new_addr] = iface
                link.supplier_asn = focal
    internet._origin_lpm = None


def _add_multi_origins(state: GenState, config: ChallengeConfig) -> None:
    """§4 challenge 7: prefixes originated by more than one AS."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "moas")
    focal_family = internet.sibling_asns(state.focal_asn)
    candidates = [
        policy
        for policy in internet.prefix_policies.values()
        if policy.announced
        and len(policy.origins) == 1
        and policy.origins[0] not in focal_family
    ]
    candidates.sort(key=lambda p: p.prefix)
    for policy in candidates:
        if rng.random() >= config.multi_origin_rate:
            continue
        origin = policy.origins[0]
        # Prefer a sibling as the second origin; else any provider.
        siblings = [a for a in internet.graph.siblings(origin)]
        providers = internet.graph.providers(origin)
        pool = siblings or providers
        if not pool:
            continue
        second = rng.choice(sorted(pool))
        second_routers = internet.ases[second].router_ids
        if not second_routers:
            continue
        policy.origins = (origin, second)
        policy.host_router[second] = second_routers[0]
    internet._origin_lpm = None


def _ixp_fabric_announcements(state: GenState, config: ChallengeConfig) -> None:
    """§4 challenge 6: IXP fabric prefixes announced inconsistently."""
    internet = state.internet
    rng = make_rng(state.config.seed, "challenges", "ixp-announce")
    for ixp_id in sorted(internet.ixps):
        ixp = internet.ixps[ixp_id]
        members = sorted(ixp.members)
        if not members:
            continue
        roll = rng.random()
        if roll < 0.5 and members:
            # A member AS (inadvertently or by arrangement) originates it.
            announcer = rng.choice(members)
            host_router = internet.ases[announcer].router_ids[0]
            internet.add_prefix_policy(
                PrefixPolicy(
                    prefix=ixp.fabric,
                    origins=(announcer,),
                    host_router={announcer: host_router},
                    live_hosts=frozenset(),
                )
            )
        # Otherwise the fabric stays unannounced.
    internet._origin_lpm = None
