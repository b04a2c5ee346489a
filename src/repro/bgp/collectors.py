"""Simulated public route collectors (Route Views / RIPE RIS).

A sample of ASes peer with the collectors and export their *best* path per
prefix — exactly the partial view the paper works from: peer-peer links low
in the hierarchy are typically invisible unless a collector peer sits in
the customer cone of one side, which is what produces the "hidden peer"
links of Table 1's trace column.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import List, Optional, Tuple

from ..net.routing import RoutingOracle
from ..rng import make_rng
from ..topology.model import ASKind, Internet
from .table import BGPView, RibEntry

_MAX_PATH = 32


@dataclass
class CollectorConfig:
    n_peers: int = 12
    seed: int = 0
    include_focal_providers: bool = True
    # Route Views peers with hundreds of networks, including customers of
    # large access networks; a couple of those make the focal network's
    # upstream and peering adjacencies publicly visible (as they are for
    # the paper's networks).
    include_focal_customers: int = 2


def _as_path(oracle: RoutingOracle, peer: int, key) -> Optional[Tuple[int, ...]]:
    """The AS path exported by ``peer`` for the routing class ``key``."""
    routes = oracle.class_routes(key)
    path: List[int] = [peer]
    current = peer
    for _ in range(_MAX_PATH):
        if current in key[0]:
            return tuple(path)
        next_as = routes.next_as(current)
        if next_as is None:
            return None
        if next_as == current:
            return tuple(path)
        path.append(next_as)
        current = next_as
    return None


def public_view_inputs(
    internet: Internet,
    config: Optional[CollectorConfig] = None,
    focal_asn: Optional[int] = None,
) -> tuple:
    """Everything :func:`collect_public_view` reads, as one comparable
    value: two calls whose inputs are equal return equal views.

    The view reads the scenario seed, the collector config, the focal
    ASN, each AS's kind (which picks the collector peers), the AS graph
    with its relationships (the focal AS's providers and customers, and
    every routing class's BFS and best-route choice), and each announced
    prefix with its origins.  Its one router-level input is the
    selective announcement: a restricted prefix is exported from an
    origin to a neighbor iff one of its restricted links joins the two
    ASes.  So the key holds the AS pairs those links join, not the link
    ids: re-homing a link, or dropping one of several parallel ones,
    leaves the view unchanged.
    """
    if config is None:
        config = CollectorConfig()
    graph = internet.graph
    routers = internet.routers
    announced = []
    for prefix in sorted(internet.prefix_policies):
        policy = internet.prefix_policies[prefix]
        if not policy.announced:
            continue
        pairs = None
        if policy.restricted_links is not None:
            pairs = set()
            for link_id in policy.restricted_links:
                link = internet.links.get(link_id)
                if link is None:
                    continue
                asns = {routers[iface.router_id].asn
                        for iface in link.interfaces}
                pairs.update((a, b) for a in asns for b in asns if a != b)
            pairs = frozenset(pairs)
        announced.append((prefix, policy.origins, pairs))
    return (
        internet.seed,
        astuple(config),
        focal_asn,
        sorted((asn, node.kind.value) for asn, node in internet.ases.items()),
        sorted(graph.ases()),
        sorted((a, b, rel.value) for a, b, rel in graph.edges()),
        announced,
    )


def collect_public_view(
    internet: Internet,
    oracle: RoutingOracle,
    config: Optional[CollectorConfig] = None,
    focal_asn: Optional[int] = None,
) -> BGPView:
    """Assemble the public BGP view from a sample of collector peers.
    :func:`public_view_inputs` lists what it reads."""
    if config is None:
        config = CollectorConfig()
    rng = make_rng(internet.seed, "collectors", str(config.seed))

    tier1s = sorted(
        node.asn for node in internet.ases.values() if node.kind is ASKind.TIER1
    )
    transits = sorted(
        node.asn for node in internet.ases.values() if node.kind is ASKind.TRANSIT
    )
    others = sorted(
        node.asn
        for node in internet.ases.values()
        if node.kind in (ASKind.ACCESS, ASKind.RESEARCH, ASKind.CONTENT)
    )
    peers: List[int] = list(tier1s)
    pool = transits + others
    rng.shuffle(pool)
    for asn in pool:
        if len(peers) >= config.n_peers:
            break
        if asn not in peers and asn != focal_asn:
            peers.append(asn)
    if config.include_focal_providers and focal_asn is not None:
        for provider in internet.graph.providers(focal_asn):
            if provider not in peers:
                peers.append(provider)
    if config.include_focal_customers and focal_asn is not None:
        customers = sorted(internet.graph.customers(focal_asn))
        rng.shuffle(customers)
        # Prefer single-homed customers: they see the focal network's full
        # export (multihomed ones route around it for many prefixes).
        customers.sort(
            key=lambda asn: len(internet.graph.providers(asn)) > 1
        )
        for customer in customers[: config.include_focal_customers]:
            if customer not in peers:
                peers.append(customer)

    view = BGPView()
    for prefix in sorted(internet.prefix_policies):
        policy = internet.prefix_policies[prefix]
        if not policy.announced:
            continue
        key = oracle.class_key(policy)
        for peer in peers:
            path = _as_path(oracle, peer, key)
            if path is None:
                continue
            view.add(RibEntry(peer_asn=peer, prefix=prefix, path=path))
    return view
