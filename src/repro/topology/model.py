"""Ground-truth data model for the synthetic Internet.

Everything the generator decides — who owns which router, which link is an
interdomain border, which prefix is announced where — lives here.  The
probing layer sees none of it directly; it only sees ICMP responses.  The
analysis layer reads this model to score bdrmap's inferences (§5.6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..addr import Prefix, ntoa
from ..asgraph import ASGraph, Rel
from ..errors import TopologyError
from ..trie import FrozenLPM
from .geography import City


class ASKind(enum.Enum):
    """Coarse business role of an AS; drives topology and policy choices."""

    TIER1 = "tier1"
    TRANSIT = "transit"       # tier-2 / regional transit
    ACCESS = "access"         # eyeball / broadband
    CDN = "cdn"
    CONTENT = "content"
    ENTERPRISE = "enterprise"
    STUB = "stub"
    RESEARCH = "research"     # R&E network
    IXP_RS = "ixp_rs"         # IXP route-server AS


@dataclass
class Org:
    """An organization; may operate several sibling ASes (§4 challenge 5)."""

    org_id: str
    name: str
    asns: List[int] = field(default_factory=list)


@dataclass
class PoP:
    """A point of presence of one AS in one city."""

    pop_id: int
    asn: int
    city: City


class LinkKind(enum.Enum):
    INTERDOMAIN = "interdomain"   # point-to-point border link
    IXP = "ixp"                   # shared IXP peering fabric
    INTRA = "intra"               # internal link within one AS


@dataclass
class Interface:
    """One interface: an (address, router, link) binding.

    ``addr`` may be None for interfaces we model as unnumbered (never
    observed in traceroute).
    """

    addr: Optional[int]
    router_id: int
    link_id: int

    def __repr__(self) -> str:
        shown = ntoa(self.addr) if self.addr is not None else "unnumbered"
        return "Interface(%s r%d l%d)" % (shown, self.router_id, self.link_id)


@dataclass
class Link:
    """A link between interfaces.

    For INTERDOMAIN links, ``subnet`` is the /30 or /31 (rarely larger)
    assigned to the link and ``supplier_asn`` records which AS's address
    space numbers it — the crux of §4 challenge 1.
    """

    link_id: int
    kind: LinkKind
    interfaces: List[Interface] = field(default_factory=list)
    subnet: Optional[Prefix] = None
    supplier_asn: Optional[int] = None
    ixp_id: Optional[int] = None
    igp_cost: float = 1.0

    def other(self, router_id: int) -> Interface:
        """The interface on the far side of a two-ended link."""
        others = [i for i in self.interfaces if i.router_id != router_id]
        if len(others) != 1:
            raise TopologyError(
                "link %d is not point-to-point from r%d" % (self.link_id, router_id)
            )
        return others[0]

    def iface_of(self, router_id: int) -> Interface:
        for iface in self.interfaces:
            if iface.router_id == router_id:
                return iface
        raise TopologyError("r%d not on link %d" % (router_id, self.link_id))


@dataclass
class Router:
    """A ground-truth router owned by exactly one AS."""

    router_id: int
    asn: int
    pop_id: int
    is_border: bool = False
    interfaces: List[Interface] = field(default_factory=list)
    policy: Any = None  # repro.net.policies.RouterPolicy, attached later

    def addresses(self) -> List[int]:
        return [i.addr for i in self.interfaces if i.addr is not None]

    def link_ids(self) -> List[int]:
        return [i.link_id for i in self.interfaces]


@dataclass
class IXP:
    """An Internet exchange point with a shared peering fabric."""

    ixp_id: int
    name: str
    fabric: Prefix
    rs_asn: Optional[int]
    city: City
    members: Dict[int, int] = field(default_factory=dict)  # asn -> fabric addr
    fabric_link_id: Optional[int] = None


@dataclass
class PrefixPolicy:
    """How one prefix is originated, hosted, and announced.

    ``origins``: ASes that originate it in BGP (empty = unrouted, §4
    challenges around unannounced infrastructure).
    ``host_router``: per-origin router where probes toward the prefix are
    delivered inside the origin AS.
    ``restricted_links``: if not None, the prefix is announced to direct
    neighbors only over these border link ids (selective announcement, the
    Akamai behaviour of Fig 15/16).
    ``live_hosts``: addresses that answer ICMP echo.
    """

    prefix: Prefix
    origins: Tuple[int, ...]
    host_router: Dict[int, int] = field(default_factory=dict)
    restricted_links: Optional[FrozenSet[int]] = None
    live_hosts: FrozenSet[int] = frozenset()

    @property
    def announced(self) -> bool:
        return bool(self.origins)


@dataclass
class ASNode:
    """One AS and its resources."""

    asn: int
    kind: ASKind
    org_id: str
    name: str = ""
    pops: List[PoP] = field(default_factory=list)
    router_ids: List[int] = field(default_factory=list)
    prefixes: List[Prefix] = field(default_factory=list)       # allocated space
    infra_prefix: Optional[Prefix] = None                      # internal numbering
    infra_announced: bool = True


class Internet:
    """The complete synthetic Internet, including all ground truth."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph = ASGraph()                  # ground-truth relationships
        self.ases: Dict[int, ASNode] = {}
        self.orgs: Dict[str, Org] = {}
        self.routers: Dict[int, Router] = {}
        self.links: Dict[int, Link] = {}
        self.ixps: Dict[int, IXP] = {}
        self.prefix_policies: Dict[Prefix, PrefixPolicy] = {}
        self.addr_to_iface: Dict[int, Interface] = {}
        self.rir_delegations: List[Tuple[str, Prefix]] = []  # (opaque org id, prefix)
        self._origin_lpm: Optional[FrozenLPM[Tuple[int, ...]]] = None
        self._next_router_id = 1
        self._next_link_id = 1
        self._next_pop_id = 1

    # -- construction helpers (used by the generators) ----------------------

    def add_org(self, org: Org) -> None:
        self.orgs[org.org_id] = org

    def add_as(self, node: ASNode) -> None:
        if node.asn in self.ases:
            raise TopologyError("duplicate AS%d" % node.asn)
        self.ases[node.asn] = node
        self.graph.add_as(node.asn)

    def new_pop(self, asn: int, city: City) -> PoP:
        pop = PoP(self._next_pop_id, asn, city)
        self._next_pop_id += 1
        self.ases[asn].pops.append(pop)
        return pop

    def new_router(self, asn: int, pop_id: int, is_border: bool = False) -> Router:
        router = Router(self._next_router_id, asn, pop_id, is_border)
        self._next_router_id += 1
        self.routers[router.router_id] = router
        self.ases[asn].router_ids.append(router.router_id)
        return router

    def new_link(
        self,
        kind: LinkKind,
        endpoints: List[Tuple[int, Optional[int]]],
        subnet: Optional[Prefix] = None,
        supplier_asn: Optional[int] = None,
        ixp_id: Optional[int] = None,
        igp_cost: float = 1.0,
    ) -> Link:
        """Create a link; ``endpoints`` is a list of (router_id, addr)."""
        link = Link(
            self._next_link_id,
            kind,
            subnet=subnet,
            supplier_asn=supplier_asn,
            ixp_id=ixp_id,
            igp_cost=igp_cost,
        )
        self._next_link_id += 1
        for router_id, addr in endpoints:
            iface = Interface(addr, router_id, link.link_id)
            link.interfaces.append(iface)
            self.routers[router_id].interfaces.append(iface)
            if addr is not None:
                if addr in self.addr_to_iface:
                    raise TopologyError("address %s assigned twice" % ntoa(addr))
                self.addr_to_iface[addr] = iface
        self.links[link.link_id] = link
        self._origin_lpm = None
        return link

    def add_prefix_policy(self, policy: PrefixPolicy) -> None:
        self.prefix_policies[policy.prefix] = policy
        self._origin_lpm = None

    # -- ground-truth queries ------------------------------------------------

    def origin_lpm(self) -> FrozenLPM[Tuple[int, ...]]:
        """*Announced* prefixes → origin tuple (ground truth), frozen until
        the next change to the links or prefix policies."""
        if self._origin_lpm is None:
            self._origin_lpm = FrozenLPM(
                (policy.prefix, policy.origins)
                for policy in self.prefix_policies.values()
                if policy.announced
            )
        return self._origin_lpm

    def true_origins(self, addr: int) -> Tuple[int, ...]:
        found = self.origin_lpm().lookup_value(addr)
        return found if found is not None else ()

    def owner_of_addr(self, addr: int) -> Optional[int]:
        """The AS operating the router that holds ``addr`` (ground truth)."""
        iface = self.addr_to_iface.get(addr)
        if iface is None:
            return None
        return self.routers[iface.router_id].asn

    def router_of_addr(self, addr: int) -> Optional[Router]:
        iface = self.addr_to_iface.get(addr)
        if iface is None:
            return None
        return self.routers[iface.router_id]

    def interdomain_links(self, asn: Optional[int] = None) -> Iterator[Link]:
        """All border links, optionally restricted to those touching ``asn``."""
        for link in self.links.values():
            if link.kind is LinkKind.INTRA:
                continue
            if asn is None:
                yield link
                continue
            owners = {self.routers[i.router_id].asn for i in link.interfaces}
            if asn in owners:
                yield link

    def border_pairs(self, asn: int) -> Set[Tuple[int, int]]:
        """Ground-truth set of (near router, neighbor AS) border attachments
        for ``asn``, counting IXP fabrics per (router, member) pair."""
        pairs: Set[Tuple[int, int]] = set()
        for link in self.interdomain_links(asn):
            near = [
                i for i in link.interfaces if self.routers[i.router_id].asn == asn
            ]
            far = [
                i for i in link.interfaces if self.routers[i.router_id].asn != asn
            ]
            for near_iface in near:
                for far_iface in far:
                    pairs.add(
                        (near_iface.router_id, self.routers[far_iface.router_id].asn)
                    )
        return pairs

    def sibling_asns(self, asn: int) -> FrozenSet[int]:
        return frozenset(self.graph.sibling_set(asn))

    def routers_of(self, asn: int) -> List[Router]:
        return [self.routers[rid] for rid in self.ases[asn].router_ids]

    def relationship(self, a: int, b: int) -> Optional[Rel]:
        return self.graph.relationship(a, b)

    def stats(self) -> Dict[str, int]:
        """Summary counts, handy for logging and tests."""
        return {
            "ases": len(self.ases),
            "orgs": len(self.orgs),
            "routers": len(self.routers),
            "links": len(self.links),
            "interdomain_links": sum(1 for _ in self.interdomain_links()),
            "prefixes": len(self.prefix_policies),
            "announced_prefixes": sum(
                1 for p in self.prefix_policies.values() if p.announced
            ),
            "addresses": len(self.addr_to_iface),
            "ixps": len(self.ixps),
        }
