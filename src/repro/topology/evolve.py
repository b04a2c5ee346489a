"""Topology evolution between measurement runs.

The deployed system (§4: "monitoring interdomain links for congestion
using 40 VPs in 28 networks") re-runs bdrmap continuously because
interconnection changes: networks add peering sessions, de-peer, and move
links.  These helpers mutate a built topology the way operators do, so
tests and examples can exercise longitudinal monitoring (see
:mod:`repro.analysis.diff` and :mod:`repro.core.epochs`).

Every mutation returns a structured :class:`MutationEvent` (and appends it
to ``scenario.mutations``), so downstream consumers see *what changed*
instead of having to diff object graphs: the incremental epoch pipeline
records each epoch's events in its chain.  Invalidation does not key off
the events — it compares inputs between epochs (:mod:`repro.core.epochs`):
the forwarding signatures of probed addresses, what each §5.2 input was
built from, and what the routing oracle's decisions read (the AS graph,
each link's ends and IGP cost, each AS's routers, the announced
policies).  That also catches what an event does not name, such as
traces that re-route around a new link.

After mutating, call :func:`rebuild_network` — forwarding state (routing
oracle caches) is derived from the topology and must be recomputed; the
epoch runner then hands the new oracle the old one, which gives it every
class route, intra-AS table and (router, prefix) decision whose inputs
the mutations left unchanged.
Scenario entry points (``run_bdrmap``, the orchestrators, the epoch
runner) refuse to measure while ``scenario.topology_dirty`` is set, so a
forgotten rebuild is a clear :class:`~repro.errors.TopologyError` rather
than silently wrong traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, List, Optional, Tuple

from ..asgraph import Rel
from ..errors import TopologyError
from ..net import Network
from .addressing import SubnetPool
from .model import LinkKind
from .scenarios import Scenario


@dataclass(frozen=True)
class MutationEvent:
    """Base class for structured topology mutations."""

    kind: ClassVar[str] = "mutation"

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True)
class LinkAdded(MutationEvent):
    """A new interdomain link was provisioned."""

    kind: ClassVar[str] = "link_added"

    link_id: int
    asn_a: int
    asn_b: int
    relationship: str          # of b from a's view
    supplier_asn: int
    addrs: Tuple[int, ...]     # (addr_a, addr_b)
    created_relationship: bool


@dataclass(frozen=True)
class LinkRemoved(MutationEvent):
    """An interdomain link was de-provisioned."""

    kind: ClassVar[str] = "link_removed"

    link_id: int
    ases: Tuple[int, ...]
    addrs: Tuple[int, ...]


@dataclass(frozen=True)
class LinkMoved(MutationEvent):
    """One end of an interdomain link migrated to a different router of
    the same AS (a circuit re-homed to another border)."""

    kind: ClassVar[str] = "link_moved"

    link_id: int
    asn: int
    from_router: int
    to_router: int
    addrs: Tuple[int, ...]     # every address on the link


@dataclass(frozen=True)
class RelationshipChanged(MutationEvent):
    """The business relationship between two ASes changed (``after`` is
    None on a full de-peering)."""

    kind: ClassVar[str] = "relationship_changed"

    asn_a: int
    asn_b: int
    before: Optional[str]
    after: Optional[str]


def _record(scenario: Scenario, event: MutationEvent) -> MutationEvent:
    scenario.mutations.append(event)
    scenario.topology_dirty = True
    return event


def add_border_link(
    scenario: Scenario,
    asn_a: int,
    asn_b: int,
    rel_b_from_a: Optional[Rel] = None,
    use_31: bool = False,
) -> LinkAdded:
    """Provision a new interdomain link between two ASes.

    Creates the business relationship if the pair had none, picks a border
    router on each side (reusing existing borders where possible), and
    numbers a point-to-point subnet from the supplier's pool —
    provider-supplied for c2p, side A for peers.  Released subnets from
    earlier turn-downs are reused before fresh pool space.
    """
    internet = scenario.internet
    if asn_a not in internet.ases or asn_b not in internet.ases:
        raise TopologyError("both ASes must exist")
    relationship = internet.graph.relationship(asn_a, asn_b)
    created_relationship = relationship is None
    if relationship is None:
        internet.graph.add_edge(asn_a, asn_b, rel_b_from_a or Rel.PEER)
        relationship = internet.graph.relationship(asn_a, asn_b)

    if relationship is Rel.CUSTOMER:      # b is a's customer → a supplies
        supplier = asn_a
    elif relationship is Rel.PROVIDER:
        supplier = asn_b
    else:
        supplier = asn_a
    pool = scenario.state.pools.get(supplier)
    if not isinstance(pool, SubnetPool):
        raise TopologyError("AS%d has no address pool to number the link" % supplier)
    subnet, addr_a, addr_b = pool.alloc_p2p(use_31)

    def border_of(asn: int):
        node = internet.ases[asn]
        borders = [
            internet.routers[rid]
            for rid in node.router_ids
            if internet.routers[rid].is_border
        ]
        if borders:
            return borders[0]
        return internet.routers[node.router_ids[0]]

    router_a = border_of(asn_a)
    router_b = border_of(asn_b)
    link = internet.new_link(
        LinkKind.INTERDOMAIN,
        [(router_a.router_id, addr_a), (router_b.router_id, addr_b)],
        subnet=subnet,
        supplier_asn=supplier,
    )
    event = LinkAdded(
        link_id=link.link_id,
        asn_a=asn_a,
        asn_b=asn_b,
        relationship=relationship.value,
        supplier_asn=supplier,
        addrs=(addr_a, addr_b),
        created_relationship=created_relationship,
    )
    _record(scenario, event)
    return event


def _release_link_subnet(scenario: Scenario, link) -> None:
    if link.subnet is None or link.supplier_asn is None:
        return
    pool = scenario.state.pools.get(link.supplier_asn)
    if isinstance(pool, SubnetPool):
        pool.release_subnet(link.subnet)


def _detach_link(scenario: Scenario, link_id: int):
    internet = scenario.internet
    link = internet.links.pop(link_id, None)
    if link is None:
        raise TopologyError("no link %d" % link_id)
    for iface in link.interfaces:
        router = internet.routers[iface.router_id]
        router.interfaces = [i for i in router.interfaces if i is not iface]
        if iface.addr is not None:
            internet.addr_to_iface.pop(iface.addr, None)
    internet._origin_lpm = None
    _release_link_subnet(scenario, link)
    return link


def remove_link(scenario: Scenario, link_id: int) -> LinkRemoved:
    """De-provision a link (circuit turn-down).

    The link's point-to-point subnet returns to the supplier's pool for
    reuse by a later :func:`add_border_link`.
    """
    link = _detach_link(scenario, link_id)
    event = LinkRemoved(
        link_id=link_id,
        ases=tuple(sorted({
            scenario.internet.routers[iface.router_id].asn
            for iface in link.interfaces
            if iface.router_id in scenario.internet.routers
        })),
        addrs=tuple(sorted(
            iface.addr for iface in link.interfaces if iface.addr is not None
        )),
    )
    _record(scenario, event)
    return event


def move_border_link(
    scenario: Scenario, link_id: int, to_router_id: int
) -> LinkMoved:
    """Re-home one end of an interdomain link to another router of the
    same AS (the circuit keeps its addressing; forwarding changes)."""
    internet = scenario.internet
    link = internet.links.get(link_id)
    if link is None:
        raise TopologyError("no link %d" % link_id)
    to_router = internet.routers.get(to_router_id)
    if to_router is None:
        raise TopologyError("no router %d" % to_router_id)
    iface = next(
        (
            i for i in link.interfaces
            if internet.routers[i.router_id].asn == to_router.asn
        ),
        None,
    )
    if iface is None:
        raise TopologyError(
            "link %d has no end in AS%d" % (link_id, to_router.asn)
        )
    if iface.router_id == to_router_id:
        raise TopologyError(
            "link %d is already on router %d" % (link_id, to_router_id)
        )
    old_router = internet.routers[iface.router_id]
    old_router.interfaces = [
        i for i in old_router.interfaces if i is not iface
    ]
    from_router_id = iface.router_id
    iface.router_id = to_router_id
    to_router.interfaces.append(iface)
    to_router.is_border = True
    event = LinkMoved(
        link_id=link_id,
        asn=to_router.asn,
        from_router=from_router_id,
        to_router=to_router_id,
        addrs=tuple(sorted(
            i.addr for i in link.interfaces if i.addr is not None
        )),
    )
    _record(scenario, event)
    return event


def de_peer(scenario: Scenario, asn_a: int, asn_b: int) -> List[MutationEvent]:
    """Tear down the relationship between two ASes: every point-to-point
    link between them is removed (subnets released) and the AS-graph edge
    dropped.  Returns the per-link events plus a final
    :class:`RelationshipChanged`."""
    internet = scenario.internet
    rel = internet.graph.relationship(asn_a, asn_b)
    if rel is None:
        raise TopologyError("AS%d and AS%d are not adjacent" % (asn_a, asn_b))
    pair = {asn_a, asn_b}
    doomed = sorted(
        link.link_id
        for link in internet.links.values()
        if link.kind is LinkKind.INTERDOMAIN
        and {
            internet.routers[iface.router_id].asn
            for iface in link.interfaces
            if iface.router_id in internet.routers
        } == pair
    )
    events: List[MutationEvent] = [
        remove_link(scenario, link_id) for link_id in doomed
    ]
    internet.graph.remove_edge(asn_a, asn_b)
    events.append(_record(scenario, RelationshipChanged(
        asn_a=asn_a, asn_b=asn_b, before=rel.value, after=None,
    )))
    return events


def rebuild_network(scenario: Scenario) -> Network:
    """Recompute forwarding state after topology mutations.

    Returns the new network (also installed on the scenario); existing VPs
    are re-registered.  The virtual clock continues from the old network's
    time — runs are sequential in the same timeline.  Clears the
    staleness flag set by the mutation helpers.
    """
    old = scenario.network
    network = Network(
        scenario.internet,
        seed=scenario.config.asgen.seed,
        pps=scenario.config.pps,
    )
    network.now = old.now
    network.probes_sent = old.probes_sent
    network.congestion = old.congestion
    for vp in scenario.vps:
        network.add_vp(vp)
    scenario.network = network
    scenario.topology_dirty = False
    return network
