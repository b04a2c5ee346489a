"""Interdomain + intradomain routing over the ground-truth topology.

The oracle answers one question for the forwarding walk: *given this router
and this destination address, what happens next?*  Interdomain routing
follows the standard BGP policy model — valley-free export (Gao-Rexford)
with local preference customer > peer > provider, then shortest AS path,
then lowest next-hop ASN.  Egress selection among multiple border links to
the same next-hop AS is hot-potato: the link whose near-side router is
closest in IGP distance (§6's Level3 observation depends on this).

Selective announcement (``PrefixPolicy.restricted_links``) limits which
border links of the origin export a prefix — the Akamai-like behaviour of
Fig 15/16.

Route state is computed lazily per "routing class" (origin set +
announcement restriction) and per AS, so large scenarios only pay for the
(AS, destination) pairs actually traversed by probes.

An oracle rebuilt over the same Internet after a topology mutation takes
from the oracle before it (:meth:`RoutingOracle.take_routes`) every route
whose inputs are unchanged.  Both oracles record what their decisions read
(:meth:`RoutingOracle.record_inputs`: the AS graph, each link's kind, IGP
cost and ends, each AS's routers, each announced policy), and the new one
takes every unrestricted class route while the AS graph is equal, every
intra-AS table of an AS whose routers and internal links are unchanged,
and every (router, prefix) decision of an unrestricted class whose AS and
(AS, next AS) border links are unchanged, while no announced policy
changed.  Restricted classes also read the border links; neither they nor
their decisions are ever taken.
"""

from __future__ import annotations

import enum
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, FrozenSet, List, Optional, Set, Tuple

from ..addr import Prefix
from ..asgraph import ASGraph, Rel
from ..errors import RoutingError
from ..topology.model import Internet, LinkKind, PrefixPolicy
from ..trie import FrozenLPM

ClassKey = Tuple[Tuple[int, ...], Optional[FrozenSet[int]]]


def _class_fingerprint(key: ClassKey) -> int:
    """A deterministic 32-bit fingerprint of a routing class.

    Used to break IGP ties per destination class the way real BGP
    tie-breaks (oldest route / router id) spread prefixes over parallel
    links.  Must be stable across processes, so ``hash()`` is out.
    """
    origins, restricted = key
    value = 2166136261
    for asn in origins:
        value = (value ^ asn) * 16777619 & 0xFFFFFFFF
    if restricted:
        for link_id in sorted(restricted):
            value = (value ^ (link_id + 0x9E3779B9)) * 16777619 & 0xFFFFFFFF
    return value


class StepKind(enum.Enum):
    ARRIVE = "arrive"            # dst is an address on this router
    HOST = "host"                # this router hosts dst's prefix; host is next
    FORWARD = "forward"          # send over a link to next_router
    UNREACHABLE = "unreachable"  # no route


@dataclass(frozen=True)
class Step:
    """One forwarding decision.  Frozen: the oracle hands the same Step to
    every destination of a prefix that reaches it by prefix routing."""

    kind: StepKind
    next_router: Optional[int] = None
    link_id: Optional[int] = None
    out_addr: Optional[int] = None   # this router's address on the out link
    in_addr: Optional[int] = None    # next router's address on the link
    crosses_border: bool = False
    policy: Optional[PrefixPolicy] = None


_ARRIVE = Step(StepKind.ARRIVE)
_UNREACHABLE = Step(StepKind.UNREACHABLE)


class _ClassRoutes:
    """Lazily-evaluated BGP decision state for one routing class."""

    def __init__(
        self,
        graph: ASGraph,
        origins: Tuple[int, ...],
        restricted: Optional[FrozenSet[int]],
        allowed_first_hop,
    ) -> None:
        self._graph = graph
        self.origins = origins
        self.restricted = restricted
        # asn -> (path length, next-hop asn); next-hop == asn means origin.
        self.dist_c: Dict[int, Tuple[int, int]] = {}
        self.peer: Dict[int, Tuple[int, int]] = {}
        self._sel_memo: Dict[int, Optional[Tuple[int, int, int]]] = {}
        self._build_customer_and_peer(allowed_first_hop)

    def _build_customer_and_peer(self, allowed_first_hop) -> None:
        """Stage A: customer-class routes, BFS upward from the origins
        (provider and sibling edges only).  Stage B: one peer hop off any
        customer route."""
        graph = self._graph
        origin_set = set(self.origins)
        frontier = sorted(asn for asn in origin_set if asn in graph)
        for asn in frontier:
            self.dist_c[asn] = (0, asn)
        level = 0
        while frontier:
            level += 1
            next_frontier: List[int] = []
            for v in frontier:
                for n in sorted(graph.neighbors(v)):
                    rel = graph.relationship(v, n)
                    if rel not in (Rel.PROVIDER, Rel.SIBLING):
                        continue
                    if v in origin_set and not allowed_first_hop(v, n):
                        continue
                    if n not in self.dist_c:
                        self.dist_c[n] = (level, v)
                        next_frontier.append(n)
            frontier = next_frontier
        # Stage B: peers learn customer-class routes.
        for v in sorted(self.dist_c):
            length = self.dist_c[v][0]
            for n in sorted(graph.neighbors(v)):
                if graph.relationship(v, n) is not Rel.PEER:
                    continue
                if v in origin_set and not allowed_first_hop(v, n):
                    continue
                candidate = (length + 1, v)
                if n not in self.peer or candidate < self.peer[n]:
                    self.peer[n] = candidate

    def sel(self, asn: int):
        """Selected route at ``asn``: (pref_rank, length, next_as) or None.

        pref_rank 0 = customer route, 1 = peer, 2 = provider/sibling.
        ``next_as == asn`` means this AS originates the prefix.  The answer
        does not depend on which ASes were asked before.
        """
        if asn in self._sel_memo:
            return self._sel_memo[asn]
        return self._sel(asn, {})[0]

    def _sel(self, asn: int, stack: Dict[int, int]):
        """:meth:`sel` below the ASes on ``stack`` (asn -> depth): the
        route, and the shallowest depth at which the sibling recursion
        guard cut a route below ``asn``.  A route cut at ``asn`` itself or
        deeper is a loop through that AS, which never wins, so the answer
        is exact and memoized; one cut above ``asn`` is not."""
        if asn in self._sel_memo:
            return self._sel_memo[asn], len(stack)
        depth = stack.get(asn)
        if depth is not None:
            return None, depth  # sibling recursion guard
        depth = stack[asn] = len(stack)
        low = depth
        candidates: List[Tuple[int, int, int]] = []
        cust = self.dist_c.get(asn)
        if cust is not None:
            candidates.append((0, cust[0], cust[1]))
        peer = self.peer.get(asn)
        if peer is not None:
            candidates.append((1, peer[0], peer[1]))
        if not candidates:
            # Provider (and sibling) routes, recursively up the hierarchy.
            graph = self._graph
            best: Optional[Tuple[int, int]] = None
            for n in sorted(graph.neighbors(asn)):
                rel = graph.relationship(asn, n)
                if rel not in (Rel.PROVIDER, Rel.SIBLING):
                    continue
                upstream, cut = self._sel(n, stack)
                low = min(low, cut)
                if upstream is None:
                    continue
                option = (upstream[1] + 1, n)
                if best is None or option < best:
                    best = option
            if best is not None:
                candidates.append((2, best[0], best[1]))
        del stack[asn]
        chosen = min(candidates) if candidates else None
        if low >= depth:
            self._sel_memo[asn] = chosen
        return chosen, low

    def next_as(self, asn: int) -> Optional[int]:
        chosen = self.sel(asn)
        return chosen[2] if chosen is not None else None


@dataclass
class _Inputs:
    """What an oracle's decisions read from its Internet, recorded by
    :meth:`RoutingOracle.record_inputs`.  Values are copied, since the
    topology mutates in place (a re-homed link keeps its ``Interface``
    objects).  The order of a router's interfaces, which breaks ties
    between parallel INTRA links, is not recorded: the mutations in
    :mod:`repro.topology.evolve` only append or remove interfaces, so
    equal INTRA links keep their order."""

    graph: ASGraph
    # link id -> (kind, IGP cost, ((router id, address), ...))
    links: Dict[int, tuple]
    # asn -> its router ids
    routers: Dict[int, Tuple[int, ...]]
    # announced prefix -> (its policy, origins, host routers, restriction)
    policies: Dict[Prefix, tuple]

    def same_policies(self, before: "_Inputs") -> bool:
        """Every announced policy is the same object, with equal origins,
        host routers and restriction."""
        if self.policies.keys() != before.policies.keys():
            return False
        return all(
            then[0] is now[0] and then[1:] == now[1:]
            for prefix, now in self.policies.items()
            for then in [before.policies[prefix]]
        )

    def changes_since(
        self, before: "_Inputs"
    ) -> Tuple[Set[int], Set[Tuple[int, int]]]:
        """The ASes whose intra-AS tables, and the ordered AS pairs whose
        border links, may read differently now than over ``before``: a
        changed router set or INTRA link dirties its AS, a changed
        inter-AS link every pair it joined, before or after."""
        dirty_ases = {
            asn for asn in self.routers.keys() | before.routers.keys()
            if self.routers.get(asn) != before.routers.get(asn)
        }
        dirty_pairs: Set[Tuple[int, int]] = set()
        asn_of = {
            router_id: asn
            for asn, router_ids in self.routers.items()
            for router_id in router_ids
        }
        for link_id in self.links.keys() | before.links.keys():
            now, then = self.links.get(link_id), before.links.get(link_id)
            if now == then:
                continue
            for entry in (now, then):
                if entry is None:
                    continue
                kind, _, ends = entry
                ases = {asn_of[router_id] for router_id, _ in ends}
                if kind is LinkKind.INTRA:
                    dirty_ases |= ases
                else:
                    dirty_pairs.update(
                        (a, b) for a in ases for b in ases if a != b
                    )
        return dirty_ases, dirty_pairs


class RoutingOracle:
    """Forwarding decisions over one ground-truth Internet."""

    def __init__(self, internet: Internet) -> None:
        self.internet = internet
        self._announced: FrozenLPM[PrefixPolicy] = FrozenLPM(
            (policy.prefix, policy)
            for policy in internet.prefix_policies.values()
            if policy.announced
        )
        self._links_between: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._build_links_between()
        self._classes: Dict[ClassKey, _ClassRoutes] = {}
        # What the decisions read, recorded on request (record_inputs), so
        # an oracle nobody takes from pays nothing for it.
        self._inputs: Optional[_Inputs] = None
        self._intra: Dict[int, Dict[int, Dict[int, Tuple[float, int, int]]]] = {}
        self._egress_cache: Dict[Tuple[int, ClassKey], Optional[Tuple[int, int]]] = {}
        # Memoized forwarding decisions, dst -> router -> Step.  step() is
        # a pure function of (router, dst) over the static topology — every
        # input it reads (policies, intra tables, class routes, egress
        # choice) is fixed at construction — so the walk of probe N toward
        # a destination pays the route computation once and every later
        # probe through the same (router, dst) pair is a dict hit.  This is
        # the collection hot path: every route the network's walk records
        # is built from these steps, and sibling targets in a /24 share
        # almost every hop.  Keyed by destination first, a walk fetches
        # its destination's table once and reads one dict per hop.
        self._step_memo: DefaultDict[int, Dict[int, Step]] = defaultdict(dict)
        # Past the infrastructure checks a decision reads only the router
        # and the covering prefix's policy, so every destination in one
        # announced prefix shares it: prefix -> router -> Step.
        self._prefix_memo: Dict[Prefix, Dict[int, Step]] = {}

    # -- static structure -----------------------------------------------------

    def _build_links_between(self) -> None:
        for link in self.internet.links.values():
            if link.kind is LinkKind.INTRA:
                continue
            routers = self.internet.routers
            for iface_a in link.interfaces:
                asn_a = routers[iface_a.router_id].asn
                for iface_b in link.interfaces:
                    asn_b = routers[iface_b.router_id].asn
                    if asn_a == asn_b:
                        continue
                    entries = self._links_between.setdefault((asn_a, asn_b), [])
                    entry = (iface_a.router_id, link.link_id)
                    if entry not in entries:
                        entries.append(entry)

    def links_between(self, asn: int, neighbor: int) -> List[Tuple[int, int]]:
        """(near router, link id) pairs for links from asn to neighbor."""
        return list(self._links_between.get((asn, neighbor), ()))

    def _allowed_first_hop(self, restricted: Optional[FrozenSet[int]]):
        if restricted is None:
            return lambda origin, neighbor: True

        def allowed(origin: int, neighbor: int) -> bool:
            return any(
                link_id in restricted
                for _, link_id in self._links_between.get((origin, neighbor), ())
            )

        return allowed

    # -- intra-AS tables --------------------------------------------------------

    def _intra_table(self, asn: int) -> Dict[int, Dict[int, Tuple[float, int, int]]]:
        """All-pairs shortest paths inside one AS.

        Returns src → dst → (distance, next-hop router, link id)."""
        table = self._intra.get(asn)
        if table is not None:
            return table
        routers = self.internet.ases[asn].router_ids
        adjacency: Dict[int, List[Tuple[int, int, float]]] = {r: [] for r in routers}
        for router_id in routers:
            for iface in self.internet.routers[router_id].interfaces:
                link = self.internet.links[iface.link_id]
                if link.kind is not LinkKind.INTRA:
                    continue
                for other in link.interfaces:
                    if other.router_id == router_id:
                        continue
                    if self.internet.routers[other.router_id].asn != asn:
                        continue
                    adjacency[router_id].append(
                        (other.router_id, link.link_id, link.igp_cost)
                    )
        table = {}
        for src in routers:
            dist: Dict[int, Tuple[float, int, int]] = {src: (0.0, src, 0)}
            heap: List[Tuple[float, int, int, int]] = [(0.0, src, src, 0)]
            while heap:
                d, node, first_hop, first_link = heapq.heappop(heap)
                current = dist.get(node)
                if current is not None and (d, first_hop) > (current[0], current[1]):
                    continue
                for neighbor, link_id, cost in adjacency[node]:
                    nd = d + cost
                    hop = neighbor if node == src else first_hop
                    hop_link = link_id if node == src else first_link
                    known = dist.get(neighbor)
                    if known is None or (nd, hop) < (known[0], known[1]):
                        dist[neighbor] = (nd, hop, hop_link)
                        heapq.heappush(heap, (nd, neighbor, hop, hop_link))
            table[src] = dist
        self._intra[asn] = table
        return table

    def igp_distance(self, src_router: int, dst_router: int) -> Optional[float]:
        asn = self.internet.routers[src_router].asn
        if self.internet.routers[dst_router].asn != asn:
            raise RoutingError("igp distance across ASes")
        entry = self._intra_table(asn).get(src_router, {}).get(dst_router)
        return entry[0] if entry is not None else None

    def _intra_step(self, router_id: int, target_router: int) -> Optional[Step]:
        """One hop along the intra-AS shortest path toward target_router."""
        asn = self.internet.routers[router_id].asn
        entry = self._intra_table(asn).get(router_id, {}).get(target_router)
        if entry is None:
            return None
        _, next_router, link_id = entry
        link = self.internet.links[link_id]
        return Step(
            StepKind.FORWARD,
            next_router=next_router,
            link_id=link_id,
            out_addr=link.iface_of(router_id).addr,
            in_addr=link.iface_of(next_router).addr,
            crosses_border=False,
        )

    # -- routing classes ---------------------------------------------------------

    def class_key(self, policy: PrefixPolicy) -> ClassKey:
        return (policy.origins, policy.restricted_links)

    def class_routes(self, key: ClassKey) -> _ClassRoutes:
        routes = self._classes.get(key)
        if routes is None:
            routes = _ClassRoutes(
                self.internet.graph,
                key[0],
                key[1],
                self._allowed_first_hop(key[1]),
            )
            self._classes[key] = routes
        return routes

    # -- carrying routes across a rebuild --------------------------------------

    def record_inputs(self) -> None:
        """Record what this oracle's decisions read from the Internet as
        it stands now, so that an oracle rebuilt after a mutation can take
        from this one what still holds (:meth:`take_routes`).  Call it
        while the Internet is as this oracle was built over: before the
        next mutation."""
        internet = self.internet
        self._inputs = _Inputs(
            graph=internet.graph.copy(),
            links={
                link_id: (
                    link.kind,
                    link.igp_cost,
                    tuple((iface.router_id, iface.addr)
                          for iface in link.interfaces),
                )
                for link_id, link in internet.links.items()
            },
            routers={
                asn: tuple(node.router_ids)
                for asn, node in internet.ases.items()
            },
            policies={
                policy.prefix: (
                    policy,
                    policy.origins,
                    dict(policy.host_router),
                    policy.restricted_links,
                )
                for policy in internet.prefix_policies.values()
                if policy.announced
            },
        )

    def take_routes(self, previous: "RoutingOracle") -> None:
        """Take from ``previous`` every route whose inputs are unchanged.

        Nothing is taken unless both oracles route over this Internet,
        both hold a record (:meth:`record_inputs`) and the recorded AS
        graphs are equal.  Then this oracle takes every unrestricted class
        route, which reads the AS graph alone; every intra-AS table of an
        AS whose router set and INTRA links are unchanged; and, when every
        announced policy is unchanged, every (router, prefix) decision of
        an unrestricted class at a router of such an AS whose (AS, next
        AS) border links are unchanged too (a decision to deliver inside
        the AS, or of no route, reads no border link).  Restricted classes
        also read the border links, so neither they nor their decisions
        are taken.  What this oracle already holds is kept."""
        before, now = previous._inputs, self._inputs
        if previous is self or previous.internet is not self.internet \
                or before is None or now is None \
                or not before.graph.same_as(now.graph):
            return
        for key, routes in previous._classes.items():
            if key[1] is None:
                self._classes.setdefault(key, routes)
        dirty_ases, dirty_pairs = now.changes_since(before)
        for asn, table in previous._intra.items():
            if asn not in dirty_ases:
                self._intra.setdefault(asn, table)
        if not now.same_policies(before):
            return
        routers = self.internet.routers
        for prefix, decisions in previous._prefix_memo.items():
            policy = now.policies[prefix][0]
            if policy.restricted_links is not None:
                continue
            routes = self.class_routes(self.class_key(policy))
            held = self._prefix_memo.setdefault(prefix, {})
            for router_id, step in decisions.items():
                asn = routers[router_id].asn
                if asn in dirty_ases:
                    continue
                next_as = routes.next_as(asn)
                if next_as not in (None, asn) \
                        and (asn, next_as) in dirty_pairs:
                    continue
                held.setdefault(router_id, step)

    def lookup_policy(self, dst: int) -> Optional[PrefixPolicy]:
        return self._announced.lookup_value(dst)

    def next_as_of(self, asn: int, dst: int) -> Optional[int]:
        """The next-hop AS from ``asn`` toward ``dst`` (asn itself if it
        originates the covering prefix).  Used for virtual-router source
        selection and by tests."""
        policy = self.lookup_policy(dst)
        if policy is None:
            return None
        return self.class_routes(self.class_key(policy)).next_as(asn)

    # -- egress selection -----------------------------------------------------------

    def _egress(
        self, router_id: int, next_as: int, key: ClassKey
    ) -> Optional[Tuple[int, int]]:
        """Hot-potato egress: (near router, link id) toward next_as."""
        cache_key = (router_id, key)
        if cache_key in self._egress_cache:
            return self._egress_cache[cache_key]
        asn = self.internet.routers[router_id].asn
        origins, restricted = key
        candidates = self._links_between.get((asn, next_as), [])
        if restricted is not None and next_as in origins:
            candidates = [
                (router, link_id)
                for router, link_id in candidates
                if link_id in restricted
            ]
        table = self._intra_table(asn).get(router_id, {})
        options: List[Tuple[float, int, int]] = []
        for near_router, link_id in candidates:
            if near_router == router_id:
                distance = 0.0
            else:
                entry = table.get(near_router)
                if entry is None:
                    continue
                distance = entry[0]
            options.append((distance, near_router, link_id))
        if not options:
            self._egress_cache[cache_key] = None
            return None
        options.sort()
        # Hot potato with realistic tie-breaking: candidates within a small
        # IGP epsilon of the minimum are interchangeable to the IGP, and the
        # BGP tie-break (router id / oldest route) is effectively arbitrary
        # per prefix — model it as a stable per-class hash.  This is what
        # spreads destination prefixes across parallel links at one PoP
        # (and why Level3-style peers need many VPs to map, §6).
        minimum = options[0][0]
        near_equal = sorted(
            (opt for opt in options if opt[0] <= minimum + 0.25),
            key=lambda opt: (opt[1], opt[2]),
        )
        # The fingerprint is class-wide (not router-dependent) so adjacent
        # routers agree and packets cannot oscillate between tied egresses;
        # it must also be process-independent (unlike hash()) so runs are
        # reproducible.
        index = _class_fingerprint(key) % len(near_equal)
        chosen = near_equal[index]
        result = (chosen[1], chosen[2])
        self._egress_cache[cache_key] = result
        return result

    def _cross_link(self, router_id: int, link_id: int, to_asn: Optional[int],
                    to_router: Optional[int] = None) -> Optional[Step]:
        """Cross an interdomain or IXP link to the far side."""
        link = self.internet.links[link_id]
        routers = self.internet.routers
        far = None
        for iface in link.interfaces:
            if iface.router_id == router_id:
                continue
            if to_router is not None:
                if iface.router_id == to_router:
                    far = iface
                    break
            elif to_asn is not None and routers[iface.router_id].asn == to_asn:
                if far is None or iface.router_id < far.router_id:
                    far = iface
        if far is None:
            return None
        return Step(
            StepKind.FORWARD,
            next_router=far.router_id,
            link_id=link_id,
            out_addr=link.iface_of(router_id).addr,
            in_addr=far.addr,
            crosses_border=True,
        )

    # -- the main decision -------------------------------------------------------------

    def step(self, router_id: int, dst: int) -> Step:
        """Forwarding decision for a packet at ``router_id`` headed to
        ``dst``.  Memoized: decisions depend only on static topology, so
        repeated walks (every probe after the first toward a block) are
        dict lookups."""
        decided = self._step_memo[dst]
        decision = decided.get(router_id)
        if decision is None:
            decision = decided[router_id] = self._step_uncached(
                router_id, dst
            )
        return decision

    def steps_toward(self, dst: int) -> Dict[int, Step]:
        """The decisions :meth:`step` has memoized toward ``dst`` so far,
        router -> Step.  A walk toward ``dst`` reads each hop here and
        asks :meth:`step` only on a miss."""
        return self._step_memo[dst]

    def _step_uncached(self, router_id: int, dst: int) -> Step:
        internet = self.internet
        router = internet.routers[router_id]

        # 1. Destined to an address on this router.
        iface = internet.addr_to_iface.get(dst)
        if iface is not None and iface.router_id == router_id:
            return _ARRIVE

        # 2. Destined to infrastructure we can route to directly: the owner
        #    router is in our AS, or sits across a link our AS touches.
        if iface is not None:
            owner = internet.routers[iface.router_id]
            if owner.asn == router.asn:
                step = self._intra_step(router_id, owner.router_id)
                if step is not None:
                    return step
            else:
                link = internet.links[iface.link_id]
                near_ids = [
                    i.router_id
                    for i in link.interfaces
                    if internet.routers[i.router_id].asn == router.asn
                ]
                if near_ids:
                    near = min(near_ids)
                    if near == router_id:
                        step = self._cross_link(
                            router_id, link.link_id, None, to_router=owner.router_id
                        )
                        if step is not None:
                            return step
                    else:
                        step = self._intra_step(router_id, near)
                        if step is not None:
                            return step

        # 3. Normal prefix routing.
        return self.prefix_step(router_id, self.lookup_policy(dst))

    def prefix_step(
        self, router_id: int, policy: Optional[PrefixPolicy]
    ) -> Step:
        """The decision at ``router_id`` for every destination covered by
        ``policy``'s prefix (``None``: by no announced prefix) that is not
        infrastructure the router routes to directly: step 3 of
        :meth:`step`, memoized per (router, prefix)."""
        if policy is None:
            return _UNREACHABLE
        decisions = self._prefix_memo.get(policy.prefix)
        if decisions is None:
            decisions = self._prefix_memo[policy.prefix] = {}
        step = decisions.get(router_id)
        if step is None:
            step = decisions[router_id] = self._route_prefix(
                router_id, policy
            )
        return step

    def _route_prefix(self, router_id: int, policy: PrefixPolicy) -> Step:
        """The BGP decision at ``router_id`` for any destination in
        ``policy``'s prefix that is not infrastructure it routes to
        directly."""
        router = self.internet.routers[router_id]
        key = self.class_key(policy)
        routes = self.class_routes(key)
        next_as = routes.next_as(router.asn)
        if next_as is None:
            return _UNREACHABLE
        if next_as == router.asn:
            host_router = policy.host_router.get(router.asn)
            if host_router is None or host_router == router_id:
                return Step(StepKind.HOST, policy=policy)
            step = self._intra_step(router_id, host_router)
            return step if step is not None else _UNREACHABLE
        egress = self._egress(router_id, next_as, key)
        if egress is None:
            return _UNREACHABLE
        near_router, link_id = egress
        if near_router == router_id:
            step = self._cross_link(router_id, link_id, next_as)
            return step if step is not None else _UNREACHABLE
        step = self._intra_step(router_id, near_router)
        return step if step is not None else _UNREACHABLE
