"""Unit tests for the §5.4 heuristics, each reconstructing the exact
topological situation of the paper's figures 4-11 (plus the Fig 12
limitation) from hand-written traces."""


import pytest

from repro.addr import Prefix, aton
from repro.core.heuristics import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    HeuristicConfig,
    build_passes,
)
from repro.datasets.ixp import IXPDataset
from repro.datasets.rir import DelegationRecord, RIRDelegations
from repro.probing.prefixscan import PrefixscanResult

from tests.helpers import CaseBuilder

X = 100   # the VP network
A = 200
B = 300
C = 400
D = 500


def without(*names: str) -> HeuristicConfig:
    """Every default pass except ``names``: the one ablation knob."""
    return HeuristicConfig(
        passes=tuple(p for p in DEFAULT_PASS_ORDER if p not in names)
    )


def base_case() -> CaseBuilder:
    case = CaseBuilder(focal=X)
    case.announce("10.0.0.0/8", X)
    case.announce("20.0.0.0/8", A)
    case.announce("30.0.0.0/8", B)
    case.announce("40.0.0.0/8", C)
    return case


class TestStep1VPRouters:
    def test_vp_addresses_with_vp_successors(self):
        """Fig 4 step 1.2: X-addressed router followed by more X addresses
        belongs to X."""
        case = base_case().c2p(A, X)
        case.trace(A, "20.0.0.1",
                   ["10.0.0.1", "10.0.1.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.0.1") == X
        assert case.reason_of(graph, "10.0.0.1") == "vp"
        assert case.owner_of(graph, "10.0.1.1") == X

    def test_far_side_with_vp_address_is_neighbor(self):
        """The corollary: a VP-addressed router with no VP successors is
        the neighbor's border (X supplied the interconnect subnet)."""
        case = base_case().c2p(A, X)
        case.trace(A, "20.0.0.1",
                   ["10.0.0.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.2.1") == A
        assert case.reason_of(graph, "10.0.2.1") == "5 relationship"

    def test_multihomed_exception(self):
        """Fig 4 step 1.1: neighbor multihomed via adjacent routers — both
        X-addressed routers belong to A."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", "20.0.0.9"])
        case.trace(A, "20.0.1.1", ["10.0.0.1", "20.0.0.5"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.0.1") == A
        assert case.reason_of(graph, "10.0.0.1") == "1 multihomed"
        assert case.owner_of(graph, "10.0.1.1") == A

    def test_multihomed_guard(self):
        """Step 1.1's guard: a downstream customer of X that is not a
        neighbor of A keeps the router with X."""
        case = base_case().c2p(D, X)
        case.announce("50.0.0.0/8", D)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", "20.0.0.9"])
        case.trace(A, "20.0.1.1", ["10.0.0.1", "20.0.0.5"])
        case.trace(D, "50.0.0.1", ["10.0.0.1", "10.0.1.1", "50.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.0.1") == X
        assert case.reason_of(graph, "10.0.0.1") == "vp"


class TestStep2Firewall:
    def test_last_router_single_dst_as(self):
        """Fig 5: the last X-addressed router on paths to A, with nothing
        beyond, is A's firewalled edge router."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.1.1") == A
        assert case.reason_of(graph, "10.0.1.1") == "2 firewall"
        assert any(l.neighbor_as == A for l in links)

    def test_sibling_destinations_count_as_one(self):
        case = base_case().siblings(A, 201)
        case.announce("21.0.0.0/8", 201)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(201, "21.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.1.1") in (A, 201)
        assert case.reason_of(graph, "10.0.1.1") == "2 firewall"

    def test_multiple_dst_ases_uses_nextas(self):
        """A last-hop router toward many ASes that share a provider is that
        provider's router (the nextas fallback)."""
        case = base_case().c2p(A, D).c2p(B, D).c2p(C, D)
        case.announce("50.0.0.0/8", D)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(B, "30.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(C, "40.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.1.1") == D


class TestStep3Unrouted:
    def test_single_subsequent_as(self):
        """Fig 6 step 3.1: unrouted router followed by one routed AS."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.0.0.1", "99.0.0.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "99.0.0.1") == A
        assert case.reason_of(graph, "99.0.0.1") == "3 unrouted"

    def test_multiple_subsequent_ases_pick_common_provider(self):
        """Fig 6 step 3.2: several routed ASes beyond → their most frequent
        provider."""
        case = base_case().c2p(A, C).c2p(B, C)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "99.0.0.1", "20.0.0.9"])
        case.trace(B, "30.0.0.1", ["10.0.0.1", "99.0.0.1", "30.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "99.0.0.1") == C

    def test_nothing_beyond_uses_nextas(self):
        case = base_case().c2p(A, C).c2p(B, C)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "99.0.0.1", None, None])
        case.trace(B, "30.0.0.1", ["10.0.0.1", "99.0.0.1", None, None])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "99.0.0.1") == C


class TestStep4Onenet:
    def test_two_consecutive_hops_same_as(self):
        """Fig 7 / step 4.1: router mapping to A with an A successor is
        A's (the address is not third-party)."""
        case = base_case()
        case.trace(A, "20.0.5.1", ["10.0.0.1", "20.0.0.1", "20.0.1.1"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "20.0.0.1") == A
        assert case.reason_of(graph, "20.0.0.1") == "4 onenet"

    def test_vp_router_before_two_consecutive(self):
        """Step 4.2: X-addressed border followed by two consecutive A
        routers belongs to A."""
        case = base_case()
        case.trace(A, "20.0.5.1",
                   ["10.0.0.1", "10.0.5.1", "20.0.0.1", "20.0.1.1"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.5.1") == A
        assert case.reason_of(graph, "10.0.5.1") == "4 onenet"

    def test_single_external_hop_not_onenet(self):
        case = base_case()
        case.trace(A, "20.0.5.1", ["10.0.0.1", "20.0.0.1", None, None])
        graph, links, _ = case.run()
        assert case.reason_of(graph, "20.0.0.1") != "4 onenet"


class TestStep5ThirdParty:
    def _third_party_case(self):
        """Fig 8: R3 answers with C's address on paths toward B; C is B's
        provider."""
        case = base_case().c2p(B, C)
        case.trace(B, "30.0.0.1", ["10.0.0.1", "10.0.3.1", "40.0.0.2"])
        return case

    def test_third_party_detected(self):
        case = self._third_party_case()
        graph, links, _ = case.run()
        assert case.owner_of(graph, "40.0.0.2") == B
        assert case.reason_of(graph, "40.0.0.2") == "5 thirdparty"
        assert case.owner_of(graph, "10.0.3.1") == B

    def test_ablation_disables_third_party(self):
        case = self._third_party_case()
        graph, links, _ = case.run(without("third_party"))
        # Without the detection, the IP-AS mapping wins and blames C.
        assert case.owner_of(graph, "40.0.0.2") == C

    def test_not_third_party_when_no_provider_relation(self):
        """Same shape but C is unrelated to B: the mapping stands."""
        case = base_case()
        case.trace(B, "30.0.0.1", ["10.0.0.1", "10.0.3.1", "40.0.0.2"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "40.0.0.2") == C


class TestStep5Relationships:
    def test_known_customer(self):
        case = base_case().c2p(A, X)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.2.1") == A
        assert case.reason_of(graph, "10.0.2.1") == "5 relationship"

    def test_known_peer(self):
        case = base_case().p2p(X, A)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.2.1") == A
        assert case.reason_of(graph, "10.0.2.1") == "5 relationship"

    def test_missing_customer(self):
        """Step 5.4: adjacent AS A is a customer of B, which is a customer
        of X — the border is with B."""
        case = base_case().c2p(A, B).c2p(B, X)
        case.trace(A, "20.0.9.9", ["10.0.0.1", "10.0.4.1", "20.0.0.1"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.4.1") == B
        assert case.reason_of(graph, "10.0.4.1") == "5 missing customer"

    def test_hidden_peer(self):
        """Step 5.5: adjacent AS with no inferred relationship — a peering
        link invisible in public BGP."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.2.1") == A
        assert case.reason_of(graph, "10.0.2.1") == "5 hidden peer"

    def test_ablation_disables_relationships(self):
        case = base_case().c2p(A, X)
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.2.1", "20.0.0.9"])
        graph, links, _ = case.run(without("relationship"))
        assert case.reason_of(graph, "10.0.2.1") != "5 relationship"


class TestStep6Ambiguous:
    def test_count_winner(self):
        """Fig 9: the AS with the most adjacent addresses wins."""
        case = base_case()
        case.trace(A, "20.0.0.5", ["10.0.0.1", "10.0.6.1", "20.0.0.1"])
        case.trace(A, "20.1.0.5", ["10.0.0.1", "10.0.6.1", "20.0.1.1"])
        case.trace(B, "30.0.0.5", ["10.0.0.1", "10.0.6.1", "30.0.0.1"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.6.1") == A
        assert case.reason_of(graph, "10.0.6.1") == "6 count"

    def test_count_tie_prefers_known_relationship(self):
        case = base_case().p2p(X, B)
        case.trace(A, "20.0.0.5", ["10.0.0.1", "10.0.6.1", "20.0.0.1"])
        case.trace(B, "30.0.0.5", ["10.0.0.1", "10.0.6.1", "30.0.0.1"])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "10.0.6.1") == B

    def test_plain_ipas_fallback(self):
        """Step 6.2: an externally-addressed router on paths to several
        ASes falls back to its own IP-AS mapping."""
        case = base_case()
        case.trace(A, "20.0.9.1", ["10.0.0.1", "40.0.0.7", None, None])
        case.trace(B, "30.0.9.1", ["10.0.0.1", "40.0.0.7", None, None])
        graph, links, _ = case.run()
        assert case.owner_of(graph, "40.0.0.7") == C
        assert case.reason_of(graph, "40.0.0.7") == "6 ipas"


class TestStep7AnalyticalAliases:
    def _fig10_case(self):
        """Fig 10: two single-interface X routers, each the near end of a
        /31 to the same neighbor router (whose far addresses are aliases)."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.1.0.1", "10.9.0.0", "10.9.0.1"])
        case.trace(A, "20.0.1.1", ["10.1.0.1", "10.9.2.0", "10.9.2.1"])
        case.alias("10.9.0.1", "10.9.2.1")
        return case

    def test_near_side_merged(self):
        case = self._fig10_case()
        graph, links, _ = case.run()
        near_a = graph.router_of_addr(aton("10.9.0.0"))
        near_b = graph.router_of_addr(aton("10.9.2.0"))
        assert near_a is near_b
        assert near_a.reason == "7 alias"
        far_links = [l for l in links if l.neighbor_as == A]
        assert len(far_links) == 1

    @pytest.mark.parametrize("confirmed", [True, False])
    def test_prefixscan_confirms_attachment(self, confirmed):
        """Near ends that are not /31 or /30 mates of the neighbor's
        addresses merge only when a prefixscan confirmed their subnet."""
        case = base_case()
        case.trace(A, "20.0.0.1", ["10.1.0.1", "10.9.0.9", "10.9.0.1"])
        case.trace(A, "20.0.1.1", ["10.1.0.1", "10.9.2.9", "10.9.2.1"])
        case.alias("10.9.0.1", "10.9.2.1")
        for prev, nxt in (("10.9.0.9", "10.9.0.1"), ("10.9.2.9", "10.9.2.1")):
            case.collection.prefixscans[(aton(prev), aton(nxt))] = (
                PrefixscanResult(prev=aton(prev), addr=aton(nxt),
                                 subnet_plen=31 if confirmed else None,
                                 mate=aton(prev) if confirmed else None))
        graph, _, _ = case.run()
        near_a = graph.router_of_addr(aton("10.9.0.9"))
        near_b = graph.router_of_addr(aton("10.9.2.9"))
        assert (near_a is near_b) is confirmed

    def test_negative_evidence_blocks_merge(self):
        case = self._fig10_case()
        case.not_alias("10.9.0.0", "10.9.2.0")
        graph, links, _ = case.run()
        near_a = graph.router_of_addr(aton("10.9.0.0"))
        near_b = graph.router_of_addr(aton("10.9.2.0"))
        assert near_a is not near_b

    def test_ablation_disables_merge(self):
        case = self._fig10_case()
        graph, links, _ = case.run(without("alias_collapse"))
        near_a = graph.router_of_addr(aton("10.9.0.0"))
        near_b = graph.router_of_addr(aton("10.9.2.0"))
        assert near_a is not near_b


class TestStep8SilentNeighbors:
    def _silent_case(self):
        case = base_case()
        # The BGP view knows X-A adjacency (A is X's customer in BGP paths).
        case.announce("20.0.0.0/8", A, path=(9999, X, A))
        # Traces toward A die at X's border router R2 (which other traces
        # prove belongs to X).
        case.trace(B, "30.0.0.1",
                   ["10.0.0.1", "10.0.1.1", "10.0.9.1", "30.0.0.9"])
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(A, "20.0.1.1", ["10.0.0.1", "10.0.1.1", None, None])
        return case

    def test_silent_neighbor_link(self):
        """Fig 11 step 8.1: all traces toward A end at the same X router;
        A connects there."""
        case = self._silent_case()
        graph, links, _ = case.run()
        silent = [l for l in links if l.neighbor_as == A]
        assert len(silent) == 1
        assert silent[0].reason == "8 silent"
        assert silent[0].far_rid is None
        near = graph.routers[silent[0].near_rid]
        assert aton("10.0.1.1") in near.addrs

    def test_other_icmp_variant(self):
        """Step 8.2: same, but A answers with an echo reply mapping to A."""
        case = base_case()
        case.announce("20.0.0.0/8", A, path=(9999, X, A))
        case.trace(B, "30.0.0.1",
                   ["10.0.0.1", "10.0.1.1", "10.0.9.1", "30.0.0.9"])
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None],
                   final=("20.0.0.1", "echo-reply"))
        graph, links, _ = case.run()
        found = [l for l in links if l.neighbor_as == A]
        assert len(found) == 1
        assert found[0].reason == "8 other icmp"

    def test_no_link_when_final_router_varies(self):
        case = base_case()
        case.announce("20.0.0.0/8", A, path=(9999, X, A))
        case.trace(B, "30.0.0.1",
                   ["10.0.0.1", "10.0.1.1", "10.0.9.1", "30.0.0.9"])
        case.trace(B, "30.0.1.1",
                   ["10.0.0.1", "10.0.2.1", "10.0.9.1", "30.0.0.9"])
        case.trace(A, "20.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(A, "20.0.1.1", ["10.0.0.1", "10.0.2.1", None, None])
        graph, links, _ = case.run()
        assert not [l for l in links if l.neighbor_as == A]

    def test_ablation_disables_step8(self):
        case = self._silent_case()
        graph, links, _ = case.run(without("silent_neighbor"))
        assert not [l for l in links if l.neighbor_as == A]

    def test_skipped_when_links_already_inferred(self):
        case = self._silent_case()
        # Another trace reveals a real border with A.
        case.trace(A, "20.0.2.1", ["10.0.0.1", "10.0.3.1", "20.0.0.9"])
        graph, links, _ = case.run()
        reasons = {l.reason for l in links if l.neighbor_as == A}
        assert "8 silent" not in reasons


class TestRIRExtension:
    def test_unrouted_space_before_vp_hop_becomes_vp(self):
        """§5.4.1: unannounced space followed by VP-originated space in a
        trace is attributed to the VP network via RIR delegations."""
        rir = RIRDelegations([
            DelegationRecord("arin", Prefix.parse("99.0.0.0/24"), "vp-org"),
        ])
        case = base_case()
        case.trace(A, "20.0.0.1",
                   ["10.0.0.1", "99.0.0.5", "10.0.2.1", "20.0.0.9"])
        graph, links, engine = case.run(rir=rir)
        assert engine.addr_class[aton("99.0.0.5")] == "vp"
        assert case.owner_of(graph, "99.0.0.5") == X

    def test_without_rir_treated_as_unrouted(self):
        case = base_case()
        case.trace(A, "20.0.0.1",
                   ["10.0.0.1", "99.0.0.5", "10.0.2.1", "20.0.0.9"])
        graph, links, engine = case.run()
        assert engine.addr_class[aton("99.0.0.5")] == "unrouted"


class TestIXPHandling:
    def test_fabric_address_owner_from_subsequent(self):
        """§4 challenge 6: fabric addresses are classified via the IXP list
        and owned by the member whose space follows."""
        ixp = IXPDataset(prefixes=[Prefix.parse("50.0.0.0/24")])
        case = base_case()
        case.trace(A, "20.0.5.1",
                   ["10.0.0.1", "50.0.0.7", "20.0.0.1", "20.0.1.1"])
        graph, links, engine = case.run(ixp_data=ixp)
        assert engine.addr_class[aton("50.0.0.7")] == "ixp"
        assert case.owner_of(graph, "50.0.0.7") == A
        assert case.reason_of(graph, "50.0.0.7") == "ixp"
        ixp_links = [l for l in links if l.neighbor_as == A and l.via_ixp]
        assert ixp_links

    def test_without_ixp_list_fabric_misattributed(self):
        """Without the IXP list the fabric prefix's BGP origin wins —
        the exact confusion the dataset exists to prevent."""
        case = base_case()
        case.announce("50.0.0.0/24", C)  # a member inadvertently announces
        case.trace(A, "20.0.5.1",
                   ["10.0.0.1", "50.0.0.7", "20.0.0.1", "20.0.1.1"])
        graph, links, engine = case.run()
        assert engine.addr_class[aton("50.0.0.7")] == "ext"


class TestFig12Limitation:
    def test_pa_space_shifts_border_one_hop(self):
        """Fig 12: a customer numbering internal routers from provider
        space makes bdrmap place the border one hop too deep — the
        documented limitation, reproduced."""
        case = base_case()
        case.trace(A, "20.0.0.1",
                   ["10.0.0.1", "10.0.7.1", "10.0.8.1", "20.0.0.9"])
        graph, links, _ = case.run()
        # The first A router (10.0.7.1, truly A's) is kept by X because a
        # further X-mapped address follows it...
        assert case.owner_of(graph, "10.0.7.1") == X
        # ...and the border is inferred at the next router instead.
        assert case.owner_of(graph, "10.0.8.1") == A


class TestPassSelection:
    """``HeuristicConfig.passes`` is the one ablation knob: a pass it
    omits never runs, and a name it does not know is an error."""

    @staticmethod
    def _every_pass_case() -> CaseBuilder:
        case = base_case().c2p(B, C)
        case.announce("50.0.0.0/8", D, path=(9999, X, D))
        # Fig 10: two /31 near ends facing one router of A (step 7).
        case.trace(A, "20.0.0.1", ["10.1.0.1", "10.9.0.0", "10.9.0.1"])
        case.trace(A, "20.0.1.1", ["10.1.0.1", "10.9.2.0", "10.9.2.1"])
        case.alias("10.9.0.1", "10.9.2.1")
        # Fig 8: a third-party responder on the way to B.
        case.trace(B, "30.0.0.1", ["10.0.0.1", "10.0.3.1", "40.0.0.2"])
        case.trace(B, "30.0.1.1",
                   ["10.0.0.1", "10.0.1.1", "10.0.9.1", "30.0.0.9"])
        # Fig 11: traces toward D die at X's router 10.0.1.1 (step 8).
        case.trace(D, "50.0.0.1", ["10.0.0.1", "10.0.1.1", None, None])
        case.trace(D, "50.0.1.1", ["10.0.0.1", "10.0.1.1", None, None])
        # An X router no router-level pass decides: consulted by all.
        case.trace(X, "10.5.0.1", ["10.0.0.1", "10.5.5.5"])
        return case

    @staticmethod
    def _mentioned(ctx):
        return set(ctx.pass_counts) | {
            record.pass_name for record in ctx.provenance.records
        }

    @pytest.mark.parametrize("omitted", DEFAULT_PASS_ORDER)
    def test_omitted_pass_never_runs(self, omitted):
        _, _, full = self._every_pass_case().run()
        assert omitted in self._mentioned(full)
        _, _, ablated = self._every_pass_case().run(without(omitted))
        assert omitted not in self._mentioned(ablated)
        assert omitted not in ablated.degradations

    def test_unknown_pass_name_raises(self):
        config = HeuristicConfig(passes=("vp_router", "no_such_pass"))
        with pytest.raises(ValueError) as excinfo:
            build_passes(config)
        message = str(excinfo.value)
        assert "no_such_pass" in message
        for name in PASS_REGISTRY:
            assert name in message
