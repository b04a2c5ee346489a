"""Tests for the public BGP view substrate and the §5.2 input datasets."""

import pytest

from repro.addr import Prefix, aton
from repro.bgp import BGPView, RibEntry, collect_public_view
from repro.datasets import (
    IXPDataset,
    generate_as2org,
    generate_ixp_data,
    generate_rir_files,
    parse_as2org,
    parse_ixp_files,
    parse_rir_file,
)
from repro.datasets.rir import opaque_id_for_org
from repro.errors import DataError
from repro.topology import build_scenario, mini


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(mini(seed=2))


@pytest.fixture(scope="module")
def view(scenario):
    return collect_public_view(
        scenario.internet, scenario.network.oracle, focal_asn=scenario.focal_asn
    )


class TestBGPView:
    def test_plen_filter(self):
        view = BGPView()
        view.add(RibEntry(1, Prefix.parse("2.0.0.0/7"), (1, 2)))   # too big
        view.add(RibEntry(1, Prefix.parse("1.0.0.0/25"), (1, 2)))  # too small
        view.add(RibEntry(1, Prefix.parse("1.0.0.0/24"), (1, 2)))
        assert view.prefixes() == [Prefix.parse("1.0.0.0/24")]

    def test_origins_of_addr_lpm(self):
        view = BGPView()
        view.add(RibEntry(1, Prefix.parse("10.0.0.0/8"), (1, 100)))
        view.add(RibEntry(1, Prefix.parse("10.1.0.0/16"), (1, 200)))
        assert view.origins_of_addr(aton("10.1.2.3")) == (200,)
        assert view.origins_of_addr(aton("10.2.0.1")) == (100,)
        assert view.origins_of_addr(aton("11.0.0.1")) == ()

    def test_add_forgets_memoized_origins(self):
        """origins_of_addr memoizes per address; a more-specific added
        afterwards must win the next lookup."""
        view = BGPView()
        view.add(RibEntry(1, Prefix.parse("10.0.0.0/8"), (1, 100)))
        addr = aton("10.1.2.3")
        assert view.origins_of_addr(addr) == (100,)
        assert view.origins_of_addr(addr) == (100,)
        view.add(RibEntry(1, Prefix.parse("10.1.0.0/16"), (1, 200)))
        assert view.origins_of_addr(addr) == (200,)
        assert view.lookup(addr) == (Prefix.parse("10.1.0.0/16"), (200,))

    def test_moas_collects_all_origins(self):
        view = BGPView()
        view.add(RibEntry(1, Prefix.parse("10.0.0.0/16"), (1, 100)))
        view.add(RibEntry(2, Prefix.parse("10.0.0.0/16"), (2, 200)))
        assert view.origins_of_addr(aton("10.0.0.1")) == (100, 200)

    def test_neighbor_map(self):
        view = BGPView()
        view.add(RibEntry(1, Prefix.parse("10.0.0.0/16"), (1, 2, 3)))
        assert view.neighbors_of(2) == {1, 3}
        assert view.neighbors_of_group({2, 3}) == {1}


class TestCollectors:
    def test_view_covers_most_announced_prefixes(self, scenario, view):
        announced = {
            p.prefix
            for p in scenario.internet.prefix_policies.values()
            if p.announced and 8 <= p.prefix.plen <= 24
        }
        seen = set(view.prefixes())
        assert len(seen & announced) >= len(announced) * 0.9

    def test_origins_match_truth(self, scenario, view):
        for prefix in view.prefixes()[:50]:
            truth = scenario.internet.prefix_policies.get(prefix)
            if truth is None:
                continue
            assert set(view.origins(prefix)) <= set(truth.origins)

    def test_paths_end_at_origin(self, scenario, view):
        for entry in view.entries[:200]:
            assert entry.path[-1] in scenario.internet.prefix_policies[
                entry.prefix
            ].origins

    def test_paths_loop_free(self, view):
        for entry in view.entries:
            assert len(entry.path) == len(set(entry.path))

    def test_focal_not_a_collector_peer(self, scenario, view):
        """The VP network itself never peers with the collectors (bdrmap
        must not depend on a co-located BGP view — unlike Mao's AS
        traceroute, §3)."""
        assert all(entry.peer_asn != scenario.focal_asn for entry in view.entries)

    def test_view_is_partial(self, scenario, view):
        """The public view must not contain every AS adjacency that exists
        (otherwise the 'hidden peer' heuristics would be untestable)."""
        truth_edges = {
            frozenset((a, b)) for a, b, _ in scenario.internet.graph.edges()
        }
        seen_edges = set()
        for entry in view.entries:
            for left, right in zip(entry.path, entry.path[1:]):
                seen_edges.add(frozenset((left, right)))
        assert seen_edges < truth_edges


class TestRIRDataset:
    def test_roundtrip(self, scenario):
        text = generate_rir_files(scenario.internet)
        parsed = parse_rir_file(text)
        assert len(parsed) == len(scenario.internet.rir_delegations)
        org_id, prefix = scenario.internet.rir_delegations[0]
        assert parsed.opaque_id_of(prefix.addr) == opaque_id_for_org(org_id)

    def test_same_org_query(self, scenario):
        text = generate_rir_files(scenario.internet)
        parsed = parse_rir_file(text)
        by_org = {}
        for org_id, prefix in scenario.internet.rir_delegations:
            by_org.setdefault(org_id, []).append(prefix)
        org, prefixes = next(
            (o, ps) for o, ps in by_org.items() if len(ps) >= 2
        )
        assert parsed.same_org(prefixes[0].addr, prefixes[1].addr)

    def test_parse_rejects_bad_count(self):
        with pytest.raises(DataError):
            parse_rir_file("arin|ZZ|ipv4|1.0.0.0|33|20160101|allocated|x\n")

    def test_parse_skips_headers_and_comments(self):
        text = "# comment\n2|combined|1\narin|ZZ|ipv4|1.0.0.0|256|20160101|allocated|x\n"
        assert len(parse_rir_file(text)) == 1

    def test_parse_skips_non_ipv4(self):
        text = "arin|ZZ|ipv6|2001:db8::|32|20160101|allocated|x\n"
        assert len(parse_rir_file(text)) == 0


class TestIXPDataset:
    def test_union_of_sources(self, scenario):
        pdb, pch = generate_ixp_data(scenario.internet, complete=True)
        data = parse_ixp_files(pdb, pch)
        truth_fabrics = {i.fabric for i in scenario.internet.ixps.values()}
        assert set(data.prefixes) == truth_fabrics

    def test_is_ixp_addr(self, scenario):
        pdb, pch = generate_ixp_data(scenario.internet, complete=True)
        data = parse_ixp_files(pdb, pch)
        ixp = next(iter(scenario.internet.ixps.values()))
        assert data.is_ixp_addr(ixp.fabric.addr + 1)
        assert not data.is_ixp_addr(aton("9.9.9.9"))

    def test_member_asn_recorded(self, scenario):
        pdb, pch = generate_ixp_data(scenario.internet, complete=True)
        data = parse_ixp_files(pdb, pch)
        ixp = next(iter(scenario.internet.ixps.values()))
        if not ixp.members:
            pytest.skip("empty IXP")
        asn, addr = next(iter(ixp.members.items()))
        assert data.member_asn(addr) == asn

    def test_incomplete_mode_withholds_records(self, scenario):
        pdb_full, pch_full = generate_ixp_data(scenario.internet, complete=True)
        pdb, pch = generate_ixp_data(scenario.internet, complete=False)
        full = parse_ixp_files(pdb_full, pch_full)
        partial = parse_ixp_files(pdb, pch)
        assert len(partial.addr_to_asn) <= len(full.addr_to_asn)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_ixp_files("bad-row-without-pipe\n", "")

    def test_lookups_leave_the_dataset_sealed(self):
        """The LPM behind is_ixp_addr is not part of the dataset's value:
        a lookup changes neither equality nor repr, and the prefixes it
        reads cannot change under it."""
        fabric = Prefix.parse("50.0.0.0/24")
        used = IXPDataset(prefixes=[fabric], addr_to_asn={fabric.addr + 1: 7})
        fresh = IXPDataset(prefixes=[fabric], addr_to_asn={fabric.addr + 1: 7})
        assert used.is_ixp_addr(fabric.addr + 9)
        assert not used.is_ixp_addr(aton("60.0.0.1"))
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "lpm" not in repr(used) and "trie" not in repr(used)
        assert used.prefixes == (fabric,)
        with pytest.raises(AttributeError):
            used.prefixes.append(Prefix.parse("60.0.0.0/24"))
        assert not used.is_ixp_addr(aton("60.0.0.1"))


class TestSiblingDataset:
    def test_roundtrip_complete(self, scenario):
        text = generate_as2org(scenario.internet, complete=True)
        parsed = parse_as2org(text)
        for org_id, org in scenario.internet.orgs.items():
            for asn in org.asns:
                assert parsed.siblings_of(asn) == frozenset(org.asns)

    def test_incomplete_mode_breaks_some_groups(self, scenario):
        multi = [o for o in scenario.internet.orgs.values() if len(o.asns) > 1]
        if not multi:
            pytest.skip("no multi-AS orgs in this seed")
        text = generate_as2org(scenario.internet, complete=False)
        parsed = parse_as2org(text)
        # At least parses; staleness is probabilistic so only check sanity.
        for org in multi:
            assert all(asn in parsed.org_of for asn in org.asns)

    def test_unknown_asn_is_own_sibling(self):
        parsed = parse_as2org("1|org-a|A\n")
        assert parsed.siblings_of(999) == frozenset({999})

    def test_are_siblings(self):
        parsed = parse_as2org("1|org-a|A\n2|org-a|A\n3|org-b|B\n")
        assert parsed.are_siblings(1, 2)
        assert not parsed.are_siblings(1, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_as2org("notanumber|org\n")
