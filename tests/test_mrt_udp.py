"""Tests for the MRT-style RIB serialization and UDP traceroute mode."""

import pytest

from repro import build_scenario, mini
from repro.bgp import BGPView, collect_public_view, dump_rib, parse_rib
from repro.errors import DataError
from repro.net import ProbeKind, ResponseKind
from repro.probing import paris_traceroute


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(mini(seed=2))


@pytest.fixture(scope="module")
def view(scenario):
    return collect_public_view(
        scenario.internet, scenario.network.oracle, focal_asn=scenario.focal_asn
    )


class TestMRT:
    def test_roundtrip_preserves_entries(self, view):
        restored = parse_rib(dump_rib(view))
        assert len(restored.entries) == len(view.entries)
        assert set(restored.prefixes()) == set(view.prefixes())
        original = {(e.peer_asn, e.prefix, e.path) for e in view.entries}
        parsed = {(e.peer_asn, e.prefix, e.path) for e in restored.entries}
        assert parsed == original

    def test_roundtrip_preserves_lpm(self, view):
        restored = parse_rib(dump_rib(view))
        for prefix in view.prefixes()[:20]:
            addr = prefix.addr + 1
            assert restored.origins_of_addr(addr) == view.origins_of_addr(addr)

    def test_format_shape(self, view):
        line = dump_rib(view).splitlines()[0]
        fields = line.split("|")
        assert fields[0] == "TABLE_DUMP2"
        assert fields[2] == "B"
        assert fields[4].isdigit()
        assert "/" in fields[5]
        assert fields[7] == "IGP"

    def test_empty_view(self):
        assert dump_rib(BGPView()) == ""
        assert len(parse_rib("").entries) == 0

    def test_as_set_truncates_path(self):
        text = "TABLE_DUMP2|0|B|192.0.2.1|100|20.0.0.0/16|100 200 {300,400}|IGP\n"
        view = parse_rib(text)
        assert view.entries[0].path == (100, 200)

    def test_comments_skipped(self):
        text = "# header\nTABLE_DUMP2|0|B|192.0.2.1|100|20.0.0.0/16|100 200|IGP\n"
        assert len(parse_rib(text).entries) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "NOT_A_DUMP|0|B|x|1|20.0.0.0/16|1 2|IGP\n",
            "TABLE_DUMP2|0|B|x|abc|20.0.0.0/16|1 2|IGP\n",
            "TABLE_DUMP2|0|B|x|1|garbage|1 2|IGP\n",
            "TABLE_DUMP2|0|B|x|1|20.0.0.0/16|one two|IGP\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataError):
            parse_rib(bad)


class TestUDPTraceroute:
    def _target(self, scenario):
        focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
        return sorted(
            (
                p
                for p in scenario.internet.prefix_policies.values()
                if p.announced
                and not (set(p.origins) & focal_family)
                and p.live_hosts
            ),
            key=lambda p: p.prefix,
        )

    def test_udp_mode_walks_same_routers(self, scenario):
        policies = self._target(scenario)
        if not policies:
            pytest.skip("no live targets")
        dst = min(policies[0].live_hosts)
        icmp = paris_traceroute(scenario.network, scenario.vps[0].addr, dst)
        udp = paris_traceroute(
            scenario.network, scenario.vps[0].addr, dst, kind=ProbeKind.UDP
        )
        expired = ResponseKind.TTL_EXPIRED
        icmp_hops = [a for a, k in zip(icmp.addrs, icmp.kinds) if k is expired]
        udp_hops = [a for a, k in zip(udp.addrs, udp.kinds) if k is expired]
        # Same flow identifier → same forwarding decisions; UDP responders
        # may differ per policy, but the responding subsequence must agree.
        common = set(icmp_hops) & set(udp_hops)
        assert common

    def test_udp_mode_completes_with_port_unreach(self, scenario):
        for policy in self._target(scenario):
            origin = policy.origins[0]
            routers = scenario.internet.routers_of(origin)
            if any(r.policy.firewall or not r.policy.responds_udp for r in routers):
                continue
            dst = min(policy.live_hosts)
            trace = paris_traceroute(
                scenario.network, scenario.vps[0].addr, dst, kind=ProbeKind.UDP
            )
            if trace.stop_reason != "completed":
                continue
            # A completed trace ends on the reply that completed it.
            assert trace.kinds[-1] is ResponseKind.DEST_UNREACH_PORT
            return
        pytest.skip("no clean UDP path found")
