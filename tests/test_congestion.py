"""Tests for the congestion model and the TSLP monitor/detector."""

import pytest

from repro import build_scenario, build_data_bundle, mini, run_bdrmap
from repro.congestion import (
    TSLPMonitor,
    detect_congestion,
    probe_targets_from_result,
)
from repro.congestion.detect import CongestionVerdict, _quantile
from repro.congestion.tslp import LinkSeries, ProbeTarget
from repro.net import ResponseKind
from repro.net.congestion import DAY, CongestionProfile, CongestionSchedule
from repro.topology.model import LinkKind


class TestCongestionProfile:
    def test_quiet_period_base_only(self):
        profile = CongestionProfile(base_ms=0.2, peak_ms=30.0)
        assert profile.delay_ms(3 * 3600) == pytest.approx(0.2)

    def test_busy_period_elevated(self):
        profile = CongestionProfile(base_ms=0.2, peak_ms=30.0)
        midpoint = (profile.busy_start + profile.busy_end) / 2
        assert profile.delay_ms(midpoint) > 25.0

    def test_diurnal_repetition(self):
        profile = CongestionProfile()
        t = 20 * 3600.0
        assert profile.delay_ms(t) == pytest.approx(profile.delay_ms(t + DAY))

    def test_ramp_shape(self):
        profile = CongestionProfile()
        start = profile.busy_start + 600
        mid = (profile.busy_start + profile.busy_end) / 2
        assert profile.delay_ms(start) < profile.delay_ms(mid)


class TestCongestionSchedule:
    def test_uncongested_default(self):
        schedule = CongestionSchedule()
        assert schedule.delay_ms(1, 20 * 3600) == 0.0

    def test_congest_and_clear(self):
        schedule = CongestionSchedule()
        schedule.congest(5)
        assert schedule.delay_ms(5, 20 * 3600) > 1.0
        schedule.clear(5)
        assert schedule.delay_ms(5, 20 * 3600) == 0.0

    def test_congested_links_listed(self):
        schedule = CongestionSchedule()
        schedule.congest(9)
        schedule.congest(3)
        assert schedule.congested_links() == [3, 9]


class TestRTTIntegration:
    def test_congestion_raises_far_side_rtt(self):
        """Probing across a congested link during the busy window must show
        elevated RTT vs the quiet window."""
        scenario = build_scenario(mini(seed=1))
        vp = scenario.vps[0]
        # Any interdomain link on a path from the VP.
        from repro.probing import paris_traceroute

        focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
        target_addr = None
        link_id = None
        for policy in sorted(
            scenario.internet.prefix_policies.values(), key=lambda p: p.prefix
        ):
            if not policy.announced or set(policy.origins) & focal_family:
                continue
            trace = paris_traceroute(scenario.network, vp.addr,
                                     policy.prefix.addr + 1)
            for addr, kind in zip(trace.addrs, trace.kinds):
                if addr is None or kind is not ResponseKind.TTL_EXPIRED:
                    continue
                iface = scenario.internet.addr_to_iface.get(addr)
                if iface is None:
                    continue
                link = scenario.internet.links[iface.link_id]
                if link.kind is not LinkKind.INTRA:
                    target_addr, link_id = addr, link.link_id
                    break
            if target_addr:
                break
        assert target_addr is not None

        from repro.probing import ping

        # Quiet period.
        scenario.network.now = 3 * 3600.0
        quiet = ping(scenario.network, vp.addr, target_addr)
        scenario.network.congestion.congest(
            link_id, CongestionProfile(peak_ms=50.0)
        )
        scenario.network.now = 19.5 * 3600.0  # busy window
        busy = ping(scenario.network, vp.addr, target_addr)
        assert quiet is not None and busy is not None
        assert busy.rtt > quiet.rtt + 40.0


class TestDetector:
    def _series(self, diffs):
        target = ProbeTarget(1, 2, 100, 1, 2)
        series = LinkSeries(target)
        for index, diff in enumerate(diffs):
            series.samples.append((index * 900.0, 1.0, 1.0 + diff))
        return series

    def test_insufficient_samples(self):
        assessment = detect_congestion(self._series([0.0] * 5))
        assert assessment.verdict is CongestionVerdict.INSUFFICIENT

    def test_clean_flat_series(self):
        assessment = detect_congestion(self._series([0.5] * 50))
        assert assessment.verdict is CongestionVerdict.CLEAN

    def test_diurnal_elevation_detected(self):
        diffs = ([0.5] * 30 + [25.0] * 10) * 2
        assessment = detect_congestion(self._series(diffs))
        assert assessment.verdict is CongestionVerdict.CONGESTED
        assert assessment.peak_elevation_ms > 20.0
        assert 0.1 < assessment.elevated_fraction < 0.5

    def test_single_blip_not_congestion(self):
        diffs = [0.5] * 60 + [30.0] + [0.5] * 30
        assessment = detect_congestion(self._series(diffs))
        assert assessment.verdict is CongestionVerdict.CLEAN

    def test_quantile_helper(self):
        assert _quantile([], 0.5) == 0.0
        assert _quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert _quantile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def study(self):
        scenario = build_scenario(mini(seed=1))
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        targets = probe_targets_from_result(result)
        congested = set()
        for target in targets[:3]:
            iface = scenario.internet.addr_to_iface.get(target.far_addr)
            if iface is None:
                continue
            link = scenario.internet.links[iface.link_id]
            if link.kind is LinkKind.INTRA:
                continue
            scenario.network.congestion.congest(
                link.link_id, CongestionProfile(peak_ms=40.0)
            )
            congested.add((target.near_rid, target.far_rid))
        monitor = TSLPMonitor(
            scenario.network, scenario.vps[0].addr, targets, interval=1800.0
        )
        report = monitor.run(duration=2 * DAY)
        return congested, report

    def test_targets_derivable(self):
        scenario = build_scenario(mini(seed=2))
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        targets = probe_targets_from_result(result)
        assert targets
        for target in targets:
            assert target.near_addr != target.far_addr

    def test_all_congested_links_detected(self, study):
        congested, report = study
        for key in congested:
            series = report.series[key]
            assessment = detect_congestion(series)
            assert assessment.verdict is CongestionVerdict.CONGESTED

    def test_mostly_no_false_alarms(self, study):
        """Clean links must mostly assess clean.  A small number of false
        alarms is the real system's attribution problem (§2): probing a far
        side whose path crosses a congested link elsewhere."""
        congested, report = study
        false_alarms = 0
        clean_total = 0
        for key, series in report.series.items():
            if key in congested:
                continue
            clean_total += 1
            if detect_congestion(series).verdict is CongestionVerdict.CONGESTED:
                false_alarms += 1
        assert clean_total > 0
        assert false_alarms <= clean_total * 0.25

    def test_report_accounting(self, study):
        _, report = study
        assert report.rounds == 96
        assert report.probes_sent > 0


class TestMonitorEdgeCases:
    def test_unresponsive_far_side_gives_insufficient(self):
        """If a border's far side stops answering pings, its series lacks
        two-sided samples and the verdict must be INSUFFICIENT, not a
        false CLEAN/CONGESTED."""
        scenario = build_scenario(mini(seed=4))
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        targets = probe_targets_from_result(result)
        target = targets[0]
        far_router = scenario.internet.router_of_addr(target.far_addr)
        if far_router is None:
            pytest.skip("far side unmapped")
        far_router.policy.responds_echo = False
        monitor = TSLPMonitor(
            scenario.network, scenario.vps[0].addr, [target], interval=1800.0
        )
        report = monitor.run(duration=DAY)
        series = report.series[(target.near_rid, target.far_rid)]
        assert all(far is None for _, _, far in series.samples)
        assessment = detect_congestion(series)
        assert assessment.verdict is CongestionVerdict.INSUFFICIENT

    def test_diff_series_drops_one_sided_rounds(self):
        target = ProbeTarget(1, 2, 100, 1, 2)
        series = LinkSeries(target)
        series.samples = [
            (0.0, 1.0, 2.0),
            (900.0, None, 2.0),
            (1800.0, 1.0, None),
            (2700.0, 1.0, 3.0),
        ]
        diffs = series.diff_series()
        assert len(diffs) == 2
        assert diffs[0][1] == pytest.approx(1.0)
        assert diffs[1][1] == pytest.approx(2.0)

    def test_silent_far_links_not_monitorable(self):
        """§5.4.8 links (far side never revealed an address) must be
        excluded from TSLP targets — the real system's limitation."""
        scenario = build_scenario(mini(seed=4))
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        silent = [l for l in result.links if l.far_rid is None]
        targets = probe_targets_from_result(result)
        target_keys = {(t.near_rid, t.far_rid) for t in targets}
        for link in silent:
            assert (link.near_rid, link.far_rid) not in target_keys
