"""The fault-injection subsystem: determinism, the strict no-op contract,
each fault class, retry/backoff classification, and the channel policy."""

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.core.bdrmap import Bdrmap, BdrmapConfig
from repro.core.collection import CollectionConfig
from repro.errors import (
    ChannelError,
    DataError,
    MeasurementError,
    MeasurementTimeout,
    ReproError,
)
from repro.net import Probe, ProbeKind
from repro.net.faults import (
    CHANNEL_FAULT_PROFILES,
    FAULT_PROFILES,
    ChannelFaultPolicy,
    FaultConfig,
    FaultPlan,
    GilbertElliott,
    _hash01,
    make_channel_faults,
    make_fault_plan,
)
from repro.net.policies import RateLimiter
from repro.probing.retry import (
    CLEAN,
    LOSS,
    SILENCE,
    RetryPolicy,
    RetryStats,
    send_with_retry,
)


def fresh_scenario(seed=3):
    return build_scenario(mini(seed=seed))


def far_targets(scenario, n=120):
    """Real interface addresses spread across the topology — probes to
    them cross several links, so per-link faults can actually bite."""
    addrs = sorted(scenario.internet.addr_to_iface)
    step = max(1, len(addrs) // n)
    return addrs[::step][:n]


def probe_series(scenario, max_ttl=8):
    """Responses to a fixed probe sequence — the determinism fingerprint."""
    vp = scenario.vps[0]
    out = []
    for i, dst in enumerate(far_targets(scenario)):
        response = scenario.network.send(
            Probe(src=vp.addr, dst=dst, ttl=(i % max_ttl) + 1,
                  kind=ProbeKind.ICMP_ECHO, flow_id=i)
        )
        out.append(None if response is None else (response.src, response.kind))
    return out


# ---------------------------------------------------------------- hashing


def test_hash01_is_deterministic_and_bounded():
    values = [_hash01(7, 0xB1AC, router, epoch)
              for router in range(50) for epoch in range(4)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == [_hash01(7, 0xB1AC, router, epoch)
                      for router in range(50) for epoch in range(4)]
    # Different seeds give different streams.
    assert values != [_hash01(8, 0xB1AC, router, epoch)
                      for router in range(50) for epoch in range(4)]


# ---------------------------------------------------------------- no-op contract


def test_default_config_is_noop():
    assert FaultConfig().is_noop()
    assert not FaultConfig(loss_rate=0.01).is_noop()
    assert not FaultConfig(burst=GilbertElliott()).is_noop()
    assert not FaultConfig(flap_rate=0.5).is_noop()


def test_noop_plan_changes_nothing():
    """A zero-rate FaultPlan must not perturb results or draw RNG."""
    clean = fresh_scenario()
    baseline = probe_series(clean)
    faulted = fresh_scenario()
    faulted.network.faults = FaultPlan(FaultConfig(), seed=1)
    assert probe_series(faulted) == baseline
    assert faulted.network.faults.stats.total == 0


def test_full_run_identical_with_noop_plan():
    """End-to-end: attaching a zero-rate plan leaves the inferred links,
    probe counts, and clock byte-identical."""
    from repro.io import result_to_dict

    plain = fresh_scenario()
    result_plain = Bdrmap(
        plain.network, plain.vps[0], build_data_bundle(plain)
    ).run()
    noop = fresh_scenario()
    noop.network.faults = FaultPlan(FaultConfig(), seed=99)
    result_noop = Bdrmap(
        noop.network, noop.vps[0], build_data_bundle(noop)
    ).run()
    assert result_to_dict(result_plain) == result_to_dict(result_noop)
    assert plain.network.now == noop.network.now


# ---------------------------------------------------------------- determinism


def test_same_seed_same_faults():
    """Identical probe sequences against identically-seeded plans see
    identical faults."""
    a = fresh_scenario()
    a.network.faults = FaultPlan(FaultConfig(loss_rate=0.2), seed=5)
    b = fresh_scenario()
    b.network.faults = FaultPlan(FaultConfig(loss_rate=0.2), seed=5)
    assert probe_series(a) == probe_series(b)
    assert a.network.faults.stats.as_dict() == b.network.faults.stats.as_dict()
    assert a.network.faults.stats.link_loss > 0


def test_different_seed_different_faults():
    a = fresh_scenario()
    a.network.faults = FaultPlan(FaultConfig(loss_rate=0.2), seed=5)
    b = fresh_scenario()
    b.network.faults = FaultPlan(FaultConfig(loss_rate=0.2), seed=6)
    assert probe_series(a) != probe_series(b)


# ---------------------------------------------------------------- fault classes


def test_gilbert_elliott_loss_is_bursty():
    """GE loss clusters in time: the variance of per-window loss counts
    must exceed that of independent loss at the same overall rate."""
    plan = FaultPlan(
        FaultConfig(burst=GilbertElliott(
            good_mean_s=50.0, bad_mean_s=10.0, loss_good=0.0, loss_bad=0.9,
        )),
        seed=2,
    )
    window, per_window = 10.0, []
    lost_in_window = 0
    for i in range(4000):
        now = i * 0.1
        if plan.link_lost(link_id=1, now=now) :
            lost_in_window += 1
        if i % int(window / 0.1) == 0 and i:
            per_window.append(lost_in_window)
            lost_in_window = 0
    assert plan.stats.burst_loss > 0
    # Bursty: many windows lose nothing, some lose a lot.
    assert per_window.count(0) > len(per_window) // 4
    assert max(per_window) > 10


def test_blackout_windows_are_call_order_independent():
    plan = FaultPlan(
        FaultConfig(blackout_rate=0.5, blackout_period_s=100.0,
                    blackout_duration_s=30.0),
        seed=3,
    )
    probe_times = [t * 1.7 for t in range(200)]
    forward = [plan.router_dark(7, t) for t in probe_times]
    plan2 = FaultPlan(plan.config, seed=3)
    backward = [plan2.router_dark(7, t) for t in reversed(probe_times)]
    assert forward == list(reversed(backward))
    assert any(forward) and not all(forward)


def test_storm_suppression_only_inside_windows():
    plan = FaultPlan(
        FaultConfig(storm_rate=1.0, storm_period_s=100.0,
                    storm_duration_s=10.0, storm_drop_prob=1.0),
        seed=4,
    )
    assert plan.storm_suppressed(1, now=5.0)      # inside window
    assert not plan.storm_suppressed(1, now=50.0)  # outside window
    assert plan.storm_suppressed(1, now=105.0)     # next period's window


def test_route_flaps_hit_whole_slash24():
    plan = FaultPlan(
        FaultConfig(flap_rate=1.0, flap_period_s=100.0,
                    flap_duration_s=100.0),
        seed=5,
    )
    base = 0x0A000100
    inside = plan.route_withdrawn(base + 1, now=10.0)
    # Same /24 behaves identically at the same instant.
    assert plan.route_withdrawn(base + 200, now=10.0) == inside


def test_fault_stats_summary_lists_nonzero_only():
    plan = FaultPlan(FaultConfig(loss_rate=1.0), seed=0)
    assert plan.link_lost(1, 0.0)
    text = plan.stats.summary()
    assert "link_loss=1" in text
    assert "flap" not in text
    assert plan.stats.total == 1


def test_profiles_and_factory():
    assert make_fault_plan("clean") is None
    plan = make_fault_plan("heavy", seed=9)
    assert isinstance(plan, FaultPlan)
    assert not plan.config.is_noop()
    assert set(FAULT_PROFILES) == {"clean", "light", "moderate", "heavy"}
    with pytest.raises(ValueError):
        make_fault_plan("nope")


def test_channel_profiles_and_factory():
    assert set(CHANNEL_FAULT_PROFILES) == {"clean", "flaky", "lossy",
                                           "hostile"}
    assert make_channel_faults("clean") is None
    policy = make_channel_faults("lossy", seed=4)
    assert isinstance(policy, ChannelFaultPolicy)
    assert policy.seed == 4
    assert policy.drop_rate > 0
    hostile = make_channel_faults("hostile")
    assert hostile.delay_rate > 0 and hostile.delay_seconds > 0
    with pytest.raises(ValueError):
        make_channel_faults("nope")


# ---------------------------------------------------------------- retry


def test_retry_recovers_lost_probes():
    scenario = fresh_scenario()
    scenario.network.faults = FaultPlan(FaultConfig(loss_rate=0.5), seed=1)
    vp = scenario.vps[0]
    stats = RetryStats()
    policy = RetryPolicy(attempts=6, backoff_s=0.5)
    outcomes = []
    for i, dst in enumerate(far_targets(scenario, n=80)):
        _, classification, _ = send_with_retry(
            scenario.network,
            lambda: Probe(src=vp.addr, dst=dst, ttl=8, flow_id=i),
            policy, stats,
        )
        outcomes.append(classification)
    assert LOSS in outcomes          # some probes recovered by retry
    assert CLEAN in outcomes         # some got through first try
    assert stats.retries > 0
    assert stats.recovered > 0


def test_retry_classifies_true_silence():
    """A destination no retry budget can reach stays SILENCE and costs
    the whole budget."""
    scenario = fresh_scenario()
    vp = scenario.vps[0]
    stats = RetryStats()
    # TTL 1 toward an address whose first hop answers: CLEAN.
    response, classification, used = send_with_retry(
        scenario.network,
        lambda: Probe(src=vp.addr, dst=vp.addr + 1, ttl=1),
        RetryPolicy(attempts=3), stats,
    )
    assert response is not None and classification == CLEAN and used == 1
    # Total loss on every link: silence, budget exhausted.
    scenario.network.faults = FaultPlan(FaultConfig(loss_rate=1.0), seed=1)
    far = far_targets(scenario)[-1]
    response, classification, used = send_with_retry(
        scenario.network,
        lambda: Probe(src=vp.addr, dst=far, ttl=8),
        RetryPolicy(attempts=3), stats,
    )
    assert response is None and classification == SILENCE and used == 3
    assert stats.exhausted == 1


def test_retry_backoff_costs_virtual_time():
    scenario = fresh_scenario()
    scenario.network.faults = FaultPlan(FaultConfig(loss_rate=1.0), seed=1)
    vp = scenario.vps[0]
    far = far_targets(scenario)[-1]
    before = scenario.network.now
    policy = RetryPolicy(attempts=3, backoff_s=2.0, multiplier=2.0)
    send_with_retry(
        scenario.network,
        lambda: Probe(src=vp.addr, dst=far, ttl=8),
        policy,
    )
    # Two retries waited 2s then 4s on top of three probe slots.
    assert scenario.network.now - before >= 6.0


def test_retry_policy_delay_schedule():
    policy = RetryPolicy(attempts=5, backoff_s=1.0, multiplier=2.0,
                         max_backoff_s=3.0)
    assert policy.delay_before(1) == 1.0
    assert policy.delay_before(2) == 2.0
    assert policy.delay_before(3) == 3.0   # capped
    assert policy.delay_before(4) == 3.0
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_retry_disabled_is_single_send():
    scenario = fresh_scenario()
    vp = scenario.vps[0]
    before = scenario.network.probes_sent
    send_with_retry(
        scenario.network,
        lambda: Probe(src=vp.addr, dst=vp.addr + 1, ttl=1),
        None,
    )
    assert scenario.network.probes_sent == before + 1


def test_retry_enabled_run_survives_loss():
    """The full pipeline with retries completes under 5% loss and spends
    retries doing it."""
    scenario = fresh_scenario()
    scenario.network.faults = FaultPlan(FaultConfig(loss_rate=0.05), seed=2)
    config = BdrmapConfig(collection=CollectionConfig(retry=RetryPolicy()))
    driver = Bdrmap(
        scenario.network, scenario.vps[0], build_data_bundle(scenario),
        config,
    )
    result = driver.run()
    assert result.links
    assert driver.collection.retry_stats.retries > 0
    assert scenario.network.faults.stats.total > 0


# ---------------------------------------------------------------- channel policy


def test_channel_policy_is_seed_deterministic():
    a = ChannelFaultPolicy(drop_rate=0.2, garble_rate=0.2, sever_rate=0.1,
                           delay_rate=0.1, seed=3)
    b = ChannelFaultPolicy(drop_rate=0.2, garble_rate=0.2, sever_rate=0.1,
                           delay_rate=0.1, seed=3)
    faults_a = [a.next_fault() for _ in range(200)]
    faults_b = [b.next_fault() for _ in range(200)]
    assert faults_a == faults_b
    for kind in ("drop", "garble", "sever", "delay", None):
        assert kind in faults_a


def test_channel_garble_defeats_decoder():
    """Both corruption modes — truncation and a 0xFF bit-flip — must make
    the frame undecodable, and decode must say so with DataError: for a
    JSON reply and for both typed shard query frames, whose binary
    bodies only their CRC protects."""
    from repro.remote.protocol import Reply, decode, encode
    from repro.serving.wire import (
        decode_answers,
        decode_query,
        encode_answers,
        encode_query,
    )
    from tests.test_wire import small_answers

    policy = ChannelFaultPolicy(seed=1)
    inputs = [
        (encode(Reply(seq=4, payload={"hops": []})), decode),
        (encode_query(4, [("owner", 16843009), ("border", 2 ** 40)],
                      {"id": "00deadbeef00cafe", "seed": 5}), decode_query),
        (encode_answers(4, 1, 7, small_answers()), decode_answers),
    ]
    for wire, decoder in inputs:
        for _ in range(30):
            corrupted = policy.garble(wire)
            assert corrupted != wire
            with pytest.raises(DataError):
                decoder(corrupted)


# ---------------------------------------------------------------- exceptions


def test_measurement_exception_hierarchy():
    assert issubclass(MeasurementError, ReproError)
    assert issubclass(MeasurementTimeout, MeasurementError)
    assert issubclass(ChannelError, MeasurementError)
    with pytest.raises(MeasurementError):
        raise MeasurementTimeout("slow")
    with pytest.raises(MeasurementError):
        raise ChannelError("severed")


# ---------------------------------------------------------------- rate limiter


def test_rate_limiter_burst_after_long_idle_is_capped():
    limiter = RateLimiter(pps=10.0, burst=5.0)
    # A day of idleness must not bank more than the burst size.
    allowed = sum(limiter.allow(86400.0) for _ in range(50))
    assert allowed == 5


def test_rate_limiter_fractional_tokens_accumulate():
    limiter = RateLimiter(pps=0.5, burst=1.0)
    assert limiter.allow(0.0)            # spend the initial token
    assert not limiter.allow(1.0)        # only 0.5 tokens back
    assert limiter.allow(2.5)            # 1.25 -> capped at 1.0, spendable
    assert not limiter.allow(2.6)


def test_rate_limit_none_never_limits():
    """Routers with rate_limit_pps=None answer every probe back-to-back."""
    from repro.net.policies import RouterPolicy

    scenario = fresh_scenario()
    network = scenario.network
    router = network.internet.routers[scenario.vps[0].first_router]
    policy = router.policy if router.policy is not None else RouterPolicy()
    assert policy.rate_limit_pps is None
    assert all(network._rate_ok(router) for _ in range(100))
