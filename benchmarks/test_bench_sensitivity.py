"""Sensitivity sweeps — how gracefully do the heuristics degrade?

The paper validated at fixed (real) pathology rates.  The simulator lets
us turn each §4 challenge's knob.  Two levels matter and behave
differently:

* **border-link accuracy** (what §5.6 validates) is extremely robust —
  the first border is where bdrmap has the most constraints;
* **router-ownership accuracy** (the deeper annotations) is what the
  third-party logic protects: disabling §5.4.5's detection costs ~14
  points, at any pathology rate, because provider-supplied addressing
  beyond the first hop *is* the third-party pattern.
"""

import pytest

from repro import build_data_bundle, run_bdrmap
from repro.analysis import score_bdrmap_ownership, validate_result
from repro.analysis.sensitivity import sweep_challenge_rate
from repro.core.bdrmap import BdrmapConfig
from repro.core.heuristics import DEFAULT_PASS_ORDER, HeuristicConfig
from repro.topology import build_scenario, mini, re_network

RATES = [0.0, 0.15, 0.35]


@pytest.fixture(scope="module")
def sweeps():
    return {
        parameter: sweep_challenge_rate(mini(seed=15), parameter, RATES)
        for parameter in (
            "reply_egress_rate",
            "unrouted_infra_rate",
            "vrouter_rate",
        )
    }


def test_bench_one_sweep_point(benchmark):
    report = benchmark.pedantic(
        lambda: sweep_challenge_rate(mini(seed=15), "reply_egress_rate", [0.1]),
        rounds=1, iterations=1,
    )
    assert report.points


def test_sensitivity_graceful_degradation(sweeps):
    print()
    for parameter, report in sweeps.items():
        print(report.summary())
        # Tripling real-world pathology rates must not collapse accuracy.
        assert report.min_accuracy() >= 0.75, parameter
        assert report.accuracy_drop() <= 0.2, parameter


def test_firewall_rate_hurts_neither(capfd):
    """Firewalled customers stay inferable (§5.4.2): even at 90% firewall
    rates accuracy holds; only the heuristic mix changes."""
    report = sweep_challenge_rate(
        mini(seed=15), "customer_firewall_rate", [0.1, 0.6, 0.9]
    )
    print()
    print(report.summary())
    assert report.min_accuracy() >= 0.75


def test_third_party_logic_protects_deep_ownership():
    """Quantify what §5.4.5 buys: link accuracy is insensitive (the first
    border is over-constrained) but router-ownership accuracy drops by
    double digits without third-party detection."""
    rows = {}
    for third_party in (True, False):
        scenario = build_scenario(re_network())
        data = build_data_bundle(scenario)
        config = BdrmapConfig(heuristics=HeuristicConfig(passes=tuple(
            name for name in DEFAULT_PASS_ORDER
            if third_party or name != "third_party"
        )))
        result = run_bdrmap(scenario, data=data, config=config)
        rows[third_party] = (
            validate_result(result, scenario.internet).accuracy,
            score_bdrmap_ownership(result, scenario.internet).accuracy,
        )
    print()
    print(
        "third-party logic: links %.1f%% → %.1f%%, ownership %.1f%% → %.1f%%"
        % (
            100 * rows[True][0], 100 * rows[False][0],
            100 * rows[True][1], 100 * rows[False][1],
        )
    )
    assert rows[True][0] >= rows[False][0] - 0.02   # links: no harm
    assert rows[True][1] > rows[False][1] + 0.08    # ownership: big win
