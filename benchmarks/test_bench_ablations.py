"""Ablation benches for the design choices DESIGN.md calls out:
alias resolution (Fig 13's false-border inflation), the third-party
heuristic (§5.4.5), the repeated-Ally false-alias guard (§5.3), and the
five-addresses-per-block retry rule.
"""

import pytest

from repro import build_data_bundle, build_scenario, mini, run_bdrmap
from repro.analysis import validate_result
from repro.core import BdrmapConfig
from repro.core.collection import CollectionConfig
from repro.core.heuristics import DEFAULT_PASS_ORDER, HeuristicConfig


@pytest.fixture(scope="module")
def env():
    scenario = build_scenario(mini(seed=23))
    data = build_data_bundle(scenario)
    return scenario, data


def _run(env, collection=None, heuristics=None):
    scenario, data = env
    config = BdrmapConfig(
        collection=collection or CollectionConfig(),
        heuristics=heuristics or HeuristicConfig(),
    )
    result = run_bdrmap(scenario, data=data, config=config)
    report = validate_result(result, scenario.internet)
    return result, report


def test_bench_inference_only(benchmark, env):
    """Time the inference stage alone (graph build + heuristics)."""
    scenario, data = env
    from repro.core.collection import Collector
    from repro.core.heuristics import build_context, run_inference
    from repro.core.routergraph import build_router_graph

    collector = Collector(
        scenario.network, scenario.vps[0].addr, data.view,
        set(scenario.vp_as_list), CollectionConfig(),
    )
    collection = collector.run()

    def infer():
        graph = build_router_graph(collection)
        return run_inference(build_context(graph, collection, data))

    links = benchmark(infer)
    assert links


def test_ablation_third_party_heuristic(env):
    """Disabling third-party detection must not *improve* accuracy; with
    reply-egress routers in the topology it typically hurts."""
    _, full = _run(env)
    _, ablated = _run(env, heuristics=HeuristicConfig(passes=tuple(
        name for name in DEFAULT_PASS_ORDER if name != "third_party"
    )))
    print()
    print(
        "third-party ablation: %.1f%% with vs %.1f%% without"
        % (100 * full.accuracy, 100 * ablated.accuracy)
    )
    assert full.accuracy >= ablated.accuracy - 0.02


def test_ablation_alias_resolution(env):
    """Without alias resolution, apparent border links can only multiply
    (Fig 13: one physical link seen as several)."""
    with_alias, _ = _run(env)
    without_alias, _ = _run(
        env, collection=CollectionConfig(use_alias_resolution=False)
    )
    print()
    print(
        "alias ablation: %d links with vs %d without"
        % (len(with_alias.links), len(without_alias.links))
    )
    assert len(without_alias.links) >= len(with_alias.links)


def test_ablation_addresses_per_block(env):
    """Probing 5 addresses per block finds at least as many neighbors as
    probing 1, at higher probe cost (§5.3's retry rule)."""
    five, five_report = _run(env)
    one, one_report = _run(
        env, collection=CollectionConfig(max_addrs_per_block=1)
    )
    print()
    print(
        "addrs/block: five → %d neighbors / %d probes; one → %d / %d"
        % (
            len(five.neighbor_ases()),
            five.probes_used,
            len(one.neighbor_ases()),
            one.probes_used,
        )
    )
    assert len(five.neighbor_ases()) >= len(one.neighbor_ases())
    assert five.probes_used > one.probes_used


def test_extension_refinement_improves_deep_ownership(env):
    """The bdrmapIT-style refinement extension (off by default) must
    improve router-ownership accuracy without hurting link accuracy."""
    from repro.analysis import score_bdrmap_ownership

    scenario, data = env
    base_result, base_val = _run(env)
    refined_result, refined_val = _run(
        env, heuristics=HeuristicConfig(use_refinement=True)
    )
    base_own = score_bdrmap_ownership(base_result, scenario.internet)
    refined_own = score_bdrmap_ownership(refined_result, scenario.internet)
    print()
    print(
        "refinement extension: ownership %.1f%% → %.1f%%, links %.1f%% → %.1f%%"
        % (
            100 * base_own.accuracy,
            100 * refined_own.accuracy,
            100 * base_val.accuracy,
            100 * refined_val.accuracy,
        )
    )
    assert refined_own.accuracy >= base_own.accuracy
    assert refined_val.accuracy >= base_val.accuracy - 0.02


def test_ablation_ally_rounds(env):
    """One Ally round (no repetition guard) risks false aliases; the
    5-round guard must never *reduce* validation accuracy."""
    _, guarded = _run(env, collection=CollectionConfig(ally_rounds=5))
    _, unguarded = _run(env, collection=CollectionConfig(ally_rounds=1))
    print()
    print(
        "ally-guard ablation: %.1f%% with 5 rounds vs %.1f%% with 1"
        % (100 * guarded.accuracy, 100 * unguarded.accuracy)
    )
    assert guarded.accuracy >= unguarded.accuracy - 0.02
