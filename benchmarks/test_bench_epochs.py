"""Incremental epoch pipeline benchmark (delta vs full recompute).

Drives the same 3-epoch seeded evolution through two runners — one
incremental, one forced full — on same-seed replica scenarios, then
asserts the two headline claims of the epoch pipeline:

1. Correctness (always, never relaxed): every incrementally patched
   artifact is byte-identical to the from-scratch recompute, and the
   saved patch chain replays end to end.
2. Cost proportional to churn: at ~1% interdomain churn a delta epoch
   costs at least 3x less than the full recompute, measured on probes
   sent and on the composite (probes + routers inferred) that dominates
   wall-clock.

``EPOCH_BENCH_SMOKE=1`` (the CI smoke job) relaxes the ratio floors
only — shared runners are noisy and tiny topologies leave less to
reuse; byte-identity is asserted unconditionally in both modes.

Records ``BENCH_epochs.json`` via the shared ``bench_recorder``.
"""

import os

import pytest

from repro import build_scenario, mini
from repro.core.epochs import EpochRunner, apply_seeded_churn, replay_chain

SMOKE = os.environ.get("EPOCH_BENCH_SMOKE") == "1"
N_EPOCHS = 3
CHURN_SEED = 42
CHURN_FRACTION = 0.01          # well inside the ≤10% churn criterion
MIN_PROBE_RATIO = 1.2 if SMOKE else 3.0
MIN_COMPOSITE_RATIO = 1.2 if SMOKE else 3.0


def _composite(cost):
    """Probes sent + routers inferred.  Every epoch infers every router
    live, so only probing shrinks with churn; probing dominates the real
    pipeline ~40:1, so this is effectively a probe floor."""
    return cost.probes + cost.routers_live


@pytest.fixture(scope="module")
def epoch_evolution(tmp_path_factory):
    inc_dir = str(tmp_path_factory.mktemp("bench-epochs-inc"))
    full_dir = str(tmp_path_factory.mktemp("bench-epochs-full"))
    s_inc = build_scenario(mini(seed=7))
    s_full = build_scenario(mini(seed=7))
    inc = EpochRunner(s_inc, out_dir=inc_dir, source="bench")
    full = EpochRunner(s_full, out_dir=full_dir, source="bench",
                       force_full=True)
    inc_records, full_records = [], []
    for epoch in range(N_EPOCHS):
        if epoch:
            ev_inc = apply_seeded_churn(
                s_inc, seed=CHURN_SEED, epoch=epoch,
                fraction=CHURN_FRACTION,
            )
            ev_full = apply_seeded_churn(
                s_full, seed=CHURN_SEED, epoch=epoch,
                fraction=CHURN_FRACTION,
            )
            assert [e.to_dict() for e in ev_inc] == [
                e.to_dict() for e in ev_full
            ]
        inc_records.append(inc.run_epoch())
        full_records.append(full.run_epoch())
    chain_path = inc.save_chain()
    return inc_records, full_records, chain_path


def test_bench_epochs_delta_vs_full(epoch_evolution, bench_recorder):
    inc_records, full_records, chain_path = epoch_evolution

    # Correctness gate first — never relaxed: each patched map must be
    # byte-identical to the from-scratch recompute of the same epoch,
    # and the chain must replay.
    for inc_rec, full_rec in zip(inc_records, full_records):
        with open(inc_rec.map_path, "rb") as f:
            inc_bytes = f.read()
        with open(full_rec.map_path, "rb") as f:
            full_bytes = f.read()
        assert inc_bytes == full_bytes, (
            "epoch %d: patched artifact diverged from full recompute"
            % inc_rec.epoch
        )
    verified = replay_chain(chain_path)
    assert len(verified) == N_EPOCHS

    epochs = []
    for inc_rec, full_rec in zip(inc_records, full_records):
        delta, base = inc_rec.cost, full_rec.cost
        probe_ratio = base.probes / max(1, delta.probes)
        composite_ratio = _composite(base) / max(1, _composite(delta))
        epochs.append({
            "epoch": inc_rec.epoch,
            "mode": inc_rec.mode,
            "delta_cost": delta.to_dict(),
            "full_cost": base.to_dict(),
            "probe_ratio": round(probe_ratio, 3),
            "composite_ratio": round(composite_ratio, 3),
        })
        print(
            "epoch %d [%s]: probes %d vs %d full (%.2fx), "
            "%d routers, compile %.1fms"
            % (
                inc_rec.epoch, inc_rec.mode, delta.probes, base.probes,
                probe_ratio, delta.routers_live,
                delta.compile_seconds * 1e3,
            )
        )

    path = bench_recorder("epochs", {
        "scenario": "mini", "seed": 7,
        "epochs": N_EPOCHS,
        "churn_fraction": CHURN_FRACTION,
        "churn_seed": CHURN_SEED,
        "smoke": SMOKE,
        "min_probe_ratio": MIN_PROBE_RATIO,
        "min_composite_ratio": MIN_COMPOSITE_RATIO,
        "byte_identical": True,
        "chain_replayed": len(verified),
        "per_epoch": epochs,
    })
    print("recorded %s" % path)

    # Cost floors on every delta epoch.
    for entry in epochs[1:]:
        assert entry["mode"] == "delta"
        assert entry["probe_ratio"] >= MIN_PROBE_RATIO, (
            "epoch %d: delta probing is only %.2fx below full (floor %.1fx)"
            % (entry["epoch"], entry["probe_ratio"], MIN_PROBE_RATIO)
        )
        assert entry["composite_ratio"] >= MIN_COMPOSITE_RATIO, (
            "epoch %d: composite cost is only %.2fx below full (floor %.1fx)"
            % (entry["epoch"], entry["composite_ratio"], MIN_COMPOSITE_RATIO)
        )
