"""Tests for the incremental epoch pipeline (delta-driven re-inference
and in-place compiled-map patching).

The absolute correctness bar: every incrementally patched epoch artifact
is byte-identical to a from-scratch recompute of the same world state.
The module fixture drives two same-seed replica scenarios through a
3-epoch seeded evolution — one runner incremental, one forced full —
and the tests compare their artifacts, replay the patch chain, and
check that the delta epochs actually reused cached work.
"""

import dataclasses
import json
import os

import pytest

from repro import build_scenario, mini
from repro.core.bdrmap import BdrmapConfig, build_data_bundle
from repro.core.collection import CollectionConfig, Collector
from repro.core.epochs import (
    CHAIN_FORMAT,
    EpochChain,
    EpochCost,
    EpochError,
    EpochRunner,
    InferenceCache,
    apply_seeded_churn,
    replay_chain,
    run_incremental_inference,
)
from repro.core.heuristics import build_context, run_inference
from repro.core.routergraph import build_router_graph
from repro.errors import DataError, TopologyError
from repro.topology.evolve import add_border_link

N_EPOCHS = 3
CHURN_SEED = 42
CHURN_FRACTION = 0.02


@pytest.fixture(scope="module")
def evolution(tmp_path_factory):
    """Run the same 3-epoch evolution incrementally and from scratch."""
    inc_dir = str(tmp_path_factory.mktemp("epochs-inc"))
    full_dir = str(tmp_path_factory.mktemp("epochs-full"))
    s_inc = build_scenario(mini(seed=7))
    s_full = build_scenario(mini(seed=7))
    inc = EpochRunner(s_inc, out_dir=inc_dir)
    full = EpochRunner(s_full, out_dir=full_dir, force_full=True)
    inc_records, full_records = [], []
    for epoch in range(N_EPOCHS):
        if epoch:
            ev_inc = apply_seeded_churn(
                s_inc, seed=CHURN_SEED, epoch=epoch, fraction=CHURN_FRACTION
            )
            ev_full = apply_seeded_churn(
                s_full, seed=CHURN_SEED, epoch=epoch, fraction=CHURN_FRACTION
            )
            # Same seed → same mutation stream on both replicas.
            assert [e.to_dict() for e in ev_inc] == [
                e.to_dict() for e in ev_full
            ]
        inc_records.append(inc.run_epoch())
        full_records.append(full.run_epoch())
    return inc, full, inc_records, full_records


class TestByteIdentity:
    def test_modes(self, evolution):
        _, _, inc_records, full_records = evolution
        assert [r.mode for r in inc_records] == ["full"] + ["delta"] * (
            N_EPOCHS - 1
        )
        assert all(r.mode == "full" for r in full_records)

    def test_every_epoch_matches_full_recompute(self, evolution):
        _, _, inc_records, full_records = evolution
        for inc_rec, full_rec in zip(inc_records, full_records):
            with open(inc_rec.map_path, "rb") as f:
                inc_bytes = f.read()
            with open(full_rec.map_path, "rb") as f:
                full_bytes = f.read()
            assert inc_bytes == full_bytes, (
                "epoch %d: patched map differs from recompute"
                % inc_rec.epoch
            )

    def test_section_crcs_match(self, evolution):
        _, _, inc_records, full_records = evolution
        for inc_rec, full_rec in zip(inc_records, full_records):
            assert inc_rec.section_crcs == full_rec.section_crcs


class TestInvalidationSelectivity:
    def test_delta_epochs_reuse_cached_work(self, evolution):
        _, _, inc_records, full_records = evolution
        for inc_rec, full_rec in zip(inc_records[1:], full_records[1:]):
            cost = inc_rec.cost
            assert cost.traces_replayed > 0
            assert cost.units_reused > 0
            assert cost.routers_replayed > 0
            assert cost.sections_reused > 0
            assert cost.probes < full_rec.cost.probes

    def test_first_epoch_is_cold(self, evolution):
        _, _, inc_records, _ = evolution
        cost = inc_records[0].cost
        assert cost.traces_replayed == 0
        assert cost.units_reused == 0
        assert cost.routers_replayed == 0
        assert cost.sections_patched == 0

    def test_delta_records_carry_events_and_diff(self, evolution):
        _, _, inc_records, _ = evolution
        for record in inc_records[1:]:
            assert record.events
            assert record.diff is not None
            assert set(record.diff) >= {
                "added_links", "removed_links", "stable_links"
            }


class TestChainReplay:
    def test_chain_round_trips(self, evolution):
        inc, _, inc_records, _ = evolution
        chain_path = inc.save_chain()
        with open(chain_path) as f:
            chain = json.load(f)
        assert chain["format"] == "bdrmap-repro-epoch-chain/1"
        assert len(chain["records"]) == N_EPOCHS
        verified = replay_chain(chain_path)
        assert verified == [r.map_path for r in inc_records]

    def test_patch_applies_onto_its_base(self, evolution, tmp_path):
        from repro.serving.compiled import apply_map_patch

        _, _, inc_records, _ = evolution
        out = str(tmp_path / "rebuilt.bdrm")
        apply_map_patch(
            inc_records[0].map_path, inc_records[1].patch_path, out
        )
        with open(out, "rb") as f:
            rebuilt = f.read()
        with open(inc_records[1].map_path, "rb") as f:
            expected = f.read()
        assert rebuilt == expected

    def test_wrong_base_refused(self, evolution, tmp_path):
        from repro.serving.compiled import apply_map_patch

        _, _, inc_records, _ = evolution
        out = str(tmp_path / "bad.bdrm")
        # Epoch 2's patch is pinned to epoch 1's sections by CRC; epoch 0
        # is the wrong base and must be refused, not silently corrupted.
        with pytest.raises(DataError):
            apply_map_patch(
                inc_records[0].map_path, inc_records[2].patch_path, out
            )
        assert not os.path.exists(out)


class TestAtomicChainSave:
    def test_failed_save_keeps_previous_chain(
        self, evolution, tmp_path, monkeypatch
    ):
        """A chain save that fails before it is durable leaves the
        previous chain.json byte for byte and no temp litter."""
        inc = evolution[0]
        target = tmp_path / "chain.json"
        EpochChain(records=inc.chain.records[:1]).save(str(target))
        before = target.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            inc.save_chain(str(target))
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []


def _chain_bytes(*records) -> bytes:
    return json.dumps({"format": CHAIN_FORMAT, "records": list(records)})\
        .encode("utf-8")


class TestHostileChain:
    """``replay_chain`` reads chain.json from disk: bytes that are not a
    chain whose records name saved artifacts fail once, with
    :class:`EpochError`, before anything is replayed."""

    @pytest.mark.parametrize("payload", [
        b'{"format": "bdrmap-repro-epoch-chain/1", "records": [{"ep',
        b'{"format": "\xff"}',
        b"[]",
        b'{"format": "bdrmap-repro-epoch-chain/1", "records": 5}',
        _chain_bytes(5),
        b'{"format": "bdrmap-repro-epoch-chain/0", "records": []}',
        _chain_bytes({"epoch": 0, "map_path": 7, "patch_path": None}),
        _chain_bytes({"epoch": 0, "map_path": "missing.bdrm",
                      "patch_path": None}),
    ], ids=["truncated", "not-utf8", "list", "records-int", "record-int",
            "wrong-format", "map-path-int", "map-path-missing"])
    def test_malformed_chain_rejected(self, tmp_path, payload):
        path = tmp_path / "chain.json"
        path.write_bytes(payload)
        with pytest.raises(EpochError):
            replay_chain(str(path))

    def test_patch_path_must_be_a_path(self, tmp_path):
        artifact = tmp_path / "epoch_000.bdrm"
        artifact.write_bytes(b"never read")
        path = tmp_path / "chain.json"
        path.write_bytes(_chain_bytes(
            {"epoch": 0, "map_path": str(artifact), "patch_path": None},
            {"epoch": 1, "map_path": str(artifact), "patch_path": 7},
        ))
        with pytest.raises(EpochError):
            replay_chain(str(path))


class TestReplayFallback:
    """A recorded event that no longer maps onto the graph is not
    replayed: its router runs its passes live, and the result is what
    a from-scratch :func:`run_inference` gives."""

    @pytest.fixture(scope="class")
    def measured(self):
        scenario = build_scenario(mini(seed=7))
        data = build_data_bundle(scenario)
        collection = Collector(
            scenario.network, scenario.vps[0].addr, data.view, data.vp_ases
        ).run()
        return collection, data

    @staticmethod
    def _outcome(ctx, links):
        owners = {
            rid: (router.owner, router.reason)
            for rid, router in ctx.graph.routers.items()
        }
        return links, owners, ctx.provenance.records

    @pytest.mark.parametrize("corrupt", ["deciding", "assignment"])
    def test_unresolvable_event_runs_live(self, measured, corrupt):
        collection, data = measured

        def fresh_ctx():
            return build_context(
                build_router_graph(collection), collection, data
            )

        cache = InferenceCache()
        run_incremental_inference(fresh_ctx(), cache, "fp", EpochCost())
        key, event = next(
            (key, event) for key, event in sorted(cache.events.items())
            if event.assignments
        )
        if corrupt == "deciding":
            event = dataclasses.replace(event, deciding="no_such_pass")
        else:
            (target, owner, reason), *rest = event.assignments
            stale = (target + (max(target) + 1,), owner, reason)
            event = dataclasses.replace(
                event, assignments=(stale, *rest)
            )
        cache.events[key] = event

        cost = EpochCost()
        ctx = fresh_ctx()
        links = run_incremental_inference(ctx, cache, "fp", cost)
        assert cost.routers_live == 1
        assert cost.routers_replayed > 0
        reference = fresh_ctx()
        assert self._outcome(ctx, links) == self._outcome(
            reference, run_inference(reference)
        )


class TestEpochPreconditions:
    def test_shared_stop_sets_rejected(self):
        scenario = build_scenario(mini(seed=7))
        config = BdrmapConfig(
            collection=CollectionConfig(share_stop_sets=True)
        )
        runner = EpochRunner(scenario, config=config)
        with pytest.raises(EpochError):
            runner.run_epoch()

    def test_faulty_network_rejected(self):
        scenario = build_scenario(mini(seed=7))
        scenario.network.faults = object()
        runner = EpochRunner(scenario)
        with pytest.raises(EpochError):
            runner.run_epoch()

    def test_stale_topology_rejected(self):
        scenario = build_scenario(mini(seed=7))
        focal = scenario.focal_asn
        candidate = next(
            asn
            for asn in sorted(scenario.internet.ases)
            if scenario.internet.graph.relationship(focal, asn) is None
            and scenario.internet.ases[asn].router_ids
            and asn != focal
        )
        add_border_link(scenario, focal, candidate)
        runner = EpochRunner(scenario)
        with pytest.raises(TopologyError):
            runner.run_epoch()
