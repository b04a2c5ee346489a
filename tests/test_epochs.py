"""Tests for the incremental epoch pipeline (delta re-measurement,
live inference and in-place compiled-map patching).

The absolute correctness bar: every incrementally patched epoch artifact
is byte-identical to a from-scratch recompute of the same world state.
The module fixture drives two same-seed replica scenarios through a
3-epoch seeded evolution — one runner incremental, one forced full —
and the tests compare their artifacts, replay the patch chain, and
check that the delta epochs actually reused cached probing work.
"""

import dataclasses
import json
import os

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.core.bdrmap import BdrmapConfig
from repro.core.collection import CollectionConfig
from repro.core.epochs import (
    CHAIN_FORMAT,
    EpochChain,
    EpochError,
    EpochRunner,
    apply_seeded_churn,
    replay_chain,
)
from repro.errors import DataError, TopologyError
from repro.io.binfmt import open_container, write_container
from repro.serving.compiled import apply_map_patch, load_map_patch
from repro.topology.evolve import (
    add_border_link,
    de_peer,
    move_border_link,
    rebuild_network,
    remove_link,
)

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
            assert cost.sections_reused > 0
            assert cost.probes < full_rec.cost.probes

    def test_every_epoch_infers_every_router(self, evolution):
        _, _, inc_records, full_records = evolution
        for inc_rec, full_rec in zip(inc_records, full_records):
            assert inc_rec.cost.routers_live == full_rec.cost.routers_live
            assert inc_rec.cost.routers_live > 0
            assert inc_rec.cost.routers_replayed == 0

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

    def test_relative_chain_replays_from_anywhere(self, tmp_path,
                                                  monkeypatch):
        """A chain saved under a relative out dir names its artifacts
        relative to chain.json, so it replays from another working
        directory and again after the directory is moved."""
        monkeypatch.chdir(tmp_path)
        scenario = build_scenario(mini(seed=7))
        runner = EpochRunner(scenario, out_dir="rel_epochs")
        runner.run_epoch()
        apply_seeded_churn(scenario, seed=CHURN_SEED, epoch=1,
                           fraction=CHURN_FRACTION)
        assert runner.run_epoch().patch_path is not None
        runner.save_chain()
        with open(os.path.join("rel_epochs", "chain.json")) as f:
            records = json.load(f)["records"]
        assert [r["map_path"] for r in records] == [
            "epoch_000.bdrm", "epoch_001.bdrm"
        ]
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert replay_chain(os.path.join("..", "rel_epochs", "chain.json")) \
            == [os.path.join("..", "rel_epochs", "epoch_%03d.bdrm" % epoch)
                for epoch in (0, 1)]
        monkeypatch.chdir(tmp_path)
        os.rename("rel_epochs", "moved")
        assert replay_chain(os.path.join("moved", "chain.json")) == [
            os.path.join("moved", "epoch_%03d.bdrm" % epoch)
            for epoch in (0, 1)
        ]

    def test_patch_applies_onto_its_base(self, evolution, tmp_path):
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
        _, _, inc_records, _ = evolution
        out = str(tmp_path / "bad.bdrm")
        # Epoch 2's patch is pinned to epoch 1's sections by CRC; epoch 0
        # is the wrong base and must be refused, not silently corrupted.
        with pytest.raises(DataError):
            apply_map_patch(
                inc_records[0].map_path, inc_records[2].patch_path, out
            )
        assert not os.path.exists(out)


    def test_mismatch_leaves_no_file(self, evolution, tmp_path):
        """A patch that does not reproduce its artifact raises, and the
        replay writes nothing next to the artifacts."""
        inc = evolution[0]
        chain = inc.chain.to_dict()
        for record in chain["records"]:
            for key in ("map_path", "patch_path"):
                if record[key] is not None:
                    copy = tmp_path / os.path.basename(record[key])
                    with open(record[key], "rb") as handle:
                        copy.write_bytes(handle.read())
                    record[key] = str(copy)
        artifact = tmp_path / "epoch_001.bdrm"
        flipped = bytearray(artifact.read_bytes())
        flipped[-1] ^= 0xFF
        artifact.write_bytes(bytes(flipped))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        before = sorted(path.name for path in tmp_path.iterdir())
        with pytest.raises(EpochError):
            replay_chain(str(chain_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == before


class TestHostilePatch:
    """The binfmt CRC seals a patch's bytes, not what its ``patch_meta``
    says: a well-sealed patch whose metadata is malformed fails once,
    with :class:`DataError`, on load and on apply."""

    @pytest.mark.parametrize("damage", [
        lambda meta: [],
        lambda meta: {k: v for k, v in meta.items() if k != "base_epoch"},
        lambda meta: dict(meta, changed=5),
        lambda meta: dict(meta, base_crcs=[1, 2]),
    ], ids=["list", "no-base-epoch", "changed-int", "base-crcs-list"])
    def test_malformed_meta_rejected(self, evolution, tmp_path, damage):
        _, _, inc_records, _ = evolution
        with open_container(inc_records[1].patch_path) as container:
            sections = {
                name: container.section_bytes(name)
                for name in container.names()
            }
        meta = json.loads(sections["patch_meta"])
        sections["patch_meta"] = json.dumps(damage(meta)).encode("utf-8")
        patch_path = str(tmp_path / "damaged.patch.bdrm")
        write_container(patch_path, sections)
        with pytest.raises(DataError):
            load_map_patch(patch_path)
        with pytest.raises(DataError):
            apply_map_patch(
                inc_records[0].map_path, patch_path,
                str(tmp_path / "out.bdrm"),
            )


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


# -- §5.2 input reuse ------------------------------------------------------------

BUNDLE_PARTS = ("view", "rels", "rir", "ixp")


def _restricted_links(scenario):
    """Every restricted link of the first restricted prefix that joins
    its first AS pair with more than one such link (on mini seed 1, the
    three links joining AS100 and AS109)."""
    internet = scenario.internet
    policy = next(
        internet.prefix_policies[prefix]
        for prefix in sorted(internet.prefix_policies)
        if internet.prefix_policies[prefix].restricted_links
        and internet.prefix_policies[prefix].announced
    )
    by_pair = {}
    for link_id in sorted(policy.restricted_links):
        link = internet.links[link_id]
        pair = tuple(sorted(
            {internet.routers[iface.router_id].asn
             for iface in link.interfaces}
        ))
        by_pair.setdefault(pair, []).append(link_id)
    return next(links for links in by_pair.values() if len(links) > 1)


def _public_neighbor(scenario, data):
    """A neighbor of the focal AS that the public AS paths show."""
    focal = scenario.focal_asn
    return next(
        b if a == focal else a
        for path in data.view.paths()
        for a, b in zip(path, path[1:])
        if focal in (a, b)
    )


def _new_relationship(scenario, data):
    internet = scenario.internet
    focal = scenario.focal_asn
    other = next(
        asn for asn in sorted(internet.ases)
        if asn != focal and internet.graph.relationship(focal, asn) is None
    )
    add_border_link(scenario, focal, other)


def _move_focal_link(scenario, data):
    internet = scenario.internet
    focal = scenario.focal_asn
    link = next(internet.interdomain_links(focal))
    current = next(
        iface.router_id for iface in link.interfaces
        if internet.routers[iface.router_id].asn == focal
    )
    target = next(
        rid for rid in sorted(internet.ases[focal].router_ids)
        if rid != current
    )
    move_border_link(scenario, link.link_id, target)


def _unannounce(scenario, data):
    internet = scenario.internet
    policy = internet.prefix_policies[data.view.prefixes()[0]]
    internet.add_prefix_policy(dataclasses.replace(policy, origins=()))


#: (mutation, whether the public view's inputs stay equal).
MUTATIONS = {
    "none": (lambda s, d: None, True),
    "seeded_churn": (
        lambda s, d: apply_seeded_churn(s, seed=1, epoch=1, fraction=0.02),
        True,
    ),
    "parallel_link": (
        lambda s, d: add_border_link(
            s, s.focal_asn, sorted(s.internet.graph.neighbors(s.focal_asn))[0]
        ),
        True,
    ),
    "new_relationship": (_new_relationship, False),
    # One of several restricted links joining the same AS pair.
    "remove_link": (
        lambda s, d: remove_link(s, _restricted_links(s)[0]), True,
    ),
    "move_link": (_move_focal_link, True),
    "de_peer": (
        lambda s, d: de_peer(s, s.focal_asn, _public_neighbor(s, d)), False,
    ),
    # Every restricted link joining one AS pair: the prefixes are no
    # longer exported across that pair although the AS graph is the same.
    "restricted_pair": (
        lambda s, d: [remove_link(s, link_id)
                      for link_id in _restricted_links(s)],
        False,
    ),
    "unannounce": (_unannounce, False),
}


class TestInputReuse:
    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_reused_parts_equal_a_fresh_build(self, case):
        mutate, view_kept = MUTATIONS[case]
        scenario = build_scenario(mini(seed=1))
        previous = build_data_bundle(scenario)
        mutate(scenario, previous)
        rebuild_network(scenario)

        reused = build_data_bundle(scenario, previous=previous)
        fresh = build_data_bundle(scenario)
        assert reused.view.entries == fresh.view.entries
        assert reused.rels == fresh.rels
        assert reused.rir.records == fresh.rir.records
        assert reused.ixp == fresh.ixp
        for name in BUNDLE_PARTS:
            same_inputs = reused.built_from[name] == previous.built_from[name]
            assert (getattr(reused, name) is getattr(previous, name)) \
                == same_inputs, name
        assert (reused.view is previous.view) == view_kept
        if not view_kept:
            # Each such case really changes the view, so a key that
            # missed its input would have reused a stale one.
            assert fresh.view.entries != previous.view.entries

    def test_epoch_after_de_peer_rebuilds_view_and_relationships(
        self, tmp_path, monkeypatch
    ):
        from repro.core import epochs

        built = []

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        real = epochs.build_data_bundle
        monkeypatch.setattr(epochs, "build_data_bundle", recording)
        scenarios = [build_scenario(mini(seed=1)) for _ in range(2)]
        inc = EpochRunner(scenarios[0], out_dir=str(tmp_path / "inc"))
        full = EpochRunner(scenarios[1], out_dir=str(tmp_path / "full"),
                           force_full=True)
        records = []
        for runner, scenario in zip((inc, full), scenarios):
            runner.run_epoch()
            de_peer(scenario, scenario.focal_asn,
                    _public_neighbor(scenario, built[-1]))
            rebuild_network(scenario)
            records.append(runner.run_epoch())
        first, second = built[0], built[1]
        assert second.view is not first.view
        assert second.rels is not first.rels
        assert second.rir is first.rir and second.ixp is first.ixp
        with open(records[0].map_path, "rb") as inc_map, \
                open(records[1].map_path, "rb") as full_map:
            assert inc_map.read() == full_map.read()
