"""Tests for the parallel multi-VP collection engine and the
caching/resume correctness seams it leans on.

The acceptance-critical property: a parallel run (``workers=N``) must
serialize byte-identically to its sequential twin (``workers=1``) for
the same :class:`~repro.core.parallel.ScenarioSpec` — reports, results,
and the compiled border map.  Alongside it: checkpoint partial-merge
semantics, resume metric replay (no loss, no double count), failed-VP
isolation, and the opt-in cross-target stop-set sharing.
"""

import json
import pickle

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.core.collection import CollectionConfig, Collector
from repro.core.orchestrator import MultiVPOrchestrator
from repro.core.parallel import (
    ParallelOrchestrator,
    ScenarioSpec,
    run_parallel,
)
from repro.core.orchestrator import VPReport
from repro.errors import DataError
from repro.io import (
    checkpoint_entry,
    load_checkpoint,
    orchestrated_run_to_dict,
    resume_checkpoint,
    write_checkpoint,
)
from repro.io.serialize import bordermap_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.probing.stopset import StopSet
from repro.topology import SCENARIO_FACTORIES, scenario_config


def canon(run):
    """The byte-identity yardstick: canonical JSON of the run dict."""
    return json.dumps(orchestrated_run_to_dict(run), sort_keys=True)


def comparable(registry):
    """Registry content minus wall-clock timers, which legitimately
    differ between two runs of identical work."""
    data = registry.as_dict()
    data.pop("timers", None)
    return data


class TestScenarioSpec:
    def test_registry_covers_cli_scenarios(self):
        assert set(SCENARIO_FACTORIES) >= {
            "mini", "small_access", "large_access", "cdn_network",
            "re_network", "tier1",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            scenario_config("no_such_scenario")

    def test_spec_is_picklable(self):
        spec = ScenarioSpec.make(
            "mini", seed=9, fault_profile="clean", n_vps=3
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert dict(clone.factory_kwargs) == {"n_vps": 3}

    def test_build_is_reproducible(self):
        spec = ScenarioSpec.make("mini", seed=4)
        first = spec.build()
        second = spec.build()
        assert [vp.name for vp in first.vps] == [vp.name for vp in second.vps]
        assert first.focal_asn == second.focal_asn

    def test_default_seed_matches_factory_default(self):
        spec = ScenarioSpec.make("mini")
        assert spec.build().focal_asn == build_scenario(mini()).focal_asn


SEEDS = (1, 7, 23)


@pytest.fixture(scope="module")
def sequential_by_seed():
    """Canonical serialization of the workers=1 run, per seed."""
    runs = {}
    for seed in SEEDS:
        spec = ScenarioSpec.make("mini", seed=seed)
        runs[seed] = canon(run_parallel(spec, workers=1))
    return runs


class TestDeterminismAcrossWorkers:
    """Satellite: sequential and parallel runs serialize identically."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_workers_byte_identical(self, seed, sequential_by_seed):
        spec = ScenarioSpec.make("mini", seed=seed)
        assert canon(run_parallel(spec, workers=2)) \
            == sequential_by_seed[seed]

    @pytest.mark.parametrize("workers", (4, 8))
    def test_more_workers_than_vps_byte_identical(self, workers):
        spec = ScenarioSpec.make("mini", seed=1, n_vps=4)
        baseline = canon(run_parallel(spec, workers=1))
        assert canon(run_parallel(spec, workers=workers)) == baseline

    def test_border_map_identical(self, sequential_by_seed):
        spec = ScenarioSpec.make("mini", seed=7)
        seq = run_parallel(spec, workers=1)
        par = run_parallel(spec, workers=2)
        assert canon(seq) == sequential_by_seed[7]
        assert bordermap_to_dict(seq.to_border_map()) \
            == bordermap_to_dict(par.to_border_map())

    def test_metrics_merge_matches_inline(self):
        """Parallel-merged registry == inline registry, modulo the
        run.workers gauge and wall-clock timers."""
        spec = ScenarioSpec.make("mini", seed=1)
        inline, pooled = MetricsRegistry(), MetricsRegistry()
        run_parallel(spec, workers=1, metrics=inline)
        run_parallel(spec, workers=2, metrics=pooled)
        want, got = comparable(inline), comparable(pooled)
        assert want["gauges"].pop("run.workers") == 1
        assert got["gauges"].pop("run.workers") == 2
        assert want == got


class TestCheckpointMerge:
    """The one resume reader: the canonical checkpoint merged with the
    worker partials a crashed pool run stranded."""

    @staticmethod
    def _entry(result, vp_name, traces_run=0):
        return checkpoint_entry(
            result, VPReport(vp_name=vp_name, vp_addr=1, traces_run=traces_run)
        )

    def test_merge_concatenates_and_orders(self, mini_result, tmp_path):
        """Entries spread over the canonical file and two partials all
        resume, and the merged canonical checkpoint lists them in
        scenario VP order."""
        spec = ScenarioSpec.make("mini", seed=1, n_vps=3)
        names = [vp.name for vp in spec.build().vps]
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, [self._entry(mini_result, names[2])])
        write_checkpoint(path, [self._entry(mini_result, names[0])], worker=0)
        write_checkpoint(path, [self._entry(mini_result, names[1])], worker=1)
        orchestrator = ParallelOrchestrator(
            spec, workers=1, checkpoint_path=path, resume=True
        )
        run = orchestrator.run()
        assert orchestrator.resumed_vps == set(names)
        assert [result.vp_name for result in run.results] \
            == [mini_result.vp_name] * 3
        assert [vp.vp_name for vp in load_checkpoint(path)[1]] == names
        assert not list(tmp_path.glob("*.worker*"))

    def test_duplicate_vp_keeps_last(self, mini_result, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, [self._entry(mini_result, "vp0", 1)])
        write_checkpoint(path, [self._entry(mini_result, "vp0", 2)], worker=0)
        done = resume_checkpoint(path)
        assert list(done) == ["vp0"]
        assert done["vp0"].report.traces_run == 2

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(str(path), [])
        (tmp_path / "ck.json.worker0").write_text(
            json.dumps({"format": "nope", "vps": []})
        )
        with pytest.raises(DataError):
            resume_checkpoint(str(path))

    def test_parallel_checkpoint_matches_inline(self, tmp_path):
        """The merged canonical checkpoint of a pool run equals the
        inline run's, and no worker partials are left behind."""
        spec = ScenarioSpec.make("mini", seed=1)
        path_inline = tmp_path / "inline.json"
        path_pool = tmp_path / "pool.json"
        run_parallel(spec, workers=1, checkpoint_path=str(path_inline))
        run_parallel(spec, workers=2, checkpoint_path=str(path_pool))
        inline = json.loads(path_inline.read_text())
        pooled = json.loads(path_pool.read_text())
        assert inline == pooled
        assert not list(tmp_path.glob("*.worker*"))


class TestAtomicCheckpoints:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        """A canonical checkpoint write that fails partway (here on a
        value JSON cannot encode, in the last VP's entry) leaves the
        previous checkpoint whole, so a resume can still read it."""
        spec = ScenarioSpec.make("mini", seed=1)
        path = tmp_path / "ck.json"
        orchestrator = ParallelOrchestrator(
            spec, workers=1, checkpoint_path=str(path)
        )
        orchestrator.run()
        before = path.read_text()
        entries = json.loads(before)["vps"]
        entries[-1]["metrics"] = {"counters": {"poison": object()}}
        with pytest.raises(TypeError):
            write_checkpoint(str(path), entries)
        assert path.read_text() == before
        results, _ = load_checkpoint(str(path))
        assert len(results) == len(entries)
        assert not list(tmp_path.glob("*.tmp"))

    def test_resume_ignores_a_stranded_temp_file(self, tmp_path):
        """A crash inside an atomic write strands its temp file next to
        the worker partials; resume must not read it as one, and the
        merged checkpoint's write clears it."""
        spec = ScenarioSpec.make("mini", seed=1)
        path = tmp_path / "ck.json"
        fresh = run_parallel(spec, workers=1, checkpoint_path=str(path))
        (tmp_path / "ck.json.worker0.x1y2.tmp").write_text('{"format": "')
        (tmp_path / "ck.json.a3b4.tmp").write_text('{"format": "')
        resumed = ParallelOrchestrator(
            spec, workers=1, checkpoint_path=str(path), resume=True
        ).run()
        assert canon(resumed) == canon(fresh)
        assert not list(tmp_path.glob("*.tmp"))


class TestParallelResume:
    def test_resume_skips_done_vps_and_matches_fresh(self, tmp_path):
        spec = ScenarioSpec.make("mini", seed=7)
        path = tmp_path / "ck.json"
        fresh_registry = MetricsRegistry()
        fresh = run_parallel(
            spec, workers=1, checkpoint_path=str(path),
            metrics=fresh_registry,
        )
        # Strand a "crashed" run: keep only the first VP's entry, as a
        # leftover worker partial rather than a canonical checkpoint.
        data = json.loads(path.read_text())
        partial = dict(data, vps=data["vps"][:1])
        (tmp_path / "ck.json.worker1").write_text(json.dumps(partial))
        path.unlink()

        resumed_registry = MetricsRegistry()
        orchestrator = ParallelOrchestrator(
            spec, workers=1, checkpoint_path=str(path), resume=True,
            metrics=resumed_registry,
        )
        resumed = orchestrator.run()
        assert orchestrator.resumed_vps \
            == {data["vps"][0]["report"]["vp_name"]}
        assert canon(resumed) == canon(fresh)
        # Satellite: replayed deltas mean no loss and no double count.
        assert comparable(resumed_registry) == comparable(fresh_registry)
        # The resumed run folds everything back into the canonical file
        # (stored per-VP timers are wall-clock, hence not byte-stable).
        def strip_timers(checkpoint):
            for entry in checkpoint["vps"]:
                entry.get("metrics", {}).pop("timers", None)
            return checkpoint

        assert strip_timers(json.loads(path.read_text())) \
            == strip_timers(data)
        assert not list(tmp_path.glob("*.worker*"))

    def test_fully_checkpointed_run_reruns_nothing(self, tmp_path):
        spec = ScenarioSpec.make("mini", seed=1)
        path = tmp_path / "ck.json"
        fresh_registry = MetricsRegistry()
        fresh = run_parallel(
            spec, workers=1, checkpoint_path=str(path),
            metrics=fresh_registry,
        )
        resumed_registry = MetricsRegistry()
        orchestrator = ParallelOrchestrator(
            spec, workers=4, checkpoint_path=str(path), resume=True,
            metrics=resumed_registry,
        )
        resumed = orchestrator.run()
        assert len(orchestrator.resumed_vps) == len(fresh.results)
        assert canon(resumed) == canon(fresh)
        want, got = comparable(fresh_registry), comparable(resumed_registry)
        assert want["gauges"].pop("run.workers") == 1
        assert got["gauges"].pop("run.workers") == 4
        assert want == got


    def test_second_crash_keeps_stranded_partials(self, tmp_path,
                                                  monkeypatch):
        """A resume folds stranded partials into the canonical file
        before its own workers write partials of the same names, so a
        resumed run that crashes too loses none of them."""
        spec = ScenarioSpec.make("mini", seed=7)
        path = tmp_path / "ck.json"
        run_parallel(spec, workers=1, checkpoint_path=str(path))
        data = json.loads(path.read_text())
        (tmp_path / "ck.json.worker0").write_text(
            json.dumps(dict(data, vps=data["vps"][:1]))
        )
        path.unlink()

        def power_loss(*args):
            raise RuntimeError("power loss")

        monkeypatch.setattr(ParallelOrchestrator, "_merge", power_loss)
        with pytest.raises(RuntimeError):
            ParallelOrchestrator(
                spec, workers=1, checkpoint_path=str(path), resume=True
            ).run()
        assert set(resume_checkpoint(str(path))) \
            == {entry["report"]["vp_name"] for entry in data["vps"]}


class TestSequentialResumeMetrics:
    """Satellite: MultiVPOrchestrator --resume must not re-earn (or
    lose) the checkpointed VPs' counters."""

    @staticmethod
    def _run(checkpoint, resume=False):
        scenario = build_scenario(mini(seed=5))
        registry = MetricsRegistry()
        orchestrator = MultiVPOrchestrator(
            scenario,
            interleave=False,
            share_alias_evidence=False,
            checkpoint_path=checkpoint,
            resume=resume,
            metrics=registry,
        )
        return orchestrator.run(), registry, orchestrator

    def test_resumed_registry_equals_fresh(self, tmp_path):
        path = str(tmp_path / "ck.json")
        fresh, fresh_registry, _ = self._run(path)
        resumed, resumed_registry, orchestrator = self._run(path, resume=True)
        assert orchestrator.resumed_vps \
            == {vp.vp_name for vp in fresh.report.vp_reports}
        assert canon(resumed) == canon(fresh)
        assert comparable(resumed_registry) == comparable(fresh_registry)

    def test_checkpoint_carries_per_vp_deltas(self, tmp_path):
        path = tmp_path / "ck.json"
        fresh, fresh_registry, _ = self._run(str(path))
        deltas = {
            name: vp.metrics
            for name, vp in resume_checkpoint(str(path)).items()
        }
        assert set(deltas) == {vp.vp_name for vp in fresh.report.vp_reports}
        merged = MetricsRegistry()
        for vp in fresh.report.vp_reports:
            merged.merge_delta(deltas[vp.vp_name])
        # The deltas alone rebuild every per-VP counter; only the
        # run-level gauge set outside any VP is extra.
        want = comparable(fresh_registry)
        assert want["gauges"].pop("run.vps") == 2
        got = comparable(merged)
        got["gauges"].pop("run.vps", None)
        assert got["counters"] == want["counters"]
        assert got["histograms"] == want["histograms"]


class TestFailedVPIsolation:
    def test_crashing_vp_reported_not_fatal(self, monkeypatch):
        import repro.core.parallel as parallel_module

        spec = ScenarioSpec.make("mini", seed=1)
        scenario = spec.build()
        doomed = scenario.vps[0].name
        real_run = parallel_module.Bdrmap.run

        def exploding_run(self):
            if self.vp.name == doomed:
                raise RuntimeError("probe budget exhausted")
            return real_run(self)

        monkeypatch.setattr(parallel_module.Bdrmap, "run", exploding_run)
        registry = MetricsRegistry()
        run = ParallelOrchestrator(
            spec, scenario=scenario, workers=1, metrics=registry
        ).run()
        assert len(run.results) == len(scenario.vps) - 1
        failed = [vp for vp in run.report.vp_reports if vp.failed]
        assert [vp.vp_name for vp in failed] == [doomed]
        assert "probe budget exhausted" in failed[0].error
        assert registry.counter("run.vps_failed") == 1
        assert registry.counter("run.vps_completed") == len(run.results)

    def test_failed_vp_not_checkpointed(self, monkeypatch, tmp_path):
        import repro.core.parallel as parallel_module

        spec = ScenarioSpec.make("mini", seed=1)
        scenario = spec.build()
        doomed = scenario.vps[0].name
        real_run = parallel_module.Bdrmap.run

        def exploding_run(self):
            if self.vp.name == doomed:
                raise RuntimeError("boom")
            return real_run(self)

        monkeypatch.setattr(parallel_module.Bdrmap, "run", exploding_run)
        path = tmp_path / "ck.json"
        ParallelOrchestrator(
            spec, scenario=scenario, workers=1, checkpoint_path=str(path)
        ).run()
        names = [
            entry["report"]["vp_name"]
            for entry in json.loads(path.read_text())["vps"]
        ]
        assert doomed not in names
        assert len(names) == len(scenario.vps) - 1


class TestStopSetSharing:
    def test_unshared_views_are_independent(self):
        stop = StopSet()
        stop.for_target(("a",)).add(1)
        assert 1 not in stop.for_target(("b",))
        assert 1 in stop.for_target(("a",))

    def test_shared_views_see_global_set(self):
        stop = StopSet(shared=True)
        view_a = stop.for_target(("a",))
        view_a.add(1)
        assert 1 in stop.for_target(("b",))
        assert 1 in stop.global_set

    def test_sharing_saves_probes(self):
        """Cross-target stop-set sharing stops traces earlier, so the
        same VP spends fewer probes for the same topology."""

        def probes_with(share):
            scenario = build_scenario(mini(seed=3))
            data = build_data_bundle(scenario)
            config = CollectionConfig(share_stop_sets=share)
            vp = scenario.vps[0]
            collector = Collector(
                scenario.network, vp.addr, data.view, data.vp_ases, config
            )
            collector.run()
            return scenario.network.probes_sent

        assert probes_with(True) < probes_with(False)
