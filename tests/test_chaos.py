"""Chaos tests: the pipeline under escalating injected faults.

Marked ``chaos`` so CI can run them in a dedicated job (``pytest -m
chaos``); they also run in the default suite — each is a few seconds of
simulated probing, not wall-clock stress.
"""

import pytest

from repro import build_data_bundle, build_scenario, mini
from repro.analysis import run_chaos_suite, validate_result
from repro.core.bdrmap import BdrmapConfig
from repro.core.collection import CollectionConfig
from repro.core.orchestrator import MultiVPOrchestrator
from repro.net.faults import ChannelFaultPolicy, FaultConfig, FaultPlan
from repro.probing.retry import RetryPolicy

pytestmark = pytest.mark.chaos


def faulted_config():
    return BdrmapConfig(collection=CollectionConfig(retry=RetryPolicy()))


class TestEscalatingLoss:
    def test_accuracy_degrades_gracefully(self):
        """0/1/5/10% loss: every run completes, accuracy stays within
        margin of the clean baseline, counters are nonzero."""
        report = run_chaos_suite(loss_rates=(0.0, 0.01, 0.05, 0.10))
        assert len(report.runs) == 4
        assert all(run.completed for run in report.runs)
        assert report.degrades_gracefully()
        baseline = report.baseline
        assert baseline is not None and baseline.accuracy > 0.8
        for run in report.runs:
            if run.loss_rate > 0:
                assert run.faults_injected > 0
                assert run.retries > 0
        assert "graceful degradation: yes" in report.summary()

    def test_bursty_loss_also_survivable(self):
        report = run_chaos_suite(loss_rates=(0.0, 0.05), burst=True)
        assert all(run.completed for run in report.runs)
        assert report.degrades_gracefully()

    def test_heavy_profile_run_completes(self):
        """The kitchen sink — loss, bursts, storms, blackouts, flaps —
        must not raise out of the pipeline."""
        from repro.net.faults import make_fault_plan

        scenario = build_scenario(mini(seed=5))
        scenario.network.faults = make_fault_plan("heavy", seed=3)
        run = MultiVPOrchestrator(
            scenario, config=faulted_config()
        ).run()
        assert run.results                      # at least one VP finished
        assert run.report.fault_counts          # faults actually fired
        assert run.report.total_retries > 0


class TestCrashIsolation:
    def test_sequential_vp_crash_yields_failed_report(self, monkeypatch):
        from repro.core import orchestrator as orch_mod

        scenario = build_scenario(mini(seed=2))
        doomed = scenario.vps[0].name
        real_bdrmap = orch_mod.Bdrmap

        class ExplodingBdrmap(real_bdrmap):
            def run(self):
                if self.vp.name == doomed:
                    raise RuntimeError("VP host rebooted mid-run")
                return super().run()

        monkeypatch.setattr(orch_mod, "Bdrmap", ExplodingBdrmap)
        run = MultiVPOrchestrator(scenario, interleave=False).run()
        assert len(run.results) == len(scenario.vps) - 1
        assert run.report.failed_vps == [doomed]
        failed = [vp for vp in run.report.vp_reports if vp.failed]
        assert len(failed) == 1
        assert "RuntimeError" in failed[0].error
        assert "FAILED" in run.report.summary()

    def test_interleaved_phase2_crash_isolated(self, monkeypatch):
        from repro.core import orchestrator as orch_mod

        scenario = build_scenario(mini(seed=2))
        doomed = scenario.vps[-1].name
        real_pipeline = orch_mod.Pipeline

        class ExplodingPipeline(real_pipeline):
            def run(self, state):
                if state.vp_name == doomed:
                    raise RuntimeError("inference host OOM")
                return super().run(state)

        monkeypatch.setattr(orch_mod, "Pipeline", ExplodingPipeline)
        run = MultiVPOrchestrator(scenario, interleave=True).run()
        assert len(run.results) == len(scenario.vps) - 1
        assert run.report.failed_vps == [doomed]

    def test_scheduler_task_failures_counted(self):
        from repro.core import orchestrator as orch_mod

        scenario = build_scenario(mini(seed=2))
        orchestrator = MultiVPOrchestrator(scenario, interleave=True)

        real_run = orch_mod.RoundRobinScheduler.run

        def boom():
            raise RuntimeError("probe task crashed")
            yield  # pragma: no cover - generator marker

        class Sabotaged(orch_mod.RoundRobinScheduler):
            def run(self, *args, **kwargs):
                self.add(boom())
                return real_run(self, *args, **kwargs)

        orch_mod_scheduler = orch_mod.RoundRobinScheduler
        orch_mod.RoundRobinScheduler = Sabotaged
        try:
            run = orchestrator.run()
        finally:
            orch_mod.RoundRobinScheduler = orch_mod_scheduler
        assert run.report.task_failures == 1
        assert len(run.results) == len(scenario.vps)
        assert "task_failures=1" in run.report.summary()


class TestCheckpointResume:
    def test_resume_skips_completed_vps(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        scenario = build_scenario(mini(seed=4))
        first = MultiVPOrchestrator(scenario, checkpoint_path=path)
        run_a = first.run()
        assert not first.resumed_vps

        fresh = build_scenario(mini(seed=4))
        second = MultiVPOrchestrator(
            fresh, checkpoint_path=path, resume=True
        )
        run_b = second.run()
        assert second.resumed_vps == {vp.name for vp in fresh.vps}
        # Resumed results come from the checkpoint: identical link sets.
        links_a = [
            sorted((l.near_rid, l.far_rid, l.neighbor_as)
                   for l in result.links)
            for result in run_a.results
        ]
        links_b = [
            sorted((l.near_rid, l.far_rid, l.neighbor_as)
                   for l in result.links)
            for result in run_b.results
        ]
        assert links_a == links_b
        # And nothing re-probed.
        assert fresh.network.probes_sent == 0

    def test_partial_checkpoint_resumes_remaining(self, tmp_path, monkeypatch):
        """Crash after VP0, resume: VP0 loads from disk, VP1 runs."""
        from repro.core import orchestrator as orch_mod

        path = str(tmp_path / "ckpt.json")
        scenario = build_scenario(mini(seed=4))
        doomed = scenario.vps[1].name
        real_bdrmap = orch_mod.Bdrmap

        class ExplodingBdrmap(real_bdrmap):
            def run(self):
                if self.vp.name == doomed:
                    raise RuntimeError("power loss")
                return super().run()

        monkeypatch.setattr(orch_mod, "Bdrmap", ExplodingBdrmap)
        crashed = MultiVPOrchestrator(
            scenario, interleave=False, checkpoint_path=path
        ).run()
        assert crashed.report.failed_vps == [doomed]
        monkeypatch.setattr(orch_mod, "Bdrmap", real_bdrmap)

        fresh = build_scenario(mini(seed=4))
        resumed_orch = MultiVPOrchestrator(
            fresh, interleave=False, checkpoint_path=path, resume=True
        )
        run = resumed_orch.run()
        assert resumed_orch.resumed_vps == {scenario.vps[0].name}
        assert len(run.results) == len(fresh.vps)
        assert not run.report.failed_vps


    @pytest.mark.parametrize("interleave", (False, True),
                             ids=["sequential", "interleaved"])
    def test_resumed_run_keeps_vp_order(self, tmp_path, interleave):
        """A checkpoint holding only the second VP (the first crashed):
        the resumed run and its checkpoint list the VPs in scenario
        order, because result order alone changes the compiled map."""
        import json

        from repro.io import load_checkpoint

        path = tmp_path / "ckpt.json"
        MultiVPOrchestrator(
            build_scenario(mini(seed=4)), interleave=interleave,
            checkpoint_path=str(path),
        ).run()
        data = json.loads(path.read_text())
        data["vps"] = data["vps"][1:]
        path.write_text(json.dumps(data))

        fresh = build_scenario(mini(seed=4))
        order = [vp.name for vp in fresh.vps]
        orchestrator = MultiVPOrchestrator(
            fresh, interleave=interleave, checkpoint_path=str(path),
            resume=True,
        )
        run = orchestrator.run()
        assert orchestrator.resumed_vps == {order[1]}
        assert [result.vp_name for result in run.results] == order
        assert [vp.vp_name for vp in run.report.vp_reports] == order
        assert [vp.vp_name for vp in load_checkpoint(str(path))[1]] == order


class TestFlakyChannel:
    def test_remote_run_survives_flaky_channel(self):
        from repro.remote import RemoteBdrmap

        scenario = build_scenario(mini(seed=6))
        data = build_data_bundle(scenario)
        driver = RemoteBdrmap(
            scenario.network, scenario.vps[0], data,
            channel_faults=ChannelFaultPolicy(
                drop_rate=0.03, garble_rate=0.03, sever_rate=0.02,
                delay_rate=0.05, delay_seconds=2.0, seed=9,
            ),
            channel_timeout_s=5.0,
            channel_retries=4,
        )
        result = driver.run()
        assert result.links
        counters = driver.stats.fault_counters
        assert counters                           # faults actually fired
        assert counters.get("retries", 0) > 0
        assert "channel faults:" in driver.stats.summary()
        # Accuracy survives a flaky control channel.
        score = validate_result(result, scenario.internet)
        assert score.accuracy > 0.7

    def test_faulted_network_and_channel_together(self):
        from repro.remote import RemoteBdrmap

        scenario = build_scenario(mini(seed=6))
        scenario.network.faults = FaultPlan(
            FaultConfig(loss_rate=0.03), seed=2
        )
        data = build_data_bundle(scenario)
        driver = RemoteBdrmap(
            scenario.network, scenario.vps[0], data,
            config=faulted_config(),
            channel_faults=ChannelFaultPolicy(drop_rate=0.02, seed=4),
        )
        result = driver.run()
        assert result.links
        assert scenario.network.faults.stats.total > 0


# -- the sharded serving tier under replica kills ----------------------------


@pytest.fixture(scope="module")
def shard_tier(mini_data, mini_result, tmp_path_factory):
    """Two epochs of the mini map as saved artifacts plus a workload."""
    from repro.io import save_border_map
    from repro.serving import compile_border_map, make_workload

    workdir = tmp_path_factory.mktemp("shard-chaos")
    bmap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="shard-chaos",
    )
    swap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=2, source="shard-chaos-swap",
    )
    old_path = str(workdir / "map-epoch1.json")
    new_path = str(workdir / "map-epoch2.json")
    save_border_map(bmap, old_path)
    save_border_map(swap, new_path)
    workload = make_workload(bmap, 160, seed=9)
    return old_path, new_path, workload


class TestShardTierChaos:
    """Satellite: kill a replica mid-batch and mid-epoch-swap; every
    answer must be correct for the epoch it claims or explicitly
    degraded, the supervisor must restart the victim, and the tier must
    re-converge on the committed epoch."""

    def test_replica_kills_degrade_gracefully(self, shard_tier):
        from repro.analysis import run_shard_chaos

        old_path, new_path, workload = shard_tier
        report = run_shard_chaos(
            old_path, workload, swap_path=new_path, swap_epoch=2,
            shards=3, seed=7,
        )
        assert [run.label for run in report.runs] == [
            "kill-mid-batch", "kill-mid-swap",
        ]
        for run in report.runs:
            assert run.completed, run.error
            assert run.answers >= len(workload)
            assert run.mismatched == 0      # never wrong-but-confident
            assert run.kills >= 1           # the scenario actually bit
            assert run.restarts >= run.kills
            assert run.converged
        assert report.degrades_gracefully()
        assert "graceful degradation: yes" in report.summary()

    def test_same_seed_same_degraded_answer_set(self, shard_tier):
        from repro.analysis import run_shard_chaos

        old_path, new_path, workload = shard_tier

        def fingerprint(seed):
            report = run_shard_chaos(
                old_path, workload, swap_path=new_path, swap_epoch=2,
                shards=3, seed=seed,
            )
            return [
                (run.label, run.kills, run.failovers, run.degraded_keys)
                for run in report.runs
            ]

        assert fingerprint(11) == fingerprint(11)

    def test_graceful_and_deterministic_under_channel_faults(
        self, shard_tier
    ):
        """Replica kills with a lossy, garbling, severing channel on
        top: still no mismatches, still reproducible."""
        from repro.analysis import run_shard_chaos

        old_path, new_path, workload = shard_tier
        faults = ChannelFaultPolicy(
            drop_rate=0.05, garble_rate=0.02, sever_rate=0.01
        )
        reports = [
            run_shard_chaos(
                old_path, workload, swap_path=new_path, swap_epoch=2,
                shards=3, seed=5, faults=faults,
            )
            for _ in range(2)
        ]
        for report in reports:
            assert report.degrades_gracefully()
            for run in report.runs:
                assert run.mismatched == 0
        assert [run.degraded_keys for run in reports[0].runs] == \
            [run.degraded_keys for run in reports[1].runs]
