"""The parallel multi-VP collection engine (§5.8 at process scale).

The legacy :class:`~repro.core.orchestrator.MultiVPOrchestrator` drives
every VP against **one** shared simulator, so its VPs are coupled through
the virtual clock, the IPID streams, and (optionally) a shared alias
resolver.  That coupling is faithful to one central box driving scamper
on many VPs — but it pins the whole run to one CPU.

This engine trades the coupling for throughput, with a determinism
contract strong enough that the trade is observable only in wall-clock
time:

* **Per-VP isolation.**  Every VP runs against freshly-reset network
  state (:meth:`~repro.net.network.Network.reset`) on a scenario rebuilt
  from the same :class:`ScenarioSpec`, with its own metrics registry and
  its own alias resolver.  A VP's result is therefore a pure function of
  ``(spec, vp, config)`` — independent of which worker ran it, how many
  workers there were, or what ran before it.
* **Deterministic merge.**  Per-VP results, reports, metrics deltas,
  fault counts, and alias evidence are merged **in VP order**, so the
  assembled :class:`~repro.core.orchestrator.OrchestratedRun` (and its
  :func:`~repro.io.serialize.orchestrated_run_to_dict` serialization) is
  byte-identical for ``workers=1`` and ``workers=N``.

Workers are ``spawn``-context processes: each rebuilds the scenario from
the picklable spec once, then runs its share of VPs (stride-sharded)
with a :meth:`Network.reset` between VPs — build cost is amortised
across the shard, and the warm
:class:`~repro.net.routing.RoutingOracle` caches carry over safely
because they are pure functions of the static topology.

Checkpoints go through :mod:`repro.io.serialize`, like the sequential
orchestrator's: each worker writes a partial checkpoint
(``<path>.worker<K>``) after every VP, and the parent folds the partials
into the canonical checkpoint at ``<path>`` on join.
Both writes are atomic, so a crash mid-write leaves the previous file.
``resume=True`` reloads the canonical checkpoint *and* any leftover
partials from a crashed run, skips the completed VPs, and replays their
stored metrics deltas so the resumed registry equals a fresh run's.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.trace import NULL_TRACER, Tracer
from .bdrmap import Bdrmap, BdrmapConfig, build_data_bundle
from .orchestrator import (
    OrchestratedRun,
    RunReport,
    _failed_vp_report,
    _vp_report_from_state,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe for rebuilding a scenario in a worker process.

    Carries everything a worker needs: the registered factory name, the
    seed, factory keyword overrides, and the fault profile — a built
    ``Scenario`` holds an un-picklable object graph, but its recipe is
    three scalars and a dict.
    """

    name: str
    seed: Optional[int] = None
    factory_kwargs: Tuple[Tuple[str, Any], ...] = ()
    fault_profile: str = "clean"
    fault_seed: int = 0

    @classmethod
    def make(cls, name: str, seed: Optional[int] = None,
             fault_profile: str = "clean", fault_seed: int = 0,
             **kwargs) -> "ScenarioSpec":
        return cls(
            name=name,
            seed=seed,
            factory_kwargs=tuple(sorted(kwargs.items())),
            fault_profile=fault_profile,
            fault_seed=fault_seed,
        )

    def build(self):
        """Rebuild the scenario (with its fault plan, if any)."""
        from ..topology import build_scenario, scenario_config

        scenario = build_scenario(
            scenario_config(
                self.name, seed=self.seed, **dict(self.factory_kwargs)
            )
        )
        if self.fault_profile != "clean":
            from ..net.faults import make_fault_plan

            scenario.network.faults = make_fault_plan(
                self.fault_profile, seed=self.fault_seed
            )
        return scenario


# ---------------------------------------------------------------- worker side


def _run_single_vp(scenario, data, index: int, config: BdrmapConfig,
                   collect_metrics: bool) -> Dict[str, Any]:
    """Run one VP against freshly-reset network state; return a picklable
    payload (report, and for a completed VP its result, metrics, faults
    and alias evidence) for the merge step."""
    from ..io.serialize import evidence_to_list

    network = scenario.network
    network.reset()
    vp = scenario.vps[index]
    metrics = MetricsRegistry() if collect_metrics else None
    if metrics is not None:
        network.attach_metrics(metrics)
    driver = Bdrmap(
        network, vp, data, config, resolver=None, metrics=metrics
    )
    try:
        result = driver.run()
    except Exception as exc:  # noqa: BLE001 - isolate the VP
        return {"vp": vp.name, "report": _failed_vp_report(vp, exc)}
    payload: Dict[str, Any] = {
        "vp": vp.name,
        "report": _vp_report_from_state(driver.state, result),
        "result": result,
        "metrics": metrics.as_dict() if metrics is not None else None,
    }
    if network.faults is not None:
        payload["faults"] = {
            name: count
            for name, count in network.faults.stats.as_dict().items()
            if count
        }
    resolver = (
        driver.collection.resolver if driver.collection is not None else None
    )
    if resolver is not None:
        payload["evidence"] = evidence_to_list(resolver.evidence)
    return payload


def _run_shard(scenario, data, indices: List[int], config: BdrmapConfig,
               collect_metrics: bool, checkpoint_path: Optional[str],
               worker: int, tracer: Tracer = NULL_TRACER
               ) -> List[Dict[str, Any]]:
    """Run a shard of VPs with a network reset between them, writing the
    completed ones to the worker's partial checkpoint after each VP."""
    from ..io.serialize import checkpoint_entry, write_checkpoint

    payloads: List[Dict[str, Any]] = []
    entries = []
    for index in indices:
        with tracer.span("vp." + scenario.vps[index].name):
            payload = _run_single_vp(
                scenario, data, index, config, collect_metrics
            )
        payloads.append(payload)
        if checkpoint_path and "result" in payload:
            entries.append(checkpoint_entry(
                payload["result"], payload["report"], payload["metrics"]
            ))
            write_checkpoint(checkpoint_path, entries, worker=worker)
    return payloads


def _worker_run(spec: ScenarioSpec, indices: List[int],
                config: BdrmapConfig, collect_metrics: bool,
                checkpoint_path: Optional[str],
                worker: int) -> List[Dict[str, Any]]:
    """Process entry point: build the scenario once, then run a shard."""
    scenario = spec.build()
    return _run_shard(
        scenario, build_data_bundle(scenario), indices, config,
        collect_metrics, checkpoint_path, worker,
    )


# ---------------------------------------------------------------- parent side


class ParallelOrchestrator:
    """Shard a scenario's VPs across worker processes and merge the
    results back into one :class:`OrchestratedRun`.

    ``workers <= 1`` runs the same engine inline (no subprocesses) — the
    byte-identity baseline the determinism tests compare against.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        scenario=None,
        data=None,
        config: Optional[BdrmapConfig] = None,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.scenario = scenario
        self.data = data
        self.config = config or BdrmapConfig()
        self.workers = workers
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.resumed_vps: set = set()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- merge ----------------------------------------------------------------

    def _merge(self, scenario, done, fresh: Dict[str, Dict[str, Any]]
               ) -> OrchestratedRun:
        """Assemble the run in VP order from resumed VPs and fresh
        payloads; merge metrics deltas, fault counts, and evidence, and
        fold everything completed into the canonical checkpoint."""
        from ..alias import AliasResolver
        from ..io.serialize import (
            checkpoint_entry,
            evidence_into_store,
            write_checkpoint,
        )

        report = RunReport(
            focal_asn=scenario.focal_asn,
            vp_ases=set(scenario.vp_as_list),
            interleaved=False,
            shared_aliases=False,
        )
        results = []
        entries = []
        fault_totals: Dict[str, int] = {}
        resolver = AliasResolver(network=None, vp_addr=0)
        merged_evidence = False
        for vp in scenario.vps:
            payload = fresh.get(vp.name)
            if payload is None:
                if vp.name not in done:
                    continue  # resumed run where the VP never completed
                payload = done[vp.name]._asdict()
            vp_report = payload["report"]
            report.vp_reports.append(vp_report)
            if vp_report.failed:
                self.metrics.inc("run.vps_failed")
                continue
            results.append(payload["result"])
            if payload["metrics"] is not None:
                self.metrics.merge_delta(payload["metrics"])
            self.metrics.inc("run.vps_completed")
            if self.checkpoint_path:
                entries.append(checkpoint_entry(
                    payload["result"], vp_report, payload["metrics"]
                ))
            for name, count in payload.get("faults", {}).items():
                fault_totals[name] = fault_totals.get(name, 0) + count
            if "evidence" in payload:
                evidence_into_store(payload["evidence"], resolver.evidence)
                merged_evidence = True
        if self.checkpoint_path:
            write_checkpoint(self.checkpoint_path, entries)
        report.fault_counts = {
            name: count for name, count in fault_totals.items() if count
        }
        return OrchestratedRun(
            results=results,
            report=report,
            shared_resolver=resolver if merged_evidence else None,
        )

    # -- run ------------------------------------------------------------------

    def run(self) -> OrchestratedRun:
        done = {}
        if self.resume and self.checkpoint_path:
            from ..io.serialize import resume_checkpoint

            done = resume_checkpoint(self.checkpoint_path)
        if self.scenario is None:
            self.scenario = self.spec.build()
        scenario = self.scenario
        self.resumed_vps = {vp.name for vp in scenario.vps if vp.name in done}
        if self.metrics.enabled:
            self.metrics.set_gauge("run.vps", len(scenario.vps))
            self.metrics.set_gauge("run.workers", self.workers)
        todo = [
            index for index, vp in enumerate(scenario.vps)
            if vp.name not in done
        ]
        collect_metrics = self.metrics.enabled
        with self.tracer.span("parallel.collect", workers=self.workers):
            if self.workers <= 1 or len(todo) <= 1:
                if self.data is None:
                    self.data = build_data_bundle(scenario)
                payloads = _run_shard(
                    scenario, self.data, todo, self.config, collect_metrics,
                    self.checkpoint_path, worker=0, tracer=self.tracer,
                )
            else:
                payloads = self._run_pool(todo, collect_metrics)
        # Replay resumed VPs' deltas too: fresh registry == resumed one.
        with self.tracer.span("parallel.merge"):
            return self._merge(
                scenario, done,
                {payload["vp"]: payload for payload in payloads},
            )

    def _run_pool(self, todo: List[int],
                  collect_metrics: bool) -> List[Dict[str, Any]]:
        """Stride-shard the remaining VPs across spawn-context workers."""
        import multiprocessing

        workers = min(self.workers, len(todo))
        shards = [todo[k::workers] for k in range(workers)]
        context = multiprocessing.get_context("spawn")
        payloads: List[Dict[str, Any]] = []
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = [
                pool.submit(
                    _worker_run,
                    self.spec,
                    shard,
                    self.config,
                    collect_metrics,
                    self.checkpoint_path,
                    k,
                )
                for k, shard in enumerate(shards)
            ]
            for future in futures:
                payloads.extend(future.result())
        return payloads


def run_parallel(spec: ScenarioSpec, **kwargs) -> OrchestratedRun:
    """One-call convenience wrapper around :class:`ParallelOrchestrator`."""
    return ParallelOrchestrator(spec, **kwargs).run()
