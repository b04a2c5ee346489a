"""The multi-VP orchestrator (§5.8, §6).

The paper's deployment is one central system driving many VPs whose input
data is shared: the BGP view, relationship inferences, RIR/IXP datasets —
and the alias evidence, because aliases are a property of routers, not of
vantage points.  :class:`MultiVPOrchestrator` builds the
:class:`~repro.core.bdrmap.DataBundle` once, optionally shares one
:class:`~repro.alias.AliasResolver` across VPs, and (by default)
interleaves every VP's traceroute tasks through one
:class:`~repro.probing.scheduler.RoundRobinScheduler`, so N VPs probe
concurrently in virtual time instead of taking turns.

Each run emits a :class:`RunReport`: per-VP and per-stage virtual-time and
probe accounting plus per-heuristic-pass assignment counts keyed by the
Table 1 reason labels.  Reports round-trip through
:mod:`repro.io.serialize`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..alias import AliasResolver
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.trace import NULL_TRACER, Tracer
from .bdrmap import (
    Bdrmap,
    BdrmapConfig,
    DataBundle,
    build_data_bundle,
    result_from_state,
)
from .collection import Collector
from .pipeline import (
    GraphBuildStage,
    InferenceStage,
    Pipeline,
    PipelineState,
    StageTiming,
)
from .report import BdrmapResult
from ..probing.scheduler import RoundRobinScheduler

REPORT_FORMAT = "bdrmap-repro-report/1"


@dataclass
class VPReport:
    """Per-VP accounting for one orchestrated run."""

    vp_name: str
    vp_addr: int
    traces_run: int = 0
    probes_used: int = 0
    links: int = 0
    neighbor_ases: int = 0
    stage_timings: List[StageTiming] = field(default_factory=list)
    # Assignments per pass name and per Table 1 reason label.
    pass_counts: Dict[str, int] = field(default_factory=dict)
    reason_counts: Dict[str, int] = field(default_factory=dict)
    # Resilience accounting: probe retries spent, heuristic passes that
    # degraded on partial evidence, and crash isolation (a VP whose run
    # raised is reported failed; the rest of the run continues).
    retries: int = 0
    degradation_counts: Dict[str, int] = field(default_factory=dict)
    failed: bool = False
    error: Optional[str] = None


@dataclass
class RunReport:
    """What a multi-VP orchestrated run did, per VP, stage, and pass."""

    focal_asn: int
    vp_ases: Set[int] = field(default_factory=set)
    interleaved: bool = False
    shared_aliases: bool = False
    vp_reports: List[VPReport] = field(default_factory=list)
    # Work not attributable to a single VP (the interleaved traceroute
    # phase, where all VPs' probing shares the scheduler).
    global_timings: List[StageTiming] = field(default_factory=list)
    # What the network's FaultPlan injected (empty when no faults ran),
    # and probing tasks that crashed inside the shared scheduler.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    task_failures: int = 0

    @property
    def total_probes(self) -> int:
        return sum(vp.probes_used for vp in self.vp_reports)

    @property
    def total_traces(self) -> int:
        return sum(vp.traces_run for vp in self.vp_reports)

    @property
    def total_virtual_seconds(self) -> float:
        per_vp = sum(
            timing.virtual_seconds
            for vp in self.vp_reports
            for timing in vp.stage_timings
        )
        shared = sum(t.virtual_seconds for t in self.global_timings)
        return per_vp + shared

    @property
    def total_retries(self) -> int:
        return sum(vp.retries for vp in self.vp_reports)

    @property
    def failed_vps(self) -> List[str]:
        return [vp.vp_name for vp in self.vp_reports if vp.failed]

    def degradation_totals(self) -> Counter:
        """Per-pass degradation counts summed over VPs."""
        totals: Counter = Counter()
        for vp in self.vp_reports:
            totals.update(vp.degradation_counts)
        return totals

    def pass_totals(self) -> Counter:
        """Per-pass assignment counts summed over VPs."""
        totals: Counter = Counter()
        for vp in self.vp_reports:
            totals.update(vp.pass_counts)
        return totals

    def reason_totals(self) -> Counter:
        """Per-Table-1-label assignment counts summed over VPs."""
        totals: Counter = Counter()
        for vp in self.vp_reports:
            totals.update(vp.reason_counts)
        return totals

    def summary(self) -> str:
        mode = "interleaved" if self.interleaved else "sequential"
        sharing = "shared" if self.shared_aliases else "independent"
        lines = [
            "orchestrated run for AS%d: %d VPs (%s collection, %s aliases)"
            % (self.focal_asn, len(self.vp_reports), mode, sharing),
            "  traces: %d   probes: %d   virtual time: %.0fs"
            % (self.total_traces, self.total_probes,
               self.total_virtual_seconds),
        ]
        for timing in self.global_timings:
            lines.append(
                "  [shared] %s=%.0fs/%dp"
                % (timing.name, timing.virtual_seconds, timing.probes)
            )
        for vp in self.vp_reports:
            if vp.failed:
                lines.append(
                    "  %-10s FAILED: %s" % (vp.vp_name, vp.error or "?")
                )
                continue
            stage_text = "  ".join(
                "%s=%.0fs/%dp" % (t.name, t.virtual_seconds, t.probes)
                for t in vp.stage_timings
            )
            lines.append(
                "  %-10s traces=%-4d probes=%-6d links=%-3d (%d ASes)  %s"
                % (vp.vp_name, vp.traces_run, vp.probes_used, vp.links,
                   vp.neighbor_ases, stage_text)
            )
        reasons = self.reason_totals()
        if reasons:
            lines.append(
                "  per-pass assignments: %s"
                % ", ".join(
                    "%s=%d" % (label, count)
                    for label, count in sorted(reasons.items())
                )
            )
        degraded = self.degradation_totals()
        if (self.total_retries or degraded or self.task_failures
                or self.failed_vps):
            lines.append(
                "  resilience: retries=%d degraded_passes=%d "
                "task_failures=%d failed_vps=%d"
                % (self.total_retries, sum(degraded.values()),
                   self.task_failures, len(self.failed_vps))
            )
        if self.fault_counts:
            lines.append(
                "  faults injected: %s"
                % ", ".join(
                    "%s=%d" % (name, count)
                    for name, count in sorted(self.fault_counts.items())
                )
            )
        return "\n".join(lines)


@dataclass
class OrchestratedRun:
    """Results plus accounting from one orchestrated multi-VP run."""

    results: List[BdrmapResult]
    report: RunReport
    shared_resolver: Optional[AliasResolver] = None

    def total_probes(self) -> int:
        return sum(result.probes_used for result in self.results)

    def all_links(self):
        """Union of inferred links across VPs (deduplicated per VP only —
        cross-VP identity needs ground truth or address comparison)."""
        return [link for result in self.results for link in result.links]

    def to_border_map(self, data: Optional[DataBundle] = None,
                      epoch: int = 0, source: str = ""):
        """Compile this run into a served
        :class:`~repro.serving.bordermap.BorderMap` artifact.

        Pass the run's :class:`DataBundle` to include the BGP
        longest-prefix-match index and relationship labels; without it
        the map answers from interface evidence alone.
        """
        from ..serving import compile_border_map

        return compile_border_map(
            self.results,
            view=data.view if data is not None else None,
            rels=data.rels if data is not None else None,
            epoch=epoch,
            source=source,
        )


def _vp_report_from_state(state: PipelineState,
                          result: BdrmapResult) -> VPReport:
    ctx = state.ctx
    collection = state.collection
    retries = 0
    if collection is not None and collection.retry_stats is not None:
        retries = collection.retry_stats.retries
    return VPReport(
        vp_name=state.vp_name,
        vp_addr=state.vp_addr,
        traces_run=result.traces_run,
        probes_used=result.probes_used,
        links=len(result.links),
        neighbor_ases=len(result.neighbor_ases()),
        stage_timings=list(state.timings),
        pass_counts=dict(ctx.pass_counts) if ctx is not None else {},
        reason_counts=dict(ctx.reason_counts) if ctx is not None else {},
        retries=retries,
        degradation_counts=(
            dict(ctx.degradations) if ctx is not None else {}
        ),
    )


def _failed_vp_report(vp, exc: BaseException) -> VPReport:
    """A placeholder report for a VP whose run crashed: the failure is
    isolated and recorded instead of killing the whole orchestrated run."""
    return VPReport(
        vp_name=vp.name,
        vp_addr=vp.addr,
        failed=True,
        error="%s: %s" % (type(exc).__name__, exc),
    )


class MultiVPOrchestrator:
    """Drive bdrmap from every VP of a scenario off one shared data set.

    ``interleave=True`` (the central-system behaviour) feeds every VP's
    traceroute tasks into a single round-robin scheduler so the VPs probe
    concurrently in virtual time; ``interleave=False`` runs the VPs one
    after another and is byte-identical to sequential
    :func:`~repro.core.bdrmap.run_bdrmap` calls with a shared bundle.

    ``share_alias_evidence=True`` reuses one alias resolver across VPs:
    the first VP pays the full Ally cost, later VPs reuse verdicts and
    only test pairs they alone observed.  Stop sets are *never* shared:
    they encode per-VP forward paths, and §6's analyses depend on each VP
    observing its own egresses.

    A VP whose run raises is reported as a failed :class:`VPReport`
    instead of killing the run.  With ``checkpoint_path`` set, completed
    per-VP results are written after each VP finishes; ``resume=True``
    reloads that file and skips the VPs it already holds, so a crashed or
    interrupted run picks up where it left off.
    """

    def __init__(
        self,
        scenario,
        data: Optional[DataBundle] = None,
        config: Optional[BdrmapConfig] = None,
        share_alias_evidence: bool = True,
        interleave: bool = True,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scenario = scenario
        self.data = data
        self.config = config or BdrmapConfig()
        self.share_alias_evidence = share_alias_evidence
        self.interleave = interleave
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.resumed_vps: Set[str] = set()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # vp_name -> checkpoint entry of each completed VP (resumed ones
        # included, so a write never drops them); built only when
        # checkpointing.
        self._entries: Dict[str, Dict] = {}

    # -- checkpointing --------------------------------------------------------

    def _resume(self) -> Dict:
        """vp_name -> :class:`~repro.io.serialize.SavedVP` for each VP a
        previous run completed, or nothing when not resuming."""
        if not (self.resume and self.checkpoint_path):
            return {}
        from ..io.serialize import checkpoint_entry, resume_checkpoint

        done = resume_checkpoint(self.checkpoint_path)
        self.resumed_vps = {
            vp.name for vp in self.scenario.vps if vp.name in done
        }
        self._entries = {
            name: checkpoint_entry(*done[name]) for name in self.resumed_vps
        }
        return done

    def _add(self, run: "OrchestratedRun", result: BdrmapResult,
             vp_report: VPReport, delta: Optional[Dict] = None,
             resumed: bool = False) -> None:
        """Append one completed VP to ``run``.  A resumed VP's counters are
        replayed from its stored metrics delta (resumed registry ==
        fresh-run registry: no loss, no double count); a fresh one is
        checkpointed, with every other completed VP in VP order, as soon
        as it completes."""
        run.results.append(result)
        run.report.vp_reports.append(vp_report)
        if resumed:
            if delta is not None:
                self.metrics.merge_delta(delta)
        elif self.checkpoint_path:
            from ..io.serialize import checkpoint_entry, write_checkpoint

            self._entries[vp_report.vp_name] = checkpoint_entry(
                result, vp_report, delta
            )
            write_checkpoint(self.checkpoint_path, [
                self._entries[vp.name] for vp in self.scenario.vps
                if vp.name in self._entries
            ])

    def _shared_resolver(self) -> Optional[AliasResolver]:
        if not (self.share_alias_evidence and self.scenario.vps):
            return None
        return AliasResolver(
            self.scenario.network,
            self.scenario.vps[0].addr,
            ally_rounds=self.config.collection.ally_rounds,
            ally_interval=self.config.collection.ally_interval,
            metrics=self.metrics,
        )

    def run(self) -> OrchestratedRun:
        self._entries = {}
        done = self._resume()
        self.scenario.ensure_forwarding_current()
        if self.data is None:
            self.data = build_data_bundle(self.scenario)
        if self.metrics.enabled:
            self.scenario.network.attach_metrics(self.metrics)
            self.metrics.set_gauge("run.vps", len(self.scenario.vps))
        resolver = self._shared_resolver()
        if self.interleave:
            run = self._run_interleaved(resolver, done)
        else:
            run = self._run_sequential(resolver, done)
        run.report.vp_ases = set(self.data.vp_ases)
        run.report.shared_aliases = resolver is not None
        run.report.interleaved = self.interleave
        faults = getattr(self.scenario.network, "faults", None)
        if faults is not None:
            run.report.fault_counts = {
                name: count
                for name, count in faults.stats.as_dict().items()
                if count
            }
        return run

    # -- sequential (legacy-identical) ---------------------------------------

    def _run_sequential(self, resolver, done) -> OrchestratedRun:
        run = OrchestratedRun(
            results=[],
            report=RunReport(focal_asn=self.data.focal_asn),
            shared_resolver=resolver,
        )
        for vp in self.scenario.vps:
            if vp.name in done:
                self._add(run, *done[vp.name], resumed=True)
                continue
            driver = Bdrmap(
                self.scenario.network, vp, self.data, self.config,
                resolver=resolver,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            snapshot = (
                self.metrics.snapshot() if self.metrics.enabled else None
            )
            try:
                with self.tracer.span("vp." + vp.name):
                    result = driver.run()
            except Exception as exc:  # noqa: BLE001 - isolate the VP
                run.report.vp_reports.append(_failed_vp_report(vp, exc))
                self.metrics.inc("run.vps_failed")
                continue
            self.metrics.inc("run.vps_completed")
            # Per-VP attribution is exact here, so the delta is stored in
            # the checkpoint for a resumed run to replay.
            delta = (
                self.metrics.delta_since(snapshot)
                if snapshot is not None else None
            )
            self._add(
                run, result, _vp_report_from_state(driver.state, result),
                delta,
            )
        return run

    # -- interleaved ----------------------------------------------------------

    def _run_interleaved(self, resolver, done) -> OrchestratedRun:
        network = self.scenario.network
        collectors: Dict[str, Collector] = {
            vp.name: Collector(
                network,
                vp.addr,
                self.data.view,
                self.data.vp_ases,
                self.config.collection,
                resolver=resolver,
                metrics=self.metrics,
                label=vp.name,
            )
            for vp in self.scenario.vps
            if vp.name not in done
        }

        # Phase 1: every VP's traceroute tasks through one scheduler — the
        # VPs probe concurrently in virtual time.  Probe costs of this
        # phase are attributed per VP via per-trace accounting.  A task
        # that crashes is isolated by the scheduler; the other VPs'
        # probing completes and the failure count is surfaced.
        now_before = network.now
        probes_before = network.probes_sent
        scheduler = RoundRobinScheduler(
            parallelism=self.config.collection.parallelism,
            metrics=self.metrics,
            label="traceroute.interleaved",
        )
        for collector in collectors.values():
            scheduler.add_all(collector.traceroute_tasks())
        with self.tracer.span("stage.traceroute.interleaved"):
            scheduler.run(reraise=False)
        trace_phase = StageTiming(
            name="traceroute[interleaved]",
            virtual_seconds=network.now - now_before,
            probes=network.probes_sent - probes_before,
        )

        # Phase 2 per VP: alias resolution (reusing shared evidence when
        # enabled), then the downstream graph/inference stages.  Each VP
        # is crash-isolated: a failure yields a failed VPReport.
        run = OrchestratedRun(
            results=[],
            report=RunReport(
                focal_asn=self.data.focal_asn,
                global_timings=[trace_phase],
                task_failures=scheduler.tasks_failed,
            ),
            shared_resolver=resolver,
        )
        for vp in self.scenario.vps:
            if vp.name in done:
                self._add(run, *done[vp.name], resumed=True)
                continue
            collector = collectors[vp.name]
            try:
                with self.tracer.span("vp." + vp.name):
                    alias_now = network.now
                    alias_probes_before = network.probes_sent
                    with self.tracer.span("stage.alias", vp=vp.name):
                        collector.run_alias_resolution()
                    alias_probes = network.probes_sent - alias_probes_before
                    trace_probes = sum(
                        trace.probes_used
                        for trace in collector.collection.traces
                    )
                    collector.collection.probes_used = (
                        trace_probes + alias_probes
                    )
                    state = PipelineState(
                        network=network,
                        vp_name=vp.name,
                        vp_addr=vp.addr,
                        data=self.data,
                        config=self.config,
                        resolver=collector.collection.resolver,
                        collection=collector.collection,
                        metrics=self.metrics,
                        tracer=self.tracer,
                    )
                    state.timings.append(
                        StageTiming(
                            name="collection",
                            virtual_seconds=network.now - alias_now,
                            probes=collector.collection.probes_used,
                        )
                    )
                    Pipeline([GraphBuildStage(), InferenceStage()]).run(state)
                    result = result_from_state(state)
            except Exception as exc:  # noqa: BLE001 - isolate the VP
                run.report.vp_reports.append(_failed_vp_report(vp, exc))
                self.metrics.inc("run.vps_failed")
                continue
            self.metrics.inc("run.vps_completed")
            self._add(run, result, _vp_report_from_state(state, result))
        return run


def orchestrate(scenario, **kwargs) -> OrchestratedRun:
    """One-call convenience wrapper around :class:`MultiVPOrchestrator`."""
    return MultiVPOrchestrator(scenario, **kwargs).run()
