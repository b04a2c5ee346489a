"""Chaos harness: bdrmap under escalating fault injection.

Runs the full pipeline over the same scenario at increasing packet-loss
levels (clean, then e.g. 1/5/10%) with retry/backoff probing enabled, and
scores each run against ground truth.  The point is the robustness
contract: under loss the pipeline must *degrade* — fewer links, slightly
lower accuracy, nonzero retry and degradation counters — rather than
crash or collapse.  :meth:`ChaosReport.degrades_gracefully` encodes that
check for tests and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.bdrmap import Bdrmap, BdrmapConfig, build_data_bundle
from ..core.collection import CollectionConfig
from ..net.faults import (
    ChannelFaultPolicy,
    FaultConfig,
    FaultPlan,
    GilbertElliott,
)
from ..obs.health import build_health_report
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.trace import NULL_TRACER
from ..probing.retry import RetryPolicy
from ..rng import make_rng
from .validation import validate_result


def _registry_retries(registry: MetricsRegistry) -> int:
    """Total probe retries recorded so far under any ``retry.*`` prefix."""
    return sum(
        value
        for name, value in registry.counters_with_prefix("retry.").items()
        if name.endswith(".retries")
    )


@dataclass
class ChaosRun:
    """One pipeline run at one fault level."""

    label: str
    loss_rate: float
    completed: bool
    accuracy: float = 0.0
    correct_links: int = 0
    total_links: int = 0
    probes_used: int = 0
    retries: int = 0
    faults_injected: int = 0
    error: Optional[str] = None

    def line(self) -> str:
        if not self.completed:
            return "  %-8s CRASHED: %s" % (self.label, self.error)
        return (
            "  %-8s accuracy=%5.1f%% (%d/%d links)  probes=%-6d "
            "retries=%-5d faults=%d"
            % (self.label, 100.0 * self.accuracy, self.correct_links,
               self.total_links, self.probes_used, self.retries,
               self.faults_injected)
        )


@dataclass
class ChaosReport:
    """Accuracy-vs-loss curve for one scenario."""

    scenario_name: str
    runs: List[ChaosRun] = field(default_factory=list)

    @property
    def baseline(self) -> Optional[ChaosRun]:
        for run in self.runs:
            if run.loss_rate == 0.0 and run.completed:
                return run
        return None

    def degrades_gracefully(self, max_drop: float = 0.35,
                            min_links_fraction: float = 0.5) -> bool:
        """True when every faulted run completed, kept accuracy within
        ``max_drop`` of the clean baseline, and still inferred at least
        ``min_links_fraction`` of the baseline's links."""
        baseline = self.baseline
        if baseline is None or baseline.total_links == 0:
            return False
        for run in self.runs:
            if not run.completed:
                return False
            if run.accuracy < baseline.accuracy - max_drop:
                return False
            if run.total_links < min_links_fraction * baseline.total_links:
                return False
        return True

    def summary(self) -> str:
        lines = ["chaos suite on %s:" % self.scenario_name]
        lines.extend(run.line() for run in self.runs)
        lines.append(
            "  graceful degradation: %s"
            % ("yes" if self.degrades_gracefully() else "NO")
        )
        return "\n".join(lines)


def run_chaos_suite(
    make_scenario: Optional[Callable[[], object]] = None,
    scenario_name: str = "mini",
    loss_rates: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
    burst: bool = False,
    fault_seed: int = 7,
    retry: Optional[RetryPolicy] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> ChaosReport:
    """Run bdrmap (first VP) once per loss rate and score each run.

    ``make_scenario`` must return a *fresh* scenario each call (virtual
    clocks and caches are mutated by a run); the default builds the
    ``mini`` topology.  Faulted runs get retry/backoff probing —
    ``retry`` overrides the default :class:`RetryPolicy`.

    ``metrics``/``tracer`` instrument the whole suite: per-level spans
    plus the shared counters every instrumented layer feeds.  Fault
    counters stay per-level (each level gets a fresh
    :class:`~repro.net.faults.FaultPlan` whose stats remain private), so
    ``ChaosRun.faults_injected`` is unchanged by instrumentation.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    if tracer is None:
        tracer = NULL_TRACER
    if make_scenario is None:
        from ..topology import build_scenario, mini

        def make_scenario():
            return build_scenario(mini())

    if retry is None:
        retry = RetryPolicy()
    burst_model: Optional[GilbertElliott] = None
    if burst:
        burst_model = burst if isinstance(burst, GilbertElliott) else GilbertElliott()
    report = ChaosReport(scenario_name=scenario_name)
    for loss_rate in loss_rates:
        label = "loss=%g%%" % (100.0 * loss_rate)
        scenario = make_scenario()
        if loss_rate > 0.0:
            config = FaultConfig(loss_rate=loss_rate, burst=burst_model)
            scenario.network.faults = FaultPlan(config, seed=fault_seed)
            bdr_config = BdrmapConfig(
                collection=CollectionConfig(retry=retry)
            )
        else:
            bdr_config = BdrmapConfig()
        # Share probe counters but NOT fault stats: assigning
        # ``network.metrics`` directly (instead of ``attach_metrics``)
        # leaves this level's FaultPlan counting into its own private
        # registry, so ``faults.stats.total`` below stays per-level.
        scenario.network.metrics = metrics
        retries_before = _registry_retries(metrics) if metrics.enabled else 0
        driver = Bdrmap(
            scenario.network, scenario.vps[0],
            build_data_bundle(scenario), bdr_config,
            metrics=metrics, tracer=tracer,
        )
        try:
            with tracer.span("chaos." + label, loss_rate=loss_rate):
                result = driver.run()
        except Exception as exc:  # noqa: BLE001 - the harness reports crashes
            report.runs.append(
                ChaosRun(
                    label=label,
                    loss_rate=loss_rate,
                    completed=False,
                    error="%s: %s" % (type(exc).__name__, exc),
                )
            )
            continue
        validation = validate_result(result, scenario.internet)
        faults = scenario.network.faults
        if metrics.enabled:
            # The registry accumulates across levels; the delta is this
            # level's share.
            retries = _registry_retries(metrics) - retries_before
        else:
            retries = 0
            if driver.collection is not None:
                retries += driver.collection.retry_stats.retries
                resolver = driver.collection.resolver
                if resolver is not None:
                    stats = getattr(resolver, "retry_stats", None)
                    if stats is not None:
                        retries += stats.retries
        report.runs.append(
            ChaosRun(
                label=label,
                loss_rate=loss_rate,
                completed=True,
                accuracy=validation.accuracy,
                correct_links=validation.correct,
                total_links=validation.total,
                probes_used=result.probes_used,
                retries=retries,
                faults_injected=faults.stats.total if faults else 0,
            )
        )
    return report

# ---------------------------------------------------------------- shard chaos
#
# The serving-tier counterpart of the suite above: instead of faulting the
# measurement plane, these scenarios kill replicas of the sharded read
# path (repro.serving.server) mid-batch and mid-epoch-swap and audit every
# answer against single-process oracles.  The robustness contract is
# *never wrong*: an answer is either byte-identical to the oracle for the
# epoch it claims, or explicitly marked degraded.


class KillableTransport:
    """An in-process shard transport that can die on schedule.

    ``kill_after`` arms a crash after that many total exchanges — the
    deterministic stand-in for "the process died right after acking the
    prepare" that the mid-swap scenario needs.
    """

    def __init__(self, artifact_path: str, shard_id: int = 0) -> None:
        from ..serving.shard import InProcessTransport

        self._inner = InProcessTransport(artifact_path, shard_id=shard_id)
        self.kill_after: Optional[int] = None

    @property
    def shard_id(self) -> int:
        return self._inner.shard_id

    @property
    def alive(self) -> bool:
        return self._inner.alive

    @property
    def exchanges(self) -> int:
        return self._inner.exchanges

    def exchange(self, data: bytes, deadline_s: float) -> bytes:
        out = self._inner.exchange(data, deadline_s)
        if self.kill_after is not None \
                and self._inner.exchanges >= self.kill_after:
            self.kill_after = None
            self._inner.kill()
        return out

    def kill(self) -> None:
        self._inner.kill()

    def restart(self, artifact_path: str, token: int = 0) -> None:
        self._inner.restart(artifact_path, token)

    def close(self) -> None:
        self._inner.close()


@dataclass
class ShardChaosRun:
    """One shard-kill scenario's audit."""

    label: str
    completed: bool
    answers: int = 0
    degraded: int = 0
    mismatched: int = 0      # not degraded AND wrong for claimed epoch
    kills: int = 0
    restarts: int = 0
    failovers: int = 0
    converged: bool = False
    degraded_keys: Tuple[Tuple[str, int], ...] = ()
    error: Optional[str] = None
    # SLO-scored HealthReport dict captured after the scenario settles
    # (only when the harness runs with telemetry enabled).
    health: Optional[Dict[str, object]] = None

    def line(self) -> str:
        if not self.completed:
            return "  %-12s CRASHED: %s" % (self.label, self.error)
        return (
            "  %-12s answers=%-5d degraded=%-4d mismatched=%-3d "
            "kills=%d restarts=%d failovers=%d converged=%s"
            % (self.label, self.answers, self.degraded, self.mismatched,
               self.kills, self.restarts, self.failovers,
               "yes" if self.converged else "NO")
        )


@dataclass
class ShardChaosReport:
    """Audit of the sharded tier under replica kills."""

    shards: int
    runs: List[ShardChaosRun] = field(default_factory=list)

    def degrades_gracefully(self) -> bool:
        """True when every scenario completed, never answered wrong,
        restarted every killed replica, and re-converged."""
        if not self.runs:
            return False
        for run in self.runs:
            if not run.completed or run.mismatched:
                return False
            if run.kills and run.restarts < run.kills:
                return False
            if not run.converged:
                return False
        return True

    def summary(self) -> str:
        lines = ["shard chaos (%d replicas):" % self.shards]
        lines.extend(run.line() for run in self.runs)
        lines.append(
            "  graceful degradation: %s"
            % ("yes" if self.degrades_gracefully() else "NO")
        )
        return "\n".join(lines)


def _audit_answers(answers, requests, oracles, committed_epoch,
                   run: ShardChaosRun) -> None:
    """Check a wave of answers: each must match the oracle for the epoch
    it claims, or carry the degraded marker."""
    oracle_answers: Dict[int, List] = {
        epoch: oracle.batch(list(requests))
        for epoch, oracle in oracles.items()
    }
    for position, answer in enumerate(answers):
        run.answers += 1
        if answer.degraded:
            run.degraded += 1
            run.degraded_keys += ((answer.op, answer.key),)
            if answer.value is None:
                continue  # shed/unavailable: no value to be wrong about
        expected = oracle_answers.get(answer.epoch)
        if expected is None or answer.value != expected[position].value:
            if not answer.degraded:
                run.mismatched += 1
            continue
        if not answer.degraded and answer.epoch != committed_epoch:
            # A stale epoch passed off as fresh: the exact failure the
            # degraded marker exists to prevent.
            run.mismatched += 1


def run_shard_chaos(
    artifact_path: str,
    workload: Sequence[Tuple[str, int]],
    swap_path: Optional[str] = None,
    swap_epoch: int = 2,
    shards: int = 3,
    batch_size: int = 32,
    seed: int = 7,
    faults: Optional[ChannelFaultPolicy] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> ShardChaosReport:
    """Kill replicas of a sharded server mid-batch and mid-swap and
    audit every answer against single-process oracles.

    Two scenarios run (the second only when ``swap_path`` is given):

    * ``kill-mid-batch`` — a seeded replica dies between query waves;
      the tier must fail over (answers stay byte-identical to the
      oracle) and the supervisor must restart the replica.
    * ``kill-mid-swap`` — a replica dies after acking phase one of an
      epoch swap but before its commit; the tier commits anyway, the
      dead replica restarts from the *committed* artifact, and until it
      does every answer is either new-epoch-correct or explicitly
      degraded.

    Fully deterministic: the kill schedule derives from ``seed`` via
    ``repro.rng`` and the tier runs in-process on a virtual clock, so
    the same seed reproduces the same degraded-answer set.
    """
    from ..io import load_border_map
    from ..serving.server import RestartPolicy, ShardedBorderServer, \
        VirtualClock
    from ..serving.service import BorderMapService
    from ..serving.shard import ShardChannel

    if metrics is None:
        metrics = NULL_REGISTRY
    if tracer is None:
        tracer = NULL_TRACER
    report = ShardChaosReport(shards=shards)
    workload = list(workload)
    old_map = load_border_map(artifact_path)
    oracles = {old_map.epoch: BorderMapService(old_map)}
    new_epoch = old_map.epoch
    if swap_path is not None:
        new_map = load_border_map(swap_path)
        oracles[swap_epoch] = BorderMapService(new_map)
        new_epoch = swap_epoch

    def build_server():
        clock = VirtualClock()
        transports = [
            KillableTransport(artifact_path, shard_id=shard_id)
            for shard_id in range(shards)
        ]
        channels = []
        for shard_id, transport in enumerate(transports):
            policy = None
            if faults is not None:
                policy = ChannelFaultPolicy(
                    drop_rate=faults.drop_rate,
                    garble_rate=faults.garble_rate,
                    sever_rate=faults.sever_rate,
                    delay_rate=faults.delay_rate,
                    delay_seconds=faults.delay_seconds,
                    seed=seed * 1000003 + shard_id,
                )
            channels.append(ShardChannel(
                transport, faults=policy, deadline_s=5.0,
                clock_advance=clock.advance,
            ))
        server = ShardedBorderServer(
            channels, artifact_path=artifact_path, epoch=old_map.epoch,
            clock=clock, reset_timeout_s=1.0,
            restart_policy=RestartPolicy(base_s=0.5, seed=seed),
            metrics=metrics, tracer=tracer,
        )
        return server, clock, transports

    def settle(server, clock, run, limit=12):
        """Tick (advancing time past breaker/backoff windows) until the
        tier converges on the committed token, within ``limit`` passes."""
        for _ in range(limit):
            clock.advance(2.0)
            server.tick()
            if server.supervisor.healthy_count() == shards \
                    and server.converged():
                run.converged = True
                return

    waves = [
        workload[start:start + batch_size]
        for start in range(0, len(workload), batch_size)
    ]

    # -- scenario 1: a replica dies between query waves ----------------------
    rng = make_rng(seed, "chaos", "shardkill")
    run = ShardChaosRun(label="kill-mid-batch", completed=False)
    try:
        server, clock, transports = build_server()
        kill_wave = rng.randrange(max(len(waves) - 1, 1))
        victim = rng.randrange(shards)
        for index, wave in enumerate(waves):
            if index == kill_wave:
                transports[victim].kill()
                run.kills += 1
            answers = server.batch(wave)
            _audit_answers(answers, wave, oracles, old_map.epoch, run)
            server.tick()
        settle(server, clock, run)
        run.restarts = sum(s.restarts for s in server.supervisor.shards)
        run.failovers = server.failovers
        if server.telemetry:
            # Same harvest path production monitoring uses: fold shard
            # registry deltas home, then score the settled tier.
            run.health = build_health_report(server).to_dict()
        run.completed = True
        server.close()
    except Exception as exc:  # noqa: BLE001 - the harness reports crashes
        run.error = "%s: %s" % (type(exc).__name__, exc)
    report.runs.append(run)

    if swap_path is None:
        return report

    # -- scenario 2: a replica dies between prepare and commit ---------------
    rng = make_rng(seed, "chaos", "swapkill")
    run = ShardChaosRun(label="kill-mid-swap", completed=False)
    try:
        server, clock, transports = build_server()
        half = max(len(waves) // 2, 1)
        for wave in waves[:half]:
            answers = server.batch(wave)
            _audit_answers(answers, wave, oracles, old_map.epoch, run)
        victim = rng.randrange(shards)
        # Arm the crash: the victim acks exactly one more exchange (the
        # prepare) and dies before its commit arrives.
        transports[victim].kill_after = transports[victim].exchanges + 1
        run.kills += 1
        token = server.swap(swap_path, epoch=swap_epoch)
        if token is None:
            raise AssertionError("swap rolled back with a live majority")
        for wave in waves[half:]:
            answers = server.batch(wave)
            _audit_answers(answers, wave, oracles, swap_epoch, run)
            server.tick()
        settle(server, clock, run)
        # Post-convergence probe: the restarted replica must now serve
        # the committed epoch for keys it homes.
        answers = server.batch(waves[0])
        _audit_answers(answers, waves[0], oracles, swap_epoch, run)
        run.mismatched += sum(
            1 for answer in answers if answer.epoch != new_epoch
        )
        run.restarts = sum(s.restarts for s in server.supervisor.shards)
        run.failovers = server.failovers
        if server.telemetry:
            run.health = build_health_report(server).to_dict()
        run.completed = True
        server.close()
    except Exception as exc:  # noqa: BLE001 - the harness reports crashes
        run.error = "%s: %s" % (type(exc).__name__, exc)
    report.runs.append(run)
    return report
