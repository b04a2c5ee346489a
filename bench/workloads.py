"""The four workloads of the benchmark of record.

Each workload sets up, times its work, checks every output against an
independent reference (untimed), and fills a :class:`Run` with metrics.
Every time it reports is normalized for the host's load (see
:mod:`bench.hostspeed`); ``wall_s`` and ``host_slowdown`` show the raw
time and the load beside them.  With tracing on, the same work runs
once untraced and once inside a :class:`~bench.tracing.Tracer` region,
and the run reports per-layer metrics instead of end-to-end ones.
Checks always run outside traced regions, so they never count as
unattributed time.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import hashlib
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.validation import validate_result
from repro.core.bdrmap import build_data_bundle
from repro.core.epochs import (
    EpochError,
    EpochRunner,
    apply_seeded_churn,
    replay_chain,
)
from repro.core.orchestrator import MultiVPOrchestrator
from repro.serving.bordermap import compile_border_map
from repro.serving.compiled import (
    CompiledBorderMap,
    load_compiled_map,
    save_compiled_map,
)
from repro.serving.frontend import make_async_frontend
from repro.serving.server import make_local_server
from repro.topology.scenarios import build_scenario, large_access, mini, tier1

from bench.hostspeed import Speedometer
from bench.loadgen import (
    GOOD_SHARE,
    OPS,
    MixSource,
    Oracle,
    ZipfSource,
    closed_loop,
    good_share,
    open_loop,
    poisson_schedule,
    tail,
)
from bench.stats import (
    slo_rate,
    step_share,
    summarize,
    supports_percentile,
)
from bench.tracing import BENCH_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Each run's scratch directory goes here, and so do inputs kept
#: across runs (see ``_map_input``).
OUT_DIR = os.path.join(ROOT, ".bench_out")

CHURN_FRACTION = 0.01
#: The churn sequence is a fixed input, like the topology.  Drawn from
#: ``--seed`` it moved the cost of an epoch by up to 40% from one seed
#: to the next (one seed's churn re-probed ten times as many targets),
#: which no bound on ``run_s`` could absorb.
CHURN_SEED = 1
SHARDS = 3


@dataclass(frozen=True)
class Sizes:
    """How much work each phase does.  ``SMOKE`` shrinks every phase
    (and swaps every scenario for ``mini``) for a fast end-to-end check
    of the harness itself."""

    # Set-ups per run; setup_s is their median.  epoch-churn's set-up
    # takes seconds and runs ``setups`` times, before the timed work.
    # The sub-second set-ups (pipeline-large, serve-*) run
    # ``quick_setups`` times before the timed work and as often again
    # after it, so their samples span the run.
    setups: int = 3
    quick_setups: int = 8
    epochs: int = 4            # churned epochs timed on epoch-churn
    check_size: int = 8192     # queries checked on a pipeline's artifact
    ref_rate: float = 4000.0   # reference offered rate, requests/s
    ref_size: int = 4096
    # A serving run does this many rounds of one reference trial and one
    # saturation block, and climbs the ladder once, in the first round.
    # A saturation block is one untimed warm-up pass (``warm_size``
    # requests of the uniform mix, or the whole Zipf pool) and
    # ``sat_trials`` timed saturation trials.
    rounds: int = 3
    sat_trials: int = 6
    warm_size: int = 2048
    # A ladder trial offers ``ladder_seconds`` of arrivals, ten times
    # the latency limit, so a tier that cannot keep up builds a backlog
    # past the limit within the trial; but at least ``ladder_size``
    # requests, which leaves ten beyond the 99th percentile.  A step
    # whose first trial is not all good runs ``ladder_trials`` in all
    # (see ``bench.stats.step_share``).
    ladder_seconds: float = 0.1
    ladder_size: int = 1000
    ladder_factor: float = 2 ** 0.25
    ladder_steps: int = 24
    ladder_trials: int = 3
    sat_size: int = 8192
    sat_batch: int = 256
    trace_pairs: int = 3       # untraced/traced saturation pairs (--trace)
    zipf_pool: int = 2000
    smoke: bool = False


FULL = Sizes()
SMOKE = replace(
    FULL, quick_setups=2, epochs=2, check_size=512, ref_size=512,
    rounds=1, sat_trials=1, warm_size=128, ladder_size=256, ladder_steps=6,
    sat_size=512, zipf_pool=200, smoke=True,
)


@dataclass
class Run:
    """One workload run: its inputs and everything it measured."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    workdir: str
    tracer: Optional[Tracer] = None
    speed: Speedometer = field(default_factory=Speedometer)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)

    def rng(self, purpose: str) -> random.Random:
        """A random stream that depends only on workload, seed and
        purpose."""
        return random.Random("%s:%d:%s" % (self.workload, self.seed, purpose))

    def scenario(self, factory: Callable):
        return build_scenario(mini() if self.sizes.smoke else factory())

    def record(self, name: str, unit: str, samples: List[float]) -> None:
        summary = summarize(samples)
        self.metrics[name] = {"value": summary.pop("median"), "unit": unit,
                              **summary}

    def traced(self, region: Optional[str]):
        """The traced region ``region`` in a traced run, else a no-op."""
        if self.tracer is None or region is None:
            return nullcontext()
        return self.tracer.region(region)

    def timed(self, func: Callable, *args,
              region: Optional[str] = None) -> Tuple[Any, float, float]:
        """``func(*args)``, its normalized time and its wall time, from
        a collected heap."""
        gc.collect()
        with self.traced(region):
            result, wall, seconds = self.speed.measure(func, *args)
        return result, seconds, wall


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the serving tier ------------------------------------------------------------


class Tier:
    """A 3-shard in-process tier on one artifact, driven through the
    synchronous ``ShardedBorderServer.batch`` or, with ``coalescing``,
    the async front end."""

    def __init__(self, path: str, epoch: int, coalescing: bool = False):
        self.server, _ = make_local_server(path, epoch=epoch, shards=SHARDS)
        self.frontend = (make_async_frontend(self.server) if coalescing
                         else None)

    async def send(self, wave):
        # Methods are looked up per call, so a traced region sees its
        # wrappers even though the tier was built before they existed.
        if self.frontend is not None:
            return await self.frontend.batch(wave)
        return self.server.batch(wave)

    def epoch(self) -> int:
        return self.server.committed_epoch

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        self.server.close()


class Serving:
    """The serving phases over one tier.  Every trial's answers are
    checked against the oracle after the trial."""

    def __init__(self, run: Run, tier: Tier, source, oracle: Oracle,
                 swaps: Optional[List[Tuple[str, int]]] = None) -> None:
        self.run = run
        self.tier = tier
        self.source = source
        self.oracle = oracle
        self.rng = run.rng("queries")
        self._swaps = swaps
        self._next_swap = 0
        self.p50: List[float] = []
        self.p99: List[float] = []
        self.swap_ms: List[float] = []
        self.sat_s: List[float] = []
        self.sat_wall: List[float] = []

    def _trial(self, loop, region: Optional[str]):
        # Each trial starts from a collected heap whose survivors are
        # frozen while it runs: the collector then walks only what the
        # trial itself allocates, not the inputs, maps and oracle this
        # process also holds (a tier process would not).
        gc.collect()
        gc.freeze()
        try:
            with self.run.traced(region):
                return asyncio.run(loop)
        finally:
            gc.unfreeze()

    def _check(self, trial, counted: bool = True):
        """Check a trial's answers; ``counted`` trials add their
        requests to ``attempted`` and their shed or degraded answers
        to ``failed``."""
        verdict = self.oracle.check(trial)
        self.run.wrong.extend(verdict.wrong)
        if counted:
            self.run.attempted += verdict.sent
            self.run.failed += verdict.failed
        return verdict

    async def _swap(self) -> None:
        path, epoch = self._swaps[self._next_swap % len(self._swaps)]
        self._next_swap += 1
        if await self.tier.frontend.swap(path, epoch) is None:
            self.run.wrong.append("swap to epoch %d rolled back" % epoch)

    def reference(self, region: Optional[str] = None) -> None:
        """One open-loop trial at the reference rate (with one swap at
        its midpoint when the tier swaps)."""
        sizes = self.run.sizes
        requests = self.source.draw(self.rng, sizes.ref_size)
        due = poisson_schedule(self.rng, sizes.ref_rate, sizes.ref_size)
        swap = self._swap if self._swaps else None
        trial = self._trial(
            open_loop(self.tier.send, requests, due, self.tier.epoch, swap,
                      self.run.speed.factor),
            region,
        )
        self._check(trial)
        p50, p99 = tail(trial.latencies_ms())
        self.p50.append(p50)
        self.p99.append(p99)
        if trial.swap_s is not None:
            self.swap_ms.append(1e3 * trial.swap_s)

    def _closed(self, requests, region: Optional[str]):
        return self._trial(
            closed_loop(self.tier.send, requests, self.run.sizes.sat_batch,
                        self.tier.epoch, self.run.speed.factor),
            region,
        )

    def warm_up(self) -> None:
        """One untimed closed-loop pass that brings the tier to its
        steady state (see the sources' ``warm_up``).  Its answers are
        checked like any trial's."""
        requests = self.source.warm_up(self.rng, self.run.sizes.warm_size)
        self._check(self._closed(requests, None))

    def saturation(self, region: Optional[str] = None) -> float:
        """One closed-loop trial; returns its normalized time."""
        requests = self.source.draw(self.rng, self.run.sizes.sat_size)
        trial = self._closed(requests, region)
        self._check(trial)
        self.sat_s.append(trial.seconds)
        self.sat_wall.append(trial.wall)
        return trial.seconds

    def saturation_block(self) -> None:
        """A warm-up pass, then the timed saturation trials.  A
        reference trial or a climb leaves the tier off its steady state
        (on serve-zipf the reference trial's swap empties the engine
        caches); the warm-up keeps that out of every timed trial."""
        self.warm_up()
        for _ in range(self.run.sizes.sat_trials):
            self.saturation()

    def _ladder_trial(self, rate: float) -> float:
        """One open-loop trial at ``rate``; returns its good share.
        Overload is the point here, so shed answers are not counted as
        failures."""
        sizes = self.run.sizes
        size = max(sizes.ladder_size, round(rate * sizes.ladder_seconds))
        requests = self.source.draw(self.rng, size)
        due = poisson_schedule(self.rng, rate, size)
        trial = self._trial(
            open_loop(self.tier.send, requests, due, self.tier.epoch,
                      factor=self.run.speed.factor),
            None,
        )
        return good_share(trial, self._check(trial, False))

    def climb(self) -> List[Tuple[float, float]]:
        """The ladder, from the reference rate up, ending at the first
        step whose good share is below 99%.  Returns ``(rate, good
        share)`` per step."""
        sizes = self.run.sizes
        rate = sizes.ref_rate
        steps: List[Tuple[float, float]] = []
        while len(steps) < sizes.ladder_steps:
            share = step_share(lambda: self._ladder_trial(rate),
                               sizes.ladder_trials)
            steps.append((rate, share))
            if share < GOOD_SHARE:
                break
            rate *= sizes.ladder_factor
        return steps


def _check_compiled(run: Run, path: str, bmap) -> None:
    """The saved binary artifact must answer the serve mix exactly as
    the dict ``BorderMap`` it was compiled from (untimed)."""
    requests = MixSource(bmap).draw(run.rng("compiled-check"),
                                    run.sizes.check_size)
    compiled = load_compiled_map(path)
    try:
        for op, key in requests:
            got = getattr(compiled, OPS[op])(key)
            want = getattr(bmap, OPS[op])(key)
            if got != want:
                run.wrong.append("compiled %s %d: %r, dict map %r"
                                 % (op, key, got, want))
        owners = [key for op, key in requests if op == "owner"]
        if compiled.owner_of_batch(owners) != [bmap.owner_of(key)
                                              for key in owners]:
            run.wrong.append("compiled owner_of_batch differs from the "
                             "dict map")
    finally:
        compiled.close()
    run.attempted += len(requests)


# -- per-layer accounting ----------------------------------------------------------


def layer_metrics(run: Run, units: Dict[str, str], requests: int,
                  swaps: int, probes: int, build_s: float,
                  overhead: float, extra: Dict[str, float]) -> None:
    """Fill ``run.metrics`` with every per-layer metric of the record
    (``units``: name -> unit).  A layer the workload never entered
    reads 0.  Serving layers are per request (µs) over the traced
    serving trials; build layers are totals over the traced build.
    Layer times are normalized by the run's mean host slowdown."""
    tracer = run.tracer
    own = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    slowdown = run.speed.mean_factor()

    def secs(layer: str) -> float:
        return own.get(layer, 0.0) / slowdown

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_req_us(layer: str) -> float:
        return 1e6 * ratio(secs(layer), requests)

    def per_swap_ms(layer: str) -> float:
        return 1e3 * ratio(secs(layer), swaps)

    values = {
        "bgp.bundle_s": secs("bgp.bundle"),
        "core.targets_s": secs("core.targets"),
        "core.targets_calls": calls["core.targets"],
        "probing.traceroute_s": secs("probing.traceroute"),
        "probing.traces": calls["probing.traceroute"],
        "probing.scheduler_self_s": secs("probing.scheduler"),
        "net.probes": probes,
        "net.probes_per_s": ratio(probes, build_s),
        "alias.resolve_s": secs("alias.resolve"),
        "alias.probes": counts["alias.probes"],
        "core.graph_s": secs("core.graph"),
        "core.heuristics_s": secs("core.heuristics"),
        "core.routers": counts["core.routers"],
        "core.orchestrator_self_s": secs("core.orchestrator"),
        "epochs.signature_s": secs("epochs.signature"),
        "epochs.signature_calls": calls["epochs.signature"],
        "epochs.collect_s": secs("epochs.collect"),
        "epochs.runner_self_s": secs("epochs.runner"),
        "epochs.churn_s": secs("epochs.churn"),
        "analysis.diff_s": secs("analysis.diff"),
        "serving.compile_s": secs("serving.compile"),
        "serving.lower_s": secs("serving.lower"),
        "io.save_s": secs("io.save"),
        "serving.frontend.self_us": per_req_us("serving.frontend"),
        "serving.frontend.wave_size": ratio(requests,
                                            calls["serving.frontend"]),
        "serving.frontend.coalesce_rate": ratio(
            counts["frontend.coalesced"], counts["frontend.requests"]),
        "remote.protocol.encode_us": per_req_us("remote.protocol.encode"),
        "remote.protocol.decode_us": per_req_us("remote.protocol.decode"),
        "remote.protocol.frame_us": per_req_us("remote.protocol.frame"),
        "remote.protocol.bytes_per_req": ratio(counts["wire.bytes"],
                                               requests),
        "serving.shard.channel_self_us": per_req_us("serving.shard.channel"),
        "serving.shard.unwire_us": per_req_us("serving.shard.unwire"),
        "serving.shard.worker_self_us": per_req_us("serving.shard.worker"),
        "serving.engine.self_us": per_req_us("serving.engine"),
        "serving.engine.hit_rate": ratio(
            counts["engine.hits"],
            counts["engine.hits"] + counts["engine.misses"]),
        "serving.compiled.lookup_us": per_req_us("serving.compiled.lookup"),
        "serving.compiled.calls": calls["serving.compiled.lookup"],
        "serving.swap.self_ms": per_swap_ms("serving.swap"),
        "serving.swap.prepare_ms": per_swap_ms("serving.swap.prepare"),
        "serving.swap.commit_ms": per_swap_ms("serving.swap.commit"),
        "unattributed_s": secs(BENCH_LAYER),
        "closure": tracer.closure(),
        "trace_overhead": overhead,
    }
    values.update(extra)
    missing = set(units) - set(values)
    if missing:
        raise KeyError("no value for per-layer metrics %s" % sorted(missing))
    for name, unit in units.items():
        run.metrics[name] = {"value": float(values[name]), "unit": unit}
    if overhead < 1.0:
        run.notes["trace_overhead"] = (
            "unresolved: the traced work ran faster than the untraced, "
            "so the tracing cost is below this run's noise")


def _reuse_shares(records) -> Dict[str, float]:
    """Shares of cached work reused, from the epochs' ``EpochCost``."""
    def share(reused: str, redone: str) -> float:
        hit = sum(getattr(record.cost, reused) for record in records)
        miss = sum(getattr(record.cost, redone) for record in records)
        return hit / (hit + miss) if hit + miss else 0.0

    return {
        "epochs.unit_reuse": share("units_reused", "units_probed"),
        "epochs.trace_reuse": share("traces_replayed", "traces_probed"),
        "epochs.router_replay": share("routers_replayed", "routers_live"),
    }


# -- pipeline-large --------------------------------------------------------------


def _build_map(scenario, path: str):
    data = build_data_bundle(scenario)
    orchestrated = MultiVPOrchestrator(scenario, data=data).run()
    bmap = compile_border_map(
        orchestrated.results, view=data.view, rels=data.rels, epoch=1,
        source="bench",
    )
    size = save_compiled_map(CompiledBorderMap.from_border_map(bmap), path)
    return orchestrated, bmap, size


def pipeline_large(run: Run, units: Dict[str, str]) -> None:
    keep = 2 if run.tracer else 1   # a traced run builds twice
    scenarios, setup_s = [], []
    for _ in range(run.sizes.quick_setups):
        scenario, seconds, _ = run.timed(run.scenario, large_access)
        setup_s.append(seconds)
        scenarios = (scenarios + [scenario])[-keep:]

    path = os.path.join(run.workdir, "pipeline.bdrm")
    built, run_s, wall_s = run.timed(_build_map, scenarios[0], path)
    if run.tracer is not None:
        built, traced_s, _ = run.timed(_build_map, scenarios[1], path,
                                       region="bench.build")
    orchestrated, bmap, artifact_bytes = built
    scenario = scenarios[-1]

    # Untimed gates: every VP completed; links judged against truth.
    run.attempted += len(scenario.vps)
    run.failed += len(orchestrated.report.failed_vps)
    judged = [validate_result(result, scenario.internet)
              for result in orchestrated.results]
    accuracy = (sum(report.correct for report in judged)
                / max(1, sum(report.total for report in judged)))
    probes = orchestrated.report.total_probes
    run.notes["map"] = bmap.stats()

    _check_compiled(run, path, bmap)
    if run.tracer is not None:
        layer_metrics(
            run, units, requests=0, swaps=0, probes=probes,
            build_s=traced_s, overhead=traced_s / run_s,
            extra=dict(_reuse_shares([]),
                       **{"io.artifact_bytes": artifact_bytes}),
        )
        return
    for _ in range(run.sizes.quick_setups):   # see Sizes.quick_setups
        setup_s.append(run.timed(run.scenario, large_access)[1])
    run.record("setup_s", "s", setup_s)
    run.record("run_s", "s", [run_s])
    run.record("wall_s", "s", [wall_s])
    run.record("probes", "count", [probes])
    run.record("link_accuracy", "fraction", [accuracy])


# -- epoch-churn -----------------------------------------------------------------


def _set_up_epochs(run: Run, index: int):
    scenario = run.scenario(tier1)
    runner = EpochRunner(
        scenario, out_dir=os.path.join(run.workdir, "epochs%d" % index)
    )
    runner.run_epoch()  # epoch 0 fills every cache
    return scenario, runner


def _churn_and_run(scenario, runner, epoch: int):
    apply_seeded_churn(scenario, seed=CHURN_SEED, epoch=epoch,
                       fraction=CHURN_FRACTION)
    return runner.run_epoch()


def _churned_epochs(run: Run, scenario, runner,
                    region: Optional[str] = None):
    """The churned epochs' records, normalized times and wall times."""
    records, times, walls = [], [], []
    for epoch in range(1, run.sizes.epochs + 1):
        record, seconds, wall = run.timed(_churn_and_run, scenario, runner,
                                          epoch, region=region)
        records.append(record)
        times.append(seconds)
        walls.append(wall)
    return records, times, walls


def _check_epochs(run: Run, runner, records) -> None:
    """The final artifact must be byte-identical to a from-scratch
    (``force_full``) twin of the same world, and the saved patch chain
    must replay."""
    try:
        replay_chain(runner.save_chain())
    except EpochError as exc:
        run.wrong.append("replay_chain: %s" % exc)
    twin = run.scenario(tier1)
    for epoch in range(1, run.sizes.epochs + 1):
        apply_seeded_churn(twin, seed=CHURN_SEED, epoch=epoch,
                           fraction=CHURN_FRACTION)
    full = EpochRunner(
        twin, out_dir=os.path.join(run.workdir, "twin"), force_full=True,
        first_epoch=records[-1].epoch,
    ).run_epoch()
    with open(records[-1].map_path, "rb") as inc, \
            open(full.map_path, "rb") as ref:
        if inc.read() != ref.read():
            run.wrong.append(
                "epoch %d: incremental artifact differs from its "
                "force_full twin" % records[-1].epoch
            )


def epoch_churn(run: Run, units: Dict[str, str]) -> None:
    keep = 2 if run.tracer else 1   # a traced run replays the epochs
    setups, setup_s = [], []
    for index in range(run.sizes.setups):
        state, seconds, _ = run.timed(_set_up_epochs, run, index)
        setup_s.append(seconds)
        setups = (setups + [state])[-keep:]

    records, times, walls = _churned_epochs(run, *setups[0])
    if run.tracer is not None:
        records, traced, _ = _churned_epochs(run, *setups[1],
                                             region="bench.build")
    _, runner = setups[-1]
    run.attempted += len(records)
    _check_epochs(run, runner, records)
    probes = sum(record.cost.probes for record in records)

    final = records[-1].map_path
    _check_compiled(run, final, runner.result_maps[-1])
    if run.tracer is not None:
        layer_metrics(
            run, units, requests=0, swaps=0, probes=probes,
            build_s=sum(traced), overhead=sum(traced) / sum(times),
            extra=dict(_reuse_shares(records),
                       **{"io.artifact_bytes": os.path.getsize(final)}),
        )
        return
    run.record("setup_s", "s", setup_s)
    # The epochs do different work, so their median would depend on
    # which two land in the middle; their total is the timed unit.
    run.record("run_s", "s", [sum(times)])
    run.record("wall_s", "s", [sum(walls)])
    run.record("probes", "count", [probes])


# -- serve-uniform / serve-zipf ----------------------------------------------------


def write_map_input(path: str, smoke: bool) -> None:
    """Run the tier1 inference the served map is compiled from, and
    pickle its results, routed view and relationships to ``path``."""
    scenario = build_scenario(mini() if smoke else tier1())
    data = build_data_bundle(scenario)
    results = MultiVPOrchestrator(scenario, data=data).run().results
    with open(path, "wb") as handle:
        pickle.dump((results, data.view, data.rels), handle,
                    protocol=pickle.HIGHEST_PROTOCOL)


def _sources_digest() -> str:
    """A digest of every source file under ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _map_input(run: Run):
    """The served map's input: ``(results, view, rels)``.  Like the
    topology it is a fixed input, and the pipeline workloads time
    inference, so it runs untimed, in a child process: neither its
    time nor its memory counts in this run.  The child's pickle stays
    in ``OUT_DIR`` under a digest of the sources, so later runs of the
    same code load it instead of inferring again."""
    scale = "smoke" if run.sizes.smoke else "full"
    path = os.path.join(
        OUT_DIR, "map-input-%s-%s.pickle" % (scale, _sources_digest()))
    if not os.path.exists(path):
        partial = "%s.%d" % (path, os.getpid())
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from bench.workloads import write_map_input; "
             "write_map_input(sys.argv[1], sys.argv[2] == 'smoke')",
             partial, scale],
            check=True, timeout=150, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, ROOT))),
        )
        os.replace(partial, path)
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _set_up_tier(run: Run, index: int, map_input, epochs, coalescing):
    """Compile, lower and save the artifact of each epoch, then start
    the tier on the first."""
    results, view, rels = map_input
    paths, maps = {}, {}
    for epoch in epochs:
        maps[epoch] = compile_border_map(
            results, view=view, rels=rels, epoch=epoch, source="bench",
        )
        paths[epoch] = os.path.join(
            run.workdir, "tier%d-epoch%d.bdrm" % (index, epoch))
        save_compiled_map(CompiledBorderMap.from_border_map(maps[epoch]),
                          paths[epoch])
    return Tier(paths[epochs[0]], epochs[0], coalescing), paths, maps


def serve(run: Run, units: Dict[str, str], zipf: bool) -> None:
    sizes = run.sizes
    started = time.perf_counter()
    map_input = _map_input(run)
    epochs = (1, 2) if zipf else (1,)

    built, setup_s = None, []
    for index in range(1 if run.tracer else sizes.quick_setups):
        if built is not None:
            built[0].close()
        built, seconds, _ = run.timed(_set_up_tier, run, index, map_input,
                                      epochs, zipf)
        setup_s.append(seconds)
    tier, paths, maps = built
    bmap = maps[1]
    run.notes["map"] = bmap.stats()
    # The Zipf pool is a fixed input, like the topology; the seed draws
    # the requests from it.
    source = (ZipfSource(bmap, sizes.zipf_pool, random.Random("zipf-pool"))
              if zipf else MixSource(bmap))
    swaps = [(paths[2], 2), (paths[1], 1)] if zipf else None
    serving = Serving(run, tier, source, Oracle(maps), swaps)
    try:
        if run.tracer is not None:
            # Untraced and traced saturation trials alternate, so the
            # overhead is a ratio of medians, not of two single trials.
            serving.warm_up()
            untraced, traced = [], []
            for _ in range(sizes.trace_pairs):
                untraced.append(serving.saturation())
                traced.append(serving.saturation("bench.saturation"))
            serving.reference("bench.reference")
        else:
            # Reference trials and saturation blocks are spread over the
            # whole run, so a burst of host noise a few seconds long
            # cannot land on most trials of one kind.
            deadline = started + run.seconds
            for index in range(sizes.rounds):
                serving.reference()
                if index == 0:
                    steps = serving.climb()
                serving.saturation_block()
            while time.perf_counter() < deadline:
                serving.reference()
                serving.saturation_block()
            run.notes["ladder"] = " ".join(
                "%.0f:%.3f" % step for step in steps)
            slo = slo_rate(steps, GOOD_SHARE)
    finally:
        tier.close()

    if run.tracer is not None:
        layer_metrics(
            run, units,
            requests=sizes.trace_pairs * sizes.sat_size + sizes.ref_size,
            swaps=1 if zipf else 0, probes=0, build_s=0.0,
            overhead=statistics.median(traced) / statistics.median(untraced),
            extra=dict(_reuse_shares([]),
                       **{"io.artifact_bytes": os.path.getsize(paths[1])}),
        )
        return
    for index in range(sizes.quick_setups, 2 * sizes.quick_setups):
        built, seconds, _ = run.timed(_set_up_tier, run, index, map_input,
                                      epochs, zipf)
        built[0].close()
        setup_s.append(seconds)
    run.record("setup_s", "s", setup_s)
    run.record("run_s", "s", serving.sat_s)
    run.record("wall_s", "s", serving.sat_wall)
    run.record("p50_ms", "ms", serving.p50)
    if supports_percentile(sizes.ref_size, 99.0):
        run.record("p99_ms", "ms", serving.p99)
    run.record("sat_qps", "1/s", [sizes.sat_size / s for s in serving.sat_s])
    run.record("slo_qps", "1/s", [slo])
    run.record("fail_rate", "fraction", [run.failed / run.attempted])
    if zipf:
        run.record("swap_ms", "ms", serving.swap_ms)


WORKLOADS: Dict[str, Callable[[Run, Dict[str, str]], None]] = {
    "pipeline-large": pipeline_large,
    "epoch-churn": epoch_churn,
    "serve-uniform": lambda run, units: serve(run, units, zipf=False),
    "serve-zipf": lambda run, units: serve(run, units, zipf=True),
}


def execute(run: Run, units: Dict[str, str]) -> Run:
    """Run one workload; an untraced run also reports peak memory and
    the host's mean slowdown over the run."""
    WORKLOADS[run.workload](run, units)
    if run.tracer is None:
        run.record("peak_rss_mb", "MB", [_peak_rss_mb()])
        run.record("host_slowdown", "ratio", [run.speed.mean_factor()])
    return run
