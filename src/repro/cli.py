"""Command-line interface.

Mirrors how a released ``sc_bdrmap`` would be driven, against the built-in
scenarios::

    python -m repro scenario --name large_access        # topology stats
    python -m repro run --name re_network --out run.json --validate
    python -m repro show run.json                       # inspect an archive
    python -m repro study --name large_access --vps 6   # the §6 analyses
    python -m repro table1 --names re_network tier1     # Table 1 columns
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from . import build_data_bundle, build_scenario
from .analysis import (
    coverage_table,
    diversity_analysis,
    format_table1,
    geography_analysis,
    marginal_utility,
    validate_result,
)
from .analysis.validation import neighbor_coverage
from .core.bdrmap import Bdrmap, run_bdrmap
from .errors import DataError
from .io import load_result, save_result
from .topology import SCENARIO_FACTORIES, scenario_config

# The CLI's scenario table is the shared registry: the same names the
# parallel engine's ScenarioSpec uses to rebuild scenarios in workers.
_SCENARIOS: Dict[str, Callable] = SCENARIO_FACTORIES


def _build(name: str, seed: Optional[int]):
    return build_scenario(scenario_config(name, seed=seed))


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by run / chaos."""
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the shared metrics registry (JSON) here; "
                             "inspect with `repro metrics PATH`")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the span trace (JSON lines) here; "
                             "inspect with `repro trace PATH`")


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1 (shards, the
    admission cap)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _make_obs(args: argparse.Namespace, clock=None, seed: int = 0):
    """Build (metrics, tracer) from the ``--*-out`` flags, or Nones.

    ``clock`` supplies span timestamps (e.g. the network's virtual
    clock); left None, the tracer uses its deterministic internal tick —
    never wall time, so same-seed traces are byte-identical.
    """
    from .obs import MetricsRegistry, Tracer

    metrics = MetricsRegistry() if args.metrics_out else None
    tracer = Tracer(clock=clock, seed=seed) if args.trace_out else None
    return metrics, tracer


def _write_obs(args: argparse.Namespace, metrics, tracer) -> None:
    if metrics is not None:
        metrics.write_json(args.metrics_out)
        print("metrics written to %s" % args.metrics_out)
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        print("trace written to %s (%d spans)"
              % (args.trace_out, len(tracer.spans)))


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = _build(args.name, args.seed)
    stats = scenario.internet.stats()
    print("scenario %s (seed %d)" % (args.name, scenario.config.asgen.seed))
    for key in sorted(stats):
        print("  %-22s %d" % (key, stats[key]))
    print("  %-22s %d" % ("vps", len(scenario.vps)))
    print("  %-22s AS%d (siblings: %s)" % (
        "focal network", scenario.focal_asn,
        ",".join(str(a) for a in scenario.vp_as_list)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.bdrmap import BdrmapConfig
    from .core.heuristics import HeuristicConfig

    scenario = _build(args.name, args.seed)
    data = build_data_bundle(scenario)
    config = BdrmapConfig(
        heuristics=HeuristicConfig(use_refinement=args.refine)
    )
    if args.fault_profile != "clean":
        from .net.faults import make_fault_plan
        from .probing.retry import RetryPolicy

        scenario.network.faults = make_fault_plan(
            args.fault_profile, seed=args.fault_seed
        )
        # Faulted runs get retry/backoff probing so loss is recoverable.
        config.collection.retry = RetryPolicy()
    if args.share_stop_sets:
        config.collection.share_stop_sets = True
    # Span timestamps come from the simulation's virtual clock, so a
    # trace is a map of where simulated time went — and deterministic.
    metrics, tracer = _make_obs(
        args, clock=lambda: scenario.network.now, seed=args.seed or 0
    )
    if args.all_vps:
        return _run_all_vps(args, scenario, data, config, metrics, tracer)
    if not 0 <= args.vp < len(scenario.vps):
        print("error: scenario has %d VPs" % len(scenario.vps), file=sys.stderr)
        return 2
    if metrics is not None:
        scenario.network.attach_metrics(metrics)
    driver = Bdrmap(
        scenario.network, scenario.vps[args.vp], data, config,
        metrics=metrics, tracer=tracer,
    )
    result = driver.run()
    print(result.summary())
    if scenario.network.faults is not None:
        print(scenario.network.faults.stats.summary())
    if args.links:
        print(result.link_table())
    if args.validate:
        report = validate_result(result, scenario.internet)
        print(report.summary())
        covered, total, fraction = neighbor_coverage(result, scenario.internet)
        print("neighbor coverage: %d/%d (%.1f%%)" % (covered, total, 100 * fraction))
    if args.out:
        save_result(result, args.out)
        print("saved to %s" % args.out)
    if args.bundle:
        from .io import save_bundle

        save_bundle(args.bundle, scenario, data, collection=driver.collection)
        print("inputs + traces bundled to %s/" % args.bundle)
    _write_obs(args, metrics, tracer)
    return 0


def _run_all_vps(args, scenario, data, config, metrics=None, tracer=None) -> int:
    """``run --all-vps``: the orchestrated multi-VP run (§5.8).

    ``--workers N`` switches to the parallel collection engine: VPs are
    sharded across worker processes, each running against its own
    simulator under per-VP isolation, and the merged run is byte-identical
    for any worker count (``--workers 1`` is the inline baseline).
    """
    if args.workers is not None:
        from .core.parallel import ParallelOrchestrator, ScenarioSpec

        spec = ScenarioSpec.make(
            args.name,
            seed=args.seed,
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
        )
        orchestrator = ParallelOrchestrator(
            spec,
            scenario=scenario,
            data=data,
            config=config,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            metrics=metrics,
            tracer=tracer,
        )
    else:
        from .core.orchestrator import MultiVPOrchestrator

        orchestrator = MultiVPOrchestrator(
            scenario,
            data=data,
            config=config,
            share_alias_evidence=not args.no_shared_aliases,
            interleave=not args.sequential,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            metrics=metrics,
            tracer=tracer,
        )
    try:
        run = orchestrator.run()
    except DataError as exc:  # the --resume checkpoint is the only input
        print("error: cannot read checkpoint %r: %s" % (args.checkpoint, exc),
              file=sys.stderr)
        return 2
    if orchestrator.resumed_vps:
        print(
            "resumed from %s: skipped %s"
            % (args.checkpoint, ", ".join(sorted(orchestrator.resumed_vps)))
        )
    print(run.report.summary())
    if args.links:
        for result in run.results:
            print()
            print("%s:" % result.vp_name)
            print(result.link_table())
    if args.validate:
        for result in run.results:
            report = validate_result(result, scenario.internet)
            covered, total, fraction = neighbor_coverage(
                result, scenario.internet
            )
            print("%s: %s" % (result.vp_name, report.summary()))
            print(
                "%s: neighbor coverage %d/%d (%.1f%%)"
                % (result.vp_name, covered, total, 100 * fraction)
            )
    if args.out:
        from .io import save_report

        save_report(run.report, args.out)
        print("report saved to %s" % args.out)
    if args.run_out:
        from .io import orchestrated_run_to_dict
        from .io.serialize import atomic_write_text

        atomic_write_text(args.run_out, json.dumps(
            orchestrated_run_to_dict(run), indent=1, sort_keys=True
        ))
        print("run saved to %s" % args.run_out)
    _write_obs(args, metrics, tracer)
    return 0


def _load_or_fail(loader, path: str, what: str):
    """Load an archive, turning the predictable failure modes (missing
    file, malformed content, unknown schema version) into a clear CLI
    error instead of a traceback.  Returns None after printing the
    error."""
    try:
        return loader(path)
    except FileNotFoundError:
        print("error: %s %r does not exist" % (what, path), file=sys.stderr)
    except IsADirectoryError:
        print("error: %s %r is a directory, not a file" % (what, path),
              file=sys.stderr)
    except DataError as exc:
        print("error: cannot read %s %r: %s" % (what, path, exc),
              file=sys.stderr)
    except OSError as exc:
        print("error: cannot open %s %r: %s" % (what, path, exc),
              file=sys.stderr)
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    """Inspect an archived run report."""
    from .analysis.coverage import pass_table
    from .io import load_report

    report = _load_or_fail(load_report, args.path, "report")
    if report is None:
        return 2
    print(report.summary())
    if args.passes or args.format == "table":
        print()
        print(pass_table(report))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile results (from a checkpoint or result files) into a
    BorderMap artifact."""
    from .io import load_checkpoint, save_border_map
    from .serving import compile_border_map

    results = []
    if args.checkpoint:
        loaded = _load_or_fail(load_checkpoint, args.checkpoint, "checkpoint")
        if loaded is None:
            return 2
        results.extend(loaded[0])
    for path in args.results:
        result = _load_or_fail(load_result, path, "result")
        if result is None:
            return 2
        results.append(result)
    if not results:
        print("error: nothing to compile (give --checkpoint and/or results)",
              file=sys.stderr)
        return 2
    view = rels = None
    source = args.checkpoint or ",".join(args.results)
    if args.name:
        scenario = _build(args.name, args.seed)
        data = build_data_bundle(scenario)
        view, rels = data.view, data.rels
        source += " + %s bundle" % args.name
    bmap = compile_border_map(
        results, view=view, rels=rels, epoch=args.epoch, source=source
    )
    save_border_map(bmap, args.out, format=args.format)
    print("compiled epoch %d border map from %d result(s): %s"
          % (bmap.epoch, len(results),
             ", ".join("%s=%d" % (k, v)
                       for k, v in sorted(bmap.stats().items()))))
    print("saved to %s (%s)" % (args.out, args.format))
    return 0


def _parse_query(text: str):
    """One query: ``owner A.B.C.D``, ``border A.B.C.D``, ``neighbors ASN``."""
    from .addr import aton

    parts = text.split()
    if len(parts) != 2 or parts[0] not in ("owner", "border", "neighbors"):
        raise ValueError(
            "bad query %r (want 'owner IP', 'border IP', or 'neighbors ASN')"
            % text
        )
    op, operand = parts
    key = int(operand) if op == "neighbors" else aton(operand)
    return op, key


def _format_answer(answer) -> str:
    from .addr import ntoa

    value = answer.value
    if value is None:
        body = "no answer"
    elif answer.op == "owner":
        where = ("router %d" % value.router
                 if value.router is not None else "prefix")
        body = "AS%d (%s, via %s)" % (value.asn, value.source, where)
    elif answer.op == "border":
        body = "; ".join(
            "%s r%d -> AS%d (%s, %s)"
            % (link.vp_name, link.near_router, link.neighbor_as,
               link.relationship, link.reason)
            for link in value
        ) or "no border observed"
    else:
        body = "AS%d: %s, %d link(s), confidence %.2f" % (
            value.asn, value.relationship, len(value.links),
            value.best_confidence,
        )
    key = str(answer.key) if answer.op == "neighbors" else ntoa(answer.key)
    line = "%-9s %-15s -> %s" % (answer.op, key, body)
    if answer.degraded:
        line += "  [degraded: %s]" % (answer.note or "unspecified")
    return line


def _gather_queries(query_args, batch_path):
    """Flatten CLI query tokens (plus an optional batch file) into
    (op, key) pairs; prints the error and returns None on bad input.

    The shell splits ``owner 1.2.3.4 neighbors 64500`` into single
    tokens; quoted whole queries arrive pre-joined.  Flatten and
    re-pair so both spellings work.
    """
    from .errors import AddressError

    requests = []
    try:
        tokens = [t for text in query_args for t in text.split()]
        if len(tokens) % 2:
            raise ValueError(
                "queries come in pairs: 'owner IP', 'border IP', "
                "or 'neighbors ASN' (got %r)" % " ".join(tokens)
            )
        for start in range(0, len(tokens), 2):
            requests.append(
                _parse_query(" ".join(tokens[start:start + 2]))
            )
        if batch_path:
            with open(batch_path) as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        requests.append(_parse_query(line))
    except (ValueError, AddressError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return None
    except OSError as exc:
        print("error: cannot read batch file: %s" % exc, file=sys.stderr)
        return None
    return requests


def _cmd_query(args: argparse.Namespace) -> int:
    """Answer queries against a compiled BorderMap artifact (JSON or
    binary, told apart by the file magic).  A JSON artifact is lowered to
    the compiled form before serving."""
    from .serving import BorderMapService, load_served_map

    bmap = _load_or_fail(load_served_map, args.map, "border map")
    if bmap is None:
        return 2
    requests = _gather_queries(args.query, args.batch)
    if requests is None:
        return 2
    if not requests:
        print("error: no queries (give QUERY arguments or --batch FILE)",
              file=sys.stderr)
        return 2
    service = BorderMapService(bmap)
    for answer in service.batch(requests):
        print(_format_answer(answer))
    if args.stats:
        print()
        print(service.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Answer queries through the fault-tolerant sharded tier."""
    from .io import load_border_map
    from .serving import close_backend
    from .serving.server import make_local_server, make_process_server

    # One probe load up front: validates the artifact and reads its
    # epoch before any shard is started.
    probe = _load_or_fail(load_border_map, args.map, "border map")
    if probe is None:
        return 2
    epoch = probe.epoch
    close_backend(probe)
    requests = _gather_queries(args.query, args.batch)
    if requests is None:
        return 2
    if not requests:
        print("error: no queries (give QUERY arguments or --batch FILE)",
              file=sys.stderr)
        return 2
    clock = None
    if args.processes:
        server = make_process_server(
            args.map, epoch=epoch, shards=args.shards,
            max_inflight=args.max_inflight,
        )
    else:
        server, clock = make_local_server(
            args.map, epoch=epoch, shards=args.shards,
            max_inflight=args.max_inflight,
        )
    frontend = None
    if args.use_async:
        from .serving.frontend import make_async_frontend

        frontend = make_async_frontend(server)

    def _answer(batch_requests):
        if frontend is not None:
            return frontend.batch_sync(batch_requests)
        return server.batch(batch_requests)

    try:
        for answer in _answer(requests):
            print(_format_answer(answer))
        if args.swap:
            swap_epoch = (args.swap_epoch if args.swap_epoch is not None
                          else epoch + 1)
            if frontend is not None:
                token = frontend.swap_sync(args.swap, epoch=swap_epoch)
            else:
                token = server.swap(args.swap, epoch=swap_epoch)
            if token is None:
                print("error: swap rolled back; still serving epoch %d"
                      % server.committed_epoch, file=sys.stderr)
                return 1
            for _ in range(10):
                if clock is not None:
                    clock.advance(2.0)
                server.tick()
                if server.converged():
                    break
            print("swapped to %s (epoch %d, token %d)"
                  % (args.swap, server.committed_epoch, token))
            for answer in _answer(requests):
                print(_format_answer(answer))
        if args.stats:
            print()
            if frontend is not None:
                print(frontend.summary())
            else:
                print(server.summary())
    finally:
        if frontend is not None:
            frontend.close()
        server.close()
    return 0


def _telemetry_server(args: argparse.Namespace):
    """Stand up a sharded server with telemetry on for health/top.

    Returns ``(server, clock, workload)`` — ``clock`` is None for
    process-backed shards — or None when the artifact cannot load.
    The workload is a deterministic sample derived from the map itself,
    used to exercise the tier so latency histograms have data.
    """
    from .io import load_border_map
    from .obs import MetricsRegistry, Tracer
    from .serving import close_backend, make_workload
    from .serving.server import make_local_server, make_process_server

    probe = _load_or_fail(load_border_map, args.map, "border map")
    if probe is None:
        return None
    epoch = probe.epoch
    workload = make_workload(probe, args.queries, seed=args.seed)
    close_backend(probe)
    metrics = MetricsRegistry()
    tracer = Tracer(seed=args.seed)
    clock = None
    if args.processes:
        server = make_process_server(
            args.map, epoch=epoch, shards=args.shards,
            max_inflight=args.max_inflight, metrics=metrics, tracer=tracer,
        )
    else:
        server, clock = make_local_server(
            args.map, epoch=epoch, shards=args.shards,
            max_inflight=args.max_inflight, metrics=metrics, tracer=tracer,
        )
    return server, clock, workload


def _slo_from_args(args: argparse.Namespace):
    from .obs import SLO

    return SLO(
        p99_ms=args.slo_p99_ms,
        shed_rate=args.slo_shed_rate,
        degraded_rate=args.slo_degraded_rate,
        min_healthy_fraction=args.slo_min_healthy,
        require_converged=not args.no_require_converged,
    )


def _cmd_health(args: argparse.Namespace) -> int:
    """One-shot SLO health report for the sharded tier.

    Drives a sample workload through the server (so the harvested
    latency histograms have data), runs a supervision pass, harvests
    every shard's registry, and prints the scored report — a table by
    default, JSON with ``--json`` (the scripting surface), Prometheus
    text with ``--prom``.  Exit code 1 when any SLO check fails.
    """
    from .obs import build_health_report, render_prometheus

    made = _telemetry_server(args)
    if made is None:
        return 2
    server, clock, workload = made
    try:
        for start in range(0, len(workload), args.max_inflight):
            server.batch(workload[start:start + args.max_inflight])
        if clock is not None:
            clock.advance(1.0)
        server.tick()
        report = build_health_report(server, slo=_slo_from_args(args))
        if args.json:
            print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        elif args.prom:
            print(render_prometheus(server.metrics), end="")
        else:
            print(report.table())
        if args.metrics_out:
            server.metrics.write_json(args.metrics_out)
        if args.trace_out:
            server.write_merged_trace(args.trace_out)
        return 0 if report.ok else 1
    finally:
        server.close()


def _cmd_top(args: argparse.Namespace) -> int:
    """A refreshing live health table — htop for the shard tier.

    Each refresh drives one admission-sized wave of the sample
    workload, ticks the supervisor (harvesting shard telemetry), and
    redraws the SLO-scored table.  ``--iterations 0`` runs until
    interrupted.
    """
    import time

    from .obs import build_health_report

    made = _telemetry_server(args)
    if made is None:
        return 2
    server, clock, workload = made
    slo = _slo_from_args(args)
    refreshed = 0
    position = 0
    try:
        while args.iterations == 0 or refreshed < args.iterations:
            if workload:
                wave = [
                    workload[(position + i) % len(workload)]
                    for i in range(min(args.max_inflight, len(workload)))
                ]
                position += len(wave)
                server.batch(wave)
            if clock is not None:
                clock.advance(1.0)
            server.tick()
            report = build_health_report(server, slo=slo)
            refreshed += 1
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            tail = "" if args.iterations == 0 else "/%d" % args.iterations
            print("repro top — refresh %d%s  (interval %.1fs)"
                  % (refreshed, tail, args.interval))
            print(report.table())
            sys.stdout.flush()
            more = args.iterations == 0 or refreshed < args.iterations
            if more and args.interval > 0:
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    """Offline inference over an archived bundle — no probing at all."""
    from .core.bdrmap import BdrmapConfig, infer_from_collection
    from .core.heuristics import HeuristicConfig
    from .io import load_bundle

    loaded = _load_or_fail(load_bundle, args.bundle, "bundle")
    if loaded is None:
        return 2
    data, collection = loaded
    if collection is None:
        print("error: bundle has no traces.json", file=sys.stderr)
        return 2
    config = BdrmapConfig(
        heuristics=HeuristicConfig(use_refinement=args.refine)
    )
    result = infer_from_collection(collection, data, config=config)
    print(result.summary())
    if args.links:
        print(result.link_table())
    if args.out:
        save_result(result, args.out)
        print("saved to %s" % args.out)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Print one router's decision provenance from a saved result."""
    result = _load_or_fail(load_result, args.path, "result")
    if result is None:
        return 2
    if "." in args.router:
        from .addr import aton
        from .errors import AddressError

        try:
            addr = aton(args.router)
        except AddressError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        rid = result.graph.by_addr.get(addr)
        if rid is None:
            print("error: %s is not an observed interface in %s"
                  % (args.router, args.path), file=sys.stderr)
            return 2
    else:
        try:
            rid = int(args.router)
        except ValueError:
            print("error: ROUTER must be a router id or a dotted-quad "
                  "interface address (got %r)" % args.router, file=sys.stderr)
            return 2
    print(result.explain(rid))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Pretty-print a metrics registry written by ``--metrics-out``."""
    from .obs import load_metrics, registry_from_dict

    payload = _load_or_fail(load_metrics, args.path, "metrics file")
    if payload is None:
        return 2
    registry = registry_from_dict(payload)
    if args.prefix:
        for name, value in sorted(
            registry.counters_with_prefix(args.prefix).items()
        ):
            print("%-44s %12d" % (name, value))
    else:
        print(registry.summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Profile a span trace written by ``--trace-out``."""
    from .obs import format_span_tree, load_trace, profile_spans, \
        profile_table

    spans = _load_or_fail(load_trace, args.path, "trace file")
    if spans is None:
        return 2
    if args.tree:
        print(format_span_tree(spans))
    else:
        print(profile_table(profile_spans(spans)))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    result = _load_or_fail(load_result, args.path, "result")
    if result is None:
        return 2
    print(result.summary())
    if args.links:
        print(result.link_table())
    if args.explain is not None:
        print(result.explain(args.explain))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    factory = _SCENARIOS[args.name]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.vps is not None and args.name == "large_access":
        kwargs["n_vps"] = args.vps
    scenario = build_scenario(factory(**kwargs))
    data = build_data_bundle(scenario)
    results = [Bdrmap(scenario.network, vp, data).run() for vp in scenario.vps]
    print("measured %d VPs" % len(results))
    diversity = diversity_analysis(results, data.view, scenario.internet)
    print(diversity.summary())
    study_ases = scenario.state.dense_peer_asns + scenario.state.cdn_peer_asns
    if study_ases:
        marginal = marginal_utility(results, scenario.internet, study_ases)
        print(marginal.summary())
        geo = geography_analysis(results, scenario.internet, study_ases)
        print(geo.summary())
        if args.plot:
            from .analysis.plots import text_curve, text_scatter_rows

            curves = {}
            if scenario.state.dense_peer_asns:
                curves["dense"] = marginal.curves[
                    scenario.state.dense_peer_asns[0]
                ]
            if scenario.state.cdn_peer_asns:
                curves["cdn"] = marginal.curves[scenario.state.cdn_peer_asns[0]]
            print()
            print("Fig 15 (links discovered vs VPs):")
            print(text_curve(curves, x_label="VPs added"))
            for asn in study_ases[:2]:
                print()
                print("Fig 16 rows for AS%d (o = VP, * = links):" % asn)
                print(text_scatter_rows(geo.rows[asn]))
    return 0


def _cmd_congest(args: argparse.Namespace) -> int:
    """The §2 application: map borders, induce congestion, detect it."""
    from .congestion import (
        TSLPMonitor,
        detect_congestion,
        probe_targets_from_result,
    )
    from .net.congestion import CongestionProfile
    from .topology.model import LinkKind

    scenario = _build(args.name, args.seed)
    data = build_data_bundle(scenario)
    result = run_bdrmap(scenario, data=data)
    targets = probe_targets_from_result(result)
    congested = set()
    for target in targets:
        if len(congested) >= args.links:
            break
        iface = scenario.internet.addr_to_iface.get(target.far_addr)
        if iface is None:
            continue
        link = scenario.internet.links[iface.link_id]
        if link.kind is LinkKind.INTRA:
            continue
        scenario.network.congestion.congest(
            link.link_id, CongestionProfile(peak_ms=args.peak_ms)
        )
        congested.add((target.near_rid, target.far_rid))
    monitor = TSLPMonitor(
        scenario.network, scenario.vps[0].addr, targets, interval=1800.0
    )
    report = monitor.run(duration=args.days * 86400.0)
    hits = false_alarms = 0
    for key, series in sorted(report.series.items()):
        assessment = detect_congestion(series)
        detected = assessment.verdict.value == "congested"
        if detected and key in congested:
            hits += 1
        elif detected:
            false_alarms += 1
    print(
        "monitored %d links for %d days: detected %d/%d congested, "
        "%d false alarms"
        % (len(targets), args.days, hits, len(congested), false_alarms)
    )
    return 0


def _cmd_shard_chaos(args: argparse.Namespace) -> int:
    """Kill replicas of the sharded serving tier mid-batch and mid-swap
    and audit every answer against a single-process oracle."""
    import os
    import tempfile

    from .analysis.chaos import run_shard_chaos
    from .io import save_border_map
    from .net.faults import ChannelFaultPolicy
    from .serving import compile_border_map, make_workload

    scenario = _build(args.name, args.seed)
    data = build_data_bundle(scenario)
    result = run_bdrmap(scenario, data=data)
    bmap = compile_border_map(
        [result], view=data.view, rels=data.rels, epoch=1,
        source="shard-chaos %s" % args.name,
    )
    swap_map = compile_border_map(
        [result], view=data.view, rels=data.rels, epoch=2,
        source="shard-chaos swap %s" % args.name,
    )
    workload = make_workload(bmap, args.queries, seed=args.fault_seed)
    faults = None
    if args.channel_profile:
        from .net.faults import make_channel_faults

        faults = make_channel_faults(args.channel_profile)
    elif args.drop or args.garble or args.sever:
        faults = ChannelFaultPolicy(
            drop_rate=args.drop, garble_rate=args.garble,
            sever_rate=args.sever,
        )
    metrics, tracer = _make_obs(args, seed=args.fault_seed)
    with tempfile.TemporaryDirectory(prefix="bdrmap-chaos-") as workdir:
        old_path = os.path.join(workdir, "map-epoch1.json")
        new_path = os.path.join(workdir, "map-epoch2.json")
        save_border_map(bmap, old_path)
        save_border_map(swap_map, new_path)
        report = run_shard_chaos(
            old_path, workload, swap_path=new_path, swap_epoch=2,
            shards=args.shards, seed=args.fault_seed, faults=faults,
            metrics=metrics, tracer=tracer,
        )
    print(report.summary())
    _write_obs(args, metrics, tracer)
    return 0 if report.degrades_gracefully() else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos suite: accuracy vs escalating packet loss (or,
    with --shards, replica kills against the sharded serving tier)."""
    if args.shards:
        return _cmd_shard_chaos(args)

    from .analysis.chaos import run_chaos_suite

    def make_scenario():
        return _build(args.name, args.seed)

    metrics, tracer = _make_obs(args, seed=args.seed or 0)
    report = run_chaos_suite(
        make_scenario=make_scenario,
        scenario_name=args.name,
        loss_rates=tuple(rate / 100.0 for rate in args.loss),
        burst=args.burst,
        fault_seed=args.fault_seed,
        metrics=metrics,
        tracer=tracer,
    )
    print(report.summary())
    _write_obs(args, metrics, tracer)
    return 0 if report.degrades_gracefully() else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    reports = []
    for name in args.names:
        scenario = _build(name, args.seed)
        data = build_data_bundle(scenario)
        result = run_bdrmap(scenario, data=data)
        reports.append(coverage_table(result, data, name))
    if args.csv:
        from .analysis.coverage import table1_csv

        print(table1_csv(reports), end="")
    else:
        print(format_table1(reports))
    return 0


def _cmd_epoch(args: argparse.Namespace) -> int:
    from .core.epochs import EpochRunner, apply_seeded_churn, replay_chain

    scenario = _build(args.name, args.seed)
    metrics, tracer = _make_obs(
        args, clock=lambda: scenario.network.now, seed=args.seed or 0
    )
    runner = EpochRunner(
        scenario,
        out_dir=args.out_dir,
        source="cli:%s" % args.name,
        force_full=args.full,
        metrics=metrics,
        tracer=tracer,
    )
    churn_seed = args.churn_seed
    if churn_seed is None:
        churn_seed = scenario.config.asgen.seed
    for epoch in range(args.epochs):
        if epoch:
            events = apply_seeded_churn(
                scenario, seed=churn_seed, epoch=epoch,
                fraction=args.churn,
            )
            print("epoch %d churn: %s" % (
                epoch, ", ".join(e.kind for e in events)))
        record = runner.run_epoch()
        cost = record.cost
        print(
            "epoch %d [%s]: probes=%d traces=%d+%d replayed "
            "routers=%d live compile=%.1fms sections=%d patched"
            % (
                record.epoch, record.mode, cost.probes,
                cost.traces_probed, cost.traces_replayed,
                cost.routers_live,
                cost.compile_seconds * 1e3, cost.sections_patched,
            )
        )
        if record.diff is not None:
            diff = record.diff
            print(
                "  diff: +%d/-%d neighbors, +%d/-%d links, %d stable"
                % (
                    len(diff["gained_neighbors"]),
                    len(diff["lost_neighbors"]),
                    len(diff["added_links"]),
                    len(diff["removed_links"]),
                    diff["stable_links"],
                )
            )
    chain_path = runner.save_chain()
    if chain_path is not None:
        print("epoch chain written to %s" % chain_path)
    if args.verify:
        if chain_path is None:
            print("--verify needs --out-dir (no artifacts were saved)",
                  file=sys.stderr)
            return 2
        verified = replay_chain(chain_path)
        print("chain replay verified %d artifacts (patches reproduce "
              "every epoch byte-for-byte)" % len(verified))
    _write_obs(args, metrics, tracer)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="bdrmap reproduction (IMC 2016)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_scenario = subparsers.add_parser("scenario", help="print topology stats")
    p_scenario.add_argument("--name", choices=sorted(_SCENARIOS), default="mini")
    p_scenario.add_argument("--seed", type=int, default=None)
    p_scenario.set_defaults(func=_cmd_scenario)

    p_run = subparsers.add_parser("run", help="run bdrmap from one VP")
    p_run.add_argument("--name", choices=sorted(_SCENARIOS), default="mini")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--vp", type=int, default=0)
    p_run.add_argument("--out", default=None, help="save result JSON here")
    p_run.add_argument("--links", action="store_true", help="print link table")
    p_run.add_argument("--validate", action="store_true",
                       help="score against ground truth")
    p_run.add_argument("--refine", action="store_true",
                       help="enable the bdrmapIT-style ownership refinement")
    p_run.add_argument("--bundle", default=None, metavar="DIR",
                       help="archive the §5.2 inputs + traces for offline "
                            "re-analysis with `infer`")
    p_run.add_argument("--all-vps", action="store_true",
                       help="orchestrate every VP of the scenario (§5.8); "
                            "--out then saves the run report")
    p_run.add_argument("--sequential", action="store_true",
                       help="with --all-vps: run VPs one after another "
                            "instead of interleaving their probing")
    p_run.add_argument("--workers", type=int, default=None, metavar="N",
                       help="with --all-vps: shard VPs across N worker "
                            "processes (per-VP isolation; results are "
                            "byte-identical for any N, and --workers 1 "
                            "is the inline baseline)")
    p_run.add_argument("--run-out", default=None, metavar="PATH",
                       help="with --all-vps: save the full serialized "
                            "run (report + every per-VP result) here — "
                            "the byte-identity yardstick across "
                            "--workers counts")
    p_run.add_argument("--share-stop-sets", action="store_true",
                       help="share the doubletree stop set across target "
                            "ASes (fewer redundant border crossings, at "
                            "some per-target egress fidelity cost)")
    p_run.add_argument("--no-shared-aliases", action="store_true",
                       help="with --all-vps: give each VP its own alias "
                            "resolver instead of sharing evidence")
    p_run.add_argument("--fault-profile", default="clean",
                       choices=["clean", "light", "moderate", "heavy"],
                       help="inject faults (loss, storms, blackouts, "
                            "flaps) at the named severity; non-clean "
                            "profiles enable retry/backoff probing")
    p_run.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault plan")
    p_run.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="with --all-vps: write per-VP progress here "
                            "after each VP completes")
    p_run.add_argument("--resume", action="store_true",
                       help="with --all-vps --checkpoint: reload the "
                            "checkpoint and skip already-completed VPs")
    _add_obs_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_report = subparsers.add_parser(
        "report", help="inspect a saved multi-VP run report"
    )
    p_report.add_argument("path", help="report JSON from `run --all-vps --out`")
    p_report.add_argument("--passes", action="store_true",
                          help="print the per-heuristic-pass table")
    p_report.add_argument("--format", choices=("text", "table"),
                          default="text",
                          help="'table' appends the per-pass summary "
                               "(which §5.4 pass claimed how many routers)")
    p_report.set_defaults(func=_cmd_report)

    p_compile = subparsers.add_parser(
        "compile", help="compile results into a served BorderMap artifact"
    )
    p_compile.add_argument("results", nargs="*",
                           help="result JSON files from `run --out`")
    p_compile.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="also compile every result in this "
                                "checkpoint from `run --all-vps --checkpoint`")
    p_compile.add_argument("--out", required=True,
                           help="write the border map artifact here")
    p_compile.add_argument("--epoch", type=int, default=0,
                           help="epoch tag for the artifact (hot-swap "
                                "ordering)")
    p_compile.add_argument("--name", choices=sorted(_SCENARIOS), default=None,
                           help="rebuild this scenario's data bundle to "
                                "include the BGP LPM index and relationship "
                                "labels")
    p_compile.add_argument("--seed", type=int, default=None)
    p_compile.add_argument("--format", choices=("json", "binary"),
                           default="json",
                           help="'binary' writes the mmap-able flat "
                                "artifact (zero-copy load, pages shared "
                                "across worker processes); 'json' the "
                                "human-readable dict artifact")
    p_compile.set_defaults(func=_cmd_compile)

    p_query = subparsers.add_parser(
        "query", help="answer queries against a compiled border map"
    )
    p_query.add_argument("map", help="artifact from `compile --out`")
    p_query.add_argument("query", nargs="*",
                         help="queries like 'owner 1.2.3.4', "
                              "'border 1.2.3.4', 'neighbors 64500'")
    p_query.add_argument("--batch", default=None, metavar="FILE",
                         help="file of queries, one per line (# comments ok)")
    p_query.add_argument("--stats", action="store_true",
                         help="print service statistics")
    p_query.set_defaults(func=_cmd_query)

    p_serve = subparsers.add_parser(
        "serve",
        help="answer queries through the fault-tolerant sharded tier",
    )
    p_serve.add_argument("query", nargs="*",
                         help="'owner IP' | 'border IP' | 'neighbors ASN'")
    p_serve.add_argument("--map", required=True,
                         help="compiled BorderMap artifact (JSON or binary)")
    p_serve.add_argument("--batch", default=None, metavar="FILE",
                         help="file with one query per line")
    p_serve.add_argument("--shards", type=_positive_int, default=3,
                         help="replica count")
    p_serve.add_argument("--max-inflight", type=_positive_int, default=256,
                         help="requests admitted into the tier at once")
    p_serve.add_argument("--processes", action="store_true",
                         help="spawn one OS process per shard (default: "
                              "in-process replicas on a virtual clock)")
    p_serve.add_argument("--swap", default=None, metavar="PATH",
                         help="after answering, two-phase hot-swap to this "
                              "artifact and answer again")
    p_serve.add_argument("--swap-epoch", type=int, default=None,
                         help="epoch the --swap artifact serves as "
                              "(default: current epoch + 1)")
    p_serve.add_argument("--stats", action="store_true",
                         help="print server + supervisor summary")
    p_serve.add_argument("--async", dest="use_async", action="store_true",
                         help="route through the coalescing async front "
                              "end")
    p_serve.set_defaults(func=_cmd_serve)

    def _add_tier_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--map", required=True,
                            help="compiled BorderMap artifact (JSON or "
                                 "binary)")
        parser.add_argument("--shards", type=_positive_int, default=3,
                            help="replica count")
        parser.add_argument("--max-inflight", type=_positive_int,
                            default=64,
                            help="requests admitted into the tier at once")
        parser.add_argument("--processes", action="store_true",
                            help="spawn one OS process per shard")
        parser.add_argument("--queries", type=int, default=200,
                            help="sample workload size used to exercise "
                                 "the tier (0: report on an idle tier)")
        parser.add_argument("--seed", type=int, default=0,
                            help="workload + trace seed")
        parser.add_argument("--slo-p99-ms", type=float, default=250.0,
                            help="objective: tier-wide p99 query ms")
        parser.add_argument("--slo-shed-rate", type=float, default=0.05,
                            help="objective: max shed fraction")
        parser.add_argument("--slo-degraded-rate", type=float,
                            default=0.05,
                            help="objective: max degraded fraction")
        parser.add_argument("--slo-min-healthy", type=float, default=0.5,
                            help="objective: min healthy replica fraction")
        parser.add_argument("--no-require-converged", action="store_true",
                            help="don't fail the SLO on an unconverged "
                                 "tier")

    p_health = subparsers.add_parser(
        "health",
        help="one-shot SLO health report for the sharded tier",
    )
    _add_tier_args(p_health)
    p_health.add_argument("--json", action="store_true",
                          help="machine-readable report (the scripting "
                               "surface)")
    p_health.add_argument("--prom", action="store_true",
                          help="Prometheus text exposition of the "
                               "harvested registry")
    p_health.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="also write the harvested registry (JSON) "
                               "here")
    p_health.add_argument("--trace-out", default=None, metavar="PATH",
                          help="also write the merged cross-process span "
                               "trace (JSONL) here")
    p_health.set_defaults(func=_cmd_health)

    p_top = subparsers.add_parser(
        "top", help="live refreshing health table for the sharded tier"
    )
    _add_tier_args(p_top)
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="refresh count (0: until interrupted)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append refreshes instead of clearing the "
                            "screen (for logs/tests)")
    p_top.set_defaults(func=_cmd_top)

    p_infer = subparsers.add_parser(
        "infer", help="re-run inference over an archived bundle (no probing)"
    )
    p_infer.add_argument("bundle", help="bundle directory from `run --bundle`")
    p_infer.add_argument("--links", action="store_true")
    p_infer.add_argument("--refine", action="store_true")
    p_infer.add_argument("--out", default=None)
    p_infer.set_defaults(func=_cmd_infer)

    p_show = subparsers.add_parser("show", help="inspect a saved result")
    p_show.add_argument("path")
    p_show.add_argument("--links", action="store_true")
    p_show.add_argument("--explain", type=int, default=None, metavar="RID",
                        help="explain one inferred router's ownership")
    p_show.set_defaults(func=_cmd_show)

    p_explain = subparsers.add_parser(
        "explain",
        help="print one router's ownership rationale and the exact "
             "heuristic-pass chain (decision provenance) that produced it",
    )
    p_explain.add_argument("path", help="result JSON from `run --out`")
    p_explain.add_argument("router",
                           help="router id (e.g. 7) or one of its interface "
                                "addresses (e.g. 10.0.3.1)")
    p_explain.set_defaults(func=_cmd_explain)

    p_metrics = subparsers.add_parser(
        "metrics", help="pretty-print a --metrics-out registry dump"
    )
    p_metrics.add_argument("path", help="JSON from `run --metrics-out`")
    p_metrics.add_argument("--prefix", default=None, metavar="PFX",
                           help="show only counters under this prefix "
                                "(e.g. 'pass.' or 'retry.')")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_trace = subparsers.add_parser(
        "trace", help="profile a --trace-out span trace"
    )
    p_trace.add_argument("path", help="JSONL from `run --trace-out`")
    p_trace.add_argument("--tree", action="store_true",
                         help="render the span tree (parent/child "
                              "nesting, including cross-process worker "
                              "spans) instead of the profile table")
    p_trace.set_defaults(func=_cmd_trace)

    p_study = subparsers.add_parser("study", help="the §6 multi-VP analyses")
    p_study.add_argument("--name", choices=sorted(_SCENARIOS),
                         default="large_access")
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument("--vps", type=int, default=None)
    p_study.add_argument("--plot", action="store_true",
                         help="render ASCII figures")
    p_study.set_defaults(func=_cmd_study)

    p_congest = subparsers.add_parser(
        "congest", help="§2: monitor inferred borders for congestion"
    )
    p_congest.add_argument("--name", choices=sorted(_SCENARIOS), default="mini")
    p_congest.add_argument("--seed", type=int, default=None)
    p_congest.add_argument("--links", type=int, default=3,
                           help="how many links to congest")
    p_congest.add_argument("--days", type=int, default=2)
    p_congest.add_argument("--peak-ms", type=float, default=35.0)
    p_congest.set_defaults(func=_cmd_congest)

    p_chaos = subparsers.add_parser(
        "chaos", help="run the pipeline under escalating packet loss"
    )
    p_chaos.add_argument("--name", choices=sorted(_SCENARIOS), default="mini")
    p_chaos.add_argument("--seed", type=int, default=None)
    p_chaos.add_argument("--loss", type=float, nargs="+",
                         default=[0.0, 1.0, 5.0, 10.0], metavar="PCT",
                         help="loss percentages to sweep (0 = baseline)")
    p_chaos.add_argument("--burst", action="store_true",
                         help="use Gilbert-Elliott bursty loss on top of "
                              "independent loss")
    p_chaos.add_argument("--fault-seed", type=int, default=7)
    p_chaos.add_argument("--shards", type=int, default=0, metavar="N",
                         help="instead of packet loss, kill replicas of an "
                              "N-shard serving tier mid-batch and mid-swap "
                              "and audit every answer against the oracle")
    p_chaos.add_argument("--queries", type=int, default=200,
                         help="workload size for --shards mode")
    p_chaos.add_argument("--drop", type=float, default=0.0,
                         help="shard-channel drop rate (--shards mode)")
    p_chaos.add_argument("--garble", type=float, default=0.0,
                         help="shard-channel garble rate (--shards mode)")
    p_chaos.add_argument("--sever", type=float, default=0.0,
                         help="shard-channel sever rate (--shards mode)")
    p_chaos.add_argument("--channel-profile", default=None,
                         choices=("clean", "flaky", "lossy", "hostile"),
                         help="named shard-channel fault preset "
                              "(overrides --drop/--garble/--sever)")
    _add_obs_args(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_epoch = subparsers.add_parser(
        "epoch",
        help="longitudinal runs: seeded churn + incremental re-inference "
             "with in-place compiled-map patching",
    )
    p_epoch.add_argument("--name", choices=sorted(_SCENARIOS), default="mini")
    p_epoch.add_argument("--seed", type=int, default=None)
    p_epoch.add_argument("--epochs", type=int, default=3,
                         help="how many measurement epochs to run")
    p_epoch.add_argument("--churn", type=float, default=0.05,
                         help="fraction of interdomain links mutated "
                              "between epochs")
    p_epoch.add_argument("--churn-seed", type=int, default=None,
                         help="seed for the deterministic churn stream "
                              "(default: the scenario seed)")
    p_epoch.add_argument("--out-dir", default=None, metavar="DIR",
                         help="save per-epoch artifacts, patches, and "
                              "chain.json here")
    p_epoch.add_argument("--full", action="store_true",
                         help="disable all caches: recompute every epoch "
                              "from scratch (the byte-identity baseline)")
    p_epoch.add_argument("--verify", action="store_true",
                         help="after the run, replay every patch onto the "
                              "previous artifact and byte-compare against "
                              "the epoch's own artifact")
    _add_obs_args(p_epoch)
    p_epoch.set_defaults(func=_cmd_epoch)

    p_table1 = subparsers.add_parser("table1", help="print Table 1 columns")
    p_table1.add_argument("--names", nargs="+", choices=sorted(_SCENARIOS),
                          default=["re_network"])
    p_table1.add_argument("--seed", type=int, default=None)
    p_table1.add_argument("--csv", action="store_true",
                          help="emit machine-readable CSV")
    p_table1.set_defaults(func=_cmd_table1)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
