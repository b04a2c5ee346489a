"""Run the benchmark of record.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out FILE]

Without ``--workload`` every workload runs, one after another, each in a
fresh process.  A run prints every metric by name and unit, then, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics).  It exits 1 when any output was
wrong and 2 when it cannot run at all.  ``--out FILE`` appends the
run's full record (sample counts and quartiles included) to a JSON-lines
file that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the query mixes, arrival times and "
                             "checked query samples; topologies and the "
                             "churn sequence are fixed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of a serving run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes on the mini scenario")
    parser.add_argument("--out", help="append the run's record (JSON lines)")
    return parser.parse_args(argv)


def _host() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _fmt(value: float) -> str:
    return "%.6g" % value


def _print_metrics(run) -> None:
    print("%-34s %14s %-9s %5s %14s %14s"
          % ("metric", "median", "unit", "n", "q1", "q3"))
    for name, entry in run.metrics.items():
        print("%-34s %14s %-9s %5s %14s %14s" % (
            name, _fmt(entry["value"]), entry["unit"], entry.get("n", ""),
            _fmt(entry["q1"]) if "q1" in entry else "",
            _fmt(entry["q3"]) if "q3" in entry else "",
        ))
    for key, value in run.notes.items():
        print("note %s: %s" % (key, value))


def _print_layers(tracer) -> None:
    own = tracer.self_times()
    calls = tracer.calls()
    wall = tracer.root_seconds()
    print("%-28s %12s %10s %8s" % ("layer", "self_s", "calls", "share"))
    for layer, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print("%-28s %12.6f %10d %7.2f%%"
              % (layer, seconds, calls[layer], 100.0 * seconds / wall))
    print("traced wall %.6f s, closure %.4f" % (wall, tracer.closure()))


def _run_all(args: argparse.Namespace, names: List[str]) -> int:
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", os.path.abspath(args.out)]
        print("== %s" % name, flush=True)
        code = subprocess.run(command, cwd=ROOT).returncode
        status = status or code
    return status


def _run_one(args: argparse.Namespace, record: Dict) -> int:
    from bench import metrics
    from bench.tracing import Tracer
    from bench.workloads import FULL, OUT_DIR, SMOKE, Run, execute

    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 1.0 if args.smoke else float(record["run_seconds"])
    workdir = os.path.join(
        OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    run = Run(
        workload=args.workload, seed=args.seed, seconds=seconds,
        sizes=SMOKE if args.smoke else FULL, workdir=workdir,
        tracer=Tracer() if args.trace else None,
    )
    try:
        execute(run, dict(metrics.per_layer(record)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s, seed %d%s%s" % (
        run.workload, run.seed, ", traced" if args.trace else "",
        ", smoke" if args.smoke else ""))
    _print_metrics(run)
    if run.tracer is not None:
        _print_layers(run.tracer)
        trace_path = os.path.join(
            OUT_DIR, "trace-%s-seed%d.jsonl" % (run.workload, run.seed))
        run.tracer.write_jsonl(trace_path)
        print("spans: %s" % trace_path)
    for problem in run.wrong[:20]:
        print("WRONG: %s" % problem)

    declared = (metrics.per_layer(record) if args.trace else
                [(m.name, m.unit) for m in metrics.end_to_end(record)])
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name]["value"], "unit": unit}
            for name, unit in declared
        },
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": run.workload, "seed": run.seed,
                "trace": bool(args.trace), "smoke": args.smoke,
                "correct": result["correct"], "attempted": run.attempted,
                "failed": run.failed, "metrics": run.metrics,
                "notes": run.notes, "host": _host(),
            }, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no repro package under %s; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    # Import the harness as the ``bench`` package, never its modules as
    # top-level names (the script's own directory heads sys.path).
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench import metrics

    record = metrics.load_record()
    names = metrics.workload_names(record)
    if args.workload is None:
        return _run_all(args, names)
    if args.workload not in names:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    return _run_one(args, record)


if __name__ == "__main__":
    sys.exit(main())
