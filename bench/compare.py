"""Compare two sets of benchmark runs.

    python bench/compare.py A.jsonl B.jsonl

Each file holds the records ``bench/run.py --out FILE`` appended, one
run per line (traced and smoke runs are skipped).  For every workload
and every metric with a bound, the tool prints each set's median,
quartiles and spread (inter-quartile distance over the median), the
change of B's median against A's, and a verdict:

* ``ok``: the medians differ by no more than the metric's bound, and
  neither set spreads wider than the bound;
* ``DIFF``: the medians differ by more than the bound, or some run of
  either set lacks the metric (a workload that ran in one set only
  lacks all of them), so the medians would come from fewer runs than
  were made;
* ``NOISY``: the medians agree but a set spreads wider than the bound,
  so agreement is not resolved.

A metric with an absolute bound (``fail_rate``) has its change and
spread in its own unit, not as shares.  A zero bound means any change
or spread at all fails: those metrics are deterministic.  The exit
status is 1 when any verdict is ``DIFF`` or ``NOISY``, else 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from bench.metrics import Metric, comparable, load_record  # noqa: E402
from bench.stats import spread, summarize  # noqa: E402

Runs = Dict[str, List[dict]]  # workload -> records


def load_runs(path: str) -> Runs:
    runs: Runs = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry.get("trace") or entry.get("smoke"):
                continue
            runs[entry["workload"]].append(entry)
    return runs


def _values(records: Sequence[dict], name: str) -> List[float]:
    return [entry["metrics"][name]["value"]
            for entry in records if name in entry["metrics"]]


def verdict(metric: Metric, a: List[float], b: List[float],
            runs_a: int, runs_b: int) -> dict:
    """The comparison row of one metric on one workload: ``a`` and
    ``b`` are its values in the runs of each set that have it, out of
    ``runs_a`` and ``runs_b`` runs."""
    if not a or not b or len(a) != runs_a or len(b) != runs_b:
        return {"verdict": "DIFF", "missing":
                "in %d of %d runs of A, %d of %d of B"
                % (len(a), runs_a, len(b), runs_b)}
    sa, sb = summarize(a), summarize(b)
    delta = sb["median"] - sa["median"]
    if metric.absolute:
        change = delta
        spreads = (sa["q3"] - sa["q1"], sb["q3"] - sb["q1"])
    else:
        change = (delta / sa["median"] if sa["median"]
                  else 0.0 if delta == 0 else math.inf)
        spreads = (spread(sa), spread(sb))
    row = {"a": sa, "b": sb, "spread_a": spreads[0], "spread_b": spreads[1],
           "change": change}
    if abs(change) > metric.bound:
        row["verdict"] = "DIFF"
    elif max(spreads) > metric.bound:
        row["verdict"] = "NOISY"
    else:
        row["verdict"] = "ok"
    return row


def compare(a: Runs, b: Runs, metrics: Sequence[Metric]) -> List[tuple]:
    """A row per workload of either set and metric of that workload
    that some run of either set reports."""
    rows = []
    for workload in sorted(set(a) | set(b)):
        runs_a, runs_b = a.get(workload, []), b.get(workload, [])
        for metric in metrics:
            if workload not in metric.workloads:
                continue
            va = _values(runs_a, metric.name)
            vb = _values(runs_b, metric.name)
            if va or vb:
                rows.append((workload, metric, verdict(
                    metric, va, vb, len(runs_a), len(runs_b))))
    return rows


def _fmt(summary: dict) -> str:
    return "%.5g [%.5g, %.5g] n=%d" % (
        summary["median"], summary["q1"], summary["q3"], summary["n"])


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(a, b, comparable(load_record()))
    print("%-14s %-13s %-10s %-36s %-36s %8s %8s %8s %7s %s" % (
        "workload", "metric", "unit", "A median [q1, q3]",
        "B median [q1, q3]", "spreadA", "spreadB", "change", "bound",
        "verdict"))
    for workload, metric, row in rows:
        if "missing" in row:
            print("%-14s %-13s %-10s missing: reported %s  %s" % (
                workload, metric.name, metric.unit, row["missing"],
                row["verdict"]))
            continue
        if metric.absolute:
            shares = ["%+.4f" % row[key]
                      for key in ("spread_a", "spread_b", "change")]
            bound = "%g" % metric.bound
        else:
            shares = ["%+.2f%%" % (100 * row[key])
                      for key in ("spread_a", "spread_b", "change")]
            bound = "%g%%" % (100 * metric.bound)
        print("%-14s %-13s %-10s %-36s %-36s %8s %8s %8s %7s %s" % (
            workload, metric.name, metric.unit, _fmt(row["a"]),
            _fmt(row["b"]), *shares, bound, row["verdict"]))
    failing = [row for _, _, row in rows if row["verdict"] in ("DIFF", "NOISY")]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
