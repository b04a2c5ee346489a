"""The benchmark's metric definitions.

``BENCHMARK.json`` at the repository root is the record of the
end-to-end metrics (with their regression bounds), the per-layer
metrics and the workloads; this module reads it so the runner, the
comparison tool and the file can never disagree.  ``WORKLOAD_METRICS``
adds the metrics that exist on some workloads only (probe counts,
accuracy, request latency, SLO rate, saturation rate, failure rate,
swap time).  They are printed and compared like the others, but cannot
be end-to-end metrics in ``BENCHMARK.json``, which requires every
workload to report every end-to-end metric.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(ROOT, "BENCHMARK.json")

PIPELINES = ("pipeline-large", "epoch-churn")
SERVES = ("serve-uniform", "serve-zipf")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float         # allowed worsening of the median
    absolute: bool = False   # bound in the metric's unit, not a share
    workloads: Tuple[str, ...] = PIPELINES + SERVES


#: Deterministic counts and accuracy have a zero bound: any change is a
#: change in behaviour, not noise.
WORKLOAD_METRICS: Tuple[Metric, ...] = (
    Metric("probes", "count", "lower", 0.0, workloads=PIPELINES),
    Metric("link_accuracy", "fraction", "higher", 0.0,
           workloads=("pipeline-large",)),
    Metric("p50_ms", "ms", "lower", 0.10, workloads=SERVES),
    Metric("p99_ms", "ms", "lower", 0.10, workloads=SERVES),
    Metric("slo_qps", "1/s", "higher", 0.10, workloads=SERVES),
    Metric("sat_qps", "1/s", "higher", 0.10, workloads=SERVES),
    Metric("fail_rate", "fraction", "lower", 0.001, absolute=True,
           workloads=SERVES),
    Metric("swap_ms", "ms", "lower", 0.10, workloads=("serve-zipf",)),
)


def load_record(path: str = RECORD_PATH) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(record: Dict) -> List[Metric]:
    return [
        Metric(entry["name"], entry["unit"], entry["better"],
               float(entry["bound"]))
        for entry in record["end_to_end"]
    ]


def per_layer(record: Dict) -> List[Tuple[str, str]]:
    return [(entry["name"], entry["unit"]) for entry in record["per_layer"]]


def workload_names(record: Dict) -> List[str]:
    return [entry["name"] for entry in record["workloads"]]


def comparable(record: Dict) -> List[Metric]:
    """Every metric with a bound: the end-to-end ones, then the
    workload-specific ones."""
    return end_to_end(record) + list(WORKLOAD_METRICS)
