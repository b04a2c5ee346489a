"""The comparison of two sets of runs."""

from bench.compare import compare
from bench.metrics import Metric

RUN_S = Metric("run_s", "s", "lower", 0.10)
SETUP_S = Metric("setup_s", "s", "lower", 0.10)
SLO = Metric("slo_qps", "1/s", "higher", 0.10, workloads=("serve-zipf",))


def _runs(workload, *values_per_run):
    return {workload: [
        {"workload": workload, "metrics": {
            name: {"value": value, "unit": "s"}
            for name, value in values.items()}}
        for values in values_per_run
    ]}


def _verdicts(a, b, metrics):
    return {(workload, metric.name): row["verdict"]
            for workload, metric, row in compare(a, b, metrics)}


def test_agreeing_sets_are_ok_and_a_shift_is_a_diff():
    a = _runs("serve-zipf", *({"run_s": v} for v in (1.0, 1.01, 0.99, 1.0)))
    same = _runs("serve-zipf", *({"run_s": v} for v in (1.0, 1.02, 0.99)))
    slower = _runs("serve-zipf", *({"run_s": v} for v in (1.2, 1.21, 1.19)))
    assert _verdicts(a, same, [RUN_S]) == {("serve-zipf", "run_s"): "ok"}
    assert _verdicts(a, slower, [RUN_S]) == {("serve-zipf", "run_s"): "DIFF"}


def test_setup_time_spread_is_tested_like_any_other():
    noisy = _runs("serve-zipf",
                  *({"setup_s": v} for v in (1.0, 1.5, 0.7, 1.0, 1.3, 0.8)))
    assert _verdicts(noisy, noisy, [SETUP_S]) == {
        ("serve-zipf", "setup_s"): "NOISY"}


def test_metric_missing_from_one_set_is_a_diff():
    """A tier that could not hold the lowest ladder rate must not drop
    out of the comparison: a set that lacks the metric differs."""
    a = _runs("serve-zipf", {"slo_qps": 30000.0}, {"slo_qps": 31000.0})
    b = _runs("serve-zipf", {"run_s": 1.0}, {"run_s": 1.0})
    assert _verdicts(a, b, [SLO]) == {("serve-zipf", "slo_qps"): "DIFF"}


def test_metric_missing_from_some_runs_is_a_diff():
    a = _runs("serve-zipf", *({"run_s": 1.0} for _ in range(4)))
    b = _runs("serve-zipf", {"run_s": 1.0}, {"run_s": 1.0}, {})
    assert _verdicts(a, b, [RUN_S]) == {("serve-zipf", "run_s"): "DIFF"}


def test_workload_run_in_one_set_only_is_a_diff():
    a = _runs("serve-zipf", {"run_s": 1.0})
    a.update(_runs("epoch-churn", {"run_s": 9.0}))
    b = _runs("serve-zipf", {"run_s": 1.0})
    assert _verdicts(a, b, [RUN_S]) == {
        ("epoch-churn", "run_s"): "DIFF", ("serve-zipf", "run_s"): "ok"}
