"""The whole harness, end to end, on the mini scenario."""

import json
import os
import shutil
import subprocess
import sys
import time

from bench.metrics import end_to_end, load_record

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def test_smoke_runs_all_four_workloads_in_under_a_minute():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], cwd=ROOT, capture_output=True,
        text=True, timeout=180,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = _results(proc.stdout)
    assert len(results) == 4
    names = {metric.name for metric in end_to_end(load_record())}
    for result in results:
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert elapsed < 60


def test_refuses_to_run_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints
    no result."""
    shutil.copytree(os.path.join(ROOT, "bench"), str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert _results(proc.stdout) == []
