"""Probing scheduler (§5.3).

bdrmap probes one address block per target AS at a time (politeness) but
multiple target ASes in parallel (run time).  Tasks are generators that
yield after each unit of probing; the scheduler interleaves up to
``parallelism`` of them round-robin, starting queued tasks as slots free
up — a single-threaded rendition of scamper's probing loop.

A task that raises no longer kills the whole run: the failure is recorded,
the remaining tasks complete, and the first exception is re-raised at the
end (or merely reported, with ``reraise=False`` — what a resilient
orchestrator wants: one target AS's crash should not strand the others).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY


class RoundRobinScheduler:
    """Interleave generator-based probing tasks.

    ``metrics``/``label`` name the phase (``scheduler.<label>.*``
    counters), so a run's trace shows how many tasks each probing
    phase completed, failed, and stepped through.
    """

    def __init__(self, parallelism: int = 8,
                 metrics: Optional[MetricsRegistry] = None,
                 label: str = "probing") -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.label = label
        self._pending: Deque[Iterator[None]] = deque()
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.failures: List[Tuple[Iterator[None], BaseException]] = []

    def add(self, task: Iterator[None]) -> None:
        self._pending.append(task)

    def add_all(self, tasks) -> None:
        for task in tasks:
            self.add(task)

    def run(self, reraise: bool = True) -> int:
        """Run all tasks to completion; returns number of scheduler steps.

        Exceptions from individual tasks are caught and collected in
        ``self.failures`` so the remaining active and pending tasks still
        run; ``tasks_completed``/``tasks_failed`` stay consistent either
        way.  With ``reraise=True`` (the default) the first failure is
        re-raised once everything else has finished.
        """
        active: List[Iterator[None]] = []
        steps = 0
        completed_before = self.tasks_completed
        failed_before = self.tasks_failed
        # ``failures`` accumulates across run() calls (callers inspect it
        # after several phases); re-raising must still be scoped to *this*
        # run, or a second run would re-raise a stale, already-reported
        # failure from the first.
        failures_before = len(self.failures)
        while self._pending or active:
            while self._pending and len(active) < self.parallelism:
                active.append(self._pending.popleft())
            finished: List[int] = []
            for index, task in enumerate(active):
                try:
                    next(task)
                except StopIteration:
                    finished.append(index)
                    self.tasks_completed += 1
                except Exception as exc:  # noqa: BLE001 - isolate the task
                    finished.append(index)
                    self.tasks_failed += 1
                    self.failures.append((task, exc))
                steps += 1
            for index in reversed(finished):
                active.pop(index)
        metrics = self.metrics
        if metrics.enabled:
            prefix = "scheduler.%s." % self.label
            metrics.inc(
                prefix + "tasks_completed",
                self.tasks_completed - completed_before,
            )
            metrics.inc(
                prefix + "tasks_failed", self.tasks_failed - failed_before
            )
            metrics.inc(prefix + "steps", steps)
        if reraise and len(self.failures) > failures_before:
            raise self.failures[failures_before][1]
        return steps
