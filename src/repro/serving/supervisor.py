"""Shard supervision: heartbeats, circuit breakers, backoff restarts.

A replica process can die at any moment — OOM kill, a poisoned query, a
chaos test's ``kill()``.  The supervisor turns that from an outage into
a bounded degradation:

* a per-shard **circuit breaker** stops the front end from burning its
  deadline budget on a shard that just failed (closed → open on
  :data:`FAILURE_THRESHOLD` consecutive failures; open → half-open after
  ``reset_timeout_s`` on the supervisor's clock; one probe request
  closes or re-opens it);
* **restart with exponential backoff + full jitter** rebuilds the
  transport from the last *committed* artifact path, so a shard that
  died mid-swap comes back already converged to the committed epoch —
  it can never resurrect a stale one;
* **heartbeats** (the shard protocol's ``ping``) detect silent deaths
  between queries and report each replica's served epoch token, which
  is how the tier notices a replica lagging an epoch swap.

Time here is a caller-supplied clock callable — the chaos tests hand in
a virtual clock, so breaker timeouts and backoff schedules reproduce
exactly under a seed; nothing in this module reads the wall clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import DataError, MeasurementError
from ..obs.metrics import MetricsRegistry
from ..rng import make_rng
from .shard import ShardChannel

#: Circuit breaker states, in escalation order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Consecutive failures that open a closed breaker.
FAILURE_THRESHOLD = 3


class CircuitBreaker:
    """Consecutive-failure breaker with a clocked half-open probe."""

    def __init__(self, reset_timeout_s: float = 30.0) -> None:
        self.reset_timeout_s = reset_timeout_s
        self.state = CLOSED
        self.failures = 0           # consecutive, resets on success
        self.opened_at = 0.0
        self.trips = 0              # lifetime closed→open transitions

    def allow(self, now: float) -> bool:
        """May a request be sent now?  An expired open breaker moves to
        half-open and admits exactly the probe request."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at >= self.reset_timeout_s:
                self.state = HALF_OPEN
                return True
            return False
        return True  # half-open: the probe is in flight

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= FAILURE_THRESHOLD:
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self.opened_at = now


class RestartPolicy:
    """Exponential backoff with full jitter for shard restarts.

    Delay before restart k (1-based) is a uniform draw from
    ``[0, min(max_backoff_s, base_s * 2**(k-1))]`` — jittered so N
    shards felled by one event don't all reload the artifact in the
    same instant.  Draws come from ``repro.rng`` under ``seed``, so a
    chaos run's restart timeline replays exactly.
    """

    def __init__(self, base_s: float = 0.5, max_backoff_s: float = 30.0,
                 seed: int = 0) -> None:
        self.base_s = base_s
        self.max_backoff_s = max_backoff_s
        self._rng = make_rng(seed, "supervisor", "restart")

    def delay(self, restart_number: int) -> float:
        if self.base_s <= 0:
            return 0.0
        cap = min(self.max_backoff_s,
                  self.base_s * 2 ** (max(restart_number, 1) - 1))
        return self._rng.uniform(0.0, cap)


class SupervisedShard:
    """One shard's supervision record: channel, breaker, restart state."""

    def __init__(self, channel: ShardChannel, breaker: CircuitBreaker) -> None:
        self.channel = channel
        self.breaker = breaker
        self.restarts = 0
        self.restart_due_at: Optional[float] = None  # pending restart time
        self.last_seen_epoch = -1
        self.last_seen_token = -1

    @property
    def shard_id(self) -> int:
        return self.channel.shard_id


class ShardSupervisor:
    """Keeps N shard replicas answering.

    The front end reports request outcomes (:meth:`record_success` /
    :meth:`record_failure`); :meth:`tick` is the supervision pass —
    heartbeat live shards, schedule restarts for dead ones whose
    backoff is due, and restart them from ``committed_path`` (updated by
    the server on every committed epoch swap).  All timing runs on the
    supplied ``clock`` callable.
    """

    def __init__(
        self,
        channels: List[ShardChannel],
        committed_path: str,
        clock: Callable[[], float],
        reset_timeout_s: float = 30.0,
        restart_policy: Optional[RestartPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if metrics is None or not metrics.enabled:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self.clock = clock
        self.committed_path = committed_path
        # The swap token of the committed epoch (0 until the first
        # committed swap).  Restarted shards are handed this token so a
        # replica reborn from the committed artifact starts converged.
        self.committed_token = 0
        self.restart_policy = restart_policy or RestartPolicy()
        self.shards = [
            SupervisedShard(channel, CircuitBreaker(reset_timeout_s))
            for channel in channels
        ]
        self._gauge_states()

    # -- outcome reporting --------------------------------------------------

    def record_success(self, shard: SupervisedShard) -> None:
        shard.breaker.record_success()
        self._gauge_states()

    def record_failure(self, shard: SupervisedShard) -> None:
        now = self.clock()
        was_open = shard.breaker.state == OPEN
        shard.breaker.record_failure(now)
        if shard.breaker.state == OPEN and not was_open:
            self.metrics.inc("serving.supervisor.breaker_trips")
        self.metrics.inc("serving.supervisor.failures")
        # A dead transport needs a restart; a live one that merely
        # erred does not.
        if not shard.channel.alive and shard.restart_due_at is None:
            self._schedule_restart(shard, now)
        self._gauge_states()

    def _schedule_restart(self, shard: SupervisedShard, now: float) -> None:
        shard.restarts += 1
        delay = self.restart_policy.delay(shard.restarts)
        shard.restart_due_at = now + delay
        self.metrics.inc("serving.supervisor.restarts_scheduled")

    # -- the supervision pass ------------------------------------------------

    def tick(self) -> Dict[int, str]:
        """One supervision pass; returns {shard_id: action} for the log.

        Restarts whose backoff has elapsed run now; live shards get a
        heartbeat ping (through the channel, so injected faults apply
        to heartbeats exactly as to queries), and a failed heartbeat is
        recorded like any failed request.
        """
        actions: Dict[int, str] = {}
        now = self.clock()
        for shard in self.shards:
            if shard.restart_due_at is not None:
                if now < shard.restart_due_at:
                    actions[shard.shard_id] = "backoff"
                    continue
                shard.restart_due_at = None
                try:
                    shard.channel.transport.restart(
                        self.committed_path, self.committed_token
                    )
                except Exception:  # noqa: BLE001 - retried next tick
                    self.metrics.inc("serving.supervisor.restart_failures")
                    self._schedule_restart(shard, now)
                    actions[shard.shard_id] = "restart-failed"
                    continue
                self.metrics.inc("serving.supervisor.restarts")
                shard.breaker.record_success()
                actions[shard.shard_id] = "restarted"
            if not shard.channel.alive:
                if shard.restart_due_at is None:
                    self._schedule_restart(shard, now)
                actions.setdefault(shard.shard_id, "dead")
                continue
            try:
                payload = shard.channel.request("ping")
            except (MeasurementError, DataError):
                self.record_failure(shard)
                actions[shard.shard_id] = "heartbeat-failed"
                continue
            shard.last_seen_epoch = payload.get("epoch", -1)
            shard.last_seen_token = payload.get("token", -1)
            self.record_success(shard)
            actions.setdefault(shard.shard_id, "healthy")
        self._gauge_states()
        return actions

    # -- introspection -------------------------------------------------------

    def healthy(self, shard: SupervisedShard) -> bool:
        return shard.channel.alive and shard.breaker.allow(self.clock())

    def healthy_count(self) -> int:
        return sum(1 for shard in self.shards if self.healthy(shard))

    def converged(self, token: int) -> bool:
        """Has every live shard reported serving swap ``token``?"""
        return all(
            shard.last_seen_token == token
            for shard in self.shards
            if shard.channel.alive
        )

    def _gauge_states(self) -> None:
        for shard in self.shards:
            self.metrics.set_gauge(
                "serving.shard.%d.breaker_open" % shard.shard_id,
                0.0 if shard.breaker.state == CLOSED else 1.0,
            )
            self.metrics.set_gauge(
                "serving.shard.%d.alive" % shard.shard_id,
                1.0 if shard.channel.alive else 0.0,
            )

    def summary(self) -> str:
        lines = ["supervisor: %d/%d shards healthy"
                 % (self.healthy_count(), len(self.shards))]
        for shard in self.shards:
            lines.append(
                "  shard %d: %s breaker=%s restarts=%d epoch=%d token=%d"
                % (
                    shard.shard_id,
                    "alive" if shard.channel.alive else "DOWN",
                    shard.breaker.state,
                    shard.restarts,
                    shard.last_seen_epoch,
                    shard.last_seen_token,
                )
            )
        return "\n".join(lines)
