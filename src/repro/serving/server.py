"""The sharded serving front end: key-hash routing, admission control,
failover, and coordinated two-phase epoch swaps.

:class:`ShardedBorderServer` is what a deployment runs when one
process's worth of query throughput isn't enough: N replicas (each a
full :class:`~repro.serving.backend.BorderMapBackend` behind a
:class:`~repro.serving.shard.ShardChannel`), queries routed by a stable
key hash, a :class:`~repro.serving.supervisor.ShardSupervisor` keeping
the replicas alive.  The contract under failure is *explicit
degradation*:

* **Admission control** — at most ``max_inflight`` requests are
  admitted into the tier at once, counted as the shard work they cost:
  every request on the synchronous path, which sends each duplicate
  to its shard, and every distinct ``(op, key)`` on the coalescing
  front end; overflow is shed immediately with a ``degraded``
  :class:`~repro.serving.service.Answer` (``note=SHED_NOTE``), never
  silently dropped and never queued unboundedly.
* **Failover** — a request whose home shard is down or breaker-open is
  retried on the next healthy replica; replicas hold the same map, so a
  failover answer is byte-identical to the home shard's.  Only when no
  replica can answer does the caller get a degraded ``unavailable``
  answer.
* **Stale-epoch marking** — every query reply carries the shard's swap
  token; answers from a replica that has not yet committed the current
  epoch are delivered (they are correct for their own epoch) but marked
  ``degraded`` with ``note="stale-epoch"``.

The **two-phase swap** (:meth:`ShardedBorderServer.swap`) draws its
token from the process-unique counter
(:func:`~repro.serving.bordermap.next_generation`): phase one stages
the new artifact on every live shard (load happens while the old epoch
serves); only if *all* prepares succeed is the epoch
committed — otherwise every stage is aborted and the old epoch keeps
serving (keep-last-good).  Phase two commits shard by shard; a shard
that dies between prepare and commit is restarted by the supervisor
from the *committed* artifact path, so it re-converges instead of
resurrecting the old epoch.

The server owns every dispatch step; :meth:`ShardedBorderServer.batch`
and the async front end (:mod:`repro.serving.frontend`) run the same
short per-group loop over them, and only the front end awaits.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import DataError, MeasurementError
from ..net.faults import ChannelFaultPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, perf_clock
from .bordermap import next_generation
from .service import Answer, check_ops
from .shard import (
    InProcessTransport,
    ShardChannel,
    SpawnProcessTransport,
    span_from_wire,
)
from .supervisor import RestartPolicy, ShardSupervisor, SupervisedShard

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Note on every answer admission control sheds, on either dispatch
#: path; it starts with "shed", which is what :func:`is_shed` tests.
SHED_NOTE = "shed: server over capacity"


def shard_index(key: int, count: int) -> int:
    """Stable key→shard routing hash (splitmix64 finalizer).

    A pure function of the key, identical in every process, so a front
    end restart (or a second front end) routes the same keys to the
    same replicas and their answer memos stay warm.
    """
    x = (key + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % count


def is_shed(answer: Answer) -> bool:
    """Was this answer shed by admission control (vs degraded for any
    other reason)?  Shed and degraded are counted *disjointly*: a shed
    answer carries ``degraded=True`` but must only ever land in the
    ``shed`` counter, or the tier's degraded rate silently includes
    admission-control rejections."""
    return answer.note.startswith("shed")


def mark_stale(answers: Sequence[Answer], token: int,
               committed_token: int) -> List[Answer]:
    """Re-tag a replica's answers as stale-epoch degraded: correct for
    the epoch the replica serves, but not what a converged tier would
    say."""
    return [
        Answer(
            op=answer.op, key=answer.key, value=answer.value,
            epoch=answer.epoch, degraded=True,
            note="stale-epoch: shard token %d != committed %d"
                 % (token, committed_token),
        )
        for answer in answers
    ]


class VirtualClock:
    """A manually advanced clock for deterministic serving timelines."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds > 0:
            self.now += seconds


class ShardedBorderServer:
    """Front end over N supervised shard replicas (see module docs)."""

    def __init__(
        self,
        channels: List[ShardChannel],
        artifact_path: str,
        epoch: int,
        clock,
        max_inflight: int = 256,
        failure_threshold: int = 3,
        reset_timeout_s: float = 30.0,
        restart_policy: Optional[RestartPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if not channels:
            raise ValueError("a sharded server needs at least one shard")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        # One canonical registry.  Internal bookkeeping (request/shed/
        # degraded counters back the public properties) always needs a
        # real registry, so a None/disabled argument gets a private one;
        # ``telemetry`` remembers whether the caller asked for
        # observability, which gates the per-tick harvest below.
        if metrics is None or not metrics.enabled:
            metrics = MetricsRegistry()
            self.telemetry = False
        else:
            self.telemetry = True
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.telemetry = True
        # Spans harvested from shard workers, in harvest order; merged
        # with the front-end tracer's own spans by merged_trace().
        self._remote_spans: List[Dict[str, Any]] = []
        self._harvest_cursor = 0
        self.clock = clock
        self.channels = channels
        self.max_inflight = max_inflight
        self.supervisor = ShardSupervisor(
            channels,
            committed_path=artifact_path,
            clock=clock,
            failure_threshold=failure_threshold,
            reset_timeout_s=reset_timeout_s,
            restart_policy=restart_policy,
            metrics=metrics,
        )
        # The committed epoch: what a fully converged tier serves.
        # token 0 = "as initially loaded; no swap committed yet" — every
        # shard starts there, so 0 never marks an answer stale.
        self.committed_path = artifact_path
        self.committed_epoch = epoch
        self.committed_token = 0

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.inc("serving.server." + name, value)

    @property
    def requests(self) -> int:
        return self.metrics.counter("serving.server.requests")

    @property
    def shed(self) -> int:
        return self.metrics.counter("serving.server.shed")

    @property
    def degraded(self) -> int:
        return self.metrics.counter("serving.server.degraded")

    @property
    def failovers(self) -> int:
        return self.metrics.counter("serving.server.failovers")

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def degraded_rate(self) -> float:
        """Non-shed degraded answers per request — disjoint from
        :attr:`shed_rate` by construction (shed answers are counted
        only by the shed counter)."""
        return self.degraded / self.requests if self.requests else 0.0

    # -- querying ------------------------------------------------------------

    def batch(self, requests: Sequence[Tuple[str, int]]) -> List[Answer]:
        """Answer a batch: route, fail over, degrade explicitly.

        Admission control admits the first ``max_inflight`` requests,
        duplicates included, since each one goes to its shard (nothing
        else is in flight during a synchronous batch); overflow is shed
        up front (cheaply, before any shard work) so an overloaded tier
        stays responsive for the requests it does accept.  An op
        outside :data:`~repro.serving.service.OPS` is the caller's
        error: it raises :class:`DataError` before any shard work, so
        no replica's breaker counts it as a failure.
        """
        requests = list(requests)
        if not requests:
            return []
        check_ops(requests)
        self._count("requests", len(requests))
        self.metrics.set_gauge(
            "serving.server.queue_depth", float(len(requests))
        )
        accepted = requests[: self.max_inflight]
        answers: List[Answer] = [None] * len(accepted)  # type: ignore
        count = len(self.channels)
        groups: Dict[int, List[int]] = {}
        for position, (op, key) in enumerate(accepted):
            groups.setdefault(shard_index(key, count), []).append(position)

        with self.tracer.span("server.batch", size=len(requests),
                              shards=len(groups)):
            for home, positions in sorted(groups.items()):
                group = [requests[i] for i in positions]
                got = self._query_group(home, group)
                for position, answer in zip(positions, got):
                    answers[position] = answer

        answers.extend(self._shed_answer(op, key)
                       for op, key in requests[self.max_inflight:])
        # The wave is done: an idle tier reports an empty queue, not the
        # last wave's depth forever.
        self._tally(answers, queue_depth=0)
        return answers

    def _trace_ctx(self) -> Optional[Dict[str, Any]]:
        """The compact trace context stamped into outgoing shard
        commands: the innermost open front-end span plus this tracer's
        seed (which deterministically derives each worker's)."""
        if not self.tracer.enabled:
            return None
        return {"id": self.tracer.current_id, "seed": self.tracer.seed}

    def _query_group(
        self, home: int, group: List[Tuple[str, int]]
    ) -> List[Answer]:
        """Send one shard's worth of requests, failing over in ring
        order across the replicas."""
        with self.tracer.span("server.query_group", home=home,
                              size=len(group)):
            ctx = self._trace_ctx()
            for shard in self._replicas(home):
                try:
                    payload = shard.channel.query(group, trace=ctx)
                except (MeasurementError, DataError):
                    self.supervisor.record_failure(shard)
                    continue
                return self._answers(shard, payload)
            return self._unavailable(group)

    # -- dispatch steps shared with the async front end ----------------------

    def _replicas(self, home: int) -> Iterator[SupervisedShard]:
        """The healthy replicas for a group homed on shard ``home``, in
        ring order; each one past the home counts as a failover.  Lazy,
        so health is judged just before each try."""
        supervisor = self.supervisor
        count = len(self.channels)
        for offset in range(count):
            shard = supervisor.shards[(home + offset) % count]
            if not supervisor.healthy(shard):
                continue
            if offset:
                self._count("failovers")
            yield shard

    def _accept(self, shard: SupervisedShard,
                payload: Dict[str, Any]) -> None:
        """A replica replied: close its breaker's books and note the
        epoch and swap token it serves."""
        self.supervisor.record_success(shard)
        shard.last_seen_epoch = payload.get("epoch", -1)
        shard.last_seen_token = payload.get("token", -1)

    def _answers(self, shard: SupervisedShard,
                 payload: Dict[str, Any]) -> List[Answer]:
        """Accept a replica's query reply and return its answers."""
        self._accept(shard, payload)
        answers = shard.channel.answers_from(payload)
        token = shard.last_seen_token
        if token != self.committed_token:
            # The replica answered from an epoch the tier has moved past
            # (or not yet reached): correct for its own epoch, but not
            # what a converged tier would say — mark it.
            answers = mark_stale(answers, token, self.committed_token)
        return answers

    def _unavailable(self, group: Sequence[Tuple[str, int]]) -> List[Answer]:
        """Explicitly degraded answers for a group no replica could
        serve."""
        self._count("unavailable", len(group))
        return [
            Answer(
                op=op, key=key, value=None, epoch=self.committed_epoch,
                degraded=True, note="unavailable: no healthy shard",
            )
            for op, key in group
        ]

    def _shed_answer(self, op: str, key: int) -> Answer:
        """The explicit answer to a request admission control refused."""
        return Answer(op=op, key=key, value=None, epoch=self.committed_epoch,
                      degraded=True, note=SHED_NOTE)

    def _tally(self, answers: List[Answer], queue_depth: int) -> int:
        """End-of-batch accounting; returns the shed count.  Shed
        answers carry ``degraded=True`` but count only as ``shed``, so
        the two rates stay disjoint; they are sought among the degraded
        answers only, so a healthy batch costs one test per answer."""
        degraded = [answer for answer in answers if answer.degraded]
        shed = sum(1 for answer in degraded if is_shed(answer))
        if shed:
            self._count("shed", shed)
        if len(degraded) > shed:
            self._count("degraded", len(degraded) - shed)
        self.metrics.set_gauge(
            "serving.server.queue_depth", float(queue_depth)
        )
        return shed

    # -- two-phase epoch swap ------------------------------------------------

    def swap(self, artifact_path: str, epoch: int) -> Optional[int]:
        """Two-phase hot swap to the artifact at ``artifact_path``.

        Returns the committed swap token, or ``None`` when the swap was
        rolled back (some live shard could not stage the new epoch) —
        in which case the old epoch keeps serving everywhere
        (keep-last-good) and the failure is counted under
        ``serving.server.swap_failures``.
        """
        token = next_generation()
        supervisor = self.supervisor
        live = [
            shard for shard in supervisor.shards if shard.channel.alive
        ]
        with self.tracer.span("server.swap", epoch=epoch, token=token):
            ctx = self._trace_ctx()
            prepared: List[SupervisedShard] = []
            for shard in live:
                try:
                    shard.channel.request(
                        "prepare", trace=ctx, path=artifact_path,
                        token=token, epoch=epoch,
                    )
                except (MeasurementError, DataError):
                    supervisor.record_failure(shard)
                    self._abort(prepared, token, ctx)
                    self._count("swap_failures")
                    return None
                prepared.append(shard)
            if not prepared:
                self._count("swap_failures")
                return None
            # Point of no return: the tier is now committed to the new
            # epoch.  Restarts from here on load the *new* artifact.
            self.committed_path = artifact_path
            self.committed_epoch = epoch
            self.committed_token = token
            supervisor.committed_path = artifact_path
            supervisor.committed_token = token
            self._count("swaps")
            for shard in prepared:
                try:
                    shard.channel.request("commit", trace=ctx, token=token)
                except (MeasurementError, DataError):
                    # The shard missed its commit (died, severed...).
                    # It is now stale; its answers get marked degraded
                    # until the supervisor restarts it from the
                    # committed path.
                    supervisor.record_failure(shard)
                    self._count("commit_failures")
        return token

    def _abort(self, prepared: List[SupervisedShard], token: int,
               ctx: Optional[Dict[str, Any]] = None) -> None:
        for shard in prepared:
            try:
                shard.channel.request("abort", trace=ctx, token=token)
            except (MeasurementError, DataError):
                self.supervisor.record_failure(shard)

    # -- telemetry harvest ----------------------------------------------------

    def _harvest_shard(self, shard) -> str:
        """Harvest one shard: fold its registry delta into the front-end
        registry under a ``shard.<k>.`` prefix and collect the spans it
        finished since the last harvest."""
        if not shard.channel.alive:
            return "down"
        try:
            payload = shard.channel.request("harvest")
        except (MeasurementError, DataError):
            self.supervisor.record_failure(shard)
            return "failed"
        self._accept(shard, payload)
        self.metrics.merge_delta(
            payload.get("metrics", {}),
            prefix="shard.%d." % shard.shard_id,
        )
        self._remote_spans.extend(
            span_from_wire(entry) for entry in payload.get("spans", ())
        )
        self._count("harvests")
        return "harvested"

    def collect_metrics(self) -> Dict[int, str]:
        """Harvest every live shard (see :meth:`_harvest_shard`).

        Health reports and trace exports call this on demand; the
        supervision tick spreads the same work round-robin, one shard
        per tick, so the steady-state harvest cost stays flat in the
        shard count.  Returns a per-shard outcome map in
        supervisor-tick style.
        """
        return {
            shard.shard_id: self._harvest_shard(shard)
            for shard in self.supervisor.shards
        }

    def merged_trace(self) -> List[Dict[str, Any]]:
        """Front-end spans plus every harvested worker span, as dicts.

        Order is deterministic — front-end spans in completion order,
        then remote spans in (harvest, completion) order — so the JSONL
        export is byte-stable for a given seed and workload.  Worker
        spans reference front-end span ids as parents, reconstructing
        the cross-process tree (:func:`repro.obs.trace.span_tree`).
        """
        spans = [span.as_dict() for span in self.tracer.spans]
        spans.extend(self._remote_spans)
        return spans

    def write_merged_trace(self, target) -> None:
        """Atomic JSONL export of :meth:`merged_trace`."""
        payload = "".join(
            json.dumps(span, sort_keys=True) + "\n"
            for span in self.merged_trace()
        )
        if hasattr(target, "write"):
            target.write(payload)
            return
        from ..io.serialize import atomic_write_text
        atomic_write_text(target, payload)

    # -- supervision ----------------------------------------------------------

    def tick(self) -> Dict[int, str]:
        """Run one supervision pass (heartbeats + due restarts), then —
        when telemetry is on — harvest the next shard's metrics and
        spans (round-robin, one shard per tick, so the harvest cost per
        tick stays constant as the tier grows)."""
        with self.tracer.span("server.tick"):
            actions = self.supervisor.tick()
            if self.telemetry:
                shards = self.supervisor.shards
                shard = shards[self._harvest_cursor % len(shards)]
                self._harvest_cursor += 1
                self._harvest_shard(shard)
            return actions

    def converged(self) -> bool:
        """Is every live shard serving the committed epoch?"""
        return self.supervisor.converged(self.committed_token)

    def summary(self) -> str:
        return (
            "server: epoch %d (token %d), %d requests, %d shed (%.2f%%), "
            "%d degraded, %d failovers\n%s"
            % (
                self.committed_epoch, self.committed_token, self.requests,
                self.shed, 100.0 * self.shed_rate, self.degraded,
                self.failovers, self.supervisor.summary(),
            )
        )

    def close(self) -> None:
        for channel in self.channels:
            channel.close()


# -- factories ---------------------------------------------------------------


def make_local_server(
    artifact_path: str,
    epoch: int,
    shards: int = 3,
    max_inflight: int = 256,
    deadline_s: float = 5.0,
    faults: Optional[ChannelFaultPolicy] = None,
    fault_seed: int = 0,
    failure_threshold: int = 3,
    reset_timeout_s: float = 30.0,
    restart_seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
    clock: Optional[VirtualClock] = None,
) -> Tuple[ShardedBorderServer, VirtualClock]:
    """A fully in-process sharded server on a virtual clock.

    Deterministic end to end: the same seed and fault policy replay the
    same fault and restart timeline.  ``faults`` is a *template*; each
    shard channel gets its own policy derived from ``fault_seed`` and
    the shard id, so fault streams are independent per shard but
    reproducible.
    """
    if clock is None:
        clock = VirtualClock()
    channels = []
    for shard_id in range(shards):
        policy = None
        if faults is not None:
            policy = ChannelFaultPolicy(
                drop_rate=faults.drop_rate,
                garble_rate=faults.garble_rate,
                sever_rate=faults.sever_rate,
                delay_rate=faults.delay_rate,
                delay_seconds=faults.delay_seconds,
                seed=fault_seed * 1000003 + shard_id,
            )
        transport = InProcessTransport(artifact_path, shard_id=shard_id)
        channels.append(
            ShardChannel(
                transport, faults=policy, deadline_s=deadline_s,
                clock_advance=clock.advance,
            )
        )
    server = ShardedBorderServer(
        channels, artifact_path=artifact_path, epoch=epoch, clock=clock,
        max_inflight=max_inflight, failure_threshold=failure_threshold,
        reset_timeout_s=reset_timeout_s,
        restart_policy=RestartPolicy(seed=restart_seed),
        metrics=metrics, tracer=tracer,
    )
    return server, clock


def make_process_server(
    artifact_path: str,
    epoch: int,
    shards: int = 2,
    max_inflight: int = 256,
    deadline_s: float = 10.0,
    failure_threshold: int = 3,
    reset_timeout_s: float = 5.0,
    restart_seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> ShardedBorderServer:
    """The production shape: each shard is a spawn-context child
    process holding its own copy of the map; time is the wall clock
    (via :func:`~repro.obs.trace.perf_clock`, the repo's one sanctioned
    wall-time source)."""
    channels = [
        ShardChannel(
            SpawnProcessTransport(artifact_path, shard_id=shard_id),
            deadline_s=deadline_s,
        )
        for shard_id in range(shards)
    ]
    return ShardedBorderServer(
        channels, artifact_path=artifact_path, epoch=epoch,
        clock=perf_clock, max_inflight=max_inflight,
        failure_threshold=failure_threshold,
        reset_timeout_s=reset_timeout_s,
        restart_policy=RestartPolicy(seed=restart_seed),
        metrics=metrics, tracer=tracer,
    )
