"""The async coalescing front end for the sharded serving tier.

:class:`AsyncBorderFrontEnd` sits in front of an existing
:class:`~repro.serving.server.ShardedBorderServer`'s shard channels and
closes the throughput gap the synchronous ``batch()`` path leaves on
duplicate-heavy workloads (many clients asking about the same
interconnection — the common case for border queries):

* **Singleflight coalescing** — concurrent duplicate ``(op, key)``
  requests collapse into one in-flight shard call through a
  future-keyed table.  The synchronous path carries every duplicate
  both ways in the typed shard query frames; here each distinct key
  crosses the wire exactly once per epoch and every waiter shares the
  answer.
* **Pipelined shard waves** — per-shard groups are dispatched as
  concurrent waves instead of ``batch()``'s sequential
  ``sorted(groups.items())`` loop, bounded by a per-shard
  outstanding-wave cap (the async tier's admission control, replacing
  the synchronous slice-at-``max_inflight``): when a shard's in-flight
  distinct demand exceeds ``wave_size * max_waves_per_shard``, the
  overflow is shed immediately with an explicit degraded answer —
  never queued unboundedly, never silently dropped.
* **PR 7 semantics preserved** — key-hash routing
  (:func:`~repro.serving.server.shard_index`), ring-order failover to
  live replicas, explicit degraded/shed/stale-epoch answers, and
  two-phase swap safety: :meth:`swap` fences new waves and drains
  every in-flight coalesced call before the commit, so no coalesced
  future ever resolves with answers from a mix of epochs (the
  singleflight table is additionally keyed by the committed swap
  token, so a request arriving mid-swap can never join a
  previous epoch's future).
* **Trace propagation** — each coalesced shard call records one
  ``server.query_group`` span with a ``coalesced=N`` attribute (the
  number of requests folded into the wave) whose id rides the framed
  command, exactly like the synchronous path, so worker spans parent
  correctly in the merged cross-process trace.

Determinism: with in-process shard transports the event loop never
actually blocks (exchanges are function calls), so wave dispatch order
— and therefore fault-policy draws, failover order, and the merged
trace — is deterministic under a seed, which is what lets the chaos
tests assert byte-identity against the synchronous path.  Process-
backed shards pass an executor to :class:`~repro.serving.shard.\
AsyncShardTransport` and genuinely overlap in wall time.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DataError, MeasurementError
from .service import Answer, check_ops
from .shard import AsyncShardTransport, SpawnProcessTransport
from .server import (
    ShardedBorderServer,
    is_shed,
    mark_stale,
    shard_index,
    unavailable_answers,
)

#: Note stamped on answers shed by the per-shard wave cap; starts with
#: "shed" so :func:`~repro.serving.server.is_shed` (and the disjoint
#: shed/degraded accounting) treats both admission controllers alike.
SHED_NOTE = "shed: shard wave cap"


class AsyncBorderFrontEnd:
    """Asyncio front end over a :class:`ShardedBorderServer`'s shards.

    The front end reuses the server's supervisor (breakers, restarts,
    heartbeats), committed epoch/token state, metrics registry, and
    tracer — it replaces only the dispatch loop, so health reports,
    chaos harnesses, and ``swap()`` bookkeeping read exactly the same
    tier state whichever path served the traffic.
    """

    def __init__(
        self,
        server: ShardedBorderServer,
        wave_size: int = 64,
        max_waves_per_shard: int = 4,
        executor=None,
        own_executor: bool = False,
    ) -> None:
        if wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        if max_waves_per_shard < 1:
            raise ValueError("max_waves_per_shard must be >= 1")
        self.server = server
        self.metrics = server.metrics
        self.tracer = server.tracer
        self.wave_size = wave_size
        self.max_waves_per_shard = max_waves_per_shard
        self.transports = [
            AsyncShardTransport(channel, executor=executor)
            for channel in server.channels
        ]
        self._executor = executor
        self._own_executor = own_executor
        # Per-shard admission cap: distinct in-flight keys, not waves —
        # a full pipeline of max_waves_per_shard waves of wave_size.
        self._capacity = wave_size * max_waves_per_shard
        # asyncio primitives are loop-bound; (re)built lazily so the
        # front end survives repeated asyncio.run() calls.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[Tuple[int, str, int], asyncio.Future] = {}
        self._shard_load: List[int] = [0] * len(server.channels)
        self._semaphores: List[asyncio.Semaphore] = []
        self._fence: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._swap_lock: Optional[asyncio.Lock] = None
        self._outstanding = 0

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.inc("serving.frontend." + name, value)

    @property
    def requests(self) -> int:
        return self.metrics.counter("serving.frontend.requests")

    @property
    def coalesced(self) -> int:
        return self.metrics.counter("serving.frontend.coalesced")

    @property
    def coalesce_rate(self) -> float:
        return self.coalesced / self.requests if self.requests else 0.0

    # -- loop binding --------------------------------------------------------

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        self._loop = loop
        self._inflight = {}
        self._shard_load = [0] * len(self.transports)
        self._semaphores = [
            asyncio.Semaphore(self.max_waves_per_shard)
            for _ in self.transports
        ]
        self._fence = asyncio.Event()
        self._fence.set()
        self._drained = asyncio.Event()
        self._drained.set()
        self._swap_lock = asyncio.Lock()
        self._outstanding = 0

    # -- querying ------------------------------------------------------------

    async def query(self, op: str, key: int) -> Answer:
        return (await self.batch([(op, key)]))[0]

    async def batch(
        self, requests: Sequence[Tuple[str, int]]
    ) -> List[Answer]:
        """Answer a batch: coalesce, route, pipeline, degrade explicitly.

        Every position in ``requests`` gets an answer in order.
        Duplicate ``(op, key)`` pairs — inside this batch or across
        concurrent ``batch()`` calls — share one shard call.  An unknown
        op raises :class:`DataError` before any shard work, as in the
        synchronous path.
        """
        requests = list(requests)
        if not requests:
            return []
        check_ops(requests)
        self._bind_loop()
        loop = self._loop
        server = self.server
        count = len(self.transports)
        self._count("requests", len(requests))
        self.metrics.inc("serving.server.requests", len(requests))

        token = server.committed_token
        futures: List[asyncio.Future] = []
        owned: Dict[int, List[Tuple[str, int, asyncio.Future]]] = {}
        joined = 0
        for op, key in requests:
            fkey = (token, op, key)
            future = self._inflight.get(fkey)
            if future is not None:
                future.waiters += 1  # type: ignore[attr-defined]
                joined += 1
                futures.append(future)
                continue
            future = loop.create_future()
            future.waiters = 1  # type: ignore[attr-defined]
            home = shard_index(key, count)
            if self._shard_load[home] >= self._capacity:
                # The shard's pipeline is full: shed now, explicitly.
                future.set_result(Answer(
                    op=op, key=key, value=None,
                    epoch=server.committed_epoch,
                    degraded=True, note=SHED_NOTE,
                ))
                futures.append(future)
                continue
            self._inflight[fkey] = future
            self._shard_load[home] += 1
            future.add_done_callback(
                lambda f, fkey=fkey, home=home: self._settled(fkey, home)
            )
            owned.setdefault(home, []).append((op, key, future))
            futures.append(future)
        if joined:
            self._count("coalesced", joined)
        self._count("distinct", sum(len(v) for v in owned.values()))
        self.metrics.set_gauge(
            "serving.server.queue_depth", float(len(self._inflight))
        )

        tasks = [
            loop.create_task(self._send_wave(home, entries[start:start
                                                           + self.wave_size]))
            for home, entries in sorted(owned.items())
            for start in range(0, len(entries), self.wave_size)
        ]
        if tasks:
            await asyncio.gather(*tasks)
        answers: List[Answer] = list(await asyncio.gather(*futures))

        shed = sum(1 for answer in answers if is_shed(answer))
        degraded = sum(
            1 for answer in answers
            if answer.degraded and not is_shed(answer)
        )
        if shed:
            self._count("shed", shed)
            self.metrics.inc("serving.server.shed", shed)
        if degraded:
            self.metrics.inc("serving.server.degraded", degraded)
        self.metrics.set_gauge(
            "serving.server.queue_depth", float(len(self._inflight))
        )
        return answers

    def _settled(self, fkey: Tuple[int, str, int], home: int) -> None:
        """Done callback: retire a resolved future from the
        singleflight table and release its admission slot."""
        if self._inflight.pop(fkey, None) is not None:
            self._shard_load[home] -= 1

    async def _send_wave(
        self, home: int, wave: List[Tuple[str, int, asyncio.Future]]
    ) -> None:
        """One coalesced shard call: at most ``wave_size`` distinct
        keys, bounded by the shard's outstanding-wave semaphore and the
        swap fence."""
        async with self._semaphores[home]:
            await self._fence.wait()
            self._outstanding += 1
            self._drained.clear()
            try:
                group = [(op, key) for op, key, _ in wave]
                demand = sum(
                    getattr(future, "waiters", 1) for _, _, future in wave
                )
                ctx = None
                if self.tracer.enabled:
                    with self.tracer.span(
                        "server.query_group", home=home, size=len(group),
                        coalesced=demand,
                    ):
                        ctx = self.server._trace_ctx()
                self._count("waves")
                answers = await self._query_group(home, group, ctx)
                for (op, key, future), answer in zip(wave, answers):
                    if not future.done():
                        future.set_result(answer)
            finally:
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._drained.set()

    async def _query_group(
        self, home: int, group: List[Tuple[str, int]],
        ctx: Optional[Dict[str, Any]],
    ) -> List[Answer]:
        """The async twin of ``ShardedBorderServer._query_group``:
        ring-order failover across live replicas, stale-epoch marking
        against the committed token."""
        server = self.server
        supervisor = server.supervisor
        count = len(self.transports)
        for offset in range(count):
            index = (home + offset) % count
            shard = supervisor.shards[index]
            if not supervisor.healthy(shard):
                continue
            if offset:
                server._count("failovers")
            try:
                payload = await self.transports[index].query(group, trace=ctx)
            except (MeasurementError, DataError):
                supervisor.record_failure(shard)
                continue
            supervisor.record_success(shard)
            answers = self.transports[index].answers_from(payload)
            token = payload.get("token", 0)
            shard.last_seen_epoch = payload.get("epoch", -1)
            shard.last_seen_token = token
            if token != server.committed_token:
                answers = mark_stale(answers, token, server.committed_token)
            return answers
        server._count("unavailable", len(group))
        return unavailable_answers(group, server.committed_epoch)

    # -- two-phase epoch swap ------------------------------------------------

    async def swap(self, artifact_path: str, epoch: int) -> Optional[int]:
        """Fence, drain, then run the server's two-phase swap.

        New waves block on the fence for the duration; every in-flight
        coalesced call completes (and resolves its futures) before the
        prepare/commit sequence starts, so no coalesced future spans
        the epoch boundary.  Returns the committed token, or ``None``
        on rollback — identical contract to the synchronous
        :meth:`ShardedBorderServer.swap`.
        """
        self._bind_loop()
        async with self._swap_lock:
            self._fence.clear()
            try:
                await self._drained.wait()
                return self.server.swap(artifact_path, epoch)
            finally:
                self._fence.set()

    # -- sync conveniences ---------------------------------------------------

    def batch_sync(self, requests: Sequence[Tuple[str, int]]) -> List[Answer]:
        """Run :meth:`batch` to completion on a private event loop —
        the drop-in stand-in for ``server.batch`` in synchronous
        callers (CLI, tests, benchmarks)."""
        return asyncio.run(self.batch(requests))

    def swap_sync(self, artifact_path: str, epoch: int) -> Optional[int]:
        return asyncio.run(self.swap(artifact_path, epoch))

    def summary(self) -> str:
        return (
            "frontend: %d requests, %d coalesced (%.1f%%), %d waves\n%s"
            % (
                self.requests, self.coalesced, 100.0 * self.coalesce_rate,
                self.metrics.counter("serving.frontend.waves"),
                self.server.summary(),
            )
        )

    def close(self) -> None:
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=True)


def make_async_frontend(
    server: ShardedBorderServer,
    wave_size: int = 64,
    max_waves_per_shard: int = 4,
) -> AsyncBorderFrontEnd:
    """The standard front end for an existing server: inline (and
    deterministic) over in-process shards, thread-offloaded over
    process-backed shards whose pipe exchanges genuinely block."""
    executor = None
    own_executor = False
    if any(isinstance(channel.transport, SpawnProcessTransport)
           for channel in server.channels):
        from concurrent.futures import ThreadPoolExecutor
        executor = ThreadPoolExecutor(
            max_workers=max(2, len(server.channels)),
            thread_name_prefix="bdrmap-frontend",
        )
        own_executor = True
    return AsyncBorderFrontEnd(
        server, wave_size=wave_size,
        max_waves_per_shard=max_waves_per_shard,
        executor=executor, own_executor=own_executor,
    )
