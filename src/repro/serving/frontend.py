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
  concurrent waves of at most :data:`WAVE_KEYS` distinct keys instead
  of ``batch()``'s sequential ``sorted(groups.items())`` loop, one wave
  per shard at a time (a channel carries one exchange at a time).
* **One admission knob** — the server's ``max_inflight`` caps the
  distinct requests in flight across the tier: once the singleflight
  table holds that many, a new distinct request is shed immediately
  with the server's explicit shed answer — never queued unboundedly,
  never silently dropped.  Duplicates of an in-flight request join it
  and are never shed.  The table spans concurrent ``batch()`` calls.
  The synchronous path, which sends every duplicate to its shard,
  counts requests instead; on a lone batch without duplicates the two
  shed alike.
* **The server's dispatch steps** — key-hash routing
  (:func:`~repro.serving.server.shard_index`), ring-order failover,
  stale-epoch marking, unavailable and shed answers, and the
  end-of-batch tally are the server's own; this module only awaits
  the exchange.  Two-phase swap safety: :meth:`swap` fences new waves
  and drains every in-flight coalesced call before the commit, so no
  coalesced future ever resolves with answers from a mix of epochs
  (the singleflight table is additionally keyed by the committed swap
  token, so a request arriving mid-swap can never join a previous
  epoch's future).
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
backed shards get an executor: each exchange runs in a worker thread
(``ShardChannel.request`` holds the channel's lock), so waves to
different shards genuinely overlap in wall time.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DataError, MeasurementError
from .service import Answer, check_ops
from .shard import SpawnProcessTransport
from .server import ShardedBorderServer, shard_index

#: Distinct keys per coalesced shard call.
WAVE_KEYS = 64


class AsyncBorderFrontEnd:
    """Asyncio front end over a :class:`ShardedBorderServer`'s shards.

    The front end reuses the server's supervisor (breakers, restarts,
    heartbeats), committed epoch/token state, admission cap, dispatch
    steps, metrics registry, and tracer — it replaces only the
    per-batch loop, so health reports, chaos harnesses, and ``swap()``
    bookkeeping read exactly the same tier state whichever path served
    the traffic.
    """

    def __init__(
        self,
        server: ShardedBorderServer,
        executor=None,
        own_executor: bool = False,
    ) -> None:
        self.server = server
        self.metrics = server.metrics
        self.tracer = server.tracer
        self._executor = executor
        self._own_executor = own_executor
        # asyncio primitives are loop-bound; (re)built lazily so the
        # front end survives repeated asyncio.run() calls.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[Tuple[int, str, int], asyncio.Future] = {}
        self._locks: List[asyncio.Lock] = []
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
        self._locks = [asyncio.Lock() for _ in self.server.channels]
        self._fence = asyncio.Event()
        self._fence.set()
        self._drained = asyncio.Event()
        self._drained.set()
        self._swap_lock = asyncio.Lock()
        self._outstanding = 0

    # -- querying ------------------------------------------------------------

    async def batch(
        self, requests: Sequence[Tuple[str, int]]
    ) -> List[Answer]:
        """Answer a batch: coalesce, admit, route, pipeline, degrade
        explicitly.

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
        count = len(server.channels)
        self._count("requests", len(requests))
        server._count("requests", len(requests))

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
            elif len(self._inflight) >= server.max_inflight:
                # The tier is full: shed now, explicitly.
                future = loop.create_future()
                future.set_result(server._shed_answer(op, key))
            else:
                future = loop.create_future()
                future.waiters = 1  # type: ignore[attr-defined]
                self._inflight[fkey] = future
                future.add_done_callback(
                    lambda _, fkey=fkey: self._inflight.pop(fkey, None)
                )
                owned.setdefault(shard_index(key, count), []).append(
                    (op, key, future)
                )
            futures.append(future)
        if joined:
            self._count("coalesced", joined)
        self._count("distinct", sum(len(v) for v in owned.values()))
        self.metrics.set_gauge(
            "serving.server.queue_depth", float(len(self._inflight))
        )

        tasks = [
            loop.create_task(
                self._send_wave(home, entries[start:start + WAVE_KEYS])
            )
            for home, entries in sorted(owned.items())
            for start in range(0, len(entries), WAVE_KEYS)
        ]
        if tasks:
            await asyncio.gather(*tasks)
        answers: List[Answer] = list(await asyncio.gather(*futures))
        shed = server._tally(answers, queue_depth=len(self._inflight))
        if shed:
            self._count("shed", shed)
        return answers

    async def _send_wave(
        self, home: int, wave: List[Tuple[str, int, asyncio.Future]]
    ) -> None:
        """One coalesced shard call: at most :data:`WAVE_KEYS` distinct
        keys, one wave per home shard at a time, behind the swap
        fence."""
        async with self._locks[home]:
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
        """``ShardedBorderServer._query_group``'s loop, awaiting each
        exchange: inline over in-process shards, in the executor over
        process-backed ones."""
        server = self.server
        for shard in server._replicas(home):
            try:
                if self._executor is None:
                    payload = shard.channel.query(group, trace=ctx)
                else:
                    payload = await self._loop.run_in_executor(
                        self._executor,
                        functools.partial(shard.channel.query, group, ctx),
                    )
            except (MeasurementError, DataError):
                server.supervisor.record_failure(shard)
                continue
            return server._answers(shard, payload)
        return server._unavailable(group)

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


def make_async_frontend(server: ShardedBorderServer) -> AsyncBorderFrontEnd:
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
        server, executor=executor, own_executor=own_executor,
    )
