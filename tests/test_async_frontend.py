"""The async coalescing front end: byte-identity against the
synchronous batch path (plain, under shard-kill chaos, and across a
mid-flight epoch swap), singleflight coalescing (each distinct
``(op, key)`` crosses the shard wire exactly once), admission control
by the server's ``max_inflight``, trace propagation, and the
shared-registry counters the health report reads."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.io import load_border_map, save_border_map
from repro.obs import MetricsRegistry, Tracer
from repro.serving import (
    BorderMapService,
    compile_border_map,
    make_async_frontend,
    make_workload,
)
from repro.serving.server import SHED_NOTE, make_local_server, shard_index


@pytest.fixture(scope="module")
def tier(mini_data, mini_result, tmp_path_factory):
    """Two epochs of the mini map as saved artifacts, a workload, and a
    duplicate-heavy variant of it (every key repeated three times)."""
    workdir = tmp_path_factory.mktemp("async-tier")
    bmap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="async-test",
    )
    bmap2 = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=2, source="async-test-swap",
    )
    path1 = str(workdir / "map-epoch1.json")
    path2 = str(workdir / "map-epoch2.json")
    save_border_map(bmap, path1)
    save_border_map(bmap2, path2)
    workload = make_workload(bmap, mini_data.view, 90, seed=7)
    duplicated = [req for req in workload for _ in range(3)]
    return SimpleNamespace(
        path1=path1,
        path2=path2,
        workload=workload,
        duplicated=duplicated,
        oracle1=BorderMapService(load_border_map(path1)),
        oracle2=BorderMapService(load_border_map(path2)),
    )


def _tier_pair(tier, **kwargs):
    """One server for the sync path, one wrapped by the front end —
    separate instances so neither path warms the other's caches.  Both
    admit the whole duplicated workload (max_inflight) so the identity
    race compares dispatch, not admission control."""
    kwargs.setdefault("max_inflight", 1024)
    sync_server, _ = make_local_server(tier.path1, epoch=1, **kwargs)
    async_server, clock = make_local_server(tier.path1, epoch=1, **kwargs)
    frontend = make_async_frontend(async_server)
    return sync_server, async_server, frontend, clock


class TestByteIdentity:
    def test_plain_batch_identical_to_sync(self, tier):
        sync_server, async_server, frontend, _ = _tier_pair(tier)
        try:
            sync_answers = sync_server.batch(tier.duplicated)
            async_answers = frontend.batch_sync(tier.duplicated)
            # Answer is frozen: == is full byte-identity, note included.
            assert sync_answers == async_answers
            assert all(not a.degraded for a in async_answers)
        finally:
            frontend.close()
            sync_server.close()
            async_server.close()

    def test_identical_under_shard_kill(self, tier):
        sync_server, async_server, frontend, _ = _tier_pair(tier)
        try:
            # Deterministic chaos: the same replica dies on both paths,
            # so ring-order failover must pick the same survivors.
            sync_server.channels[1].transport.kill()
            async_server.channels[1].transport.kill()
            sync_answers = sync_server.batch(tier.duplicated)
            async_answers = frontend.batch_sync(tier.duplicated)
            assert sync_answers == async_answers
            assert all(not a.degraded for a in async_answers)
            assert async_server.failovers > 0
        finally:
            frontend.close()
            sync_server.close()
            async_server.close()

    def test_identical_across_epoch_swap(self, tier):
        sync_server, async_server, frontend, clock = _tier_pair(tier)
        try:
            assert sync_server.swap(tier.path2, epoch=2) is not None
            token = frontend.swap_sync(tier.path2, epoch=2)
            assert token is not None
            for server in (sync_server, async_server):
                server.tick()
                assert server.converged()
            sync_answers = sync_server.batch(tier.workload)
            async_answers = frontend.batch_sync(tier.workload)
            assert sync_answers == async_answers
            assert all(a.epoch == 2 for a in async_answers)
        finally:
            frontend.close()
            sync_server.close()
            async_server.close()

    def test_swap_concurrent_with_batch_never_mixes_epochs(self, tier):
        _, server, frontend, _ = _tier_pair(tier)
        try:
            async def race():
                batch = asyncio.ensure_future(
                    frontend.batch(tier.duplicated)
                )
                swap = asyncio.ensure_future(
                    frontend.swap(tier.path2, epoch=2)
                )
                return await asyncio.gather(batch, swap)

            answers, token = asyncio.run(race())
            assert token is not None
            # The swap fence drains in-flight coalesced waves before
            # the commit: whatever interleaving the loop picked, one
            # batch never spans the epoch boundary.
            epochs = {answer.epoch for answer in answers}
            assert len(epochs) == 1, epochs
            assert all(not a.degraded for a in answers)
        finally:
            frontend.close()
            server.close()


class TestCoalescing:
    def test_distinct_keys_cross_wire_exactly_once(self, tier):
        metrics = MetricsRegistry()
        server, _ = make_local_server(
            tier.path1, epoch=1, metrics=metrics
        )
        frontend = make_async_frontend(server)
        try:
            answers = frontend.batch_sync(tier.duplicated)
            assert len(answers) == len(tier.duplicated)
            server.collect_metrics()
            shipped = sum(
                metrics.counter("shard.%d.worker.queries" % shard_id)
                for shard_id in range(len(server.channels))
            )
            distinct = len(set(tier.duplicated))
            assert shipped == distinct
            assert frontend.coalesced == len(tier.duplicated) - distinct
            assert metrics.counter("serving.frontend.distinct") == distinct
        finally:
            frontend.close()
            server.close()

    def test_concurrent_batches_share_inflight_futures(self, tier):
        server, _ = make_local_server(tier.path1, epoch=1)
        frontend = make_async_frontend(server)
        try:
            async def fan_in():
                return await asyncio.gather(
                    frontend.batch(tier.workload),
                    frontend.batch(tier.workload),
                )

            first, second = asyncio.run(fan_in())
            assert first == second
            # The second batch registered while the first's waves were
            # still pending: every one of its keys joined an in-flight
            # future instead of dialing the shard again.
            assert frontend.coalesced >= len(tier.workload)
        finally:
            frontend.close()
            server.close()

    def test_singleflight_table_empties_after_batch(self, tier):
        server, _ = make_local_server(tier.path1, epoch=1)
        frontend = make_async_frontend(server)
        try:
            frontend.batch_sync(tier.workload)
            assert frontend._inflight == {}
        finally:
            frontend.close()
            server.close()


class TestWaveCapAdmission:
    def test_overflow_is_shed_explicitly_and_disjointly(self, tier):
        metrics = MetricsRegistry()
        server, _ = make_local_server(
            tier.path1, epoch=1, metrics=metrics, max_inflight=2
        )
        frontend = make_async_frontend(server)
        try:
            # Distinct keys all homed on shard 0: the tier admits
            # max_inflight = 2 distinct requests at once, the rest
            # must shed.
            homed = [req for req in dict.fromkeys(tier.workload)
                     if shard_index(req[1], 3) == 0][:6]
            assert len(homed) == 6
            answers = frontend.batch_sync(homed)
            kept = [a for a in answers if not a.degraded]
            shed = [a for a in answers if a.note == SHED_NOTE]
            assert len(kept) == 2
            assert len(shed) == 4
            for answer in shed:
                assert answer.value is None
                assert answer.degraded
            oracle = tier.oracle1.batch(homed[:2])
            assert [a.value for a in kept] == [a.value for a in oracle]
            # Disjoint accounting: admission sheds land in the shed
            # counter only, never double-counted as degraded.
            assert metrics.counter("serving.server.shed") == 4
            assert metrics.counter("serving.server.degraded") == 0
            assert metrics.counter("serving.frontend.shed") == 4
        finally:
            frontend.close()
            server.close()

    def test_concurrent_batches_share_the_cap(self, tier):
        """The cap spans the tier, not one batch: while a first batch's
        two distinct keys are in flight, a concurrent batch's new keys
        are shed; once they are answered the tier admits again."""
        server, _ = make_local_server(tier.path1, epoch=1, max_inflight=2)
        frontend = make_async_frontend(server)
        try:
            distinct = list(dict.fromkeys(tier.workload))
            first, second = distinct[:2], distinct[2:4]

            async def overlap():
                return await asyncio.gather(
                    frontend.batch(first), frontend.batch(second)
                )

            kept, shed = asyncio.run(overlap())
            oracle = tier.oracle1.batch(first)
            assert [a.value for a in kept] == [a.value for a in oracle]
            assert not any(a.degraded for a in kept)
            assert [a.note for a in shed] == [SHED_NOTE, SHED_NOTE]
            assert server.shed == 2
            assert frontend._inflight == {}
            later = frontend.batch_sync(second)
            assert not any(a.degraded for a in later)
        finally:
            frontend.close()
            server.close()

    def test_sync_counts_requests_async_counts_distinct_keys(self, tier):
        """The knob counts shard work: the sync path sends every
        duplicate to its shard and admits the first max_inflight
        requests; the front end sends each distinct pair once, so a
        duplicate joins its admitted pair.  Without duplicates the two
        paths give the same answers."""
        sync_server, _ = make_local_server(tier.path1, epoch=1,
                                           max_inflight=40)
        async_server, _ = make_local_server(tier.path1, epoch=1,
                                            max_inflight=40)
        frontend = make_async_frontend(async_server)
        try:
            distinct = list(dict.fromkeys(tier.workload))
            assert sync_server.batch(distinct) \
                == frontend.batch_sync(distinct)
            sync_answers = sync_server.batch(tier.duplicated)
            async_answers = frontend.batch_sync(tier.duplicated)
            assert [a.note == SHED_NOTE for a in sync_answers] \
                == [i >= 40 for i in range(len(tier.duplicated))]
            admitted = set(distinct[:40])
            assert [a.note == SHED_NOTE for a in async_answers] \
                == [req not in admitted for req in tier.duplicated]
        finally:
            frontend.close()
            sync_server.close()
            async_server.close()

    def test_queue_depth_gauge_drains_to_zero(self, tier):
        metrics = MetricsRegistry()
        server, _ = make_local_server(
            tier.path1, epoch=1, metrics=metrics
        )
        frontend = make_async_frontend(server)
        try:
            frontend.batch_sync(tier.workload)
            assert metrics.gauge("serving.server.queue_depth") == 0.0
        finally:
            frontend.close()
            server.close()


class TestTracePropagation:
    def test_one_span_per_wave_with_coalesced_demand(self, tier):
        tracer = Tracer(seed=11)
        server, _ = make_local_server(
            tier.path1, epoch=1, tracer=tracer
        )
        frontend = make_async_frontend(server)
        try:
            frontend.batch_sync(tier.duplicated)
            spans = [s for s in tracer.spans
                     if s.name == "server.query_group"]
            assert len(spans) == metricsafe_waves(frontend)
            # Coalesced demand: the spans' folded-request counts sum to
            # the full batch, not just the distinct keys shipped.
            assert sum(s.attrs["coalesced"] for s in spans) == len(
                tier.duplicated
            )
            assert all("home" in s.attrs and "size" in s.attrs
                       for s in spans)
            # Harvested worker spans parent under the front end's
            # group spans in the merged cross-process trace.
            server.collect_metrics()
            merged = server.merged_trace()
            group_ids = {s.sid for s in spans}
            children = [span for span in merged
                        if span["parent"] in group_ids]
            assert children, "no worker spans joined the trace"
            assert any(span["name"] == "shard.query"
                       for span in children)
        finally:
            frontend.close()
            server.close()


def metricsafe_waves(frontend) -> int:
    return frontend.metrics.counter("serving.frontend.waves")
