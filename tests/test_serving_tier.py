"""The fault-tolerant sharded serving tier: framing, shard protocol,
supervision, admission control, two-phase swaps, and the robustness
satellites (atomic artifact writes, keep-last-good refresh, channel
retry backoff)."""

import os
from types import SimpleNamespace

import pytest

from repro.errors import ChannelError, DataError, MeasurementTimeout
from repro.io import load_border_map, save_border_map
from repro.net.faults import ChannelFaultPolicy
from repro.obs import MetricsRegistry
from repro.probing.retry import RetryStats
from repro.remote.protocol import (
    Channel,
    FrameDecoder,
    MAX_FRAME_BYTES,
    FRAME_HEADER,
    Reply,
    pack_frame,
    unpack_frame,
)
from repro.serving import (
    Answer,
    BorderMapService,
    CompiledBorderMap,
    compile_border_map,
    load_compiled_map,
    make_workload,
    next_generation,
    save_compiled_map,
)
from repro.serving.server import (
    make_local_server,
    make_process_server,
    shard_index,
)
from repro.serving.shard import ShardWorker
from repro.serving.wire import decode_answers, encode_query
from repro.serving.supervisor import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RestartPolicy,
)


@pytest.fixture(scope="module")
def tier(mini_data, mini_result, tmp_path_factory):
    """Two epochs of the mini map as saved artifacts, plus a workload
    and single-process oracles for both epochs."""
    workdir = tmp_path_factory.mktemp("tier")
    bmap = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=1, source="tier-test",
    )
    bmap2 = compile_border_map(
        [mini_result], view=mini_data.view, rels=mini_data.rels,
        epoch=2, source="tier-test-swap",
    )
    path1 = str(workdir / "map-epoch1.json")
    path2 = str(workdir / "map-epoch2.json")
    save_border_map(bmap, path1)
    save_border_map(bmap2, path2)
    workload = make_workload(bmap, mini_data.view, 120, seed=3)
    return SimpleNamespace(
        bmap=bmap,
        bmap2=bmap2,
        path1=path1,
        path2=path2,
        workload=workload,
        oracle1=BorderMapService(load_border_map(path1)),
        oracle2=BorderMapService(load_border_map(path2)),
    )


# -- length framing ----------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        payload = b'{"op": "ping"}'
        assert unpack_frame(pack_frame(payload)) == payload
        assert unpack_frame(pack_frame(b"")) == b""

    def test_decoder_reassembles_byte_at_a_time(self):
        stream = pack_frame(b"first") + pack_frame(b"second")
        decoder = FrameDecoder()
        frames = []
        for position in range(len(stream)):
            frames.extend(decoder.feed(stream[position:position + 1]))
        assert frames == [b"first", b"second"]
        assert decoder.pending == 0

    def test_decoder_many_frames_one_feed(self):
        payloads = [b"a", b"bb", b"", b"dddd"]
        stream = b"".join(pack_frame(p) for p in payloads)
        assert FrameDecoder().feed(stream) == payloads

    def test_oversized_length_prefix_rejected(self):
        poisoned = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(DataError):
            FrameDecoder().feed(poisoned)

    def test_unpack_frame_is_strict(self):
        with pytest.raises(DataError):
            unpack_frame(pack_frame(b"x") + b"trailing")
        with pytest.raises(DataError):
            unpack_frame(pack_frame(b"x")[:-1])
        with pytest.raises(DataError):
            unpack_frame(pack_frame(b"x") + pack_frame(b"y"))

    def test_decoder_recovers_after_oversize_frame(self):
        """Regression: the oversize length prefix used to stay in the
        buffer, so every subsequent feed() — even of valid frames —
        re-raised the same error and wedged the channel for good."""
        decoder = FrameDecoder()
        with pytest.raises(DataError):
            decoder.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1) + b"junk")
        # The poison (and whatever rode in with it) is gone...
        assert decoder.pending == 0
        # ...and the decoder keeps decoding valid frames afterwards.
        assert decoder.feed(pack_frame(b"after")) == [b"after"]


# -- channel retry backoff (satellite: full-jitter, seeded) ------------------


class _EchoProber:
    """Always answers; faults are injected by the channel itself."""

    def handle(self, command):
        return Reply(seq=command.seq, payload={"ok": True})


def _drop_channel(rate, seed=5, **kwargs):
    faults = ChannelFaultPolicy(drop_rate=rate, seed=seed)
    return Channel(_EchoProber(), faults=faults, **kwargs)


class TestChannelBackoff:
    def test_zero_backoff_default_never_waits(self):
        channel = _drop_channel(0.5)
        for _ in range(20):
            try:
                channel.call("trace")
            except MeasurementTimeout:
                pass
        assert channel.retries > 0
        assert channel.backoff_waited_s == 0.0

    def test_full_jitter_waits_are_seeded(self):
        waited = []
        for _ in range(2):
            channel = _drop_channel(0.5, backoff_s=0.2, seed=9)
            for _ in range(20):
                try:
                    channel.call("trace")
                except MeasurementTimeout:
                    pass
            waited.append(channel.backoff_waited_s)
        assert waited[0] > 0.0
        assert waited[0] == waited[1]
        other = _drop_channel(0.5, backoff_s=0.2, seed=10)
        for _ in range(20):
            try:
                other.call("trace")
            except MeasurementTimeout:
                pass
        assert other.backoff_waited_s != waited[0]

    def test_retry_budget_visible_in_stats(self):
        channel = _drop_channel(1.0, max_retries=2, backoff_s=0.1)
        with pytest.raises(MeasurementTimeout):
            channel.call("trace")
        stats = channel.retry_stats
        assert stats.budget == 2
        assert stats.retries == 2
        assert stats.exhausted == 1
        assert stats.as_dict()["budget"] == 2

    def test_recovered_counted_and_budget_merges(self):
        channel = _drop_channel(0.4, max_retries=4, backoff_s=0.05)
        completed = 0
        for _ in range(30):
            try:
                channel.call("trace")
                completed += 1
            except MeasurementTimeout:
                pass
        assert completed > 0
        assert channel.retry_stats.recovered > 0
        merged = RetryStats()
        merged.merge(channel.retry_stats)
        merged.merge(channel.retry_stats)
        assert merged.budget == 2 * channel.retry_stats.budget
        assert merged.retries == 2 * channel.retry_stats.retries


# -- Answer degradation marker ----------------------------------------------


class TestAnswerMarker:
    def test_defaults_are_not_degraded(self):
        answer = Answer(op="owner", key=1, value=None, epoch=1)
        assert answer.degraded is False
        assert answer.note == ""

    def test_frozen(self):
        answer = Answer(op="owner", key=1, value=None, epoch=1)
        with pytest.raises(AttributeError):
            answer.degraded = True


# -- keep-last-good refresh (satellite) --------------------------------------


class TestRefreshKeepLastGood:
    def test_raising_loader_keeps_old_map(self, tier):
        service = BorderMapService(tier.bmap)
        old_map = service.map

        def explode():
            raise RuntimeError("upstream inference fell over")

        live = service.refresh(explode)
        assert live is old_map
        assert service.map is old_map
        assert service.epoch == 1
        assert service.refresh_failures == 1
        # Still serving, and correctly.
        op, key = tier.workload[0]
        assert service.batch([(op, key)])[0].epoch == 1

    def test_successful_refresh_still_swaps(self, tier):
        service = BorderMapService(tier.bmap)
        live = service.refresh(lambda: tier.bmap2)
        assert live is tier.bmap2
        assert service.epoch == 2
        assert service.refresh_failures == 0


# -- atomic artifact writes (satellite) --------------------------------------


class TestAtomicArtifactWrites:
    def test_save_leaves_no_temp_files(self, tier, tmp_path):
        target = tmp_path / "map.json"
        save_border_map(tier.bmap, str(target))
        assert load_border_map(str(target)).epoch == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_before_publish_keeps_old_json(self, tier, tmp_path,
                                                 monkeypatch):
        """Power cut between the temp write and the rename: the old
        artifact survives byte for byte and no temp litter remains."""
        target = tmp_path / "map.json"
        save_border_map(tier.bmap, str(target))
        before = target.read_bytes()

        def power_cut(src, dst):
            raise OSError("crash before publish")

        monkeypatch.setattr(os, "replace", power_cut)
        with pytest.raises(OSError):
            save_border_map(tier.bmap2, str(target))
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert load_border_map(str(target)).epoch == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_during_flush_keeps_old_json(self, tier, tmp_path,
                                               monkeypatch):
        target = tmp_path / "map.json"
        save_border_map(tier.bmap, str(target))
        before = target.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            save_border_map(tier.bmap2, str(target))
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_before_publish_keeps_old_binary(self, tier, tmp_path,
                                                   monkeypatch):
        target = tmp_path / "map.bdrm"
        cmap = CompiledBorderMap.from_border_map(tier.bmap)
        save_compiled_map(cmap, str(target))
        before = target.read_bytes()

        def power_cut(src, dst):
            raise OSError("crash before publish")

        monkeypatch.setattr(os, "replace", power_cut)
        cmap2 = CompiledBorderMap.from_border_map(tier.bmap2)
        with pytest.raises(OSError):
            save_compiled_map(cmap2, str(target))
        monkeypatch.undo()
        assert target.read_bytes() == before
        reloaded = load_compiled_map(str(target))
        assert reloaded.epoch == 1
        reloaded.close()
        assert list(tmp_path.glob("*.tmp")) == []


# -- the shard worker protocol -----------------------------------------------


class TestShardWorker:
    def test_ping_reports_epoch_and_token(self, tier):
        worker = ShardWorker(tier.path1, shard_id=2)
        payload = worker.handle("ping", {})
        assert payload == {"ok": True, "shard": 2, "epoch": 1, "token": 0}
        worker.close()

    def test_json_artifact_served_compiled(self, tier):
        worker = ShardWorker(tier.path1)
        assert isinstance(worker.service.map, CompiledBorderMap)
        worker.close()

    def test_query_matches_single_process_oracle(self, tier):
        worker = ShardWorker(tier.path1)
        requests = tier.workload[:40]
        frame = pack_frame(encode_query(5, requests))
        table = decode_answers(unpack_frame(worker.handle_frame(frame)))
        oracle = tier.oracle1.batch(requests)
        from repro.serving.shard import answer_from_wire

        answers = [answer_from_wire(entry) for entry in table.entries]
        assert [a.value for a in answers] == [a.value for a in oracle]
        assert all(a.epoch == 1 for a in answers)
        assert (table.seq, table.epoch, table.token) == (5, 1, 0)
        worker.close()

    def test_framed_roundtrip(self, tier):
        worker = ShardWorker(tier.path1)
        from repro.remote.protocol import decode, encode, Command

        frame = pack_frame(encode(Command(op="ping", args={}, seq=7)))
        reply = decode(unpack_frame(worker.handle_frame(frame)))
        assert reply.seq == 7
        assert reply.error is None
        assert reply.payload["epoch"] == 1
        worker.close()

    def test_bad_frame_becomes_framed_error(self, tier):
        worker = ShardWorker(tier.path1)
        from repro.remote.protocol import decode

        reply = decode(unpack_frame(worker.handle_frame(b"\x00\x00")))
        assert reply.error is not None
        worker.close()

    def test_two_phase_swap_and_idempotency(self, tier):
        worker = ShardWorker(tier.path1)
        token = next_generation()
        first = worker.handle("prepare", {"path": tier.path2,
                                          "token": token})
        again = worker.handle("prepare", {"path": tier.path2,
                                          "token": token})
        assert first == again == {"ok": True, "token": token}
        assert worker.service.epoch == 1  # old epoch serves until commit
        committed = worker.handle("commit", {"token": token})
        assert committed["epoch"] == 2 and committed["token"] == token
        assert worker.service.epoch == 2
        # Commit replay after the swap is an idempotent ack.
        replay = worker.handle("commit", {"token": token})
        assert replay["ok"] and replay["token"] == token
        worker.close()

    def test_commit_without_prepare_is_refused(self, tier):
        worker = ShardWorker(tier.path1)
        with pytest.raises(DataError):
            worker.handle("commit", {"token": 99999})
        worker.close()

    def test_abort_unstages(self, tier):
        worker = ShardWorker(tier.path1)
        token = next_generation()
        worker.handle("prepare", {"path": tier.path2, "token": token})
        worker.handle("abort", {"token": token})
        with pytest.raises(DataError):
            worker.handle("commit", {"token": token})
        assert worker.service.epoch == 1
        worker.close()

    def test_unknown_op_is_refused(self, tier):
        worker = ShardWorker(tier.path1)
        with pytest.raises(DataError):
            worker.handle("format-disk", {})
        worker.close()


class TestShardChannel:
    def _channel(self, tier, transport=None):
        from repro.serving.shard import InProcessTransport, ShardChannel

        return ShardChannel(transport or InProcessTransport(tier.path1))

    def test_query_round_trip_is_metered(self, tier):
        channel = self._channel(tier)
        requests = tier.workload[:30]
        payload = channel.query(requests)
        assert (payload["epoch"], payload["token"]) == (1, 0)
        assert channel.answers_from(payload) == tier.oracle1.batch(requests)
        assert channel.bytes_out > 9 * len(requests)
        assert channel.bytes_in > channel.bytes_out
        channel.close()

    def test_stale_reply_is_refused(self, tier):
        """A reply whose seq is not the request's (say, one that
        arrived after its deadline) must not answer the next query."""
        from repro.serving.shard import InProcessTransport

        class Replaying(InProcessTransport):
            last = None

            def exchange(self, data, deadline_s):
                reply = self.last or super().exchange(data, deadline_s)
                self.last = reply
                return reply

        channel = self._channel(tier, Replaying(tier.path1))
        channel.query(tier.workload[:5])
        with pytest.raises(DataError, match="seq"):
            channel.query(tier.workload[5:10])
        channel.close()

    def test_worker_failure_is_a_channel_error(self, tier):
        channel = self._channel(tier)
        worker = channel.transport.worker

        def broken(requests):
            raise RuntimeError("map unreadable")

        worker.service.batch = broken
        with pytest.raises(ChannelError, match="map unreadable"):
            channel.query(tier.workload[:5])
        assert worker.metrics.counter("worker.errors") == 1
        channel.close()

    def test_threads_take_turns_on_one_channel(self, tier):
        """The async front end calls channels from executor threads
        while the loop thread may heartbeat them: every exchange must
        stay whole (a reply answers its own request's seq) and no
        counter update may be lost."""
        import sys
        import threading

        channel = self._channel(tier)
        requests = tier.workload[:8]
        want = tier.oracle1.batch(requests)
        rounds, errors = 100, []

        def hammer():
            try:
                for _ in range(rounds):
                    payload = channel.query(requests)
                    assert channel.answers_from(payload) == want
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert channel.requests == 8 * rounds
        channel.close()


# -- supervision primitives --------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state == CLOSED and breaker.allow(1.0)
        breaker.record_failure(now=1.0)
        assert breaker.state == OPEN and breaker.trips == 1
        assert not breaker.allow(5.0)
        assert breaker.allow(11.0)          # the half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
        for _ in range(3):
            breaker.record_failure(now=0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(now=10.0)
        assert breaker.state == OPEN and breaker.trips == 2
        assert not breaker.allow(19.0)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state == CLOSED


class TestRestartPolicy:
    def test_full_jitter_is_seeded_and_capped(self):
        first = RestartPolicy(base_s=0.5, max_backoff_s=4.0, seed=3)
        second = RestartPolicy(base_s=0.5, max_backoff_s=4.0, seed=3)
        delays = [first.delay(k) for k in range(1, 10)]
        assert delays == [second.delay(k) for k in range(1, 10)]
        for k, delay in enumerate(delays, start=1):
            assert 0.0 <= delay <= min(4.0, 0.5 * 2 ** (k - 1))

    def test_zero_base_restarts_immediately(self):
        assert RestartPolicy(base_s=0.0).delay(5) == 0.0


# -- the sharded front end ---------------------------------------------------


class TestShardedServer:
    def test_answers_byte_identical_to_oracle(self, tier):
        server, _ = make_local_server(tier.path1, epoch=1, shards=3)
        try:
            answers = server.batch(tier.workload)
            oracle = tier.oracle1.batch(tier.workload)
            assert [a.value for a in answers] == [a.value for a in oracle]
            assert all(not a.degraded for a in answers)
            assert all(a.epoch == 1 for a in answers)
        finally:
            server.close()

    def test_routing_is_stable_and_spread(self, tier):
        keys = [key for _, key in tier.workload]
        homes = [shard_index(key, 3) for key in keys]
        assert homes == [shard_index(key, 3) for key in keys]
        assert len(set(homes)) == 3     # 120 keys must hit every shard

    def test_admission_control_sheds_overflow(self, tier):
        server, _ = make_local_server(
            tier.path1, epoch=1, shards=2, max_inflight=8
        )
        try:
            wave = tier.workload[:20]
            answers = server.batch(wave)
            assert len(answers) == 20
            kept, dropped = answers[:8], answers[8:]
            oracle = tier.oracle1.batch(wave[:8])
            assert [a.value for a in kept] == [a.value for a in oracle]
            for answer in dropped:
                assert answer.degraded
                assert answer.value is None
                assert answer.note.startswith("shed")
            assert server.shed == 12
            assert server.shed_rate == pytest.approx(12 / 20)
        finally:
            server.close()

    @pytest.mark.parametrize("max_inflight", [0, -1])
    def test_nonpositive_max_inflight_rejected(self, tier, max_inflight):
        with pytest.raises(ValueError):
            make_local_server(
                tier.path1, epoch=1, shards=2, max_inflight=max_inflight
            )

    def test_unknown_op_rejected_before_any_shard_work(self, tier):
        """A bad op is the caller's error: it must not count as a shard
        failure, or three such batches open every breaker and the next
        valid query is refused."""
        from repro.serving.frontend import make_async_frontend

        server, _ = make_local_server(tier.path1, epoch=1, shards=3)
        frontend = make_async_frontend(server)
        try:
            addr = next(key for op, key in tier.workload if op == "owner")
            bad = [("owner", addr), ("frobnicate", addr)]
            for _ in range(3):
                with pytest.raises(DataError):
                    server.batch(bad)
                with pytest.raises(DataError):
                    frontend.batch_sync(bad)
            for shard in server.supervisor.shards:
                assert shard.breaker.state == CLOSED
                assert shard.breaker.failures == 0
            assert server.requests == 0
            wave = tier.workload[:10]
            oracle = [a.value for a in tier.oracle1.batch(wave)]
            for answers in (server.batch(wave), frontend.batch_sync(wave)):
                assert [a.value for a in answers] == oracle
                assert not any(a.degraded for a in answers)
        finally:
            frontend.close()
            server.close()

    @pytest.mark.parametrize("key", [2 ** 64, -(2 ** 63) - 1])
    def test_key_outside_64_bits_rejected_before_any_shard_work(self, tier,
                                                                 key):
        """Query frames carry signed 64-bit keys, so a wider key is the
        caller's error, like an unknown op: no breaker may count it."""
        from repro.serving.frontend import make_async_frontend

        server, _ = make_local_server(tier.path1, epoch=1, shards=3)
        frontend = make_async_frontend(server)
        try:
            bad = [("owner", 1), ("border", key)]
            for _ in range(3):
                with pytest.raises(DataError, match="64-bit"):
                    server.batch(bad)
                with pytest.raises(DataError, match="64-bit"):
                    frontend.batch_sync(bad)
            for shard in server.supervisor.shards:
                assert shard.breaker.state == CLOSED
                assert shard.breaker.failures == 0
            assert server.requests == 0
            wave = tier.workload[:10]
            oracle = [a.value for a in tier.oracle1.batch(wave)]
            for answers in (server.batch(wave), frontend.batch_sync(wave)):
                assert [a.value for a in answers] == oracle
                assert not any(a.degraded for a in answers)
        finally:
            frontend.close()
            server.close()

    def test_keys_past_32_bits_answer_not_found(self, tier):
        """-1 and 2**32 are no addresses, but they fit the key column:
        every op answers them as not found, as a single engine does."""
        from repro.serving.frontend import make_async_frontend

        server, _ = make_local_server(tier.path1, epoch=1, shards=3)
        frontend = make_async_frontend(server)
        try:
            requests = [(op, key) for op in ("owner", "border", "neighbors")
                        for key in (-1, 2 ** 32, 2 ** 63 - 1, -(2 ** 63))]
            oracle = tier.oracle1.batch(requests)
            assert all(a.value in (None, ()) for a in oracle)
            for answers in (server.batch(requests),
                            frontend.batch_sync(requests)):
                assert answers == oracle
            for shard in server.supervisor.shards:
                assert shard.breaker.failures == 0
        finally:
            frontend.close()
            server.close()

    def test_failover_keeps_answers_identical(self, tier):
        server, clock = make_local_server(tier.path1, epoch=1, shards=3)
        try:
            server.channels[1].transport.kill()
            answers = server.batch(tier.workload)
            oracle = tier.oracle1.batch(tier.workload)
            assert [a.value for a in answers] == [a.value for a in oracle]
            assert all(not a.degraded for a in answers)
            assert server.failovers > 0
            # The supervisor brings the replica back.
            for _ in range(10):
                clock.advance(2.0)
                server.tick()
                if server.supervisor.healthy_count() == 3:
                    break
            assert server.supervisor.healthy_count() == 3
            assert server.supervisor.shards[1].restarts == 1
        finally:
            server.close()

    def test_all_replicas_down_degrades_explicitly(self, tier):
        server, _ = make_local_server(tier.path1, epoch=1, shards=2)
        try:
            for channel in server.channels:
                channel.transport.kill()
            answers = server.batch(tier.workload[:5])
            for answer in answers:
                assert answer.degraded
                assert answer.value is None
                assert answer.note.startswith("unavailable")
        finally:
            server.close()

    def test_two_phase_swap_commits_everywhere(self, tier):
        server, clock = make_local_server(tier.path1, epoch=1, shards=3)
        try:
            token = server.swap(tier.path2, epoch=2)
            assert token is not None
            clock.advance(1.0)
            server.tick()
            assert server.converged()
            answers = server.batch(tier.workload)
            oracle = tier.oracle2.batch(tier.workload)
            assert [a.value for a in answers] == [a.value for a in oracle]
            assert all(a.epoch == 2 for a in answers)
            assert all(not a.degraded for a in answers)
        finally:
            server.close()

    def test_queue_depth_gauge_resets_after_batch(self, tier):
        """Regression: the gauge was set to the wave size on entry and
        never cleared, so an idle tier reported a stale backlog."""
        metrics = MetricsRegistry()
        server, _ = make_local_server(
            tier.path1, epoch=1, shards=2, metrics=metrics
        )
        try:
            server.batch(tier.workload[:20])
            assert metrics.gauge("serving.server.queue_depth") == 0.0
        finally:
            server.close()

    def test_shed_and_degraded_rates_are_disjoint(self, tier):
        """Regression: shed answers carry ``degraded=True`` and used to
        land in *both* counters, double-counting every shed request.
        A mixed workload — overflow past admission control while every
        replica is down — must split cleanly: the admitted portion is
        degraded (unavailable), the overflow is shed, and no answer is
        counted twice."""
        server, _ = make_local_server(
            tier.path1, epoch=1, shards=2, max_inflight=8
        )
        try:
            for channel in server.channels:
                channel.transport.kill()
            answers = server.batch(tier.workload[:20])
            assert len(answers) == 20
            shed = [a for a in answers if a.note.startswith("shed")]
            degraded = [
                a for a in answers
                if a.degraded and not a.note.startswith("shed")
            ]
            assert len(shed) == 12
            assert len(degraded) == 8
            assert server.shed == 12
            assert server.degraded == 8
            assert server.shed_rate == pytest.approx(12 / 20)
            assert server.degraded_rate == pytest.approx(8 / 20)
            # Every answer is in exactly one bucket (or healthy).
            assert server.shed + server.degraded <= server.requests
        finally:
            server.close()

    def test_failed_prepare_rolls_back_keep_last_good(self, tier):
        server, _ = make_local_server(tier.path1, epoch=1, shards=3)
        try:
            token = server.swap(tier.path1 + ".does-not-exist", epoch=2)
            assert token is None
            assert server.committed_epoch == 1
            assert server.committed_path == tier.path1
            answers = server.batch(tier.workload[:10])
            assert all(a.epoch == 1 and not a.degraded for a in answers)
        finally:
            server.close()


@pytest.mark.parametrize("argv", [
    ["serve", "--shards", "0", "owner", "1.0.0.0"],
    ["serve", "--max-inflight", "-1", "owner", "1.0.0.0"],
    ["health", "--shards", "0"],
    ["top", "--max-inflight", "0", "--iterations", "1", "--interval", "0",
     "--no-clear"],
])
def test_cli_rejects_nonpositive_tier_counts(tier, argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--map", tier.path1] + argv[1:])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_async_serve_sheds_like_sync(tier, capsys):
    """``--max-inflight`` is the one admission knob on both serve
    paths: over more distinct queries than it admits, ``--async`` sheds
    the same requests as the synchronous path and prints the same
    lines."""
    from repro.addr import ntoa
    from repro.cli import main

    argv = ["serve", "--map", tier.path1, "--max-inflight", "2"]
    for op, key in list(dict.fromkeys(tier.workload))[:5]:
        argv += [op, str(key) if op == "neighbors" else ntoa(key)]
    printed = []
    for extra in ([], ["--async"]):
        assert main(argv + extra) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[1].count("[degraded: shed") == 3


# -- real processes ----------------------------------------------------------


class TestProcessShards:
    def test_spawned_shards_match_oracle_and_fail_over(self, tier):
        server = make_process_server(tier.path1, epoch=1, shards=2)
        try:
            requests = tier.workload[:30]
            answers = server.batch(requests)
            oracle = tier.oracle1.batch(requests)
            assert [a.value for a in answers] == [a.value for a in oracle]
            assert all(not a.degraded for a in answers)
            server.channels[0].transport.kill()
            answers = server.batch(requests)
            assert [a.value for a in answers] == [a.value for a in oracle]
            assert all(not a.degraded for a in answers)
            assert server.failovers > 0
        finally:
            server.close()

    def test_async_frontend_matches_sync_path(self, tier):
        """The executor path: spawned shards behind the async front end
        answer a duplicated workload exactly as the sync path on the
        same server does, also after one child is killed."""
        from repro.serving.frontend import make_async_frontend

        server = make_process_server(tier.path1, epoch=1, shards=2)
        frontend = make_async_frontend(server)
        try:
            requests = [req for req in tier.workload[:30] for _ in range(3)]
            answers = server.batch(requests)
            assert frontend.batch_sync(requests) == answers
            assert all(not a.degraded for a in answers)
            server.channels[0].transport.kill()
            assert server.batch(requests) == answers
            assert frontend.batch_sync(requests) == answers
            assert server.failovers > 0
            assert frontend.coalesced > 0
        finally:
            frontend.close()
            server.close()

    def test_process_loop_decodes_once_and_exits_after_shutdown(
            self, tier, monkeypatch):
        """``shard_process_main`` over an in-process pipe: each request
        is decoded once (by ``handle_frame``), and a shutdown is
        answered before the loop returns and closes its end."""
        import multiprocessing
        import threading

        from repro.remote.protocol import Command, decode, encode
        from repro.serving import shard

        decoded = []

        def counted(original):
            def decoder(body):
                decoded.append(body[:1])
                return original(body)
            return decoder

        for name in ("decode", "decode_query"):
            monkeypatch.setattr(shard, name, counted(getattr(shard, name)))

        def exchange(body):
            parent.send_bytes(pack_frame(body))
            assert parent.poll(30)
            return unpack_frame(parent.recv_bytes())

        parent, child = multiprocessing.Pipe(duplex=True)
        loop = threading.Thread(target=shard.shard_process_main,
                                args=(child, tier.path1, 0), daemon=True)
        loop.start()
        try:
            ping = decode(exchange(encode(Command("ping", {}, seq=1))))
            assert ping.seq == 1 and ping.payload["epoch"] == 1
            requests = tier.workload[:20]
            table = decode_answers(exchange(encode_query(2, requests)))
            assert [entry[2] for entry in table.entries] == \
                [a.value for a in tier.oracle1.batch(requests)]
            bye = decode(exchange(encode(Command("shutdown", {}, seq=3))))
            assert bye.payload == {"ok": True}
            loop.join(timeout=30)
            assert not loop.is_alive()
            assert child.closed
            assert decoded == [b"{", b"Q", b"{"]
        finally:
            parent.close()


# -- dead code guard ---------------------------------------------------------


def test_channel_error_hierarchy_expectations():
    """The tier's catch sites assume ChannelError sits under the
    measurement branch while DataError does not; if the taxonomy moves,
    every `(MeasurementError, DataError)` catch needs revisiting."""
    from repro.errors import MeasurementError

    assert issubclass(ChannelError, MeasurementError)
    assert issubclass(MeasurementTimeout, MeasurementError)
    assert not issubclass(DataError, MeasurementError)
