"""Tests for the §5.8 remote deployment: protocol framing, the prober's
command handlers, and controller/local equivalence."""

import pytest

from repro import build_scenario, build_data_bundle, mini, run_bdrmap
from repro.addr import aton, ntoa
from repro.bgp import BGPView
from repro.errors import DataError, ProbeError
from repro.probing import paris_traceroute
from repro.remote import Channel, Command, Prober, RemoteBdrmap, Reply, decode, encode
from repro.remote.controller import _RemoteCollector


class TestProtocol:
    def test_command_roundtrip(self):
        command = Command(op="trace", args={"dst": "1.2.3.4"}, seq=7)
        assert decode(encode(command)) == command

    def test_reply_roundtrip(self):
        reply = Reply(seq=3, payload={"hops": []})
        assert decode(encode(reply)) == reply

    def test_decode_rejects_unknown_type(self):
        """A missing, mistyped or unknown type tag is line noise (one
        flipped bit makes it), so it raises DataError with the excerpt."""
        from repro.errors import DataError

        for frame in (b'{"t": "nope"}', b'{"t": [1]}', b'{"seq": 1}',
                      b'{"u":"cmd","seq":1,"op":"ping","args":{}}'):
            with pytest.raises(DataError) as excinfo:
                decode(frame)
            assert repr(frame[:64]) in str(excinfo.value)

    def test_encode_rejects_unknown_object(self):
        with pytest.raises(ProbeError):
            encode("a string")

    def test_garbled_bytes_raise_dataerror_with_excerpt(self):
        from repro.errors import DataError

        garbled = b'\xff\xfe{"t": "rep", "seq'
        with pytest.raises(DataError) as excinfo:
            decode(garbled)
        assert "garbled frame" in str(excinfo.value)
        assert repr(garbled[:64]) in str(excinfo.value)

    def test_truncated_frame_raises_dataerror(self):
        from repro.errors import DataError

        with pytest.raises(DataError, match="truncated frame"):
            decode(b'{"t": "rep", "seq": 1}')   # no payload key
        with pytest.raises(DataError, match="garbled frame"):
            decode(b'{"t": "rep", "seq": 1, "payload": {')
        with pytest.raises(DataError):
            decode(b'[1, 2, 3]')                # valid JSON, not an object

    @pytest.mark.parametrize("frame", [
        b'{"t":"cmd","op":1,"args":2,"seq":"x"}',
        b'{"t":"rep","seq":"x","payload":5}',
        b'{"t":"cmd","op":"trace","args":{},"seq":1,"tc":7}',
        b'{"t":"rep","seq":1,"payload":{},"err":3}',
        b'{"t":"rep","seq":true,"payload":{}}',
    ])
    def test_mistyped_fields_raise_dataerror(self, frame):
        from repro.errors import DataError

        with pytest.raises(DataError) as excinfo:
            decode(frame)
        assert repr(frame[:64]) in str(excinfo.value)

    def test_reply_error_field_roundtrips(self):
        reply = Reply(seq=9, payload={}, error="ValueError: bad addr")
        assert decode(encode(reply)) == reply
        # And its absence keeps the historical wire layout.
        clean = Reply(seq=9, payload={"x": 1})
        assert b"err" not in encode(clean)


class TestProber:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(mini(seed=11))

    @pytest.fixture(scope="class")
    def prober(self, scenario):
        return Prober(scenario.network, scenario.vps[0].addr)

    def _target(self, scenario):
        focal_family = scenario.internet.sibling_asns(scenario.focal_asn)
        policy = sorted(
            (
                p
                for p in scenario.internet.prefix_policies.values()
                if p.announced and not (set(p.origins) & focal_family)
            ),
            key=lambda p: p.prefix,
        )[0]
        return policy.prefix.addr + 1

    def test_trace_command(self, scenario, prober):
        dst = self._target(scenario)
        reply = prober.handle(
            Command(op="trace", args={"dst": ntoa(dst), "stop": []}, seq=1)
        )
        assert reply.seq == 1
        assert reply.payload["hops"]
        first = reply.payload["hops"][0]
        assert first["ttl"] == 1

    def test_trace_payload_keeps_its_layout(self):
        """The payload is the archive's trace record without "vp": its
        keys and each hop row's keys keep the order and values the prober
        has always sent, so its bytes do not change."""
        scenario, twin = build_scenario(mini(seed=11)), build_scenario(mini(seed=11))
        dst = self._target(scenario)
        reply = Prober(scenario.network, scenario.vps[0].addr).handle(
            Command(op="trace", args={"dst": ntoa(dst), "stop": []}, seq=1)
        )
        trace = paris_traceroute(twin.network, twin.vps[0].addr, dst)
        expected = {
            "dst": ntoa(trace.dst),
            "stop_reason": trace.stop_reason,
            "probes": trace.probes_used,
            "hops": [
                {
                    "ttl": ttl,
                    "addr": ntoa(addr) if addr is not None else None,
                    "kind": kind.value if kind is not None else None,
                    "rtt": round(rtt, 3),
                    "ipid": ipid,
                }
                for ttl, (addr, kind, rtt, ipid) in enumerate(
                    zip(trace.addrs, trace.kinds, trace.rtts, trace.ipids), 1
                )
            ],
        }
        assert encode(reply) == encode(Reply(seq=1, payload=expected))

    def test_trace_respects_stop_list(self, scenario, prober):
        dst = self._target(scenario)
        full = prober.handle(
            Command(op="trace", args={"dst": ntoa(dst), "stop": []}, seq=2)
        )
        responded = [h for h in full.payload["hops"] if h["addr"]]
        if len(responded) < 2:
            pytest.skip("path too short")
        stop_addr = responded[1]["addr"]
        stopped = prober.handle(
            Command(op="trace", args={"dst": ntoa(dst), "stop": [stop_addr]}, seq=3)
        )
        assert stopped.payload["stop_reason"] == "stopset"

    def test_mercator_command(self, scenario, prober):
        router = scenario.internet.routers[scenario.vps[0].first_router]
        addr = router.addresses()[0]
        reply = prober.handle(
            Command(op="mercator", args={"addr": ntoa(addr)}, seq=4)
        )
        assert "src" in reply.payload

    def test_ally_command(self, scenario, prober):
        router = scenario.internet.routers[scenario.vps[0].first_router]
        addrs = router.addresses()
        if len(addrs) < 2:
            pytest.skip("single-address router")
        reply = prober.handle(
            Command(
                op="ally",
                args={"a": ntoa(addrs[0]), "b": ntoa(addrs[1]), "rounds": 2,
                      "interval": 1.0},
                seq=5,
            )
        )
        assert reply.payload["verdict"] in ("alias", "not-alias", "unknown")

    def test_unknown_op_rejected(self, prober):
        with pytest.raises(ProbeError):
            prober.handle(Command(op="selfdestruct", args={}, seq=6))

    def test_status(self, prober):
        reply = prober.handle(Command(op="status", args={}, seq=7))
        assert reply.payload["commands"] >= 1


class StubChannel:
    """A channel whose every call answers one canned payload."""

    def __init__(self, payload):
        self.payload = payload

    def call(self, op, **args):
        return self.payload


class TestRemoteTracePayload:
    """The controller decodes a device's trace payload with the trace
    archive's codec, so a malformed payload fails once, with DataError."""

    VP = aton("10.0.0.10")

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(mini(seed=11))

    def _trace(self, scenario, hops):
        payload = {"dst": "20.0.0.1", "stop_reason": "completed",
                   "probes": 3, "hops": hops}
        collector = _RemoteCollector(
            StubChannel(payload), scenario.network, self.VP, BGPView(), {100}
        )
        return collector._trace(aton("20.0.0.1"), None)

    @staticmethod
    def _hops():
        return [
            {"ttl": 1, "addr": "10.0.0.1", "kind": "ttl-expired",
             "rtt": 1.5, "ipid": 7},
            {"ttl": 2, "addr": None, "kind": None, "rtt": 0.0, "ipid": 0},
            {"ttl": 3, "addr": "20.0.0.1", "kind": "echo-reply",
             "rtt": 4.5, "ipid": 9},
        ]

    def test_well_formed_payload_decodes(self, scenario):
        trace = self._trace(scenario, self._hops())
        assert trace.vp_addr == self.VP
        assert trace.addrs == (aton("10.0.0.1"), None, aton("20.0.0.1"))
        assert trace.probes_used == 3 and trace.reached_dst()

    @pytest.mark.parametrize("damage", [
        "no-ttl", "ttl-gap", "ttl-text", "rtt-text", "ipid-none",
        "addr-int", "kind-unknown", "row-list",
    ])
    def test_malformed_hops_raise_data_error(self, scenario, damage):
        hops = self._hops()
        if damage == "no-ttl":
            del hops[1]["ttl"]
        elif damage == "ttl-gap":
            hops = [hops[0], dict(hops[2], ttl=7)]
        elif damage == "ttl-text":
            hops[0]["ttl"] = "1"
        elif damage == "rtt-text":
            hops[2]["rtt"] = "4.5"
        elif damage == "ipid-none":
            hops[0]["ipid"] = None
        elif damage == "addr-int":
            hops[0]["addr"] = 167772161
        elif damage == "kind-unknown":
            hops[0]["kind"] = "ttl-exceeded"
        else:
            hops[0] = [1, "10.0.0.1", "ttl-expired", 1.5, 7]
        with pytest.raises(DataError):
            self._trace(scenario, hops)


class TestChannel:
    def test_accounting(self):
        scenario = build_scenario(mini(seed=12))
        prober = Prober(scenario.network, scenario.vps[0].addr)
        channel = Channel(prober)
        channel.call("status")
        assert channel.messages == 2
        assert channel.bytes_to_device > 0
        assert channel.bytes_from_device > 0
        assert channel.device_peak_bytes > 0

    def _channel(self, faults=None, **kwargs):
        scenario = build_scenario(mini(seed=12))
        prober = Prober(scenario.network, scenario.vps[0].addr)
        return scenario, Channel(prober, faults=faults, **kwargs)

    def test_dropped_reply_times_out_and_retries(self):
        from repro.errors import MeasurementTimeout
        from repro.net.faults import ChannelFaultPolicy

        scenario, channel = self._channel(
            faults=ChannelFaultPolicy(drop_rate=1.0, seed=1),
            timeout_s=3.0, max_retries=2,
        )
        before = scenario.network.now
        with pytest.raises(MeasurementTimeout, match="after 3 attempts"):
            channel.call("status")
        # Every attempt waited out the full timeout in virtual time.
        assert scenario.network.now - before >= 3 * 3.0
        assert channel.timeouts == 3
        assert channel.retries == 2

    def test_severed_connection_reconnects(self):
        from repro.net.faults import ChannelFaultPolicy

        scenario, channel = self._channel(
            faults=ChannelFaultPolicy(sever_rate=0.3, seed=3),
            max_retries=5,
        )
        for _ in range(30):
            payload = channel.call("status")
            assert "commands" in payload
        assert channel.severed > 0
        assert channel.reconnects == channel.severed

    def test_garbled_reply_retried_until_clean(self):
        from repro.net.faults import ChannelFaultPolicy

        scenario, channel = self._channel(
            faults=ChannelFaultPolicy(garble_rate=0.4, seed=2),
            max_retries=6,
        )
        for _ in range(20):
            assert "commands" in channel.call("status")
        assert channel.garbled > 0
        assert channel.retries > 0

    def test_delayed_reply_costs_time_but_succeeds(self):
        from repro.net.faults import ChannelFaultPolicy

        scenario, channel = self._channel(
            faults=ChannelFaultPolicy(delay_rate=1.0, delay_seconds=4.0,
                                      seed=1),
        )
        before = scenario.network.now
        assert "commands" in channel.call("status")
        assert scenario.network.now - before >= 4.0
        assert channel.delays == 1
        assert channel.retries == 0

    def test_non_idempotent_op_fails_fast(self):
        """Ops outside IDEMPOTENT_OPS get no retry budget: first
        transport failure surfaces immediately."""
        from repro.errors import MeasurementTimeout
        from repro.net.faults import ChannelFaultPolicy
        from repro.remote.protocol import IDEMPOTENT_OPS

        assert "reboot" not in IDEMPOTENT_OPS
        scenario, channel = self._channel(
            faults=ChannelFaultPolicy(drop_rate=1.0, seed=1),
            max_retries=5,
        )
        channel._prober._op_reboot = lambda args: {}
        with pytest.raises(MeasurementTimeout):
            channel.call("reboot")
        assert channel.retries == 0

    def test_device_error_reply_raises_channel_error(self):
        """A handler that fails on-device sends Reply.error; the channel
        raises ChannelError without retrying (the op ran and failed)."""
        from repro.errors import ChannelError

        scenario, channel = self._channel(max_retries=3)
        with pytest.raises(ChannelError, match="device error"):
            channel.call("trace", dst="not-an-address", stop=[],
                         max_ttl=8, attempts=1, gap_limit=3)
        assert channel.retries == 0

    def test_fault_counters_empty_on_healthy_channel(self):
        scenario, channel = self._channel()
        channel.call("status")
        assert channel.fault_counters() == {}


class TestRemoteEquivalence:
    def test_remote_matches_local(self):
        """The §5.8 split must not change inferences at all."""
        local_scenario = build_scenario(mini(seed=13))
        local_data = build_data_bundle(local_scenario)
        local = run_bdrmap(local_scenario, data=local_data)

        remote_scenario = build_scenario(mini(seed=13))
        remote_data = build_data_bundle(remote_scenario)
        controller = RemoteBdrmap(
            remote_scenario.network, remote_scenario.vps[0], remote_data
        )
        remote = controller.run()

        assert local.border_pairs() == remote.border_pairs()
        assert local.neighbor_ases() == remote.neighbor_ases()
        assert {r[1:] for r in local.neighbor_routers()} == {
            r[1:] for r in remote.neighbor_routers()
        }

    def test_device_state_much_smaller_than_controller(self):
        scenario = build_scenario(mini(seed=13))
        data = build_data_bundle(scenario)
        controller = RemoteBdrmap(scenario.network, scenario.vps[0], data)
        controller.run()
        stats = controller.stats
        assert stats is not None
        # The paper: 3.5 MB on-device vs ~150 MB centrally (~43x).  Exact
        # numbers differ; the order-of-magnitude asymmetry must hold.
        assert stats.controller_state_bytes > 10 * stats.device_peak_bytes
