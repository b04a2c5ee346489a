"""The central controller (§5.8).

Runs the *identical* bdrmap pipeline as a local run — same stage sequence,
same alias resolver, same heuristic passes — but every measurement is
dispatched to the on-device prober over the accounted channel.  Only the
collection stage is swapped: :class:`RemoteBdrmap` overrides
:meth:`~repro.core.bdrmap.Bdrmap.stages` to substitute
:class:`RemoteCollectionStage`, and everything downstream (router-graph
build, heuristic inference) runs unchanged.  The controller keeps all
heavy state (IP→AS mapping, stop sets, traces, alias evidence); the device
keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..addr import aton, ntoa
from ..alias import AliasResolver
from ..core.bdrmap import Bdrmap, BdrmapConfig, DataBundle
from ..core.collection import Collector
from ..core.pipeline import CollectionStage, PipelineStage, PipelineState
from ..core.report import BdrmapResult
from ..io.serialize import trace_from_dict
from ..net import Network, VantagePoint
from ..probing.ally import AliasVerdict, AllyResult
from ..probing.prefixscan import PrefixscanResult
from ..probing.traceroute import TraceResult
from .prober import Prober
from .protocol import Channel


@dataclass
class RemoteStats:
    messages: int
    bytes_to_device: int
    bytes_from_device: int
    device_peak_bytes: int
    controller_state_bytes: int
    # Channel resilience counters (empty on a healthy channel).
    fault_counters: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        text = (
            "remote session: %d messages, %.1f KB down, %.1f KB up, "
            "device peak %.1f KB, controller state %.1f KB"
            % (
                self.messages,
                self.bytes_to_device / 1024.0,
                self.bytes_from_device / 1024.0,
                self.device_peak_bytes / 1024.0,
                self.controller_state_bytes / 1024.0,
            )
        )
        if self.fault_counters:
            text += "\n  channel faults: %s" % ", ".join(
                "%s=%d" % (key, value)
                for key, value in sorted(self.fault_counters.items())
            )
        return text


class _RemoteAliasResolver(AliasResolver):
    """Alias resolver whose probes run on the device."""

    def __init__(self, channel: Channel, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._channel = channel

    def _mercator_raw(self, addr: int) -> Optional[int]:
        payload = self._channel.call("mercator", addr=ntoa(addr))
        return aton(payload["src"]) if payload["src"] else None

    def _velocity_raw(self, addr: int):
        payload = self._channel.call("velocity", addr=ntoa(addr))
        return payload["velocity"]

    def _ally_raw(self, a: int, b: int) -> AllyResult:
        aims = {}
        for addr in (a, b):
            aim = self.ttl_aim(addr)
            if aim is not None:
                aims[ntoa(addr)] = [ntoa(aim[0]), aim[1]]
        payload = self._channel.call(
            "ally", a=ntoa(a), b=ntoa(b),
            rounds=self.ally_rounds, interval=self.ally_interval,
            aims=aims,
        )
        return AllyResult(
            verdict=AliasVerdict(payload["verdict"]),
            rounds=payload.get("rounds", 1),
        )


class _RemoteCollector(Collector):
    """Collector whose traceroutes and prefixscans run on the device."""

    def __init__(self, channel: Channel, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._channel = channel
        self.collection.resolver = _RemoteAliasResolver(
            channel,
            self.network,
            self.vp_addr,
            ally_rounds=self.config.ally_rounds,
            ally_interval=self.config.ally_interval,
        )

    def _trace(self, dst: int, stop: Optional[Set[int]]) -> TraceResult:
        payload = self._channel.call(
            "trace",
            dst=ntoa(dst),
            stop=sorted(ntoa(a) for a in stop) if stop else [],
            max_ttl=self.config.max_ttl,
            attempts=self.config.attempts,
            gap_limit=self.config.gap_limit,
        )
        return trace_from_dict(payload, vp_addr=self.vp_addr)

    def _prefixscan(self, prev: int, nxt: int) -> PrefixscanResult:
        payload = self._channel.call(
            "prefixscan", prev=ntoa(prev), addr=ntoa(nxt)
        )
        return PrefixscanResult(
            prev=prev,
            addr=nxt,
            subnet_plen=payload["plen"],
            mate=aton(payload["mate"]) if payload["mate"] else None,
        )


class RemoteCollectionStage(CollectionStage):
    """Collection stage whose probes cross the device channel."""

    name = "collection[remote]"

    def __init__(self, channel: Channel) -> None:
        self.channel = channel

    def make_collector(self, state: PipelineState) -> Collector:
        return _RemoteCollector(
            self.channel,
            state.network,
            state.vp_addr,
            state.data.view,
            state.data.vp_ases,
            state.config.collection,
        )


class RemoteBdrmap(Bdrmap):
    """bdrmap with the §5.8 split: device probes, controller thinks."""

    def __init__(
        self,
        network: Network,
        vp: VantagePoint,
        data: DataBundle,
        config: Optional[BdrmapConfig] = None,
        channel_faults=None,
        channel_timeout_s: float = 10.0,
        channel_retries: int = 3,
    ) -> None:
        super().__init__(network, vp, data, config)
        self.prober = Prober(network, vp.addr)
        self.channel = Channel(
            self.prober,
            faults=channel_faults,
            timeout_s=channel_timeout_s,
            max_retries=channel_retries,
        )
        self.stats: Optional[RemoteStats] = None

    def stages(self) -> List[PipelineStage]:
        stages = super().stages()
        return [
            RemoteCollectionStage(self.channel)
            if isinstance(stage, CollectionStage)
            else stage
            for stage in stages
        ]

    def run(self) -> BdrmapResult:
        result = super().run()
        self.stats = RemoteStats(
            messages=self.channel.messages,
            bytes_to_device=self.channel.bytes_to_device,
            bytes_from_device=self.channel.bytes_from_device,
            device_peak_bytes=self.channel.device_peak_bytes,
            controller_state_bytes=_estimate_controller_state(self.collection),
            fault_counters=self.channel.fault_counters(),
        )
        return result


def _estimate_controller_state(collection) -> int:
    """Rough size of the state the controller held for the device: traces,
    stop sets, and alias evidence (what would not fit on the device)."""
    trace_bytes = sum(
        32 + 24 * len(trace.addrs) for trace in collection.traces
    )
    stop_bytes = 8 * collection.stop_set.total_entries()
    alias_bytes = 48 * len(collection.resolver.evidence) if collection.resolver else 0
    return trace_bytes + stop_bytes + alias_bytes
