"""The on-device prober (scamper's role in §5.8).

Executes one measurement command at a time and returns the result.  It
holds no mapping data, no stop sets beyond the per-command list it is
handed, and no alias state — that all lives on the controller.
"""

from __future__ import annotations

from typing import Any, Dict

from ..addr import aton, ntoa
from ..errors import ProbeError, ReproError
from ..io.serialize import trace_to_dict
from ..net import Network
from ..probing import ally_repeated, paris_traceroute
from ..probing.mercator import mercator_probe
from ..probing.ping import ping
from ..probing.prefixscan import prefixscan
from .protocol import Command, Reply


class Prober:
    """Runs measurement commands on the device hosting the VP."""

    def __init__(self, network: Network, vp_addr: int) -> None:
        self.network = network
        self.vp_addr = vp_addr
        self.commands_handled = 0
        self.op_failures = 0

    def handle(self, command: Command) -> Reply:
        """Run one command.  An op that fails at runtime produces an
        explicit error reply (``Reply.error``) rather than a stack trace
        on the device; an unknown op is a protocol bug and still raises."""
        self.commands_handled += 1
        handler = getattr(self, "_op_%s" % command.op, None)
        if handler is None:
            raise ProbeError("unknown command %r" % command.op)
        try:
            return Reply(seq=command.seq, payload=handler(command.args))
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self.op_failures += 1
            return Reply(
                seq=command.seq,
                payload={},
                error="%s: %s" % (type(exc).__name__, exc),
            )

    # -- operations ----------------------------------------------------------

    def _op_trace(self, args: Dict[str, Any]) -> Dict[str, Any]:
        stop = (
            {aton(a) for a in args["stop"]} if args.get("stop") else None
        )
        trace = paris_traceroute(
            self.network,
            self.vp_addr,
            aton(args["dst"]),
            max_ttl=int(args.get("max_ttl", 32)),
            attempts=int(args.get("attempts", 2)),
            gap_limit=int(args.get("gap_limit", 5)),
            stop_set=stop,
        )
        payload = trace_to_dict(trace)
        del payload["vp"]  # the controller knows its own VP
        return payload

    def _op_mercator(self, args: Dict[str, Any]) -> Dict[str, Any]:
        source = mercator_probe(self.network, self.vp_addr, aton(args["addr"]))
        return {"src": ntoa(source) if source is not None else None}

    def _op_ally(self, args: Dict[str, Any]) -> Dict[str, Any]:
        addr_a, addr_b = aton(args["a"]), aton(args["b"])
        # The controller holds the TTL-limited aims (it has the traces);
        # it ships them with the command so the device can fall back to
        # in-transit expiry probing without holding any state itself.
        ttl_prober = None
        aims = args.get("aims") or {}
        if aims:
            from ..probing.ttl_limited import TTLLimitedProber

            ttl_prober = TTLLimitedProber(self.network, self.vp_addr)
            for addr_text, (dst_text, ttl) in aims.items():
                ttl_prober.learn(aton(addr_text), aton(dst_text), int(ttl))
        result = ally_repeated(
            self.network,
            self.vp_addr,
            addr_a,
            addr_b,
            rounds=int(args.get("rounds", 5)),
            interval=float(args.get("interval", 300.0)),
            ttl_prober=ttl_prober,
        )
        return {"verdict": result.verdict.value, "rounds": result.rounds}

    def _op_prefixscan(self, args: Dict[str, Any]) -> Dict[str, Any]:
        result = prefixscan(
            self.network, self.vp_addr, aton(args["prev"]), aton(args["addr"])
        )
        return {
            "plen": result.subnet_plen,
            "mate": ntoa(result.mate) if result.mate is not None else None,
        }

    def _op_velocity(self, args: Dict[str, Any]) -> Dict[str, Any]:
        from ..probing.midar import estimate_velocity

        addr = aton(args["addr"])
        samples = []
        for index in range(int(args.get("count", 3))):
            if index:
                self.network.advance(float(args.get("spacing", 2.0)))
            response = ping(self.network, self.vp_addr, addr)
            if response is not None:
                samples.append((self.network.now, response.ipid))
        estimate = estimate_velocity(samples)
        return {"velocity": estimate}

    def _op_status(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "commands": self.commands_handled,
            "vp": ntoa(self.vp_addr),
        }
