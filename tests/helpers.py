"""Builders for synthetic inference inputs.

Heuristic unit tests construct the exact topological situations of the
paper's figures 4-11 without running the simulator: hand-written traces,
a hand-written public view, and hand-written relationship inferences.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.addr import Prefix, aton
from repro.alias import AliasResolver
from repro.asgraph import InferredRelationships
from repro.bgp import BGPView, RibEntry
from repro.core.collection import Collection
from repro.core.heuristics import HeuristicConfig, run_inference
from repro.core.pipeline import InferenceContext
from repro.core.routergraph import build_router_graph
from repro.net import ResponseKind
from repro.probing.traceroute import TraceResult

VP_AS = 100
COLLECTOR = 9999


class FakeResolver(AliasResolver):
    """An AliasResolver that never probes — evidence is injected directly."""

    def __init__(self) -> None:
        super().__init__(network=None, vp_addr=0)

    def _mercator_raw(self, addr):  # pragma: no cover - must not be called
        raise AssertionError("FakeResolver must not probe")

    def _ally_raw(self, a, b):  # pragma: no cover - must not be called
        raise AssertionError("FakeResolver must not probe")


class CaseBuilder:
    """Assemble (collection, view, rels) for one heuristic scenario."""

    def __init__(self, focal: int = VP_AS) -> None:
        self.focal = focal
        self.view = BGPView()
        self.rels = InferredRelationships()
        self.collection = Collection()
        self.collection.resolver = FakeResolver()
        self.vp_ases = {focal}

    # -- inputs ---------------------------------------------------------------

    def announce(self, prefix: str, origin: int,
                 path: Optional[Sequence[int]] = None) -> "CaseBuilder":
        full_path = tuple(path) if path else (COLLECTOR, origin)
        self.view.add(RibEntry(full_path[0], Prefix.parse(prefix), full_path))
        return self

    def c2p(self, customer: int, provider: int) -> "CaseBuilder":
        self.rels.c2p.add((customer, provider))
        return self

    def p2p(self, a: int, b: int) -> "CaseBuilder":
        self.rels.p2p.add(frozenset((a, b)))
        return self

    def siblings(self, *asns: int) -> "CaseBuilder":
        family = frozenset(asns)
        for asn in asns:
            self.rels.siblings[asn] = family
        return self

    def alias(self, a: str, b: str) -> "CaseBuilder":
        self.collection.resolver.evidence.record_for(aton(a), aton(b), "test")
        return self

    def not_alias(self, a: str, b: str) -> "CaseBuilder":
        self.collection.resolver.evidence.record_against(aton(a), aton(b), "test")
        return self

    def trace(
        self,
        target_as: Union[int, Tuple[int, ...]],
        dst: str,
        hops: Sequence[Optional[Union[str, Tuple[str, str]]]],
        final: Optional[Tuple[str, str]] = None,
    ) -> "CaseBuilder":
        """Add one trace.

        ``hops``: each entry is an address string (a TTL-expired hop), a
        (addr, kind) tuple, or None (no response at that TTL).  ``final``
        optionally appends a terminal non-TTL-expired response.
        """
        key = (target_as,) if isinstance(target_as, int) else tuple(target_as)
        addrs: List[Optional[int]] = []
        kinds: List[Optional[ResponseKind]] = []
        for hop in hops:
            if hop is None:
                addrs.append(None)
                kinds.append(None)
                continue
            if isinstance(hop, tuple):
                addr_text, kind_text = hop
                kind = ResponseKind(kind_text)
            else:
                addr_text, kind = hop, ResponseKind.TTL_EXPIRED
            addrs.append(aton(addr_text))
            kinds.append(kind)
        stop_reason = "gaplimit"
        if final is not None:
            addr_text, kind_text = final
            addrs.append(aton(addr_text))
            kinds.append(ResponseKind(kind_text))
            stop_reason = "completed"
        result = TraceResult(
            vp_addr=aton("10.0.0.10"),
            dst=aton(dst),
            stop_reason=stop_reason,
            addrs=addrs,
            kinds=kinds,
            rtts=[0.0 if addr is None else 1.0 for addr in addrs],
            ipids=[0] * len(addrs),
        )
        self.collection.traces.append(result)
        self.collection.trace_keys.append(key)
        self.collection.per_target.setdefault(key, []).append(result)
        return self

    # -- run ---------------------------------------------------------------------

    def run(self, config: Optional[HeuristicConfig] = None,
            ixp_data=None, rir=None):
        graph = build_router_graph(self.collection)
        ctx = InferenceContext(
            graph=graph,
            collection=self.collection,
            view=self.view,
            rels=self.rels,
            vp_ases=frozenset(self.vp_ases),
            focal_asn=self.focal,
            ixp_data=ixp_data,
            rir=rir,
            config=config or HeuristicConfig(),
        )
        links = run_inference(ctx)
        return graph, links, ctx

    def owner_of(self, graph, addr: str):
        router = graph.router_of_addr(aton(addr))
        return None if router is None else router.owner

    def reason_of(self, graph, addr: str):
        router = graph.router_of_addr(aton(addr))
        return None if router is None else router.reason
