"""Figure 14: per-prefix diversity of border routers and next-hop ASes.

From N VPs in one network, for every routed destination prefix: how many
distinct border routers carried probes toward it, and how many distinct
next-hop ASes?  The paper found <2% of prefixes leave via one router from
every VP, 73% via 5–15 routers, and 67% via the same next-hop AS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..addr import Prefix
from ..bgp import BGPView
from ..core.report import BdrmapResult
from ..topology.model import Internet


@dataclass
class DiversityReport:
    per_prefix_routers: Dict[Prefix, Set[int]] = field(default_factory=dict)
    per_prefix_nextas: Dict[Prefix, Set[int]] = field(default_factory=dict)

    def router_count_cdf(self) -> List[Tuple[int, float]]:
        return _cdf([len(v) for v in self.per_prefix_routers.values()])

    def fraction_routers_between(self, lo: int, hi: int) -> float:
        counts = [len(v) for v in self.per_prefix_routers.values()]
        if not counts:
            return 0.0
        return sum(1 for c in counts if lo <= c <= hi) / len(counts)

    def fraction_single_router(self) -> float:
        return self.fraction_routers_between(1, 1)

    def fraction_single_nextas(self) -> float:
        counts = [len(v) for v in self.per_prefix_nextas.values()]
        if not counts:
            return 0.0
        return sum(1 for c in counts if c == 1) / len(counts)

    def summary(self) -> str:
        return (
            "diversity over %d prefixes: single-router %.1f%%, "
            "5-15 routers %.1f%%, >15 routers %.1f%%, single next-AS %.1f%%"
            % (
                len(self.per_prefix_routers),
                100 * self.fraction_single_router(),
                100 * self.fraction_routers_between(5, 15),
                100
                * (
                    1.0
                    - self.fraction_routers_between(0, 15)
                ),
                100 * self.fraction_single_nextas(),
            )
        )


def _cdf(counts: Sequence[int]) -> List[Tuple[int, float]]:
    if not counts:
        return []
    ordered = sorted(counts)
    total = len(ordered)
    points: List[Tuple[int, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / total)
        else:
            points.append((value, index / total))
    return points


def diversity_analysis(
    results: Sequence[BdrmapResult],
    view: BGPView,
    internet: Internet,
) -> DiversityReport:
    """Cross-VP per-prefix border/next-hop diversity.

    Router identity across VPs uses ground truth (each VP builds its own
    inferred graph; the generator arbitrates which inferred routers are the
    same device)."""
    report = DiversityReport()
    for result in results:
        vp_family = result.vp_ases
        for path in result.graph.paths:
            found = view.lookup(path.dst)
            if found is None:
                continue
            prefix = found[0]
            border_rid: Optional[int] = None
            next_owner: Optional[int] = None
            for index, rid in enumerate(path.routers):
                router = result.graph.routers.get(rid)
                if router is None:
                    continue
                if router.owner == result.focal_asn:
                    border_rid = rid
                    next_owner = None
                    for later_rid in path.routers[index + 1:]:
                        later = result.graph.routers.get(later_rid)
                        if later is not None and later.owner is not None and (
                            later.owner not in vp_family
                        ):
                            next_owner = later.owner
                            break
            if border_rid is None:
                continue
            border = result.graph.routers[border_rid]
            truth_ids = {
                internet.router_of_addr(addr).router_id
                for addr in border.addrs
                if internet.router_of_addr(addr) is not None
            }
            if not truth_ids:
                continue
            report.per_prefix_routers.setdefault(prefix, set()).add(min(truth_ids))
            if next_owner is not None:
                report.per_prefix_nextas.setdefault(prefix, set()).add(next_owner)
    return report
