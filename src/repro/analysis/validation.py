"""§5.6 validation: score inferred links against generator ground truth.

The unit of validation is the same as the paper's: an inferred interdomain
link — (near router, neighbor AS) — judged correct when the ground truth
topology has a border link at that router to that AS (or to a sibling of
that AS, which the paper counted separately as "sibling of the correct
AS").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.report import BdrmapResult, InferredLink
from ..topology.model import Internet
from .linkid import truth_near_routers


@dataclass(frozen=True)
class LinkJudgement:
    link: InferredLink
    verdict: str          # "correct" | "sibling" | "wrong-as" | "no-link"
    truth_neighbors: Tuple[int, ...]  # ASes truly attached at that router

    @property
    def is_correct(self) -> bool:
        return self.verdict in ("correct", "sibling")


@dataclass
class ValidationReport:
    judgements: List[LinkJudgement] = field(default_factory=list)
    by_reason: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.judgements)

    @property
    def correct(self) -> int:
        return sum(1 for j in self.judgements if j.is_correct)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def verdict_counts(self) -> Counter:
        return Counter(j.verdict for j in self.judgements)

    def summary(self) -> str:
        counts = self.verdict_counts()
        lines = [
            "validation: %d/%d links correct (%.1f%%)"
            % (self.correct, self.total, 100.0 * self.accuracy),
            "  verdicts: %s"
            % ", ".join("%s=%d" % (k, v) for k, v in sorted(counts.items())),
        ]
        for reason in sorted(self.by_reason):
            good, total = self.by_reason[reason]
            lines.append(
                "  %-18s %3d/%3d (%.1f%%)"
                % (reason, good, total, 100.0 * good / total if total else 0.0)
            )
        return "\n".join(lines)


def _truth_neighbor_ases(
    internet: Internet, truth_rids: Set[int], vp_family: Set[int]
) -> Set[int]:
    """ASes truly attached across border links at these routers."""
    neighbors: Set[int] = set()
    for truth_rid in truth_rids:
        router = internet.routers.get(truth_rid)
        if router is None:
            continue
        for link_id in router.link_ids():
            link = internet.links[link_id]
            if link.kind.value == "intra":
                continue
            for iface in link.interfaces:
                owner = internet.routers[iface.router_id].asn
                if owner not in vp_family and iface.router_id != truth_rid:
                    neighbors.add(owner)
    return neighbors


def validate_result(result: BdrmapResult, internet: Internet) -> ValidationReport:
    """Judge every inferred link against ground truth."""
    report = ValidationReport()
    vp_family = set(internet.sibling_asns(result.focal_asn))
    reason_counts: Dict[str, List[int]] = {}

    for link in result.links:
        near_truth = truth_near_routers(result, internet, link)
        # The near side may (correctly) include several true routers when
        # §5.4.7 merged them; judge against the union of their borders.
        truth_neighbors = _truth_neighbor_ases(internet, near_truth, vp_family)
        if link.neighbor_as in truth_neighbors:
            verdict = "correct"
        else:
            sibling_hit = any(
                link.neighbor_as in internet.sibling_asns(asn)
                for asn in truth_neighbors
            )
            if sibling_hit:
                verdict = "sibling"
            elif truth_neighbors:
                verdict = "wrong-as"
            else:
                verdict = "no-link"
        judgement = LinkJudgement(
            link=link,
            verdict=verdict,
            truth_neighbors=tuple(sorted(truth_neighbors)),
        )
        report.judgements.append(judgement)
        bucket = reason_counts.setdefault(link.reason, [0, 0])
        bucket[1] += 1
        if judgement.is_correct:
            bucket[0] += 1

    report.by_reason = {
        reason: (good, total) for reason, (good, total) in reason_counts.items()
    }
    return report


def neighbor_coverage(
    result: BdrmapResult, internet: Internet
) -> Tuple[int, int, float]:
    """How many true BGP-adjacent neighbors got at least one inferred link
    (ground-truth flavour of Table 1's coverage row)."""
    vp_family = set(internet.sibling_asns(result.focal_asn))
    true_neighbors = {
        asn
        for member in vp_family
        for asn in internet.graph.neighbors(member)
        if asn not in vp_family
    }
    inferred = result.neighbor_ases()
    covered = len(true_neighbors & inferred)
    return covered, len(true_neighbors), (
        covered / len(true_neighbors) if true_neighbors else 0.0
    )
