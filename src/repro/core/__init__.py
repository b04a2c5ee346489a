"""bdrmap — the paper's contribution.

Pipeline (Fig 2): assemble input data (§5.2) → targeted traceroute with
stop sets (§5.3) → alias resolution → router-level graph → ordered
ownership heuristics (§5.4) → border routers and interdomain links.
"""

from .targets import TargetBlock, build_targets
from .collection import CollectionConfig, Collection, Collector
from .routergraph import InferredRouter, RouterGraph, build_router_graph
from .nextas import compute_nextas
from .heuristics import (
    HeuristicConfig,
    HeuristicPass,
    PASS_REGISTRY,
    build_passes,
    table1_row_order,
)
from .pipeline import (
    CollectionStage,
    GraphBuildStage,
    InferenceContext,
    InferenceStage,
    Pipeline,
    PipelineStage,
    PipelineState,
    StageTiming,
    default_stages,
)
from .report import InferredLink, BdrmapResult
from .bdrmap import (
    Bdrmap,
    BdrmapConfig,
    DataBundle,
    build_data_bundle,
    infer_from_collection,
    run_bdrmap,
)
from .orchestrator import (
    MultiVPOrchestrator,
    OrchestratedRun,
    RunReport,
    VPReport,
    orchestrate,
)

__all__ = [
    "TargetBlock",
    "build_targets",
    "CollectionConfig",
    "Collection",
    "Collector",
    "InferredRouter",
    "RouterGraph",
    "build_router_graph",
    "compute_nextas",
    "HeuristicConfig",
    "HeuristicPass",
    "PASS_REGISTRY",
    "build_passes",
    "table1_row_order",
    "CollectionStage",
    "GraphBuildStage",
    "InferenceContext",
    "InferenceStage",
    "Pipeline",
    "PipelineStage",
    "PipelineState",
    "StageTiming",
    "default_stages",
    "InferredLink",
    "BdrmapResult",
    "Bdrmap",
    "BdrmapConfig",
    "DataBundle",
    "build_data_bundle",
    "infer_from_collection",
    "run_bdrmap",
    "MultiVPOrchestrator",
    "OrchestratedRun",
    "RunReport",
    "VPReport",
    "orchestrate",
]
