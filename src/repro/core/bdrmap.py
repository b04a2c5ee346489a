"""The end-to-end bdrmap driver (Fig 2).

``build_data_bundle`` assembles the §5.2 inputs from a scenario the same way
a real deployment would: public BGP snapshots from collectors, relationship
inference over them, RIR delegation files, IXP lists, and the curated VP
sibling list.  ``Bdrmap`` then runs the staged pipeline — collection →
router graph → heuristic passes — for one VP and returns a
:class:`BdrmapResult`.  The stage sequence itself lives in
:mod:`repro.core.pipeline`; subclasses (e.g. the §5.8 remote controller)
override :meth:`Bdrmap.stages` to swap individual stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from ..asgraph import InferredRelationships, infer_relationships
from ..bgp import (
    BGPView,
    CollectorConfig,
    collect_public_view,
    public_view_inputs,
)
from ..datasets import (
    IXPDataset,
    RIRDelegations,
    generate_as2org,
    generate_ixp_data,
    generate_rir_files,
    parse_as2org,
    parse_ixp_files,
    parse_rir_file,
)
from ..net import Network, VantagePoint
from .collection import Collection, CollectionConfig
from .heuristics import HeuristicConfig
from .pipeline import (
    GraphBuildStage,
    InferenceStage,
    Pipeline,
    PipelineStage,
    PipelineState,
    default_stages,
)
from .report import BdrmapResult


@dataclass
class DataBundle:
    """The §5.2 input data, as bdrmap consumes it."""

    view: BGPView
    rels: InferredRelationships
    rir: RIRDelegations
    ixp: IXPDataset
    vp_ases: Set[int]
    focal_asn: int
    #: What ``build_data_bundle`` built each derived part from, by part
    #: name; a later build given this bundle as ``previous`` reuses
    #: every part whose inputs are equal.  Empty for a loaded bundle.
    built_from: Dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass
class BdrmapConfig:
    collection: CollectionConfig = field(default_factory=CollectionConfig)
    heuristics: HeuristicConfig = field(default_factory=HeuristicConfig)


def build_data_bundle(
    scenario,
    collector_config: Optional[CollectorConfig] = None,
    previous: Optional[DataBundle] = None,
) -> DataBundle:
    """Assemble input data for a scenario (shared across its VPs).

    Each derived part records what it was built from: for the public
    view, everything :func:`~repro.bgp.public_view_inputs` lists; for
    the relationships, the view's AS paths and the as2org text (the
    sibling map); for the RIR and IXP data, their generated text.  Given
    ``previous`` (the bundle of the same scenario's last epoch), a part
    whose inputs equal the ones ``previous`` recorded is taken from it
    instead of rebuilt; relationship inference, for one, is a function
    of the path corpus and the siblings alone.  Reuse compares inputs,
    never the scenario's mutation events, so every part equals what a
    build without ``previous`` returns.
    """
    internet = scenario.internet
    built_from: Dict[str, Any] = {}

    def part(name: str, inputs, build: Callable[[], Any]):
        built_from[name] = inputs
        if previous is not None and previous.built_from.get(name) == inputs:
            return getattr(previous, name)
        return build()

    view = part(
        "view",
        public_view_inputs(internet, collector_config,
                           focal_asn=scenario.focal_asn),
        lambda: collect_public_view(
            internet,
            scenario.network.oracle,
            collector_config,
            focal_asn=scenario.focal_asn,
        ),
    )
    paths, as2org_text = view.paths(), generate_as2org(internet)
    rels = part(
        "rels",
        (paths, as2org_text),
        lambda: infer_relationships(
            paths, siblings=parse_as2org(as2org_text).as_dict()
        ),
    )
    rir_text = generate_rir_files(internet)
    rir = part("rir", rir_text, lambda: parse_rir_file(rir_text))
    ixp_texts = generate_ixp_data(internet)
    ixp = part("ixp", ixp_texts, lambda: parse_ixp_files(*ixp_texts))
    return DataBundle(
        view=view,
        rels=rels,
        rir=rir,
        ixp=ixp,
        vp_ases=set(scenario.vp_as_list),
        focal_asn=scenario.focal_asn,
        built_from=built_from,
    )


def result_from_state(state: PipelineState) -> BdrmapResult:
    """Assemble a :class:`BdrmapResult` from a completed pipeline state."""
    return BdrmapResult(
        vp_name=state.vp_name,
        vp_addr=state.vp_addr,
        focal_asn=state.data.focal_asn,
        vp_ases=set(state.data.vp_ases),
        graph=state.graph,
        links=state.links,
        probes_used=state.collection.probes_used,
        traces_run=state.collection.traces_run,
        runtime_virtual_seconds=sum(
            timing.virtual_seconds for timing in state.timings
        ),
        provenance=(
            list(state.ctx.provenance.records)
            if state.ctx is not None else []
        ),
    )


class Bdrmap:
    """Run the full staged pipeline for one VP."""

    def __init__(
        self,
        network: Network,
        vp: VantagePoint,
        data: DataBundle,
        config: Optional[BdrmapConfig] = None,
        resolver=None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.network = network
        self.vp = vp
        self.data = data
        self.config = config or BdrmapConfig()
        self.resolver = resolver
        self.metrics = metrics
        self.tracer = tracer
        self.collection: Optional[Collection] = None
        self.state: Optional[PipelineState] = None

    def stages(self) -> List[PipelineStage]:
        """The stage sequence; remote deployments override this to swap
        the collection stage only."""
        return default_stages()

    def run(self) -> BdrmapResult:
        state = PipelineState(
            network=self.network,
            vp_name=self.vp.name,
            vp_addr=self.vp.addr,
            data=self.data,
            config=self.config,
            resolver=self.resolver,
        )
        if self.metrics is not None:
            state.metrics = self.metrics
        if self.tracer is not None:
            state.tracer = self.tracer
        Pipeline(self.stages()).run(state)
        self.state = state
        self.collection = state.collection
        return result_from_state(state)


def run_bdrmap(scenario, vp_index: int = 0,
               config: Optional[BdrmapConfig] = None,
               data: Optional[DataBundle] = None) -> BdrmapResult:
    """Convenience one-call runner for examples and tests."""
    scenario.ensure_forwarding_current()
    if data is None:
        data = build_data_bundle(scenario)
    vp = scenario.vps[vp_index]
    return Bdrmap(scenario.network, vp, data, config).run()


def infer_from_collection(
    collection: Collection,
    data: DataBundle,
    config: Optional[BdrmapConfig] = None,
    vp_name: str = "offline",
    vp_addr: int = 0,
) -> BdrmapResult:
    """Run the inference stages over an already-collected (possibly
    archived) collection — no probing.

    This is how inference over stored traces works: archive a collection
    with :func:`repro.io.serialize.collection_to_dict`, reload it later
    (or on another machine), and re-run the heuristics, e.g. with
    different :class:`HeuristicConfig` ablations.
    """
    state = PipelineState(
        network=None,
        vp_name=vp_name,
        vp_addr=vp_addr,
        data=data,
        config=config or BdrmapConfig(),
        collection=collection,
    )
    Pipeline([GraphBuildStage(), InferenceStage()]).run(state)
    return result_from_state(state)
