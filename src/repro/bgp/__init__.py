"""Public BGP view substrate: simulated Route Views / RIPE RIS collectors
and the prefix→origin mapping bdrmap derives from them (§5.2)."""

from .table import BGPView, RibEntry
from .collectors import CollectorConfig, collect_public_view, public_view_inputs
from .mrt import dump_rib, parse_rib

__all__ = [
    "BGPView",
    "RibEntry",
    "CollectorConfig",
    "collect_public_view",
    "public_view_inputs",
    "dump_rib",
    "parse_rib",
]
