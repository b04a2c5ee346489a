"""On-disk measurement bundles: the §5.2 inputs plus trace archives.

A bundle directory is what a real deployment would ship from its central
system to an analyst:

    bundle/
      rib.txt          TABLE_DUMP2 RIB snapshot (Route Views / RIS style)
      delegations.txt  RIR extended delegation file
      peeringdb.txt    IXP prefixes (PeeringDB style)
      pch.txt          IXP membership (PCH style)
      as2org.txt       AS→organization mapping
      meta.json        focal ASN + curated VP sibling list
      traces.json      the trace archive (optional)

Relationship inferences are *not* stored: they are re-derived from the RIB
and sibling data on load, exactly as §5.2 prescribes — so re-analyses pick
up inference-algorithm improvements.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Tuple

from ..asgraph import infer_relationships
from ..bgp import dump_rib, parse_rib
from ..core.bdrmap import DataBundle
from ..core.collection import Collection
from ..datasets import (
    generate_as2org,
    generate_ixp_data,
    generate_rir_files,
    parse_as2org,
    parse_ixp_files,
    parse_rir_file,
)
from ..errors import DataError
from .serialize import (
    atomic_write_text,
    collection_from_dict,
    collection_to_dict,
    read_json,
)

_FILES = ("rib.txt", "delegations.txt", "peeringdb.txt", "pch.txt",
          "as2org.txt", "meta.json")


def save_bundle(
    directory: str,
    scenario,
    data: DataBundle,
    collection: Optional[Collection] = None,
) -> None:
    """Write a bundle directory for ``scenario``'s measurement inputs."""
    os.makedirs(directory, exist_ok=True)
    internet = scenario.internet
    pdb_text, pch_text = generate_ixp_data(internet)
    files = {
        "rib.txt": dump_rib(data.view),
        "delegations.txt": generate_rir_files(internet),
        "peeringdb.txt": pdb_text,
        "pch.txt": pch_text,
        "as2org.txt": generate_as2org(internet),
    }
    if collection is not None:
        files["traces.json"] = json.dumps(collection_to_dict(collection))
    # meta.json goes last: a first save cut short leaves no meta.json,
    # and load_bundle refuses a directory without one.
    files["meta.json"] = json.dumps(
        {
            "focal_asn": data.focal_asn,
            "vp_ases": sorted(data.vp_ases),
        },
        indent=1,
    )
    for name, text in files.items():
        atomic_write_text(os.path.join(directory, name), text)


def load_bundle(directory: str) -> Tuple[DataBundle, Optional[Collection]]:
    """Load a bundle; re-derives relationship inferences from the RIB."""
    for name in _FILES:
        if not os.path.exists(os.path.join(directory, name)):
            raise DataError("bundle missing %s" % name)

    def read(name: str) -> str:
        with open(os.path.join(directory, name)) as handle:
            return handle.read()

    # The JSON files first: a malformed one fails before any RIB parsing.
    meta = read_json(os.path.join(directory, "meta.json"))
    try:
        vp_ases, focal_asn = set(meta["vp_ases"]), meta["focal_asn"]
    except (KeyError, TypeError) as exc:
        raise DataError("malformed bundle meta.json: %s" % exc) from exc
    collection = None
    traces_path = os.path.join(directory, "traces.json")
    if os.path.exists(traces_path):
        collection = collection_from_dict(read_json(traces_path))
    view = parse_rib(read("rib.txt"))
    sibling_map = parse_as2org(read("as2org.txt"))
    rels = infer_relationships(view.paths(), siblings=sibling_map.as_dict())
    rir = parse_rir_file(read("delegations.txt"))
    ixp = parse_ixp_files(read("peeringdb.txt"), read("pch.txt"))
    data = DataBundle(
        view=view,
        rels=rels,
        rir=rir,
        ixp=ixp,
        vp_ases=vp_ases,
        focal_asn=focal_asn,
    )
    return data, collection
