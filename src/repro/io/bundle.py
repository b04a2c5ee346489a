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

A save is atomic per bundle, not just per file.  Every file of the new
bundle is first written and fsynced under a temp name; a failure there
removes the temp files and leaves the old bundle whole.  Only then is
the old ``meta.json`` withdrawn, the data files renamed into place, a
``traces.json`` the new bundle lacks deleted, and the new ``meta.json``
renamed in last.  A save cut short after the withdrawal leaves no
``meta.json``, which :func:`load_bundle` refuses: a directory is read
as one whole bundle or not at all.  Nothing else in the directory is
touched.

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
    collection_from_dict,
    collection_to_dict,
    read_json,
    stage_text,
    unlink_quietly,
)

_FILES = ("rib.txt", "delegations.txt", "peeringdb.txt", "pch.txt",
          "as2org.txt", "meta.json")


def _withdraw(path: str) -> None:
    """Remove an old bundle file; only its absence is not an error."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


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
    files["meta.json"] = json.dumps(
        {
            "focal_asn": data.focal_asn,
            "vp_ases": sorted(data.vp_ases),
        },
        indent=1,
    )
    staged = []   # (temp path, final path), meta.json last
    try:
        for name, text in files.items():
            path = os.path.join(directory, name)
            staged.append((stage_text(path, text), path))
        _withdraw(os.path.join(directory, "meta.json"))
        if collection is None:
            _withdraw(os.path.join(directory, "traces.json"))
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
    except BaseException:
        for tmp_path, _ in staged:
            unlink_quietly(tmp_path)
        raise


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
