#!/usr/bin/env python
"""Offline re-analysis of an archived measurement bundle.

The deployed system decouples probing (on VPs) from inference (central):
traces are archived, and inference is re-run whenever the algorithm or its
input data improves.  This example:

1. runs bdrmap once and archives everything to a bundle directory;
2. reloads the bundle — no simulator, no probing — and re-infers;
3. re-infers *again* under an ablation, the kind of methodological
   experiment archives make free.

Run:  python examples/offline_reanalysis.py
"""

import os
import tempfile

from repro import build_scenario, build_data_bundle, mini
from repro.core import Bdrmap, BdrmapConfig, HeuristicConfig, infer_from_collection
from repro.core.heuristics import DEFAULT_PASS_ORDER
from repro.io import load_bundle, save_bundle


def main() -> None:
    scenario = build_scenario(mini(seed=14))
    data = build_data_bundle(scenario)
    driver = Bdrmap(scenario.network, scenario.vps[0], data)
    live = driver.run()
    print("live run: %d links, %d probes" % (len(live.links), live.probes_used))

    with tempfile.TemporaryDirectory() as workdir:
        bundle_dir = os.path.join(workdir, "bundle")
        save_bundle(bundle_dir, scenario, data, collection=driver.collection)
        size_kb = sum(
            os.path.getsize(os.path.join(bundle_dir, name))
            for name in os.listdir(bundle_dir)
        ) / 1024.0
        print("archived %d files (%.0f KB): %s" % (
            len(os.listdir(bundle_dir)), size_kb,
            ", ".join(sorted(os.listdir(bundle_dir)))))

        # A different machine, later: reload and re-infer.  Relationship
        # inferences are re-derived from the archived RIB, so algorithm
        # improvements apply retroactively.
        loaded_data, collection = load_bundle(bundle_dir)
        offline = infer_from_collection(collection, loaded_data)
        same = offline.border_pairs() == live.border_pairs()
        print("offline re-inference identical to live run:", same)

        # Methodological experiment: what did the relationship heuristics
        # contribute?  Zero additional probes.
        ablated = infer_from_collection(
            collection,
            loaded_data,
            config=BdrmapConfig(
                heuristics=HeuristicConfig(passes=tuple(
                    name for name in DEFAULT_PASS_ORDER
                    if name not in ("relationship", "third_party")
                ))
            ),
        )
        print(
            "ablated re-inference: %d links (vs %d), heuristics: %s"
            % (
                len(ablated.links),
                len(offline.links),
                ", ".join(sorted(ablated.heuristic_counts())),
            )
        )


if __name__ == "__main__":
    main()
