#!/usr/bin/env python
"""Serve a compiled border map and hot-swap it as the network evolves.

A deployment runs bdrmap, compiles the per-VP results into one immutable
BorderMap artifact, and answers owner/border/neighbor queries from it at
high rate.  When the network changes, a fresh inference is compiled and
swapped in atomically — in-flight queries keep reading the old epoch,
the next batch reads the new one, and the diff says what changed.

Run:  python examples/serve_and_query.py
"""

from repro import build_data_bundle, build_scenario, mini
from repro.analysis import diff_border_maps
from repro.core.orchestrator import MultiVPOrchestrator
from repro.serving import BorderMapService, compile_map, make_workload
from repro.topology.evolve import add_border_link, rebuild_network


def main() -> None:
    scenario = build_scenario(mini(seed=11))
    data = build_data_bundle(scenario)
    run = MultiVPOrchestrator(scenario, data=data).run()
    bmap = run.to_border_map(data=data, epoch=1, source="serve_and_query")
    print("compiled epoch 1: %s"
          % ", ".join("%s=%d" % kv for kv in sorted(bmap.stats().items())))

    # Stand the service up on the map's compiled form (flat tables whose
    # answer rows are memoized) and push a mixed batch through it.
    service = BorderMapService(compile_map(bmap), batch_size=32)
    workload = make_workload(bmap, data.view, 200, seed=3)
    answers = service.batch(workload)
    owners = sum(
        1 for a in answers if a.op == "owner" and a.value is not None
    )
    borders = sum(1 for a in answers if a.op == "border" and a.value)
    print("epoch 1 served %d queries: %d owners resolved, "
          "%d crossed a border" % (len(answers), owners, borders))
    assert all(a.epoch == 1 for a in answers)

    # The network evolves: a new peering comes up, inference re-runs.
    internet = scenario.internet
    focal = scenario.focal_asn
    new_peer = next(
        asn
        for asn in sorted(internet.ases)
        if internet.graph.relationship(focal, asn) is None
        and internet.ases[asn].router_ids
        and asn != focal
    )
    add_border_link(scenario, focal, new_peer)
    rebuild_network(scenario)
    print("provisioned new peering with AS%d; re-inferring" % new_peer)

    data2 = build_data_bundle(scenario)
    run2 = MultiVPOrchestrator(scenario, data=data2).run()
    new_map = run2.to_border_map(data=data2, epoch=2, source="serve_and_query")

    # Atomic hot swap: queries never see a partially-built map.
    retired = service.swap(compile_map(new_map))
    answers2 = service.batch(workload)
    print("swapped epoch %d -> %d without dropping a query"
          % (retired, new_map.epoch))
    assert all(a.epoch == 2 for a in answers2)

    print()
    print(diff_border_maps(bmap, new_map).summary())
    assert new_peer in new_map.neighbor_ases()
    print()
    print(service.summary())


if __name__ == "__main__":
    main()
