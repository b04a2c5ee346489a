#!/usr/bin/env python
"""Longitudinal interconnection monitoring — the incremental way.

The deployed bdrmap system re-runs continuously so CAIDA can watch
interconnection evolve.  Between epochs the topology barely moves, so
this example uses the incremental epoch pipeline: epoch 0 measures
everything, then a month of churn happens (one peering provisioned,
one link turned down), and epoch 1 re-probes only what those events
could have affected, replays the rest from cache, and patches the
changed sections into the previous compiled artifact.  The patched map
is byte-identical to a from-scratch recompute — the example proves it
by replaying the saved patch chain.

Run:  python examples/longitudinal_monitoring.py
"""

import tempfile

from repro import build_scenario, mini
from repro.core.epochs import EpochRunner, replay_chain
from repro.topology.evolve import (
    add_border_link, rebuild_network, remove_link,
)


def main() -> None:
    scenario = build_scenario(mini(seed=9))
    out_dir = tempfile.mkdtemp(prefix="epochs-")
    runner = EpochRunner(scenario, out_dir=out_dir)

    first = runner.run_epoch()
    print("epoch 0 [%s]: %d probes, %d routers inferred"
          % (first.mode, first.cost.probes, first.cost.routers_live))

    # A month passes: one new peering comes up, one link is turned down.
    internet = scenario.internet
    focal = scenario.focal_asn
    new_peer = next(
        asn
        for asn in sorted(internet.ases)
        if internet.graph.relationship(focal, asn) is None
        and internet.ases[asn].router_ids
        and asn != focal
    )
    added = add_border_link(scenario, focal, new_peer)
    print("provisioned new peering with AS%d at %d addresses"
          % (new_peer, len(added.addrs)))

    victim_link = next(iter(internet.interdomain_links(focal)))
    victim_as = next(
        internet.routers[i.router_id].asn
        for i in victim_link.interfaces
        if internet.routers[i.router_id].asn != focal
    )
    remove_link(scenario, victim_link.link_id)
    print("turned down one link with AS%d" % victim_as)

    rebuild_network(scenario)
    scenario.network.advance(30 * 86400.0)  # a month of virtual time

    second = runner.run_epoch()
    cost = second.cost
    print("epoch 1 [%s]: %d probes (%d traces replayed from cache), "
          "%d routers inferred, %d/%d sections patched"
          % (second.mode, cost.probes, cost.traces_replayed,
             cost.routers_live, cost.sections_patched,
             cost.sections_patched + cost.sections_reused))

    print()
    diff = second.diff
    print("delta: +%d/-%d neighbors, +%d/-%d links, %d stable"
          % (len(diff["gained_neighbors"]), len(diff["lost_neighbors"]),
             len(diff["added_links"]), len(diff["removed_links"]),
             diff["stable_links"]))

    # Audit: the saved patch chain reproduces every epoch's artifact
    # byte for byte.
    verified = replay_chain(runner.save_chain())
    print("patch chain replayed: %d artifacts byte-identical" % len(verified))
    assert second.mode == "delta"
    assert cost.traces_replayed > 0


if __name__ == "__main__":
    main()
