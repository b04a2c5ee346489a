"""Reverse DNS for router interfaces.

The paper used DNS hostnames two ways: during development, as a sanity
check on ownership inferences (§5.1 — noting that names are sometimes
wrong, and carry organization names rather than AS numbers, so they could
not be used for automated validation); and in §6, to geolocate the VP-side
interfaces of border routers from the airport codes operators embed in
hostnames (Figure 16).

We synthesize a PTR table with the same character: per-operator naming
conventions (``xe-1-0-3.cr2.sea.as2001.example.net``), a large fraction of
interfaces with no name at all, a fraction of *stale* names left from
previous assignments (wrong router, wrong city), and names that identify
the organization rather than the AS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..rng import make_rng
from ..topology.geography import CITY_BY_IATA, City
from ..topology.model import Internet

_IFACE_NAMES = ["xe-%d-0-%d", "ge-%d-1-%d", "et-%d-0-%d", "hu-%d-0-%d"]
_ROLE_NAMES = {True: ("bdr", "br", "pe"), False: ("cr", "core", "agg")}


@dataclass
class ReverseDNS:
    """A PTR table with hostname-parsing helpers."""

    names: Dict[int, str] = field(default_factory=dict)

    def lookup(self, addr: int) -> Optional[str]:
        return self.names.get(addr)

    def city_hint(self, addr: int) -> Optional[City]:
        """The city embedded in the hostname, if recognizable."""
        name = self.names.get(addr)
        if name is None:
            return None
        for label in name.split("."):
            city = CITY_BY_IATA.get(label)
            if city is not None:
                return city
        return None

    def asn_hint(self, addr: int) -> Optional[int]:
        """The AS number embedded in the hostname, if any.

        Many operators use organization names instead (§5.1), in which
        case this returns None even though a human could tell the owner.
        """
        name = self.names.get(addr)
        if name is None:
            return None
        match = re.search(r"\bas(\d+)\b", name)
        return int(match.group(1)) if match else None

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class DNSConfig:
    coverage: float = 0.6        # fraction of interfaces with PTR records
    stale_rate: float = 0.04     # names left over from renumbering (§5.1)
    org_name_rate: float = 0.35  # domains use org names, not AS numbers
    as_without_dns_rate: float = 0.25  # operators publishing nothing


def generate_reverse_dns(
    internet: Internet,
    config: Optional[DNSConfig] = None,
    always_named: Optional[Iterable[int]] = None,
) -> ReverseDNS:
    """Synthesize the PTR table for every addressed interface.

    ``always_named`` lists ASes guaranteed to publish hostnames (the §6
    analysis requires the access network itself to — it did).
    """
    if config is None:
        config = DNSConfig()
    rng = make_rng(internet.seed, "dns")
    table = ReverseDNS()
    named = set(always_named or ())

    pop_city: Dict[int, City] = {}
    for node in internet.ases.values():
        for pop in node.pops:
            pop_city[pop.pop_id] = pop.city

    no_dns_ases = {
        node.asn
        for node in internet.ases.values()
        if rng.random() < config.as_without_dns_rate and node.asn not in named
    }
    org_name_ases = {
        node.asn
        for node in internet.ases.values()
        if rng.random() < config.org_name_rate
    }

    def domain_of(asn: int) -> str:
        node = internet.ases[asn]
        if asn in org_name_ases:
            org = internet.orgs.get(node.org_id)
            label = (org.name if org else node.org_id).lower()
            label = re.sub(r"[^a-z0-9]+", "", label) or "net%d" % asn
            return "%s.example.net" % label
        return "as%d.example.net" % asn

    all_cities = list(CITY_BY_IATA.values())
    for router_id in sorted(internet.routers):
        router = internet.routers[router_id]
        if router.asn in no_dns_ases:
            continue
        city = pop_city.get(router.pop_id)
        role = rng.choice(_ROLE_NAMES[router.is_border])
        router_label = "%s%d" % (role, router_id % 10 + 1)
        coverage = 0.95 if router.asn in named else config.coverage
        for iface in router.interfaces:
            if iface.addr is None or rng.random() > coverage:
                continue
            iface_label = rng.choice(_IFACE_NAMES) % (
                rng.randint(0, 3), rng.randint(0, 9)
            )
            named_city = city
            if rng.random() < config.stale_rate:
                # Stale PTR: points at a previous assignment elsewhere.
                named_city = rng.choice(all_cities)
            parts = [iface_label, router_label]
            if named_city is not None:
                parts.append(named_city.iata)
            parts.append(domain_of(router.asn))
            table.names[iface.addr] = ".".join(parts)
    return table
