"""IXP prefix lists (§5.2).

PeeringDB records IXP peering-LAN prefixes (entered by IXP operators, so
sometimes missing or stale); PCH records (address, ASN) pairs seen at its
route collectors.  The paper combines both because neither is complete.  We
synthesize both files from ground truth *with injected imperfections* and
parse/combine them the way bdrmap does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from ..addr import Prefix, aton, ntoa
from ..errors import DataError
from ..rng import make_rng
from ..topology.model import Internet
from ..trie import FrozenLPM


@dataclass(frozen=True)
class IXPDataset:
    """Combined IXP knowledge: peering-LAN prefixes and per-address ASNs.

    Sealed on construction: ``prefixes`` becomes a tuple and is frozen
    into the LPM that :meth:`is_ixp_addr` reads, so the two cannot drift.
    """

    prefixes: Sequence[Prefix] = ()
    addr_to_asn: Dict[int, int] = field(default_factory=dict)
    _lpm: FrozenLPM[bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        prefixes = tuple(self.prefixes)
        object.__setattr__(self, "prefixes", prefixes)
        object.__setattr__(
            self, "_lpm", FrozenLPM((prefix, True) for prefix in prefixes)
        )

    def is_ixp_addr(self, addr: int) -> bool:
        return self._lpm.lookup_value(addr) is not None

    def member_asn(self, addr: int) -> Optional[int]:
        """The AS an operator recorded for this fabric address, if any."""
        return self.addr_to_asn.get(addr)


def generate_ixp_data(internet: Internet, complete: bool = False) -> Tuple[str, str]:
    """Synthesize (peeringdb_text, pch_text).

    Unless ``complete``, one IXP is missing from PeeringDB and a fraction of
    member address records are withheld, mirroring real-world staleness.
    """
    rng = make_rng(internet.seed, "ixp-dataset")
    ixps = [internet.ixps[i] for i in sorted(internet.ixps)]
    missing_from_pdb: Set[int] = set()
    if not complete and len(ixps) > 1:
        missing_from_pdb.add(ixps[rng.randrange(len(ixps))].ixp_id)

    pdb_lines = ["# peeringdb ixpfx dump", "# ixp|prefix"]
    pch_lines = ["# pch ixp directory", "# ixp|prefix|addr|asn"]
    for ixp in ixps:
        if ixp.ixp_id not in missing_from_pdb:
            pdb_lines.append("%s|%s" % (ixp.name, ixp.fabric))
        pch_lines.append("%s|%s||" % (ixp.name, ixp.fabric))
        for asn in sorted(ixp.members):
            if not complete and rng.random() < 0.25:
                continue  # member never recorded their assignment
            addr = ixp.members[asn]
            pch_lines.append("%s|%s|%s|%d" % (ixp.name, ixp.fabric, ntoa(addr), asn))
    return "\n".join(pdb_lines) + "\n", "\n".join(pch_lines) + "\n"


def parse_ixp_files(peeringdb_text: str, pch_text: str) -> IXPDataset:
    """Combine PeeringDB and PCH data into one dataset (the paper's union)."""
    prefixes: Set[Prefix] = set()
    addr_to_asn: Dict[int, int] = {}
    for line in peeringdb_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 2:
            raise DataError("bad peeringdb row: %r" % line)
        prefixes.add(Prefix.parse(fields[1]))
    for line in pch_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 4:
            raise DataError("bad pch row: %r" % line)
        prefixes.add(Prefix.parse(fields[1]))
        if fields[2] and fields[3]:
            addr_to_asn[aton(fields[2])] = int(fields[3])
    return IXPDataset(prefixes=sorted(prefixes), addr_to_asn=addr_to_asn)
