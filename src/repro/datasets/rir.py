"""RIR delegation files (§5.2).

The five RIRs publish "extended delegation" files listing address ranges
delegated to organizations, with an opaque per-organization ID.  bdrmap uses
them in §5.4.1 to attribute address space the VP network holds but does not
announce in BGP.  We emit the standard pipe-separated format::

    registry|cc|ipv4|1.2.0.0|65536|20160101|allocated|opaque-id

and parse it back into a longest-prefix-matchable index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..addr import Prefix, aton, ntoa
from ..errors import DataError
from ..topology.model import Internet
from ..trie import FrozenLPM

_REGISTRIES = ["arin", "ripencc", "apnic", "lacnic", "afrinic"]


@dataclass(frozen=True)
class DelegationRecord:
    registry: str
    prefix: Prefix
    opaque_id: str


class RIRDelegations:
    """Parsed delegation records with longest-prefix-match lookup."""

    def __init__(self, records: Iterable[DelegationRecord]) -> None:
        self.records: List[DelegationRecord] = list(records)
        self._lpm: FrozenLPM[str] = FrozenLPM(
            (record.prefix, record.opaque_id) for record in self.records
        )

    def opaque_id_of(self, addr: int) -> Optional[str]:
        """Opaque org ID of the most specific delegation covering addr."""
        return self._lpm.lookup_value(addr)

    def same_org(self, addr_a: int, addr_b: int) -> bool:
        id_a = self.opaque_id_of(addr_a)
        return id_a is not None and id_a == self.opaque_id_of(addr_b)

    def __len__(self) -> int:
        return len(self.records)


def _opaque(org_id: str) -> str:
    """A stable opaque ID, the way RIRs hash organization handles."""
    return hashlib.sha1(org_id.encode("utf-8")).hexdigest()[:12]


def generate_rir_files(internet: Internet) -> str:
    """Serialize the generator's delegation ledger as RIR file text."""
    lines = ["2|combined|%d" % len(internet.rir_delegations)]
    for index, (org_id, prefix) in enumerate(sorted(
        internet.rir_delegations, key=lambda item: item[1]
    )):
        registry = _REGISTRIES[index % len(_REGISTRIES)]
        lines.append(
            "%s|ZZ|ipv4|%s|%d|20160101|allocated|%s"
            % (registry, ntoa(prefix.addr), prefix.size, _opaque(org_id))
        )
    return "\n".join(lines) + "\n"


def parse_rir_file(text: str) -> RIRDelegations:
    """Parse delegation file text into an :class:`RIRDelegations` index."""
    records: List[DelegationRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 3 or fields[2] != "ipv4":
            continue  # header / summary / non-IPv4 rows
        if len(fields) < 8:
            raise DataError("short delegation record at line %d" % line_no)
        registry, _cc, _family, start_text, count_text = fields[:5]
        opaque_id = fields[7]
        if not count_text.isdigit():
            raise DataError("bad count at line %d" % line_no)
        start = aton(start_text)
        count = int(count_text)
        if count <= 0 or count & (count - 1):
            raise DataError("delegation size not a power of two at line %d" % line_no)
        plen = 32 - (count.bit_length() - 1)
        records.append(DelegationRecord(registry, Prefix(start, plen), opaque_id))
    return RIRDelegations(records)


def opaque_id_for_org(org_id: str) -> str:
    """Expose the opaque-ID derivation (analysis layers need it to find the
    VP organization's delegations)."""
    return _opaque(org_id)
