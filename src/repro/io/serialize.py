"""JSON serialization for traces and bdrmap results.

Addresses are serialized dotted-quad for human-readable archives; all
structures round-trip losslessly (``result_from_dict(result_to_dict(r))``
reproduces every router, link, and trace path).

Every archive is parsed by :func:`read_json`, and every ``*_from_dict``
maps fields behind one guard (:func:`_decoding`), so a malformed archive
of any kind fails once, with :class:`~repro.errors.DataError`.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, List, NamedTuple, Optional, Union

from ..addr import aton, ntoa
from ..core.report import BdrmapResult, InferredLink
from ..core.routergraph import InferredRouter, RouterGraph, TracePath
from ..errors import DataError
from ..net import ResponseKind
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import ProvenanceRecord
from ..probing.traceroute import TraceHop, TraceResult

_FORMAT = "bdrmap-repro/1"

# What a field mapping raises on JSON of the wrong shape: a missing key,
# a wrong type, a bad value or index, a method the value's type lacks.
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def stage_text(target: str, payload: str) -> str:
    """Write ``payload`` to a fsynced temp file beside ``target`` and
    return its path, for the caller to :func:`os.replace` over
    ``target``.  A failure removes the temp file.  Same-directory
    matters: ``os.replace`` is only atomic within one filesystem.
    """
    directory = os.path.dirname(os.path.abspath(target))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        unlink_quietly(tmp_path)
        raise
    return tmp_path


def unlink_quietly(path: str) -> None:
    """Remove ``path``, ignoring any error: temp-file cleanup on a path
    that is already failing."""
    try:
        os.unlink(path)
    except OSError:
        pass


def atomic_write_text(target: str, payload: str) -> None:
    """Write ``payload`` to ``target`` atomically.

    The bytes land in a temp file (:func:`stage_text`) which is then
    :func:`os.replace`-d over the target, so a crash at any point
    leaves either the old artifact or the new one — never a truncated
    hybrid.
    """
    tmp_path = stage_text(target, payload)
    try:
        os.replace(tmp_path, target)
    except BaseException:
        unlink_quietly(tmp_path)
        raise


def read_json(source: Union[str, IO]) -> Any:
    """Parse one JSON document from a path or open file object.

    Bytes that are not JSON text raise :class:`DataError`; a path that
    cannot be opened raises :class:`OSError` as usual.
    """
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "rb") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise DataError("not valid JSON (%s)" % exc) from exc


@contextmanager
def _decoding(data: Any, format_tag: str, what: str) -> Iterator[None]:
    """The guard every ``*_from_dict`` maps its fields behind: ``data``
    must be a JSON object tagged ``format_tag``, and any shape error the
    mapping inside the ``with`` raises becomes one :class:`DataError`."""
    if not isinstance(data, dict):
        raise DataError(
            "%s is not a JSON object (got %s)" % (what, type(data).__name__)
        )
    if data.get("format") != format_tag:
        raise DataError("unknown %s format %r" % (what, data.get("format")))
    try:
        yield
    except DataError:
        raise
    except _SHAPE_ERRORS as exc:
        raise DataError("malformed %s: %s" % (what, exc)) from exc


def write_payload(payload: str, target: Union[str, IO[str]]) -> None:
    """Deliver serialized text to an open file object (caller owns
    durability) or atomically to a path (:func:`atomic_write_text`):
    the one writer every text export goes through."""
    if hasattr(target, "write"):
        target.write(payload)
        return
    atomic_write_text(target, payload)


def _addr(value: Optional[int]) -> Optional[str]:
    return ntoa(value) if value is not None else None


def _unaddr(value: Optional[str]) -> Optional[int]:
    return aton(value) if value else None


# -- traces ---------------------------------------------------------------------


def trace_to_dict(trace: TraceResult) -> Dict[str, Any]:
    data = {
        "vp": ntoa(trace.vp_addr),
        "dst": ntoa(trace.dst),
        "stop_reason": trace.stop_reason,
        "probes": trace.probes_used,
        "hops": [
            {
                "ttl": hop.ttl,
                "addr": _addr(hop.addr),
                "kind": hop.kind.value if hop.kind else None,
                "rtt": round(hop.rtt, 3),
                "ipid": hop.ipid,
            }
            for hop in trace.hops
        ],
    }
    # Retry accounting appears only when retries ran, so archives from
    # retry-free runs keep their historical byte layout.
    if trace.retries_used:
        data["retries"] = trace.retries_used
    if trace.recovered_hops:
        data["recovered"] = trace.recovered_hops
    if trace.silent_hops:
        data["silent"] = trace.silent_hops
    return data


def trace_from_dict(data: Dict[str, Any]) -> TraceResult:
    try:
        hops = [
            TraceHop(
                ttl=hop["ttl"],
                addr=_unaddr(hop["addr"]),
                kind=ResponseKind(hop["kind"]) if hop["kind"] else None,
                rtt=hop["rtt"],
                ipid=hop["ipid"],
            )
            for hop in data["hops"]
        ]
        return TraceResult(
            vp_addr=aton(data["vp"]),
            dst=aton(data["dst"]),
            hops=hops,
            stop_reason=data["stop_reason"],
            probes_used=data.get("probes", 0),
            retries_used=data.get("retries", 0),
            recovered_hops=data.get("recovered", 0),
            silent_hops=data.get("silent", 0),
        )
    except _SHAPE_ERRORS as exc:
        raise DataError("malformed trace record: %s" % exc) from exc


# -- collections (trace archives) -------------------------------------------------


def evidence_to_list(store) -> list:
    """Encode an alias evidence store as JSON-able rows of
    ``[addr_a, addr_b, for_methods, against_methods]``.  Shared by trace
    archives and the parallel engine's cross-process evidence merge."""
    entries = []
    for a, b in store.positive_pairs():
        record = store.get(a, b)
        entries.append([ntoa(a), ntoa(b), sorted(record.for_methods), []])
    for a, b in store.negative_pairs():
        record = store.get(a, b)
        entries.append(
            [
                ntoa(a),
                ntoa(b),
                sorted(record.for_methods),
                sorted(record.against_methods),
            ]
        )
    return entries


def evidence_into_store(entries, store) -> None:
    """Replay :func:`evidence_to_list` rows into an evidence store.
    Replays merge: rows from several VPs accumulate methods per pair."""
    for a_text, b_text, for_methods, against_methods in entries:
        a, b = aton(a_text), aton(b_text)
        for method in for_methods:
            store.record_for(a, b, method)
        for method in against_methods:
            store.record_against(a, b, method)


def collection_to_dict(collection) -> Dict[str, Any]:
    """Archive a collection: traces, target keys, prefixscan outcomes, and
    alias evidence — everything inference needs, nothing that probes.

    This is the workflow the real system uses at scale: probing happens on
    VPs, archives land centrally, and inference (re)runs offline.
    """
    evidence = []
    if collection.resolver is not None:
        evidence = evidence_to_list(collection.resolver.evidence)
    return {
        "format": "bdrmap-repro-traces/1",
        "traces": [trace_to_dict(trace) for trace in collection.traces],
        "keys": [list(key) for key in collection.trace_keys],
        "prefixscans": [
            {
                "prev": ntoa(prev),
                "addr": ntoa(nxt),
                "plen": result.subnet_plen,
                "mate": _addr(result.mate),
            }
            for (prev, nxt), result in sorted(collection.prefixscans.items())
        ],
        "evidence": evidence,
        "probes_used": collection.probes_used,
    }


def collection_from_dict(data: Dict[str, Any]):
    """Rebuild a collection from an archive (resolver holds the evidence
    but cannot probe — exactly an offline re-analysis)."""
    from ..alias import AliasResolver
    from ..core.collection import Collection
    from ..probing.prefixscan import PrefixscanResult

    with _decoding(data, "bdrmap-repro-traces/1", "trace archive"):
        collection = Collection()
        collection.resolver = AliasResolver(network=None, vp_addr=0)
        for trace_data, key in zip(data["traces"], data["keys"]):
            trace = trace_from_dict(trace_data)
            collection.traces.append(trace)
            collection.trace_keys.append(tuple(key))
            collection.per_target.setdefault(tuple(key), []).append(trace)
        for entry in data["prefixscans"]:
            prev, nxt = aton(entry["prev"]), aton(entry["addr"])
            collection.prefixscans[(prev, nxt)] = PrefixscanResult(
                prev=prev,
                addr=nxt,
                subnet_plen=entry["plen"],
                mate=_unaddr(entry["mate"]),
            )
        evidence_into_store(data["evidence"], collection.resolver.evidence)
        collection.traces_run = len(collection.traces)
        collection.probes_used = data.get("probes_used", 0)
        return collection


# -- results --------------------------------------------------------------------


def result_to_dict(result: BdrmapResult) -> Dict[str, Any]:
    graph = result.graph
    payload = {
        "format": _FORMAT,
        "vp_name": result.vp_name,
        "vp_addr": ntoa(result.vp_addr),
        "focal_asn": result.focal_asn,
        "vp_ases": sorted(result.vp_ases),
        "probes_used": result.probes_used,
        "traces_run": result.traces_run,
        "runtime_virtual_seconds": result.runtime_virtual_seconds,
        "routers": [
            {
                "rid": router.rid,
                "addrs": [ntoa(a) for a in sorted(router.addrs)],
                "extra_addrs": [ntoa(a) for a in sorted(router.extra_addrs)],
                "min_dist": router.min_dist,
                "dsts": sorted(router.dsts),
                "last_hop_for": sorted(router.last_hop_for),
                "owner": router.owner,
                "reason": router.reason,
                "merged_from": list(router.merged_from),
            }
            for rid, router in sorted(graph.routers.items())
        ],
        "edges": [
            [rid, sorted(successors)]
            for rid, successors in sorted(graph.succ.items())
            if successors
        ],
        "paths": [
            {
                "key": list(path.key),
                "dst": ntoa(path.dst),
                "routers": list(path.routers),
                "gaps": list(path.had_gap_before),
                "final_kind": path.final_kind.value if path.final_kind else None,
                "final_src": _addr(path.final_src),
                "reached": path.reached,
            }
            for path in graph.paths
        ],
        "links": [
            {
                "near": link.near_rid,
                "far": link.far_rid,
                "neighbor_as": link.neighbor_as,
                "reason": link.reason,
                "via_ixp": link.via_ixp,
            }
            for link in result.links
        ],
    }
    # Decision provenance is optional so archives written before it
    # existed (and results run without tracing) stay byte-identical.
    if result.provenance:
        payload["provenance"] = [
            record.as_dict() for record in result.provenance
        ]
    return payload


def result_from_dict(data: Dict[str, Any]) -> BdrmapResult:
    with _decoding(data, _FORMAT, "result"):
        graph = RouterGraph()
        for entry in data["routers"]:
            router = InferredRouter(
                rid=entry["rid"],
                addrs={aton(a) for a in entry["addrs"]},
                extra_addrs={aton(a) for a in entry["extra_addrs"]},
                min_dist=entry["min_dist"],
                dsts=set(entry["dsts"]),
                last_hop_for=set(entry["last_hop_for"]),
                owner=entry["owner"],
                reason=entry["reason"],
                merged_from=list(entry["merged_from"]),
            )
            graph.routers[router.rid] = router
            for addr in router.all_addrs():
                graph.by_addr[addr] = router.rid
            graph._next_rid = max(graph._next_rid, router.rid + 1)
        for rid, successors in data["edges"]:
            for successor in successors:
                graph.add_edge(rid, successor)
        for entry in data["paths"]:
            graph.add_path(
                TracePath(
                    key=tuple(entry["key"]),
                    dst=aton(entry["dst"]),
                    routers=list(entry["routers"]),
                    had_gap_before=list(entry["gaps"]),
                    final_kind=(
                        ResponseKind(entry["final_kind"])
                        if entry["final_kind"]
                        else None
                    ),
                    final_src=_unaddr(entry["final_src"]),
                    reached=entry["reached"],
                )
            )
        links = [
            InferredLink(
                near_rid=entry["near"],
                far_rid=entry["far"],
                neighbor_as=entry["neighbor_as"],
                reason=entry["reason"],
                via_ixp=entry["via_ixp"],
            )
            for entry in data["links"]
        ]
        return BdrmapResult(
            vp_name=data["vp_name"],
            vp_addr=aton(data["vp_addr"]),
            focal_asn=data["focal_asn"],
            vp_ases=set(data["vp_ases"]),
            graph=graph,
            links=links,
            probes_used=data["probes_used"],
            traces_run=data["traces_run"],
            runtime_virtual_seconds=data["runtime_virtual_seconds"],
            provenance=[
                ProvenanceRecord.from_dict(entry)
                for entry in data.get("provenance", [])
            ],
        )


# -- run reports ------------------------------------------------------------------


def _timing_to_dict(t) -> Dict[str, Any]:
    return {
        "name": t.name,
        "virtual_seconds": round(t.virtual_seconds, 6),
        "probes": t.probes,
    }


def _timing_from_dict(entry):
    from ..core.pipeline import StageTiming

    return StageTiming(
        name=entry["name"],
        virtual_seconds=entry["virtual_seconds"],
        probes=entry["probes"],
    )


def _vp_report_to_dict(vp) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "vp_name": vp.vp_name,
        "vp_addr": ntoa(vp.vp_addr),
        "traces_run": vp.traces_run,
        "probes_used": vp.probes_used,
        "links": vp.links,
        "neighbor_ases": vp.neighbor_ases,
        "stage_timings": [_timing_to_dict(t) for t in vp.stage_timings],
        "pass_counts": dict(sorted(vp.pass_counts.items())),
        "reason_counts": dict(sorted(vp.reason_counts.items())),
    }
    # Resilience fields appear only when set, so archives of clean runs
    # stay byte-identical to pre-fault-subsystem ones.
    if vp.retries:
        entry["retries"] = vp.retries
    if vp.degradation_counts:
        entry["degradations"] = dict(sorted(vp.degradation_counts.items()))
    if vp.failed:
        entry["failed"] = True
        entry["error"] = vp.error
    return entry


def _vp_report_from_dict(entry):
    from ..core.orchestrator import VPReport

    return VPReport(
        vp_name=entry["vp_name"],
        vp_addr=aton(entry["vp_addr"]),
        traces_run=entry["traces_run"],
        probes_used=entry["probes_used"],
        links=entry["links"],
        neighbor_ases=entry["neighbor_ases"],
        stage_timings=[_timing_from_dict(t) for t in entry["stage_timings"]],
        pass_counts=dict(entry["pass_counts"]),
        reason_counts=dict(entry["reason_counts"]),
        retries=entry.get("retries", 0),
        degradation_counts=dict(entry.get("degradations", {})),
        failed=entry.get("failed", False),
        error=entry.get("error"),
    )


def report_to_dict(report) -> Dict[str, Any]:
    """Serialize a :class:`~repro.core.orchestrator.RunReport` — the
    counters and timings only, not the per-VP results (archive those
    separately with :func:`result_to_dict`)."""
    from ..core.orchestrator import REPORT_FORMAT

    data = {
        "format": REPORT_FORMAT,
        "focal_asn": report.focal_asn,
        "vp_ases": sorted(report.vp_ases),
        "interleaved": report.interleaved,
        "shared_aliases": report.shared_aliases,
        "global_timings": [
            _timing_to_dict(t) for t in report.global_timings
        ],
        "vps": [_vp_report_to_dict(vp) for vp in report.vp_reports],
    }
    if report.fault_counts:
        data["fault_counts"] = dict(sorted(report.fault_counts.items()))
    if report.task_failures:
        data["task_failures"] = report.task_failures
    return data


def report_from_dict(data: Dict[str, Any]):
    from ..core.orchestrator import REPORT_FORMAT, RunReport

    with _decoding(data, REPORT_FORMAT, "report"):
        return RunReport(
            focal_asn=data["focal_asn"],
            vp_ases=set(data["vp_ases"]),
            interleaved=data["interleaved"],
            shared_aliases=data["shared_aliases"],
            global_timings=[
                _timing_from_dict(t) for t in data["global_timings"]
            ],
            vp_reports=[
                _vp_report_from_dict(entry) for entry in data["vps"]
            ],
            fault_counts=dict(data.get("fault_counts", {})),
            task_failures=data.get("task_failures", 0),
        )


# -- checkpoints ------------------------------------------------------------------
#
# A multi-VP run writes its completed VPs after each one, so an interrupted
# run resumes instead of restarting.  This section is the format's one
# owner: the orchestrators build, write and resume through it.

CHECKPOINT_FORMAT = "bdrmap-repro-checkpoint/1"


class SavedVP(NamedTuple):
    """One completed VP as a checkpoint holds it."""

    result: BdrmapResult
    report: Any  # repro.core.orchestrator.VPReport
    metrics: Optional[Dict[str, Any]]


def checkpoint_entry(result: BdrmapResult, vp_report,
                     metrics: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    """One completed VP in checkpoint form.

    ``metrics`` is the VP's metrics delta (the
    :meth:`~repro.obs.metrics.MetricsRegistry.delta_since` dict), stored
    so a resumed run replays the VP's counters into its fresh registry
    instead of losing (or re-earning) them.  The key is omitted when there
    is none, keeping metric-free checkpoints byte-identical to the
    historical layout.
    """
    entry = {
        "report": _vp_report_to_dict(vp_report),
        "result": result_to_dict(result),
    }
    if metrics is not None:
        entry["metrics"] = metrics
    return entry


def _partials(path: str) -> List[str]:
    """The ``<path>.worker<K>`` partials of a process-pool run.  A
    ``.tmp`` is an atomic write a crash stranded, not a partial."""
    return sorted(
        partial for partial in glob.glob(path + ".worker*")
        if not partial.endswith(".tmp")
    )


def write_checkpoint(path: str, entries: List[Dict[str, Any]],
                     worker: Optional[int] = None) -> None:
    """Atomically write :func:`checkpoint_entry` dicts to the checkpoint
    at ``path`` or, for worker ``K`` of a process pool, to its partial
    ``<path>.workerK``.

    The document is serialized before any file is touched, so a failed
    write leaves the previous checkpoint whole.  The canonical file
    supersedes every partial (a resumed run has merged them; a fresh run
    must not have stale ones merged over it later), so writing it deletes
    the partials and the temp files of any write a crash stranded.
    """
    target = path if worker is None else "%s.worker%d" % (path, worker)
    atomic_write_text(target, json.dumps(
        {"format": CHECKPOINT_FORMAT, "vps": entries}, indent=1
    ))
    if worker is None:
        for stale in _partials(path) + glob.glob(path + ".*.tmp"):
            os.remove(stale)


def _saved_vps(data: Any) -> Dict[str, SavedVP]:
    """The VPs of one checkpoint document by vp_name; a later entry for a
    VP supersedes an earlier one.  A stored metrics delta is checked by
    merging it into a scratch registry: one that cannot merge is
    malformed."""
    with _decoding(data, CHECKPOINT_FORMAT, "checkpoint"):
        saved = {}
        for entry in data["vps"]:
            metrics = entry.get("metrics")
            if metrics is not None:
                MetricsRegistry().merge_delta(metrics)
            vp_report = _vp_report_from_dict(entry["report"])
            saved[vp_report.vp_name] = SavedVP(
                result_from_dict(entry["result"]), vp_report, metrics
            )
        return saved


def load_checkpoint(source: Union[str, IO[str]]):
    """Read a checkpoint from a path or open file object as
    ``(results, vp_reports)``, in file order."""
    saved = _saved_vps(read_json(source)).values()
    return [vp.result for vp in saved], [vp.report for vp in saved]


def resume_checkpoint(path: str) -> Dict[str, SavedVP]:
    """Every VP a previous run completed, by vp_name: the checkpoint at
    ``path`` merged with the ``<path>.worker*`` partials a crashed pool
    run stranded.  A partial is newer than the canonical file, so its
    entry wins.  Failed VPs are left out, so a resumed run re-runs them.

    Merged partials are folded into the canonical file at once: the
    resumed run's own workers write partials of the same names.
    """
    partials = _partials(path)
    sources = [path] if os.path.exists(path) else []
    done: Dict[str, SavedVP] = {}
    for source in sources + partials:
        for name, vp in _saved_vps(read_json(source)).items():
            if not vp.report.failed:
                done[name] = vp
    if partials:
        write_checkpoint(path, [checkpoint_entry(*vp) for vp in done.values()])
    return done


def save_report(report, target: Union[str, IO[str]]) -> None:
    """Write a run report to a path or open file object."""
    payload = json.dumps(report_to_dict(report), indent=1)
    write_payload(payload, target)


def load_report(source: Union[str, IO[str]]):
    """Read a run report from a path or open file object."""
    return report_from_dict(read_json(source))


RUN_FORMAT = "bdrmap-repro-run/1"


def orchestrated_run_to_dict(run) -> Dict[str, Any]:
    """The canonical serialized form of an
    :class:`~repro.core.orchestrator.OrchestratedRun`: the run report
    plus every per-VP result.

    This is the byte-identity yardstick for the parallel engine — a
    parallel run and its sequential twin must produce equal dicts (and
    therefore equal ``json.dumps`` bytes) for the same seed.
    """
    return {
        "format": RUN_FORMAT,
        "report": report_to_dict(run.report),
        "results": [result_to_dict(result) for result in run.results],
    }


# -- border maps ------------------------------------------------------------------


def bordermap_to_dict(bmap) -> Dict[str, Any]:
    """Serialize a :class:`~repro.serving.bordermap.BorderMap`.

    ASes are interned: the ``ases`` table lists every AS once, and
    routers, links, and prefixes reference it by index.  Only the tables
    are stored; the derived indexes (interface map, LPM trie, adjacency)
    are rebuilt on load, so the round trip is lossless by construction.
    """
    from ..serving.bordermap import BORDERMAP_FORMAT

    ases = list(bmap.as_table)
    index = {asn: i for i, asn in enumerate(ases)}
    return {
        "format": BORDERMAP_FORMAT,
        "epoch": bmap.epoch,
        "source": bmap.source,
        "focal_asn": bmap.focal_asn,
        "vp_ases": sorted(bmap.vp_ases),
        "ases": ases,
        "routers": [
            {
                "vp": router.vp_name,
                "rid": router.rid,
                "addrs": [ntoa(a) for a in router.addrs],
                "owner": (
                    index[router.owner] if router.owner is not None else None
                ),
                "reason": router.reason,
                "dsts": [index[asn] for asn in router.dsts],
            }
            for router in bmap.routers
        ],
        "links": [
            {
                "vp": link.vp_name,
                "near": link.near_router,
                "far": link.far_router,
                "neighbor": index[link.neighbor_as],
                "rel": link.relationship,
                "reason": link.reason,
                "via_ixp": link.via_ixp,
            }
            for link in bmap.links
        ],
        "prefixes": [
            [str(prefix), index[origin]] for prefix, origin in bmap.prefixes
        ],
    }


def bordermap_from_dict(data: Dict[str, Any]):
    """Rebuild a BorderMap from its artifact dict.

    Tolerates unknown fields (forward compatibility: a newer writer may
    annotate records) but rejects unknown *format* versions outright.
    """
    from ..addr import Prefix
    from ..serving.bordermap import (
        BORDERMAP_FORMAT,
        BorderLink,
        BorderMap,
        CompiledRouter,
    )

    with _decoding(data, BORDERMAP_FORMAT, "border map"):
        ases = list(data["ases"])
        routers = [
            CompiledRouter(
                index=position,
                vp_name=entry["vp"],
                rid=entry["rid"],
                addrs=tuple(aton(a) for a in entry["addrs"]),
                owner=(
                    ases[entry["owner"]]
                    if entry["owner"] is not None
                    else None
                ),
                reason=entry["reason"],
                dsts=tuple(ases[i] for i in entry["dsts"]),
            )
            for position, entry in enumerate(data["routers"])
        ]
        links = [
            BorderLink(
                index=position,
                vp_name=entry["vp"],
                near_router=entry["near"],
                far_router=entry["far"],
                neighbor_as=ases[entry["neighbor"]],
                relationship=entry["rel"],
                reason=entry["reason"],
                via_ixp=entry["via_ixp"],
            )
            for position, entry in enumerate(data["links"])
        ]
        prefixes = [
            (Prefix.parse(text), ases[origin])
            for text, origin in data["prefixes"]
        ]
        return BorderMap(
            focal_asn=data["focal_asn"],
            vp_ases=set(data["vp_ases"]),
            routers=routers,
            links=links,
            prefixes=prefixes,
            epoch=data.get("epoch", 0),
            source=data.get("source", ""),
        )


def save_border_map(bmap, target: Union[str, IO[str]],
                    format: str = "json") -> None:
    """Write a border map artifact to a path or open file object.

    ``format="json"`` writes the human-readable dict artifact;
    ``format="binary"`` writes the mmap-able flat artifact
    (:mod:`repro.io.binfmt` container, loaded zero-copy by
    :func:`repro.serving.compiled.load_compiled_map` or — by magic
    sniffing — :func:`load_border_map`).
    """
    if format == "binary":
        from ..serving.compiled import save_compiled_map

        save_compiled_map(bmap, target)
        return
    if format != "json":
        raise DataError(
            "unknown border map format %r (want 'json' or 'binary')"
            % format
        )
    payload = json.dumps(bordermap_to_dict(bmap), indent=1)
    write_payload(payload, target)


def load_border_map(source: Union[str, IO[str]]):
    """Read a border map artifact from a path or open file object.

    Paths are sniffed: a binary container (magic ``BDRM``) loads as a
    zero-copy :class:`~repro.serving.compiled.CompiledBorderMap`,
    anything else parses as the JSON dict artifact.  Both satisfy the
    :class:`~repro.serving.backend.BorderMapBackend` protocol, so
    callers serve either without caring which landed on disk.
    """
    if not hasattr(source, "read"):
        from .binfmt import sniff

        if sniff(source):
            from ..serving.compiled import load_compiled_map

            return load_compiled_map(source)
    return bordermap_from_dict(read_json(source))


def save_result(result: BdrmapResult, target: Union[str, IO[str]]) -> None:
    """Write a result to a path or open file object."""
    payload = json.dumps(result_to_dict(result), indent=1)
    write_payload(payload, target)


def load_result(source: Union[str, IO[str]]) -> BdrmapResult:
    """Read a result from a path or open file object."""
    return result_from_dict(read_json(source))
