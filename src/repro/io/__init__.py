"""Persistence: JSON serialization of traces and bdrmap results.

The real bdrmap stores scamper ``warts`` and emits text reports; offline we
serialize to JSON so runs can be archived, diffed, and re-analyzed without
re-probing (``repro.analysis`` functions accept loaded results wherever
they accept fresh ones)."""

from .serialize import (
    checkpoint_entry,
    load_checkpoint,
    load_report,
    load_result,
    orchestrated_run_to_dict,
    report_from_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    resume_checkpoint,
    save_report,
    save_result,
    trace_from_dict,
    trace_to_dict,
    write_checkpoint,
)
from .binfmt import BinaryContainer, open_container, sniff, write_container
from .text import format_result, format_trace
from .bundle import load_bundle, save_bundle
from .serialize import collection_from_dict, collection_to_dict
from .serialize import (
    bordermap_from_dict,
    bordermap_to_dict,
    load_border_map,
    save_border_map,
)

__all__ = [
    "BinaryContainer",
    "open_container",
    "sniff",
    "write_container",
    "bordermap_to_dict",
    "bordermap_from_dict",
    "save_border_map",
    "load_border_map",
    "format_trace",
    "format_result",
    "save_bundle",
    "load_bundle",
    "collection_to_dict",
    "collection_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "result_to_dict",
    "result_from_dict",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "save_result",
    "load_result",
    "checkpoint_entry",
    "orchestrated_run_to_dict",
    "write_checkpoint",
    "resume_checkpoint",
    "load_checkpoint",
]
