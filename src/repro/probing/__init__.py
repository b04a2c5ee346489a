"""Measurement tools (the scamper equivalents of §5.3): Paris traceroute,
ping, doubletree stop sets, and the alias-resolution probers Ally,
Mercator, prefixscan, and the MIDAR-style monotonic IPID test."""

from .traceroute import TraceResult, paris_traceroute
from .ping import ping
from .stopset import StopSet
from .ally import AliasVerdict, AllyResult, ally_test, ally_repeated
from .mercator import mercator_probe
from .midar import monotonic_shared_counter, midar_test
from .prefixscan import prefixscan
from .scheduler import RoundRobinScheduler
from .ttl_limited import TTLLimitedProber

__all__ = [
    "TraceResult",
    "paris_traceroute",
    "ping",
    "StopSet",
    "AliasVerdict",
    "AllyResult",
    "ally_test",
    "ally_repeated",
    "mercator_probe",
    "monotonic_shared_counter",
    "midar_test",
    "prefixscan",
    "RoundRobinScheduler",
    "TTLLimitedProber",
]
