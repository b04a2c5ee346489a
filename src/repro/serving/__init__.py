"""Border-map serving: compiled query artifact, engine, and service.

The write path (``repro.core``) produces per-VP results; this package is
the read path: :func:`compile_border_map` freezes results into an
immutable :class:`BorderMap`, :class:`CompiledBorderMap` lowers that
into flat mmap-able arrays, :class:`QueryEngine` serves counted batch
lookups over either backend (one :class:`BorderMapBackend` protocol),
and :class:`BorderMapService` answers batches against one engine
snapshot and swaps in a recompiled map with zero downtime.  The
sharded tier (:func:`make_local_server`, :func:`make_process_server`)
runs one service per shard replica and does the batching, admission
control and keep-last-good two-phase swaps.
"""

from .backend import BorderMapBackend, close_backend
from .bordermap import (
    BORDERMAP_FORMAT,
    BorderLink,
    BorderMap,
    CompiledRouter,
    NeighborInfo,
    Ownership,
    best_relationship,
    compile_border_map,
    next_generation,
)
from .compiled import (
    BIN_FORMAT,
    CompiledBorderMap,
    compile_map,
    load_compiled_map,
    load_served_map,
    save_compiled_map,
)
from .engine import EngineStats, OpStats, QueryEngine
from .frontend import AsyncBorderFrontEnd, make_async_frontend
from .naive import naive_border_for, naive_owner_of
from .server import (
    ShardedBorderServer,
    VirtualClock,
    is_shed,
    make_local_server,
    make_process_server,
    mark_stale,
    shard_index,
)
from .service import Answer, BorderMapService, make_workload
from .shard import (
    InProcessTransport,
    ShardChannel,
    ShardWorker,
    SpawnProcessTransport,
)
from .supervisor import (
    CircuitBreaker,
    RestartPolicy,
    ShardSupervisor,
)

__all__ = [
    "BIN_FORMAT",
    "BORDERMAP_FORMAT",
    "BorderLink",
    "BorderMap",
    "BorderMapBackend",
    "CompiledBorderMap",
    "CompiledRouter",
    "NeighborInfo",
    "Ownership",
    "best_relationship",
    "compile_border_map",
    "compile_map",
    "load_compiled_map",
    "load_served_map",
    "save_compiled_map",
    "make_workload",
    "EngineStats",
    "OpStats",
    "QueryEngine",
    "naive_border_for",
    "naive_owner_of",
    "Answer",
    "BorderMapService",
    "close_backend",
    "next_generation",
    "ShardedBorderServer",
    "VirtualClock",
    "is_shed",
    "make_local_server",
    "make_process_server",
    "mark_stale",
    "shard_index",
    "AsyncBorderFrontEnd",
    "make_async_frontend",
    "InProcessTransport",
    "ShardChannel",
    "ShardWorker",
    "SpawnProcessTransport",
    "CircuitBreaker",
    "RestartPolicy",
    "ShardSupervisor",
]
