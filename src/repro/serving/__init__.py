"""Async multi-tenant serving: one detector, many concurrent searches.

The event-loop front end over the library's resumable search steppers:
:class:`QueryServer` runs many :class:`~repro.query.session.QuerySession`
s concurrently, :class:`DetectorBatcher` coalesces their pending frame
requests into fused detector batches (the cross-session batching the
ROADMAP's async-serving item calls for), and detector executors decide
where a fused call runs (inline on the loop, or on a thread pool; see
:mod:`repro.serving.executors`). Sessions are admitted and batched in
submission order. Entry points: ``engine.serve()`` for async code,
``engine.run_many`` for the blocking wrapper, ``repro serve`` for
workload replay from the command line.
"""

from repro.serving.batcher import BatcherStats, DetectorBatcher
from repro.serving.executors import (
    DetectorExecutor,
    InlineDetectorExecutor,
    ThreadDetectorExecutor,
    make_executor,
)
from repro.serving.faults import (
    FaultPlan,
    FaultSpec,
    load_faults,
)
from repro.serving.fleet import (
    FleetConfig,
    FleetHandle,
    FleetRouter,
    FleetStats,
    replay_fleet,
    run_fleet,
)
from repro.serving.net import (
    FleetClient,
    NetServer,
    RemoteSession,
    RetryPolicy,
    serve_forever,
)
from repro.serving.placement import (
    PLACEMENT_POLICIES,
    PlacementPolicy,
    make_placement_policy,
)
from repro.serving.server import (
    LatencyStats,
    QueryServer,
    ServerConfig,
    ServerStats,
    SessionHandle,
    TenantStats,
    serve_sessions,
)
from repro.serving.workload import (
    WorkloadItem,
    item_from_json,
    load_executor,
    load_workload,
    replay,
    save_workload,
)

__all__ = [
    "BatcherStats",
    "DetectorBatcher",
    "DetectorExecutor",
    "FaultPlan",
    "FaultSpec",
    "FleetClient",
    "FleetConfig",
    "FleetHandle",
    "FleetRouter",
    "FleetStats",
    "InlineDetectorExecutor",
    "LatencyStats",
    "NetServer",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "QueryServer",
    "RemoteSession",
    "RetryPolicy",
    "ServerConfig",
    "ServerStats",
    "SessionHandle",
    "TenantStats",
    "ThreadDetectorExecutor",
    "WorkloadItem",
    "item_from_json",
    "load_executor",
    "load_faults",
    "load_workload",
    "make_executor",
    "make_placement_policy",
    "replay",
    "replay_fleet",
    "run_fleet",
    "save_workload",
    "serve_forever",
    "serve_sessions",
]
