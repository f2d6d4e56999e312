"""The sharded serving fleet: shard processes, a router, live migration.

One :class:`~repro.serving.server.QueryServer` scales until one CPU is
saturated stepping sessions and running the (simulated) detector. The
fleet layer scales past that point with processes, reusing the existing
building blocks end to end:

* each **shard** is a child process running a full
  :class:`~repro.serving.net.NetServer` over its own
  :class:`~repro.query.engine.QueryEngine`, built against the *same*
  dataset and engine seed as the parent's — a forked shard inherits the
  dataset, and a spawned one receives the world as its recipe (a few
  hundred bytes) and rebuilds it;
* all shards adopt one :class:`~repro.parallel.shm
  .SharedDetectionCache`, so a frame any shard detected is a hit for
  every shard after it and :meth:`FleetRouter.stats` can aggregate
  per-scope hit/miss counters fleet-wide;
* the :class:`FleetRouter` fans submissions out over the shards through
  a pluggable placement policy (:mod:`repro.serving.placement`), with
  fleet-level admission control mirroring the single server's: at most
  ``max_in_flight`` router-tracked sessions per shard, a bounded
  router-side queue in front, and backpressure (or typed
  :class:`~repro.errors.ServerOverloadedError`) beyond that.

Correctness is placement-independent for the same reason serving is
scheduling-independent: every shard serves the same repository with the
same engine seed, sessions are isolated, and detection is pure — so a
session's trace is byte-identical whichever shard runs it, and
:func:`replay_fleet` of a workload is element-wise identical to solo
``engine.run`` calls. That also makes **live migration** safe:
:meth:`FleetRouter.migrate` pauses a session on its shard, ships the
digest-verified checkpoint over the wire, and restores it on another
shard; the merged trace is byte-identical to an unmigrated run.

Typical use::

    async def main():
        router = await FleetRouter.launch(dataset, n_shards=2,
                                          placement="hash_tenant")
        try:
            handles = await replay_fleet(router, load_workload(path),
                                         time_scale=0.0)
            outcomes = [await h.result() for h in handles]
            print((await router.stats()).describe())
        finally:
            await router.shutdown()

CLI: ``repro fleet --dataset ... --workload ... --shards 2``.
"""

from __future__ import annotations

import asyncio
import base64
import pickle
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import List, Optional, Sequence, Union

from repro.detection.cache import CacheInfo, ScopeCacheInfo
from repro.errors import (
    ConfigError,
    FleetDegradedError,
    QueryError,
    ReproError,
    ServerOverloadedError,
    ShardLostError,
    WireTimeoutError,
)
from repro.parallel.procs import mp_context, start_child, stop_process
from repro.parallel.shm import SharedDetectionCache
from repro.serving.faults import FaultPlan
from repro.serving.net import (
    FleetClient,
    RetryPolicy,
    _raise_typed,
    serve_forever,
)
from repro.serving.placement import PlacementPolicy, make_placement_policy
from repro.serving.server import ServerConfig
from repro.serving.workload import WorkloadItem, _submit_paced

#: Exceptions that mean "the wire or the shard broke", as opposed to a
#: typed answer from a healthy server. These route into recovery.
_TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError, WireTimeoutError)

__all__ = [
    "FleetConfig",
    "FleetHandle",
    "FleetRouter",
    "FleetStats",
    "outcome_of",
    "replay_fleet",
    "run_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a :class:`FleetRouter`.

    ``server`` configures every shard's :class:`~repro.serving.server
    .QueryServer`; its ``max_in_flight`` is also the router's per-shard
    admission limit, so shards never queue internally — the fleet's one
    waiting line is the router's, bounded at ``queue_capacity`` waiting
    submissions per shard. ``placement`` names a policy from
    :mod:`repro.serving.placement` (or is an instance). Shards start
    with the ``REPRO_MP_CONTEXT`` start method (see
    :mod:`repro.parallel.procs`). ``shared_cache`` wires every shard
    into one cross-process detection memo.
    """

    n_shards: int = 2
    placement: Union[str, PlacementPolicy, None] = None
    server: ServerConfig = field(default_factory=ServerConfig)
    queue_capacity: int = 64
    shared_cache: bool = True
    host: str = "127.0.0.1"
    launch_timeout: float = 60.0
    #: Directory of a :class:`~repro.index.RepositoryIndex` shared by
    #: every shard engine. Shards record completed sessions as their own
    #: append-only segments (the format is concurrent-writer safe), so
    #: knowledge earned on any shard warm-starts and replays on all of
    #: them. None disables cross-query reuse.
    index: Optional[str] = None
    #: Supervise shards: monitor liveness + heartbeats, restart crashed
    #: or hung shards and recover their sessions. Off, failures surface
    #: as raw transport errors on the affected handles.
    supervise: bool = True
    #: Auto-checkpoint supervised sessions every N fulfilled steps (the
    #: router pauses at a batch boundary, pulls the envelope over the
    #: wire, and resumes). A crash then costs at most N redone steps.
    #: None disables the cycle: sessions recover from scratch. Items
    #: with an explicit ``pause_after`` are exempt (a user staging pause
    #: must land, not be consumed by the checkpoint cycle).
    checkpoint_every: Optional[int] = None
    #: Seconds between per-shard heartbeat probes.
    heartbeat_interval: float = 0.5
    #: Per-ping reply deadline; a slower shard counts a missed beat.
    heartbeat_timeout: float = 1.0
    #: Consecutive missed beats that declare a live process hung (it is
    #: then killed and handled exactly like a crash).
    missed_heartbeats: int = 3
    #: Restarts allowed per shard before its circuit breaker trips and
    #: the shard is marked down for the rest of the fleet's life.
    max_restarts: int = 2
    #: Default per-request timeout on router->shard clients.
    op_timeout: float = 30.0
    #: Chaos testing: a :class:`~repro.serving.faults.FaultPlan` armed
    #: on the shard processes (see ``tests/test_fleet_faults.py``).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.queue_capacity < 0:
            raise ConfigError("queue_capacity must be >= 0")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1 (or None)")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ConfigError("heartbeat intervals must be > 0")
        if self.missed_heartbeats < 1:
            raise ConfigError("missed_heartbeats must be >= 1")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigError("faults must be a FaultPlan (or None)")
        if not isinstance(self.server.executor, (str, type(None))):
            # _ShardSpec pickles the ServerConfig into each shard child;
            # an executor *instance* owns pools/threads that cannot (and
            # must not) cross a process boundary.
            raise ConfigError(
                "fleet server configs must name their detector executor "
                "by spec string ('inline', 'thread' or 'thread:N'); "
                "DetectorExecutor instances cannot be shipped to shard "
                "processes"
            )


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a shard child process needs to come up (must pickle)."""

    index: int
    dataset: object
    engine_seed: int
    cache: Optional[SharedDetectionCache]
    server: ServerConfig
    host: str
    #: Repository-index directory shared fleet-wide (``index`` already
    #: names the shard number here, hence the distinct field name).
    repo_index: Optional[str] = None
    #: Fault specs armed on this shard (chaos testing). Relaunches after
    #: a crash carry only the ``repeat=True`` subset, so one scripted
    #: kill does not become a crash loop.
    faults: tuple = ()


def _shard_main(spec: _ShardSpec, conn) -> None:
    """Child-process entry point: serve one shard until shutdown.

    Module-level so spawn contexts can import it. Reports the bound
    ephemeral port (or a startup error) through ``conn``, then serves
    until a client sends the ``shutdown`` op.
    """
    start_child()
    try:
        if spec.cache is not None:
            from repro.parallel.shm import adopt_shared_cache

            adopt_shared_cache(spec.cache)
        from repro.query.engine import QueryEngine

        engine = QueryEngine(
            spec.dataset,
            seed=spec.engine_seed,
            detection_cache=spec.cache if spec.cache is not None else "unbounded",
            index=spec.repo_index,
        )
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    asyncio.run(
        serve_forever(
            engine,
            host=spec.host,
            port=0,
            config=spec.server,
            ready=lambda port: conn.send(("ok", port)),
            faults=spec.faults or None,
        )
    )


async def _cancel_until_done(tasks) -> None:
    """Cancel ``tasks`` and wait until every one has actually finished.

    A single cancel + gather can hang forever: ``asyncio.wait_for``
    swallows a cancellation that arrives in the same loop step its
    inner future settles (bpo-42130), so the task consumes the request
    and keeps running. Re-cancelling until the task exits guarantees a
    cancel eventually lands on a suspension point that honours it.
    """
    pending = {task for task in tasks if task is not None and not task.done()}
    for task in pending:
        task.cancel()
    while pending:
        done, pending = await asyncio.wait(pending, timeout=1.0)
        for task in pending:
            task.cancel()


class _Shard:
    """Router-side record of one shard process."""

    def __init__(self, index: int, process, conn, spec: _ShardSpec):
        self.index = index
        self.process = process
        self.conn = conn
        self.spec = spec
        self.port: Optional[int] = None
        self.client: Optional[FleetClient] = None
        #: Router-tracked sessions admitted to this shard and not yet
        #: terminal. Placement sees ``active + queued`` as load.
        self.active = 0
        #: Submissions waiting in this shard's router-side queue.
        self.queued = 0
        self.queue: "asyncio.Queue[FleetHandle]" = asyncio.Queue()
        self.dispatcher: Optional[asyncio.Task] = None
        self.monitor: Optional[asyncio.Task] = None
        #: Bumped on every (re)launch; watchers and dispatchers capture
        #: it so a stale error cannot trigger recovery of a fresh
        #: incarnation.
        self.generation = 0
        #: Restarts performed so far (the circuit-breaker counter).
        self.restarts = 0
        #: A recovery pass is replacing this shard's process right now.
        self.recovering = False
        #: The circuit breaker tripped: this shard is out of rotation
        #: for the rest of the fleet's life.
        self.down = False

    @property
    def live(self) -> bool:
        return not self.down and not self.recovering and self.client is not None


class FleetHandle:
    """The router-side face of one submitted (possibly migrating) session.

    The fleet analogue of :class:`~repro.serving.server.SessionHandle`:
    :meth:`wait` / :meth:`result` survive a live migration transparently
    — they settle when the session reaches a terminal state that is not
    a migration staging pause, on whichever shard it ends up.
    """

    def __init__(self, item: WorkloadItem, seq: int):
        self.item = item
        self.seq = seq
        self.shard: Optional[int] = None
        self.remote = None  # RemoteSession once admitted
        self.migrations = 0
        #: Times this session was re-placed after losing its shard.
        self.recoveries = 0
        #: The router auto-checkpoints this session every
        #: ``checkpoint_every`` steps (set at submit time).
        self.supervised = False
        #: Latest checkpoint envelope held router-side — the recovery
        #: table entry for this session (filled by the checkpoint cycle
        #: and by migrations).
        self.checkpoint_blob: Optional[bytes] = None
        #: Streamed ``samples`` events observed since the last stored
        #: checkpoint — the work a crash right now would redo.
        self.observed_steps = 0
        self._migrating = False
        self._recovering = False
        self._watch_task: Optional[asyncio.Task] = None
        self._admitted: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        self._settled: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )

    @property
    def tenant(self) -> str:
        return self.item.tenant

    @property
    def done(self) -> bool:
        return self._settled.done()

    async def admitted(self) -> None:
        """Wait until the session is accepted by a shard server."""
        await asyncio.shield(self._admitted)

    async def wait(self) -> str:
        """Await the terminal state: 'finished', 'paused' or 'failed'."""
        frame = await asyncio.shield(self._settled)
        return frame["state"]

    async def terminal(self) -> dict:
        return await asyncio.shield(self._settled)

    async def result(self):
        """Await completion and return the session's QueryOutcome."""
        frame = await self.terminal()
        if frame["state"] == "failed":
            _raise_typed(frame)
        if frame["state"] == "paused":
            raise QueryError(
                "session was paused before finishing; migrate or restore "
                "it to resume"
            )
        return pickle.loads(base64.b64decode(frame["outcome"]))

    def _settle(self, frame: dict) -> None:
        if not self._settled.done():
            self._settled.set_result(frame)

    def _fail(self, exc: BaseException) -> None:
        if not self._admitted.done():
            self._admitted.set_exception(exc)
        if not self._settled.done():
            self._settled.set_exception(exc)


def _cache_info_from_json(raw: Optional[dict]) -> Optional[CacheInfo]:
    """Rebuild a :class:`CacheInfo` from its wire (asdict) form."""
    if raw is None:
        return None
    return CacheInfo(
        policy=raw["policy"],
        hits=raw["hits"],
        misses=raw["misses"],
        size=raw["size"],
        capacity=raw["capacity"],
        per_scope={
            scope: ScopeCacheInfo(**counts)
            for scope, counts in raw.get("per_scope", {}).items()
        },
    )


@dataclass(frozen=True)
class FleetStats:
    """Point-in-time aggregate of every shard's :class:`ServerStats`.

    ``per_shard`` keeps each shard's full stats snapshot (as the JSON
    primitives the wire carries); the scalar fields are their sums.
    ``cache`` is the fleet-wide detection-cache view — with the shared
    cache, per-scope hit/miss counters aggregated across shard processes
    (:meth:`~repro.parallel.shm.SharedDetectionCache.aggregate_info`);
    otherwise the per-shard snapshots merged.
    """

    shards: int
    submitted: int
    finished: int
    paused: int
    failed: int
    in_flight: int
    queued: int
    detector_calls: int
    detector_frames: int
    migrations: int
    per_shard: List[dict]
    cache: Optional[CacheInfo] = None
    #: Shard processes relaunched by supervision.
    restarts: int = 0
    #: Sessions resumed from a recovery-table checkpoint after a crash.
    recovered_sessions: int = 0
    #: Sessions re-run from scratch (lost before their first checkpoint).
    rerun_sessions: int = 0
    #: Observed steps re-executed because a crash discarded them —
    #: bounded per recovery by ``checkpoint_every``.
    redone_steps: int = 0
    #: Idempotent client ops re-issued after transport failures.
    retries: int = 0
    #: Malformed wire lines survived (router clients + shard servers).
    wire_errors: int = 0
    #: Shards whose circuit breaker tripped (out of rotation).
    down_shards: List[int] = field(default_factory=list)

    def describe(self) -> str:
        """A compact human-readable multi-line summary."""
        lines = [
            (
                f"fleet: {self.shards} shards, "
                f"{self.finished}/{self.submitted} sessions finished "
                f"({self.paused} paused, {self.failed} failed, "
                f"{self.in_flight} in flight, {self.queued} queued, "
                f"{self.migrations} migrated)"
            ),
            (
                f"detector: {self.detector_calls} calls, "
                f"{self.detector_frames} frames across shards"
            ),
        ]
        if (
            self.restarts or self.recovered_sessions or self.rerun_sessions
            or self.redone_steps or self.retries or self.wire_errors
        ):
            lines.append(
                f"fault tolerance: {self.restarts} shard restarts, "
                f"{self.recovered_sessions} sessions recovered from "
                f"checkpoint, {self.rerun_sessions} rerun from scratch, "
                f"{self.redone_steps} steps redone, "
                f"{self.retries} client retries, "
                f"{self.wire_errors} wire errors survived"
            )
        if self.down_shards:
            lines.append(
                "DEGRADED: shards "
                + ", ".join(str(i) for i in self.down_shards)
                + " down (restart budget exhausted)"
            )
        for index, stats in enumerate(self.per_shard):
            if stats.get("down"):
                lines.append(f"shard {index}: DOWN")
                continue
            if stats.get("unreachable"):
                lines.append(f"shard {index}: unreachable (recovering)")
                continue
            lines.append(
                f"shard {index}: {stats['finished']}/{stats['submitted']} "
                f"finished, {stats['detector_calls']} detector calls, "
                f"{stats['detector_frames']} frames"
                + (" [draining]" if stats.get("draining") else "")
            )
        if self.cache is not None:
            lines.append(f"cache: {self.cache}")
            for scope in sorted(self.cache.per_scope):
                counts = self.cache.per_scope[scope]
                lines.append(
                    f"  scope {scope[:12]}…: {counts.hits} hits / "
                    f"{counts.misses} misses ({counts.hit_rate:.1%})"
                )
        return "\n".join(lines)


class FleetRouter:
    """Routes sessions across shard server processes.

    Build with :meth:`launch` (async classmethod) and tear down with
    :meth:`shutdown` — or use as an async context manager. Submission
    follows the placement policy unless the item pins a ``shard``;
    :meth:`migrate` moves a running session between shards with its
    trace intact.
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.placement = make_placement_policy(config.placement)
        self.shards: List[_Shard] = []
        self._cache: Optional[SharedDetectionCache] = None
        self._capacity = asyncio.Condition()
        self._handles: List[FleetHandle] = []
        self._watchers: "set[asyncio.Task]" = set()
        self._recovery_tasks: "set[asyncio.Task]" = set()
        self._ctx = None
        self._migrations = 0
        self._restarts = 0
        self._recovered = 0
        self._rerun = 0
        self._redone_steps = 0
        self._seq = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    async def launch(
        cls,
        dataset,
        n_shards: Optional[int] = None,
        *,
        config: Optional[FleetConfig] = None,
        engine_seed: int = 0,
        **overrides,
    ) -> "FleetRouter":
        """Spawn the shard processes and connect to them.

        ``config`` or keyword overrides build a :class:`FleetConfig`
        (``n_shards`` is accepted positionally for convenience). A
        forked shard inherits the dataset; under ``spawn`` and
        ``forkserver`` a shard receives the world as its recipe and
        rebuilds it. Checkpoints carry the recipe too, so the router's
        recovery table outlives the fleet and restores in any process.
        """
        if config is not None and (overrides or n_shards is not None):
            raise ConfigError("pass config= or keyword overrides, not both")
        if config is None:
            if n_shards is not None:
                overrides["n_shards"] = n_shards
            config = FleetConfig(**overrides)
        router = cls(config)
        try:
            await router._start(dataset, engine_seed)
        except BaseException:
            await router.shutdown()
            raise
        return router

    async def _start(self, dataset, engine_seed: int) -> None:
        self._ctx = mp_context()
        if self.config.shared_cache:
            # A private store per fleet: counters and entries belong to
            # this fleet's lifetime, not the process-global singleton.
            self._cache = SharedDetectionCache()
        faults = self.config.faults or FaultPlan()
        for index in range(self.config.n_shards):
            spec = _ShardSpec(
                index=index,
                dataset=dataset,
                engine_seed=engine_seed,
                cache=self._cache,
                server=self.config.server,
                host=self.config.host,
                repo_index=self.config.index,
                faults=faults.for_shard(index),
            )
            process, conn = self._spawn_process(spec)
            self.shards.append(_Shard(index, process, conn, spec))
        for shard in self.shards:
            status, payload = await self._await_startup(shard)
            if status != "ok":
                # One relaunch attempt before giving up: transient
                # resource blips (fd pressure, a slow manager handshake)
                # should not doom the whole fleet.
                await stop_process(shard.process)
                shard.conn.close()
                shard.process, shard.conn = self._spawn_process(shard.spec)
                retried, payload2 = await self._await_startup(shard)
                if retried != "ok":
                    raise QueryError(
                        f"shard {shard.index} failed to start twice: "
                        f"{payload}; retry: {payload2}"
                    )
                payload = payload2
            shard.port = payload
            await self._connect_shard(shard)
        if self.config.supervise:
            for shard in self.shards:
                shard.monitor = asyncio.create_task(
                    self._monitor_shard(shard)
                )

    def _spawn_process(self, spec: _ShardSpec):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main,
            args=(spec, child_conn),
            name=f"repro-shard-{spec.index}",
            # Daemonic: a shard starts no child process of its own.
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    async def _connect_shard(self, shard: _Shard) -> None:
        """Open the client and start the dispatcher for a (re)launched shard."""
        shard.client = await FleetClient.connect(
            self.config.host,
            shard.port,
            op_timeout=self.config.op_timeout,
            retry=RetryPolicy(),
        )
        shard.dispatcher = asyncio.create_task(self._dispatch(shard))

    async def _await_startup(self, shard: _Shard):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.launch_timeout
        while True:
            if shard.conn.poll(0):
                try:
                    return shard.conn.recv()
                except EOFError:
                    return (
                        "error",
                        "pipe closed before the shard reported a port "
                        f"(exit code {shard.process.exitcode})",
                    )
            if not shard.process.is_alive():
                return (
                    "error",
                    f"process exited with code {shard.process.exitcode} "
                    "before reporting a port",
                )
            if loop.time() > deadline:
                return (
                    "error",
                    f"no port after {self.config.launch_timeout:g}s "
                    "(process alive but silent)",
                )
            await asyncio.sleep(0.01)

    async def __aenter__(self) -> "FleetRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain and stop every shard, reap the processes, free memory.

        Graceful by construction: each shard server drains (finishing
        accepted sessions) before its socket closes. Always returns with
        no zombie children: a process that ignores the drain is
        escalated ``terminate()`` → ``kill()`` and reaped. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        lifecycle = [
            shard.monitor for shard in self.shards if shard.monitor
        ] + list(self._recovery_tasks)
        await _cancel_until_done(lifecycle)
        await _cancel_until_done(
            [s.dispatcher for s in self.shards if s.dispatcher]
        )
        acked = set()
        for shard in self.shards:
            if shard.client is None:
                continue
            try:
                await shard.client.shutdown_server(drain=True)
                acked.add(shard.index)
            except (ReproError, ConnectionError, OSError,
                    asyncio.CancelledError):
                # A dead/hung shard cannot ack; escalation below reaps it.
                pass
            await shard.client.close()
        await _cancel_until_done(list(self._watchers))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        for shard in self.shards:
            # Only shards that acked the drain get the graceful window;
            # a shard that couldn't even ack will never exit on its own.
            grace = deadline - loop.time() if shard.index in acked else 0.0
            await stop_process(shard.process, grace)
            shard.conn.close()
        for handle in self._handles:
            if not handle.done:
                handle._fail(QueryError("fleet shut down"))

    # -- submission ----------------------------------------------------------

    def _pick_shard(self, item: WorkloadItem) -> _Shard:
        down = [shard.index for shard in self.shards if shard.down]
        if item.shard is not None:
            if item.shard >= len(self.shards):
                raise ConfigError(
                    f"item pins shard {item.shard} but the fleet has "
                    f"{len(self.shards)} shards"
                )
            if self.shards[item.shard].down:
                raise FleetDegradedError(
                    f"item pins shard {item.shard}, which is down "
                    "(restart budget exhausted)",
                    down=down,
                )
            return self.shards[item.shard]
        # Recovering shards still queue (their dispatcher resumes after
        # the relaunch); only breaker-tripped shards leave the rotation.
        candidates = [shard for shard in self.shards if not shard.down]
        if not candidates:
            raise FleetDegradedError(
                f"all {len(self.shards)} shards are down", down=down
            )
        index = self.placement.choose(item, candidates)
        if not 0 <= index < len(candidates):
            raise ConfigError(
                f"placement policy {self.placement.name!r} chose shard "
                f"{index} of {len(candidates)}"
            )
        return candidates[index]

    async def submit(
        self, item: WorkloadItem, *, wait: bool = True
    ) -> FleetHandle:
        """Route one workload item to a shard; returns its handle.

        Admission mirrors the single server's: if the chosen shard has a
        free in-flight slot the submission dispatches immediately; else
        it waits in that shard's bounded router-side queue. With the
        queue full, ``wait=True`` backpressures (the coroutine waits for
        queue room) and ``wait=False`` raises
        :class:`~repro.errors.ServerOverloadedError`.
        """
        if self._closed:
            raise QueryError("fleet router is shut down")
        shard = self._pick_shard(item)
        async with self._capacity:
            while (
                shard.queued >= self.config.queue_capacity
                and shard.active >= self.config.server.max_in_flight
            ):
                if not wait:
                    raise ServerOverloadedError(
                        f"shard {shard.index} admission queue full "
                        f"({shard.queued} waiting, {shard.active} in flight)"
                    )
                await self._capacity.wait()
            handle = FleetHandle(item, self._seq)
            self._seq += 1
            handle.shard = shard.index
            handle.supervised = self._supervised(item)
            shard.queued += 1
        self._handles.append(handle)
        shard.queue.put_nowait(handle)
        return handle

    def _supervised(self, item: WorkloadItem) -> bool:
        """Whether the checkpoint cycle drives this item's session.

        Explicit ``pause_after`` wins: a user staging pause must land as
        a pause, not be consumed by the auto-checkpoint loop.
        """
        return (
            self.config.supervise
            and self.config.checkpoint_every is not None
            and item.pause_after is None
        )

    async def _dispatch(self, shard: _Shard) -> None:
        """Per-shard dispatcher: admit queued handles in arrival order."""
        generation = shard.generation
        while True:
            handle = await shard.queue.get()
            if shard.generation != generation or shard.down:
                # A swallowed cancellation (see _cancel_until_done) can
                # leave a stale dispatcher racing its successor on the
                # shared queue: hand the item back and bow out.
                shard.queue.put_nowait(handle)
                return
            async with self._capacity:
                while shard.active >= self.config.server.max_in_flight:
                    await self._capacity.wait()
                shard.active += 1
                shard.queued -= 1
                self._capacity.notify_all()
            pause_after = handle.item.pause_after
            stream = False
            if handle.supervised:
                pause_after = self.config.checkpoint_every
                stream = True
            try:
                remote = await shard.client.submit(
                    handle.item,
                    wait=True,
                    stream=stream,
                    pause_after=pause_after,
                )
            except BaseException as exc:  # noqa: BLE001 - settles the handle
                async with self._capacity:
                    shard.active -= 1
                    self._capacity.notify_all()
                if isinstance(exc, asyncio.CancelledError):
                    # Shutdown (handles fail there) or recovery (the
                    # handle is re-placed); either way not ours to fail.
                    raise
                if (
                    self.config.supervise
                    and not self._closed
                    and isinstance(exc, _TRANSPORT_ERRORS)
                ):
                    # The shard (or its socket) died under us: route the
                    # handle into recovery and exit — this generation's
                    # client is gone, and the relaunch starts a fresh
                    # dispatcher. Looping back into queue.get() instead
                    # would strand the recovery task: its cancel can be
                    # eaten by the wait_for race inside the submit above.
                    self._shard_error(shard, generation, str(exc))
                    self._schedule_replace(handle)
                    return
                handle._fail(exc)
                continue
            handle.remote = remote
            if not handle._admitted.done():
                handle._admitted.set_result(None)
            self._watch(handle, remote, shard)

    def _watch(self, handle: FleetHandle, remote, shard: _Shard) -> None:
        task = asyncio.create_task(self._watch_remote(handle, remote, shard))
        handle._watch_task = task
        self._watchers.add(task)
        task.add_done_callback(self._watchers.discard)

    async def _watch_remote(
        self, handle: FleetHandle, remote, shard: _Shard
    ) -> None:
        generation = shard.generation
        try:
            if handle.supervised:
                # Streamed events double as the redo ledger: steps seen
                # since the last stored checkpoint are exactly the work
                # a crash right now would redo.
                async for event in remote.events():
                    if event.get("event") == "samples":
                        handle.observed_steps += 1
            frame = await remote.terminal()
        except BaseException as exc:  # noqa: BLE001 - must settle the handle
            async with self._capacity:
                shard.active -= 1
                self._capacity.notify_all()
            if isinstance(exc, asyncio.CancelledError):
                # Cancelled by shutdown (fail the handle) or by recovery
                # (the handle is being re-placed; leave it pending).
                if not handle._migrating and not handle._recovering:
                    handle._fail(QueryError("fleet shut down"))
                raise
            if handle._migrating:
                return
            if (
                self.config.supervise
                and not self._closed
                and isinstance(exc, _TRANSPORT_ERRORS)
            ):
                self._shard_error(shard, generation, str(exc))
                self._schedule_replace(handle)
                return
            handle._fail(exc)
            return
        async with self._capacity:
            shard.active -= 1
            self._capacity.notify_all()
        if handle._migrating and frame["state"] == "paused":
            # A migration staging pause, not a terminal outcome: the
            # migrate() coroutine is mid-move and will re-watch the
            # session on its destination shard.
            return
        if (
            handle.supervised
            and frame["state"] == "paused"
            and not handle._migrating
            and not self._closed
        ):
            # A checkpoint-cycle pause: store the envelope in the
            # recovery table, then resume on the same shard.
            await self._cycle_checkpoint(handle, remote, shard, generation)
            return
        handle._migrating = False
        handle._settle(frame)

    async def _cycle_checkpoint(
        self, handle: FleetHandle, remote, shard: _Shard, generation: int
    ) -> None:
        """One turn of the auto-checkpoint loop: pull the envelope, resume.

        The session paused itself at a batch boundary (``pause_after`` =
        ``checkpoint_every``); its digest-checked checkpoint becomes the
        session's recovery-table entry, and the restore continues on the
        same shard with the next pause already armed. Determinism makes
        the stitched trace byte-identical to an uninterrupted run.
        """
        try:
            blob = await remote.checkpoint()
            handle.checkpoint_blob = blob
            handle.observed_steps = 0
            async with self._capacity:
                while (
                    shard.active >= self.config.server.max_in_flight
                    and shard.generation == generation
                    and not shard.down
                ):
                    await self._capacity.wait()
                if shard.generation != generation or shard.down:
                    raise ConnectionError("shard lost during checkpoint cycle")
                shard.active += 1
            try:
                new_remote = await shard.client.restore(
                    blob,
                    tenant=handle.item.tenant,
                    wait=True,
                    stream=True,
                    pause_after=self.config.checkpoint_every,
                )
            except BaseException:
                async with self._capacity:
                    shard.active -= 1
                    self._capacity.notify_all()
                raise
        except BaseException as exc:  # noqa: BLE001 - reroute, never hang
            if isinstance(exc, asyncio.CancelledError):
                if not handle._recovering:
                    handle._fail(QueryError("fleet shut down"))
                raise
            if (
                self.config.supervise
                and not self._closed
                and isinstance(exc, _TRANSPORT_ERRORS)
            ):
                self._shard_error(shard, generation, str(exc))
                self._schedule_replace(handle)
                return
            handle._fail(exc)
            return
        handle.remote = new_remote
        self._watch(handle, new_remote, shard)
        await self._evict_quietly(remote)

    @staticmethod
    async def _evict_quietly(remote) -> None:
        """Best-effort evict of a superseded incarnation's shard record.

        Without this every checkpoint cycle / migration leaves one paused
        ghost pinned in the shard server's stats history — unbounded
        memory on a long-lived fleet. Failure is fine: a lost shard is
        the monitor's problem, and the record dies with the process.
        """
        try:
            await remote.evict()
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - eviction is never load-bearing
            pass

    # -- supervision / recovery ----------------------------------------------

    async def _monitor_shard(self, shard: _Shard) -> None:
        """Per-shard supervisor: liveness watch + heartbeat probe.

        A dead process is obvious (``is_alive`` flips); a *hung* one is
        not — the process sits there while its event loop is wedged, so
        only an unanswered ``ping`` gives it away. ``missed_heartbeats``
        consecutive silent probes convict it and it is handled exactly
        like a crash (killed, relaunched, sessions recovered).
        """
        misses = 0
        while not self._closed:
            await asyncio.sleep(self.config.heartbeat_interval)
            if self._closed or shard.down:
                return
            if shard.recovering:
                misses = 0
                continue
            if not shard.process.is_alive():
                self._note_shard_trouble(
                    shard,
                    f"process exited with code {shard.process.exitcode}",
                )
                misses = 0
                continue
            try:
                await shard.client.ping(
                    timeout=self.config.heartbeat_timeout, retrying=False
                )
                misses = 0
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - a miss, judged by count
                misses += 1
                if misses >= self.config.missed_heartbeats:
                    self._note_shard_trouble(
                        shard,
                        f"{misses} consecutive heartbeats missed "
                        "(process alive but unresponsive)",
                    )
                    misses = 0

    def _shard_error(
        self, shard: _Shard, generation: int, reason: str
    ) -> None:
        """A watcher/dispatcher hit a transport error against ``shard``.

        Stale errors (from a generation recovery already replaced) are
        dropped — the fresh process must not be punished for its
        predecessor's corpse.
        """
        if shard.generation == generation and not shard.down:
            self._note_shard_trouble(shard, reason)

    def _note_shard_trouble(self, shard: _Shard, reason: str) -> None:
        """Funnel every failure signal into at most one recovery task."""
        if self._closed or not self.config.supervise:
            return
        if shard.down or shard.recovering:
            return
        shard.recovering = True
        task = asyncio.create_task(self._recover_shard(shard, reason))
        self._recovery_tasks.add(task)
        task.add_done_callback(self._recovery_tasks.discard)

    async def _recover_shard(self, shard: _Shard, reason: str) -> None:
        lost: List[FleetHandle] = []
        try:
            lost = await self._relaunch_shard(shard, reason)
        finally:
            # Clear the flag BEFORE re-placing: _await_live_shard skips
            # recovering shards, so re-placing first would deadlock a
            # one-shard fleet against its own recovery.
            shard.recovering = False
            async with self._capacity:
                self._capacity.notify_all()
        preferred = shard if not shard.down else None
        for handle in lost:
            await self._replace_handle(handle, preferred=preferred,
                                       force=True)

    async def _relaunch_shard(
        self, shard: _Shard, reason: str
    ) -> "List[FleetHandle]":
        """Replace a crashed/hung shard process; returns its lost sessions."""
        # 1. Quiesce the router's view of the shard: stop the dispatcher
        # and the watchers of every session it held.
        if shard.dispatcher is not None:
            await _cancel_until_done([shard.dispatcher])
            shard.dispatcher = None
        lost = [
            h for h in self._handles
            if h.shard == shard.index and not h.done and not h._recovering
        ]
        watch_tasks = []
        for handle in lost:
            handle._recovering = True
            task = handle._watch_task
            if task is not None and not task.done():
                watch_tasks.append(task)
        await _cancel_until_done(watch_tasks)
        drained = 0
        while not shard.queue.empty():
            shard.queue.get_nowait()
            drained += 1
        if shard.client is not None:
            await shard.client.close()
            shard.client = None
        # 2. Make sure the old process is dead, then reap it.
        await stop_process(shard.process)
        shard.conn.close()
        async with self._capacity:
            shard.active = 0
            shard.queued -= drained
            self._capacity.notify_all()
        shard.generation += 1
        # 3. Circuit breaker: a shard that keeps dying stops being
        # restarted; its sessions move to survivors (or fail typed).
        while True:
            if shard.restarts >= self.config.max_restarts:
                shard.down = True
                break
            shard.restarts += 1
            self._restarts += 1
            shard.process, shard.conn = self._spawn_process(
                dataclass_replace(
                    shard.spec,
                    faults=FaultPlan(shard.spec.faults).surviving_relaunch(
                        shard.index
                    ),
                )
            )
            status, payload = await self._await_startup(shard)
            if status == "ok":
                shard.port = payload
                await self._connect_shard(shard)
                break
            await stop_process(shard.process)
            shard.conn.close()
        # The caller (_recover_shard) re-places the returned sessions on
        # the relaunched shard or survivors once the recovering flag is
        # cleared.
        return lost

    def _schedule_replace(self, handle: FleetHandle) -> None:
        """Re-place one lost session in the background."""
        if handle.done or handle._recovering:
            return
        handle._recovering = True
        task = asyncio.create_task(
            self._replace_handle(handle, force=True)
        )
        self._recovery_tasks.add(task)
        task.add_done_callback(self._recovery_tasks.discard)

    async def _await_live_shard(
        self, preferred: Optional[_Shard]
    ) -> Optional[_Shard]:
        """A shard fit to take recovered work; None once all are down."""
        async with self._capacity:
            while True:
                if self._closed:
                    return None
                if preferred is not None and preferred.live:
                    return preferred
                preferred = None
                candidates = [s for s in self.shards if s.live]
                if candidates:
                    return min(
                        candidates,
                        key=lambda s: (s.active + s.queued, s.index),
                    )
                if all(s.down for s in self.shards):
                    return None
                await self._capacity.wait()

    async def _replace_handle(
        self,
        handle: FleetHandle,
        preferred: Optional[_Shard] = None,
        force: bool = False,
    ) -> None:
        """Re-place one lost session: restore its recovery-table
        checkpoint, or resubmit from scratch if it never checkpointed.

        Loops across shards as needed (a target that dies mid-restore
        funnels into its own recovery and the session tries the next
        survivor); terminates because each shard's breaker eventually
        trips. Fails the handle with :class:`ShardLostError` only when
        no live shard remains.
        """
        if handle.done or self._closed:
            handle._recovering = False
            return
        if handle._recovering and not force:
            return
        handle._recovering = True
        try:
            while True:
                shard = await self._await_live_shard(preferred)
                preferred = None
                if shard is None:
                    if not self._closed:
                        handle._fail(ShardLostError(
                            "session lost with no live shard left to "
                            f"recover it (tenant {handle.item.tenant!r}, "
                            "restart budget exhausted)",
                            shard=handle.shard,
                        ))
                    return
                self._redone_steps += handle.observed_steps
                handle.observed_steps = 0
                if handle.checkpoint_blob is None:
                    # Never checkpointed: determinism makes a from-scratch
                    # re-run reproduce the exact same trace (including a
                    # user-staged pause_after, which re-arms unchanged).
                    self._rerun += 1
                    handle.recoveries += 1
                    async with self._capacity:
                        handle.shard = shard.index
                        handle.remote = None
                        shard.queued += 1
                    handle._recovering = False
                    shard.queue.put_nowait(handle)
                    return
                generation = shard.generation
                async with self._capacity:
                    while (
                        shard.active >= self.config.server.max_in_flight
                        and shard.generation == generation
                        and not shard.down
                    ):
                        await self._capacity.wait()
                    if shard.generation != generation or shard.down:
                        continue
                    shard.active += 1
                try:
                    remote = await shard.client.restore(
                        handle.checkpoint_blob,
                        tenant=handle.item.tenant,
                        wait=True,
                        stream=handle.supervised,
                        pause_after=(
                            self.config.checkpoint_every
                            if handle.supervised
                            else None
                        ),
                    )
                except BaseException as exc:  # noqa: BLE001 - retry or fail
                    async with self._capacity:
                        shard.active -= 1
                        self._capacity.notify_all()
                    if isinstance(exc, asyncio.CancelledError):
                        raise
                    if isinstance(exc, _TRANSPORT_ERRORS):
                        self._shard_error(shard, generation, str(exc))
                        await asyncio.sleep(0.02)
                        continue
                    handle._fail(exc)
                    return
                self._recovered += 1
                handle.recoveries += 1
                handle.shard = shard.index
                handle.remote = remote
                handle._recovering = False
                if not handle._admitted.done():
                    handle._admitted.set_result(None)
                self._watch(handle, remote, shard)
                return
        finally:
            handle._recovering = False

    # -- live migration ------------------------------------------------------

    async def migrate(self, handle: FleetHandle, to_shard: int) -> FleetHandle:
        """Move a running session to another shard, trace intact.

        Pause on the source shard, ship the checkpoint over the wire,
        restore on the destination (waiting for one of its in-flight
        slots — migrations bypass the router queue). The session's
        :meth:`FleetHandle.wait` / :meth:`~FleetHandle.result` callers
        never notice: the handle settles with the outcome from the
        destination shard, and determinism makes the merged trace
        byte-identical to a solo run. Returns the same handle.
        """
        if not 0 <= to_shard < len(self.shards):
            raise ConfigError(
                f"cannot migrate to shard {to_shard} of {len(self.shards)}"
            )
        if handle.remote is None:
            await handle.admitted()
        target = self.shards[to_shard]
        if handle.done:
            # Already terminal. A paused session (e.g. staged with
            # pause_after) is exactly what migration moves: re-open the
            # handle so wait()/result() callers see the continuation.
            if handle._settled.exception() is not None:
                raise QueryError("cannot migrate a failed session")
            frame = handle._settled.result()
            if frame["state"] != "paused":
                raise QueryError("session already reached a terminal state")
            handle._settled = asyncio.get_running_loop().create_future()
        else:
            handle._migrating = True
        source = self.shards[handle.shard] if handle.shard is not None else None
        try:
            if handle._migrating:
                await handle.remote.pause()
                frame = await handle.remote.terminal()
                if frame["state"] != "paused":
                    # Finished (or failed) before the pause landed —
                    # nothing left to move; settle with the genuine
                    # outcome.
                    handle._migrating = False
                    handle._settle(frame)
                    return handle
            blob = await handle.remote.checkpoint()
            # The move doubles as a recovery-table entry: if either end
            # dies from here on, this is the state to resume from.
            handle.checkpoint_blob = blob
            handle.observed_steps = 0
            async with self._capacity:
                while target.active >= self.config.server.max_in_flight:
                    await self._capacity.wait()
                target.active += 1
            try:
                remote = await target.client.restore(
                    blob,
                    tenant=handle.item.tenant,
                    wait=True,
                    stream=handle.supervised,
                    pause_after=(
                        self.config.checkpoint_every
                        if handle.supervised
                        else None
                    ),
                )
            except BaseException:
                async with self._capacity:
                    target.active -= 1
                    self._capacity.notify_all()
                raise
        except BaseException as exc:  # noqa: BLE001 - settles the handle
            handle._migrating = False
            if (
                self.config.supervise
                and not self._closed
                and not handle.done
                and isinstance(exc, _TRANSPORT_ERRORS)
            ):
                # A shard died mid-move. The migrate() caller still gets
                # the error (the move itself failed), but the session is
                # recoverable: flag whichever end broke and re-place the
                # handle from its last checkpoint (or from scratch — a
                # staged pause re-stages identically by determinism).
                for suspect in filter(None, (source, target)):
                    if not suspect.process.is_alive():
                        self._note_shard_trouble(
                            suspect, f"lost during migration: {exc}"
                        )
                self._schedule_replace(handle)
            elif not handle.done:
                handle._fail(exc)
            raise
        source_remote = handle.remote
        handle.remote = remote
        handle.shard = to_shard
        handle.migrations += 1
        handle._migrating = False
        self._migrations += 1
        self._watch(handle, remote, target)
        await self._evict_quietly(source_remote)
        return handle

    # -- introspection / draining --------------------------------------------

    async def drain(self) -> None:
        """Wait until every submitted session reached a terminal state."""
        while True:
            active = [h for h in self._handles if not h.done]
            if not active:
                return
            await asyncio.gather(
                *(h.terminal() for h in active), return_exceptions=True
            )

    async def stats(self) -> FleetStats:
        """Aggregate fleet statistics (one ``stats`` round-trip per shard).

        Each shard publishes its shared-cache counters while answering,
        so the fleet-wide per-scope cache breakdown is current as of
        this call.
        """
        per_shard = []
        retries = 0
        client_wire_errors = 0
        for shard in self.shards:
            if shard.down or shard.client is None:
                # A dead (or mid-recovery) shard can't answer; publish a
                # zero-filled row so aggregation and display stay total.
                per_shard.append(
                    {
                        "submitted": 0,
                        "finished": 0,
                        "paused": 0,
                        "failed": 0,
                        "in_flight": 0,
                        "queued": 0,
                        "detector_calls": 0,
                        "detector_frames": 0,
                        "draining": False,
                        "down" if shard.down else "unreachable": True,
                    }
                )
                continue
            retries += shard.client.retries
            client_wire_errors += shard.client.wire_errors
            try:
                per_shard.append(await shard.client.stats())
            except _TRANSPORT_ERRORS:
                per_shard.append(
                    {
                        "submitted": 0,
                        "finished": 0,
                        "paused": 0,
                        "failed": 0,
                        "in_flight": 0,
                        "queued": 0,
                        "detector_calls": 0,
                        "detector_frames": 0,
                        "draining": False,
                        "unreachable": True,
                    }
                )
        if self._cache is not None:
            cache = self._cache.aggregate_info()
        else:
            from repro.detection.cache import merge_cache_infos

            infos = [
                _cache_info_from_json(stats.get("cache"))
                for stats in per_shard
            ]
            cache = (
                merge_cache_infos(infos)
                if any(info is not None for info in infos)
                else None
            )
        return FleetStats(
            shards=len(self.shards),
            submitted=sum(s["submitted"] for s in per_shard),
            finished=sum(s["finished"] for s in per_shard),
            paused=sum(s["paused"] for s in per_shard),
            failed=sum(s["failed"] for s in per_shard),
            in_flight=sum(s["in_flight"] for s in per_shard),
            queued=sum(s["queued"] for s in per_shard)
            + sum(s.queued for s in self.shards),
            detector_calls=sum(s["detector_calls"] for s in per_shard),
            detector_frames=sum(s["detector_frames"] for s in per_shard),
            migrations=self._migrations,
            per_shard=per_shard,
            cache=cache,
            restarts=self._restarts,
            recovered_sessions=self._recovered,
            rerun_sessions=self._rerun,
            redone_steps=self._redone_steps,
            retries=retries,
            wire_errors=client_wire_errors
            + sum(s.get("wire_errors", 0) for s in per_shard),
            down_shards=[s.index for s in self.shards if s.down],
        )


async def replay_fleet(
    router: FleetRouter,
    items: Sequence[WorkloadItem],
    time_scale: float = 1.0,
) -> List[FleetHandle]:
    """Submit a workload to the fleet honouring arrival times.

    The fleet analogue of :func:`repro.serving.workload.replay`, paced
    by the same loop (``time_scale=0`` as fast as admission allows):
    items are routed by the router's placement policy unless an item
    pins a ``shard``; items with ``pause_after`` pause there and stay
    checkpointable. The returned handles align with ``items``.
    """
    return await _submit_paced(items, time_scale, router.submit)


def run_fleet(
    dataset,
    items: Sequence[WorkloadItem],
    *,
    config: Optional[FleetConfig] = None,
    engine_seed: int = 0,
    time_scale: float = 0.0,
    **overrides,
):
    """Blocking convenience: launch a fleet, replay a workload, tear down.

    Returns ``(summaries, fleet_stats)``: one summary dict per item
    (aligned with ``items``) carrying its routing and terminal facts —
    ``tenant``, ``object``, ``method``, ``shard``, ``migrations``,
    ``state``, ``num_samples``, ``num_results``, and for finished
    sessions the base64-pickled outcome (unpickle with
    :func:`outcome_of`). This is the loop behind ``repro fleet``.
    """

    async def _go():
        router = await FleetRouter.launch(
            dataset, config=config, engine_seed=engine_seed, **overrides
        )
        try:
            handles = await replay_fleet(router, items, time_scale=time_scale)
            summaries = []
            for handle in handles:
                try:
                    frame = await handle.terminal()
                except ReproError as exc:
                    frame = {
                        "state": "failed",
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "num_samples": 0,
                        "num_results": 0,
                    }
                summaries.append(
                    {
                        "tenant": handle.item.tenant,
                        "object": handle.item.object,
                        "method": handle.item.method,
                        "shard": handle.shard,
                        "migrations": handle.migrations,
                        "recoveries": handle.recoveries,
                        "state": frame["state"],
                        "num_samples": frame.get("num_samples", 0),
                        "num_results": frame.get("num_results", 0),
                        "error": frame.get("error"),
                        "message": frame.get("message"),
                        "outcome": frame.get("outcome"),
                    }
                )
            stats = await router.stats()
            return summaries, stats
        finally:
            await router.shutdown()

    return asyncio.run(_go())


def outcome_of(summary: dict):
    """The :class:`~repro.query.engine.QueryOutcome` inside a finished
    :func:`run_fleet` summary (None for paused/failed sessions)."""
    if summary.get("state") != "finished" or summary.get("outcome") is None:
        return None
    return pickle.loads(base64.b64decode(summary["outcome"]))
