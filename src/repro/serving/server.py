"""The asyncio query server: many concurrent searches, one detector.

:class:`QueryServer` runs any number of :class:`~repro.query.session
.QuerySession` steppers on one event loop, treating the detector as the
scarce shared resource the paper says it is. Each admitted session drives
the request/fulfil split — propose a frame batch, await detection, ingest,
record — and a :class:`~repro.serving.batcher.DetectorBatcher` coalesces
the detection waits across sessions into fused ``detect_batch`` calls over
the engine's shared :class:`~repro.detection.DetectionCache`.

Correctness is scheduling-independent: sessions are isolated (own
environment, discriminator, RNG streams) and detection is pure, so a
session served by a loaded server produces a trace byte-identical to the
same ``(query, method, run_seed)`` run solo. The test suite asserts this
for every registered search method, and ``QueryEngine.run_many`` is now a
thin blocking wrapper over this server.

Admission control and backpressure: at most ``max_in_flight`` sessions
step concurrently; further submissions wait in an admission queue bounded
at ``queue_capacity`` and are admitted in submission order; when that is
full too, ``submit`` either awaits room (backpressure) or raises
:class:`~repro.errors.ServerOverloadedError` (``wait=False``).

Typical use::

    async def main():
        server = engine.serve(max_in_flight=8)
        handles = [await server.submit(q, tenant="alice") for q in queries]
        outcomes = [await h.result() for h in handles]
        print(server.stats().describe())

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.environment import batched_observe
from repro.detection.cache import CacheInfo
from repro.errors import (
    ConfigError,
    QueryError,
    ServerDrainingError,
    ServerOverloadedError,
)
from repro.serving.batcher import BatcherStats, DetectorBatcher
from repro.serving.executors import (
    DetectorExecutor,
    ExecutorSpec,
    make_executor,
    validate_executor_spec,
)

__all__ = [
    "LatencyStats",
    "QueryServer",
    "ServerConfig",
    "ServerStats",
    "SessionHandle",
    "TenantStats",
    "serve_sessions",
]


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of a :class:`QueryServer`.

    Attributes
    ----------
    max_in_flight:
        Maximum sessions stepping concurrently (admission control).
    queue_capacity:
        Maximum sessions waiting for admission; beyond it ``submit``
        backpressures (or raises with ``wait=False``).
    max_batch_size:
        Maximum frames per fused detector call (>= 1).
    flush_latency:
        Seconds a pending detector request may wait for company (finite,
        >= 0).
    batching:
        When False, every session calls the detector itself (per-session
        stepping — the pre-server behaviour). Outcomes are identical
        either way; only detector call counts and latency change.
    executor:
        Where fused detector calls run: ``"inline"``, ``"thread"`` or
        ``"thread:N"`` (``N`` worker threads), or a
        :class:`~repro.serving.executors.DetectorExecutor` instance
        (whose lifecycle then stays with the caller). The thread
        executor overlaps detection with session CPU work; outcomes are
        identical under every executor.
    """

    max_in_flight: int = 8
    queue_capacity: int = 64
    max_batch_size: int = 256
    flush_latency: float = 0.002
    batching: bool = True
    executor: ExecutorSpec = "inline"

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.queue_capacity < 0:
            raise ConfigError("queue_capacity must be >= 0")
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if not 0 <= self.flush_latency < math.inf:
            raise ConfigError("flush_latency must be finite and >= 0")
        validate_executor_spec(self.executor)


@dataclass(frozen=True)
class LatencyStats:
    """Percentiles (seconds) over one latency population."""

    count: int
    p50: float
    p90: float
    p99: float
    mean: float

    @staticmethod
    def of(samples) -> "LatencyStats":
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0)
        p50, p90, p99 = np.percentile(arr, [50, 90, 99])
        return LatencyStats(
            int(arr.size), float(p50), float(p90), float(p99), float(arr.mean())
        )


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant slice of :meth:`QueryServer.stats`."""

    tenant: str
    sessions: int
    finished: int
    samples: int
    results: int
    detector_requests: int
    detector_frames: int
    cache_hits: int
    detect_wait: LatencyStats
    turnaround: LatencyStats


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of server behaviour.

    ``detector_calls`` counts fused calls issued by the batcher plus
    direct calls made with batching disabled; ``batch_occupancy`` is mean
    frames per fused call. ``cache`` is the engine detection cache's
    :class:`~repro.detection.cache.CacheInfo` (with its per-scope
    breakdown) when the server has an engine with a cache attached.
    """

    submitted: int
    finished: int
    paused: int
    failed: int
    in_flight: int
    queued: int
    draining: bool
    detector_calls: int
    detector_frames: int
    batch_occupancy: float
    fusion_ratio: float
    batcher: BatcherStats
    per_tenant: Dict[str, TenantStats]
    detect_wait: LatencyStats
    turnaround: LatencyStats
    cache: Optional[CacheInfo] = None
    #: Name of the detector executor fused calls ran on.
    executor: str = "inline"

    def describe(self) -> str:
        """A compact human-readable multi-line summary."""
        b = self.batcher
        lines = [
            (
                f"sessions: {self.finished}/{self.submitted} finished "
                f"({self.paused} paused, {self.failed} failed, "
                f"{self.in_flight} in flight, {self.queued} queued)"
                + (" [draining]" if self.draining else "")
            ),
            (
                f"detector: {self.detector_calls} calls, "
                f"{self.detector_frames} frames, "
                f"occupancy {self.batch_occupancy:.1f} frames/call, "
                f"fusion {self.fusion_ratio:.1f} requests/call"
            ),
            (
                f"executor: {self.executor} — "
                f"{b.dispatched_batches} dispatched, "
                f"peak depth {b.peak_in_flight}, "
                f"off-loop busy {b.offloop_busy_s * 1e3:.1f}ms"
            ),
            (
                f"latency: detect-wait p50 {self.detect_wait.p50 * 1e3:.2f}ms "
                f"p99 {self.detect_wait.p99 * 1e3:.2f}ms; turnaround p50 "
                f"{self.turnaround.p50 * 1e3:.1f}ms p99 "
                f"{self.turnaround.p99 * 1e3:.1f}ms"
            ),
        ]
        if self.cache is not None:
            lines.append(f"cache: {self.cache}")
        for tenant in sorted(self.per_tenant):
            t = self.per_tenant[tenant]
            lines.append(
                f"tenant {tenant}: {t.finished}/{t.sessions} sessions, "
                f"{t.samples} samples, {t.results} results, "
                f"{t.detector_requests} detector requests "
                f"({t.detector_frames} frames, {t.cache_hits} cached), "
                f"detect-wait p50 {t.detect_wait.p50 * 1e3:.2f}ms"
            )
        return "\n".join(lines)


class SessionHandle:
    """The server-side face of one submitted session.

    Returned by :meth:`QueryServer.submit`. Await :meth:`result` for the
    finished :class:`~repro.query.engine.QueryOutcome`, or :meth:`wait`
    for the terminal state (``"finished"``, ``"paused"``, ``"failed"``).
    :meth:`pause` stops the session cooperatively at its next batch
    boundary — the underlying :class:`~repro.query.session.QuerySession`
    is then safe to ``checkpoint()`` and resubmit (here or elsewhere).
    """

    def __init__(
        self,
        session,
        seq: int,
        tenant: str,
        pause_after: Optional[int],
    ):
        self.session = session
        self.seq = seq
        self.tenant = tenant
        self.pause_after = pause_after
        self.state = "queued"
        self.steps = 0
        self.error: Optional[BaseException] = None
        # Optional callable(handle, SearchStep) invoked after every
        # fulfilled step — the hook the wire front-end uses to stream
        # ResultFound/SampleBatch events without polling.
        self.event_sink = None
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.detect_waits: List[float] = []
        # Per-session detector accounting, maintained for the fused and
        # the direct (batching=False) paths alike, so per-tenant stats
        # stay truthful in either mode.
        self.detector_requests = 0
        self.detector_frames = 0
        self._pause_requested = False
        self._done: Optional[asyncio.Future] = None

    # -- introspection -------------------------------------------------------

    @property
    def method(self) -> str:
        return self.session.method

    @property
    def query(self):
        return self.session.query

    @property
    def num_samples(self) -> int:
        return self.session.num_samples

    @property
    def num_results(self) -> int:
        return self.session.num_results

    @property
    def done(self) -> bool:
        return self.state in ("finished", "paused", "failed")

    # -- control -------------------------------------------------------------

    def pause(self) -> None:
        """Stop the session at its next batch boundary (cooperative)."""
        self._pause_requested = True

    async def wait(self) -> str:
        """Await the terminal state: 'finished', 'paused' or 'failed'."""
        if not self.done:
            assert self._done is not None, "handle not yet registered"
            await asyncio.shield(self._done)
        return self.state

    async def result(self):
        """Await completion and return the session's QueryOutcome.

        Raises the session's error if it failed, and :class:`QueryError`
        if the session was paused instead of finishing (resubmit it to
        resume).
        """
        state = await self.wait()
        if state == "failed":
            assert self.error is not None
            raise self.error
        if state == "paused":
            raise QueryError(
                "session was paused before finishing; checkpoint/resubmit "
                "it to resume"
            )
        return self.session.outcome()

    # -- server internals ----------------------------------------------------

    def _register(self, loop: asyncio.AbstractEventLoop) -> None:
        self._done = loop.create_future()
        self.submitted_at = loop.time()

    def _finish(self, state: str, loop: asyncio.AbstractEventLoop) -> None:
        self.state = state
        self.ended_at = loop.time()
        if self._done is not None and not self._done.done():
            self._done.set_result(state)


class QueryServer:
    """Runs many query sessions concurrently over one engine's detector.

    Built by :meth:`repro.query.engine.QueryEngine.serve`. All methods
    must be called from within a running event loop (``asyncio.run``);
    the blocking convenience path is :func:`serve_sessions` /
    ``QueryEngine.run_many``.
    """

    def __init__(self, engine=None, config: Optional[ServerConfig] = None):
        self.engine = engine
        self.config = config or ServerConfig()
        # An executor built from a spec string belongs to this server
        # (closed by aclose); a passed-in instance stays with its owner,
        # so one pool can serve several servers or test fixtures.
        self._owns_executor = not isinstance(
            self.config.executor, DetectorExecutor
        )
        self.executor = make_executor(self.config.executor)
        self._batcher = DetectorBatcher(
            max_batch_size=self.config.max_batch_size,
            flush_latency=self.config.flush_latency,
            outstanding_hint=self._running_count,
            executor=self.executor,
        )
        self._seq = 0
        self._handles: List[SessionHandle] = []
        self._running: "set[SessionHandle]" = set()
        #: Admission queue: a heap of ``(seq, handle)``, not a FIFO, because
        #: a submitter woken from backpressure can push after a later one
        #: that found room; sessions are still admitted in submission order.
        self._waiting: List[Tuple[int, SessionHandle]] = []
        self._space_waiters: Deque[asyncio.Future] = deque()
        self._tasks: Dict[SessionHandle, asyncio.Task] = {}
        self._direct_detector_calls = 0
        self._direct_detector_frames = 0
        self._draining = False
        # Optional callable(handle) invoked after every fulfilled step,
        # server-wide — the seam fault injection (repro.serving.faults)
        # uses to crash or stall a shard after N steps. May not await.
        self.on_step = None

    # -- submission ----------------------------------------------------------

    async def submit(
        self,
        query=None,
        *,
        session=None,
        method: str = "exsample",
        run_seed: int = 0,
        tenant: str = "default",
        pause_after: Optional[int] = None,
        wait: bool = True,
        event_sink=None,
        **searcher_kwargs,
    ) -> SessionHandle:
        """Submit one query (or a pre-built/restored session) for serving.

        Exactly one of ``query`` / ``session`` must be given; a query is
        opened through the engine exactly as ``engine.session`` would, so
        serving changes nothing about how a search is configured.
        ``pause_after`` pauses the session after that many fulfilled
        steps (e.g. to checkpoint it mid-flight).
        ``wait=False`` turns queue backpressure into
        :class:`~repro.errors.ServerOverloadedError`. ``event_sink`` is
        an optional callable ``(handle, SearchStep)`` invoked after every
        fulfilled step — how the wire front-end streams events. A
        draining server (see :meth:`drain_gracefully`) refuses new
        sessions with :class:`~repro.errors.ServerDrainingError`.
        """
        if self._draining:
            raise ServerDrainingError(
                "server is draining: it no longer admits new sessions"
            )
        if (query is None) == (session is None):
            raise QueryError("submit exactly one of query= or session=")
        if session is None:
            if self.engine is None:
                raise QueryError(
                    "this server has no engine; submit pre-built sessions"
                )
            session = self.engine.session(
                query, method=method, run_seed=run_seed, **searcher_kwargs
            )
        elif searcher_kwargs or method != "exsample" or run_seed != 0:
            # A pre-built session is already fully configured; silently
            # dropping overrides would run it with settings the caller
            # believes they changed.
            raise QueryError(
                "method/run_seed/searcher kwargs cannot be combined with "
                "session=; configure them when the session is created"
            )
        loop = asyncio.get_running_loop()
        handle = SessionHandle(
            session, seq=self._seq, tenant=tenant, pause_after=pause_after
        )
        handle.event_sink = event_sink
        self._seq += 1
        handle._register(loop)
        while len(self._waiting) >= self.config.queue_capacity and not (
            len(self._running) < self.config.max_in_flight
            and not self._waiting
        ):
            if not wait:
                raise ServerOverloadedError(
                    f"admission queue full ({self.config.queue_capacity} "
                    f"waiting, {len(self._running)} in flight)"
                )
            space: asyncio.Future = loop.create_future()
            self._space_waiters.append(space)
            await space
            if self._draining:
                # Drain began while this submitter waited for room; its
                # session was never accepted, so refuse it like any other
                # post-drain submission.
                raise ServerDrainingError(
                    "server began draining while this submission waited "
                    "for admission-queue room"
                )
        self._handles.append(handle)
        heapq.heappush(self._waiting, (handle.seq, handle))
        self._pump(loop)
        return handle

    async def drain(self) -> None:
        """Wait until every submitted session reached a terminal state."""
        while True:
            active = [h for h in self._handles if not h.done]
            if not active:
                return
            await asyncio.gather(*(h.wait() for h in active))

    @property
    def draining(self) -> bool:
        """True once :meth:`drain_gracefully` has begun."""
        return self._draining

    async def drain_gracefully(self, checkpoint: bool = False) -> None:
        """Stop admitting, then settle every accepted session (graceful stop).

        The teardown contract :meth:`shutdown` does not offer: nothing
        accepted is dropped. New submissions (and submitters waiting in
        backpressure, whose sessions were never accepted) are refused with
        :class:`~repro.errors.ServerDrainingError`; everything already in
        the admission queue or in flight is settled. With
        ``checkpoint=False`` sessions run to completion; with
        ``checkpoint=True`` in-flight sessions are paused at their next
        batch boundary and queued ones are paused unstarted, leaving every
        one of them checkpointable (the migration path of a fleet
        teardown). Pending fused detector work is flushed so no session
        stays blocked inside the batcher. Idempotent; returns when every
        accepted session is terminal.
        """
        loop = asyncio.get_running_loop()
        self._draining = True
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ServerDrainingError(
                        "server began draining while this submission "
                        "waited for admission-queue room"
                    )
                )
        if checkpoint:
            for handle in list(self._running):
                handle.pause()
            # Queued sessions were accepted but never started: pause them
            # where they stand (a fresh session checkpoints fine) instead
            # of spending detector budget on work the caller is stopping.
            while self._waiting:
                _, handle = heapq.heappop(self._waiting)
                handle._finish("paused", loop)
        # Serve detection already pending so blocked sessions can reach
        # their next batch boundary (and see a pause request) promptly.
        self._batcher.flush()
        await self.drain()
        # Every session is terminal, so nothing new can be dispatched:
        # settle whatever the pipeline still holds and release the pool.
        await self.aclose()

    def evict_finished(self) -> int:
        """Forget terminal sessions; returns how many were evicted.

        The server keeps every submitted handle so :meth:`stats` can
        report full per-tenant history — on a long-lived server that
        retention grows without bound (each handle pins its whole
        session: environment, discriminator tracks, trace). Call this
        periodically once a batch of results has been consumed; evicted
        sessions simply stop contributing to future :meth:`stats`
        snapshots (the batcher's cumulative counters are unaffected).
        """
        before = len(self._handles)
        self._handles = [h for h in self._handles if not h.done]
        return before - len(self._handles)

    def evict(self, handle: SessionHandle) -> bool:
        """Forget one terminal session; ``False`` if it is still running.

        The targeted form of :meth:`evict_finished`, for callers holding
        other sessions whose stats history must survive — the fleet's
        checkpoint cycle evicts each superseded incarnation this way
        without touching its neighbours' paused sessions.
        """
        if not handle.done:
            return False
        try:
            self._handles.remove(handle)
        except ValueError:
            return False
        return True

    def stats(self) -> ServerStats:
        """Aggregate server/batcher/cache statistics (point in time)."""
        batcher = self._batcher.stats
        tenants: Dict[str, List[SessionHandle]] = {}
        for handle in self._handles:
            tenants.setdefault(handle.tenant, []).append(handle)
        per_tenant = {}
        for tenant, handles in tenants.items():
            per_tenant[tenant] = TenantStats(
                tenant=tenant,
                sessions=len(handles),
                finished=sum(h.state == "finished" for h in handles),
                samples=sum(h.num_samples for h in handles),
                results=sum(h.num_results for h in handles),
                detector_requests=sum(h.detector_requests for h in handles),
                detector_frames=sum(h.detector_frames for h in handles),
                cache_hits=batcher.tenant_cache_hits.get(tenant, 0),
                detect_wait=LatencyStats.of(
                    w for h in handles for w in h.detect_waits
                ),
                turnaround=LatencyStats.of(
                    h.ended_at - h.submitted_at
                    for h in handles
                    if h.ended_at is not None and h.submitted_at is not None
                ),
            )
        cache_info = None
        if self.engine is not None:
            cache_info = self.engine.cache_info()
        return ServerStats(
            submitted=len(self._handles),
            finished=sum(h.state == "finished" for h in self._handles),
            paused=sum(h.state == "paused" for h in self._handles),
            failed=sum(h.state == "failed" for h in self._handles),
            in_flight=len(self._running),
            queued=len(self._waiting),
            draining=self._draining,
            detector_calls=batcher.detector_calls + self._direct_detector_calls,
            detector_frames=batcher.frames + self._direct_detector_frames,
            batch_occupancy=batcher.mean_occupancy,
            fusion_ratio=batcher.fusion_ratio,
            batcher=batcher,
            per_tenant=per_tenant,
            detect_wait=LatencyStats.of(
                w for h in self._handles for w in h.detect_waits
            ),
            turnaround=LatencyStats.of(
                h.ended_at - h.submitted_at
                for h in self._handles
                if h.ended_at is not None and h.submitted_at is not None
            ),
            cache=cache_info,
            executor=self.executor.describe(),
        )

    # -- the event loop core -------------------------------------------------

    def _running_count(self) -> int:
        """How many sessions could still submit a detector request."""
        return len(self._running)

    def _pump(self, loop: asyncio.AbstractEventLoop) -> None:
        """Admit waiting sessions, in submission order, into free slots."""
        while self._waiting and len(self._running) < self.config.max_in_flight:
            _, handle = heapq.heappop(self._waiting)
            handle.state = "running"
            handle.started_at = loop.time()
            self._running.add(handle)
            self._tasks[handle] = loop.create_task(self._drive(handle))
        # Wake backpressured submitters for every unit of room now
        # available — queue slots freed by the admissions above *and*
        # in-flight slots freed by departures while the queue is empty
        # (with queue_capacity=0 the latter is the only signal, so waking
        # exclusively on queue pops would strand submitters forever). A
        # woken submitter re-checks its admission condition and re-waits
        # if a rival beat it to the room, so over-waking is safe.
        room = (self.config.queue_capacity - len(self._waiting)) + max(
            0, self.config.max_in_flight - len(self._running)
        )
        while room > 0 and self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                room -= 1
        self._batcher.recheck()

    async def _drive(self, handle: SessionHandle) -> None:
        """Step one session to its terminal state (the serving inner loop).

        The same propose → detect → ingest → fulfil cycle as
        ``SearchRun.step``, with detection awaited through the
        cross-session batcher. Every iteration ends the step at a batch
        boundary, so pausing here always leaves the session
        checkpointable.
        """
        loop = asyncio.get_running_loop()
        session = handle.session
        run = session.search_run
        env = run.searcher.env
        detector = getattr(env, "detector", None)
        batching = self.config.batching and detector is not None
        terminal = "finished"
        try:
            while True:
                if handle._pause_requested or (
                    handle.pause_after is not None
                    and handle.steps >= handle.pause_after
                ):
                    terminal = "paused" if not run.finished else "finished"
                    break
                proposal = run.propose()
                if proposal is None:
                    break
                request = proposal.request
                if request is None:
                    # Environment without the request/fulfil split: observe
                    # inline. Concurrency still works; fusing does not.
                    observations = batched_observe(env, proposal.picks)
                else:
                    started = loop.time()
                    if batching:
                        detections = await self._batcher.detect(
                            detector, request, handle
                        )
                    else:
                        detections = env.detect_request(request)
                        self._direct_detector_calls += 1
                        self._direct_detector_frames += len(request)
                    handle.detect_waits.append(loop.time() - started)
                    handle.detector_requests += 1
                    handle.detector_frames += len(request)
                    observations = env.ingest_batch(request, detections)
                step = run.fulfil(proposal, observations)
                if handle.event_sink is not None:
                    handle.event_sink(handle, step)
                handle.steps += 1
                if self.on_step is not None:
                    self.on_step(handle)
                if run.finished:
                    break
                # Yield between steps so sibling sessions interleave even
                # when every detection is served from cache (no await).
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            handle.error = QueryError("session cancelled by server shutdown")
            terminal = "failed"
        except Exception as exc:  # noqa: BLE001 - reported via the handle
            handle.error = exc
            terminal = "failed"
        finally:
            if terminal == "finished" and run.finished:
                # This loop steps the SearchRun directly, so the session's
                # completion hook (repository-index recording) would never
                # fire on the blocking path's behalf — notify it here.
                # Idempotent, and a raising hook is contained by the
                # session, so serving semantics are unchanged.
                notify = getattr(session, "notify_complete", None)
                if notify is not None:
                    notify()
            self._running.discard(handle)
            self._tasks.pop(handle, None)
            handle._finish(terminal, loop)
            # A departing session changes the quiescence count and frees
            # an in-flight slot: admit the next session and re-check the
            # batcher so waiting peers are not stranded.
            self._pump(loop)

    async def shutdown(self) -> None:
        """Cancel running sessions and fail queued ones (best effort)."""
        # Serve whatever detection work is already pending so sessions
        # blocked in the batcher are cancelled at an awaited point with
        # their futures resolved, not abandoned mid-request.
        self._batcher.flush()
        for task in list(self._tasks.values()):
            task.cancel()
        loop = asyncio.get_running_loop()
        while self._waiting:
            _, handle = heapq.heappop(self._waiting)
            handle.error = QueryError("server shut down before admission")
            handle._finish("failed", loop)
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ServerOverloadedError("server shut down")
                )
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        # Cancelled sessions have abandoned their detect futures; any
        # batch still executing off-loop resolves into cancelled futures
        # (results discarded, exceptions retrieved) before the pool goes.
        await self.aclose()

    async def aclose(self) -> None:
        """Settle off-loop detector work and release an owned executor.

        Called by :meth:`drain_gracefully`, :meth:`shutdown` and the
        :func:`serve_sessions` wrapper; idempotent, and safe to call on a
        server that never dispatched anything. Executors passed into
        :class:`ServerConfig` as instances are settled but *not* closed —
        their owner decides when the pool dies.
        """
        await self._batcher.settle()
        if self._owns_executor:
            await self.executor.aclose()


def serve_sessions(
    sessions,
    engine=None,
    config: Optional[ServerConfig] = None,
) -> list:
    """Blocking convenience: serve pre-built sessions, return outcomes.

    Runs a fresh event loop with one :class:`QueryServer`, submits the
    sessions in order, drains, and returns their outcomes in submission
    order. This is the single stepping loop behind
    ``QueryEngine.run_many``.

    Works from anywhere blocking code runs: called inside an already
    running event loop (a Jupyter cell, a coroutine of an async app) it
    hosts its private loop on a worker thread instead — same sessions,
    same outcomes, the caller blocks either way. Async applications that
    want actual concurrency with their own loop should use
    ``engine.serve()`` directly.
    """
    sessions = list(sessions)
    outcomes: list = []

    # _go returns None and hands its outcomes over through the closure.
    # On CPython 3.11, asyncio.run restores SIGINT on the main thread via
    # signal.getsignal/signal.signal, which build a message holding the
    # repr() of the finished main task, and a task's repr includes its
    # result: every QueryOutcome, numpy traces and all.
    async def _go() -> None:
        server = QueryServer(engine, config)
        try:
            handles = [await server.submit(session=s) for s in sessions]
            outcomes.extend([await h.result() for h in handles])
        finally:
            await server.aclose()

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(_go())
        return outcomes
    # Already inside a loop: asyncio.run would throw, and the historical
    # run_many was plain synchronous code that worked here. A dedicated
    # thread keeps that contract; the caller blocks on join, so the
    # engine is still touched by one thread at a time.
    import threading

    errors: list = []

    def _runner() -> None:
        try:
            asyncio.run(_go())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=_runner, name="repro-serve", daemon=True)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]
    return outcomes
