"""Cross-session detector batching: many tenants, one fused GPU call.

The paper's cost model says detector invocations dominate query cost; a
server running many concurrent searches therefore wants each detector call
to carry as many frames as possible, *regardless of which session asked
for them*. :class:`DetectorBatcher` is that coalescing point: sessions
``await batcher.detect(detector, request, handle)`` with the
:class:`~repro.core.environment.FrameRequest` their search proposed, and
the batcher fuses every compatible pending request into one
``detector.detect_batch`` call, splitting the detections back out to each
awaiting session.

Fusing never changes results: detection is a pure function of
``(seed, video, frame)`` and requests are only fused when they target the
same detector with the same class filter, so a fused call returns exactly
what each per-session call would have. A flush packs pending requests in
submission order (the sessions' ``seq``), so when ``max_batch_size``
splits it, the earliest-submitted sessions ride the first call.

Flush triggers (first wins):

* **capacity** — pending frames reach ``max_batch_size``;
* **quiescence** — every session that could still submit a request has
  one pending (the server supplies ``outstanding_hint``; when pending
  requests cover it, waiting longer cannot grow the batch);
* **latency** — ``flush_latency`` seconds elapsed since the first pending
  request, a bound on the queueing delay a lone session can suffer while
  arrivals trickle in.

Execution and pipelining
------------------------

*Where* an assembled batch runs is delegated to a
:class:`~repro.serving.executors.DetectorExecutor`. The inline executor
(the default) detects synchronously inside the flush — the historical
behaviour. The thread executor receives each batch the moment it is
assembled, and the loop keeps assembling the next one from resuming
sessions while it detects; the executor's worker count bounds how many
detect at once. Composition stays decided on the loop at flush time, so
what each batch *computes* is independent of where or when it executes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.environment import FrameRequest
from repro.serving.executors import DetectorExecutor, InlineDetectorExecutor

__all__ = ["BatcherStats", "DetectorBatcher"]


@dataclass
class _PendingDetect:
    """One session's frame request awaiting a fused detector call."""

    detector: object
    request: FrameRequest
    handle: object  # SessionHandle (duck-typed: seq/tenant)
    future: "asyncio.Future[List[list]]"


@dataclass(eq=False)  # identity hash: jobs live in the in-flight set
class _BatchJob:
    """One assembled fused call: composition frozen, execution pending.

    Built on the loop at flush time — the frame list, the member list and
    the cache-hit attribution snapshot are all fixed here, so executor
    timing can never change what the batch computes or whom it credits.
    """

    frames: List[int]
    items: List[_PendingDetect]


@dataclass
class BatcherStats:
    """Counters describing the batcher's fusing effectiveness.

    ``detector_calls`` counts fused ``detect_batch`` invocations;
    ``requests`` counts the per-session requests they served. Their ratio
    — and ``mean_occupancy`` (frames per call) — is the whole point of
    cross-session batching: at 8 concurrent sessions a healthy server
    shows ~8 requests per call.
    """

    detector_calls: int = 0
    requests: int = 0
    frames: int = 0
    flushes: int = 0
    max_occupancy: int = 0
    #: Batches handed to an off-loop executor (inline execution counts
    #: in ``detector_calls`` only).
    dispatched_batches: int = 0
    #: Most batches ever in flight off-loop at once.
    peak_in_flight: int = 0
    #: Wall-clock seconds during which ≥1 batch was detecting off-loop —
    #: the union of in-flight intervals, not their sum. Compared against
    #: total wall-clock it measures overlap: loop work done during these
    #: seconds is time pipelining saved.
    offloop_busy_s: float = 0.0
    tenant_requests: Dict[str, int] = field(default_factory=dict)
    tenant_frames: Dict[str, int] = field(default_factory=dict)
    tenant_cache_hits: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_occupancy(self) -> float:
        """Mean frames per fused detector call (0.0 before any call)."""
        return self.frames / self.detector_calls if self.detector_calls else 0.0

    @property
    def fusion_ratio(self) -> float:
        """Mean session requests served per detector call."""
        return self.requests / self.detector_calls if self.detector_calls else 0.0


class DetectorBatcher:
    """Coalesces detector requests across sessions into fused batches.

    Parameters
    ----------
    max_batch_size:
        Maximum frames per fused ``detect_batch`` call; reaching it
        flushes immediately. A single request larger than the cap is
        served alone (requests are never split across calls).
    flush_latency:
        Seconds a pending request may wait for company before the batch
        is flushed regardless.
    outstanding_hint:
        Optional callable returning how many sessions could still submit
        a request (the server's count of running sessions). When pending
        requests reach the hint, the batch is flushed without waiting out
        the latency window — with a synchronous detector this makes
        fusing deterministic and latency-free. Sessions whose requests
        are already dispatched are subtracted from the hint: they cannot
        submit again until their batch resolves, so waiting for them
        would stall the assembling buffer forever.
    executor:
        A :class:`~repro.serving.executors.DetectorExecutor` deciding
        where assembled batches run (default: inline, the historical
        synchronous behaviour). The batcher only uses the executor; the
        server owns its lifecycle.
    """

    def __init__(
        self,
        max_batch_size: int = 256,
        flush_latency: float = 0.002,
        outstanding_hint: Optional[Callable[[], int]] = None,
        executor: Optional[DetectorExecutor] = None,
    ):
        self.max_batch_size = max_batch_size
        self.flush_latency = float(flush_latency)
        self._outstanding_hint = outstanding_hint
        self.executor = executor if executor is not None else InlineDetectorExecutor()
        self._pending: List[_PendingDetect] = []
        self._pending_frames = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Jobs currently executing off-loop.
        self._in_flight: "set[_BatchJob]" = set()
        #: Requests inside dispatched jobs: their sessions are blocked
        #: and must not be awaited by the quiescence trigger.
        self._blocked_requests = 0
        self._busy_since: Optional[float] = None
        self._settle_waiters: List["asyncio.Future[None]"] = []
        self.stats = BatcherStats()

    # -- the awaiting side ---------------------------------------------------

    async def detect(
        self, detector, request: FrameRequest, handle
    ) -> List[list]:
        """Detect ``request``'s frames, fused with other pending requests.

        Returns one detection list per requested frame, exactly as the
        environment's blocking ``detect_request`` would.
        """
        if not request.picks:
            return []
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[List[list]]" = loop.create_future()
        self._pending.append(_PendingDetect(detector, request, handle, future))
        self._pending_frames += len(request)
        tenant = getattr(handle, "tenant", "default")
        stats = self.stats
        stats.requests += 1
        stats.tenant_requests[tenant] = stats.tenant_requests.get(tenant, 0) + 1
        stats.tenant_frames[tenant] = (
            stats.tenant_frames.get(tenant, 0) + len(request)
        )
        if self._pending_frames >= self.max_batch_size:
            self._flush()
        elif not self._flush_if_quiescent():
            self._arm_timer(loop)
        return await future

    # -- flush machinery -----------------------------------------------------

    def recheck(self) -> None:
        """Re-evaluate the quiescence trigger after server state changed.

        The server calls this whenever a session finishes, pauses, or is
        admitted — events that change how many sessions could still
        submit, and therefore whether the pending set is already as large
        as it can get.
        """
        self._flush_if_quiescent()

    def _flush_if_quiescent(self) -> bool:
        if not self._pending:
            return False
        hint = self._outstanding_hint() if self._outstanding_hint else None
        if hint is None:
            return False
        # Sessions blocked inside in-flight batches cannot add
        # to the pending set; the assembling buffer is quiescent once the
        # *free* sessions are all accounted for.
        if len(self._pending) >= hint - self._blocked_requests:
            self._flush()
            return True
        return False

    def _arm_timer(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._timer is None:
            self._timer = loop.call_later(self.flush_latency, self._timer_fired)

    def _timer_fired(self) -> None:
        self._timer = None
        if self._pending:
            self._flush()

    def flush(self) -> None:
        """Serve every pending request now (used on shutdown/drain)."""
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        self._pending_frames = 0
        self.stats.flushes += 1
        # Submission order decides who makes it into the first (possibly
        # only) call of each group when capacity splits the flush.
        pending.sort(key=lambda p: p.handle.seq)
        # Requests fuse only when they share a detector and class filter:
        # detection (and its cache keys) are defined per detector × filter.
        groups: Dict[tuple, List[_PendingDetect]] = {}
        for item in pending:
            group_key = (id(item.detector), item.request.class_filter)
            groups.setdefault(group_key, []).append(item)
        for items in groups.values():
            self._serve_group(items)

    def _serve_group(self, items: List[_PendingDetect]) -> None:
        """One fused call (or several, capacity permitting) for one group."""
        batch: List[_PendingDetect] = []
        batch_frames = 0
        for item in items:
            if batch and batch_frames + len(item.request) > self.max_batch_size:
                self._execute(batch)
                batch, batch_frames = [], 0
            batch.append(item)
            batch_frames += len(item.request)
        if batch:
            self._execute(batch)

    def _execute(self, batch: List[_PendingDetect]) -> None:
        """Freeze one batch's composition and hand it to the executor."""
        detector = batch[0].detector
        class_filter = batch[0].request.class_filter
        videos: List[int] = []
        frames: List[int] = []
        for item in batch:
            videos.extend(item.request.videos)
            frames.extend(item.request.frames)
        # Attribution snapshots here, at assembly — before this batch (or
        # any batch dispatched after it) can touch the cache.
        self._attribute_cache_hits(detector, class_filter, batch)
        job = _BatchJob(frames, batch)
        self._blocked_requests += len(batch)
        executor = self.executor
        if not executor.off_loop:
            try:
                detections = executor.run(
                    detector, videos, frames, class_filter
                )
            except Exception as exc:
                self._complete(job, None, exc)
                return
            self._complete(job, detections, None)
            return
        loop = asyncio.get_running_loop()
        stats = self.stats
        if not self._in_flight:
            self._busy_since = loop.time()
        self._in_flight.add(job)
        stats.dispatched_batches += 1
        stats.peak_in_flight = max(stats.peak_in_flight, len(self._in_flight))
        try:
            inner = executor.submit(
                detector, videos, frames, class_filter, loop
            )
        except Exception as exc:
            self._in_flight.discard(job)
            self._complete(job, None, exc)
            self._wake_settlers()
            return
        inner.add_done_callback(
            lambda fut, job=job: self._on_job_done(job, fut)
        )

    def _on_job_done(self, job: _BatchJob, fut: "asyncio.Future") -> None:
        """Executor callback (runs on the loop): distribute the results."""
        loop = asyncio.get_running_loop()
        self._in_flight.discard(job)
        if not self._in_flight and self._busy_since is not None:
            self.stats.offloop_busy_s += max(
                0.0, loop.time() - self._busy_since
            )
            self._busy_since = None
        if fut.cancelled():
            self._blocked_requests -= len(job.items)
            for item in job.items:
                if not item.future.done():
                    item.future.cancel()
        else:
            exc = fut.exception()  # always retrieved, even if all awaiters left
            self._complete(job, None if exc is not None else fut.result(), exc)
        self._wake_settlers()

    def _wake_settlers(self) -> None:
        if not self._in_flight:
            waiters, self._settle_waiters = self._settle_waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    def _complete(
        self, job: _BatchJob, detections: Optional[List[list]], exc
    ) -> None:
        """Resolve one finished job's member futures and counters."""
        self._blocked_requests -= len(job.items)
        if exc is not None:
            for item in job.items:
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            return
        stats = self.stats
        stats.detector_calls += 1
        stats.frames += len(job.frames)
        stats.max_occupancy = max(stats.max_occupancy, len(job.frames))
        offset = 0
        for item in job.items:
            n = len(item.request)
            if not item.future.cancelled():
                item.future.set_result(detections[offset : offset + n])
            offset += n

    async def settle(self) -> None:
        """Wait until no batch is in flight.

        Drain and shutdown call this after :meth:`flush` so off-loop
        detect futures resolve (and their sessions observe the results)
        before the executor is released. Immediate no-op under the inline
        executor.
        """
        while self._in_flight:
            waiter: "asyncio.Future[None]" = (
                asyncio.get_running_loop().create_future()
            )
            self._settle_waiters.append(waiter)
            await waiter

    def _attribute_cache_hits(
        self, detector, class_filter, batch: List[_PendingDetect]
    ) -> None:
        """Count, per tenant, requested frames memoized *at assembly*.

        The snapshot is taken once per batch, under a single cache-lock
        hold (``contains_many``), at the moment the batch's composition
        freezes. With off-loop executors another batch's results can land
        in the cache at any wall-clock instant; per-key ``in`` probes
        could straddle such a landing and attribute a half-updated view.
        Counter-free probes keep the cache's own hit/miss statistics
        unperturbed. Frames two tenants request in the *same* fused call
        count as cached for neither — the generation is shared, which is
        a batching win, not a cache hit. Caches whose probe is not an
        in-process lookup (``fast_contains = False``, e.g. the
        manager-proxy shared cache) are skipped: a statistic is not worth
        an IPC round-trip on the event loop.
        """
        cache = getattr(detector, "cache", None)
        if cache is None or not getattr(cache, "fast_contains", False):
            return
        scope = detector.cache_scope()
        keys = []
        for item in batch:
            for video, frame in zip(
                item.request.videos, item.request.frames, strict=True
            ):
                keys.append((scope, video, frame, class_filter))
        probe = getattr(cache, "contains_many", None)
        if probe is not None:
            present = probe(keys)
        else:  # duck-typed cache without the batched probe
            present = [key in cache for key in keys]
        hits = self.stats.tenant_cache_hits
        offset = 0
        for item in batch:
            n = len(item.request)
            count = sum(present[offset : offset + n])
            offset += n
            if count:
                tenant = getattr(item.handle, "tenant", "default")
                hits[tenant] = hits.get(tenant, 0) + count
