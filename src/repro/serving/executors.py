"""Pluggable detector executors: run fused ``detect_batch`` calls off-loop.

The batcher fuses many sessions' frame requests into one detector call —
but a fused call executed *inline* blocks the event loop for its whole
duration, so every runnable session stalls while the detector works. The
serving micro-bench made the cost concrete: fusing cut detector calls
5.3x yet fused wall-clock was *worse* than sequential solo runs, because
nothing overlapped. A :class:`DetectorExecutor` decides *where* a fused
call runs:

* ``inline`` — synchronously on the event loop. Zero overhead, zero
  overlap; the right choice for microsecond-fast detectors and for tests
  that want strictly sequential execution.
* ``thread`` — a ``concurrent.futures.ThreadPoolExecutor`` worker. The
  loop keeps scheduling sessions while the detector runs; real speedups
  require the detector to release the GIL for its heavy lifting (numpy
  kernels, ONNX Runtime, torch inference all do).
* ``process`` — a worker of a :func:`repro.parallel.procs.process_pool`
  (start method from ``REPRO_MP_CONTEXT``; workers exit with their
  owner). Full GIL isolation at the price of IPC: the call ships as a
  :class:`~repro.detection.simulated.DetectTask` (the world travels as a
  ~100-byte shared-memory handle, cache hits are resolved parent-side so
  only misses cross the boundary, and the worker scope-checks the task
  against the world it actually attached).

Executors change *where* a batch executes, never *what* it computes:
detection is a pure function of ``(seed, video, frame)``, batch
composition is decided on the loop before dispatch, and every executor
returns exactly what an inline ``detect_batch`` call would. Outcomes are
element-wise identical across all three (the identity suites prove it
for every registered method).

``register_executor`` is the plug-in point, mirroring the scheduling
policy and fleet placement registries: a real GPU/ONNX backend registers
a factory here (typically a thread executor whose detector wraps the
accelerator runtime) and every server/fleet/CLI surface accepts it by
name.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ConfigError

__all__ = [
    "DETECTOR_EXECUTORS",
    "DetectorExecutor",
    "ExecutorSpec",
    "InlineDetectorExecutor",
    "ProcessDetectorExecutor",
    "ThreadDetectorExecutor",
    "make_executor",
    "register_executor",
    "validate_executor_spec",
]

#: What ``ServerConfig(executor=...)`` and the CLI accept: a registered
#: name (optionally ``"name:arg"``), an executor instance, or None.
ExecutorSpec = Union[str, "DetectorExecutor", None]


class DetectorExecutor:
    """Where a fused ``detect_batch`` call runs.

    Contract: :meth:`submit` (off-loop executors) resolves to — and
    :meth:`run` (inline executors) returns — exactly what
    ``detector.detect_batch(videos, frames, class_filter=...)`` would
    return, with the *parent* detector's invocation counters and cache
    updated as an inline call would update them.

    ``off_loop`` tells the batcher which side of the contract applies:
    inline executors run synchronously inside the flush (preserving the
    strictly sequential scheduling every pre-executor test encodes),
    off-loop executors return a future and unlock pipelining. Resources
    (pools, shared-memory publications) are created lazily on first use
    and released by :meth:`close`/:meth:`aclose`; both are idempotent,
    and a closed executor may be used again (a fresh pool is created).
    """

    #: Registry name (or a human label for ad-hoc instances).
    name: str = "base"
    #: False → the batcher calls :meth:`run` synchronously.
    off_loop: bool = True

    def run(self, detector, videos, frames, class_filter) -> List[list]:
        """Synchronous execution (inline executors only)."""
        raise NotImplementedError(
            f"{type(self).__name__} is off-loop; use submit()"
        )

    def submit(
        self,
        detector,
        videos: List[int],
        frames: List[int],
        class_filter: Optional[str],
        loop: asyncio.AbstractEventLoop,
    ) -> "asyncio.Future[List[list]]":
        """Schedule one fused call; resolve on ``loop`` with its result."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/resources synchronously (idempotent)."""

    async def aclose(self) -> None:
        """Release pools/resources without blocking the loop (idempotent)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    def describe(self) -> str:
        return self.name


class InlineDetectorExecutor(DetectorExecutor):
    """Run fused calls synchronously on the event loop (the default).

    This is the pre-executor behaviour, bit for bit: no futures, no
    thread hops, no pipelining — the flush that assembled a batch also
    detects it before the next session resumes.
    """

    name = "inline"
    off_loop = False

    def run(self, detector, videos, frames, class_filter) -> List[list]:
        return detector.detect_batch(videos, frames, class_filter=class_filter)

    async def aclose(self) -> None:  # nothing to release, no loop hop
        return None


class ThreadDetectorExecutor(DetectorExecutor):
    """Run fused calls on a worker thread.

    The detector object is *shared* with the loop thread — no pickling,
    no IPC, the warm cache is used directly (``SimulatedDetector`` keeps
    its rng thread-local and its counters lock-guarded for exactly this).
    Overlap with session CPU work is real to the extent the detector
    releases the GIL; the simulated detector's numpy inner loops do, and
    real inference runtimes (ONNX, torch) famously do.
    """

    name = "thread"

    def __init__(self, max_workers: int = 1):
        if max_workers < 1:
            raise ConfigError("thread executor needs max_workers >= 1")
        self.max_workers = int(max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-detect",
            )
        return self._pool

    def submit(self, detector, videos, frames, class_filter, loop):
        return loop.run_in_executor(
            self._ensure_pool(),
            functools.partial(
                detector.detect_batch, videos, frames,
                class_filter=class_filter,
            ),
        )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def describe(self) -> str:
        return f"{self.name}(workers={self.max_workers})"


class ProcessDetectorExecutor(DetectorExecutor):
    """Run fused calls in worker processes (full GIL isolation).

    On first submit the detector's world is published to shared memory
    (unless an outer scope — a fleet shard, a parallel experiment —
    already published it), so each task pickles in ~100 bytes instead of
    megabytes. The call itself is split parent-side
    (:func:`~repro.detection.simulated.split_detect_task`): cache hits
    resolve on the warm parent cache, only misses ship, the worker
    verifies the task's ``cache_scope`` against the world it attached,
    and the parent memoizes the returned detections. Stats and cache
    behaviour therefore match an inline call exactly.
    """

    name = "process"

    def __init__(self, max_workers: int = 1):
        if max_workers < 1:
            raise ConfigError("process executor needs max_workers >= 1")
        self.max_workers = int(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._stores: List[object] = []

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from repro.parallel.procs import process_pool

            self._pool = process_pool(self.max_workers)
        return self._pool

    def _ensure_world(self, detector) -> None:
        world = getattr(detector, "world", None)
        if world is None:
            return
        from repro.parallel.shm import publish_worlds

        # publish_worlds skips already-published worlds (their owner
        # closes them); stores created here are ours to close.
        self._stores.extend(publish_worlds([world]))

    def submit(self, detector, videos, frames, class_filter, loop):
        from repro.detection.simulated import (
            execute_detect_task,
            merge_detect_results,
            split_detect_task,
        )

        self._ensure_world(detector)
        task, split = split_detect_task(detector, videos, frames, class_filter)
        future: "asyncio.Future[List[list]]" = loop.create_future()
        if task is None:  # every frame served from the parent cache
            future.set_result(merge_detect_results(split, []))
            return future
        inner = loop.run_in_executor(
            self._ensure_pool(), execute_detect_task, task
        )

        def _merge(done: "asyncio.Future") -> None:
            if done.cancelled():
                if not future.done():
                    future.cancel()
                return
            exc = done.exception()  # retrieved even if nobody awaits
            if exc is not None:
                if not future.done():
                    future.set_exception(exc)
                return
            # Merging memoizes the worker's detections in the parent
            # cache even when the awaiter was cancelled mid-flight — the
            # work is done, keeping it warms the next request.
            merged = merge_detect_results(split, done.result())
            if not future.done():
                future.set_result(merged)

        inner.add_done_callback(_merge)
        return future

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        stores, self._stores = self._stores, []
        for store in stores:
            store.close()

    def describe(self) -> str:
        return f"{self.name}(workers={self.max_workers})"


# -- registry ----------------------------------------------------------------

#: Registered executor factories by name. Each factory takes one optional
#: string argument (the part after ``:`` in a ``"name:arg"`` spec).
DETECTOR_EXECUTORS: Dict[str, Callable[..., DetectorExecutor]] = {}


def register_executor(
    name: str, factory: Callable[..., DetectorExecutor]
) -> None:
    """Register an executor factory under ``name``.

    The plug-in point for real detector backends: a GPU/ONNX runtime
    registers a factory here and ``ServerConfig(executor="my-gpu")``,
    ``repro serve --executor my-gpu`` and fleet configs all resolve it.
    Factories receive the optional ``:arg`` suffix of the spec string
    (e.g. ``"thread:4"`` calls the thread factory with ``"4"``).
    """
    if name in DETECTOR_EXECUTORS:
        raise ConfigError(f"detector executor {name!r} is already registered")
    DETECTOR_EXECUTORS[name] = factory


def _inline_factory(arg: Optional[str] = None) -> InlineDetectorExecutor:
    if arg:
        raise ConfigError(
            f"the inline executor takes no argument (got {arg!r})"
        )
    return InlineDetectorExecutor()


def _parse_workers(arg: str, kind: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise ConfigError(
            f"{kind} executor argument must be a worker count, got {arg!r}"
        ) from None


def _thread_factory(arg: Optional[str] = None) -> ThreadDetectorExecutor:
    if not arg:
        return ThreadDetectorExecutor()
    return ThreadDetectorExecutor(max_workers=_parse_workers(arg, "thread"))


def _process_factory(arg: Optional[str] = None) -> ProcessDetectorExecutor:
    if not arg:
        return ProcessDetectorExecutor()
    return ProcessDetectorExecutor(max_workers=_parse_workers(arg, "process"))


register_executor("inline", _inline_factory)
register_executor("thread", _thread_factory)
register_executor("process", _process_factory)


def validate_executor_spec(spec: ExecutorSpec) -> None:
    """Raise :class:`~repro.errors.ConfigError` on an unresolvable spec.

    Config validation happens eagerly (``ServerConfig.__post_init__``)
    but executors are built lazily — frozen configs hold the spec, not
    the instance — so a bad name fails at config time, not first flush.
    """
    if spec is None or isinstance(spec, DetectorExecutor):
        return
    if not isinstance(spec, str):
        raise ConfigError(
            "executor must be a registered name, a DetectorExecutor "
            f"instance or None, got {type(spec).__name__}"
        )
    name, _, _arg = spec.partition(":")
    if name not in DETECTOR_EXECUTORS:
        raise ConfigError(
            f"unknown detector executor {name!r} "
            f"(registered: {sorted(DETECTOR_EXECUTORS)})"
        )


def make_executor(spec: ExecutorSpec) -> DetectorExecutor:
    """Resolve a spec to an executor instance.

    ``None`` → inline; a :class:`DetectorExecutor` instance is returned
    as-is (and its lifecycle stays with the caller — servers only close
    executors they built themselves); a string is looked up in the
    registry, with an optional ``:arg`` suffix passed to the factory
    (``"thread:4"``, ``"process:2"``).
    """
    validate_executor_spec(spec)
    if spec is None:
        return InlineDetectorExecutor()
    if isinstance(spec, DetectorExecutor):
        return spec
    name, sep, arg = spec.partition(":")
    factory = DETECTOR_EXECUTORS[name]
    return factory(arg) if sep else factory()
