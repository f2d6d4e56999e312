"""Detector executors: where a fused ``detect_batch`` call runs.

The batcher fuses many sessions' frame requests into one detector call,
but a fused call executed *inline* blocks the event loop for its whole
duration, so every runnable session stalls while the detector works. A
:class:`DetectorExecutor` decides *where* a fused call runs:

* ``inline`` — synchronously on the event loop (the default). Zero
  overhead, zero overlap; the right choice for fast detectors and for
  tests that want strictly sequential execution.
* ``thread[:N]`` — a ``concurrent.futures.ThreadPoolExecutor`` with
  ``N`` workers (default 1). The loop keeps scheduling sessions while
  the detector runs; real speedups require the detector to release the
  GIL for its heavy lifting (numpy kernels, ONNX Runtime, torch
  inference all do). The worker count is the only bound on how many
  fused calls detect at once; further batches queue in the pool.

Executors change *where* a batch executes, never *what* it computes:
detection is a pure function of ``(seed, video, frame)``, batch
composition is decided on the loop before dispatch, and every executor
returns exactly what an inline ``detect_batch`` call would. Outcomes are
element-wise identical under both (the identity suites prove it for
every registered method).

A custom backend (a GPU or ONNX runtime session) plugs in as an
instance: subclass :class:`DetectorExecutor` and pass the object as
``ServerConfig(executor=...)``.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Union

from repro.errors import ConfigError

__all__ = [
    "DetectorExecutor",
    "ExecutorSpec",
    "InlineDetectorExecutor",
    "ThreadDetectorExecutor",
    "make_executor",
    "validate_executor_spec",
]

#: What ``ServerConfig(executor=...)`` and the CLI accept: ``"inline"``,
#: ``"thread"``, ``"thread:N"``, an executor instance, or None.
ExecutorSpec = Union[str, "DetectorExecutor", None]


class DetectorExecutor:
    """Where a fused ``detect_batch`` call runs.

    Contract: :meth:`submit` (off-loop executors) resolves to — and
    :meth:`run` (inline executors) returns — exactly what
    ``detector.detect_batch(videos, frames, class_filter=...)`` would
    return, with the detector's invocation counters and cache updated as
    an inline call would update them.

    ``off_loop`` tells the batcher which side of the contract applies:
    inline executors run synchronously inside the flush (preserving the
    strictly sequential scheduling every pre-executor test encodes),
    off-loop executors return a future, so detection overlaps session
    CPU work. Pools are created lazily on first use and released by
    :meth:`close`/:meth:`aclose`; both are idempotent, and a closed
    executor may be used again (a fresh pool is created).
    """

    #: Spec name (or a human label for custom instances).
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


#: The accepted specs, as error messages name them.
_ACCEPTED = "None, 'inline', 'thread', 'thread:N' or a DetectorExecutor instance"


def make_executor(spec: ExecutorSpec) -> DetectorExecutor:
    """Resolve a spec to an executor instance.

    ``None`` and ``"inline"`` give an inline executor; ``"thread"`` and
    ``"thread:N"`` a thread executor with one or ``N`` workers. A
    :class:`DetectorExecutor` instance is returned as-is, and its
    lifecycle stays with the caller: servers only close executors they
    built themselves. Anything else raises
    :class:`~repro.errors.ConfigError`. Building an executor allocates
    nothing; its pool starts on first use.
    """
    if spec is None:
        return InlineDetectorExecutor()
    if isinstance(spec, DetectorExecutor):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(
            f"executor must be {_ACCEPTED}, got {type(spec).__name__}"
        )
    name, _, arg = spec.partition(":")
    if name == "inline":
        if arg:
            raise ConfigError(
                f"the inline executor takes no argument (got {arg!r})"
            )
        return InlineDetectorExecutor()
    if name != "thread":
        raise ConfigError(
            f"unknown detector executor {name!r} (accepted: {_ACCEPTED})"
        )
    if not arg:
        return ThreadDetectorExecutor()
    try:
        workers = int(arg)
    except ValueError:
        raise ConfigError(
            f"thread executor argument must be a worker count, got {arg!r}"
        ) from None
    return ThreadDetectorExecutor(max_workers=workers)


def validate_executor_spec(spec: ExecutorSpec) -> None:
    """Raise :class:`~repro.errors.ConfigError` on an unresolvable spec.

    Config validation happens eagerly (``ServerConfig.__post_init__``)
    but executors are built lazily — frozen configs hold the spec, not
    the instance — so a bad spec fails at config time, not first flush.
    """
    make_executor(spec)
