"""One lifecycle for every child process the library starts.

Experiment pools (:func:`repro.experiments.parallel.parallel_map`),
fleet shards and the shared-cache manager all start from the one
``REPRO_MP_CONTEXT`` switch (:func:`mp_context`) and run
:func:`start_child` first, so each exits as soon as its owner is gone:
an owner killed by SIGKILL stops nothing it started.
:func:`stop_process` is the one way to stop a child.

The watch waits on :func:`multiprocessing.parent_process`'s sentinel,
which fires when the owner exits. Comparing ``os.getppid()`` with the
owner's pid would not work: under ``forkserver`` a child's OS parent is
the fork server.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import wait
from multiprocessing.managers import SyncManager
from typing import Callable, Optional

from repro.errors import ConfigError

__all__ = [
    "mp_context",
    "process_pool",
    "start_child",
    "start_manager",
    "stop_process",
]


def mp_context():
    """The ``multiprocessing`` context every child is started from.

    ``REPRO_MP_CONTEXT`` names the start method; unset, the platform
    default applies. An unknown name raises
    :class:`~repro.errors.ConfigError`.
    """
    method = os.environ.get("REPRO_MP_CONTEXT", "").strip() or None
    try:
        return multiprocessing.get_context(method)
    except ValueError as exc:
        raise ConfigError(
            f"unknown multiprocessing start method {method!r} in "
            f"REPRO_MP_CONTEXT (expected one of "
            f"{multiprocessing.get_all_start_methods()})"
        ) from exc


def start_child() -> None:
    """Run first in every child: mark it a worker, exit with the owner.

    The watch thread blocks on the owner's sentinel and calls
    ``os._exit`` when it fires: no atexit hooks, no GC, because an
    orphan has nothing worth flushing.
    """
    os.environ["REPRO_IN_WORKER"] = "1"
    sentinel = multiprocessing.parent_process().sentinel

    def _watch() -> None:
        wait([sentinel])
        os._exit(2)

    threading.Thread(
        target=_watch, name="repro-orphan-watch", daemon=True
    ).start()


def _start_pool_worker(initializer: Optional[Callable], initargs: tuple) -> None:
    start_child()
    if initializer is not None:
        initializer(*initargs)


def process_pool(
    max_workers: int,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """A ``ProcessPoolExecutor`` whose workers run :func:`start_child`
    before ``initializer(*initargs)``."""
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=mp_context(),
        initializer=_start_pool_worker,
        initargs=(initializer, initargs),
    )


def start_manager() -> SyncManager:
    """A started ``SyncManager`` server process that exits with its owner."""
    manager = SyncManager(ctx=mp_context())
    manager.start(initializer=start_child)
    return manager


async def _exited(process, seconds: float) -> bool:
    """Wait up to ``seconds`` without blocking the loop; True once the
    child is dead."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while process.is_alive() and loop.time() < deadline:
        # multiprocessing exposes no awaitable for child death; the
        # 20 ms poll bounds how late a stop notices.
        await asyncio.sleep(0.02)  # noqa: ASYNC110
    return not process.is_alive()


async def stop_process(process, grace: float = 0.0) -> None:
    """Stop one child and reap it, without blocking the event loop.

    Waits up to ``grace`` seconds for the child to exit on its own,
    then sends SIGTERM, then SIGKILL if it is still alive after 2 s.
    The final ``join`` collects its exit status, so no zombie is left.
    """
    if not await _exited(process, grace):
        process.terminate()
        if not await _exited(process, 2.0):
            process.kill()
            await _exited(process, 5.0)
    process.join(timeout=1)
