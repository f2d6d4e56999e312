"""Process-parallel experiment execution with serial-identical results.

Every experiment in this library repeats deterministic, independent work:
``repeated_traces`` runs one searcher factory over N run indices,
``sweep_methods`` runs one query under every registered method, and the
figure harnesses iterate (dataset × class × trial) grids. Each unit derives
its randomness from its own index (child ``RngFactory`` streams keyed on the
run index, per-frame detector streams keyed on the frame), so units can
execute in any process in any order and produce byte-identical results —
the only thing parallelism may change is wall-clock time.

:func:`parallel_map` is the one primitive: an order-stable process-parallel
map over picklable tasks built on :class:`concurrent.futures
.ProcessPoolExecutor`. It degrades to a plain serial loop whenever

* the effective job count is 1 (the default — set ``REPRO_JOBS`` or pass
  ``jobs=``/``--jobs`` to opt in),
* there is at most one task,
* the callable does not pickle (e.g. a locally defined closure) — the
  fallback emits a ``RuntimeWarning`` naming the pickling failure, or
* it is already running inside a worker (no nested pools).

The pool comes from :func:`repro.parallel.procs.process_pool`: its
start method follows ``REPRO_MP_CONTEXT`` (else the platform default),
workers exit on their own if the caller dies, and workers mark
themselves via the ``REPRO_IN_WORKER`` environment variable, so nested
``parallel_map`` calls (a parallelised experiment whose cells call
``repeated_traces``) stay serial instead of oversubscribing.

Two shared-memory levers (see :mod:`repro.parallel.shm`) hang off the
pool lifecycle, both result-invariant:

* every :class:`~repro.video.synthetic.SyntheticWorld` reachable from
  the callable and its first task (where every harness in this library
  carries its engine) is published into a named shared-memory segment
  for the duration of the pool: tasks then carry ~100-byte handles
  instead of re-pickled worlds, and workers attach zero-copy views once
  per process. ``parallel_map`` owns the segments — they are unlinked
  when the pool exits, normally or through a worker crash.
* ``--cache shared`` / ``REPRO_CACHE=shared`` (opt-in) routes every engine —
  parent-built and worker-built alike — onto one
  :class:`~repro.parallel.shm.SharedDetectionCache`, so a frame any
  process detected is a cache hit for all of them. ``parallel_map``
  hands the parent's cache to workers through the pool initializer.

Worker processes rebuild datasets/engines on demand through
:func:`dataset_engine`, a bounded process-local memo that honors the
caller's detection-cache policy — on fork-based platforms a parent that
already built the engine shares it with every worker for free.
"""

from __future__ import annotations

import io
import os
import pickle
import warnings
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.sampler import SearchTrace
from repro.errors import ConfigError
from repro.parallel.procs import process_pool
from repro.video.synthetic import SyntheticWorld

__all__ = [
    "clear_dataset_engines",
    "dataset_engine",
    "parallel_map",
    "parallel_sweep_methods",
    "parallel_traces",
    "resolve_jobs",
]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: ``jobs`` if given, else ``REPRO_JOBS``, else 1.

    Always 1 inside a worker process (no nested pools).
    """
    if os.environ.get("REPRO_IN_WORKER") == "1":
        return 1
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from exc
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _shared_cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "").strip() == "shared"


def _adopt_cache(shared_cache) -> None:
    # Engines built inside this worker (dataset_engine with the "shared"
    # policy) must join the parent's memo, not start their own manager.
    os.environ["REPRO_CACHE"] = "shared"
    from repro.parallel.shm import adopt_shared_cache

    adopt_shared_cache(shared_cache)


class _TaskScanner(pickle.Pickler):
    """A pickling probe that records every world the pickle stream visits.

    One dry-run dump answers both pre-flight questions: *does the task
    pickle at all* (the serial-fallback check) and *which synthetic
    worlds would it ship* (the candidates for shared-memory publication).
    Worlds themselves are recorded and then stubbed out of the probe —
    they always pickle (by value or as a shared handle), so serializing
    their megabytes into a discarded buffer would be pure waste.
    """

    def __init__(self, buffer):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.worlds: List[SyntheticWorld] = []

    def reducer_override(self, obj):
        if isinstance(obj, SyntheticWorld):
            if not any(obj is seen for seen in self.worlds):
                self.worlds.append(obj)
            return (int, ())
        return NotImplemented


def _probe_task(
    fn: Callable, item
) -> Tuple[Optional[List[SyntheticWorld]], Optional[BaseException]]:
    """Pickle ``fn`` with one representative item, once.

    Returns ``(worlds, None)`` on success or ``(None, error)`` when the
    task does not pickle. Probing one item instead of the whole task
    list keeps pre-flight peak memory at one task's worth — the full
    list is serialized exactly once, at submit time. The trade-offs are
    deliberate: an item past index 0 that uniquely fails to pickle
    surfaces as a submit-time error instead of a silent serial
    fallback, and worlds reachable only through later items are not
    published (no caller shapes tasks that way — engines ride in ``fn``
    or uniformly in every item).
    """
    scanner = _TaskScanner(io.BytesIO())
    try:
        scanner.dump((fn, item))
    except Exception as exc:
        return None, exc
    return scanner.worlds, None


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    jobs: Optional[int] = None,
) -> List:
    """Order-stable map over ``items``, process-parallel when possible.

    Results arrive in item order regardless of completion order, so for a
    deterministic ``fn`` the output is element-wise identical to
    ``[fn(item) for item in items]``. Falls back to exactly that serial
    loop when parallelism is off, unavailable, or ``fn`` cannot be
    pickled (with a ``RuntimeWarning`` naming what failed); a worker
    exception propagates to the caller either way.

    Synthetic worlds travel over shared memory instead of being
    re-pickled per task. The pool owns any segments it publishes: they
    are unlinked on normal completion, on error, and on worker crash
    alike.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    worlds, pickle_error = _probe_task(fn, items[0])
    if pickle_error is not None:
        warnings.warn(
            f"parallel_map: running {len(items)} tasks serially because "
            f"the task does not pickle: {pickle_error!r} (fn={fn!r})",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(item) for item in items]
    from repro.parallel.shm import publish_worlds, shared_detection_cache

    initializer, initargs = None, ()
    if _shared_cache_enabled():
        # Before publishing any world: if the manager fails to start,
        # nothing is published yet and nothing needs unwinding.
        initializer, initargs = _adopt_cache, (shared_detection_cache(),)
    stores = publish_worlds(worlds)
    try:
        with process_pool(min(jobs, len(items)), initializer, initargs) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    finally:
        for store in stores:
            store.close()


# -- repeated searcher runs --------------------------------------------------


def _run_one_trace(make_searcher: Callable, limits: dict, run_idx: int):
    return make_searcher(run_idx).run(**limits)


def parallel_traces(
    make_searcher: Callable[[int], object],
    runs: int,
    *,
    jobs: Optional[int] = None,
    frame_budget: Optional[int] = None,
    result_limit: Optional[int] = None,
    distinct_real_limit: Optional[int] = None,
) -> List[SearchTrace]:
    """Run ``make_searcher(run_idx)`` for each run index, possibly in parallel.

    ``make_searcher`` must return a searcher over a *fresh* environment and
    derive all randomness from ``run_idx`` (the convention every experiment
    module already follows); it must be picklable — a ``functools.partial``
    over a module-level function — for the parallel path to engage.
    Results are gathered in run order, element-wise identical to the
    serial loop.
    """
    limits = dict(
        frame_budget=frame_budget,
        result_limit=result_limit,
        distinct_real_limit=distinct_real_limit,
    )
    return parallel_map(
        partial(_run_one_trace, make_searcher, limits),
        range(runs),
        jobs=jobs,
    )


# -- method sweeps -----------------------------------------------------------


def _run_one_method(engine, query, run_seed: int, kwargs: dict, task):
    method, spec = task
    from repro.core.registry import SEARCH_METHODS, register_searcher

    # Each task carries its SearcherSpec: unpickling it imports the
    # factory's defining module, which on spawn-start platforms (no
    # inherited parent state) is what brings third-party plug-in modules
    # into the worker at all. Modules that self-register on import (the
    # library convention) land in the registry during that import; for
    # any that do not, re-register from the shipped spec.
    if method not in SEARCH_METHODS:
        register_searcher(
            method,
            description=spec.description,
            accepts_extras=spec.accepts_extras,
        )(spec.factory)
    return engine.run(query, method=method, run_seed=run_seed, **kwargs)


def parallel_sweep_methods(
    engine,
    query,
    methods: Optional[Sequence[str]] = None,
    run_seed: int = 0,
    jobs: Optional[int] = None,
    **searcher_kwargs,
) -> Dict[str, object]:
    """Run one query under every method; returns {method: outcome}.

    The parallel counterpart of :func:`repro.experiments.runner
    .sweep_methods` (which delegates here): each method runs in its own
    worker against a pickled copy of the engine, whose world travels as
    a shared-memory handle instead of being re-pickled per method.
    Outcomes are identical to the serial sweep — every run derives only
    from ``(engine seed, method, run_seed)`` — and arrive in method
    order. Third-party methods travel
    as their :class:`~repro.core.registry.SearcherSpec`, so workers on
    spawn-start platforms re-import/re-register them; a plug-in whose
    spec cannot be pickled degrades to the serial sweep.
    """
    from repro.core.registry import SEARCH_METHODS, searcher_spec

    chosen = tuple(methods) if methods is not None else tuple(SEARCH_METHODS)
    tasks = [(method, searcher_spec(method)) for method in chosen]
    outcomes = parallel_map(
        partial(_run_one_method, engine, query, run_seed, searcher_kwargs),
        tasks,
        jobs=jobs,
    )
    return dict(zip(chosen, outcomes, strict=True))


# -- process-local dataset/engine memo ---------------------------------------


#: Distinct (dataset, engine) pairs kept alive per process. Figure
#: harnesses sweep at most the six evaluation datasets at one scale, so a
#: handful of slots covers every real workload while a long multi-dataset
#: sweep can no longer pin one unbounded detection cache per pair forever.
_ENGINE_MEMO_SLOTS = 8


def dataset_engine(name: str, scale: float, seed: int, cache: Optional[str] = None):
    """A process-local ``(dataset, engine)`` for the given parameters.

    Workers use this to amortise dataset construction across their tasks;
    on fork-based platforms (Linux) a parent that called it before fanning
    out shares the built objects with every worker through copy-on-write
    memory.

    ``cache`` is the engine's detection-cache policy (``"unbounded"``,
    ``"lru"``, ``"off"``, ``"shared"``); when omitted it resolves from
    the ``REPRO_CACHE`` environment variable — which the CLI sets from
    ``--cache``/``--shared-cache`` and pool workers inherit — so the
    user's policy reaches worker-built engines instead of silently
    reverting to the default. The policy is part of the memo key: the
    memo is bounded (:data:`_ENGINE_MEMO_SLOTS` entries, LRU) and
    :func:`clear_dataset_engines` empties it on demand.
    """
    if cache is None:
        cache = os.environ.get("REPRO_CACHE", "").strip() or "unbounded"
    return _dataset_engine(name, scale, seed, cache)


@lru_cache(maxsize=_ENGINE_MEMO_SLOTS)
def _dataset_engine(name: str, scale: float, seed: int, cache: str):
    from repro.query.engine import QueryEngine
    from repro.video.datasets import make_dataset

    dataset = make_dataset(name, scale=scale, seed=seed)
    return dataset, QueryEngine(dataset, seed=seed, detection_cache=cache)


def clear_dataset_engines() -> None:
    """Drop this process's ``(dataset, engine)`` memo.

    Frees the datasets and their detection caches between sweeps (pool
    teardown, long-lived services); the next :func:`dataset_engine` call
    rebuilds from scratch.
    """
    _dataset_engine.cache_clear()
