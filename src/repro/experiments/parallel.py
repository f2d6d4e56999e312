"""Process-parallel experiment execution with serial-identical results.

Every experiment in this library repeats deterministic, independent work:
:func:`parallel_traces` runs one searcher factory over N run indices,
:func:`parallel_sweep_methods` runs one query under every registered
method, and the figure harnesses iterate (dataset × class × trial) grids.
Each unit derives its randomness from its own index (child ``RngFactory``
streams keyed on the run index, per-frame detector streams keyed on the
frame), so units can execute in any process in any order and produce
byte-identical results — the only thing parallelism may change is
wall-clock time.

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
``parallel_traces``) stay serial instead of oversubscribing.

Tasks carry their engines, and with them their synthetic worlds. A
built :class:`~repro.video.synthetic.SyntheticWorld` pickles as its
recipe (a few hundred bytes), and each worker rebuilds it once and keeps
it in a per-process memo for every later task. ``--cache shared`` /
``REPRO_CACHE=shared`` (opt-in) routes every engine — parent-built and
worker-built alike — onto one
:class:`~repro.parallel.shm.SharedDetectionCache`, so a frame any
process detected is a cache hit for all of them; ``parallel_map`` hands
the parent's cache to workers through the pool initializer. Both are
result-invariant.

Worker processes rebuild datasets/engines on demand through
:func:`dataset_engine`, a bounded process-local memo that honors the
caller's detection-cache policy — on fork-based platforms a parent that
already built the engine shares it with every worker for free.
"""

from __future__ import annotations

import os
import pickle
import warnings
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.sampler import SearchTrace
from repro.errors import ConfigError
from repro.parallel.procs import process_pool

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

    Only ``fn`` with the first item is probed: an item past index 0
    that alone fails to pickle surfaces as a submit-time error instead
    of a serial fallback, and the probe costs one task's worth of
    memory.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        pickle.dumps((fn, items[0]), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        warnings.warn(
            f"parallel_map: running {len(items)} tasks serially because "
            f"the task does not pickle: {exc!r} (fn={fn!r})",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(item) for item in items]
    initializer, initargs = None, ()
    if _shared_cache_enabled():
        from repro.parallel.shm import shared_detection_cache

        initializer, initargs = _adopt_cache, (shared_detection_cache(),)
    with process_pool(min(jobs, len(items)), initializer, initargs) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]


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
    derive all randomness from ``run_idx``; it must be picklable — a
    ``functools.partial`` over a module-level function such as
    :func:`repro.experiments.runner.make_searcher` — for the parallel path
    to engage. ``jobs`` defaults to the ``REPRO_JOBS`` environment
    variable, else 1. Results are gathered in run order, element-wise
    identical to the serial loop.
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

    ``methods`` defaults to the live ``SEARCH_METHODS`` registry view, so a
    method registered with ``@register_searcher`` — third-party plug-ins
    included — joins every sweep (and the CLI ``compare`` table). With
    ``jobs`` > 1 (default: ``REPRO_JOBS``, else 1) each method runs in its
    own worker against a pickled copy of the engine, whose world travels
    as its recipe and is rebuilt once per worker. Outcomes are identical
    to the serial sweep — every run derives only from ``(engine seed,
    method, run_seed)`` — and arrive in method order. Third-party methods
    travel as their :class:`~repro.core.registry.SearcherSpec`, so workers
    on spawn-start platforms re-import/re-register them; a plug-in whose
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
