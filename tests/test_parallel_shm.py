"""Tests for what crosses into worker processes, and the shared cache.

The contracts under test:

* ``parallel_traces``/``parallel_sweep_methods`` stay element-wise
  identical to serial under the fork, spawn and forkserver start
  methods (the CI default fork would otherwise mask spawn-only
  serialization bugs);
* a built world travels to a spawn pool as its recipe, and each worker
  rebuilds it at most once however many tasks it runs;
* a worker crash surfaces as ``BrokenProcessPool``;
* one :class:`SharedDetectionCache` serves every process of a pool.
"""

import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from repro.detection.cache import make_detection_cache
from repro.experiments.parallel import (
    dataset_engine,
    parallel_map,
    parallel_sweep_methods,
    parallel_traces,
)
from repro.parallel.shm import SharedDetectionCache
from repro.query.query import DistinctObjectQuery

from tests.conftest import make_tiny_dataset, traces_equal

# -- identity under fork and spawn -------------------------------------------


def _make_dataset_searcher(engine, class_name, run_idx):
    env = engine.environment(class_name, run_seed=run_idx)
    return engine.make_searcher("exsample", env, run_seed=run_idx)


def _sweep_engine():
    _, engine = dataset_engine("dashcam", 0.02, 13)
    return engine


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_parallel_traces_identical_under_start_method(start_method, monkeypatch):
    engine = _sweep_engine()
    make = partial(_make_dataset_searcher, engine, "person")
    serial = parallel_traces(make, 3, jobs=1, frame_budget=300)
    monkeypatch.setenv("REPRO_MP_CONTEXT", start_method)
    parallel = parallel_traces(make, 3, jobs=2, frame_budget=300)
    assert len(serial) == len(parallel) == 3
    for a, b in zip(serial, parallel):
        assert traces_equal(a, b)


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_parallel_sweep_identical_under_start_method(start_method, monkeypatch):
    engine = _sweep_engine()
    query = DistinctObjectQuery("person", limit=6)
    serial = parallel_sweep_methods(engine, query, jobs=1)
    monkeypatch.setenv("REPRO_MP_CONTEXT", start_method)
    parallel = parallel_sweep_methods(engine, query, jobs=2)
    assert list(serial) == list(parallel)
    for method in serial:
        assert traces_equal(serial[method].trace, parallel[method].trace)


# -- the world as a recipe ---------------------------------------------------

#: Every world a task saw in this process, held strongly so that no two
#: distinct worlds can share an ``id``.
_SEEN_WORLDS = []


def _count_worlds(world, item):
    if not any(seen is world for seen in _SEEN_WORLDS):
        _SEEN_WORLDS.append(world)
    return os.getpid(), len(_SEEN_WORLDS), world.num_instances


def test_spawn_pool_rebuilds_the_world_once_per_worker(monkeypatch):
    world = make_tiny_dataset(seed=8).world
    assert len(pickle.dumps(world)) < 2048
    monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
    results = parallel_map(partial(_count_worlds, world), range(12), jobs=2)
    assert len(results) == 12
    assert {n for _, _, n in results} == {world.num_instances}
    worlds_per_worker = {}
    for pid, seen, _ in results:
        assert pid != os.getpid()
        worlds_per_worker[pid] = max(worlds_per_worker.get(pid, 0), seen)
    assert 1 <= len(worlds_per_worker) <= 2
    assert set(worlds_per_worker.values()) == {1}


# -- a worker crash ----------------------------------------------------------


def _crash_with_world(world, item):
    os._exit(17)


def test_worker_crash_raises_broken_process_pool():
    world = make_tiny_dataset(seed=6).world
    with pytest.raises(BrokenProcessPool):
        parallel_map(partial(_crash_with_world, world), range(4), jobs=2)


# -- the cross-process detection memo ----------------------------------------


def _observe_with_engine(engine, run_seed):
    sizes = engine.dataset.chunk_map.sizes()
    rng = np.random.default_rng(0)
    picks = [
        (int(c), int(rng.integers(0, sizes[c])))
        for c in rng.integers(0, sizes.size, 48)
    ]
    observations = engine.environment("person", run_seed=run_seed).observe_batch(picks)
    info = engine.cache_info()
    hits, misses = (info.hits, info.misses) if info is not None else (0, 0)
    return [(o.d0, o.d1, o.cost) for o in observations], hits, misses


def _touch_and_publish(cache, key):
    """Worker body: one warm hit, one cold miss, publish, report pid."""
    cache.get(key)  # row written by the parent: a cross-process hit
    cache.get(("scope-cold",) + tuple(key[1:]))  # nothing there: a miss
    cache.publish_counters()
    return os.getpid()


class TestSharedCacheCounterAggregation:
    """publish_counters/aggregate_info: the fleet-stats counter plumbing."""

    def test_aggregate_sums_counters_of_every_publisher(self):
        cache = SharedDetectionCache()
        key = ("scope-warm", 0, 1)
        cache.put(key, ["row"])
        parallel_map(partial(_touch_and_publish, cache), [key, key], jobs=2)
        info = cache.aggregate_info()
        assert info.policy == "shared"
        # Two probes, each 1 warm hit + 1 cold miss; the parent's own
        # counters (published during aggregation) add zero.
        assert (info.hits, info.misses) == (2, 2)
        assert info.per_scope["scope-warm"].hits == 2
        assert info.per_scope["scope-warm"].misses == 0
        assert info.per_scope["scope-cold"].misses == 2
        # Local info() stays this-process-only by design.
        assert (cache.info().hits, cache.info().misses) == (0, 0)
        cache.clear()

    def test_counter_rows_are_not_cache_entries(self):
        cache = SharedDetectionCache()
        key = ("scope", 0, 1)
        cache.put(key, ["row"])
        cache.get(key)
        cache.publish_counters()
        assert len(cache) == 1
        assert cache.info().size == 1
        assert cache.aggregate_info().size == 1
        cache.clear()

    def test_clone_publishers_keep_distinct_counter_rows(self):
        """Every cache instance publishes under its own token, so two
        publishers in one process (e.g. re-pickled per pool task) never
        clobber each other's rows."""
        cache = SharedDetectionCache()
        key = ("scope", 0, 1)
        cache.put(key, ["row"])
        cache.get(key)
        clone = pickle.loads(pickle.dumps(cache))
        clone.get(key)
        clone.get(("scope-other", 0, 1))
        clone.publish_counters()
        info = cache.aggregate_info()
        assert (info.hits, info.misses) == (2, 1)
        assert info.per_scope["scope"].hits == 2
        assert info.per_scope["scope-other"].misses == 1
        cache.clear()


class TestSharedDetectionCache:
    def test_local_semantics_match_detection_cache(self):
        cache = SharedDetectionCache()
        key = (0, 10, "person")
        assert cache.get(key) is None
        cache.put(key, ["row-a", "row-b"])
        hit = cache.get(key)
        assert hit == ["row-a", "row-b"]
        hit.append("mutated")  # a copy, like DetectionCache.get
        assert cache.get(key) == ["row-a", "row-b"]
        info = cache.info()
        assert (info.policy, info.hits, info.misses) == ("shared", 2, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.info().requests == 0

    def test_pickle_ships_the_store_not_the_counters(self):
        cache = SharedDetectionCache()
        cache.put((0, 1, None), ["row"])
        cache.get((0, 1, None))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.hits == clone.misses == 0
        assert clone.get((0, 1, None)) == ["row"]  # same shared store
        cache.clear()

    def test_make_detection_cache_shared_spec(self):
        cache = make_detection_cache("shared")
        assert isinstance(cache, SharedDetectionCache)
        assert make_detection_cache("shared") is cache  # process singleton
        assert make_detection_cache(cache) is cache

    def test_one_store_serves_several_detectors_without_collisions(self):
        """Keys are namespaced by detector identity (seed/profile/world).

        A multi-dataset sweep's workers all adopt one shared cache, so
        detectors over *different* worlds — which reuse the same
        ``(video, frame)`` coordinates — must never read each other's
        rows. Regression test: un-scoped keys made fig5 crash on
        cross-world uids.
        """
        from repro.query.engine import QueryEngine
        from repro.video.datasets import make_dataset

        cache = SharedDetectionCache()
        engines = {}
        for name, seed in (("dashcam", 5), ("amsterdam", 5), ("dashcam", 6)):
            dataset = make_dataset(name, scale=0.02, seed=seed)
            engines[(name, seed)] = QueryEngine(
                dataset, seed=seed, detection_cache=cache
            )
        for (name, seed), engine in engines.items():
            reference = QueryEngine(
                make_dataset(name, scale=0.02, seed=seed),
                seed=seed,
                detection_cache="off",
            )
            for run_seed in (0, 1):  # second lap reads the shared rows
                got = _observe_with_engine(engine, run_seed)[0]
                assert got == _observe_with_engine(reference, run_seed)[0]
        scopes = {
            engine.detector.cache_scope() for engine in engines.values()
        }
        assert len(scopes) == len(engines)
        cache.clear()

    def test_fresh_workers_hit_entries_from_previous_pool(self):
        from repro.query.engine import QueryEngine
        from repro.video.datasets import make_dataset

        dataset = make_dataset("dashcam", scale=0.02, seed=5)
        engine = QueryEngine(dataset, seed=5, detection_cache="shared")
        engine.detection_cache.clear()
        fn = partial(_observe_with_engine, engine)
        first = parallel_map(fn, [0, 1], jobs=2)
        second = parallel_map(fn, [0, 1], jobs=2)
        assert [obs for obs, _, _ in first] == [obs for obs, _, _ in second]
        # Second pool's workers start with cold local counters; their hits
        # can only come from entries another process wrote to the store.
        assert all(hits > 0 and misses == 0 for _, hits, misses in second)
        # Serial reference: identical observations without any sharing.
        reference = QueryEngine(
            make_dataset("dashcam", scale=0.02, seed=5), seed=5, detection_cache="off"
        )
        for run_seed, (observations, _, _) in enumerate(first):
            assert _observe_with_engine(reference, run_seed)[0] == observations
        engine.detection_cache.clear()
