"""Tests for detection memoization (DetectionCache) and its engine wiring.

The load-bearing property: detection is a pure function of
``(seed, video, frame)``, so a cache may change wall-clock time but never
any output — traces with the cache on must be byte-identical to traces with
it off, including through a session checkpoint/restore cycle (checkpoints
must not carry cache contents).
"""

import pickle

import pytest

from repro.detection.cache import DetectionCache, make_detection_cache
from repro.detection.simulated import SimulatedDetector
from repro.errors import ConfigError
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.query.session import QuerySession

from tests.conftest import make_tiny_dataset


def _det_key(detection):
    return (
        detection.video,
        detection.frame,
        tuple(detection.box.as_array()),
        detection.class_name,
        detection.score,
        detection.instance_uid,
    )


def _trace_tuple(trace):
    return (
        trace.chunks.tolist(),
        trace.frames.tolist(),
        trace.d0s.tolist(),
        trace.d1s.tolist(),
        trace.costs.tolist(),
        [(r.video, r.frame, r.score, r.instance_uid) for r in trace.results],
    )


class TestDetectionCacheUnit:
    def test_hit_miss_counters(self):
        cache = DetectionCache()
        assert cache.get((0, 1, None)) is None
        cache.put((0, 1, None), ["a"])
        assert cache.get((0, 1, None)) == ["a"]
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert info.hit_rate == 0.5

    def test_get_returns_a_copy(self):
        cache = DetectionCache()
        cache.put((0, 0, None), [1, 2])
        got = cache.get((0, 0, None))
        got.append(3)
        assert cache.get((0, 0, None)) == [1, 2]

    def test_entries_are_tuples_and_reads_are_fresh_lists(self):
        """Entries are stored as tuples, so every frame without a detection
        shares the empty tuple; get() and snapshot() still hand out fresh
        lists, which callers may mutate without touching the cache."""
        cache = DetectionCache()
        stored = ["a"]
        cache.put(("s", 0, 0, None), stored)
        cache.put(("s", 0, 1, None), [])
        cache.put(("s", 0, 2, None), [])
        stored.append("b")
        assert cache._store[("s", 0, 1, None)] is cache._store[("s", 0, 2, None)]
        got = cache.get(("s", 0, 0, None))
        assert type(got) is list and got == ["a"]
        got.append("c")
        snapshot = cache.snapshot("s")
        assert all(type(value) is list for value in snapshot.values())
        snapshot[("s", 0, 1, None)].append("d")
        assert cache.get(("s", 0, 0, None)) == ["a"]
        assert cache.get(("s", 0, 1, None)) == []

    def test_lru_evicts_least_recently_used(self):
        cache = DetectionCache(policy="lru", capacity=2)
        cache.put((0, 0, None), ["a"])
        cache.put((0, 1, None), ["b"])
        assert cache.get((0, 0, None)) == ["a"]  # touch 0 -> 1 is LRU
        cache.put((0, 2, None), ["c"])
        assert cache.get((0, 1, None)) is None
        assert cache.get((0, 0, None)) == ["a"]
        assert len(cache) == 2

    def test_clear_resets(self):
        cache = DetectionCache()
        cache.put((0, 0, None), [])
        cache.get((0, 0, None))
        cache.clear()
        assert len(cache) == 0
        assert cache.info().requests == 0

    def test_make_detection_cache_specs(self):
        assert make_detection_cache(None) is None
        assert make_detection_cache("off") is None
        assert make_detection_cache("unbounded").policy == "unbounded"
        lru = make_detection_cache("lru", capacity=7)
        assert (lru.policy, lru.capacity) == ("lru", 7)
        existing = DetectionCache()
        assert make_detection_cache(existing) is existing
        with pytest.raises(ConfigError):
            make_detection_cache("bogus")
        with pytest.raises(ConfigError):
            make_detection_cache(3.14)
        with pytest.raises(ConfigError):
            DetectionCache(policy="lru", capacity=0)

    def test_pickle_drops_contents_keeps_config(self):
        cache = DetectionCache(policy="lru", capacity=11)
        cache.put((0, 0, None), ["x"])
        cache.get((0, 0, None))
        revived = pickle.loads(pickle.dumps(cache))
        assert (revived.policy, revived.capacity) == ("lru", 11)
        assert len(revived) == 0
        assert revived.info().requests == 0


class TestPerScopeBreakdown:
    def test_per_scope_hits_and_misses(self):
        cache = DetectionCache()
        cache.get(("scopeA", 0, 1, None))  # miss
        cache.put(("scopeA", 0, 1, None), ["a"])
        cache.get(("scopeA", 0, 1, None))  # hit
        cache.get(("scopeB", 0, 1, None))  # miss (other detector)
        info = cache.cache_info()
        assert set(info.per_scope) == {"scopeA", "scopeB"}
        assert (info.per_scope["scopeA"].hits,
                info.per_scope["scopeA"].misses) == (1, 1)
        assert info.per_scope["scopeA"].hit_rate == 0.5
        assert (info.per_scope["scopeB"].hits,
                info.per_scope["scopeB"].misses) == (0, 1)
        # Totals equal the sum of the breakdown.
        assert info.hits == sum(s.hits for s in info.per_scope.values())
        assert info.misses == sum(s.misses for s in info.per_scope.values())

    def test_contains_probe_leaves_counters_alone(self):
        cache = DetectionCache()
        cache.put(("s", 0, 1, None), ["a"])
        assert ("s", 0, 1, None) in cache
        assert ("s", 9, 9, None) not in cache
        info = cache.info()
        assert (info.hits, info.misses) == (0, 0)
        assert info.per_scope == {}

    def test_clear_and_pickle_reset_scope_counters(self):
        cache = DetectionCache()
        cache.get(("s", 0, 0, None))
        cache.clear()
        assert cache.info().per_scope == {}
        cache.get(("s", 0, 0, None))
        revived = pickle.loads(pickle.dumps(cache))
        assert revived.info().per_scope == {}

    def test_counters_consistent_under_interleaved_threads(self):
        """The satellite's safety requirement: threaded lookups never lose
        or double-count (the lock makes read-modify-write atomic)."""
        import threading

        cache = DetectionCache(policy="lru", capacity=64)
        per_thread = 500

        def worker(scope):
            for i in range(per_thread):
                key = (scope, 0, i % 8, None)
                if cache.get(key) is None:
                    cache.put(key, [i])

        threads = [
            threading.Thread(target=worker, args=(f"scope{t % 2}",))
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = cache.info()
        assert info.requests == 4 * per_thread
        assert sum(s.requests for s in info.per_scope.values()) == info.requests


class TestScopedKeys:
    """Every cache is scoped: one instance may serve several detectors."""

    def test_one_cache_shared_by_two_engines_never_collides(self):
        cache = DetectionCache()
        dataset_a = make_tiny_dataset(seed=0)
        dataset_b = make_tiny_dataset(seed=9)
        engine_a = QueryEngine(dataset_a, seed=0, detection_cache=cache)
        engine_b = QueryEngine(dataset_b, seed=9, detection_cache=cache)
        assert engine_a.detector.cache_scope() != engine_b.detector.cache_scope()
        frames = list(range(0, 400, 7))
        for engine, dataset, seed in (
            (engine_a, dataset_a, 0),
            (engine_b, dataset_b, 9),
        ):
            got = engine.detector.detect_batch([0] * len(frames), frames)
            reference = SimulatedDetector(dataset.world, seed=seed)
            want = reference.detect_batch([0] * len(frames), frames)
            assert [[_det_key(d) for d in ds] for ds in got] == [
                [_det_key(d) for d in ds] for ds in want
            ]

    def test_scope_is_stable_across_pickling(self):
        dataset = make_tiny_dataset(seed=3)
        detector = SimulatedDetector(dataset.world, seed=3)
        clone = pickle.loads(pickle.dumps(detector))
        assert clone.cache_scope() == detector.cache_scope()


class TestDetectorWithCache:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_tiny_dataset(seed=5)

    def test_cached_detections_identical(self, dataset):
        plain = SimulatedDetector(dataset.world, seed=3)
        cached = SimulatedDetector(dataset.world, seed=3, cache=DetectionCache())
        frames = list(range(0, 1200, 7))
        for _ in range(2):  # second pass: all hits
            for frame in frames:
                a = plain.detect(0, frame)
                b = cached.detect(0, frame)
                assert [_det_key(d) for d in a] == [_det_key(d) for d in b]
        assert cached.cache.hits == len(frames)

    def test_batch_mixed_hits_and_misses(self, dataset):
        cached = SimulatedDetector(dataset.world, seed=3, cache=DetectionCache())
        plain = SimulatedDetector(dataset.world, seed=3)
        warm = list(range(0, 300, 10))
        cached.detect_batch([0] * len(warm), warm)
        mixed = list(range(0, 600, 10))  # half warm, half cold
        got = cached.detect_batch([0] * len(mixed), mixed)
        want = plain.detect_batch([0] * len(mixed), mixed)
        for a, b in zip(want, got):
            assert [_det_key(d) for d in a] == [_det_key(d) for d in b]
        assert cached.cache.hits == len(warm)

    def test_class_filter_keyed_separately(self, dataset):
        cached = SimulatedDetector(dataset.world, seed=3, cache=DetectionCache())
        all_dets = cached.detect(0, 50)
        cars = cached.detect(0, 50, class_filter="car")
        assert cached.cache.misses == 2  # distinct keys
        assert [d for d in all_dets if d.class_name == "car"] == cars

    def test_duplicate_picks_in_one_batch_generate_once(self, dataset):
        """Duplicates within a batch share one lookup and one generation."""
        cached = SimulatedDetector(dataset.world, seed=3, cache=DetectionCache())
        plain = SimulatedDetector(dataset.world, seed=3)
        frames = [40, 41, 40, 42, 41, 40]
        got = cached.detect_batch([0] * len(frames), frames)
        want = plain.detect_batch([0] * len(frames), frames)
        for a, b in zip(want, got):
            assert [_det_key(d) for d in a] == [_det_key(d) for d in b]
        # Three distinct frames -> exactly three misses, zero double-counts.
        info = cached.cache.info()
        assert (info.misses, info.size) == (3, 3)
        # Duplicate outputs are independent lists (mutating one copy must
        # not alias another).
        assert got[0] is not got[2]

    def test_frames_processed_counts_requests(self, dataset):
        cached = SimulatedDetector(dataset.world, seed=3, cache=DetectionCache())
        cached.detect(0, 0)
        cached.detect(0, 0)
        assert cached.frames_processed == 2


class TestEngineCacheEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_tiny_dataset(seed=9)

    def test_trace_identical_cache_on_off(self, dataset):
        query = DistinctObjectQuery("car", limit=12)
        on = QueryEngine(dataset, seed=4, detection_cache="unbounded")
        off = QueryEngine(dataset, seed=4, detection_cache="off")
        assert off.cache_info() is None
        for method in ("exsample", "random"):
            t_on = on.run(query, method=method).trace
            t_off = off.run(query, method=method).trace
            assert _trace_tuple(t_on) == _trace_tuple(t_off)
        info = on.cache_info()
        assert info is not None and info.requests > 0

    def test_repeated_runs_hit_the_cache(self, dataset):
        engine = QueryEngine(dataset, seed=4)
        query = DistinctObjectQuery("car", limit=8)
        first = engine.run(query, method="exsample")
        hits_before = engine.cache_info().hits
        second = engine.run(query, method="exsample")
        assert _trace_tuple(first.trace) == _trace_tuple(second.trace)
        # The second identical run re-detects nothing.
        assert engine.cache_info().hits >= hits_before + second.trace.num_samples

    def test_lru_engine_spec(self, dataset):
        engine = QueryEngine(dataset, seed=4, detection_cache="lru")
        engine.run(DistinctObjectQuery("car", limit=3))
        assert engine.cache_info().policy == "lru"


class TestCheckpointDoesNotLeakCache:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_tiny_dataset(seed=11)

    def test_restore_starts_cold_and_finishes_identically(self, dataset):
        query = DistinctObjectQuery("car", limit=15)

        def fresh_session():
            engine = QueryEngine(dataset, seed=2, detection_cache="unbounded")
            return engine.session(query, method="exsample")

        # Uninterrupted reference run.
        reference = fresh_session().run_to_completion().trace

        # Warm the cache, checkpoint mid-run, restore in "another process".
        session = fresh_session()
        for _ in range(3):
            session.step()
        detector = session._run.searcher.env.detector
        assert detector.cache is not None and len(detector.cache) > 0
        blob = session.checkpoint()

        restored = QuerySession.restore(blob)
        restored_cache = restored._run.searcher.env.detector.cache
        # Same configuration, no smuggled contents or counters.
        assert restored_cache is not None
        assert restored_cache.policy == "unbounded"
        assert len(restored_cache) == 0
        assert restored_cache.info().requests == 0

        restored.run_to_completion()
        assert _trace_tuple(restored.trace()) == _trace_tuple(reference)

    def test_checkpoint_size_independent_of_cache_fill(self, dataset):
        query = DistinctObjectQuery("car", limit=15)
        engine = QueryEngine(dataset, seed=2, detection_cache="unbounded")
        session = engine.session(query, method="exsample")
        session.step()
        lean = len(session.checkpoint())
        # Stuff the shared cache with detections for many unrelated frames.
        engine.detector.detect_batch([0] * 400, list(range(400)))
        stuffed = len(session.checkpoint())
        assert stuffed <= lean * 1.05 + 1024


class TestSnapshotPersistence:
    """snapshot(): the counter-free copy the repository index harvests rows
    through, optionally restricted to one scope."""

    def test_snapshot_filters_by_scope(self):
        cache = DetectionCache()
        cache.put(("s1", 0, 1, None), ["a"])
        cache.put(("s2", 0, 1, None), ["b"])
        assert set(cache.snapshot()) == {("s1", 0, 1, None), ("s2", 0, 1, None)}
        assert set(cache.snapshot("s1")) == {("s1", 0, 1, None)}
        # Reading snapshots never perturbs the statistics.
        assert cache.info().requests == 0
