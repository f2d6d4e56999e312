"""Batched observation (§III-F): batch paths must equal per-frame paths.

Every component of the observation pipeline grew a batch entry point —
chunk-map address translation, simulated detection, discriminator matching,
cost lookup, and the environments that compose them. Batching is purely an
overhead optimisation: these tests pin the contract that it never changes a
single observation.
"""

import sys
import threading

import numpy as np
import pytest

from repro.detection.cache import DetectionCache
from repro.detection.simulated import SimulatedDetector
from repro.errors import ChunkingError, DatasetError
from repro.query.cost import CostModel
from repro.query.engine import QueryEngine, VideoSearchEnvironment
from repro.theory.instances import InstancePopulation
from repro.theory.temporal_sim import TemporalEnvironment
from repro.tracking.discriminator import TrackDiscriminator
from repro.utils.rng import spawn_rng
from repro.video.decoder import SimulatedDecoder

from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(make_tiny_dataset(seed=3), seed=3)


def _picks(dataset, count, seed=0):
    sizes = dataset.chunk_map.sizes()
    rng = np.random.default_rng(seed)
    chunks = rng.integers(0, sizes.size, size=count)
    return [(int(c), int(rng.integers(0, sizes[c]))) for c in chunks]


def _assert_observations_equal(obs_a, obs_b):
    assert len(obs_a) == len(obs_b)
    for a, b in zip(obs_a, obs_b):
        assert a.d0 == b.d0
        assert a.d1 == b.d1
        assert a.cost == b.cost
        assert a.d1_origin_chunks == b.d1_origin_chunks
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            assert ra == rb or (
                getattr(ra, "instance_uid", None) == getattr(rb, "instance_uid", None)
                and getattr(ra, "track_id", None) == getattr(rb, "track_id", None)
            )


class TestVideoEnvironmentBatch:
    def test_observe_batch_equals_sequential_observe(self, engine):
        picks = _picks(engine.dataset, 300, seed=1)
        env_seq = engine.environment("car", run_seed=0)
        env_batch = engine.environment("car", run_seed=0)
        obs_seq = [env_seq.observe(c, f) for c, f in picks]
        obs_batch = env_batch.observe_batch(picks)
        _assert_observations_equal(obs_seq, obs_batch)

    def test_observe_batch_folds_state_sequentially(self, engine):
        """A track created early in a batch must dedup later batch frames:
        observing one chunk's frames twice in a single huge batch."""
        sizes = engine.dataset.chunk_map.sizes()
        picks = [(0, f) for f in range(int(sizes[0]))] * 2
        env_a = engine.environment("car", run_seed=1)
        env_b = engine.environment("car", run_seed=1)
        obs_a = [env_a.observe(c, f) for c, f in picks]
        obs_b = env_b.observe_batch(picks)
        _assert_observations_equal(obs_a, obs_b)

    def test_observe_batch_empty(self, engine):
        assert engine.environment("car").observe_batch([]) == []

    def test_split_batches_equal_one_batch(self, engine):
        picks = _picks(engine.dataset, 120, seed=2)
        env_one = engine.environment("bicycle", run_seed=2)
        env_two = engine.environment("bicycle", run_seed=2)
        obs_one = env_one.observe_batch(picks)
        obs_two = env_two.observe_batch(picks[:47]) + env_two.observe_batch(
            picks[47:]
        )
        _assert_observations_equal(obs_one, obs_two)


class TestTemporalEnvironmentBatch:
    def _env(self):
        population = InstancePopulation.place(
            150, 60_000, 250, spawn_rng(11, "pop"), skew_fraction=1 / 8
        )
        return TemporalEnvironment.with_even_chunks(population, 12)

    def test_observe_batch_equals_sequential_observe(self):
        env_a, env_b = self._env(), self._env()
        sizes = env_a.chunk_sizes()
        rng = np.random.default_rng(5)
        picks = [
            (int(c), int(rng.integers(0, sizes[c])))
            for c in rng.integers(0, sizes.size, 500)
        ]
        obs_a = [env_a.observe(c, f) for c, f in picks]
        obs_b = env_b.observe_batch(picks)
        _assert_observations_equal(obs_a, obs_b)

    def test_observe_batch_bounds_checked(self):
        env = self._env()
        with pytest.raises(DatasetError):
            env.observe_batch([(0, 10**9)])
        with pytest.raises(DatasetError):
            env.observe_batch([(999, 0)])

    def test_observe_batch_empty(self):
        assert self._env().observe_batch([]) == []


_FRAMES = list(range(0, 1200, 7))
#: ``(videos, frames)`` call shapes over the tiny dataset's two
#: 1200-frame videos.
DETECT_SHAPES = {
    "one-video": ([0] * len(_FRAMES), _FRAMES),
    "interleaved": ([i % 2 for i in range(len(_FRAMES))], _FRAMES[::-1]),
    "duplicated": ([0, 1, 0, 0, 1], [300, 300, 300, 301, 300]),
    "out-of-range": ([0, 1, 1, 0], [-1, 1200, 5000, 600]),
}


class TestDetectorBatch:
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("class_filter", ["bicycle", "car", "dog", None, "zebra"])
    @pytest.mark.parametrize("shape", sorted(DETECT_SHAPES))
    def test_detect_batch_equals_per_frame(self, engine, shape, class_filter, cached):
        world = engine.dataset.world
        assert world.class_names() == ["bicycle", "car", "dog"]
        videos, frames = DETECT_SHAPES[shape]
        detector_a = SimulatedDetector(world, seed=9)
        detector_b = SimulatedDetector(
            world, seed=9, cache=DetectionCache() if cached else None
        )
        singles = [
            detector_a.detect(v, f, class_filter=class_filter)
            for v, f in zip(videos, frames)
        ]
        batched = detector_b.detect_batch(videos, frames, class_filter=class_filter)
        assert singles == batched
        assert detector_a.frames_processed == detector_b.frames_processed
        assert (detector_a.detect_calls, detector_b.detect_calls) == (len(frames), 1)

    def test_threads_racing_the_lazy_table_agree(self):
        """Threads that race to build a fresh world's visibility table
        detect exactly what one thread detects, and every call counts."""
        videos, frames = DETECT_SHAPES["interleaved"]
        want = SimulatedDetector(make_tiny_dataset(seed=3).world, seed=9).detect_batch(
            videos, frames
        )
        detector = SimulatedDetector(make_tiny_dataset(seed=3).world, seed=9)
        workers = 6
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def work(k):
            barrier.wait(timeout=10)
            results[k] = detector.detect_batch(videos, frames)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == want for result in results)
        assert detector.detect_calls == workers
        assert detector.frames_processed == workers * len(frames)

    def test_detect_batch_no_filter(self, engine):
        detector_a = SimulatedDetector(engine.dataset.world, seed=4)
        detector_b = SimulatedDetector(engine.dataset.world, seed=4)
        frames = list(range(0, 600, 11))
        assert detector_b.detect_batch([0] * len(frames), frames) == [
            detector_a.detect(0, f) for f in frames
        ]

    def test_detect_batch_validates_alignment(self, engine):
        detector = SimulatedDetector(engine.dataset.world, seed=0)
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            detector.detect_batch([0, 0], [1])


class TestDiscriminatorBatch:
    def test_observe_full_batch_equals_sequential(self, engine):
        world = engine.dataset.world
        detector = SimulatedDetector(world, seed=2)
        frames = list(range(0, 2000, 13))
        detection_lists = [
            detector.detect(0, f, class_filter="car") for f in frames
        ]
        disc_a = TrackDiscriminator(world, seed=5)
        disc_b = TrackDiscriminator(world, seed=5)
        seq = [
            disc_a.observe_full(0, f, dets)
            for f, dets in zip(frames, detection_lists)
        ]
        batched = disc_b.observe_full_batch(
            [0] * len(frames), frames, detection_lists
        )
        assert disc_a.num_tracks == disc_b.num_tracks
        for a, b in zip(seq, batched):
            assert len(a.d0) == len(b.d0)
            assert len(a.d1) == len(b.d1)
            assert [t.track_id for t in a.new_tracks] == [
                t.track_id for t in b.new_tracks
            ]
            assert [t.track_id for t in a.d1_tracks] == [
                t.track_id for t in b.d1_tracks
            ]

    def test_empty_frames_leave_store_untouched(self, engine):
        disc = TrackDiscriminator(engine.dataset.world, seed=1)
        results = disc.observe_full_batch([0, 0, 0], [1, 2, 3], [[], [], []])
        assert disc.num_tracks == 0
        assert all(not r.d0 and not r.d1 for r in results)


class TestChunkMapBatch:
    def test_to_video_frame_batch_equals_scalar(self, engine):
        chunk_map = engine.dataset.chunk_map
        picks = _picks(engine.dataset, 200, seed=8)
        chunks = np.array([c for c, _ in picks])
        withins = np.array([f for _, f in picks])
        videos, frames = chunk_map.to_video_frame_batch(chunks, withins)
        for (chunk, within), video, frame in zip(picks, videos, frames):
            assert chunk_map.to_video_frame(chunk, within) == (video, frame)

    def test_to_video_frame_batch_validates(self, engine):
        chunk_map = engine.dataset.chunk_map
        with pytest.raises(ChunkingError):
            chunk_map.to_video_frame_batch(np.array([0]), np.array([10**9]))
        with pytest.raises(ChunkingError):
            chunk_map.to_video_frame_batch(np.array([-1]), np.array([0]))
        with pytest.raises(ChunkingError):
            chunk_map.to_video_frame_batch(np.array([0, 1]), np.array([0]))


class TestProposeBatch:
    @pytest.mark.parametrize("detailed", [False, True])
    def test_matches_vectorised_translation(self, engine, detailed):
        """Per-pick translation equals the whole-trace array path, and the
        request holds plain ints and floats even for numpy-int picks."""
        env = VideoSearchEnvironment(
            dataset=engine.dataset,
            detector=engine.detector,
            discriminator=TrackDiscriminator(engine.dataset.world, seed=0),
            cost_model=CostModel(detailed=detailed, decoder=SimulatedDecoder()),
            class_name="car",
        )
        picks = [
            (np.int64(c), f) if i % 3 == 0 else (c, np.int64(f)) if i % 3 == 1
            else (c, f)
            for i, (c, f) in enumerate(_picks(engine.dataset, 300, seed=5))
        ]
        request = env.propose_batch(picks)
        videos, frames = engine.dataset.chunk_map.to_video_frame_batch(
            np.array([c for c, _ in picks]), np.array([f for _, f in picks])
        )
        assert request.picks == picks
        assert request.videos == videos.tolist()
        assert request.frames == frames.tolist()
        assert request.context == [
            env.cost_model.sample_cost(v, f)
            for v, f in zip(videos.tolist(), frames.tolist())
        ]
        assert {type(x) for x in request.videos + request.frames} == {int}
        assert {type(cost) for cost in request.context} == {float}
        assert request.class_filter == "car"

    def test_empty(self, engine):
        request = engine.environment("car").propose_batch([])
        assert (request.picks, request.videos, request.frames) == ([], [], [])
        assert request.context == []

    def test_out_of_range_picks_are_typed(self, engine):
        env = engine.environment("car")
        chunk_map = engine.dataset.chunk_map
        last = chunk_map.num_chunks - 1
        for bad in (
            (-1, 0),
            (chunk_map.num_chunks, 0),
            (0, -1),
            (last, int(chunk_map.sizes()[last])),
        ):
            with pytest.raises(ChunkingError):
                env.propose_batch([(0, 0), bad])
