"""Tests for the simulated object detector."""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.detections import Detection, filter_class, filter_score
from repro.detection.simulated import (
    PERFECT_PROFILE,
    DetectorProfile,
    SimulatedDetector,
)
from repro.errors import ConfigError
from repro.video.geometry import BoundingBox

from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset(seed=3)


def _detections(detections):
    return [
        (d.video, d.frame, d.box, d.class_name, d.score, d.instance_uid)
        for d in detections
    ]


class TestDeterminism:
    def test_same_frame_identical(self, dataset):
        detector = SimulatedDetector(dataset.world, seed=0)
        a = detector.detect(0, 100)
        b = detector.detect(0, 100)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.box == db.box
            assert da.score == db.score
            assert da.instance_uid == db.instance_uid

    def test_different_seeds_differ(self, dataset):
        frames_with_objects = [
            f for f in range(0, 1000, 10)
            if dataset.world.visible(0, f)
        ]
        frame = frames_with_objects[0]
        a = SimulatedDetector(dataset.world, seed=0).detect(0, frame)
        b = SimulatedDetector(dataset.world, seed=99).detect(0, frame)
        assert [d.score for d in a] != [d.score for d in b]


class TestPerfectProfile:
    def test_detects_exactly_ground_truth(self, dataset):
        detector = SimulatedDetector(dataset.world, profile=PERFECT_PROFILE, seed=0)
        for frame in range(0, 1200, 37):
            detections = detector.detect(0, frame)
            visible = dataset.world.visible(0, frame)
            assert {d.instance_uid for d in detections} == {
                i.uid for i in visible
            }

    def test_boxes_match_ground_truth(self, dataset):
        detector = SimulatedDetector(dataset.world, profile=PERFECT_PROFILE, seed=0)
        for frame in range(0, 1200, 101):
            for det in detector.detect(0, frame):
                inst = dataset.world.instances[det.instance_uid]
                gt = inst.box_at(frame).clipped(640, 480)
                assert det.box.iou(gt) > 0.99


class TestNoiseModel:
    def test_miss_rate_statistical(self, dataset):
        profile = DetectorProfile(
            miss_rate=0.5, small_box_penalty=0.0,
            false_positives_per_frame=0.0, jitter=0.0,
        )
        detector = SimulatedDetector(dataset.world, profile=profile, seed=1)
        total_visible = 0
        total_detected = 0
        for frame in range(0, 1200, 3):
            visible = dataset.world.visible(0, frame)
            total_visible += len(visible)
            total_detected += len(detector.detect(0, frame))
        assert total_visible > 100
        rate = total_detected / total_visible
        assert 0.4 < rate < 0.6

    def test_false_positive_rate_statistical(self, dataset):
        profile = DetectorProfile(
            miss_rate=0.0, small_box_penalty=0.0,
            false_positives_per_frame=0.5, jitter=0.0,
        )
        detector = SimulatedDetector(dataset.world, profile=profile, seed=2)
        fp_count = 0
        frames = 400
        for frame in range(frames):
            fp_count += sum(
                1 for d in detector.detect(0, frame) if d.is_false_positive
            )
        assert fp_count / frames == pytest.approx(0.5, rel=0.3)

    def test_jitter_bounded(self, dataset):
        profile = DetectorProfile(
            miss_rate=0.0, small_box_penalty=0.0,
            false_positives_per_frame=0.0, jitter=0.03,
        )
        detector = SimulatedDetector(dataset.world, profile=profile, seed=3)
        for frame in range(0, 1200, 53):
            for det in detector.detect(0, frame):
                gt = dataset.world.instances[det.instance_uid].box_at(frame)
                assert det.box.iou(gt) > 0.5

    def test_scores_in_unit_interval(self, dataset):
        detector = SimulatedDetector(dataset.world, seed=4)
        for frame in range(0, 1200, 37):
            for det in detector.detect(0, frame):
                assert 0.0 <= det.score <= 1.0

    def test_small_boxes_missed_more(self, dataset):
        """The small-box penalty must push the miss probability up."""
        profile = DetectorProfile(miss_rate=0.1, small_box_penalty=0.5)
        detector = SimulatedDetector(dataset.world, profile=profile, seed=0)
        small = detector._miss_probability(BoundingBox(0, 0, 20, 20))
        large = detector._miss_probability(BoundingBox(0, 0, 300, 300))
        assert small > large
        assert large == pytest.approx(0.1)


class TestInterface:
    def test_class_filter(self, dataset):
        detector = SimulatedDetector(dataset.world, profile=PERFECT_PROFILE, seed=0)
        for frame in range(0, 1200, 61):
            only_cars = detector.detect(0, frame, class_filter="car")
            assert all(d.class_name == "car" for d in only_cars)

    def test_frames_processed_counter(self, dataset):
        detector = SimulatedDetector(dataset.world, seed=0)
        detector.detect(0, 0)
        detector.detect(0, 1)
        assert detector.frames_processed == 2

    def test_pickle_never_carries_per_video_memo(self, dataset):
        """Per-video constants are memoised on first use but derived, so a
        detector that has detected pickles to the same bytes as before its
        first call (counters aside), and a restored one detects alike."""
        detector = SimulatedDetector(dataset.world, seed=0)
        before = pickle.dumps(detector)
        videos = list(range(dataset.world.repository.num_videos))
        detector.detect_batch(videos * 3, [0, 50, 100] * len(videos))
        detector.detect(videos[-1], 7, class_filter="car")
        assert len(detector._per_video) == len(videos)
        detector.frames_processed = detector.detect_calls = 0
        assert pickle.dumps(detector) == before

        restored = pickle.loads(before)
        for video in videos:
            for frame in range(0, 600, 43):
                assert _detections(restored.detect(video, frame)) == _detections(
                    detector.detect(video, frame)
                )

    def test_detect_coerces_numpy_ints(self, dataset):
        """detect() keys its stream on plain ints, as detect_batch does."""
        detector = SimulatedDetector(dataset.world, seed=0)
        for frame in range(0, 600, 29):
            numpy_first = detector.detect(np.int64(0), np.int64(frame))
            assert _detections(numpy_first) == _detections(
                detector.detect_batch([0], [frame])[0]
            )
            assert {type(d.frame) for d in numpy_first} <= {int}

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            DetectorProfile(miss_rate=1.0)
        with pytest.raises(ConfigError):
            DetectorProfile(false_positives_per_frame=-1)
        with pytest.raises(ConfigError):
            DetectorProfile(jitter=-0.1)


#: The end-to-end benchmark's worlds, built at seed 0.
E2E_WORLDS = {"bdd1k": 1.0, "archie": 0.2, "dashcam": 0.02}
#: Frames reach this far before a video's start and past its end.
MARGIN = 3
NOISY_PROFILE = DetectorProfile(
    miss_rate=0.3, small_box_penalty=0.6, jitter=0.5, false_positives_per_frame=2.0
)


@functools.lru_cache(maxsize=None)
def _e2e_world(name):
    """The world and, per video, its frame count and the frames around
    each instance's first and last (where interpolation clamps)."""
    from repro.video import make_dataset

    world = make_dataset(name, scale=E2E_WORLDS[name], seed=0).world
    arrays = world.instance_arrays()
    edges = [set() for _ in world.repository.videos]
    for video, start, end in zip(
        arrays.videos.tolist(), arrays.starts.tolist(), arrays.ends.tolist(),
        strict=True,
    ):
        edges[video].update((start - 1, start, end - 1, end))
    lengths = [v.num_frames for v in world.repository.videos]
    return world, lengths, [sorted(e) for e in edges]


@st.composite
def _detector_calls(draw):
    world, lengths, edges = _e2e_world(draw(st.sampled_from(sorted(E2E_WORLDS))))
    profile = draw(st.sampled_from([DetectorProfile(), PERFECT_PROFILE, NOISY_PROFILE]))
    class_filter = draw(st.sampled_from(world.class_names() + [None, "zebra"]))
    pairs = []
    for _ in range(draw(st.integers(2, 16))):
        video = draw(st.integers(0, len(lengths) - 1))
        frame = draw(
            st.integers(-MARGIN, lengths[video] + MARGIN - 1)
            | st.sampled_from(edges[video] or [0])
        )
        pairs.append((video, frame))
    seed = draw(st.integers(0, 2**16))
    return world, profile, class_filter, pairs, seed


def _typed_fields(detections):
    """Every field with its type; floats by ``float.hex()``."""
    return [
        (type(d).__name__, type(d.box).__name__) + tuple(
            (type(v).__name__, v.hex() if isinstance(v, float) else v)
            for v in (
                d.video, d.frame, d.box.x1, d.box.y1, d.box.x2, d.box.y2,
                d.class_name, d.score, d.instance_uid,
            )
        )
        for d in detections
    ]


class TestOneFrameKernel:
    """A one-frame call takes the scalar kernel, a larger one the fused
    pass; a frame must detect identically on either."""

    @settings(max_examples=700, deadline=None, derandomize=True)
    @given(_detector_calls())
    def test_one_frame_calls_match_the_fused_pass(self, call):
        world, profile, class_filter, pairs, seed = call
        videos, frames = [v for v, _ in pairs], [f for _, f in pairs]
        fused = SimulatedDetector(world, profile=profile, seed=seed).detect_batch(
            videos, frames, class_filter
        )
        single = SimulatedDetector(world, profile=profile, seed=seed)
        for video, frame, want in zip(videos, frames, fused, strict=True):
            want = _typed_fields(want)
            assert _typed_fields(
                single.detect_batch([video], [frame], class_filter)[0]
            ) == want
            assert _typed_fields(single.detect(video, frame, class_filter)) == want


class TestDetectionHelpers:
    def _det(self, cls, score):
        return Detection(
            video=0, frame=0, box=BoundingBox(0, 0, 1, 1),
            class_name=cls, score=score,
        )

    def test_filter_class(self):
        dets = [self._det("car", 0.9), self._det("dog", 0.8)]
        assert [d.class_name for d in filter_class(dets, "car")] == ["car"]

    def test_filter_score(self):
        dets = [self._det("car", 0.9), self._det("car", 0.3)]
        assert len(filter_score(dets, 0.5)) == 1

    def test_false_positive_flag(self):
        assert self._det("car", 0.5).is_false_positive
