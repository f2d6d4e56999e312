"""Tests for the simulated object detector."""

import pickle

import numpy as np
import pytest

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
