"""Tests for synthetic world building."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.video.synthetic import (
    ClassSpec,
    ObjectInstance,
    SyntheticWorld,
    build_world,
)
from repro.video.geometry import BoundingBox
from repro.video.video import Video, VideoRepository

from tests.conftest import make_tiny_dataset


@pytest.fixture
def repo():
    return VideoRepository([Video("a", 3000, fps=10), Video("b", 3000, fps=10)])


@pytest.fixture
def world(repo):
    return build_world(
        repo,
        [
            ClassSpec("car", count=40, mean_duration_s=5.0),
            ClassSpec("dog", count=10, mean_duration_s=3.0,
                      skew=("hotspots", 1, 0.1)),
        ],
        seed=1,
    )


class TestClassSpec:
    def test_rejects_negative_count(self):
        with pytest.raises(DatasetError):
            ClassSpec("x", count=-1, mean_duration_s=1.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(DatasetError):
            ClassSpec("x", count=1, mean_duration_s=0)

    def test_rejects_unknown_skew(self):
        with pytest.raises(DatasetError):
            ClassSpec("x", count=1, mean_duration_s=1.0, skew=("zipf", 2))


class TestObjectInstance:
    def _instance(self, start=10, end=60):
        return ObjectInstance(
            uid=0,
            class_name="car",
            video=0,
            start=start,
            end=end,
            entry_box=BoundingBox(0, 0, 10, 10),
            exit_box=BoundingBox(100, 100, 120, 120),
            global_start=start,
        )

    def test_duration(self):
        assert self._instance().duration == 50

    def test_box_at_endpoints(self):
        inst = self._instance()
        assert inst.box_at(10) == inst.entry_box
        assert inst.box_at(59) == inst.exit_box

    def test_box_moves_smoothly(self):
        inst = self._instance()
        prev = inst.box_at(10)
        for frame in range(11, 60):
            current = inst.box_at(frame)
            assert prev.iou(current) > 0.3  # consecutive frames overlap
            prev = current

    def test_box_outside_interval_rejected(self):
        with pytest.raises(DatasetError):
            self._instance().box_at(9)

    def test_visible_in(self):
        inst = self._instance()
        assert inst.visible_in(0, 10)
        assert not inst.visible_in(0, 60)
        assert not inst.visible_in(1, 10)

    def test_empty_interval_rejected(self):
        with pytest.raises(DatasetError):
            self._instance(start=10, end=10)


class TestWorldBuilding:
    def test_counts(self, world):
        assert world.count_of("car") == 40
        assert world.count_of("dog") == 10
        assert world.num_instances == 50
        assert world.class_names() == ["car", "dog"]

    def test_instances_fit_videos(self, world, repo):
        for inst in world.instances:
            assert 0 <= inst.start < inst.end <= repo.videos[inst.video].num_frames

    def test_uids_dense(self, world):
        assert [inst.uid for inst in world.instances] == list(range(50))

    def test_deterministic(self, repo):
        spec = [ClassSpec("car", count=10, mean_duration_s=5.0)]
        a = build_world(repo, spec, seed=9)
        b = build_world(repo, spec, seed=9)
        assert [i.start for i in a.instances] == [i.start for i in b.instances]

    def test_seed_changes_placement(self, repo):
        spec = [ClassSpec("car", count=10, mean_duration_s=5.0)]
        a = build_world(repo, spec, seed=1)
        b = build_world(repo, spec, seed=2)
        assert [i.start for i in a.instances] != [i.start for i in b.instances]

    def test_hotspot_concentration(self, world):
        """The dog class used a single tight hotspot."""
        mids = np.array([i.global_midpoint for i in world.instances_of("dog")])
        spread = mids.max() - mids.min()
        assert spread < 6000 * 0.5  # much tighter than the full timeline


class TestWorldQueries:
    def test_visible_matches_intervals(self, world):
        for video in (0, 1):
            for frame in (0, 500, 1500, 2999):
                fast = {i.uid for i in world.visible(video, frame)}
                brute = {
                    i.uid
                    for i in world.instances
                    if i.visible_in(video, frame)
                }
                assert fast == brute

    def test_visible_unknown_video(self, world):
        assert world.visible(99, 0) == []

    def test_presence_mask_matches_instances(self, world):
        mask = world.presence_mask("dog")
        assert mask.shape == (6000,)
        expected = np.zeros(6000, dtype=bool)
        for inst in world.instances_of("dog"):
            expected[inst.global_start : inst.global_end] = True
        assert np.array_equal(mask, expected)

    def test_chunk_counts_sum(self, world):
        bounds = np.array([0, 1500, 3000, 4500, 6000])
        assert world.chunk_counts("car", bounds).sum() == 40

    def test_chunk_probabilities_mass(self, world):
        bounds = np.array([0, 3000, 6000])
        p = world.chunk_probabilities("car", bounds)
        widths = np.diff(bounds)
        durations = np.array([i.duration for i in world.instances_of("car")])
        assert p @ widths == pytest.approx(durations.astype(float))

    def test_count_of_unknown_class(self, world):
        assert world.count_of("unicorn") == 0

    def test_uid_order_enforced(self, repo):
        inst = ObjectInstance(
            uid=5, class_name="car", video=0, start=0, end=10,
            entry_box=BoundingBox(0, 0, 1, 1), exit_box=BoundingBox(0, 0, 1, 1),
            global_start=0,
        )
        with pytest.raises(DatasetError):
            SyntheticWorld(repo, [inst])


class TestVectorisedVisibility:
    """visible_uids / visible_at / boxes_at agree with the objects."""

    def test_visible_uids_matches_visible(self):
        dataset = make_tiny_dataset(seed=21)
        world = dataset.world
        for video in (0, 1):
            for frame in range(0, 1200, 17):
                uids = world.visible_uids(video, frame).tolist()
                assert uids == [i.uid for i in world.visible(video, frame)]

    def test_visible_at_matches_interval_test(self):
        """The segment table agrees with a brute-force interval test,
        pair by pair, in ``_video_index`` order."""
        world = make_tiny_dataset(seed=21).world
        rng = np.random.default_rng(5)
        videos = rng.choice([0, 1, 99], size=500, p=[0.45, 0.45, 0.1])
        frames = rng.integers(-20, 1220, size=500)
        want_flat = []
        want_counts = []
        for video, frame in zip(videos.tolist(), frames.tolist()):
            index = world._video_index.get(video)
            uids = []
            if index is not None:
                starts, ends, ids = index
                uids = ids[(starts <= frame) & (frame < ends)].tolist()
            want_flat.extend(uids)
            want_counts.append(len(uids))
        assert min(frames) < 0 and max(frames) >= 1200 and sum(want_counts) > 0
        got_flat, got_counts = world.visible_at(videos, frames)
        assert got_flat.tolist() == want_flat
        assert got_counts.tolist() == want_counts

    def test_batch_empty_and_unknown_video(self):
        dataset = make_tiny_dataset(seed=21)
        world = dataset.world
        flat, counts = world.visible_at([99, 99, 99], [1, 2, 3])
        assert flat.size == 0 and counts.tolist() == [0, 0, 0]
        flat, counts = world.visible_at([], [])
        assert flat.size == 0 and counts.size == 0

    def test_boxes_at_matches_box_at(self):
        dataset = make_tiny_dataset(seed=21)
        world = dataset.world
        for frame in range(0, 1200, 29):
            uids = world.visible_uids(0, frame)
            if not uids.size:
                continue
            got = world.boxes_at(uids, frame)
            want = np.stack(
                [world.instances[int(u)].box_at(frame).as_array() for u in uids]
            )
            assert np.allclose(got, want)
