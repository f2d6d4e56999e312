"""Tests for synthetic world building."""

import pickle
from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.theory.instances import lognormal_durations
from repro.video import synthetic
from repro.video.datasets import DATASET_BUILDERS, make_dataset
from repro.video.synthetic import (
    ClassSpec,
    ObjectInstance,
    SyntheticWorld,
    SyntheticWorldBuilder,
    build_world,
)
from repro.video.geometry import BoundingBox, interpolate
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
        assert world.instances_of("unicorn") == []

    def test_instances_are_cached_views(self, world):
        """Asking for one uid twice returns the same object, whichever
        accessor asks."""
        dog = world.instances_of("dog")[0]
        assert world.instances[dog.uid] is dog
        video, frame = dog.video, dog.start
        assert any(inst is dog for inst in world.visible(video, frame))


class TestVectorisedVisibility:
    """visible_uids / visible_at / boxes_at agree with the objects."""

    def test_visible_uids_matches_visible(self):
        dataset = make_tiny_dataset(seed=21)
        world = dataset.world
        for video in (0, 1):
            for frame in range(0, 1200, 17):
                uids = world.visible_uids(video, frame)
                assert uids.tolist() == [i.uid for i in world.visible(video, frame)]
                # A view of the segment table, which callers cannot write.
                assert uids.dtype == np.int64 and not uids.flags.writeable

    def test_visible_at_matches_interval_test(self):
        """The segment table agrees with a brute-force interval test,
        pair by pair, in ``video_order``."""
        world = make_tiny_dataset(seed=21).world
        arrays = world.instance_arrays()
        rng = np.random.default_rng(5)
        videos = rng.choice([0, 1, 99], size=500, p=[0.45, 0.45, 0.1])
        frames = rng.integers(-20, 1220, size=500)
        want_flat = []
        want_counts = []
        for video, frame in zip(videos.tolist(), frames.tolist()):
            ids = arrays.video_order[arrays.videos[arrays.video_order] == video]
            starts, ends = arrays.starts[ids], arrays.ends[ids]
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


# -- the per-instance reference builder ---------------------------------------


def _reference_trajectory(repository, spec, rng, video):
    """One instance's entry and exit boxes, eight scalar draws."""
    meta = repository.videos[video]
    width, height = float(meta.width), float(meta.height)
    lo, hi = spec.size_range
    size_entry = rng.uniform(lo, hi)
    size_exit = size_entry * rng.uniform(0.6, 1.6)
    aspect = rng.uniform(0.5, 1.5)

    def sample_box(size):
        w = size * aspect
        h = size
        cx = rng.uniform(w / 2, max(width - w / 2, w / 2 + 1))
        cy = rng.uniform(h / 2, max(height - h / 2, h / 2 + 1))
        return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

    entry = sample_box(size_entry)
    drift = rng.uniform(0.1, 0.9)
    target = sample_box(size_exit)
    exit_ = interpolate(entry, target, drift).clipped(width, height)
    return entry.clipped(width, height), exit_


def _reference_place_class(builder, spec, rng, next_uid):
    """One class's instances, one object and eight scalar draws each."""
    if spec.count == 0:
        return
    repository = builder.repository
    mids = builder._midpoints(spec, rng, repository.total_frames)
    fps = repository.common_fps()
    durations = lognormal_durations(
        spec.count, spec.mean_duration_s * fps, rng, spec.duration_sigma_log
    ).astype(np.int64)
    durations = np.maximum(durations, 2)
    for offset in range(spec.count):
        video, frame = repository.locate(int(mids[offset]))
        video_frames = repository.videos[video].num_frames
        duration = min(int(durations[offset]), video_frames)
        start = int(np.clip(frame - duration // 2, 0, video_frames - duration))
        entry, exit_ = _reference_trajectory(repository, spec, rng, video)
        yield ObjectInstance(
            uid=next_uid + offset,
            class_name=spec.name,
            video=video,
            start=start,
            end=start + duration,
            entry_box=entry,
            exit_box=exit_,
            global_start=repository.global_index(video, start),
        )


def reference_columns(builder):
    """The world ``builder`` describes, built one instance at a time.

    The builder the columnar one replaced: an :class:`ObjectInstance`
    per instance, then columns gathered object by object, and a
    per-video index of uids sorted by an unstable ``argsort`` of that
    video's starts in uid order.
    """
    instances = []
    for spec in builder._specs:
        rng = builder.rngs.stream("class", spec.name)
        instances.extend(_reference_place_class(builder, spec, rng, len(instances)))
    class_names = tuple(sorted({inst.class_name for inst in instances}))
    n = len(instances)
    columns = {
        "starts": np.array([i.start for i in instances], dtype=np.int64),
        "ends": np.array([i.end for i in instances], dtype=np.int64),
        "entry": np.empty((n, 4), dtype=float),
        "exit": np.empty((n, 4), dtype=float),
        "class_codes": np.array(
            [class_names.index(i.class_name) for i in instances], dtype=np.int64
        ),
        "videos": np.array([i.video for i in instances], dtype=np.int64),
        "global_starts": np.array([i.global_start for i in instances], dtype=np.int64),
    }
    for row, inst in enumerate(instances):
        columns["entry"][row] = inst.entry_box.as_array()
        columns["exit"][row] = inst.exit_box.as_array()
    per_video = {}
    for inst in instances:
        per_video.setdefault(inst.video, []).append(inst.uid)
    order = [np.zeros(0, dtype=np.int64)]
    for video in sorted(per_video):
        ids = np.array(per_video[video], dtype=np.int64)
        starts = np.array([instances[i].start for i in ids], dtype=np.int64)
        order.append(ids[np.argsort(starts)])
    columns["video_order"] = np.concatenate(order)
    return columns, class_names


def _recording_builds(monkeypatch):
    """Record every builder that builds a world while the patch is on."""
    builders = []
    build = SyntheticWorldBuilder.build

    def recording_build(self):
        builders.append(self)
        return build(self)

    monkeypatch.setattr(SyntheticWorldBuilder, "build", recording_build)
    return builders


def assert_matches_reference(world, builder):
    """Every column byte-equal (dtype included) to the reference build."""
    want, class_names = reference_columns(builder)
    arrays = world.instance_arrays()
    assert arrays.class_names == class_names
    for name, expected in want.items():
        got = getattr(arrays, name)
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    assert arrays.durations.tobytes() == (want["ends"] - want["starts"]).tobytes()


class TestColumnarBuilderMatchesReference:
    """The columnar builder draws and computes what the per-instance one did."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("scale", [0.02, 0.05])
    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_datasets(self, monkeypatch, name, scale, seed):
        builders = _recording_builds(monkeypatch)
        world = make_dataset(name, scale=scale, seed=seed).world
        assert len(builders) == 1 and world.num_instances > 0
        assert_matches_reference(world, builders[0])

    @pytest.mark.parametrize("seed", [1, 9])
    def test_every_skew_kind_and_a_zero_count_class(self, monkeypatch, seed):
        """Mixed frame sizes, a video shorter than many durations, boxes
        larger than a frame, a repeated class name and an empty class."""
        repo = VideoRepository(
            [
                Video("wide", 2400, fps=30, width=1920, height=1080),
                Video("short", 45, fps=30, width=320, height=240),
                Video("small", 1800, fps=15, width=640, height=360),
            ]
        )
        specs = [
            ClassSpec("car", 60, 4.0),
            ClassSpec("bus", 25, 6.0, skew=("normal", 0.3), size_range=(200.0, 700.0)),
            ClassSpec("dog", 0, 2.0, skew=("hotspots", 3, 0.2)),
            ClassSpec("person", 40, 1.5, skew=("hotspots", 3, 0.2)),
            ClassSpec("car", 15, 2.0, skew=("normal", 0.9)),
        ]
        builders = _recording_builds(monkeypatch)
        world = build_world(repo, specs, seed=seed)
        assert world.class_names() == ["bus", "car", "person"]
        assert world.count_of("dog") == 0 and world.count_of("car") == 75
        assert_matches_reference(world, builders[0])

    def test_no_classes(self, repo):
        world = build_world(repo, [], seed=3)
        assert world.num_instances == 0 and world.class_names() == []
        flat, counts = world.visible_at([0, 1], [0, 10])
        assert flat.size == 0 and counts.tolist() == [0, 0]


def test_by_value_pickle_round_trip():
    """A world built from its columns pickles by value: it carries the
    columns, not instance objects, and answers every query as before."""
    source = make_dataset("dashcam", scale=0.02, seed=0).world
    world = SyntheticWorld(source.repository, source.instance_arrays())
    rng = np.random.default_rng(3)
    videos = rng.integers(0, world.repository.num_videos, size=300)
    frames = rng.integers(0, world.repository.videos[0].num_frames, size=300)
    before = world.visible_at(videos, frames)
    assert world.instances[0] is world.instances[0]
    blob = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"ObjectInstance" not in blob
    clone = pickle.loads(blob)
    assert clone._visibility is None
    got, want = clone.instance_arrays(), world.instance_arrays()
    assert got.class_names == want.class_names
    for name, column in want.columns().items():
        assert getattr(got, name).dtype == column.dtype, name
        assert getattr(got, name).tobytes() == column.tobytes(), name
    assert clone.content_digest() == world.content_digest()
    assert list(clone.instances) == list(world.instances)
    after = clone.visible_at(videos, frames)
    assert after[0].tolist() == before[0].tolist()
    assert after[1].tolist() == before[1].tolist()


def _assert_same_columns(got, want):
    got, want = got.instance_arrays(), want.instance_arrays()
    assert got.class_names == want.class_names
    for name, column in want.columns().items():
        assert getattr(got, name).dtype == column.dtype, name
        assert getattr(got, name).tobytes() == column.tobytes(), name


class _Tampered:
    """Pickles as a recipe call whose digest is not the recipe's."""

    def __init__(self, args):
        self.args = args

    def __reduce__(self):
        return synthetic._rebuild_world, self.args


class TestRecipePickle:
    """A built world pickles as its builder recipe plus content digest."""

    def test_same_process_round_trip_returns_the_same_world(self):
        dataset = make_dataset("dashcam", scale=0.02, seed=0)
        blob = pickle.dumps(dataset.world, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 2048
        assert pickle.loads(blob) is dataset.world
        assert pickle.loads(pickle.dumps(dataset)).world is dataset.world

    def test_a_memo_miss_rebuilds_an_identical_world(self, monkeypatch):
        world = make_dataset("dashcam", scale=0.02, seed=0).world
        blob = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.setattr(synthetic, "_WORLDS", OrderedDict())
        rebuilt = pickle.loads(blob)
        assert rebuilt is not world
        assert rebuilt.content_digest() == world.content_digest()
        _assert_same_columns(rebuilt, world)
        # The rebuild filled the memo: the next unpickle is free.
        assert pickle.loads(blob) is rebuilt

    def test_a_wrong_digest_raises_dataset_error(self, monkeypatch):
        world = make_tiny_dataset(seed=3).world
        rebuild, (repository, seed, specs, digest) = world.__reduce_ex__(
            pickle.HIGHEST_PROTOCOL
        )
        assert rebuild is synthetic._rebuild_world
        wrong = bytes(len(digest))
        blob = pickle.dumps(_Tampered((repository, seed, specs, wrong)))
        monkeypatch.setattr(synthetic, "_WORLDS", OrderedDict())
        with pytest.raises(DatasetError) as caught:
            pickle.loads(blob)
        assert digest.hex() in str(caught.value)
        assert wrong.hex() in str(caught.value)
        assert not synthetic._WORLDS

    def test_memo_is_bounded(self, repo, monkeypatch):
        monkeypatch.setattr(synthetic, "_WORLDS", OrderedDict())
        worlds = [
            build_world(repo, [ClassSpec("car", count=5, mean_duration_s=2.0)],
                        seed=seed)
            for seed in range(synthetic._WORLD_MEMO_SLOTS + 3)
        ]
        for world in worlds:
            pickle.dumps(world)
        assert list(synthetic._WORLDS.values()) == worlds[-synthetic._WORLD_MEMO_SLOTS:]
