"""Synthetic ground truth: object instances with box trajectories.

This is the stand-in for the real world behind the paper's datasets. A
:class:`SyntheticWorld` holds every object instance in a repository — its
class, which video it appears in, the frame interval it is visible for, and
a parametric box trajectory. The simulated detector *observes* this world
with noise; the discriminator's simulated tracker *follows* trajectories the
way a pixel tracker would; and the evaluation treats the world as the exact
ground truth that the paper could only approximate (§V-A).

What matters for reproducing the paper's results is the *joint distribution*
of instance durations (the ``p_i``) and instance placement across chunks
(the skew); the builder exposes both directly:

* durations are lognormal in seconds (converted to frames per video fps);
* placement supports three spatial processes over the global timeline:
  ``uniform``, ``normal(fraction)`` (95% of instances in the central
  ``fraction`` — the paper's §IV-B model), and ``hotspots(k, fraction)``
  (instances cluster around k random locations — how skew actually arises
  in dashcam data: §IV-B "time of day or location (city, country, highway,
  camera angle)").
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.theory.instances import lognormal_durations
from repro.utils.rng import RngFactory
from repro.video.geometry import BoundingBox, interpolate
from repro.video.video import Video, VideoRepository

_Z_95 = 1.959963984540054

#: Visibility keys are ``(video << _FRAME_BITS) + frame``: frames of one
#: video stay inside its key range while ``|frame| < 2**40``.
_FRAME_BITS = 40


@dataclass(frozen=True)
class ObjectInstance:
    """One distinct real-world object visible in one video interval.

    Attributes
    ----------
    uid:
        Globally unique instance id (dense, 0-based).
    class_name:
        Object category ("traffic light", ...).
    video, start, end:
        Visibility interval ``[start, end)`` in frames of ``video``.
    entry_box, exit_box:
        Box at the first and last visible frame; positions in between are
        linearly interpolated (adequate for IoU matching across the frame
        gaps a sampler produces; real trajectories are smooth at this
        scale).
    global_start:
        ``start`` translated to repository-global frame coordinates.
    """

    uid: int
    class_name: str
    video: int
    start: int
    end: int
    entry_box: BoundingBox
    exit_box: BoundingBox
    global_start: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise DatasetError(f"instance {self.uid} has empty interval")

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def global_end(self) -> int:
        return self.global_start + self.duration

    @property
    def global_midpoint(self) -> int:
        return self.global_start + self.duration // 2

    def visible_in(self, video: int, frame: int) -> bool:
        return video == self.video and self.start <= frame < self.end

    def box_at(self, frame: int) -> BoundingBox:
        """Ground-truth box at ``frame`` (must be inside the interval)."""
        if not self.start <= frame < self.end:
            raise DatasetError(
                f"frame {frame} outside instance {self.uid} interval "
                f"[{self.start}, {self.end})"
            )
        if self.duration == 1:
            return self.entry_box
        t = (frame - self.start) / (self.duration - 1)
        return interpolate(self.entry_box, self.exit_box, t)


@dataclass(frozen=True)
class ClassSpec:
    """How many instances of a class to synthesise and how they behave.

    Attributes
    ----------
    count:
        Number of distinct instances (at scale 1.0).
    mean_duration_s:
        Mean visibility duration in seconds (lognormal across instances).
    skew:
        Placement process: ``("uniform",)``, ``("normal", fraction)`` or
        ``("hotspots", k, fraction)``; see the module docstring.
    size_range:
        (min, max) box side length in pixels.
    duration_sigma_log:
        Lognormal sigma of durations (0.75 reproduces the paper's §IV-B
        spread of roughly 100x between shortest and longest).
    """

    name: str
    count: int
    mean_duration_s: float
    skew: Tuple = ("uniform",)
    size_range: Tuple[float, float] = (40.0, 220.0)
    duration_sigma_log: float = 0.75

    def __post_init__(self) -> None:
        if self.count < 0:
            raise DatasetError(f"negative count for class {self.name}")
        if self.mean_duration_s <= 0:
            raise DatasetError(f"non-positive duration for class {self.name}")
        if self.skew[0] not in ("uniform", "normal", "hotspots"):
            raise DatasetError(f"unknown skew process {self.skew[0]!r}")


@dataclass(frozen=True)
class InstanceArrays:
    """Columnar instance data, each array indexed by uid.

    ``entry``/``exit`` are (N, 4) xyxy boxes; ``class_codes`` index into
    ``class_names`` (the sorted class list, matching
    :meth:`SyntheticWorld.class_names`).
    """

    starts: np.ndarray
    ends: np.ndarray
    durations: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    class_codes: np.ndarray
    class_names: Tuple[str, ...]


class _LazyInstances(SequenceABC):
    """Read-only instance list over a shared world's columns.

    Worlds attached from shared memory carry columns, not
    :class:`ObjectInstance` objects; the few code paths that still want
    objects (the discriminator materializes one per *new track*, the
    theory bounds iterate a class) get them built on first access, per
    uid, from the zero-copy columns — never as an up-front per-task
    deserialization.
    """

    __slots__ = ("_world", "_cache")

    def __init__(self, world: "SyntheticWorld"):
        self._world = world
        self._cache: Dict[int, ObjectInstance] = {}

    def __len__(self) -> int:
        return self._world.num_instances

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        instance = self._cache.get(index)
        if instance is None:
            instance = self._cache[index] = self._world._instance_at(index)
        return instance


class SyntheticWorld:
    """All ground-truth instances of a repository, indexed for fast lookup.

    A world pickles two ways. Normally the instance list travels by
    value, exactly as before. While published to a
    :class:`~repro.parallel.shm.SharedWorldStore`, pickling emits only a
    ~100-byte segment handle and the receiving process rebuilds the
    world as zero-copy numpy views over the shared pages (see
    :meth:`from_shared_columns`); results are identical either way —
    every query resolves against the same column values.
    """

    def __init__(self, repository: VideoRepository, instances: List[ObjectInstance]):
        self.repository = repository
        self._instances: "List[ObjectInstance] | None" = instances
        self._lazy: "_LazyInstances | None" = None
        self._arrays: "InstanceArrays | None" = None
        self._shared_handle = None
        self._videos_col: "np.ndarray | None" = None
        self._global_starts_col: "np.ndarray | None" = None
        self._content_digest: "bytes | None" = None
        self._visibility: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._by_class: "Dict[str, List[int]] | None" = {}
        for idx, inst in enumerate(instances):
            if idx != inst.uid:
                raise DatasetError("instance uids must be dense and ordered")
            self._by_class.setdefault(inst.class_name, []).append(idx)
        # Per-video interval index sorted by start frame, for visible().
        self._video_index: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        per_video: Dict[int, List[int]] = {}
        for idx, inst in enumerate(instances):
            per_video.setdefault(inst.video, []).append(idx)
        for video, idxs in per_video.items():
            ids = np.array(idxs, dtype=np.int64)
            starts = np.array([instances[i].start for i in idxs], dtype=np.int64)
            ends = np.array([instances[i].end for i in idxs], dtype=np.int64)
            order = np.argsort(starts)
            self._video_index[video] = (starts[order], ends[order], ids[order])

    # -- queries ---------------------------------------------------------

    @property
    def instances(self) -> Sequence[ObjectInstance]:
        """The instance list (lazily materialized for attached worlds)."""
        if self._instances is not None:
            return self._instances
        if self._lazy is None:
            self._lazy = _LazyInstances(self)
        return self._lazy

    @property
    def num_instances(self) -> int:
        if self._instances is None:
            return int(self.instance_arrays().starts.size)
        return len(self._instances)

    def class_names(self) -> List[str]:
        if self._by_class is None:
            # Attached worlds: the published list is already sorted.
            return list(self.instance_arrays().class_names)
        return sorted(self._by_class)

    def _class_index(self) -> Dict[str, List[int]]:
        by_class = self._by_class
        if by_class is None:
            arrays = self.instance_arrays()
            by_class = {}
            for code, name in enumerate(arrays.class_names):
                uids = np.nonzero(arrays.class_codes == code)[0]
                if uids.size:
                    by_class[name] = uids.tolist()
            self._by_class = by_class
        return by_class

    def instances_of(self, class_name: str) -> List[ObjectInstance]:
        instances = self.instances
        return [instances[i] for i in self._class_index().get(class_name, [])]

    def count_of(self, class_name: str) -> int:
        """Ground-truth distinct instance count for a class (the recall
        denominator of §V-A)."""
        return len(self._class_index().get(class_name, []))

    def visible(self, video: int, frame: int) -> List[ObjectInstance]:
        """Instances (any class) visible at (video, frame)."""
        return [self.instances[int(i)] for i in self.visible_uids(video, frame)]

    def visible_uids(self, video: int, frame: int) -> np.ndarray:
        """Uids of instances visible at (video, frame), as an int64 array.

        The one-pair :meth:`visible_at`: the array-returning variant of
        :meth:`visible`, in ``_video_index`` order.
        """
        return self.visible_at([video], [frame])[0]

    def visible_at(
        self, videos: Sequence[int], frames: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility for many ``(video, frame)`` pairs in one query.

        Returns ``(uids_flat, counts)``: the uids visible at each pair,
        concatenated pair by pair, and the per-pair counts. Within a pair,
        uids come in ``_video_index`` order (by start frame, ties as that
        index's sort left them), the order the detector assigns draws in.
        Each pair is one ``searchsorted`` into the segment table (see
        :meth:`_visibility_table`) plus a slice of its flat uid array.
        Negative frames, frames outside every instance, frames past a
        video's end and videos without instances see nothing.
        """
        keys, ptr, flat = self._visibility_table()
        query = np.asarray(videos, dtype=np.int64) << _FRAME_BITS
        query += np.asarray(frames, dtype=np.int64)
        segment = keys.searchsorted(query, side="right")
        lo = ptr[segment - 1]
        counts = ptr[segment] - lo
        # Gather the slices flat[lo[i]:lo[i] + counts[i]] in one take.
        gather = (lo - counts.cumsum() + counts).repeat(counts)
        gather += np.arange(gather.size)
        return flat[gather], counts

    def _visibility_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, ptr, flat)``: the repository's visibility segments.

        The instances visible in a video change only at frames where one
        starts or ends, so each video splits into segments between those
        boundaries. ``keys`` holds every boundary as
        ``(video << 40) + frame``, ascending, behind a leading sentinel;
        the uids visible from ``keys[s - 1]`` up to the next key are
        ``flat[ptr[s - 1]:ptr[s]]``. A video's last boundary (its latest
        end) and the sentinel open empty segments, so keys that fall
        between videos, before the first or after the last see nothing.

        Built lazily in one vectorised pass over ``_video_index``, whose
        order it keeps: that index comes from an unstable ``argsort``, and
        its order among equal starts is what assigns each detector draw
        to an instance, so the build never re-sorts instances (the segment
        sort below is stable). Two threads may both build it; they build
        equal tables, and the last assignment wins.
        """
        table = self._visibility
        if table is not None:
            return table
        # Every instance interval as keys, videos in _video_index order.
        # The leading empty arrays leave an instance-less world with the
        # sentinel segment alone.
        starts, ends, ids = ([np.empty(0, dtype=np.int64)] for _ in range(3))
        for video, (video_starts, video_ends, video_ids) in self._video_index.items():
            shift = np.int64(video) << _FRAME_BITS
            starts.append(video_starts + shift)
            ends.append(video_ends + shift)
            ids.append(video_ids)
        starts, ends, ids = map(np.concatenate, (starts, ends, ids))
        bounds = np.unique(np.concatenate([starts, ends]))
        # Instance i is visible in segments first[i] .. first[i] + spans[i] - 1.
        first = bounds.searchsorted(starts)
        spans = bounds.searchsorted(ends) - first
        segments = np.repeat(first - np.cumsum(spans) + spans, spans)
        segments += np.arange(segments.size)
        flat = np.repeat(ids, spans)[np.argsort(segments, kind="stable")]
        ptr = np.zeros(bounds.size + 2, dtype=np.int64)
        np.cumsum(np.bincount(segments, minlength=bounds.size), out=ptr[2:])
        keys = np.concatenate([[np.iinfo(np.int64).min], bounds])
        table = self._visibility = (keys, ptr, flat)
        return table

    def instance_arrays(self) -> "InstanceArrays":
        """Columnar view of every instance, indexed by uid (cached).

        Enables whole-frame vectorised operations — ground-truth boxes via
        one interpolation expression instead of per-instance
        :meth:`ObjectInstance.box_at` calls — for the detector and the
        discriminator's track matching.
        """
        arrays = self._arrays
        if arrays is None:
            instances = self.instances
            n = len(instances)
            entry = np.empty((n, 4), dtype=float)
            exit_ = np.empty((n, 4), dtype=float)
            starts = np.empty(n, dtype=np.int64)
            ends = np.empty(n, dtype=np.int64)
            class_names = self.class_names()
            class_code = {name: i for i, name in enumerate(class_names)}
            codes = np.empty(n, dtype=np.int64)
            for i, inst in enumerate(instances):
                entry[i] = inst.entry_box.as_array()
                exit_[i] = inst.exit_box.as_array()
                starts[i] = inst.start
                ends[i] = inst.end
                codes[i] = class_code[inst.class_name]
            durations = ends - starts
            arrays = InstanceArrays(
                starts=starts,
                ends=ends,
                durations=durations,
                entry=entry,
                exit=exit_,
                class_codes=codes,
                class_names=tuple(class_names),
            )
            self._arrays = arrays
        return arrays

    def boxes_at(self, uids: np.ndarray, frame) -> np.ndarray:
        """Ground-truth boxes (len(uids), 4) at ``frame``, vectorised.

        Equivalent to stacking ``instances[uid].box_at(frame)`` per uid:
        linear interpolation between the entry and exit box, with
        single-frame instances pinned at their entry box. ``frame`` may be
        a scalar or an array aligned with ``uids`` (one frame per uid).
        """
        arrays = self.instance_arrays()
        starts = arrays.starts[uids]
        denom = np.maximum(arrays.durations[uids] - 1, 1)
        t = np.clip((frame - starts) / denom, 0.0, 1.0)
        entry = arrays.entry[uids]
        return entry + (arrays.exit[uids] - entry) * t[:, None]

    def presence_mask(self, class_name: str) -> np.ndarray:
        """Boolean mask over global frames: is any instance of the class
        visible? (Used to synthesise proxy-model scores.)"""
        mask_diff = np.zeros(self.repository.total_frames + 1, dtype=np.int32)
        for inst in self.instances_of(class_name):
            mask_diff[inst.global_start] += 1
            mask_diff[inst.global_end] -= 1
        return np.cumsum(mask_diff[:-1]) > 0

    def chunk_counts(self, class_name: str, bounds: np.ndarray) -> np.ndarray:
        """Instances of a class per chunk, by global midpoint (Figure 6)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        mids = np.array(
            [inst.global_midpoint for inst in self.instances_of(class_name)],
            dtype=np.int64,
        )
        if mids.size == 0:
            return np.zeros(bounds.size - 1, dtype=np.int64)
        idx = np.clip(
            np.searchsorted(bounds, mids, side="right") - 1, 0, bounds.size - 2
        )
        return np.bincount(idx, minlength=bounds.size - 1)

    def chunk_probabilities(self, class_name: str, bounds: np.ndarray) -> np.ndarray:
        """Conditional p_{ij} matrix for one class (feeds Eq. IV.1)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        instances = self.instances_of(class_name)
        starts = np.array([i.global_start for i in instances], dtype=np.int64)
        ends = np.array([i.global_end for i in instances], dtype=np.int64)
        lows = np.maximum(starts[:, None], bounds[None, :-1])
        highs = np.minimum(ends[:, None], bounds[None, 1:])
        overlap = np.clip(highs - lows, 0, None).astype(float)
        widths = (bounds[1:] - bounds[:-1]).astype(float)
        return overlap / widths[None, :]

    # -- shared-memory transport ------------------------------------------

    def __reduce_ex__(self, protocol):
        """Pickle as a segment handle while published, by value otherwise.

        :class:`~repro.parallel.shm.SharedWorldStore` sets
        ``_shared_handle`` for the duration of a pool; every pickle in
        that window (task submission to workers) costs ~100 bytes
        instead of the full instance list, and unpickling attaches the
        shared segment (memoized per process). Do not take durable
        checkpoints of a *published* world — the handle dies with the
        store; the normal by-value path resumes as soon as the store
        closes.
        """
        handle = self._shared_handle
        if handle is not None:
            from repro.parallel.shm import attach_shared_world

            return (attach_shared_world, (handle,))
        return super().__reduce_ex__(protocol)

    def __getstate__(self) -> dict:
        """By-value pickling sheds derivable caches.

        The ownership columns, the visibility table and lazily
        materialized instances are rebuilt on demand; shipping them would
        double a checkpoint's world payload for no information.
        """
        state = dict(self.__dict__)
        state["_lazy"] = None
        state["_arrays"] = None
        state["_videos_col"] = None
        state["_global_starts_col"] = None
        state["_visibility"] = None
        return state

    def shared_columns(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Everything a worker needs to rebuild this world, as flat arrays.

        Returns ``(columns, meta)``: named numpy arrays — the
        :class:`InstanceArrays` columns, per-uid video/global-start
        columns, and each video's sorted ``(starts, ends, ids)``
        interval index — plus a small metadata dict (class names, video
        metadata). :class:`~repro.parallel.shm.SharedWorldStore` copies
        the arrays into a shared segment; :meth:`from_shared_columns`
        reverses the split from zero-copy views.
        """
        arrays = self.instance_arrays()
        videos_col, global_starts_col = self._ownership_columns()
        columns: Dict[str, np.ndarray] = {
            "starts": arrays.starts,
            "ends": arrays.ends,
            "durations": arrays.durations,
            "entry": arrays.entry,
            "exit": arrays.exit,
            "class_codes": arrays.class_codes,
            "videos": videos_col,
            "global_starts": global_starts_col,
        }
        for video, (starts, ends, ids) in self._video_index.items():
            columns[f"vidx/{video}/starts"] = starts
            columns[f"vidx/{video}/ends"] = ends
            columns[f"vidx/{video}/ids"] = ids
        meta = {
            "class_names": list(arrays.class_names),
            "videos_meta": [
                (v.name, v.num_frames, v.fps, v.width, v.height)
                for v in self.repository.videos
            ],
            "video_ids": list(self._video_index),
        }
        return columns, meta

    def content_digest(self) -> bytes:
        """16-byte digest of everything detection output depends on.

        Computed from the columnar state, so a world and its
        shared-memory attachment digest identically, and two worlds
        digest identically exactly when a detector over them produces
        identical outputs. Cross-world caches (the pool-wide
        :class:`~repro.parallel.shm.SharedDetectionCache`) use it to
        namespace their keys.
        """
        digest = self._content_digest
        if digest is None:
            import hashlib

            arrays = self.instance_arrays()
            videos_col, _ = self._ownership_columns()
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(
                repr(
                    [
                        (v.name, v.num_frames, v.fps, v.width, v.height)
                        for v in self.repository.videos
                    ]
                ).encode()
            )
            hasher.update(repr(arrays.class_names).encode())
            for column in (
                arrays.starts,
                arrays.ends,
                arrays.class_codes,
                arrays.entry,
                arrays.exit,
                videos_col,
            ):
                hasher.update(np.ascontiguousarray(column).tobytes())
            digest = self._content_digest = hasher.digest()
        return digest

    def _ownership_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-uid ``video`` and ``global_start`` columns."""
        if self._videos_col is not None and self._global_starts_col is not None:
            return self._videos_col, self._global_starts_col
        instances = self.instances
        n = len(instances)
        videos = np.fromiter((i.video for i in instances), dtype=np.int64, count=n)
        global_starts = np.fromiter(
            (i.global_start for i in instances), dtype=np.int64, count=n
        )
        self._videos_col = videos
        self._global_starts_col = global_starts
        return videos, global_starts

    @classmethod
    def from_shared_columns(
        cls, columns: Dict[str, np.ndarray], meta: dict, handle
    ) -> "SyntheticWorld":
        """Rebuild a world around (typically zero-copy) column views.

        The inverse of :meth:`shared_columns`. The instance *objects*
        are not rebuilt here — :attr:`instances` materializes them per
        uid on demand — so attaching costs parsing a small header, not
        deserializing the world.
        """
        world = cls.__new__(cls)
        world.repository = VideoRepository(
            [Video(*spec) for spec in meta["videos_meta"]]
        )
        world._instances = None
        world._lazy = None
        world._by_class = None
        world._shared_handle = handle
        world._videos_col = columns["videos"]
        world._global_starts_col = columns["global_starts"]
        world._content_digest = None
        world._visibility = None
        world._arrays = InstanceArrays(
            starts=columns["starts"],
            ends=columns["ends"],
            durations=columns["durations"],
            entry=columns["entry"],
            exit=columns["exit"],
            class_codes=columns["class_codes"],
            class_names=tuple(meta["class_names"]),
        )
        world._video_index = {
            video: (
                columns[f"vidx/{video}/starts"],
                columns[f"vidx/{video}/ends"],
                columns[f"vidx/{video}/ids"],
            )
            for video in meta["video_ids"]
        }
        return world

    def _instance_at(self, uid: int) -> ObjectInstance:
        """Materialize one :class:`ObjectInstance` from the columns."""
        arrays = self.instance_arrays()
        entry = arrays.entry[uid]
        exit_ = arrays.exit[uid]
        return ObjectInstance(
            uid=uid,
            class_name=arrays.class_names[int(arrays.class_codes[uid])],
            video=int(self._videos_col[uid]),
            start=int(arrays.starts[uid]),
            end=int(arrays.ends[uid]),
            entry_box=BoundingBox(
                float(entry[0]), float(entry[1]), float(entry[2]), float(entry[3])
            ),
            exit_box=BoundingBox(
                float(exit_[0]), float(exit_[1]), float(exit_[2]), float(exit_[3])
            ),
            global_start=int(self._global_starts_col[uid]),
        )


class SyntheticWorldBuilder:
    """Places instances of each class spec into a repository."""

    def __init__(self, repository: VideoRepository, rngs: RngFactory):
        self.repository = repository
        self.rngs = rngs
        self._specs: List[ClassSpec] = []

    def add_class(self, spec: ClassSpec) -> "SyntheticWorldBuilder":
        self._specs.append(spec)
        return self

    def build(self) -> SyntheticWorld:
        instances: List[ObjectInstance] = []
        uid = 0
        for spec in self._specs:
            rng = self.rngs.stream("class", spec.name)
            for inst in self._place_class(spec, rng, uid):
                instances.append(inst)
                uid += 1
        return SyntheticWorld(self.repository, instances)

    # -- internals ---------------------------------------------------------

    def _place_class(
        self, spec: ClassSpec, rng: np.random.Generator, next_uid: int
    ):
        if spec.count == 0:
            return
        total = self.repository.total_frames
        mids = self._midpoints(spec, rng, total)
        # Mean fps across videos converts second-durations to frames.
        fps = self.repository.common_fps()
        durations = lognormal_durations(
            spec.count, spec.mean_duration_s * fps, rng, spec.duration_sigma_log
        ).astype(np.int64)
        durations = np.maximum(durations, 2)
        for offset in range(spec.count):
            mid = int(mids[offset])
            video, frame = self.repository.locate(mid)
            video_frames = self.repository.videos[video].num_frames
            duration = min(int(durations[offset]), video_frames)
            start = frame - duration // 2
            start = int(np.clip(start, 0, video_frames - duration))
            end = start + duration
            entry, exit_ = self._trajectory(spec, rng, video)
            yield ObjectInstance(
                uid=next_uid + offset,
                class_name=spec.name,
                video=video,
                start=start,
                end=end,
                entry_box=entry,
                exit_box=exit_,
                global_start=self.repository.global_index(video, start),
            )

    def _midpoints(
        self, spec: ClassSpec, rng: np.random.Generator, total: int
    ) -> np.ndarray:
        kind = spec.skew[0]
        if kind == "uniform":
            mids = rng.uniform(0, total, size=spec.count)
        elif kind == "normal":
            fraction = float(spec.skew[1])
            if not 0 < fraction <= 1:
                raise DatasetError("normal skew fraction must lie in (0, 1]")
            sigma = fraction * total / (2 * _Z_95)
            mids = rng.normal(total / 2.0, sigma, size=spec.count)
        else:  # hotspots
            k = int(spec.skew[1])
            fraction = float(spec.skew[2])
            if k < 1 or not 0 < fraction <= 1:
                raise DatasetError("hotspots need k >= 1 and fraction in (0, 1]")
            centers = rng.uniform(0, total, size=k)
            sigma = fraction * total / (2 * _Z_95 * k)
            choice = rng.integers(0, k, size=spec.count)
            mids = rng.normal(centers[choice], sigma)
        return np.clip(mids, 0, total - 1).astype(np.int64)

    def _trajectory(
        self, spec: ClassSpec, rng: np.random.Generator, video: int
    ) -> Tuple[BoundingBox, BoundingBox]:
        meta = self.repository.videos[video]
        width, height = float(meta.width), float(meta.height)
        lo, hi = spec.size_range
        size_entry = rng.uniform(lo, hi)
        size_exit = size_entry * rng.uniform(0.6, 1.6)
        aspect = rng.uniform(0.5, 1.5)

        def sample_box(size: float) -> BoundingBox:
            w = size * aspect
            h = size
            cx = rng.uniform(w / 2, max(width - w / 2, w / 2 + 1))
            cy = rng.uniform(h / 2, max(height - h / 2, h / 2 + 1))
            return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

        entry = sample_box(size_entry)
        # Exit near the entry for slow objects, across the frame for fast:
        # a bounded random displacement keeps IoU matching meaningful.
        drift = rng.uniform(0.1, 0.9)
        target = sample_box(size_exit)
        exit_ = interpolate(entry, target, drift).clipped(width, height)
        return entry.clipped(width, height), exit_


def build_world(
    repository: VideoRepository,
    specs: Sequence[ClassSpec],
    seed: int = 0,
) -> SyntheticWorld:
    """Convenience: build a world from class specs with one seed."""
    builder = SyntheticWorldBuilder(repository, RngFactory(seed).child("world"))
    for spec in specs:
        builder.add_class(spec)
    return builder.build()
