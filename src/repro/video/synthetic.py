"""Synthetic ground truth: object instances with box trajectories.

This is the stand-in for the real world behind the paper's datasets. A
:class:`SyntheticWorld` holds every object instance in a repository — its
class, which video it appears in, the frame interval it is visible for, and
a parametric box trajectory. The simulated detector *observes* this world
with noise; the discriminator's simulated tracker *follows* trajectories the
way a pixel tracker would; and the evaluation treats the world as the exact
ground truth that the paper could only approximate (§V-A).

The world is a set of columns (:class:`InstanceArrays`), one row per
instance uid. The builder draws each class's instances as arrays and
computes them as column expressions, so no per-instance object is made
while a dataset is synthesised; :class:`ObjectInstance` objects are
read-only per-uid views, built on first access.

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

import operator
import threading
from collections import OrderedDict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.theory.instances import lognormal_durations
from repro.utils.rng import RngFactory
from repro.video.geometry import BoundingBox, interpolate
from repro.video.video import VideoRepository

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
    """A world's columns: everything it holds besides its repository.

    Every array except ``video_order`` is indexed by uid: the interval
    ``starts``/``ends``/``durations`` in frames of ``videos``, the
    ``global_starts`` of those intervals, ``entry``/``exit`` as (N, 4)
    xyxy boxes, and ``class_codes`` indexing ``class_names`` (the sorted
    names of the classes that have instances). ``video_order`` holds
    every uid grouped by video, videos ascending, and each video's uids
    in the order an unstable ``argsort`` of that video's starts (in uid
    order) left them: the order in which visibility queries report uids
    and the detector assigns its draws.
    """

    starts: np.ndarray
    ends: np.ndarray
    durations: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    class_codes: np.ndarray
    videos: np.ndarray
    global_starts: np.ndarray
    video_order: np.ndarray
    class_names: Tuple[str, ...]

    def columns(self) -> Dict[str, np.ndarray]:
        """The arrays by field name: ``InstanceArrays(**columns,
        class_names=...)`` rebuilds this object."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "class_names"
        }


class _LazyInstances(SequenceABC):
    """Read-only instance list over a world's columns.

    The columns are the world; the few code paths that want objects
    (the discriminator materializes one per *new track*, tests and
    ablations iterate a class) get a frozen :class:`ObjectInstance` view
    per uid, built on first access and cached, so asking twice returns
    the same object.
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
        index = operator.index(index)  # a numpy uid becomes a plain int
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
    """All ground-truth instances of a repository, as columns.

    The world is its repository plus one :class:`InstanceArrays`;
    :attr:`instances`, :meth:`instances_of` and :meth:`visible` return
    cached per-uid :class:`ObjectInstance` views of those columns.

    A world pickles two ways. One that :class:`SyntheticWorldBuilder`
    built carries its ``recipe``, the builder's seed and class specs,
    and pickles as that recipe plus its :meth:`content_digest`: a few
    hundred bytes, however large the world. Unpickling returns the
    world from a small per-process memo, or rebuilds it from the recipe
    and checks the digest (see :func:`_rebuild_world`). A world built
    straight from its columns pickles by value: it carries the columns
    and sheds the caches derived from them.
    """

    def __init__(
        self,
        repository: VideoRepository,
        arrays: InstanceArrays,
        recipe: "Tuple[int, Tuple[ClassSpec, ...]] | None" = None,
    ):
        self.repository = repository
        self._arrays = arrays
        self._recipe = recipe
        self._lazy: "_LazyInstances | None" = None
        self._content_digest: "bytes | None" = None
        self._visibility: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    # -- queries ---------------------------------------------------------

    @property
    def instances(self) -> Sequence[ObjectInstance]:
        """Every instance, indexed by uid (per-uid views, built lazily)."""
        if self._lazy is None:
            self._lazy = _LazyInstances(self)
        return self._lazy

    @property
    def num_instances(self) -> int:
        return int(self._arrays.starts.size)

    def class_names(self) -> List[str]:
        return list(self._arrays.class_names)

    def _class_uids(self, class_name: str) -> np.ndarray:
        """Uids of one class, ascending (empty for an absent class)."""
        arrays = self._arrays
        if class_name not in arrays.class_names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(
            arrays.class_codes == arrays.class_names.index(class_name)
        )

    def instances_of(self, class_name: str) -> List[ObjectInstance]:
        instances = self.instances
        return [instances[i] for i in self._class_uids(class_name).tolist()]

    def count_of(self, class_name: str) -> int:
        """Ground-truth distinct instance count for a class (the recall
        denominator of §V-A)."""
        return int(self._class_uids(class_name).size)

    def visible(self, video: int, frame: int) -> List[ObjectInstance]:
        """Instances (any class) visible at (video, frame)."""
        instances = self.instances
        return [instances[i] for i in self.visible_uids(video, frame).tolist()]

    def visible_uids(self, video: int, frame: int) -> np.ndarray:
        """Uids of instances visible at (video, frame), as an int64 array.

        The one-pair :meth:`visible_at`, in ``video_order``: one
        ``searchsorted`` into the segment table, whose segment's uids it
        returns as a read-only view (the simulated detector's one-frame
        kernel calls this per frame, so it builds no query arrays).
        """
        keys, ptr, flat = self._visibility_table()
        segment = keys.searchsorted((video << _FRAME_BITS) + frame, side="right")
        return flat[ptr[segment - 1]:ptr[segment]]

    def visible_at(
        self, videos: Sequence[int], frames: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility for many ``(video, frame)`` pairs in one query.

        Returns ``(uids_flat, counts)``: the uids visible at each pair,
        concatenated pair by pair, and the per-pair counts. Within a pair,
        uids come in ``video_order`` (by start frame, ties as that
        order's unstable sort left them), the order the detector assigns
        draws in. Each pair is one ``searchsorted`` into the segment table
        (see :meth:`_visibility_table`) plus a slice of its flat uid array.
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

        Built lazily in one vectorised pass over ``video_order``, whose
        order it keeps: that order comes from an unstable ``argsort``,
        and its order among equal starts is what assigns each detector
        draw to an instance, so the build never re-sorts instances (the
        segment sort below is stable). Two threads may both build it;
        they build equal tables, and the last assignment wins.
        """
        table = self._visibility
        if table is not None:
            return table
        arrays = self._arrays
        ids = arrays.video_order
        shift = arrays.videos[ids] << _FRAME_BITS
        starts = arrays.starts[ids] + shift
        ends = arrays.ends[ids] + shift
        bounds = np.unique(np.concatenate([starts, ends]))
        # Instance i is visible in segments first[i] .. first[i] + spans[i] - 1.
        first = bounds.searchsorted(starts)
        spans = bounds.searchsorted(ends) - first
        segments = np.repeat(first - np.cumsum(spans) + spans, spans)
        segments += np.arange(segments.size)
        flat = np.repeat(ids, spans)[np.argsort(segments, kind="stable")]
        flat.flags.writeable = False  # visible_uids hands out views of it
        ptr = np.zeros(bounds.size + 2, dtype=np.int64)
        np.cumsum(np.bincount(segments, minlength=bounds.size), out=ptr[2:])
        keys = np.concatenate([[np.iinfo(np.int64).min], bounds])
        table = self._visibility = (keys, ptr, flat)
        return table

    def instance_arrays(self) -> "InstanceArrays":
        """The world's columns, indexed by uid.

        Enables whole-frame vectorised operations — ground-truth boxes via
        one interpolation expression instead of per-instance
        :meth:`ObjectInstance.box_at` calls — for the detector and the
        discriminator's track matching.
        """
        return self._arrays

    def boxes_at(self, uids: np.ndarray, frame) -> np.ndarray:
        """Ground-truth boxes (len(uids), 4) at ``frame``, vectorised.

        Equivalent to stacking ``instances[uid].box_at(frame)`` per uid:
        linear interpolation between the entry and exit box, with
        single-frame instances pinned at their entry box. ``frame`` may be
        a scalar or an array aligned with ``uids`` (one frame per uid).
        """
        arrays = self._arrays
        starts = arrays.starts[uids]
        denom = np.maximum(arrays.durations[uids] - 1, 1)
        # Clamped to [0, 1] in place: np.clip's Python wrapper costs more
        # than the arithmetic at the few rows of a one-frame call.
        t = (frame - starts) / denom
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        entry = arrays.entry[uids]
        return entry + (arrays.exit[uids] - entry) * t[:, None]

    def _global_intervals(self, class_name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Global ``(starts, ends)`` of one class's instances, by uid."""
        uids = self._class_uids(class_name)
        starts = self._arrays.global_starts[uids]
        return starts, starts + self._arrays.durations[uids]

    def presence_mask(self, class_name: str) -> np.ndarray:
        """Boolean mask over global frames: is any instance of the class
        visible? (Used to synthesise proxy-model scores.)"""
        starts, ends = self._global_intervals(class_name)
        size = self.repository.total_frames + 1
        mask_diff = np.bincount(starts, minlength=size) - np.bincount(
            ends, minlength=size
        )
        return np.cumsum(mask_diff[:-1]) > 0

    def chunk_counts(self, class_name: str, bounds: np.ndarray) -> np.ndarray:
        """Instances of a class per chunk, by global midpoint (Figure 6)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        uids = self._class_uids(class_name)
        mids = self._arrays.global_starts[uids] + self._arrays.durations[uids] // 2
        if mids.size == 0:
            return np.zeros(bounds.size - 1, dtype=np.int64)
        idx = np.clip(
            np.searchsorted(bounds, mids, side="right") - 1, 0, bounds.size - 2
        )
        return np.bincount(idx, minlength=bounds.size - 1)

    def chunk_probabilities(self, class_name: str, bounds: np.ndarray) -> np.ndarray:
        """Conditional p_{ij} matrix for one class (feeds Eq. IV.1)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        starts, ends = self._global_intervals(class_name)
        lows = np.maximum(starts[:, None], bounds[None, :-1])
        highs = np.minimum(ends[:, None], bounds[None, 1:])
        overlap = np.clip(highs - lows, 0, None).astype(float)
        widths = (bounds[1:] - bounds[:-1]).astype(float)
        return overlap / widths[None, :]

    # -- pickling ------------------------------------------------------------

    def __reduce_ex__(self, protocol):
        """Pickle as the recipe when there is one, by value otherwise.

        The recipe form names the content digest, so a process that
        already holds this world (this one, or a pool worker after its
        first task) gets the same object back instead of a rebuild.
        """
        if self._recipe is None:
            return super().__reduce_ex__(protocol)
        digest = self.content_digest()
        _remember_world(digest, self)
        seed, specs = self._recipe
        return (_rebuild_world, (self.repository, seed, specs, digest))

    def __getstate__(self) -> dict:
        """By-value pickling carries the columns and sheds derivable caches.

        The visibility table and materialized instance views are rebuilt
        on demand; shipping them would add to a checkpoint's world
        payload for no information.
        """
        state = dict(self.__dict__)
        state["_lazy"] = None
        state["_visibility"] = None
        return state

    def content_digest(self) -> bytes:
        """16-byte digest of everything detection output depends on.

        Computed from the columns on first use, so a world rebuilt from
        its recipe digests identically to the original exactly when a
        detector over them produces identical outputs. Recipe pickles
        carry it as the rebuild check; cross-world caches (the pool-wide
        :class:`~repro.parallel.shm.SharedDetectionCache`) use it to
        namespace their keys.
        """
        digest = self._content_digest
        if digest is None:
            import hashlib

            arrays = self._arrays
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
                arrays.videos,
            ):
                hasher.update(np.ascontiguousarray(column).tobytes())
            digest = self._content_digest = hasher.digest()
        return digest

    def _instance_at(self, uid: int) -> ObjectInstance:
        """Materialize one :class:`ObjectInstance` from the columns."""
        arrays = self._arrays
        entry = arrays.entry[uid].tolist()
        exit_ = arrays.exit[uid].tolist()
        return ObjectInstance(
            uid=uid,
            class_name=arrays.class_names[int(arrays.class_codes[uid])],
            video=int(arrays.videos[uid]),
            start=int(arrays.starts[uid]),
            end=int(arrays.ends[uid]),
            entry_box=BoundingBox(*entry),
            exit_box=BoundingBox(*exit_),
            global_start=int(arrays.global_starts[uid]),
        )


def _no_instances() -> Tuple[np.ndarray, ...]:
    """Zero-length ``(videos, starts, durations, entry, exit)`` columns."""
    int_column = np.zeros(0, dtype=np.int64)
    return int_column, int_column, int_column, np.zeros((0, 4)), np.zeros((0, 4))


def _uniform(low, high, doubles: np.ndarray) -> np.ndarray:
    """``Generator.uniform(low, high)`` applied to drawn ``doubles``.

    NumPy computes a uniform draw as ``low + (high - low) * d`` from the
    next double ``d``; this repeats that arithmetic column-wise.
    """
    return low + (high - low) * doubles


def _sample_boxes(size, aspect, x_doubles, y_doubles, width, height) -> np.ndarray:
    """(N, 4) boxes of side ``size`` by ``size * aspect``, centred inside
    the frame at the positions the two uniform columns pick."""
    w = size * aspect
    h = size
    cx = _uniform(w / 2, np.maximum(width - w / 2, w / 2 + 1), x_doubles)
    cy = _uniform(h / 2, np.maximum(height - h / 2, h / 2 + 1), y_doubles)
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def _clip_boxes(boxes: np.ndarray, width, height) -> np.ndarray:
    """:meth:`BoundingBox.clipped` over (N, 4) boxes and per-row frames."""
    x1 = np.minimum(np.maximum(boxes[:, 0], 0.0), width)
    y1 = np.minimum(np.maximum(boxes[:, 1], 0.0), height)
    x2 = np.minimum(np.maximum(boxes[:, 2], x1), width)
    y2 = np.minimum(np.maximum(boxes[:, 3], y1), height)
    return np.stack([x1, y1, x2, y2], axis=1)


def _video_order(videos: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Every uid grouped by video, each video's uids sorted by start.

    Within a video the order is ``np.argsort`` of that video's starts in
    uid order, an unstable sort: its order among equal starts decides
    which detector draw goes to which instance, so each video's starts
    array is built exactly that way and sorted on its own.
    """
    order = np.argsort(videos, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(videos[order])) + 1)
    for ids in groups:
        ids[:] = ids[np.argsort(starts[ids])]
    return order


class SyntheticWorldBuilder:
    """Places instances of each class spec into a repository.

    The repository, the seed of ``rngs`` and the specs in
    :meth:`add_class` order determine the world: they are the recipe a
    built world pickles as.
    """

    def __init__(self, repository: VideoRepository, rngs: RngFactory):
        self.repository = repository
        self.rngs = rngs
        self._specs: List[ClassSpec] = []

    def add_class(self, spec: ClassSpec) -> "SyntheticWorldBuilder":
        self._specs.append(spec)
        return self

    def build(self) -> SyntheticWorld:
        """Draw every class's instances and assemble the world's columns.

        Uids run class by class in :meth:`add_class` order; each class
        draws from its own named stream, and a class without instances
        draws nothing.
        """
        repo = self.repository
        frame_sizes = np.array([(v.width, v.height) for v in repo.videos], dtype=float)
        names: List[str] = []
        counts: List[int] = []
        placed = [_no_instances()]
        for spec in self._specs:
            rng = self.rngs.stream("class", spec.name)
            if spec.count:
                names.append(spec.name)
                counts.append(spec.count)
                placed.append(self._place_class(spec, rng, frame_sizes))
        videos, starts, durations, entry, exit_ = map(np.concatenate, zip(*placed))
        class_names = tuple(sorted(set(names)))
        class_codes = np.repeat(
            np.array([class_names.index(name) for name in names], dtype=np.int64),
            np.array(counts, dtype=np.int64),
        )
        arrays = InstanceArrays(
            starts=starts,
            ends=starts + durations,
            durations=durations,
            entry=entry,
            exit=exit_,
            class_codes=class_codes,
            videos=videos,
            global_starts=repo.offsets[videos] + starts,
            video_order=_video_order(videos, starts),
            class_names=class_names,
        )
        return SyntheticWorld(
            repo, arrays, recipe=(self.rngs.seed, tuple(self._specs))
        )

    # -- internals ---------------------------------------------------------

    def _place_class(
        self, spec: ClassSpec, rng: np.random.Generator, frame_sizes: np.ndarray
    ):
        """One class's ``(videos, starts, durations, entry, exit)`` columns.

        Draws the midpoints, then the durations, then eight doubles per
        instance as one ``(count, 8)`` block: entry size, exit scale,
        aspect, entry centre x and y, drift, target centre x and y — the
        order in which a per-instance loop of scalar ``uniform`` calls
        would draw them. ``frame_sizes`` holds each video's
        ``(width, height)``.
        """
        repo = self.repository
        mids = self._midpoints(spec, rng, repo.total_frames)
        # Mean fps across videos converts second-durations to frames.
        fps = repo.common_fps()
        durations = lognormal_durations(
            spec.count, spec.mean_duration_s * fps, rng, spec.duration_sigma_log
        ).astype(np.int64)
        videos, frames = repo.locate_many(mids)
        video_frames = np.diff(repo.offsets)[videos]
        durations = np.minimum(np.maximum(durations, 2), video_frames)
        starts = np.clip(frames - durations // 2, 0, video_frames - durations)

        doubles = rng.random((spec.count, 8)).T
        width, height = frame_sizes[videos].T
        lo, hi = spec.size_range
        size_entry = _uniform(lo, hi, doubles[0])
        size_exit = size_entry * _uniform(0.6, 1.6, doubles[1])
        aspect = _uniform(0.5, 1.5, doubles[2])
        entry = _sample_boxes(size_entry, aspect, doubles[3], doubles[4], width, height)
        # Exit near the entry for slow objects, across the frame for fast:
        # a bounded random displacement keeps IoU matching meaningful.
        drift = _uniform(0.1, 0.9, doubles[5])
        target = _sample_boxes(size_exit, aspect, doubles[6], doubles[7], width, height)
        exit_ = entry + (target - entry) * drift[:, None]
        return (
            videos,
            starts,
            durations,
            _clip_boxes(entry, width, height),
            _clip_boxes(exit_, width, height),
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


#: Recipe-pickled worlds kept per process, by content digest. The
#: references are strong: a weak memo would let a pool worker's world
#: die between tasks and be rebuilt for the next one.
_WORLD_MEMO_SLOTS = 8
_WORLDS: "OrderedDict[bytes, SyntheticWorld]" = OrderedDict()
_WORLDS_LOCK = threading.Lock()


def _remember_world(digest: bytes, world: SyntheticWorld) -> None:
    with _WORLDS_LOCK:
        _WORLDS[digest] = world
        _WORLDS.move_to_end(digest)
        if len(_WORLDS) > _WORLD_MEMO_SLOTS:
            _WORLDS.popitem(last=False)


def _rebuild_world(
    repository: VideoRepository,
    seed: int,
    specs: Tuple[ClassSpec, ...],
    digest: bytes,
) -> SyntheticWorld:
    """The unpickle target of a recipe-pickled world.

    Returns the memoized world with this content digest, or rebuilds it
    through :class:`SyntheticWorldBuilder` and raises
    :class:`~repro.errors.DatasetError` when the rebuilt world digests
    differently (a builder whose draws changed since the pickle was
    written).
    """
    with _WORLDS_LOCK:
        world = _WORLDS.get(digest)
    if world is None:
        builder = SyntheticWorldBuilder(repository, RngFactory(seed))
        for spec in specs:
            builder.add_class(spec)
        world = builder.build()
        rebuilt = world.content_digest()
        if rebuilt != digest:
            raise DatasetError(
                f"world rebuilt from its recipe has content digest "
                f"{rebuilt.hex()}, but the pickle expects {digest.hex()}"
            )
    _remember_world(digest, world)
    return world


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
