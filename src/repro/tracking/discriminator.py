"""The discriminator: decides whether a detection is a new distinct object.

This is ``discrim`` in Algorithm 1. Given a frame's detections it returns

* ``d0`` — detections matching no known track: these are *new* objects;
* ``d1`` — detections whose matched track had been seen in exactly one
  sampled frame before (their object just moved from the "seen once" to the
  "seen twice" bucket, so N1 decreases).

Matching is genuine box matching: a detection matches a track if the track
covers the detection's frame and the IoU between the detected box and the
track's box at that frame clears a threshold; ties are resolved greedily,
one detection per track (same as SORT's association step).

When a new object is accepted, the simulated tracker extends its track
forwards and backwards from the discovery frame along the ground-truth
trajectory, losing the object independently in each direction with a
per-frame hazard (``track_loss_per_frame``). This reproduces the real
failure mode that matters for the sampler: a lost track means a later
sighting of the same physical object is (incorrectly but honestly) counted
as a new result — exactly the double-counting hazard the paper's recall
metric inherits from its approximate ground truth (§V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.detection.detections import Detection
from repro.errors import ConfigError
from repro.tracking.matching import greedy_match
from repro.tracking.tracks import Track
from repro.utils.rng import spawn_rng
from repro.video.geometry import iou_matrix
from repro.video.synthetic import SyntheticWorld


class _TrackColumns:
    """Columnar store of one (video, class) group's tracks.

    Matching needs, per candidate track: does it cover the frame
    (``starts``/``ends``) and where is its box at the frame (linear
    interpolation ``entry + delta * clip((frame - t0) / denom, 0, 1)``;
    false-positive tracks carry ``delta = 0`` so the expression collapses
    to their anchor box). Keeping those as amortised-growth numpy arrays
    turns the per-candidate ``covers``/``box_at`` Python calls of the
    matching hot path into a handful of whole-group expressions.
    """

    def __init__(self, capacity: int = 8):
        self.size = 0
        self.ids = np.empty(capacity, dtype=np.int64)
        self.starts = np.empty(capacity, dtype=np.int64)
        self.ends = np.empty(capacity, dtype=np.int64)
        self.t0 = np.empty(capacity, dtype=float)
        self.denom = np.empty(capacity, dtype=float)
        self.entry = np.empty((capacity, 4), dtype=float)
        self.delta = np.empty((capacity, 4), dtype=float)

    def append(
        self,
        track_id: int,
        start: int,
        end: int,
        t0: float,
        denom: float,
        entry: np.ndarray,
        delta: np.ndarray,
    ) -> None:
        n = self.size
        if n == self.ids.size:
            grow = max(2 * n, 8)
            for name in ("ids", "starts", "ends", "t0", "denom"):
                old = getattr(self, name)
                new = np.empty(grow, dtype=old.dtype)
                new[:n] = old
                setattr(self, name, new)
            for name in ("entry", "delta"):
                old = getattr(self, name)
                new = np.empty((grow, 4), dtype=old.dtype)
                new[:n] = old
                setattr(self, name, new)
        self.ids[n] = track_id
        self.starts[n] = start
        self.ends[n] = end
        self.t0[n] = t0
        self.denom[n] = denom
        self.entry[n] = entry
        self.delta[n] = delta
        self.size = n + 1

    def active(self, frame: int) -> np.ndarray:
        """Row indices of tracks covering ``frame``."""
        n = self.size
        return ((self.starts[:n] <= frame) & (frame < self.ends[:n])).nonzero()[0]

    def boxes_at(self, rows: np.ndarray, frame: int) -> np.ndarray:
        """Tracked boxes (len(rows), 4) at ``frame``."""
        t = np.minimum(np.maximum((frame - self.t0[rows]) / self.denom[rows], 0.0), 1.0)
        return self.entry[rows] + self.delta[rows] * t[:, None]


@dataclass
class FrameMatchResult:
    """Everything one frame's discrimination produced.

    ``d1_tracks`` aligns one-to-one with ``d1`` (the matched track behind
    each seen-exactly-once detection), carrying each track's discovery
    ``origin_chunk`` for cross-chunk N1 accounting.
    """

    d0: List[Detection] = field(default_factory=list)
    d1: List[Detection] = field(default_factory=list)
    new_tracks: List[Track] = field(default_factory=list)
    d1_tracks: List[Track] = field(default_factory=list)


class TrackDiscriminator:
    """Track-based duplicate suppression for distinct object queries.

    Track extension draws from one generator, ``spawn_rng(seed,
    "trackext")``, built with the discriminator: each new real-object
    track takes its forward and backward geometric run lengths from it,
    in creation order.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        iou_threshold: float = 0.45,
        track_loss_per_frame: float = 0.001,
        seed: int = 0,
    ):
        if not 0 < iou_threshold <= 1:
            raise ConfigError("iou_threshold must lie in (0, 1]")
        if not 0 <= track_loss_per_frame < 1:
            raise ConfigError("track_loss_per_frame must lie in [0, 1)")
        self.world = world
        self.iou_threshold = iou_threshold
        self.track_loss_per_frame = track_loss_per_frame
        self._trackext_rng = spawn_rng(seed, "trackext")
        self.tracks: List[Track] = []
        # Per (video, class) columnar index of tracks, to keep matching
        # cheap: candidate filtering and box interpolation are whole-group
        # numpy expressions (see :class:`_TrackColumns`).
        self._index: Dict[Tuple[int, str], _TrackColumns] = {}
        self._pending: Optional[Tuple[int, int, tuple, List[Detection], List[Detection]]] = None


    # -- the paper's two-call interface (Algorithm 1 lines 10 and 13) -------

    def get_matches(
        self, video: int, frame: int, detections: List[Detection]
    ) -> Tuple[List[Detection], List[Detection]]:
        """Return (d0, d1) for a frame's detections without mutating state."""
        d0, d1, assignment = self._match(video, frame, detections)
        self._pending = (video, frame, tuple(id(d) for d in detections), d0, assignment)
        return d0, d1

    def add(self, video: int, frame: int, detections: List[Detection]) -> List[Track]:
        """Fold the frame's detections into the track store.

        Must be called after :meth:`get_matches` on the same frame (the
        paper's calling convention); re-matching is avoided by caching.
        Returns the newly created tracks.
        """
        key = (video, frame, tuple(id(d) for d in detections))
        if self._pending is not None and self._pending[:3] == key:
            _, _, _, d0, assignment = self._pending
        else:
            d0, _, assignment = self._match(video, frame, detections)
        self._pending = None
        for track_idx in assignment.values():
            self.tracks[track_idx].times_seen += 1
        return [self._create_track(det) for det in d0]

    # -- the one-call convenience used by the query engine -----------------

    def observe(
        self, video: int, frame: int, detections: List[Detection]
    ) -> Tuple[List[Detection], List[Detection], List[Track]]:
        """get_matches + add in one step; returns (d0, d1, new_tracks)."""
        result = self.observe_full(video, frame, detections)
        return result.d0, result.d1, result.new_tracks

    def observe_full_batch(
        self,
        videos: "List[int]",
        frames: "List[int]",
        detection_lists: "List[List[Detection]]",
    ) -> List[FrameMatchResult]:
        """Discriminate a batch of frames (§III-F batched sampling).

        The aligned lists give each frame's address and detections in
        sampling order. Matching is inherently sequential — a track created
        from an earlier frame of the batch must be matchable by later
        frames — so the frames are folded into the store in order, exactly
        as repeated :meth:`observe_full` calls would; the batch entry point
        amortises per-call overhead and skips the matcher entirely for
        frames with no detections (which leave the store untouched).
        """
        observe_full = self.observe_full
        return [
            observe_full(video, frame, detections)
            if detections
            else FrameMatchResult()
            for video, frame, detections in zip(videos, frames, detection_lists, strict=True)
        ]

    def observe_full(
        self, video: int, frame: int, detections: List[Detection]
    ) -> FrameMatchResult:
        """One-step discrimination with full match detail."""
        d0, d1_dets, assignment = self._match(video, frame, detections)
        # Mirror _match's d1 construction exactly so the track list aligns
        # one-to-one with the d1 detection list.
        d1_tracks = [
            self.tracks[tid]
            for _, tid in assignment.items()
            if self.tracks[tid].times_seen == 1
        ]
        for track_idx in assignment.values():
            self.tracks[track_idx].times_seen += 1
        new_tracks = [self._create_track(det) for det in d0]
        self._pending = None
        return FrameMatchResult(
            d0=d0, d1=d1_dets, new_tracks=new_tracks, d1_tracks=d1_tracks
        )

    # -- internals ---------------------------------------------------------

    def _match(
        self, video: int, frame: int, detections: List[Detection]
    ) -> Tuple[List[Detection], List[Detection], Dict[int, int]]:
        if not detections:
            return [], [], {}
        # Candidates are gathered per class (classes in sorted order for
        # cross-process determinism; within a class, tracks in creation
        # order, as the historical id-list index yielded them). A detection
        # only ever scores against same-class tracks, so the assembled
        # matrix equals the historical all-pairs IoU with cross-class
        # entries zeroed — and greedy matching decomposes per class, so the
        # resulting pair set is unchanged.
        rows_by_class: Dict[str, List[int]] = {}
        for i, det in enumerate(detections):
            rows_by_class.setdefault(det.class_name, []).append(i)
        blocks = []
        total_candidates = 0
        for cls in sorted(rows_by_class):
            columns = self._index.get((video, cls))
            if columns is None:
                continue
            active = columns.active(frame)
            if active.size == 0:
                continue
            blocks.append((rows_by_class[cls], columns, active))
            total_candidates += int(active.size)
        if not total_candidates:
            return list(detections), [], {}
        det_boxes = np.array(
            [(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in detections]
        )
        iou = np.zeros((len(detections), total_candidates))
        candidate_ids: List[int] = []
        col = 0
        for det_rows, columns, active in blocks:
            track_boxes = columns.boxes_at(active, frame)
            iou[
                np.asarray(det_rows)[:, None],
                np.arange(col, col + active.size)[None, :],
            ] = iou_matrix(det_boxes[det_rows], track_boxes)
            candidate_ids.extend(columns.ids[active].tolist())
            col += int(active.size)
        pairs = greedy_match(iou, self.iou_threshold)
        assignment = {di: candidate_ids[ti] for di, ti in pairs}
        d0 = [d for i, d in enumerate(detections) if i not in assignment]
        d1 = [
            detections[di]
            for di, tid in assignment.items()
            if self.tracks[tid].times_seen == 1
        ]
        return d0, d1, assignment

    def _create_track(self, det: Detection) -> Track:
        track_id = len(self.tracks)
        if det.instance_uid is None:
            track = Track(
                track_id=track_id,
                class_name=det.class_name,
                video=det.video,
                start=det.frame,
                end=det.frame + 1,
                instance=None,
                anchor_box=det.box,
            )
            entry = det.box.as_array()
            delta = np.zeros(4)
            t0, denom = float(det.frame), 1.0
        else:
            instance = self.world.instances[det.instance_uid]
            start, end = self._extend(instance.start, instance.end, det.frame)
            track = Track(
                track_id=track_id,
                class_name=det.class_name,
                video=det.video,
                start=start,
                end=end,
                instance=instance,
                anchor_box=det.box,
            )
            entry = instance.entry_box.as_array()
            delta = instance.exit_box.as_array() - entry
            t0 = float(instance.start)
            denom = float(max(instance.duration - 1, 1))
        self.tracks.append(track)
        key = (track.video, track.class_name)
        columns = self._index.get(key)
        if columns is None:
            columns = self._index[key] = _TrackColumns()
        columns.append(track_id, track.start, track.end, t0, denom, entry, delta)
        return track

    def _extend(self, inst_start: int, inst_end: int, frame: int) -> Tuple[int, int]:
        """Simulate tracking from ``frame`` with per-frame loss hazard."""
        if self.track_loss_per_frame <= 0:
            return inst_start, inst_end
        rng = self._trackext_rng
        fwd_run = int(rng.geometric(self.track_loss_per_frame))
        bwd_run = int(rng.geometric(self.track_loss_per_frame))
        start = max(inst_start, frame - bwd_run)
        end = min(inst_end, frame + 1 + fwd_run)
        return start, end

    # -- stats -------------------------------------------------------------

    @property
    def num_tracks(self) -> int:
        return len(self.tracks)

    def distinct_real_instances(self) -> int:
        """Unique backing instances across tracks (evaluation only)."""
        return len(
            {t.instance.uid for t in self.tracks if t.instance is not None}
        )
