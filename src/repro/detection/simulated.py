"""A black-box object detector simulated over synthetic ground truth.

The paper treats the detector (Faster-RCNN + ResNet-50) as "a black box with
a costly runtime" (§II-A); only its outputs and its cost matter to the
sampling problem. :class:`SimulatedDetector` reproduces the *statistical
behaviour* of such a detector over a :class:`~repro.video.SyntheticWorld`:

* **misses** — each visible instance is detected with probability
  ``1 - miss_rate``, with small boxes missed more often (the classic
  small-object failure mode);
* **localisation noise** — detected boxes are jittered relative to ground
  truth;
* **false positives** — spurious boxes appear at a configurable per-frame
  rate with lower confidence scores;
* **determinism** — detections are a pure function of (seed, video, frame):
  detecting the same frame twice yields identical results, exactly like
  running a deterministic network twice. This matters because ground-truth
  building scans frames the samplers may later revisit — and because it
  makes per-frame results *memoizable* (see
  :class:`~repro.detection.cache.DetectionCache`).

Detector *cost* is not modelled here; the :class:`~repro.query.CostModel`
charges per invocation, which is how the paper accounts runtime (§III:
"runtime in ExSample is roughly proportional to the number of frames
processed by the detector").

Vectorised generation
---------------------

A frame's detections are generated with whole-frame numpy expressions (one
miss draw, one jitter draw, one score draw per frame instead of one per
instance). The per-frame RNG stream is still keyed on
``(seed, video, frame)``, so determinism and batching-invariance are
untouched; the *order* of draws within a frame differs from the historical
per-instance loop, so per-seed outputs differ from pre-vectorisation
releases while remaining draws from exactly the same distributions (each
instance's miss/jitter/score variates are i.i.d. across instances, so
drawing them as one vector instead of interleaved per instance is a pure
reordering of independent samples). In-repo benchmark artifacts were
regenerated accordingly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.detection.cache import DetectionCache
from repro.detection.detections import Detection
from repro.errors import ConfigError
from repro.utils.rng import TransientRng, digest_keys
from repro.video.geometry import BoundingBox
from repro.video.synthetic import SyntheticWorld


@dataclass(frozen=True)
class DetectorProfile:
    """Noise profile of the simulated detector.

    Attributes
    ----------
    miss_rate:
        Baseline probability of missing a clearly visible object.
    small_box_penalty:
        Extra miss probability for boxes much smaller than ``reference_size``
        (scaled by how far below the reference the box side falls).
    jitter:
        Corner jitter as a fraction of box size.
    false_positives_per_frame:
        Poisson rate of spurious detections per frame (across all classes).
    score_tp, score_fp:
        Beta(a, b) parameters of true-positive / false-positive confidence.
    """

    miss_rate: float = 0.08
    small_box_penalty: float = 0.25
    reference_size: float = 120.0
    jitter: float = 0.04
    false_positives_per_frame: float = 0.03
    score_tp: tuple = (8.0, 2.0)
    score_fp: tuple = (2.0, 5.0)

    def __post_init__(self) -> None:
        if not 0 <= self.miss_rate < 1:
            raise ConfigError("miss_rate must lie in [0, 1)")
        if self.false_positives_per_frame < 0:
            raise ConfigError("false positive rate must be non-negative")
        if self.jitter < 0:
            raise ConfigError("jitter must be non-negative")


#: A noiseless detector: detects exactly the ground truth.
PERFECT_PROFILE = DetectorProfile(
    miss_rate=0.0,
    small_box_penalty=0.0,
    jitter=0.0,
    false_positives_per_frame=0.0,
)


class SimulatedDetector:
    """Deterministic noisy detector over a synthetic world.

    ``cache`` (optional) memoizes finished per-frame detection lists; see
    :class:`~repro.detection.cache.DetectionCache`. Because detection is a
    pure function of ``(seed, video, frame)``, a cache changes wall-clock
    time only, never an output. ``frames_processed`` counts detection
    *requests* (cache hits included), keeping the counter's meaning
    identical whether or not a cache is attached.

    Thread safety: ``detect``/``detect_batch`` may be called from worker
    threads (the serving stack's thread executor runs fused calls off the
    event loop). Per-frame randomness uses a thread-local
    :class:`~repro.utils.rng.TransientRng` — streams stay keyed purely on
    ``(seed, video, frame)``, so which thread detects a frame can never
    change its output — and the invocation counters are lock-guarded.
    Session checkpoints embed the detector, so it pickles without the
    lock and the thread-local, and recreates both on restore.

    This class is also the seam for a *real* detector backend (GPU/ONNX,
    an EKO-style compressed-video model): any object with the same
    ``detect``/``detect_batch``/``frames_processed``/``detect_calls``
    surface drops into every engine and server unchanged. Backends whose
    ``detect_batch`` releases the GIL (ONNX Runtime, torch inference)
    pair naturally with the serving stack's ``executor="thread"``; see
    :mod:`repro.serving.executors`.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        profile: DetectorProfile | None = None,
        seed: int = 0,
        cache: Optional[DetectionCache] = None,
    ):
        self.world = world
        self.profile = profile or DetectorProfile()
        self.seed = seed
        self.cache = cache
        self.frames_processed = 0
        # Invocation counter: how many times detect()/detect_batch() was
        # *called* (regardless of batch size or cache hits). This is the
        # quantity cross-session batching exists to shrink — a fused call
        # covering eight sessions' frames counts once — and what the
        # serving micro-bench gates on.
        self.detect_calls = 0
        self._class_names = world.class_names() or ["object"]
        self._scope: Optional[str] = None
        # Per-frame streams are keyed on (seed, video, frame); a
        # TransientRng skips per-call generator construction, and the rng
        # never escapes _generate_frames. The instance is per-thread
        # (detect_batch may run on executor worker threads) — keying is
        # purely digest-driven, so every thread's streams are identical.
        self._rng_local = threading.local()
        # detect()/detect_batch() may race from worker threads; unguarded
        # `+=` would lose counts.
        self._count_lock = threading.Lock()

    @property
    def _frame_rng(self) -> TransientRng:
        rng = getattr(self._rng_local, "rng", None)
        if rng is None:
            rng = self._rng_local.rng = TransientRng()
        return rng

    def _charge(self, frames: int, calls: int = 1) -> None:
        """Count one invocation covering ``frames`` requested frames."""
        with self._count_lock:
            self.detect_calls += calls
            self.frames_processed += frames

    # -- pickling: locks and thread-locals are per-process ------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # threading primitives do not pickle; both are recreated fresh on
        # restore (counters themselves travel — they are plain ints).
        del state["_rng_local"]
        del state["_count_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rng_local = threading.local()
        self._count_lock = threading.Lock()

    def cache_scope(self) -> str:
        """Stable identity of this detector's output function.

        Detection output is fully determined by ``(seed, profile, world
        content)``; the scope digests exactly those, so two detectors
        share a scope precisely when they would produce identical
        detections for every frame. Every detection cache namespaces its
        keys with it, because one cache may serve several detectors (e.g.
        the pool-wide shared cache of a multi-dataset sweep).
        """
        scope = self._scope
        if scope is None:
            import hashlib

            hasher = hashlib.blake2b(digest_size=16)
            # The dataclass repr enumerates every profile field, so a
            # future output-affecting field automatically changes the
            # scope instead of silently aliasing old cache rows.
            hasher.update(repr((self.seed, self.profile)).encode())
            hasher.update(self.world.content_digest())
            scope = self._scope = hasher.hexdigest()
        return scope

    def detect(
        self,
        video: int,
        frame: int,
        class_filter: Optional[str] = None,
    ) -> List[Detection]:
        """Run the detector on one frame.

        ``class_filter`` drops detections of other classes *after*
        generation, so the same (seed, video, frame) always produces the
        same underlying detections regardless of which query asks.
        """
        self._charge(1)
        cache = self.cache
        if cache is None:
            return self._detect_filtered(video, frame, class_filter)
        key = (self.cache_scope(), video, frame, class_filter)
        hit = cache.get(key)
        if hit is not None:
            return hit
        detections = self._detect_filtered(video, frame, class_filter)
        cache.put(key, detections)
        return detections

    def detect_batch(
        self,
        videos: Sequence[int],
        frames: Sequence[int],
        class_filter: Optional[str] = None,
    ) -> List[List[Detection]]:
        """Run the detector on a batch of frames (§III-F).

        Returns one detection list per ``(video, frame)`` pair, identical
        to calling :meth:`detect` per frame — the per-frame rng streams are
        keyed on ``(seed, video, frame)``, so batching cannot change any
        output. One Python call amortises the per-invocation overhead the
        batched sampler exists to avoid.
        """
        if len(videos) != len(frames):
            raise ConfigError("videos and frames must align")
        n = len(frames)
        self._charge(n)
        cache = self.cache
        out: List[Optional[List[Detection]]] = [None] * n
        if cache is None:
            # Grouped by video so the whole-group geometry resolves in
            # flat numpy arrays.
            todo_by_video: dict[int, List[int]] = {}
            for i, video in enumerate(videos):
                todo_by_video.setdefault(int(video), []).append(i)
            for video, indices in todo_by_video.items():
                frame_list = [int(frames[i]) for i in indices]
                generated = self._generate_frames(video, frame_list)
                for i, detections in zip(indices, generated, strict=True):
                    if class_filter is not None:
                        detections = [
                            d for d in detections if d.class_name == class_filter
                        ]
                    out[i] = detections
        else:
            # One cache lookup — and at most one generation — per distinct
            # (video, frame): duplicate picks within the batch share the
            # generated result instead of re-generating (and re-counting a
            # miss) per occurrence. The stored key is namespaced with this
            # detector's identity (one cache may serve several
            # detectors); grouping below stays on the plain key.
            scope = self.cache_scope()
            pending: dict[tuple, List[int]] = {}
            for i, (video, frame) in enumerate(zip(videos, frames, strict=True)):
                key = (int(video), int(frame), class_filter)
                indices = pending.get(key)
                if indices is not None:
                    indices.append(i)
                    continue
                hit = cache.get((scope,) + key)
                if hit is None:
                    pending[key] = [i]
                else:
                    out[i] = hit
            by_video: dict[int, List[tuple]] = {}
            for key in pending:
                by_video.setdefault(key[0], []).append(key)
            for video, keys in by_video.items():
                generated = self._generate_frames(video, [k[1] for k in keys])
                for key, detections in zip(keys, generated, strict=True):
                    if class_filter is not None:
                        detections = [
                            d for d in detections if d.class_name == class_filter
                        ]
                    cache.put((scope,) + key, detections)
                    indices = pending[key]
                    out[indices[0]] = detections
                    for extra in indices[1:]:
                        out[extra] = list(detections)
        return out  # type: ignore[return-value]

    def _detect_filtered(
        self, video: int, frame: int, class_filter: Optional[str]
    ) -> List[Detection]:
        detections = self._generate_frames(video, [frame])[0]
        if class_filter is not None:
            detections = [d for d in detections if d.class_name == class_filter]
        return detections

    # -- internals ---------------------------------------------------------

    def _miss_probability(self, box: BoundingBox) -> float:
        """Scalar miss probability for one ground-truth box.

        The batched pipeline evaluates the same formula vectorised; this
        form documents it (and serves tests and explorations).
        """
        profile = self.profile
        side = float(np.sqrt(max(box.area, 1.0)))
        smallness = max(0.0, 1.0 - side / profile.reference_size)
        return min(profile.miss_rate + profile.small_box_penalty * smallness, 0.95)

    def _generate_frames(
        self, video: int, frame_list: List[int]
    ) -> List[List[Detection]]:
        """Generate (unfiltered) detections for many frames of one video.

        The expensive geometry — ground-truth boxes at each frame, miss
        probabilities, jitter scales — is computed once for the whole group
        in flat ``(frame, instance)`` arrays. Randomness stays strictly
        per-frame: each frame re-keys the shared generator on
        ``(seed, video, frame)`` and draws its miss/jitter/score vectors
        from that stream, so outputs are independent of how frames are
        grouped into calls (``detect`` and ``detect_batch`` agree exactly).
        Per frame, instances appear in uid-index order, the same order the
        historical per-instance loop used.
        """
        world = self.world
        profile = self.profile
        meta = world.repository.videos[video]
        width, height = float(meta.width), float(meta.height)
        frames_arr = np.asarray(frame_list, dtype=np.int64)
        uids_flat, counts_arr = world.visible_uids_batch(video, frames_arr)
        counts = counts_arr.tolist()
        if uids_flat.size:
            arrays = world.instance_arrays()
            names = arrays.class_names
            frames_flat = np.repeat(frames_arr, counts_arr)
            boxes_flat = world.boxes_at(uids_flat, frames_flat)
            widths_flat = boxes_flat[:, 2] - boxes_flat[:, 0]
            heights_flat = boxes_flat[:, 3] - boxes_flat[:, 1]
            side = np.sqrt(np.maximum(widths_flat * heights_flat, 1.0))
            smallness = np.maximum(0.0, 1.0 - side / profile.reference_size)
            miss_p_flat = np.minimum(
                profile.miss_rate + profile.small_box_penalty * smallness, 0.95
            )
            sig_x_flat = profile.jitter * np.maximum(widths_flat, 1.0)
            sig_y_flat = profile.jitter * np.maximum(heights_flat, 1.0)
            codes_flat = arrays.class_codes[uids_flat]
            box_lower = np.zeros(4)
            box_upper = np.array([width, height, width, height])
        base_digest = digest_keys(self.seed, "detect", video)
        seeded_offset = self._frame_rng.seeded_offset
        jitter = profile.jitter
        score_a, score_b = profile.score_tp
        has_fps = profile.false_positives_per_frame > 0
        out: List[List[Detection]] = []
        offset = 0
        for frame, count in zip(frame_list, counts, strict=True):
            rng = seeded_offset(base_digest, frame)
            detections: List[Detection] = []
            if count:
                sl = slice(offset, offset + count)
                offset += count
                keep = rng.random(count) >= miss_p_flat[sl]
                if keep.any():
                    kept = boxes_flat[sl][keep]
                    if jitter > 0:
                        noise = rng.normal(0.0, 1.0, size=(len(kept), 4))
                        dx = noise[:, 0:2] * sig_x_flat[sl][keep][:, None]
                        dy = noise[:, 2:4] * sig_y_flat[sl][keep][:, None]
                        x_a = kept[:, 0] + dx[:, 0]
                        x_b = kept[:, 2] + dx[:, 1]
                        y_a = kept[:, 1] + dy[:, 0]
                        y_b = kept[:, 3] + dy[:, 1]
                        kept = np.empty((len(x_a), 4))
                        np.minimum(x_a, x_b, out=kept[:, 0])
                        np.minimum(y_a, y_b, out=kept[:, 1])
                        np.maximum(x_a, x_b, out=kept[:, 2])
                        np.maximum(y_a, y_b, out=kept[:, 3])
                    np.minimum(kept, box_upper, out=kept)
                    np.maximum(kept, box_lower, out=kept)
                    scores = rng.beta(score_a, score_b, size=len(kept))
                    detections.extend(
                        Detection(
                            video=video,
                            frame=frame,
                            box=BoundingBox(x1, y1, x2, y2),
                            class_name=names[code],
                            score=score,
                            instance_uid=uid,
                        )
                        for (x1, y1, x2, y2), code, score, uid in zip(
                            kept.tolist(),
                            codes_flat[sl][keep].tolist(),
                            scores.tolist(),
                            uids_flat[sl][keep].tolist(),
                            strict=True,
                        )
                    )
            if has_fps:
                fp_count = int(rng.poisson(profile.false_positives_per_frame))
                if fp_count:
                    detections.extend(
                        self._false_positives(
                            video, frame, rng, fp_count, width, height
                        )
                    )
            out.append(detections)
        return out

    def _false_positives(
        self,
        video: int,
        frame: int,
        rng: np.random.Generator,
        count: int,
        width: float,
        height: float,
    ) -> List[Detection]:
        """Build ``count`` spurious detections (the Poisson draw happened
        in the caller, on this frame's stream)."""
        profile = self.profile
        names = self._class_names
        w = rng.uniform(20.0, 200.0, size=count)
        h = w * rng.uniform(0.5, 1.5, size=count)
        x1 = rng.uniform(0.0, 1.0, size=count) * np.maximum(width - w, 1.0)
        y1 = rng.uniform(0.0, 1.0, size=count) * np.maximum(height - h, 1.0)
        codes = rng.integers(0, len(names), size=count)
        scores = rng.beta(*profile.score_fp, size=count)
        return [
            Detection(
                video=video,
                frame=frame,
                box=BoundingBox(bx1, by1, bx1 + bw, by1 + bh),
                class_name=names[code],
                score=score,
                instance_uid=None,
            )
            for bx1, by1, bw, bh, code, score in zip(
                x1.tolist(),
                y1.tolist(),
                w.tolist(),
                h.tolist(),
                codes.tolist(),
                scores.tolist(),
                strict=True,
            )
        ]

