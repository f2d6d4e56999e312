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

A call generates all of its frames in one pass, whichever videos they
belong to. :meth:`~repro.video.SyntheticWorld.visible_at` finds the
instances visible at every ``(video, frame)`` pair with one
``searchsorted`` into the world's segment table, and the ground-truth
boxes and miss probabilities of all of them are computed in flat arrays.
Only the random draws stay in the per-frame loop: each frame re-keys a
shared generator on ``(seed, video, frame)`` and draws, in order, one
uniform per visible instance (the miss test), a 4-vector of jitter and a
score per kept instance, the Poisson false-positive count and the false
positives' own variates. The re-key offsets a per-video stream base, a
blake2b digest of ``(seed, "detect", video)``; that base and the video's
frame bounds are computed once per detector, on the video's first frame,
so a one-frame call pays for neither. After the loop the requested class
is selected (skipped when no row was kept), its rows are jittered and
clipped to their frames in one pass, and only then are
:class:`~repro.detection.detections.Detection` objects built.
Since every draw is keyed per frame and consumed in a fixed order, no
output depends on how frames are grouped into calls (``detect`` and
``detect_batch`` agree exactly) or on the class filter.

The draw order differs from the historical per-instance loop (one miss,
jitter and score draw per instance, interleaved), so per-seed outputs
differ from pre-vectorisation releases while remaining draws from exactly
the same distributions: each instance's variates are i.i.d. across
instances, so drawing them as vectors is a pure reordering of independent
samples. Later rewrites of the kernel kept every output byte for byte;
``tests/test_golden_traces.py`` pins digests of the detector's output.
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

#: Lower clipping bound of every box corner.
_ORIGIN = np.zeros(4)
#: Jitter noise column and (x, y) scale column per box corner.
_NOISE_COLUMNS = np.array([0, 2, 1, 3])
_SCALE_COLUMNS = np.array([0, 1, 0, 1])

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
    The world's visibility table is built lazily, on the first call that
    needs it, without a lock: two threads that race build equal tables.
    Session checkpoints embed the detector, so it pickles without the
    lock, the thread-local and the per-video memo, and recreates them on
    restore (the world sheds its table when pickled by value).

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
        # never escapes _generate. The instance is per-thread
        # (detect_batch may run on executor worker threads) — keying is
        # purely digest-driven, so every thread's streams are identical.
        self._rng_local = threading.local()
        # detect()/detect_batch() may race from worker threads; unguarded
        # `+=` would lose counts.
        self._count_lock = threading.Lock()
        # video -> (stream base, frame bounds), derived on first use.
        self._per_video: dict = {}

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
        # restore (counters themselves travel — they are plain ints), as
        # is the derived per-video memo, so checkpoints never carry it.
        del state["_rng_local"]
        del state["_count_lock"]
        del state["_per_video"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rng_local = threading.local()
        self._count_lock = threading.Lock()
        self._per_video = {}

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
        # Plain ints, as in detect_batch: the stream base digests the
        # video's repr, and the per-video memo must not alias int types.
        video, frame = int(video), int(frame)
        cache = self.cache
        if cache is None:
            return self._generate([video], [frame], class_filter)[0]
        key = (self.cache_scope(), video, frame, class_filter)
        hit = cache.get(key)
        if hit is not None:
            return hit
        detections = self._generate([video], [frame], class_filter)[0]
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
        output. Every frame the call generates, across all its videos,
        goes through one vectorised pass (see the module docstring).
        """
        if len(videos) != len(frames):
            raise ConfigError("videos and frames must align")
        n = len(frames)
        self._charge(n)
        cache = self.cache
        if cache is None:
            return self._generate(
                [int(v) for v in videos], [int(f) for f in frames], class_filter
            )
        # One cache lookup — and at most one generation — per distinct
        # (video, frame): duplicate picks within the batch share the
        # generated result instead of re-generating (and re-counting a
        # miss) per occurrence. Keys are namespaced with this detector's
        # identity (one cache may serve several detectors).
        out: List[Optional[List[Detection]]] = [None] * n
        scope = self.cache_scope()
        lookup = cache.get
        pending: dict[tuple, List[int]] = {}
        for i, (video, frame) in enumerate(zip(videos, frames, strict=True)):
            key = (scope, int(video), int(frame), class_filter)
            indices = pending.get(key)
            if indices is not None:
                indices.append(i)
                continue
            hit = lookup(key)
            if hit is None:
                pending[key] = [i]
            else:
                out[i] = hit
        if pending:
            keys = list(pending)
            generated = self._generate(
                [k[1] for k in keys], [k[2] for k in keys], class_filter
            )
            for key, detections in zip(keys, generated, strict=True):
                cache.put(key, detections)
                indices = pending[key]
                out[indices[0]] = detections
                for extra in indices[1:]:
                    out[extra] = list(detections)
        return out  # type: ignore[return-value]

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

    def _generate(
        self,
        videos: Sequence[int],
        frames: Sequence[int],
        class_filter: Optional[str],
    ) -> List[List[Detection]]:
        """Detections of ``class_filter`` (every class if ``None``) per pair.

        The geometry — visible instances, their ground-truth boxes and
        miss probabilities — is computed once for all pairs in flat
        arrays, one row per visible instance, pairs in order. The loop
        then walks the pairs and only draws: re-key on
        ``(seed, video, frame)``, miss uniforms, jitter and scores for the
        kept rows, the false-positive count and variates. After it, the
        requested class is selected from the kept rows, which are jittered
        and clipped to their frames in one pass and become objects.
        Within a pair, detections follow ``visible_at`` order, false
        positives last.
        """
        world = self.world
        profile = self.profile
        # Stream base and (w, h, w, h) bounds per video, memoised: the
        # blake2b digest alone costs more than a one-frame draw.
        per_video = self._per_video
        for video in videos:
            if video not in per_video:
                meta = world.repository.videos[video]
                bounds = (float(meta.width), float(meta.height)) * 2
                per_video[video] = (digest_keys(self.seed, "detect", video), bounds)
        uids, counts = world.visible_at(videos, frames)
        if uids.size:  # boxes, sizes and miss_p are read only for visible rows
            boxes = world.boxes_at(
                uids, np.asarray(frames, dtype=np.int64).repeat(counts)
            )
            sizes = boxes[:, 2:] - boxes[:, :2]
            side = np.sqrt(np.maximum(sizes[:, 0] * sizes[:, 1], 1.0))
            smallness = np.maximum(0.0, 1.0 - side / profile.reference_size)
            miss_p = np.minimum(
                profile.miss_rate + profile.small_box_penalty * smallness, 0.95
            )

        seeded_offset = self._frame_rng.seeded_offset
        jitter = profile.jitter
        score_a, score_b = profile.score_tp
        fp_rate = profile.false_positives_per_frame
        keep = np.empty(uids.size, dtype=bool)
        noise_parts: List[np.ndarray] = []
        score_parts: List[np.ndarray] = []
        false_positives: List[tuple] = []
        end = 0
        for i, (video, frame, count) in enumerate(
            zip(videos, frames, counts.tolist(), strict=True)
        ):
            base, bounds = per_video[video]
            rng = seeded_offset(base, frame)
            if count:
                start, end = end, end + count
                kept = np.count_nonzero(
                    np.greater_equal(
                        rng.random(count), miss_p[start:end], out=keep[start:end]
                    )
                )
                if kept:
                    if jitter > 0:
                        noise_parts.append(rng.normal(0.0, 1.0, size=(kept, 4)))
                    score_parts.append(rng.beta(score_a, score_b, size=kept))
            if fp_rate > 0:
                fp_count = int(rng.poisson(fp_rate))
                if fp_count:
                    width, height = bounds[:2]
                    spurious = self._false_positives(video, frame, rng, fp_count, width, height)
                    false_positives.append((i, spurious))

        out: List[List[Detection]] = [[] for _ in frames]
        rows = keep.nonzero()[0]
        if rows.size:
            arrays = world.instance_arrays()
            names = arrays.class_names
            codes = arrays.class_codes[uids[rows]]
            chosen = slice(None)
            if class_filter is not None:
                chosen = codes == (
                    names.index(class_filter) if class_filter in names else -1
                )
                rows, codes = rows[chosen], codes[chosen]
        if rows.size:
            scores = np.concatenate(score_parts)[chosen]
            picked = boxes[rows]
            if jitter > 0:
                # Corners are x1, y1, x2, y2: x1 and x2 move by noise
                # columns 0 and 1 times the x scale, y1 and y2 by columns
                # 2 and 3 times the y scale.
                noise = np.concatenate(noise_parts)[chosen]
                scale = jitter * np.maximum(sizes[rows], 1.0)
                moved = picked + noise[:, _NOISE_COLUMNS] * scale[:, _SCALE_COLUMNS]
                np.minimum(moved[:, :2], moved[:, 2:], out=picked[:, :2])
                np.maximum(moved[:, :2], moved[:, 2:], out=picked[:, 2:])
            pair_of_row = counts.cumsum().searchsorted(rows, side="right")
            upper = np.array([per_video[video][1] for video in videos])
            np.minimum(picked, upper[pair_of_row], out=picked)
            np.maximum(picked, _ORIGIN, out=picked)
            for pair, (x1, y1, x2, y2), code, score, uid in zip(
                pair_of_row.tolist(),
                picked.tolist(),
                codes.tolist(),
                scores.tolist(),
                uids[rows].tolist(),
                strict=True,
            ):
                out[pair].append(
                    Detection(
                        videos[pair],
                        frames[pair],
                        BoundingBox(x1, y1, x2, y2),
                        names[code],
                        score,
                        uid,
                    )
                )
        for pair, spurious in false_positives:
            out[pair].extend(
                d for d in spurious
                if class_filter is None or d.class_name == class_filter
            )
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

