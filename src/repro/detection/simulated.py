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

Two kernels
-----------

The size of a call picks its kernel; no option or threshold does. A
call of one ``(video, frame)`` pair takes the scalar kernel: every step
of Algorithm 1 detects one frame, so every ``solo`` step and nearly
every ``fleet`` shard call (about one frame a call) lands there, while
the fused calls of ``batch`` (11.7 frames on average) never do.
:meth:`~repro.video.SyntheticWorld.visible_uids` finds the frame's
visible instances with one ``searchsorted``, and their boxes, miss
probabilities, jitter and clipping are computed as Python floats, with
no array set-up. A call of two or more pairs takes the fused pass,
which generates all of its frames at once, whichever videos they belong
to: :meth:`~repro.video.SyntheticWorld.visible_at` finds the instances
visible at every pair with one ``searchsorted`` into the world's segment
table, and the ground-truth boxes and miss probabilities of all of them
are computed in flat arrays. After its draw loop the requested class is
selected (skipped when no row was kept), its rows are jittered and
clipped to their frames in one pass, and only then are
:class:`~repro.detection.detections.Detection` objects built. Measured
on a 2-vCPU VM, a one-frame call costs 12–17 µs on the scalar kernel
against 37–46 µs through the fused pass (bdd1k, archie 0.2). In a
two-frame call the fused pass costs 23–31 µs a frame, against 9–19 µs
for one-frame calls; it draws level at about 6 frames on archie
(19.0 µs) and 12 on bdd1k (13.6 against 12.6 µs), and at 12 frames it
wins on archie alone (15.3 against 18.8 µs).

Both kernels make the same draws. Each frame re-keys a shared generator
on ``(seed, video, frame)`` and draws, in order, one uniform per visible
instance (the miss test), a 4-vector of jitter and a score per kept
instance, the Poisson false-positive count and the false positives' own
variates. The re-key offsets a per-video stream base, a blake2b digest
of ``(seed, "detect", video)``; that base and the video's frame bounds
are computed once per detector, on the video's first frame, so a
one-frame call pays for neither. The scalar kernel computes every value
with the same IEEE operations, in the same order, as the fused pass's
array expressions, and keeps numpy's tie rule for ``minimum`` and
``maximum``, so a frame detects byte for byte alike in either kernel.
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
from math import sqrt
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
        return self._detect_one(int(video), int(frame), class_filter)

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
        output. A one-frame call takes the scalar kernel, as
        :meth:`detect` does; otherwise every frame the call generates,
        across all its videos, goes through one vectorised pass (see the
        module docstring).
        """
        if len(videos) != len(frames):
            raise ConfigError("videos and frames must align")
        n = len(frames)
        self._charge(n)
        if n == 1:
            return [self._detect_one(int(videos[0]), int(frames[0]), class_filter)]
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

    def _detect_one(
        self, video: int, frame: int, class_filter: Optional[str]
    ) -> List[Detection]:
        """One frame through the cache, from the scalar kernel on a miss."""
        cache = self.cache
        if cache is None:
            return self._generate_one(video, frame, class_filter)
        key = (self.cache_scope(), video, frame, class_filter)
        detections = cache.get(key)
        if detections is None:
            detections = self._generate_one(video, frame, class_filter)
            cache.put(key, detections)
        return detections

    def _miss_probability(self, box: BoundingBox) -> float:
        """Scalar miss probability for one ground-truth box.

        Both kernels evaluate this formula, the fused pass as array
        expressions and the scalar kernel inline; this form documents it
        (and serves tests and explorations).
        """
        profile = self.profile
        side = float(np.sqrt(max(box.area, 1.0)))
        smallness = max(0.0, 1.0 - side / profile.reference_size)
        return min(profile.miss_rate + profile.small_box_penalty * smallness, 0.95)

    def _video_constants(self, video: int) -> tuple:
        """``(stream base, (w, h, w, h) bounds)`` of ``video``, memoised:
        the blake2b digest alone costs more than a one-frame draw."""
        constants = self._per_video.get(video)
        if constants is None:
            meta = self.world.repository.videos[video]
            bounds = (float(meta.width), float(meta.height)) * 2
            constants = self._per_video[video] = (
                digest_keys(self.seed, "detect", video), bounds
            )
        return constants

    def _generate(
        self,
        videos: Sequence[int],
        frames: Sequence[int],
        class_filter: Optional[str],
    ) -> List[List[Detection]]:
        """Detections of ``class_filter`` (every class if ``None``) per pair.

        A call of one pair goes to the scalar kernel,
        :meth:`_generate_one`. Otherwise the geometry — visible
        instances, their ground-truth boxes and miss probabilities — is
        computed once for all pairs in flat arrays, one row per visible
        instance, pairs in order. The loop then walks the pairs and only
        draws: re-key on ``(seed, video, frame)``, miss uniforms, jitter
        and scores for the kept rows, the false-positive count and
        variates. After it, the requested class is selected from the kept
        rows, which are jittered and clipped to their frames in one pass
        and become objects. Within a pair, detections follow
        ``visible_at`` order, false positives last.
        """
        if len(videos) == 1:
            return [self._generate_one(videos[0], frames[0], class_filter)]
        world = self.world
        profile = self.profile
        per_video = [self._video_constants(video) for video in videos]
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
        for i, (video, frame, count, (base, bounds)) in enumerate(
            zip(videos, frames, counts.tolist(), per_video, strict=True)
        ):
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
            upper = np.array([bounds for _, bounds in per_video])
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

    def _generate_one(
        self, video: int, frame: int, class_filter: Optional[str]
    ) -> List[Detection]:
        """The fused pass of :meth:`_generate` for one pair, in Python floats.

        Each value is computed by the same IEEE operations, in the same
        order, as in the fused pass's array expressions, and numpy's tie
        rule for ``minimum``/``maximum`` (the second operand wins a tie,
        which fixes the sign of a zero) is kept by writing them as
        ``a if a < b else b`` and ``a if a > b else b``. The draws are the
        same calls in the same order. A frame therefore detects byte for
        byte alike alone and inside any fused call.
        """
        world = self.world
        arrays = world.instance_arrays()
        profile = self.profile
        base, (width, height, _, _) = self._video_constants(video)
        rng = self._frame_rng.seeded_offset(base, frame)
        uids = world.visible_uids(video, frame)
        kept: List[tuple] = []
        if uids.size:
            starts, durations = arrays.starts, arrays.durations
            entry, exit_ = arrays.entry, arrays.exit
            reference = profile.reference_size
            miss_rate = profile.miss_rate
            penalty = profile.small_box_penalty
            uniforms = rng.random(uids.size).tolist()
            for uid, uniform in zip(uids.tolist(), uniforms, strict=True):
                # The ground-truth box, as in SyntheticWorld.boxes_at.
                denom = durations.item(uid) - 1
                t = (frame - starts.item(uid)) / (denom if denom > 1 else 1)
                t = t if t > 0.0 else 0.0
                t = t if t < 1.0 else 1.0
                ex1, ey1, ex2, ey2 = entry[uid].tolist()
                qx1, qy1, qx2, qy2 = exit_[uid].tolist()
                x1 = ex1 + (qx1 - ex1) * t
                y1 = ey1 + (qy1 - ey1) * t
                x2 = ex2 + (qx2 - ex2) * t
                y2 = ey2 + (qy2 - ey2) * t
                # Its miss probability, then the miss test.
                w, h = x2 - x1, y2 - y1
                area = w * h
                smallness = 1.0 - sqrt(area if area > 1.0 else 1.0) / reference
                smallness = 0.0 if 0.0 > smallness else smallness
                miss_p = miss_rate + penalty * smallness
                if uniform >= (miss_p if miss_p < 0.95 else 0.95):
                    kept.append((uid, x1, y1, x2, y2, w, h))
        jitter = profile.jitter
        if kept:
            if jitter > 0:
                noise = rng.normal(0.0, 1.0, size=(len(kept), 4)).tolist()
            scores = rng.beta(*profile.score_tp, size=len(kept)).tolist()
        spurious: List[Detection] = []  # drawn last, reported last
        fp_rate = profile.false_positives_per_frame
        if fp_rate > 0:
            fp_count = int(rng.poisson(fp_rate))
            if fp_count:
                spurious = self._false_positives(
                    video, frame, rng, fp_count, width, height
                )

        out: List[Detection] = []
        if kept:
            names, codes = arrays.class_names, arrays.class_codes
            for k, (uid, x1, y1, x2, y2, w, h) in enumerate(kept):
                name = names[codes.item(uid)]
                if class_filter is not None and name != class_filter:
                    continue
                if jitter > 0:
                    # x1 and x2 move by noise columns 0 and 1, y1 and y2
                    # by columns 2 and 3, as in the fused pass.
                    n0, n1, n2, n3 = noise[k]
                    sx = jitter * (w if w > 1.0 else 1.0)
                    sy = jitter * (h if h > 1.0 else 1.0)
                    a, b = x1 + n0 * sx, x2 + n1 * sx
                    x1, x2 = (a if a < b else b), (a if a > b else b)
                    a, b = y1 + n2 * sy, y2 + n3 * sy
                    y1, y2 = (a if a < b else b), (a if a > b else b)
                x1 = x1 if x1 < width else width
                y1 = y1 if y1 < height else height
                x2 = x2 if x2 < width else width
                y2 = y2 if y2 < height else height
                box = BoundingBox(
                    x1 if x1 > 0.0 else 0.0,
                    y1 if y1 > 0.0 else 0.0,
                    x2 if x2 > 0.0 else 0.0,
                    y2 if y2 > 0.0 else 0.0,
                )
                out.append(Detection(video, frame, box, name, scores[k], uid))
        if spurious:
            out.extend(
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

