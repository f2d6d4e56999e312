"""The query engine: repository + detector + discriminator + a searcher.

:class:`QueryEngine` is the user-facing entry point of the library. It wires
a dataset's chunk map, a (simulated) object detector, a fresh
:class:`~repro.tracking.TrackDiscriminator` and a cost model into a
:class:`~repro.core.environment.SearchEnvironment`, then runs any of the
registered search methods over it:

>>> from repro.video import make_dataset
>>> from repro.query import QueryEngine, DistinctObjectQuery
>>> dataset = make_dataset("dashcam", scale=0.02, seed=7)
>>> engine = QueryEngine(dataset, seed=7)
>>> outcome = engine.run(
...     DistinctObjectQuery("traffic light", limit=5), method="exsample"
... )
>>> outcome.num_results >= 5
True
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

# Importing these packages registers every built-in search method with the
# registry (each method module self-registers at import time).
import repro.baselines  # noqa: F401  - registers the five §II-B baselines
import repro.extensions.fusion  # noqa: F401  - registers exsample_fusion
from repro.core.belief import beliefs_from_counts
from repro.core.config import PAPER_ALPHA0, PAPER_BETA0, ExSampleConfig
from repro.core.environment import FrameRequest, Observation
from repro.core.registry import (
    SEARCH_METHODS,
    SearcherContext,
    searcher_spec,
)
from repro.core.sampler import Searcher, SearchTrace
from repro.detection.cache import CacheInfo, CacheSpec, make_detection_cache
from repro.detection.proxy import ProxyModel
from repro.detection.simulated import DetectorProfile, SimulatedDetector
from repro.errors import QueryError
from repro.index.store import (
    canonical_query_digest,
    chunk_signature,
    make_repository_index,
)
from repro.query.cost import CostModel
from repro.query.metrics import recall_curve, samples_to_recall, time_to_recall
from repro.query.query import DistinctObjectQuery
from repro.query.session import QuerySession
from repro.tracking.discriminator import TrackDiscriminator
from repro.utils.rng import RngFactory
from repro.video.datasets import Dataset

__all__ = [
    "SEARCH_METHODS",
    "FoundObject",
    "QueryEngine",
    "QueryOutcome",
    "ReplaySession",
    "VideoSearchEnvironment",
]


@dataclass(frozen=True)
class FoundObject:
    """One distinct result returned to the user."""

    video: int
    frame: int
    class_name: str
    score: float
    box_xyxy: tuple
    instance_uid: Optional[int]
    track_id: int


@dataclass
class QueryOutcome:
    """Everything a query run produced."""

    query: DistinctObjectQuery
    method: str
    trace: SearchTrace
    gt_count: int

    @property
    def num_results(self) -> int:
        return self.trace.num_results

    @property
    def found(self) -> List[FoundObject]:
        return [r for r in self.trace.results if isinstance(r, FoundObject)]

    def recall(self) -> float:
        curve = recall_curve(self.trace, self.gt_count)
        return float(curve[-1]) if curve.size else 0.0

    def samples_to_recall(self, recall: float) -> Optional[int]:
        return samples_to_recall(self.trace, self.gt_count, recall)

    def time_to_recall(self, recall: float) -> Optional[float]:
        return time_to_recall(self.trace, self.gt_count, recall)


class _ReplaySearcher:
    """Searcher stand-in carried by a replayed run.

    Serving drivers reach through ``run.searcher.env`` for the detector;
    a replay has no environment (nothing left to detect), so the stub
    exposes ``env = None`` and the recorded searcher name.
    """

    def __init__(self, name: str):
        self.name = name
        self.env = None


class ReplayRun:
    """A finished :class:`~repro.core.sampler.SearchRun` look-alike.

    Wraps a trace recorded by the repository index. Born finished:
    ``propose()`` yields nothing, every driver — blocking, streaming, or
    the serving event loop — observes immediate completion, and no
    detector is ever invoked.
    """

    def __init__(self, trace: SearchTrace, reason: str):
        self._trace = trace
        self.reason = reason
        self.finished = True
        self.searcher = _ReplaySearcher(trace.searcher)

    @property
    def num_samples(self) -> int:
        return self._trace.num_samples

    @property
    def num_results(self) -> int:
        return self._trace.num_results

    @property
    def total_cost(self) -> float:
        return self._trace.total_cost

    def propose(self):
        return None

    def trace(self) -> SearchTrace:
        return self._trace


class ReplaySession(QuerySession):
    """A session short-circuited by a recorded repository-index outcome.

    Behaves like a :class:`~repro.query.session.QuerySession` whose run
    already finished: ``stream()`` yields exactly the terminal
    :class:`~repro.query.session.BudgetExhausted` event (with the original
    stop reason), and :meth:`outcome` returns the *recorded* outcome
    object — byte-identical under re-pickling to what the original run
    produced — at the cost of zero detector calls.
    """

    replayed = True

    def __init__(self, record: dict, query, method: str, gt_count: int):
        outcome = pickle.loads(record["blob"])
        super().__init__(
            ReplayRun(outcome.trace, record.get("reason") or "exhausted"),
            query=query,
            method=method,
            gt_count=gt_count,
        )
        self._outcome = outcome
        #: The recorded outcome pickle, byte-for-byte what the original
        #: live run serialised (``pickle.dumps(original_outcome)``); kept
        #: so callers can verify byte-identity without re-pickling.
        self.outcome_blob: bytes = record["blob"]

    def outcome(self) -> "QueryOutcome":
        return self._outcome


class VideoSearchEnvironment:
    """SearchEnvironment over a dataset for one target class."""

    def __init__(
        self,
        dataset: Dataset,
        detector: SimulatedDetector,
        discriminator: TrackDiscriminator,
        cost_model: CostModel,
        class_name: str,
    ):
        if class_name not in dataset.classes:
            raise QueryError(
                f"class {class_name!r} not in dataset {dataset.name!r}; "
                f"available: {dataset.classes}"
            )
        self.dataset = dataset
        self.detector = detector
        self.discriminator = discriminator
        self.cost_model = cost_model
        self.class_name = class_name

    def chunk_sizes(self) -> np.ndarray:
        return self.dataset.chunk_map.sizes()

    def observe(self, chunk: int, frame: int) -> Observation:
        video, vframe = self.dataset.chunk_map.to_video_frame(chunk, frame)
        detections = self.detector.detect(video, vframe, class_filter=self.class_name)
        match = self.discriminator.observe_full(video, vframe, detections)
        return self._observation_from(
            chunk, video, vframe, match, self.cost_model.sample_cost(video, vframe)
        )

    def observe_batch(self, picks) -> List[Observation]:
        """Vectorised batch observation (§III-F).

        The trivial propose-then-ingest composition: resolve the batch
        into a :class:`~repro.core.environment.FrameRequest`, run the
        detector on it, fold the detections back in. Results are
        identical to per-pick :meth:`observe` calls in the same order —
        the detector is deterministic per frame and the discriminator
        folds the batch's frames into its track store sequentially.
        """
        if not picks:
            return []
        request = self.propose_batch(picks)
        return self.ingest_batch(request, self.detect_request(request))

    def propose_batch(self, picks) -> FrameRequest:
        """Resolve picks into a detector-facing request without detecting.

        Each pick is translated and costed on its own, in plain Python: a
        step holds one pick or a few, for which per-call array set-up
        would cost more than the picks. No detector or discriminator
        state is touched, so any number of sessions can hold proposed
        requests simultaneously while a serving layer fuses their
        detection.
        """
        picks = list(picks)
        to_video_frame = self.dataset.chunk_map.to_video_frame
        sample_cost = self.cost_model.sample_cost
        videos, vframes, costs = [], [], []
        for chunk, within in picks:
            video, vframe = to_video_frame(chunk, within)
            videos.append(video)
            vframes.append(vframe)
            costs.append(sample_cost(video, vframe))
        return FrameRequest(
            picks=picks,
            videos=videos,
            frames=vframes,
            class_filter=self.class_name,
            context=costs,
        )

    def detect_request(self, request: FrameRequest) -> List[list]:
        """The blocking detector invocation for one proposed request."""
        return self.detector.detect_batch(
            request.videos, request.frames, class_filter=request.class_filter
        )

    def ingest_batch(
        self, request: FrameRequest, detection_lists: Sequence[list]
    ) -> List[Observation]:
        """Fold externally produced detections into observations.

        ``detection_lists`` must hold one detection list per requested
        frame — whatever :meth:`detect_request` would have returned,
        whether it was produced by that method, by a fused cross-session
        batch, or by a cache. The discriminator consumes the frames in
        pick order, exactly as the blocking path would.
        """
        if len(detection_lists) != len(request.picks):
            raise QueryError(
                f"got {len(detection_lists)} detection lists for "
                f"{len(request.picks)} requested frames"
            )
        if not request.picks:
            return []
        # A frame without detections leaves the discriminator untouched
        # and observes nothing new, so only the others are matched.
        busy = [i for i, detections in enumerate(detection_lists) if detections]
        matches = self.discriminator.observe_full_batch(
            [request.videos[i] for i in busy],
            [request.frames[i] for i in busy],
            [detection_lists[i] for i in busy],
        )
        costs = request.context
        observations = [Observation(0, 0, [], cost, []) for cost in costs]
        for i, match in zip(busy, matches, strict=True):
            observations[i] = self._observation_from(
                request.picks[i][0], request.videos[i], request.frames[i],
                match, costs[i],
            )
        return observations

    def _observation_from(
        self, chunk: int, video: int, vframe: int, match, cost: float
    ) -> Observation:
        """Turn one frame's match result into the sampler-facing record."""
        d0, d1, new_tracks, d1_tracks = (
            match.d0,
            match.d1,
            match.new_tracks,
            match.d1_tracks,
        )
        for track in new_tracks:
            track.origin_chunk = chunk
        results = [
            FoundObject(
                video=video,
                frame=vframe,
                class_name=det.class_name,
                score=det.score,
                box_xyxy=tuple(det.box.as_array()),
                instance_uid=det.instance_uid,
                track_id=track.track_id,
            )
            for det, track in zip(d0, new_tracks, strict=True)
        ]
        origins = [
            track.origin_chunk if track.origin_chunk is not None else chunk
            for track in d1_tracks
        ]
        return Observation(
            d0=len(d0),
            d1=len(d1),
            results=results,
            cost=cost,
            d1_origin_chunks=origins,
        )


class QueryEngine:
    """Runs distinct-object queries over a dataset with any search method.

    ``detection_cache`` configures result memoization on the engine's
    detector: ``"unbounded"`` (the default — detection is a pure function
    of ``(seed, video, frame)``, so every run over this engine pays
    detection once per distinct frame), ``"lru"``, ``"off"``, ``"shared"``
    (one cross-process memo joined by every worker of a parallel sweep —
    see :class:`~repro.parallel.shm.SharedDetectionCache`), or a
    pre-built :class:`~repro.detection.DetectionCache` (e.g. an LRU with a
    custom capacity). Caching changes wall-clock time only, never a trace.
    When an explicit ``detector`` is passed, its own cache configuration is
    respected and ``detection_cache`` is ignored.
    """

    def __init__(
        self,
        dataset: Dataset,
        detector: Optional[SimulatedDetector] = None,
        cost_model: Optional[CostModel] = None,
        detector_profile: Optional[DetectorProfile] = None,
        seed: int = 0,
        detection_cache: CacheSpec = "unbounded",
        index=None,
    ):
        self.dataset = dataset
        self.seed = seed
        self.detector = detector or SimulatedDetector(
            dataset.world,
            profile=detector_profile,
            seed=seed,
            cache=make_detection_cache(detection_cache),
        )
        self.cost_model = cost_model or CostModel()
        self._proxies: Dict[tuple, ProxyModel] = {}
        # ``index`` attaches a persistent repository index (a directory
        # path or RepositoryIndex): completed sessions record what they
        # learned, new sessions warm-start from it, exact repeats replay.
        self.index = make_repository_index(index)
        self._chunk_sig: Optional[str] = None
        if self.index is not None:
            self.index.preload_cache(self.detector)

    # -- repository-index plumbing -------------------------------------------

    def chunk_sig(self) -> str:
        """Memoized :func:`~repro.index.store.chunk_signature` of the dataset."""
        if self._chunk_sig is None:
            self._chunk_sig = chunk_signature(self.dataset.chunk_map.sizes())
        return self._chunk_sig

    def query_digest(
        self,
        query: DistinctObjectQuery,
        method: str = "exsample",
        run_seed: int = 0,
        config: Optional[ExSampleConfig] = None,
        searcher_kwargs: Optional[dict] = None,
    ) -> str:
        """The canonical digest under which this submission is indexed."""
        return canonical_query_digest(
            scope=self.detector.cache_scope(),
            chunk_sig=self.chunk_sig(),
            engine_seed=self.seed,
            cost_model=self.cost_model,
            method=method,
            run_seed=run_seed,
            query=query,
            config=config,
            searcher_kwargs=searcher_kwargs,
        )

    def _warm_config(
        self, class_name: str, run_seed: int, searcher_kwargs: dict
    ) -> Optional[ExSampleConfig]:
        """An index-warmed ExSample config, or None to start uniform.

        Builds per-chunk priors from the aggregated ``(n, N1)`` the index
        holds for this exact (detector scope, class, chunking): through
        :func:`~repro.core.belief.beliefs_from_counts` the recorded counts
        become ``alpha0 = clip(N1) + PAPER_ALPHA0`` and
        ``beta0 = n + PAPER_BETA0`` — the posterior earlier queries earned,
        used as this run's prior. Consumes ``batch_size`` from
        ``searcher_kwargs`` (folding it into the config, exactly as the
        registry's config folding would) so the built config does not
        collide with the batch-size-vs-config exclusivity check.
        """
        counts = self.index.counts_for(
            self.detector.cache_scope(), class_name, self.chunk_sig()
        )
        if counts is None:
            return None
        n, n1 = counts
        alpha0_vec, beta0_vec = beliefs_from_counts(
            np.maximum(n1, 0.0), n, PAPER_ALPHA0, PAPER_BETA0
        )
        batch_size = searcher_kwargs.pop("batch_size", None)
        return ExSampleConfig(
            seed=run_seed,
            batch_size=batch_size or 1,
            alpha0=alpha0_vec,
            beta0=beta0_vec,
        )

    def _attach_recorder(
        self, session: QuerySession, query_digest: str
    ) -> None:
        """Hook index recording onto a live session's completion."""
        index = self.index
        scope = self.detector.cache_scope()
        chunk_sig = self.chunk_sig()
        chunk_map = self.dataset.chunk_map
        num_chunks = int(chunk_map.sizes().size)
        class_name = session.query.class_name

        def _record(sess: QuerySession) -> None:
            trace = sess.trace()
            detections: dict = {}
            cache = self.detection_cache
            if (
                cache is not None
                and hasattr(cache, "snapshot")
                and trace.chunks.size
            ):
                videos, vframes = chunk_map.to_video_frame_batch(
                    trace.chunks, trace.frames
                )
                wanted = set(zip(videos.tolist(), vframes.tolist(), strict=True))
                for key, dets in cache.snapshot(scope).items():
                    if (key[1], key[2]) in wanted:
                        detections[key[1:]] = dets
            blob = pickle.dumps(
                sess.outcome(), protocol=pickle.HIGHEST_PROTOCOL
            )
            index.record_session(
                scope=scope,
                class_name=class_name,
                chunk_sig=chunk_sig,
                num_chunks=num_chunks,
                trace=trace,
                query_digest=query_digest,
                outcome_blob=blob,
                reason=sess.reason,
                detections=detections,
            )

        session.on_complete = _record

    # -- cache introspection -------------------------------------------------

    @property
    def detection_cache(self):
        """The detector's :class:`DetectionCache`, or None when off."""
        return getattr(self.detector, "cache", None)

    def cache_info(self) -> Optional[CacheInfo]:
        """Hit/miss counters of the detection cache (None when off)."""
        cache = self.detection_cache
        return cache.info() if cache is not None else None

    # -- construction helpers ----------------------------------------------

    def environment(self, class_name: str, run_seed: int = 0) -> VideoSearchEnvironment:
        """A fresh environment (fresh discriminator state) for one query run."""
        discriminator = TrackDiscriminator(
            self.dataset.world, seed=self.seed * 1000003 + run_seed
        )
        return VideoSearchEnvironment(
            dataset=self.dataset,
            detector=self.detector,
            discriminator=discriminator,
            cost_model=self.cost_model,
            class_name=class_name,
        )

    def proxy_model(self, class_name: str, quality: Optional[float] = None) -> ProxyModel:
        """The (cached) proxy scorer for a class.

        Default quality reflects the §V-A observation that moving-camera
        data is harder for proxies: 0.80 for moving, 0.90 for static.
        """
        if quality is None:
            quality = 0.80 if self.dataset.camera == "moving" else 0.90
        key = (class_name, quality)
        if key not in self._proxies:
            self._proxies[key] = ProxyModel(
                self.dataset.world, class_name, quality=quality, seed=self.seed
            )
        return self._proxies[key]

    def make_searcher(
        self,
        method: str,
        env: VideoSearchEnvironment,
        run_seed: int = 0,
        config: Optional[ExSampleConfig] = None,
        proxy_quality: Optional[float] = None,
        dedup_window_s: float = 1.0,
        stride: Optional[int] = None,
        sample_budget_hint: Optional[int] = None,
        batch_size: Optional[int] = None,
        **extras,
    ) -> Searcher:
        """Instantiate a search method over an environment.

        Dispatches through the searcher registry
        (:mod:`repro.core.registry`): any method registered with
        ``@register_searcher`` — built-in or third-party — is constructed
        by its own factory, which receives this call's arguments as a
        :class:`~repro.core.registry.SearcherContext`. Unrecognised keyword
        arguments are forwarded in ``ctx.extras`` to factories registered
        with ``accepts_extras=True`` and rejected otherwise, so a
        misspelled option fails fast instead of silently running a
        misconfigured search.

        ``batch_size`` sets the §III-F observation batch for any method
        (every searcher supports it). For the ExSample variants it is
        folded into the config, so it cannot be combined with an explicit
        ``config``.
        """
        if batch_size is not None and batch_size < 1:
            raise QueryError(f"batch_size must be >= 1, got {batch_size}")
        spec = searcher_spec(method)
        if extras and not spec.accepts_extras:
            raise QueryError(
                f"unknown keyword arguments for method {method!r}: "
                f"{sorted(extras)} (its factory was not registered with "
                "accepts_extras=True)"
            )
        context = SearcherContext(
            engine=self,
            env=env,
            rngs=RngFactory(self.seed).child("run", method, run_seed),
            run_seed=run_seed,
            config=config,
            batch_size=batch_size,
            proxy_quality=proxy_quality,
            dedup_window_s=dedup_window_s,
            stride=stride,
            sample_budget_hint=sample_budget_hint,
            extras=extras,
        )
        return spec.factory(context)

    # -- the main entry points -----------------------------------------------

    def session(
        self,
        query: DistinctObjectQuery,
        method: str = "exsample",
        run_seed: int = 0,
        config: Optional[ExSampleConfig] = None,
        **searcher_kwargs,
    ) -> QuerySession:
        """Open a resumable streaming session for one query.

        The returned :class:`~repro.query.session.QuerySession` yields
        typed events from ``stream()``, can ``pause()`` between events, and
        ``checkpoint()``/``restore()`` its complete state; see the session
        module for the event vocabulary. :meth:`run` is a thin blocking
        wrapper over this method.

        With a repository index attached, three things happen here. An
        exact repeat of a recorded submission (same detector identity,
        chunking, engine seed, cost model, method, run seed, query, config
        and options) returns a :class:`ReplaySession` — the recorded
        outcome, zero detector calls. Otherwise a plain ExSample run
        (``method="exsample"``, no explicit config) warm-starts from the
        index's per-chunk counts for this class. Either way, a live
        session records its knowledge back into the index on completion.
        The digest covers the user's inputs only — never the warm priors —
        so a repeat replays no matter how the index evolved in between.
        """
        if query.class_name not in self.dataset.classes:
            raise QueryError(
                f"class {query.class_name!r} not in dataset "
                f"{self.dataset.name!r}; available: {self.dataset.classes}"
            )
        gt_count = self.dataset.gt_count(query.class_name)
        query_digest: Optional[str] = None
        if self.index is not None:
            query_digest = self.query_digest(
                query, method, run_seed, config, searcher_kwargs
            )
            record = self.index.outcome_for(query_digest)
            if record is not None:
                return ReplaySession(
                    record, query=query, method=method, gt_count=gt_count
                )
        run_config = config
        if (
            self.index is not None
            and config is None
            and method == "exsample"
        ):
            searcher_kwargs = dict(searcher_kwargs)
            run_config = self._warm_config(
                query.class_name, run_seed, searcher_kwargs
            )
        env = self.environment(query.class_name, run_seed)
        searcher = self.make_searcher(
            method, env, run_seed=run_seed, config=run_config, **searcher_kwargs
        )
        # User-facing limits count discriminator results (the paper's limit
        # clause); recall targets are an evaluation construct and count
        # unique ground-truth instances so measured recall actually reaches
        # the target despite false-positive or duplicate tracks.
        limit = query.resolve_limit(gt_count)
        limit_kind = (
            "distinct_real_limit" if query.recall_target is not None else "result_limit"
        )
        run = searcher.begin(
            frame_budget=query.frame_budget,
            cost_budget=query.cost_budget,
            **{limit_kind: limit},
        )
        session = QuerySession(run, query=query, method=method, gt_count=gt_count)
        if self.index is not None and query_digest is not None:
            self._attach_recorder(session, query_digest)
        return session

    def run(
        self,
        query: DistinctObjectQuery,
        method: str = "exsample",
        run_seed: int = 0,
        config: Optional[ExSampleConfig] = None,
        **searcher_kwargs,
    ) -> QueryOutcome:
        """Execute one query with one method and return the outcome."""
        session = self.session(
            query, method=method, run_seed=run_seed, config=config, **searcher_kwargs
        )
        return session.run_to_completion()

    def serve(self, config=None, **overrides):
        """A :class:`~repro.serving.QueryServer` over this engine.

        The asyncio entry point for concurrent multi-tenant serving: many
        sessions on one event loop, admitted and batched in submission
        order, detector requests fused across them by a
        :class:`~repro.serving.DetectorBatcher`, this engine's detection
        cache shared by every tenant. ``config`` is a
        :class:`~repro.serving.ServerConfig`; keyword overrides build one
        (``engine.serve(max_in_flight=16, max_batch_size=64)``). Must be
        driven from within a running event loop; the blocking wrapper is
        :meth:`run_many`.
        """
        from repro.serving import QueryServer, ServerConfig

        if config is not None and overrides:
            raise QueryError("pass config= or keyword overrides, not both")
        if config is None:
            config = ServerConfig(**overrides)
        return QueryServer(self, config)

    def run_many(
        self,
        queries: Sequence[DistinctObjectQuery],
        method: Union[str, Sequence[str]] = "exsample",
        run_seeds: Optional[Sequence[int]] = None,
        config: Optional[ExSampleConfig] = None,
        server_config=None,
        **searcher_kwargs,
    ) -> List[QueryOutcome]:
        """Run several queries concurrently over one shared detector.

        A thin blocking wrapper over the :class:`~repro.serving
        .QueryServer` event loop — the one stepping loop in the codebase:
        sessions interleave on the server, their detector requests fused
        into cross-session batches over this engine's shared detection
        cache. Each query gets a fresh environment and an independent
        ``run_seed`` (``run_seeds`` defaults to ``0, 1, 2, ...``), which
        makes the outcomes *identical* to running each query alone with
        the matching seed: serving changes wall-clock scheduling, never
        results.

        ``method`` may be one name for all queries or a sequence aligned
        with ``queries``; ``server_config`` (a
        :class:`~repro.serving.ServerConfig`) tunes batching and
        admission for this call.
        """
        from repro.serving import serve_sessions

        queries = list(queries)
        if isinstance(method, str):
            methods = [method] * len(queries)
        else:
            methods = list(method)
            if len(methods) != len(queries):
                raise QueryError(
                    f"got {len(methods)} methods for {len(queries)} queries"
                )
        if run_seeds is None:
            run_seeds = range(len(queries))
        else:
            run_seeds = list(run_seeds)
            if len(run_seeds) != len(queries):
                raise QueryError(
                    f"got {len(run_seeds)} run_seeds for {len(queries)} queries"
                )
        sessions = [
            self.session(
                query,
                method=name,
                run_seed=seed,
                config=config,
                **searcher_kwargs,
            )
            for query, name, seed in zip(queries, methods, run_seeds, strict=True)
        ]
        return serve_sessions(sessions, engine=self, config=server_config)
