"""The ExSample search loop (Algorithm 1) and the shared searcher machinery.

:class:`Searcher` is the common scaffold every sampling method in this
library uses: it owns the run loop (pick frames, observe them, update state,
record a trace, stop when a limit is hit) while subclasses decide *which*
frame to look at next. :class:`ExSampleSearcher` is the paper's method; the
baselines in :mod:`repro.baselines` subclass the same scaffold, so every
method produces an identical :class:`SearchTrace` and all comparisons are
apples-to-apples.

A :class:`SearchTrace` records, per processed frame, the chunk, the frame
id, the d0/d1 counts and the cost. From this everything the evaluation needs
is derived exactly: discovery curves (distinct results vs frames processed),
samples-to-k-results, and cost-to-recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.belief import make_policy
from repro.core.chunk_state import ChunkStatistics
from repro.core.config import ExSampleConfig
from repro.core.environment import (
    FrameRequest,
    Observation,
    SearchEnvironment,
    batched_observe,
    propose_frames,
)
from repro.core.frame_order import FrameOrder, make_order
from repro.core.registry import register_searcher
from repro.errors import ConfigError, ExhaustedError
from repro.utils.rng import RngFactory

#: Version of a search run's random streams: the searchers' policy,
#: chunk-choice and order streams and the discriminator's track-extension
#: stream. Version 1 seeded a generator per chunk order and per track;
#: version 2 gives each run one order generator and each discriminator one
#: track-extension generator; version 3 draws the never-drawn chunks of a
#: Thompson run over more than :data:`PER_CHUNK_DRAW_MAX_CHUNKS` chunks as
#: one group (:meth:`~repro.core.belief.ThompsonPolicy.choose_grouped`).
#: Bump it on every deliberate stream change: the repository index keys
#: recorded outcomes on it, so an index written under other streams never
#: replays an outcome this code computes differently.
STREAM_VERSION = 3

#: Thompson runs with a scalar prior over more chunks than this draw the
#: never-drawn chunks as one group; smaller runs, per-chunk priors and the
#: other policies draw every chunk. Grouping pays off once the chunks it
#: skips outnumber its per-row costs (a tail probability and an integer
#: draw): at 60 chunks and batch 4 it was slower, and the crossover lies
#: between about 150 and 500 chunks. Part of ``STREAM_VERSION`` 3.
PER_CHUNK_DRAW_MAX_CHUNKS = 256


@dataclass
class SearchTrace:
    """Immutable record of one search run.

    Attributes
    ----------
    chunks, frames:
        Per processed frame: which chunk it came from and its within-chunk
        frame index.
    d0s, d1s:
        Per frame: new-object count and seen-exactly-once-match count.
    costs:
        Per frame processing cost in seconds.
    results:
        Flat list of result payloads, in discovery order.
    upfront_cost:
        Cost paid before the first frame could be chosen (the proxy scan of
        §II-B for BlazeIt-style searchers; zero for sampling methods).
    """

    chunks: np.ndarray
    frames: np.ndarray
    d0s: np.ndarray
    d1s: np.ndarray
    costs: np.ndarray
    results: List[object] = field(default_factory=list)
    upfront_cost: float = 0.0
    searcher: str = ""

    @property
    def num_samples(self) -> int:
        """Total frames processed by the expensive detector."""
        return int(self.chunks.size)

    @property
    def num_results(self) -> int:
        """Total distinct results discovered."""
        return int(self.d0s.sum())

    @property
    def total_cost(self) -> float:
        """End-to-end cost in seconds, including any upfront scan."""
        return float(self.upfront_cost + self.costs.sum())

    def discovery_curve(self) -> np.ndarray:
        """Cumulative distinct results after each processed frame."""
        return np.cumsum(self.d0s)

    def cost_curve(self) -> np.ndarray:
        """Cumulative cost (seconds) after each processed frame."""
        return self.upfront_cost + np.cumsum(self.costs)

    def samples_to_results(self, k: int) -> Optional[int]:
        """Frames processed until ``k`` distinct results were found.

        Returns ``None`` if the run ended before reaching ``k`` results.
        """
        if k <= 0:
            return 0
        curve = self.discovery_curve()
        hits = np.flatnonzero(curve >= k)
        if hits.size == 0:
            return None
        return int(hits[0]) + 1

    def cost_to_results(self, k: int) -> Optional[float]:
        """Seconds of processing until ``k`` distinct results were found."""
        if k <= 0:
            return self.upfront_cost
        idx = self.samples_to_results(k)
        if idx is None:
            return None
        return float(self.upfront_cost + self.costs[:idx].sum())

    def results_at_samples(self, grid: Sequence[int]) -> np.ndarray:
        """Distinct results found by each sample count in ``grid``.

        Points beyond the end of the run saturate at the final count, which
        is the right semantics for discovery curves (nothing is lost once
        found).
        """
        curve = self.discovery_curve()
        grid_arr = np.asarray(grid, dtype=np.int64)
        out = np.zeros(grid_arr.shape, dtype=float)
        if curve.size == 0:
            return out
        positive = grid_arr > 0
        idx = np.clip(grid_arr[positive], None, curve.size) - 1
        out[positive] = curve[idx]
        return out


class _TraceBuilder:
    """Accumulates per-frame records and freezes them into a SearchTrace.

    The limit-facing counters (``num_results``, ``num_samples``,
    ``total_cost``, ``num_unique_real``) are maintained incrementally so
    the run loop can check its stopping conditions after *every* recorded
    frame — the mid-batch stopping of §III-F — at O(1) per check.
    """

    def __init__(self, searcher: str, upfront_cost: float = 0.0):
        self._chunks: List[int] = []
        self._frames: List[int] = []
        self._d0s: List[int] = []
        self._d1s: List[int] = []
        self._costs: List[float] = []
        self._results: List[object] = []
        self._searcher = searcher
        self._upfront = upfront_cost
        self._real_uids: set[int] = set()
        self._d0_total = 0
        self._cost_total = float(upfront_cost)

    def record(
        self, chunk: int, frame: int, obs: Observation, extra_cost: float = 0.0
    ) -> None:
        """Append one processed frame to the trace.

        ``extra_cost`` is deferred searcher-side cost (a lazy proxy scan
        paid while picking this batch) charged to this frame's trace entry.
        It is accounted here, in the builder, so the environment's
        :class:`Observation` objects are never mutated — environments may
        cache or replay them.
        """
        self._chunks.append(chunk)
        self._frames.append(frame)
        self._d0s.append(obs.d0)
        self._d1s.append(obs.d1)
        cost = obs.cost + extra_cost
        self._costs.append(cost)
        self._cost_total += cost
        self._d0_total += obs.d0
        self._results.extend(obs.results)
        for payload in obs.results:
            uid = _payload_instance_uid(payload)
            if uid is not None:
                self._real_uids.add(uid)

    @property
    def num_unique_real(self) -> int:
        """Unique ground-truth instances among results (evaluation stops)."""
        return len(self._real_uids)

    @property
    def num_results(self) -> int:
        """Distinct results so far, counted from the authoritative d0s.

        ``d0`` *is* the per-frame new-object count (payloads are optional
        decoration an environment may supply for some, all, or none of
        them), so the total must come from d0 — matching
        :attr:`SearchTrace.num_results`. Counting payloads undercounted in
        environments that attach them to only some frames.
        """
        return self._d0_total

    @property
    def num_samples(self) -> int:
        return len(self._chunks)

    @property
    def total_cost(self) -> float:
        return self._cost_total

    def build(self) -> SearchTrace:
        return SearchTrace(
            chunks=np.asarray(self._chunks, dtype=np.int64),
            frames=np.asarray(self._frames, dtype=np.int64),
            d0s=np.asarray(self._d0s, dtype=np.int64),
            d1s=np.asarray(self._d1s, dtype=np.int64),
            costs=np.asarray(self._costs, dtype=float),
            results=list(self._results),
            upfront_cost=self._upfront,
            searcher=self._searcher,
        )


def _payload_instance_uid(payload: object) -> Optional[int]:
    """Backing ground-truth uid of a result payload, if any.

    Theory simulators return instance ids directly (ints); the video
    pipeline returns records with an ``instance_uid`` attribute where None
    marks a false-positive track.
    """
    if isinstance(payload, (int, np.integer)):
        return int(payload)
    uid = getattr(payload, "instance_uid", None)
    return int(uid) if uid is not None else None


class Searcher:
    """Base class: the run loop shared by ExSample and every baseline."""

    name = "searcher"

    def __init__(self, env: SearchEnvironment, rng: RngFactory | int | None = 0):
        self.env = env
        self.rngs = rng if isinstance(rng, RngFactory) else RngFactory(rng or 0)
        self.sizes = np.asarray(env.chunk_sizes(), dtype=np.int64)
        if self.sizes.ndim != 1 or self.sizes.size == 0:
            raise ConfigError("environment must expose a non-empty chunk list")

    # -- subclass interface ------------------------------------------------

    def pick_batch(self) -> List[Tuple[int, int]]:
        """Return the next (chunk, frame) pairs to process; [] when done."""
        raise NotImplementedError

    def update(
        self, picks: List[Tuple[int, int]], observations: List[Observation]
    ) -> None:
        """Fold a batch of observations into internal state (default: none)."""

    def upfront_cost(self) -> float:
        """Cost paid before sampling can begin (e.g. a proxy scan)."""
        return 0.0

    def consume_extra_cost(self) -> float:
        """Deferred cost incurred while picking the current batch.

        Subclasses that pay as-they-go (the §VII fusion searcher scores a
        chunk the first time it is chosen) return the accumulated amount
        here; the run loop charges it to the batch's first *trace record*
        (never to the environment's :class:`Observation` objects, which may
        be cached or replayed) so every time-based metric sees it at the
        moment it was paid.
        """
        return 0.0

    # -- run loop ------------------------------------------------------------

    def begin(
        self,
        result_limit: Optional[int] = None,
        frame_budget: Optional[int] = None,
        cost_budget: Optional[float] = None,
        distinct_real_limit: Optional[int] = None,
    ) -> "SearchRun":
        """Start a resumable run; see :class:`SearchRun` and :meth:`run`."""
        return SearchRun(
            self,
            result_limit=result_limit,
            frame_budget=frame_budget,
            cost_budget=cost_budget,
            distinct_real_limit=distinct_real_limit,
        )

    def run(
        self,
        result_limit: Optional[int] = None,
        frame_budget: Optional[int] = None,
        cost_budget: Optional[float] = None,
        distinct_real_limit: Optional[int] = None,
    ) -> SearchTrace:
        """Execute the search until a limit is reached or frames run out.

        Parameters mirror the paper's stopping regimes: ``result_limit`` is
        the limit clause of a distinct object query (counting what the
        discriminator returns, duplicates-from-lost-tracks and all),
        ``frame_budget`` caps detector invocations, ``cost_budget`` caps
        seconds of (modelled) processing time including any upfront scan,
        and ``distinct_real_limit`` — an evaluation-side stop — counts
        unique ground-truth instances, which is what the paper's recall
        targets are measured against.

        This is a thin wrapper over :class:`SearchRun`: it steps a fresh
        run to completion and returns its trace. Use :meth:`begin` (or the
        engine-level ``QueryEngine.session``) to drive the same loop
        incrementally.
        """
        run = self.begin(
            result_limit=result_limit,
            frame_budget=frame_budget,
            cost_budget=cost_budget,
            distinct_real_limit=distinct_real_limit,
        )
        while not run.finished:
            run.step()
        return run.trace()


@dataclass
class StepProposal:
    """One step's pending work: picked frames awaiting detection.

    Produced by :meth:`SearchRun.propose` and consumed by
    :meth:`SearchRun.fulfil`. ``request`` carries the environment's
    :class:`~repro.core.environment.FrameRequest` when the environment
    supports the request/fulfil split (so a server can fulfil detection
    externally — fused with other sessions); it is None for environments
    that only offer blocking observation, in which case the holder must
    observe through :func:`~repro.core.environment.batched_observe`.
    ``extra_cost`` is the searcher's deferred pick-time cost, captured at
    propose time so the proposal is self-contained.
    """

    picks: List[Tuple[int, int]]
    request: Optional[FrameRequest]
    extra_cost: float = 0.0


@dataclass
class SearchStep:
    """What one :meth:`SearchRun.step` call produced.

    ``picks``/``observations`` cover only the *consumed* prefix of the
    batch (mid-batch stopping trims the tail); ``new_results`` pairs each
    freshly discovered result payload with the 1-based cumulative sample
    index of the frame that produced it.
    """

    picks: List[Tuple[int, int]]
    observations: List[Observation]
    new_results: List[Tuple[int, object]]
    finished: bool
    reason: Optional[str]


class SearchRun:
    """A resumable, serialisable stepper over one searcher run.

    This is :meth:`Searcher.run`'s loop body turned into an object: each
    :meth:`step` performs one pick-observe-record-update cycle (one §III-F
    batch) and reports what happened, so callers can interleave several
    runs, stream results as they appear, or stop between any two steps.
    Because every piece of state it reaches — chunk statistics, frame
    orders, RNG streams, discriminator tracks, the partial trace — lives in
    ordinary picklable attributes, a ``SearchRun`` can be serialised
    mid-run and resumed elsewhere with a byte-identical final trace (see
    :class:`repro.query.session.QuerySession`).

    Stopping reasons are the limit names: ``"result_limit"``,
    ``"distinct_real_limit"``, ``"frame_budget"``, ``"cost_budget"``, or
    ``"exhausted"`` when the searcher ran out of frames.
    """

    def __init__(
        self,
        searcher: Searcher,
        result_limit: Optional[int] = None,
        frame_budget: Optional[int] = None,
        cost_budget: Optional[float] = None,
        distinct_real_limit: Optional[int] = None,
    ):
        no_limit = (
            result_limit is None
            and frame_budget is None
            and cost_budget is None
            and distinct_real_limit is None
        )
        if no_limit:
            frame_budget = int(searcher.sizes.sum())
        self.searcher = searcher
        self.result_limit = result_limit
        self.frame_budget = frame_budget
        self.cost_budget = cost_budget
        self.distinct_real_limit = distinct_real_limit
        self._trace = _TraceBuilder(
            searcher.name, upfront_cost=searcher.upfront_cost()
        )
        self._reason: Optional[str] = self._breached()
        # True between propose() and fulfil(); serialised with the run so
        # a checkpoint taken at a batch boundary restores cleanly (servers
        # only checkpoint between steps, where this is False).
        self._outstanding = False

    # -- limit-facing counters (live, O(1)) --------------------------------

    @property
    def num_samples(self) -> int:
        return self._trace.num_samples

    @property
    def num_results(self) -> int:
        return self._trace.num_results

    @property
    def total_cost(self) -> float:
        return self._trace.total_cost

    @property
    def num_unique_real(self) -> int:
        return self._trace.num_unique_real

    @property
    def finished(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> Optional[str]:
        """Why the run stopped, or None while it can still make progress."""
        return self._reason

    def _breached(self) -> Optional[str]:
        """First limit currently crossed, in the historical check order."""
        trace = self._trace
        if self.result_limit is not None and trace.num_results >= self.result_limit:
            return "result_limit"
        if (
            self.distinct_real_limit is not None
            and trace.num_unique_real >= self.distinct_real_limit
        ):
            return "distinct_real_limit"
        if self.frame_budget is not None and trace.num_samples >= self.frame_budget:
            return "frame_budget"
        if self.cost_budget is not None and trace.total_cost >= self.cost_budget:
            return "cost_budget"
        return None

    def step(self) -> SearchStep:
        """Advance by one batch; a no-op returning an empty step when done.

        Consumes the batch incrementally and stops the moment a limit is
        crossed (§III-F): frames the environment processed beyond that
        point are neither recorded nor charged, so a batched run stops at
        exactly the same sample count and cost as the equivalent
        one-frame-at-a-time run.

        This is the blocking composition of the request/fulfil split:
        :meth:`propose` the batch, run the environment's detector on it,
        :meth:`fulfil` with the observations. A serving event loop calls
        the same three phases but fulfils detection through a
        cross-session batcher (:mod:`repro.serving`).
        """
        if self.finished:
            return SearchStep([], [], [], True, self._reason)
        proposal = self.propose()
        if proposal is None:
            return SearchStep([], [], [], True, self._reason)
        env = self.searcher.env
        if proposal.request is not None:
            detections = env.detect_request(proposal.request)
            observations = env.ingest_batch(proposal.request, detections)
        else:
            observations = batched_observe(env, proposal.picks)
        return self.fulfil(proposal, observations)

    def propose(self) -> Optional[StepProposal]:
        """Pick the next batch and surface it without touching the detector.

        Returns None when the run is finished or the searcher has no
        frames left (which finishes the run with reason ``"exhausted"``).
        At most one proposal may be outstanding: the searcher's frame
        orders and RNG streams advanced when the batch was picked, so the
        proposal must be fulfilled (or the run abandoned) before the next
        one.
        """
        if self.finished:
            return None
        if self._outstanding:
            raise RuntimeError(
                "a step proposal is already outstanding; fulfil it before "
                "proposing again"
            )
        searcher = self.searcher
        picks = searcher.pick_batch()
        if not picks:
            self._reason = "exhausted"
            return None
        request = propose_frames(searcher.env, picks)
        extra_cost = searcher.consume_extra_cost()
        self._outstanding = True
        return StepProposal(picks=picks, request=request, extra_cost=extra_cost)

    def fulfil(
        self, proposal: StepProposal, observations: List[Observation]
    ) -> SearchStep:
        """Record a proposed batch's observations and update the searcher.

        ``observations`` must align with ``proposal.picks`` (for split
        environments: ``env.ingest_batch(proposal.request, detections)``).
        Mid-batch stopping applies exactly as on the blocking path.
        """
        if not self._outstanding:
            raise RuntimeError("fulfil called with no outstanding proposal")
        self._outstanding = False
        picks = proposal.picks
        trace = self._trace
        new_results: List[Tuple[int, object]] = []
        consumed = 0
        for (chunk, frame), obs in zip(picks, observations, strict=True):
            trace.record(
                chunk, frame, obs, proposal.extra_cost if consumed == 0 else 0.0
            )
            consumed += 1
            if obs.results:
                sample_index = trace.num_samples
                new_results.extend((sample_index, payload) for payload in obs.results)
            self._reason = self._breached()
            if self._reason is not None:
                break
        self.searcher.update(picks[:consumed], observations[:consumed])
        return SearchStep(
            picks[:consumed],
            observations[:consumed],
            new_results,
            self.finished,
            self._reason,
        )

    def trace(self) -> SearchTrace:
        """Freeze everything recorded so far into a :class:`SearchTrace`."""
        return self._trace.build()


class ChunkGroups:
    """Which chunks a grouped Thompson run has drawn from, with O(1) moves.

    ``order`` lists every chunk that has frames in three runs: chunks
    drawn until exhausted, then the live chunks (drawn from, frames left),
    then the pool of chunks never drawn from. ``slot[c]`` is chunk ``c``'s
    position in ``order``. A chunk moves one run to the left by swapping
    places with the first chunk of its run, which then starts one later.
    """

    def __init__(self, sizes: np.ndarray):
        self.order = np.flatnonzero(sizes > 0)
        self.slot = np.full(sizes.size, -1, dtype=np.int64)
        self.slot[self.order] = np.arange(self.order.size)
        self.live_start = 0
        self.pool_start = 0

    @property
    def live(self) -> np.ndarray:
        """The live chunks, a view valid until the next move."""
        return self.order[self.live_start : self.pool_start]

    @property
    def pool_size(self) -> int:
        return self.order.size - self.pool_start

    @property
    def exhausted(self) -> bool:
        """Whether every chunk has run out of frames."""
        return self.live_start == self.order.size

    def pool_member(self, j: int) -> int:
        return int(self.order[self.pool_start + j])

    def open(self, chunk: int) -> None:
        """``chunk`` had its first draw: pool -> live."""
        self._swap(chunk, self.pool_start)
        self.pool_start += 1

    def close(self, chunk: int) -> None:
        """``chunk`` ran out of frames: live -> exhausted."""
        self._swap(chunk, self.live_start)
        self.live_start += 1

    def _swap(self, chunk: int, position: int) -> None:
        here = self.slot[chunk]
        other = self.order[position]
        self.order[here] = other
        self.slot[other] = here
        self.order[position] = chunk
        self.slot[chunk] = position


class ExSampleSearcher(Searcher):
    """Algorithm 1, with the batched-sampling extension of §III-F.

    Each iteration: (1) draw one Thompson sample per chunk from the Gamma
    beliefs of Eq. III.4 and pick the argmax chunk; (2) draw the next frame
    of that chunk's random+ order; (3) process the frame; (4) apply the
    additive N1/n update. With ``config.batch_size > 1``, ``B`` Thompson
    draws are taken per chunk and the (commutative) updates are applied once
    per batch, exactly as the paper describes.

    A Thompson run with a scalar prior over more than
    :data:`PER_CHUNK_DRAW_MAX_CHUNKS` chunks keeps its chunks in
    :class:`ChunkGroups` and draws the never-drawn ones, which all still
    hold the prior, as one group
    (:meth:`~repro.core.belief.ThompsonPolicy.choose_grouped`): the same
    choices in distribution, at O(chunks drawn) per pick.
    """

    name = "exsample"

    def __init__(
        self,
        env: SearchEnvironment,
        config: ExSampleConfig | None = None,
        rng: RngFactory | int | None = None,
    ):
        config = config or ExSampleConfig()
        super().__init__(env, rng if rng is not None else RngFactory(config.seed))
        # Per-chunk prior vectors (the index warm-start path) must align
        # with this environment's chunk list; a vector built against a
        # different chunking would silently mis-credit every belief.
        for name, prior in (("alpha0", config.alpha0), ("beta0", config.beta0)):
            if np.ndim(prior) == 1 and np.size(prior) != self.sizes.size:
                raise ConfigError(
                    f"per-chunk {name} has {np.size(prior)} entries but the "
                    f"environment has {self.sizes.size} chunks"
                )
        self.config = config
        self.stats = ChunkStatistics(self.sizes)
        self.policy = make_policy(config.policy, config.ucb_horizon)
        self._policy_rng = self.rngs.stream("policy")
        self._order_rng = self.rngs.stream("order")
        # Orders are created lazily on a chunk's first draw. Drawn-frame
        # counts are tracked separately so the active mask never has to
        # instantiate an order — subclasses (the §VII fusion searcher) hook
        # order creation to charge per-chunk scoring costs, which must only
        # happen for chunks that are actually visited.
        self._orders: List[Optional[FrameOrder]] = [None] * int(self.sizes.size)
        self._drawn = np.zeros(self.sizes.size, dtype=np.int64)
        self._step = 0
        grouped = (
            config.policy == "thompson"
            and np.ndim(config.alpha0) == 0
            and np.ndim(config.beta0) == 0
            and self.sizes.size > PER_CHUNK_DRAW_MAX_CHUNKS
        )
        self._groups = ChunkGroups(self.sizes) if grouped else None

    def _make_order(self, chunk: int) -> FrameOrder:
        """Create the within-chunk frame order for ``chunk`` (overridable).

        Every chunk's order draws from the run's one order generator, in
        pick order; building an order draws nothing.
        """
        return make_order(
            self.config.within_chunk_order,
            int(self.sizes[chunk]),
            self._order_rng,
        )

    def _order_for(self, chunk: int) -> FrameOrder:
        order = self._orders[chunk]
        if order is None:
            order = self._make_order(chunk)
            self._orders[chunk] = order
        return order

    # -- introspection -----------------------------------------------------

    def point_estimates(self) -> np.ndarray:
        """Current per-chunk R̂_j values (Eq. III.1)."""
        return self.stats.point_estimates()

    def belief_parameters(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current per-chunk Gamma (alpha, beta) of Eq. III.4.

        ``N1_j`` is clamped at zero: an object first found in chunk j but
        re-seen from chunk k charges the ``-len(d1)`` update to chunk k,
        which can drive its raw counter negative (the cross-chunk instance
        problem of the paper's footnote 1). The belief needs a positive
        shape parameter, and a chunk whose every sighting was a duplicate
        carries the same evidence as one with N1 = 0.
        """
        alphas = np.maximum(self.stats.n1, 0.0) + self.config.alpha0
        betas = self.stats.n.astype(float) + self.config.beta0
        return alphas, betas

    # -- searcher interface --------------------------------------------------

    def pick_batch(self) -> List[Tuple[int, int]]:
        if self._groups is not None:
            return self._pick_grouped()
        remaining = self.sizes - self._drawn
        active = remaining > 0
        if not np.any(active):
            return []
        self._step += 1
        alphas, betas = self.belief_parameters()
        choices = self.policy.choose(
            alphas,
            betas,
            active,
            self._policy_rng,
            step=self._step,
            batch=self.config.batch_size,
        )
        picks: List[Tuple[int, int]] = []
        for choice in choices:
            chunk = int(choice)
            # A batch may over-draw a nearly empty chunk; redirect the draw.
            if remaining[chunk] <= 0:
                mask = remaining > 0
                if not np.any(mask):
                    break
                chunk = int(
                    self.policy.choose(
                        alphas, betas, mask, self._policy_rng, self._step, batch=1
                    )[0]
                )
            try:
                frame = self._order_for(chunk).next()
            except ExhaustedError:  # pragma: no cover - guarded above
                continue
            remaining[chunk] -= 1
            self._drawn[chunk] += 1
            picks.append((chunk, frame))
        return picks

    def _pick_grouped(self) -> List[Tuple[int, int]]:
        """:meth:`pick_batch` through the grouped Thompson draw.

        The batch's rows are chosen together from the beliefs at its
        start, and a row whose chunk ran out earlier in the batch is
        redirected by a fresh one-row choice, as on the per-chunk path.
        """
        groups = self._groups
        if groups.exhausted:
            return []
        self._step += 1
        sizes, drawn = self.sizes, self._drawn
        picks: List[Tuple[int, int]] = []
        for chunk in self._grouped_choices(self.config.batch_size):
            if drawn[chunk] == sizes[chunk]:
                if groups.exhausted:
                    break
                chunk = self._grouped_choices(1)[0]
            frame = self._order_for(chunk).next()
            taken = drawn[chunk] + 1
            drawn[chunk] = taken
            if taken == 1:
                groups.open(chunk)
            if taken == sizes[chunk]:
                groups.close(chunk)
            picks.append((chunk, frame))
        return picks

    def _grouped_choices(self, batch: int) -> List[int]:
        """``batch`` chunks from one grouped Thompson draw.

        The live chunks' beliefs come from the statistics, which a batch
        does not update, so they are the beliefs at the batch's start; a
        chunk opened earlier in the batch still holds the prior there.
        """
        groups = self._groups
        live = groups.live
        config = self.config
        alphas = np.maximum(self.stats.n1[live], 0.0) + config.alpha0
        betas = self.stats.n[live] + config.beta0
        rows = self.policy.choose_grouped(
            alphas,
            betas,
            groups.pool_size,
            (config.alpha0, config.beta0),
            self._policy_rng,
            batch,
        )
        k = live.size
        return [
            int(live[row]) if row < k else groups.pool_member(row - k)
            for row in rows
        ]

    def update(self, picks, observations) -> None:
        chunks = [chunk for chunk, _ in picks]
        d0s = [o.d0 for o in observations]
        if self.config.cross_chunk == "origin":
            # Footnote-1 adjustment: each d1 decrement is charged to the
            # chunk that first discovered the object. Observations lacking
            # origin information fall back to charging the sampled chunk.
            origins = [
                obs.d1_origin_chunks
                if obs.d1_origin_chunks is not None
                else [int(chunk)] * obs.d1
                for (chunk, _), obs in zip(picks, observations, strict=True)
            ]
            self.stats.apply_credit_batch(chunks, d0s, origins)
        else:
            self.stats.apply_batch(chunks, d0s, [o.d1 for o in observations])


@register_searcher(
    "exsample",
    description="Thompson sampling over per-chunk Gamma beliefs (the paper's method)",
)
def _build_exsample(ctx):
    """Factory: fold batch_size into the config, honour an explicit config."""
    return ExSampleSearcher(
        ctx.env, ctx.fold_exsample_config("exsample"), rng=ctx.rngs
    )
