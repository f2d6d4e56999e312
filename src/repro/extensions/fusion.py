"""The §VII fusion extension: proxy scoring *without* a full upfront scan.

The paper's future-work section observes that "the equations in section III
remain valid even if sampling within a chunk is non-uniform but based on a
score. The current downside of scoring frames is the scanning component;
therefore, a key to integrating these approaches would be a form of
predictive scoring of frames that avoids scanning [the whole dataset]".

:class:`FusionSearcher` implements that integration:

* chunk selection stays pure ExSample (Thompson sampling over the Gamma
  beliefs of Eq. III.4 — valid under non-uniform within-chunk sampling, as
  the paper notes);
* within a chunk, frames start out drawn by random+ exactly as in plain
  ExSample; once ExSample has returned to the same chunk
  ``upgrade_after`` times and the chunk has yielded at least one new
  object — evidence the chunk is worth investing in — the proxy scores
  *that chunk only* (cost: chunk frames / scan fps, charged at that
  moment) and the remaining draws become score-biased (Gumbel top-k over
  score/temperature, skipping frames already sampled);
* chunks ExSample abandons early, and chunks that never yield an object,
  are never scanned at all. Returning to a chunk alone is no evidence:
  Thompson sampling draws every chunk a few times before its belief
  falls, so a draw-count gate alone scans the whole repository.

Compared to BlazeIt-style search this replaces the mandatory full-dataset
scan with incremental scans that follow where sampling actually
concentrates; compared to plain ExSample it converts proxy signal into a
better within-chunk hit rate exactly where it matters. With a useless proxy
(AUC 0.5) it degrades to plain ExSample plus the scans of its hot chunks.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.core.config import ExSampleConfig
from repro.core.environment import SearchEnvironment
from repro.core.frame_order import FrameOrder, RandomPlusOrder
from repro.core.registry import register_searcher
from repro.core.sampler import ExSampleSearcher
from repro.errors import ConfigError
from repro.utils.rng import RngFactory

#: Signature of per-chunk score providers: chunk index -> per-frame scores.
ChunkScoreFn = Callable[[int], np.ndarray]
#: Signature of per-chunk scan cost: chunk index -> seconds.
ChunkCostFn = Callable[[int], float]


class HybridScoredOrder(FrameOrder):
    """random+ that upgrades to score-biased sampling after k draws.

    The upgrade happens at the first draw, after at least
    ``upgrade_after`` draws, at which ``ready()`` holds. It computes one
    Gumbel-perturbed key per frame (fixing the rest of the order up
    front) and skips frames already emitted during the random+ phase, so
    the whole order remains a permutation.
    """

    def __init__(
        self,
        size: int,
        rng: np.random.Generator,
        score_fn: Callable[[], np.ndarray],
        upgrade_after: int,
        on_upgrade: Callable[[], None],
        ready: Callable[[], bool],
        temperature: float = 1.0,
    ):
        super().__init__(size)
        if upgrade_after < 0:
            raise ConfigError("upgrade_after must be non-negative")
        if temperature <= 0:
            raise ConfigError("temperature must be positive")
        self._rng = rng
        self._score_fn = score_fn
        self._upgrade_after = upgrade_after
        self._on_upgrade = on_upgrade
        self._ready = ready
        self._temperature = temperature
        self._inner = RandomPlusOrder(size, rng)
        self._emitted: set[int] = set()
        self._scored_order: Optional[np.ndarray] = None
        self._cursor = 0

    @property
    def upgraded(self) -> bool:
        return self._scored_order is not None

    def _upgrade(self) -> None:
        scores = np.asarray(self._score_fn(), dtype=float)
        if scores.shape != (self.size,):
            raise ConfigError(
                f"scores have shape {scores.shape}, expected ({self.size},)"
            )
        gumbel = -np.log(-np.log(self._rng.uniform(1e-12, 1.0, size=self.size)))
        keys = scores / self._temperature + gumbel
        self._scored_order = np.argsort(-keys)
        self._on_upgrade()

    def _next_impl(self) -> int:
        if (
            self._scored_order is None
            and self._produced >= self._upgrade_after
            and self._ready()
        ):
            self._upgrade()
        if self._scored_order is None:
            frame = self._inner.next()
            self._emitted.add(frame)
            return frame
        while True:
            frame = int(self._scored_order[self._cursor])
            self._cursor += 1
            if frame not in self._emitted:
                self._emitted.add(frame)
                return frame


class FusionSearcher(ExSampleSearcher):
    """ExSample chunk selection + lazily-scored within-chunk sampling."""

    name = "exsample_fusion"

    def __init__(
        self,
        env: SearchEnvironment,
        chunk_scores: ChunkScoreFn,
        chunk_scan_cost: ChunkCostFn,
        config: Optional[ExSampleConfig] = None,
        rng: RngFactory | int | None = None,
        upgrade_after: int = 8,
        temperature: float = 1.0,
        score_scale: float = 4.0,
    ):
        """
        Parameters
        ----------
        chunk_scores:
            Returns the proxy scores for every frame of one chunk. Called at
            most once per chunk, only for chunks sampled at least
            ``upgrade_after`` times.
        chunk_scan_cost:
            Seconds charged for scoring one chunk (``size / scan_fps``
            under the paper's cost model), charged when the chunk upgrades.
        upgrade_after:
            Draws from a chunk before it is worth paying its scoring scan;
            the scan also waits until the chunk has yielded a new object.
            0 scores a chunk at its first draw after its first find;
            larger values defer the investment to chunks Thompson
            sampling keeps returning to.
        temperature, score_scale:
            The within-chunk draw uses Gumbel top-k over
            ``score_scale * scores / temperature``; ``score_scale`` sharpens
            raw [0, 1] proxy scores into a meaningful preference.
        """
        super().__init__(env, config=config, rng=rng)
        if temperature <= 0 or score_scale <= 0:
            raise ConfigError("temperature and score_scale must be positive")
        if upgrade_after < 0:
            raise ConfigError("upgrade_after must be non-negative")
        self._chunk_scores = chunk_scores
        self._chunk_scan_cost = chunk_scan_cost
        self._upgrade_after = upgrade_after
        self._temperature = temperature
        self._score_scale = score_scale
        self._pending_cost = 0.0
        self._yielded = np.zeros(self.sizes.size, dtype=bool)
        self.scanned_chunks: List[int] = []

    def _score_for(self, chunk: int) -> np.ndarray:
        """Scaled proxy scores for one chunk (hybrid-order score hook)."""
        return np.asarray(self._chunk_scores(chunk), dtype=float) * self._score_scale

    def _worth_scanning(self, chunk: int) -> bool:
        """Hybrid-order upgrade gate: the chunk has yielded a new object."""
        return bool(self._yielded[chunk])

    def _charge_scan(self, chunk: int) -> None:
        """Hybrid-order upgrade hook: pay the chunk's scoring scan now."""
        self._pending_cost += float(self._chunk_scan_cost(chunk))
        self.scanned_chunks.append(chunk)

    def _make_order(self, chunk: int) -> FrameOrder:
        # Every chunk's hybrid order draws from the run's one order
        # generator. functools.partial over bound methods (not local
        # closures) keeps the searcher picklable for session
        # checkpoint/restore.
        return HybridScoredOrder(
            int(self.sizes[chunk]),
            self._order_rng,
            score_fn=partial(self._score_for, chunk),
            upgrade_after=self._upgrade_after,
            on_upgrade=partial(self._charge_scan, chunk),
            ready=partial(self._worth_scanning, chunk),
            temperature=self._temperature,
        )

    def update(self, picks, observations) -> None:
        super().update(picks, observations)
        for (chunk, _), obs in zip(picks, observations, strict=True):
            if obs.d0:
                self._yielded[chunk] = True

    def consume_extra_cost(self) -> float:
        cost, self._pending_cost = self._pending_cost, 0.0
        return cost

    @property
    def total_scan_cost(self) -> float:
        """Scan seconds charged so far (for reporting; already in the trace)."""
        return sum(self._chunk_scan_cost(c) for c in self.scanned_chunks)


class ArrayChunkScores:
    """Per-chunk slices of a repository-wide score array (picklable).

    The engine precomputes proxy scores for every frame; this adapter
    serves the slice belonging to one chunk via the global chunk bounds.
    """

    def __init__(self, scores: np.ndarray, bounds: np.ndarray):
        self._scores = np.asarray(scores, dtype=float)
        self._bounds = np.asarray(bounds, dtype=np.int64)

    def __call__(self, chunk: int) -> np.ndarray:
        return self._scores[self._bounds[chunk] : self._bounds[chunk + 1]]


class ChunkScanCost:
    """Scan cost of scoring one chunk under a cost model (picklable)."""

    def __init__(self, cost_model, bounds: np.ndarray):
        self._cost_model = cost_model
        self._bounds = np.asarray(bounds, dtype=np.int64)

    def __call__(self, chunk: int) -> float:
        return self._cost_model.scan_cost(
            int(self._bounds[chunk + 1] - self._bounds[chunk])
        )


@register_searcher(
    "exsample_fusion",
    description="ExSample chunk choice + lazily proxy-scored hot chunks (§VII)",
)
def _build_fusion(ctx):
    engine = ctx.require_engine("exsample_fusion")
    proxy = engine.proxy_model(ctx.env.class_name, ctx.proxy_quality)
    bounds = engine.dataset.chunk_map.global_bounds()
    return FusionSearcher(
        ctx.env,
        chunk_scores=ArrayChunkScores(proxy.score_all(), bounds),
        chunk_scan_cost=ChunkScanCost(engine.cost_model, bounds),
        config=ctx.fold_exsample_config("exsample_fusion"),
        rng=ctx.rngs,
    )
