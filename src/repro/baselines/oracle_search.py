"""The optimal static-weight sampler: the §IV-A conceptual upper bound.

This searcher samples chunk j with a *fixed* probability w_j computed from
Eq. IV.1 using perfect knowledge of the hidden chunk-conditional instance
probabilities. It is "not applicable in real scenarios, but helps to
understand ExSample and its limits": Figures 3 and 4 plot its expectation as
the dashed line that ExSample converges towards.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.environment import SearchEnvironment
from repro.core.frame_order import UniformChunkOrders
from repro.core.registry import register_searcher
from repro.core.sampler import Searcher
from repro.errors import ConfigError
from repro.utils.rng import RngFactory


class OracleStaticSearcher(Searcher):
    """Sample chunks i.i.d. from a fixed weight vector (Eq. IV.1 solution)."""

    name = "oracle"

    def __init__(
        self,
        env: SearchEnvironment,
        weights: np.ndarray,
        rng: RngFactory | int | None = 0,
        batch_size: int = 1,
    ):
        super().__init__(env, rng)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.sizes.size,):
            raise ConfigError(
                f"weights must have one entry per chunk "
                f"({self.sizes.size}), got {weights.shape}"
            )
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-6):
            raise ConfigError("weights must be a probability vector")
        self.weights = weights / weights.sum()
        self.batch_size = max(int(batch_size), 1)
        self._chunk_rng = self.rngs.stream("chunk-choice")
        self._orders = UniformChunkOrders(self.sizes, self.rngs.stream("order"))

    def pick_batch(self) -> List[Tuple[int, int]]:
        picks: List[Tuple[int, int]] = []
        remaining = self._orders.remaining
        for _ in range(self.batch_size):
            active = remaining > 0
            if not np.any(active):
                break
            probs = np.where(active, self.weights, 0.0)
            total = probs.sum()
            if total <= 0:
                # All weighted chunks are exhausted; fall back to uniform
                # over whatever frames remain so the search can complete.
                probs = np.where(active, remaining, 0.0)
                total = probs.sum()
            probs = probs / total
            chunk = int(self._chunk_rng.choice(probs.size, p=probs))
            picks.append((chunk, self._orders.next(chunk)))
        return picks


@register_searcher(
    "oracle",
    description="fixed optimal chunk weights from ground truth (Eq. IV.1 bound)",
)
def _build_oracle(ctx):
    from repro.theory.optimal_weights import optimal_weights

    engine = ctx.require_engine("oracle")
    bounds = engine.dataset.chunk_map.global_bounds()
    p_matrix = engine.dataset.world.chunk_probabilities(ctx.env.class_name, bounds)
    budget = ctx.sample_budget_hint or max(engine.dataset.total_frames // 200, 1000)
    weights = optimal_weights(p_matrix, float(budget))
    return OracleStaticSearcher(
        ctx.env, weights=weights, rng=ctx.rngs, batch_size=ctx.batch()
    )
