"""Uniform random sampling without replacement (§II-B).

"A better strategy is to iteratively process frames uniformly sampled from
the video repository (without replacement)." This is the paper's primary
baseline: every comparison in Figures 3-5 is ExSample vs this method.

Uniformity over the *remaining* frames of the whole repository is achieved
by picking a chunk with probability proportional to its remaining frame
count, then drawing the chunk's next uniform-without-replacement frame.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.environment import SearchEnvironment
from repro.core.frame_order import UniformChunkOrders
from repro.core.registry import register_searcher
from repro.core.sampler import Searcher
from repro.utils.rng import RngFactory


class RandomSearcher(Searcher):
    """Global uniform sampling without replacement."""

    name = "random"

    def __init__(
        self,
        env: SearchEnvironment,
        rng: RngFactory | int | None = 0,
        batch_size: int = 1,
    ):
        super().__init__(env, rng)
        self.batch_size = max(int(batch_size), 1)
        self._chunk_rng = self.rngs.stream("chunk-choice")
        self._orders = UniformChunkOrders(self.sizes, self.rngs.stream("order"))

    def pick_batch(self) -> List[Tuple[int, int]]:
        picks: List[Tuple[int, int]] = []
        remaining = self._orders.remaining
        for _ in range(self.batch_size):
            total = remaining.sum()
            if total <= 0:
                break
            # The inverse-cdf draw Generator.choice(size, p=probs) runs
            # internally, without its argument checks: the same chunk
            # from the same single random() draw.
            cdf = (remaining / total).cumsum()
            cdf /= cdf[-1]
            chunk = int(cdf.searchsorted(self._chunk_rng.random(), side="right"))
            picks.append((chunk, self._orders.next(chunk)))
        return picks


@register_searcher(
    "random",
    description="uniform random sampling without replacement (primary baseline)",
)
def _build_random(ctx):
    return RandomSearcher(ctx.env, rng=ctx.rngs, batch_size=ctx.batch())
