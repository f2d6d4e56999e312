"""Within-chunk frame orderings: uniform, sequential, random+ (§III-F).

The paper's ``chunk.sample()`` (Algorithm 1, line 7) draws frames from the
chosen chunk *without replacement*. Plain uniform sampling "allows samples to
happen very close to each other in quick succession", so §III-F introduces
**random+**: sample one random frame out of every hour, then one frame out of
every not-yet-sampled half hour, and so on, until the whole dataset has been
sampled. We implement that as a lazy level-by-level binary stratification:

* level 0 starts from ``initial_strata`` equal strata (default 1 = the whole
  chunk);
* at each level, every stratum that does not yet contain a sampled frame
  receives one frame drawn uniformly from it, and strata are visited in
  random order;
* every stratum is then split in half for the next level.

An invariant makes this lazy and cheap: at the start of each level every
stratum contains *at most one* previously sampled frame, so splitting needs
to route at most one sample to a child. The order is a permutation of the
chunk — every frame is produced exactly once — and any prefix of length m is
spread across at least ~m/2 distinct strata of the matching scale.

All orders implement the small :class:`FrameOrder` interface used by the
sampler: ``next()`` produces the next frame index (within the chunk) and
raises :class:`ExhaustedError` when no frames remain.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import ConfigError, ExhaustedError


class FrameOrder:
    """Produces each frame index of ``[0, size)`` exactly once."""

    def __init__(self, size: int):
        if size < 0:
            raise ConfigError(f"order size must be non-negative, got {size}")
        self.size = int(size)
        self._produced = 0

    @property
    def remaining(self) -> int:
        return self.size - self._produced

    def next(self) -> int:
        if self._produced >= self.size:
            raise ExhaustedError(f"all {self.size} frames have been sampled")
        frame = self._next_impl()
        self._produced += 1
        return frame

    def _next_impl(self) -> int:
        raise NotImplementedError


class SequentialOrder(FrameOrder):
    """0, 1, 2, ... — the naive scan order (§II-B naive execution)."""

    def _next_impl(self) -> int:
        return self._produced


class UniformOrder(FrameOrder):
    """Uniform sampling without replacement.

    Lazy strategy: while less than half the frames are consumed, rejection-
    sample against a hash set (cheap when the domain is much larger than the
    number of samples, which is the regime ExSample operates in); once half
    the domain is consumed, materialise a shuffled list of the leftovers.
    """

    def __init__(self, size: int, rng: np.random.Generator):
        super().__init__(size)
        self._rng = rng
        self._seen: set[int] = set()
        self._tail: Optional[list[int]] = None

    def _next_impl(self) -> int:
        if self._tail is not None:
            return self._tail.pop()
        if len(self._seen) * 2 >= self.size:
            leftovers = np.setdiff1d(
                np.arange(self.size, dtype=np.int64),
                np.fromiter(self._seen, dtype=np.int64, count=len(self._seen)),
            )
            self._rng.shuffle(leftovers)
            self._tail = list(leftovers)
            return self._tail.pop()
        while True:
            candidate = int(self._rng.integers(0, self.size))
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate


class UniformChunkOrders:
    """One :class:`UniformOrder` per chunk, each built on its first pick.

    The repository-wide uniform baselines pick a chunk with probability
    proportional to its unpicked frames, then take that chunk's next
    frame. Every chunk's order draws from the one generator ``rng``, the
    run's order stream, in pick order. Building an order draws nothing,
    so when it is built moves no random draw, and a search that touches a
    few hundred of a thousand chunks builds only those. ``remaining``
    holds the unpicked frame count of every chunk as floats (the
    numerator of the chunk-choice probabilities), updated in place by
    :meth:`next`.
    """

    def __init__(self, sizes: np.ndarray, rng: np.random.Generator) -> None:
        self._sizes = sizes
        self._rng = rng
        self._orders: list[Optional[UniformOrder]] = [None] * len(sizes)
        self.remaining = np.array(sizes, dtype=float)

    def next(self, chunk: int) -> int:
        """Produce ``chunk``'s next frame."""
        order = self._orders[chunk]
        if order is None:
            order = UniformOrder(int(self._sizes[chunk]), self._rng)
            self._orders[chunk] = order
        frame = order.next()
        self.remaining[chunk] -= 1
        return frame


class RandomPlusOrder(FrameOrder):
    """The paper's random+ stratified order (§III-F).

    Construction builds no strata. Most chunks an ExSample run opens
    yield a single frame, so with one initial stratum the first frame is
    drawn directly: ``int(rng.random() * size)`` is the same double and
    the same truncation as the level-0 draw inside the stratum
    ``[0, size)``, and shuffling that level's one frame consumes no
    randomness. The level-1 split is then built around that frame, and
    every later level (and every level of ``initial_strata > 1``) runs on
    strata arrays. The stream is therefore identical to building level 0
    up front.
    """

    def __init__(self, size: int, rng: np.random.Generator, initial_strata: int = 1):
        super().__init__(size)
        if initial_strata < 1:
            raise ConfigError("initial_strata must be >= 1")
        self._rng = rng
        self._initial_strata = min(initial_strata, max(size, 1))
        self._level_iter: Iterator[int] = iter(())
        # Each stratum is (lo, hi, pos) with pos = -1 when it holds no
        # sample; None until the first draw of a single-stratum order.
        self._lo = self._hi = self._pos = None
        if self._initial_strata > 1:
            self._lo, self._hi, self._pos = self._initial_level(size)

    def _initial_level(self, size: int):
        k = self._initial_strata
        bounds = np.linspace(0, size, k + 1).astype(np.int64)
        lo, hi = bounds[:-1], bounds[1:]
        keep = hi > lo
        return lo[keep], hi[keep], np.full(int(keep.sum()), -1, dtype=np.int64)

    def _next_impl(self) -> int:
        if self._lo is None:
            return self._first_draw()
        while True:
            for frame in self._level_iter:
                return frame
            self._advance_level()

    def _first_draw(self) -> int:
        """Level 0 of the single stratum ``[0, size)``, then its split."""
        size = self.size
        frame = int(self._rng.random() * size)
        # Split [0, size) at mid exactly as _split_level would; a
        # one-frame chunk has nothing left to split.
        mid = size // 2
        if size > 1:
            self._lo = np.array([0, mid], dtype=np.int64)
            self._hi = np.array([mid, size], dtype=np.int64)
            self._pos = np.array(
                [frame, -1] if frame < mid else [-1, frame], dtype=np.int64
            )
        else:
            self._lo = self._hi = self._pos = np.empty(0, dtype=np.int64)
        return frame

    def _advance_level(self) -> None:
        """Fill every sample-free stratum, emit in random order, then split."""
        if self._lo.size == 0:
            raise ExhaustedError("random+ order exhausted")
        need = self._pos < 0
        if np.any(need):
            # Vectorised uniform draw inside each needy stratum.
            lows = self._lo[need]
            highs = self._hi[need]
            draws = lows + (
                self._rng.random(lows.size) * (highs - lows)
            ).astype(np.int64)
            self._pos[need] = draws
            emitted = draws.copy()
            self._rng.shuffle(emitted)
            self._level_iter = iter(emitted.tolist())
        else:
            self._level_iter = iter(())
        self._split_level()

    def _split_level(self) -> None:
        lo, hi, pos = self._lo, self._hi, self._pos
        # Strata of size 1 are fully sampled once they hold a sample: drop.
        busy = (hi - lo) > 1
        lo, hi, pos = lo[busy], hi[busy], pos[busy]
        mid = (lo + hi) // 2
        in_left = pos < mid  # pos >= 0 always holds here (level just filled)
        left_pos = np.where(in_left, pos, -1)
        right_pos = np.where(in_left, -1, pos)
        new_lo = np.concatenate([lo, mid])
        new_hi = np.concatenate([mid, hi])
        new_pos = np.concatenate([left_pos, right_pos])
        keep = new_hi > new_lo
        self._lo, self._hi, self._pos = new_lo[keep], new_hi[keep], new_pos[keep]


class ScoreWeightedOrder(FrameOrder):
    """Score-biased sampling without replacement (future-work §VII).

    Implements the "predictive scoring" idea: frames are drawn without
    replacement with probability proportional to ``softmax(scores /
    temperature)`` using the Gumbel-top-k trick, which fixes the full order
    up front from one noise draw per frame. With flat scores this degrades
    gracefully to uniform sampling, so plugging a useless proxy in does not
    hurt correctness (Eq. III.1 stays valid under non-uniform within-chunk
    sampling, as §VII notes).
    """

    def __init__(
        self,
        size: int,
        rng: np.random.Generator,
        scores: np.ndarray,
        temperature: float = 1.0,
    ):
        super().__init__(size)
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (size,):
            raise ConfigError(
                f"scores must have shape ({size},), got {scores.shape}"
            )
        if temperature <= 0:
            raise ConfigError("temperature must be positive")
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=size)))
        keys = scores / temperature + gumbel
        self._order = np.argsort(-keys)

    def _next_impl(self) -> int:
        return int(self._order[self._produced])


def make_order(
    name: str,
    size: int,
    rng: np.random.Generator,
    initial_strata: int = 1,
    scores: Optional[np.ndarray] = None,
) -> FrameOrder:
    """Instantiate a frame order by config name."""
    if name == "randomplus":
        return RandomPlusOrder(size, rng, initial_strata=initial_strata)
    if name == "uniform":
        return UniformOrder(size, rng)
    if name == "sequential":
        return SequentialOrder(size)
    if name == "score":
        if scores is None:
            raise ConfigError("score order requires a scores array")
        return ScoreWeightedOrder(size, rng, scores)
    raise ConfigError(f"unknown frame order {name!r}")
