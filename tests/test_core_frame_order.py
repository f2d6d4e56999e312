"""Tests for frame orders — permutation and stratification properties."""

import pickle
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frame_order import (
    FrameOrder,
    RandomPlusOrder,
    ScoreWeightedOrder,
    SequentialOrder,
    UniformOrder,
    make_order,
)
from repro.errors import ConfigError, ExhaustedError
from repro.utils.rng import spawn_rng


def drain(order):
    out = []
    while order.remaining > 0:
        out.append(order.next())
    return out


class TestSequentialOrder:
    def test_identity_order(self):
        assert drain(SequentialOrder(5)) == [0, 1, 2, 3, 4]

    def test_exhaustion(self):
        order = SequentialOrder(1)
        order.next()
        with pytest.raises(ExhaustedError):
            order.next()

    def test_empty(self):
        order = SequentialOrder(0)
        with pytest.raises(ExhaustedError):
            order.next()


class TestUniformOrder:
    @given(st.integers(min_value=0, max_value=300), st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_is_permutation(self, size, seed):
        order = UniformOrder(size, spawn_rng(seed, "u"))
        assert sorted(drain(order)) == list(range(size))

    def test_first_samples_look_uniform(self):
        counts = np.zeros(10)
        for seed in range(2000):
            order = UniformOrder(10, spawn_rng(seed, "u2"))
            counts[order.next()] += 1
        assert counts.min() > 120  # expected 200 each

    def test_tail_switch_preserves_permutation(self):
        """The rejection->materialised-tail switch must not lose frames."""
        order = UniformOrder(100, spawn_rng(1, "u3"))
        out = drain(order)
        assert sorted(out) == list(range(100))

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            UniformOrder(-1, spawn_rng(0, "u4"))


class TestRandomPlusOrder:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(0, 2**31),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40)
    def test_is_permutation(self, size, seed, strata):
        order = RandomPlusOrder(size, spawn_rng(seed, "rp"), initial_strata=strata)
        assert sorted(drain(order)) == list(range(size))

    @pytest.mark.parametrize("size", [64, 256, 1000])
    def test_stratification_of_prefix(self, size):
        """The first 2^k samples must be spread across >= 2^(k-1) distinct
        halves/quarters/... — the property random+ exists to provide
        (plain uniform sampling clumps; see §III-F's 1000-hour example)."""
        order = RandomPlusOrder(size, spawn_rng(3, "rp2"))
        picks = [order.next() for _ in range(min(16, size))]
        # After 4 samples, at least 3 distinct quarters must be hit.
        quarters = {min(4 * p // size, 3) for p in picks[:4]}
        assert len(quarters) >= 3
        # After 8 samples, at least 6 distinct eighths.
        eighths = {min(8 * p // size, 7) for p in picks[:8]}
        assert len(eighths) >= 6

    def test_first_sample_uniform_overall(self):
        counts = np.zeros(8)
        for seed in range(2000):
            order = RandomPlusOrder(8, spawn_rng(seed, "rp3"))
            counts[order.next()] += 1
        assert counts.min() > 150  # expected 250

    def test_initial_strata_spread(self):
        """With initial_strata=4, the first 4 picks land in 4 distinct strata."""
        order = RandomPlusOrder(100, spawn_rng(5, "rp4"), initial_strata=4)
        picks = [order.next() for _ in range(4)]
        strata = {p * 4 // 100 for p in picks}
        assert len(strata) == 4

    def test_rejects_bad_strata(self):
        with pytest.raises(ConfigError):
            RandomPlusOrder(10, spawn_rng(0, "rp5"), initial_strata=0)

    def test_large_domain_lazy(self):
        """Drawing a few frames from a huge domain must be cheap (lazy)."""
        order = RandomPlusOrder(10_000_000, spawn_rng(0, "rp6"))
        picks = [order.next() for _ in range(32)]
        assert len(set(picks)) == 32


class _EagerRandomPlusOrder(FrameOrder):
    """random+ with level 0 built at construction: the stream reference.

    A copy of :class:`RandomPlusOrder` as it was before the lazy first
    draw. Every level, including the first, runs on strata arrays.
    """

    def __init__(self, size, rng, initial_strata=1):
        super().__init__(size)
        self._rng = rng
        self._initial_strata = min(initial_strata, max(size, 1))
        self._level_iter: Iterator[int] = iter(())
        if size > 0:
            k = self._initial_strata
            bounds = np.linspace(0, size, k + 1).astype(np.int64)
            lo, hi = bounds[:-1], bounds[1:]
            keep = hi > lo
            self._lo, self._hi = lo[keep], hi[keep]
            self._pos = np.full(int(keep.sum()), -1, dtype=np.int64)
        else:
            self._lo = np.empty(0, dtype=np.int64)
            self._hi = np.empty(0, dtype=np.int64)
            self._pos = np.empty(0, dtype=np.int64)

    def _next_impl(self):
        while True:
            for frame in self._level_iter:
                return frame
            self._advance_level()

    def _advance_level(self):
        if self._lo.size == 0:
            raise ExhaustedError("random+ order exhausted")
        need = self._pos < 0
        if np.any(need):
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
        lo, hi, pos = self._lo, self._hi, self._pos
        busy = (hi - lo) > 1
        lo, hi, pos = lo[busy], hi[busy], pos[busy]
        mid = (lo + hi) // 2
        in_left = pos < mid
        new_lo = np.concatenate([lo, mid])
        new_hi = np.concatenate([mid, hi])
        new_pos = np.concatenate(
            [np.where(in_left, pos, -1), np.where(in_left, -1, pos)]
        )
        keep = new_hi > new_lo
        self._lo, self._hi, self._pos = new_lo[keep], new_hi[keep], new_pos[keep]


class TestLazyRandomPlusMatchesEager:
    """The lazy first draw must not move a single random draw."""

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(0, 2**64 - 1),
        st.integers(min_value=1, max_value=5),
        st.lists(st.integers(min_value=0, max_value=300), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_stream_through_pickle_round_trips(
        self, size, seed, strata, cuts
    ):
        lazy = RandomPlusOrder(size, spawn_rng(seed, "rp"), initial_strata=strata)
        eager = _EagerRandomPlusOrder(
            size, spawn_rng(seed, "rp"), initial_strata=strata
        )
        produced = []
        for step in range(size + 1):
            if step in cuts:
                lazy = pickle.loads(pickle.dumps(lazy))
            if step == size:
                break
            frame = lazy.next()
            assert frame == eager.next()
            produced.append(frame)
        assert sorted(produced) == list(range(size))
        with pytest.raises(ExhaustedError):
            lazy.next()
        # Both generators stand at the same stream position.
        assert lazy._rng.random() == eager._rng.random()

    def test_first_draw_builds_no_strata(self):
        order = RandomPlusOrder(1000, spawn_rng(0, "rp7"))
        assert order._lo is None
        first = order.next()
        assert order._lo.tolist() == [0, 500]
        assert order._pos.tolist() == ([first, -1] if first < 500 else [-1, first])


class TestScoreWeightedOrder:
    def test_is_permutation(self):
        scores = spawn_rng(0, "sw").random(50)
        order = ScoreWeightedOrder(50, spawn_rng(1, "sw"), scores)
        assert sorted(drain(order)) == list(range(50))

    def test_biased_toward_high_scores(self):
        size = 200
        scores = np.zeros(size)
        scores[:20] = 8.0  # strongly favoured block
        first_picks = []
        for seed in range(300):
            order = ScoreWeightedOrder(size, spawn_rng(seed, "sw2"), scores)
            first_picks.append(order.next())
        hit_rate = np.mean([p < 20 for p in first_picks])
        assert hit_rate > 0.8

    def test_flat_scores_degrade_to_uniform(self):
        size = 10
        counts = np.zeros(size)
        for seed in range(3000):
            order = ScoreWeightedOrder(
                size, spawn_rng(seed, "sw3"), np.zeros(size)
            )
            counts[order.next()] += 1
        assert counts.min() > 180  # expected 300

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ScoreWeightedOrder(5, spawn_rng(0, "sw4"), np.zeros(4))

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError):
            ScoreWeightedOrder(5, spawn_rng(0, "sw5"), np.zeros(5), temperature=0)


class TestMakeOrder:
    @pytest.mark.parametrize("name", ["randomplus", "uniform", "sequential"])
    def test_dispatch(self, name):
        order = make_order(name, 10, spawn_rng(0, "mk"))
        assert sorted(drain(order)) == list(range(10))

    def test_score_requires_scores(self):
        with pytest.raises(ConfigError):
            make_order("score", 10, spawn_rng(0, "mk2"))

    def test_score_with_scores(self):
        order = make_order("score", 10, spawn_rng(0, "mk3"), scores=np.zeros(10))
        assert sorted(drain(order)) == list(range(10))

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_order("spiral", 10, spawn_rng(0, "mk4"))
