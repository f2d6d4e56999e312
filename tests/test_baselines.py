"""Tests for the baseline searchers."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    OracleStaticSearcher,
    ProxySearcher,
    RandomPlusSearcher,
    RandomSearcher,
    SequentialSearcher,
)
from repro.core.environment import CallbackEnvironment, Observation
from repro.core.frame_order import UniformOrder
from repro.errors import ConfigError
from repro.utils.rng import RngFactory


def counting_env(sizes):
    def observe(chunk, frame):
        return Observation(d0=0, d1=0, results=[], cost=1.0)

    return CallbackEnvironment(sizes, observe)


def drain_all(searcher):
    trace = searcher.run()
    return trace


class TestExhaustiveCoverage:
    """Every sampling baseline must visit every frame exactly once."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda env: RandomSearcher(env, rng=RngFactory(0)),
            lambda env: RandomPlusSearcher(env, rng=RngFactory(0)),
            lambda env: SequentialSearcher(env, rng=RngFactory(0), stride=7),
            lambda env: OracleStaticSearcher(
                env, weights=np.array([0.7, 0.2, 0.1]), rng=RngFactory(0)
            ),
        ],
        ids=["random", "randomplus", "sequential", "oracle"],
    )
    def test_visits_each_frame_once(self, factory):
        sizes = [13, 7, 20]
        env = counting_env(sizes)
        searcher = factory(env)
        trace = drain_all(searcher)
        assert trace.num_samples == sum(sizes)
        for chunk, size in enumerate(sizes):
            frames = trace.frames[trace.chunks == chunk]
            assert sorted(frames) == list(range(size))


class TestRandomSearcher:
    def test_roughly_uniform_over_chunks(self):
        sizes = [100, 100, 100, 100]
        env = counting_env(sizes)
        searcher = RandomSearcher(env, rng=RngFactory(1))
        trace = searcher.run(frame_budget=200)
        counts = np.bincount(trace.chunks, minlength=4)
        assert counts.min() > 20

    def test_weighted_by_remaining_frames(self):
        sizes = [300, 10]
        env = counting_env(sizes)
        searcher = RandomSearcher(env, rng=RngFactory(2))
        trace = searcher.run(frame_budget=100)
        counts = np.bincount(trace.chunks, minlength=2)
        assert counts[0] > counts[1] * 5

    def test_batching(self):
        env = counting_env([50, 50])
        searcher = RandomSearcher(env, rng=RngFactory(3), batch_size=10)
        trace = searcher.run(frame_budget=30)
        assert trace.num_samples == 30

    @pytest.mark.parametrize("seed", range(6))
    def test_chunk_draw_matches_generator_choice(self, seed):
        """The inverse-cdf chunk draw picks what ``Generator.choice(p=...)``
        picks and leaves the generator in the same state, including once
        chunks run dry, so every stream is unchanged."""
        shape = np.random.default_rng(seed)
        sizes = shape.integers(1, 12, size=int(shape.integers(1, 70))).tolist()
        searcher = RandomSearcher(
            counting_env(sizes), rng=RngFactory(seed), batch_size=3
        )
        reference = copy.deepcopy(searcher._chunk_rng)
        for _ in range(-(-sum(sizes) // 3)):
            remaining = searcher._orders.remaining.copy()
            expected = []
            for _ in range(min(3, int(remaining.sum()))):
                chunk = int(
                    reference.choice(remaining.size, p=remaining / remaining.sum())
                )
                expected.append(chunk)
                remaining[chunk] -= 1
            assert [chunk for chunk, _ in searcher.pick_batch()] == expected
            assert repr(searcher._chunk_rng.bit_generator.state) == repr(
                reference.bit_generator.state
            )
        assert searcher.pick_batch() == []


class _EagerOrders:
    """Every chunk's UniformOrder built up front on the run's one order
    stream, remaining counts rebuilt from the orders on every pick: the
    baselines before lazy orders."""

    def _build_orders(self):
        rng = self.rngs.stream("order")
        self._orders = [UniformOrder(int(size), rng) for size in self.sizes]

    def pick_batch(self):
        picks = []
        remaining = np.array([o.remaining for o in self._orders], dtype=float)
        for _ in range(self.batch_size):
            probs = self._probs(remaining)
            if probs is None:
                break
            chunk = int(self._chunk_rng.choice(probs.size, p=probs))
            picks.append((chunk, self._orders[chunk].next()))
            remaining[chunk] -= 1
        return picks


class _EagerRandomSearcher(_EagerOrders, RandomSearcher):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._build_orders()

    def _probs(self, remaining):
        total = remaining.sum()
        return None if total <= 0 else remaining / total


class _EagerOracleSearcher(_EagerOrders, OracleStaticSearcher):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._build_orders()

    def _probs(self, remaining):
        active = remaining > 0
        if not np.any(active):
            return None
        probs = np.where(active, self.weights, 0.0)
        if probs.sum() <= 0:
            probs = np.where(active, remaining, 0.0)
        return probs / probs.sum()


class TestLazyOrdersMatchEager:
    """Building a chunk's order on first pick moves no random draw."""

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        st.integers(0, 2**32),
        st.sampled_from([1, 3]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_picks_to_exhaustion(self, sizes, seed, batch, data):
        if sum(sizes) == 0:
            sizes[0] = 1
        # Oracle weights with zeros, so weighted chunks run dry and the
        # uniform fallback over what remains takes over.
        raw = np.array(
            data.draw(st.lists(
                st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                min_size=len(sizes), max_size=len(sizes),
            ))
        )
        raw[int(np.argmax(sizes))] += 1.0
        weights = raw / raw.sum()
        pairs = [
            (RandomSearcher, _EagerRandomSearcher, {}),
            (OracleStaticSearcher, _EagerOracleSearcher, {"weights": weights}),
        ]
        for lazy_cls, eager_cls, kwargs in pairs:
            lazy = lazy_cls(
                counting_env(sizes), rng=RngFactory(seed), batch_size=batch,
                **kwargs,
            ).run()
            eager = eager_cls(
                counting_env(sizes), rng=RngFactory(seed), batch_size=batch,
                **kwargs,
            ).run()
            assert lazy.num_samples == sum(sizes)
            assert lazy.chunks.tolist() == eager.chunks.tolist()
            assert lazy.frames.tolist() == eager.frames.tolist()


class TestRandomPlusSearcher:
    def test_early_samples_spread_globally(self):
        sizes = [64, 64, 64, 64]
        env = counting_env(sizes)
        searcher = RandomPlusSearcher(env, rng=RngFactory(4))
        trace = searcher.run(frame_budget=4)
        # 4 samples over 256 frames: random+ puts them in distinct quarters,
        # which here coincide with the 4 chunks.
        assert len(set(trace.chunks.tolist())) >= 3


class TestSequentialSearcher:
    def test_first_pass_strided(self):
        env = counting_env([20])
        searcher = SequentialSearcher(env, stride=5)
        trace = searcher.run(frame_budget=4)
        assert list(trace.frames) == [0, 5, 10, 15]

    def test_second_pass_offsets(self):
        env = counting_env([10])
        searcher = SequentialSearcher(env, stride=5)
        trace = searcher.run(frame_budget=4)
        assert list(trace.frames) == [0, 5, 1, 6]

    def test_stride_one_is_scan(self):
        env = counting_env([6])
        searcher = SequentialSearcher(env, stride=1)
        trace = searcher.run()
        assert list(trace.frames) == list(range(6))

    def test_rejects_bad_stride(self):
        with pytest.raises(ConfigError):
            SequentialSearcher(counting_env([5]), stride=0)


class TestProxySearcher:
    def _env_and_scores(self, total=30):
        env = counting_env([total])
        scores = np.arange(total, dtype=float)  # frame 29 best
        return env, scores

    def test_descending_score_order(self):
        env, scores = self._env_and_scores()
        searcher = ProxySearcher(env, scores=scores, scan_cost=10.0)
        trace = searcher.run(frame_budget=5)
        assert list(trace.frames) == [29, 28, 27, 26, 25]

    def test_upfront_cost_in_trace(self):
        env, scores = self._env_and_scores()
        searcher = ProxySearcher(env, scores=scores, scan_cost=42.0)
        trace = searcher.run(frame_budget=1)
        assert trace.upfront_cost == 42.0
        assert trace.total_cost == pytest.approx(43.0)

    def test_dedup_window_blocks_neighbours(self):
        env, scores = self._env_and_scores()
        searcher = ProxySearcher(
            env, scores=scores, scan_cost=0.0, dedup_window=3
        )
        trace = searcher.run(frame_budget=3)
        # 29 blocks 26..30, so next is 25, which blocks 22..28, next 21.
        assert list(trace.frames) == [29, 25, 21]

    def test_dedup_window_still_terminates(self):
        env, scores = self._env_and_scores()
        searcher = ProxySearcher(
            env, scores=scores, scan_cost=0.0, dedup_window=2
        )
        trace = searcher.run()
        # Windowed skipping processes a subset but must halt cleanly.
        assert trace.num_samples >= 6
        assert len(set(trace.frames.tolist())) == trace.num_samples

    def test_score_shape_validated(self):
        env, _ = self._env_and_scores()
        with pytest.raises(ConfigError):
            ProxySearcher(env, scores=np.zeros(7), scan_cost=0.0)

    def test_negative_scan_cost_rejected(self):
        env, scores = self._env_and_scores()
        with pytest.raises(ConfigError):
            ProxySearcher(env, scores=scores, scan_cost=-1.0)


class TestOracleSearcher:
    def test_allocation_follows_weights(self):
        sizes = [1000, 1000]
        env = counting_env(sizes)
        searcher = OracleStaticSearcher(
            env, weights=np.array([0.9, 0.1]), rng=RngFactory(5)
        )
        trace = searcher.run(frame_budget=300)
        counts = np.bincount(trace.chunks, minlength=2)
        assert counts[0] > 230

    def test_falls_back_when_weighted_chunks_exhaust(self):
        sizes = [5, 100]
        env = counting_env(sizes)
        searcher = OracleStaticSearcher(
            env, weights=np.array([1.0, 0.0]), rng=RngFactory(6)
        )
        trace = searcher.run(frame_budget=30)
        assert trace.num_samples == 30  # continued into chunk 1

    def test_weight_validation(self):
        env = counting_env([10, 10])
        with pytest.raises(ConfigError):
            OracleStaticSearcher(env, weights=np.array([0.5]))
        with pytest.raises(ConfigError):
            OracleStaticSearcher(env, weights=np.array([0.9, 0.3]))
        with pytest.raises(ConfigError):
            OracleStaticSearcher(env, weights=np.array([-0.5, 1.5]))
