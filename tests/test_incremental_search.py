"""Incremental querying: successive run() calls continue one search.

A searcher's state — per-chunk beliefs, frame orders, drawn-frame sets —
lives on the searcher, not the trace, so calling ``run`` again continues
exactly where the previous call stopped: no frame is ever resampled, and the
beliefs keep everything already learned. This is the "find 10 more" user
interaction pattern for limit queries.
"""

import numpy as np

from repro.core.config import ExSampleConfig
from repro.core.environment import CallbackEnvironment, Observation
from repro.core.sampler import ExSampleSearcher
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.utils.rng import RngFactory

from tests.conftest import make_tiny_dataset


def hit_env(sizes, modulus=4):
    def observe(chunk, frame):
        found = int((chunk * 997 + frame) % modulus == 0)
        return Observation(
            d0=found, d1=0, results=[chunk * 10_000 + frame] * found, cost=1.0
        )

    return CallbackEnvironment(sizes, observe)


class TestIncrementalRuns:
    def test_no_frame_resampled_across_runs(self):
        env = hit_env([100, 100, 100])
        searcher = ExSampleSearcher(env, ExSampleConfig(seed=0), rng=RngFactory(0))
        first = searcher.run(result_limit=10)
        second = searcher.run(result_limit=10)
        pairs_first = set(zip(first.chunks.tolist(), first.frames.tolist()))
        pairs_second = set(zip(second.chunks.tolist(), second.frames.tolist()))
        assert not pairs_first & pairs_second

    def test_results_are_new_each_time(self):
        env = hit_env([100, 100, 100])
        searcher = ExSampleSearcher(env, ExSampleConfig(seed=0), rng=RngFactory(0))
        first = searcher.run(result_limit=10)
        second = searcher.run(result_limit=10)
        assert first.num_results >= 10
        assert second.num_results >= 10
        assert not set(first.results) & set(second.results)

    def test_beliefs_carry_over(self):
        """The second run starts informed: it needs no more samples per
        result than the first (statistically; assert generously)."""
        env = hit_env([400, 400, 400, 400], modulus=16)
        searcher = ExSampleSearcher(env, ExSampleConfig(seed=1), rng=RngFactory(1))
        first = searcher.run(result_limit=15)
        state_after_first = int(searcher.stats.n.sum())
        second = searcher.run(result_limit=15)
        assert int(searcher.stats.n.sum()) == state_after_first + second.num_samples
        assert second.num_samples <= first.num_samples * 2

    def test_runs_eventually_exhaust(self):
        env = hit_env([30, 30])
        searcher = ExSampleSearcher(env, ExSampleConfig(seed=2), rng=RngFactory(2))
        seen = 0
        for _ in range(10):
            trace = searcher.run(frame_budget=10)
            seen += trace.num_samples
            if trace.num_samples == 0:
                break
        assert seen == 60


class TestEngineSearcherKwargs:
    def test_sequential_stride_kwarg(self):
        engine = QueryEngine(make_tiny_dataset(seed=16), seed=16)
        outcome = engine.run(
            DistinctObjectQuery("car", frame_budget=10),
            method="sequential",
            stride=50,
        )
        # First frames of a stride-50 scan within chunk 0.
        assert list(outcome.trace.frames[:3]) == [0, 50, 100]

    def test_proxy_dedup_window_kwarg(self):
        engine = QueryEngine(make_tiny_dataset(seed=16), seed=16)
        tight = engine.run(
            DistinctObjectQuery("car", frame_budget=30),
            method="proxy",
            dedup_window_s=0.0,
        )
        spread = engine.run(
            DistinctObjectQuery("car", frame_budget=30),
            method="proxy",
            dedup_window_s=5.0,
        )
        def min_gap(trace):
            order = np.sort(
                trace.chunks.astype(np.int64) * 10**6 + trace.frames
            )
            return np.min(np.diff(order)) if order.size > 1 else 0

        assert min_gap(spread.trace) >= min_gap(tight.trace)

    def test_oracle_budget_hint_kwarg(self):
        engine = QueryEngine(make_tiny_dataset(seed=16), seed=16)
        outcome = engine.run(
            DistinctObjectQuery("bicycle", limit=3),
            method="oracle",
            sample_budget_hint=500,
        )
        assert outcome.num_results >= 3

    def test_proxy_quality_kwarg(self):
        engine = QueryEngine(make_tiny_dataset(seed=16), seed=16)
        sharp = engine.run(
            DistinctObjectQuery("car", limit=5),
            method="proxy",
            proxy_quality=0.99,
        )
        dull = engine.run(
            DistinctObjectQuery("car", limit=5),
            method="proxy",
            proxy_quality=0.5,
        )
        assert sharp.trace.num_samples <= dull.trace.num_samples
