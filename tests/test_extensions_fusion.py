"""Tests for the §VII fusion searcher and its hybrid frame order."""

import numpy as np
import pytest

from repro.core.config import ExSampleConfig
from repro.core.environment import CallbackEnvironment, Observation
from repro.errors import ConfigError
from repro.extensions.fusion import FusionSearcher, HybridScoredOrder
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.utils.rng import RngFactory, spawn_rng

from tests.conftest import make_tiny_dataset


def always() -> bool:
    return True


class TestHybridScoredOrder:
    def _order(
        self, size=100, upgrade_after=5, scores=None, events=None, ready=always
    ):
        events = events if events is not None else []
        score_array = scores if scores is not None else np.zeros(size)
        return (
            HybridScoredOrder(
                size,
                spawn_rng(0, "h"),
                score_fn=lambda: score_array,
                upgrade_after=upgrade_after,
                on_upgrade=lambda: events.append("scan"),
                ready=ready,
            ),
            events,
        )

    def test_is_permutation(self):
        order, _ = self._order(size=60, upgrade_after=10)
        out = []
        while order.remaining:
            out.append(order.next())
        assert sorted(out) == list(range(60))

    def test_upgrade_fires_once_at_threshold(self):
        order, events = self._order(size=50, upgrade_after=5)
        for _ in range(5):
            order.next()
        assert events == []  # threshold draws happen pre-upgrade
        order.next()
        assert events == ["scan"]
        order.next()
        assert events == ["scan"]
        assert order.upgraded

    def test_no_upgrade_if_never_reached(self):
        order, events = self._order(size=50, upgrade_after=10)
        for _ in range(9):
            order.next()
        assert events == []

    def test_upgrade_after_zero_scans_immediately(self):
        order, events = self._order(size=50, upgrade_after=0)
        order.next()
        assert events == ["scan"]

    def test_upgrade_waits_until_ready(self):
        gate = []
        order, events = self._order(
            size=50, upgrade_after=2, ready=lambda: bool(gate)
        )
        for _ in range(6):
            order.next()
        assert events == [] and not order.upgraded
        gate.append(True)
        order.next()
        assert events == ["scan"]

    def test_scored_phase_prefers_high_scores(self):
        size = 200
        scores = np.zeros(size)
        scores[:10] = 50.0
        hits = 0
        for seed in range(100):
            order = HybridScoredOrder(
                size,
                spawn_rng(seed, "h2"),
                score_fn=lambda: scores,
                upgrade_after=0,
                on_upgrade=lambda: None,
                ready=always,
            )
            if order.next() < 10:
                hits += 1
        assert hits > 80

    def test_scored_phase_skips_already_emitted(self):
        size = 30
        order, _ = self._order(size=size, upgrade_after=15)
        out = [order.next() for _ in range(size)]
        assert sorted(out) == list(range(size))
        assert len(set(out)) == size

    def test_validation(self):
        with pytest.raises(ConfigError):
            HybridScoredOrder(
                10, spawn_rng(0, "h3"), lambda: np.zeros(10), -1, lambda: None,
                always,
            )
        order = HybridScoredOrder(
            10, spawn_rng(0, "h4"), lambda: np.zeros(4), 0, lambda: None, always
        )
        with pytest.raises(ConfigError):
            order.next()  # score shape mismatch surfaces at upgrade


def skewed_env(good_chunk=1, n_chunks=4, size=200):
    def observe(chunk, frame):
        found = int(chunk == good_chunk and frame % 4 == 0)
        return Observation(
            d0=found, d1=0, results=[chunk * size + frame] * found, cost=1.0
        )

    return CallbackEnvironment([size] * n_chunks, observe)


class TestFusionSearcher:
    def _searcher(self, env, upgrade_after=8, scan_cost=10.0, scores=None):
        n_chunks = env.chunk_sizes().size
        size = int(env.chunk_sizes()[0])
        score_map = scores or {
            j: np.zeros(size, dtype=float) for j in range(n_chunks)
        }
        return FusionSearcher(
            env,
            chunk_scores=lambda j: score_map[j],
            chunk_scan_cost=lambda j: scan_cost,
            config=ExSampleConfig(seed=0),
            rng=RngFactory(0),
            upgrade_after=upgrade_after,
        )

    def test_runs_and_finds(self):
        searcher = self._searcher(skewed_env())
        trace = searcher.run(result_limit=20)
        assert trace.num_results >= 20

    def test_scan_cost_charged_in_trace(self):
        searcher = self._searcher(skewed_env(), upgrade_after=2, scan_cost=100.0)
        trace = searcher.run(result_limit=20)
        scans = len(searcher.scanned_chunks)
        assert scans >= 1
        # Total cost = one unit per frame + 100 per scanned chunk.
        assert trace.total_cost == pytest.approx(trace.num_samples + 100.0 * scans)

    def test_cold_chunks_never_scanned(self):
        searcher = self._searcher(skewed_env(), upgrade_after=10_000)
        searcher.run(result_limit=20)
        assert searcher.scanned_chunks == []

    def test_chunks_without_finds_never_scanned(self):
        """Returning to a chunk is not enough: only a chunk that yielded a
        new object pays its scan, however often sampling comes back."""
        searcher = self._searcher(skewed_env(), upgrade_after=2)
        trace = searcher.run(result_limit=20)
        cold = trace.chunks[trace.chunks != 1]
        assert np.bincount(cold).max() > 2  # cold chunks were revisited
        assert searcher.scanned_chunks == [1]

    def test_good_scores_cut_sample_count(self):
        """Scores aligned with the hit pattern reduce detector invocations."""
        size = 200
        hit_scores = np.zeros(size)
        hit_scores[::4] = 10.0  # matches the observe() hit pattern
        flat = {j: np.zeros(size) for j in range(4)}
        informative = {j: hit_scores.copy() for j in range(4)}
        flat_trace = self._searcher(
            skewed_env(), upgrade_after=4, scores=flat
        ).run(result_limit=30)
        sharp_trace = self._searcher(
            skewed_env(), upgrade_after=4, scores=informative
        ).run(result_limit=30)
        assert sharp_trace.num_samples < flat_trace.num_samples

    def test_validation(self):
        env = skewed_env()
        with pytest.raises(ConfigError):
            FusionSearcher(
                env,
                chunk_scores=lambda j: np.zeros(200),
                chunk_scan_cost=lambda j: 1.0,
                upgrade_after=-1,
            )
        with pytest.raises(ConfigError):
            FusionSearcher(
                env,
                chunk_scores=lambda j: np.zeros(200),
                chunk_scan_cost=lambda j: 1.0,
                temperature=0,
            )


class TestEngineIntegration:
    def test_fusion_method_runs(self):
        engine = QueryEngine(make_tiny_dataset(seed=8), seed=8)
        outcome = engine.run(
            DistinctObjectQuery("car", limit=5), method="exsample_fusion"
        )
        assert outcome.num_results >= 5

    def test_fusion_beats_proxy_on_time(self):
        """Fusion's incremental scans must undercut the full upfront scan."""
        engine = QueryEngine(make_tiny_dataset(seed=8), seed=8)
        query = DistinctObjectQuery("bicycle", recall_target=0.5)
        fusion = engine.run(query, method="exsample_fusion")
        proxy = engine.run(query, method="proxy")
        t_fusion = fusion.time_to_recall(0.5)
        t_proxy = proxy.time_to_recall(0.5)
        assert t_fusion is not None and t_proxy is not None
        assert t_fusion < t_proxy

    def test_fusion_sample_efficiency(self):
        """With a decent proxy, fusion needs no more samples than ExSample
        (allowing small-scale noise)."""
        engine = QueryEngine(make_tiny_dataset(seed=8), seed=8)
        query = DistinctObjectQuery("bicycle", recall_target=0.7)
        fusion_samples = []
        plain_samples = []
        for seed in range(3):
            fusion_samples.append(
                engine.run(
                    query, method="exsample_fusion", run_seed=seed
                ).trace.num_samples
            )
            plain_samples.append(
                engine.run(query, method="exsample", run_seed=seed).trace.num_samples
            )
        assert np.median(fusion_samples) <= np.median(plain_samples) * 1.5
