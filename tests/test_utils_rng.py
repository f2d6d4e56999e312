"""Tests for deterministic RNG spawning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import RngFactory, TransientRng, as_generator, spawn_rng


class TestSpawnRng:
    def test_same_keys_same_stream(self):
        a = spawn_rng(42, "detector", 5)
        b = spawn_rng(42, "detector", 5)
        assert np.array_equal(a.random(100), b.random(100))

    def test_different_keys_different_streams(self):
        a = spawn_rng(42, "detector", 5)
        b = spawn_rng(42, "detector", 6)
        assert not np.array_equal(a.random(100), b.random(100))

    def test_different_seeds_different_streams(self):
        a = spawn_rng(1, "x")
        b = spawn_rng(2, "x")
        assert not np.array_equal(a.random(100), b.random(100))

    def test_key_types_distinguished(self):
        # The string "5" and the int 5 must map to distinct streams.
        a = spawn_rng(0, "5")
        b = spawn_rng(0, 5)
        assert not np.array_equal(a.random(50), b.random(50))

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_always_returns_generator(self, seed, key):
        gen = spawn_rng(seed, key)
        assert isinstance(gen, np.random.Generator)
        value = float(gen.random())
        assert 0.0 <= value < 1.0


class TestRngFactory:
    def test_stream_stability(self):
        factory = RngFactory(7)
        first = factory.stream("a", 1).random(10)
        second = factory.stream("a", 1).random(10)
        assert np.array_equal(first, second)

    def test_child_independence(self):
        factory = RngFactory(7)
        child = factory.child("sub")
        assert child.seed != factory.seed
        a = factory.stream("x").random(50)
        b = child.stream("x").random(50)
        assert not np.array_equal(a, b)

    def test_child_deterministic(self):
        assert RngFactory(7).child("sub").seed == RngFactory(7).child("sub").seed

    def test_integers_in_range(self):
        factory = RngFactory(3)
        for _ in range(20):
            value = factory.integers(5, 15, "k")
            assert 5 <= value < 15

    def test_generator_shortcut(self):
        factory = RngFactory(9)
        assert isinstance(factory.generator(), np.random.Generator)


class TestAsGenerator:
    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_from_int(self):
        a = as_generator(5).random(10)
        b = as_generator(5).random(10)
        assert np.array_equal(a, b)

    def test_from_factory(self):
        factory = RngFactory(5)
        assert isinstance(as_generator(factory), np.random.Generator)

    def test_from_none(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestTransientRng:
    def test_reproducible_per_key(self):
        pool = TransientRng()
        a = pool.seeded(42, "detect", 0, 7).random()
        b = pool.seeded(42, "detect", 0, 7).random()
        assert a == b

    def test_distinct_keys_distinct_streams(self):
        pool = TransientRng()
        a = pool.seeded(42, "detect", 0, 7).random()
        b = pool.seeded(42, "detect", 0, 8).random()
        assert a != b

    def test_independent_pools_agree(self):
        a = TransientRng().seeded(3, "x", 1)
        draws_a = [a.random() for _ in range(4)] + [float(a.beta(8, 2))]
        b = TransientRng().seeded(3, "x", 1)
        draws_b = [b.random() for _ in range(4)] + [float(b.beta(8, 2))]
        assert draws_a == draws_b

    def test_reseeding_resets_mid_stream(self):
        pool = TransientRng()
        gen = pool.seeded(1, "k")
        first = gen.random()
        gen.random()  # advance
        assert pool.seeded(1, "k").random() == first


class TestGeneratorsPerSession:
    """``spawn_rng`` builds a stream that lives for a run, never one per
    chunk opened or per track created: a search session builds at most
    three generators (its policy or chunk-choice stream, its order stream
    and its discriminator's track-extension stream), however many chunks
    and tracks it touches."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """Keys of every ``spawn_rng`` call, patched into each module that
        holds it (``RngFactory.stream`` calls it through ``repro.utils.rng``)."""
        import sys

        import repro.query.engine  # noqa: F401  (imports every searcher)
        from repro.utils import rng as rng_module

        original = rng_module.spawn_rng
        calls = []

        def counting(seed, *keys):
            calls.append(keys)
            return original(seed, *keys)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "spawn_rng", None) is original:
                monkeypatch.setattr(module, "spawn_rng", counting)
        return calls

    def test_solo_query(self, spawned):
        from repro.query import DistinctObjectQuery, QueryEngine
        from repro.video import make_dataset

        engine = QueryEngine(make_dataset("bdd1k", scale=1.0, seed=0), seed=0)
        spawned.clear()
        outcome = engine.run(
            DistinctObjectQuery("bus", limit=10), method="exsample", run_seed=7
        )
        trace = outcome.trace
        assert np.unique(trace.chunks).size >= 30
        assert trace.num_results >= 10
        assert len(spawned) <= 3, spawned

    def test_run_many_of_exsample_and_random(self, spawned):
        from repro.query import DistinctObjectQuery, QueryEngine
        from repro.video import make_dataset

        queries = [("bicycle", "exsample"), ("bicycle", "random"),
                   ("bus", "exsample"), ("bus", "random")]
        engine = QueryEngine(make_dataset("archie", scale=0.05, seed=0), seed=0)
        spawned.clear()
        outcomes = engine.run_many(
            [DistinctObjectQuery(cls, limit=30) for cls, _ in queries],
            method=[method for _, method in queries],
            run_seeds=[11 + k for k in range(len(queries))],
            batch_size=4,
        )
        chunks = sum(np.unique(o.trace.chunks).size for o in outcomes)
        tracks = sum(o.trace.num_results for o in outcomes)
        assert chunks >= 60 and tracks >= 60
        assert len(spawned) <= 3 * len(queries), spawned
