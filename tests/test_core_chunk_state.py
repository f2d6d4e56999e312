"""Tests for per-chunk statistics, incl. the batched-update equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk_state import ChunkStatistics
from repro.errors import ConfigError


class TestConstruction:
    def test_initial_state(self):
        stats = ChunkStatistics([10, 20, 30])
        assert stats.num_chunks == 3
        assert stats.n.tolist() == [0, 0, 0]
        assert stats.n1.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ChunkStatistics([])

    def test_rejects_negative_sizes(self):
        with pytest.raises(ConfigError):
            ChunkStatistics([5, -1])


class TestRecord:
    def test_algorithm1_update(self):
        stats = ChunkStatistics([100])
        stats.record(0, d0=2, d1=1)
        assert stats.n1[0] == 1  # += d0 - d1
        assert stats.n[0] == 1

    def test_n1_can_go_negative(self):
        """Cross-chunk re-sightings legitimately drive raw N1 below zero."""
        stats = ChunkStatistics([100])
        stats.record(0, d0=0, d1=2)
        assert stats.n1[0] == -2

    def test_exhaustion_enforced(self):
        stats = ChunkStatistics([1])
        stats.record(0, 0, 0)
        with pytest.raises(ConfigError):
            stats.record(0, 0, 0)

    def test_chunk_bounds_checked(self):
        stats = ChunkStatistics([5])
        with pytest.raises(ConfigError):
            stats.record(1, 0, 0)
        with pytest.raises(ConfigError):
            stats.record(-1, 0, 0)

    def test_negative_counts_rejected(self):
        stats = ChunkStatistics([5])
        with pytest.raises(ConfigError):
            stats.record(0, d0=-1, d1=0)


class TestBatchEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.lists(st.integers(min_value=0, max_value=3), max_size=4),
            ),
            max_size=40,
        ),
        st.booleans(),
    )
    @settings(max_examples=80)
    def test_batch_equals_sequential(self, updates, as_arrays):
        """§III-F: batched updates are commutative = identical final state.

        Both batch updates equal one :meth:`record` per pick, with
        duplicate chunks in a batch, d1 > d0, and list or array inputs."""
        sizes = [50, 50, 50, 50]
        sequential = ChunkStatistics(sizes)
        for chunk, d0, d1, _ in updates:
            sequential.record(chunk, d0, d1)
        chunks = [u[0] for u in updates]
        d0s = [u[1] for u in updates]
        d1s = [u[2] for u in updates]
        if as_arrays:
            chunks = np.array(chunks, dtype=np.int64)
            d0s, d1s = np.array(d0s, dtype=float), np.array(d1s, dtype=float)
        batched = ChunkStatistics(sizes)
        batched.apply_batch(chunks, d0s, d1s)
        # Crediting every d1 to the sampled chunk is the plain update.
        credited = ChunkStatistics(sizes)
        credited.apply_credit_batch(
            chunks, d0s, [[u[0]] * u[2] for u in updates]
        )
        for stats in (batched, credited):
            assert stats.n.tolist() == sequential.n.tolist()
            assert stats.n1.tolist() == sequential.n1.tolist()

        # Any origins: n follows the sampled chunks, each origin loses one.
        anywhere = ChunkStatistics(sizes)
        anywhere.apply_credit_batch(chunks, d0s, [u[3] for u in updates])
        expected_n1 = [0.0] * 4
        for chunk, d0, _, origins in updates:
            expected_n1[chunk] += d0
            for origin in origins:
                expected_n1[origin] -= 1
        assert anywhere.n.tolist() == sequential.n.tolist()
        assert anywhere.n1.tolist() == expected_n1

    def test_batch_order_irrelevant(self):
        sizes = [10, 10]
        a = ChunkStatistics(sizes)
        b = ChunkStatistics(sizes)
        chunks = np.array([0, 1, 0])
        d0s = np.array([1.0, 2.0, 0.0])
        d1s = np.array([0.0, 1.0, 1.0])
        a.apply_batch(chunks, d0s, d1s)
        b.apply_batch(chunks[::-1].copy(), d0s[::-1].copy(), d1s[::-1].copy())
        assert np.array_equal(a.n, b.n)
        assert np.allclose(a.n1, b.n1)

    def test_batch_overdraw_rejected(self):
        stats = ChunkStatistics([1])
        with pytest.raises(ConfigError):
            stats.apply_batch(
                np.array([0, 0]), np.zeros(2), np.zeros(2)
            )

    @pytest.mark.parametrize("credit", [False, True])
    def test_oversampling_touched_chunk_rejected(self, credit):
        """The over-sampling check runs on each pick's own chunk: filling a
        chunk exactly is fine, one more pick of it raises."""
        stats = ChunkStatistics([2, 5, 3])

        def apply(chunks):
            zeros = [0] * len(chunks)
            if credit:
                stats.apply_credit_batch(chunks, zeros, [[] for _ in chunks])
            else:
                stats.apply_batch(chunks, zeros, zeros)

        apply([0, 1, 0])
        assert stats.n.tolist() == [2, 1, 0]
        with pytest.raises(ConfigError, match="chunk 0 is exhausted"):
            apply([2, 0])
        with pytest.raises(ConfigError, match="out of range"):
            apply([3])
        with pytest.raises(ConfigError, match="out of range"):
            apply([-1])

    def test_batch_shape_mismatch(self):
        stats = ChunkStatistics([5])
        with pytest.raises(ConfigError):
            stats.apply_batch(np.array([0]), np.zeros(2), np.zeros(1))


class TestDerivedQuantities:
    def test_point_estimates(self):
        stats = ChunkStatistics([10, 10])
        stats.record(0, 2, 0)
        stats.record(0, 0, 0)
        estimates = stats.point_estimates()
        assert estimates[0] == pytest.approx(1.0)  # N1=2, n=2
        assert estimates[1] == 0.0  # unsampled
