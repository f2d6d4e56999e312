"""Tests for Gamma beliefs and the chunk-selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.belief import (
    BayesUCBPolicy,
    GammaBelief,
    GreedyMeanPolicy,
    ThompsonPolicy,
    UniformPolicy,
    beliefs_from_counts,
    make_policy,
)
from repro.errors import ConfigError
from repro.utils.rng import spawn_rng


class TestGammaBelief:
    def test_mean_matches_point_estimate(self):
        """Eq. III.4's parameters make the mean equal N1/n (plus prior)."""
        belief = GammaBelief(alpha=5.1, beta=101.0)
        assert belief.mean == pytest.approx(5.1 / 101.0)

    def test_variance_matches_bound_shape(self):
        belief = GammaBelief(alpha=5.1, beta=101.0)
        assert belief.variance == pytest.approx(5.1 / 101.0**2)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            GammaBelief(alpha=0.0, beta=1.0)
        with pytest.raises(ConfigError):
            GammaBelief(alpha=1.0, beta=-1.0)

    def test_samples_nonnegative(self):
        belief = GammaBelief(alpha=0.1, beta=1.0)
        samples = belief.sample(spawn_rng(0, "s"), size=1000)
        assert np.all(samples >= 0)

    def test_sample_mean_converges(self):
        belief = GammaBelief(alpha=4.0, beta=8.0)
        samples = belief.sample(spawn_rng(1, "s"), size=50_000)
        assert np.mean(samples) == pytest.approx(belief.mean, rel=0.05)

    def test_quantiles_monotone(self):
        belief = GammaBelief(alpha=2.0, beta=3.0)
        qs = [belief.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_pdf_integrates_to_one(self):
        belief = GammaBelief(alpha=3.0, beta=2.0)
        x = np.linspace(0, 20, 20_000)
        mass = np.trapezoid(belief.pdf(x), x)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @given(
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=0.01, max_value=50),
    )
    @settings(max_examples=30)
    def test_quantile_inverts_cdf_ordering(self, alpha, beta):
        belief = GammaBelief(alpha=alpha, beta=beta)
        assert belief.quantile(0.25) <= belief.quantile(0.75)


class TestBeliefsFromCounts:
    def test_vectorised_parameters(self):
        alphas, betas = beliefs_from_counts(
            np.array([0, 3]), np.array([0, 10]), alpha0=0.1, beta0=1.0
        )
        assert alphas == pytest.approx([0.1, 3.1])
        assert betas == pytest.approx([1.0, 11.0])

    def test_rejects_parameters_that_go_nonpositive(self):
        with pytest.raises(ConfigError):
            beliefs_from_counts(np.array([-1.0]), np.array([5]), 0.5, 1.0)


def _flat_params(n_chunks):
    return np.full(n_chunks, 0.1), np.full(n_chunks, 1.0)


class TestThompsonPolicy:
    def test_respects_active_mask(self):
        policy = ThompsonPolicy()
        alphas, betas = _flat_params(5)
        active = np.array([False, False, True, False, False])
        rng = spawn_rng(0, "p")
        for _ in range(20):
            choice = policy.choose(alphas, betas, active, rng, step=1)
            assert choice[0] == 2

    def test_batch_shape(self):
        policy = ThompsonPolicy()
        alphas, betas = _flat_params(4)
        active = np.ones(4, dtype=bool)
        choices = policy.choose(alphas, betas, active, spawn_rng(1, "p"), 1, batch=7)
        assert choices.shape == (7,)
        assert np.all((choices >= 0) & (choices < 4))

    def test_prefers_strong_chunk(self):
        policy = ThompsonPolicy()
        alphas = np.array([0.1, 20.1, 0.1])
        betas = np.array([30.0, 30.0, 30.0])
        active = np.ones(3, dtype=bool)
        choices = policy.choose(
            alphas, betas, active, spawn_rng(2, "p"), 1, batch=500
        )
        counts = np.bincount(choices, minlength=3)
        assert counts[1] > 400

    def test_explores_ties_evenly(self):
        """Identical beliefs -> roughly uniform choice (breaks ties randomly)."""
        policy = ThompsonPolicy()
        alphas, betas = _flat_params(4)
        active = np.ones(4, dtype=bool)
        choices = policy.choose(
            alphas, betas, active, spawn_rng(3, "p"), 1, batch=4000
        )
        counts = np.bincount(choices, minlength=4)
        assert counts.min() > 700


def _broadcast_gamma_choose(alphas, betas, active, rng, batch):
    """ThompsonPolicy.choose before the single-pass draw: the reference."""
    n_chunks = alphas.shape[0]
    draws = rng.gamma(
        shape=np.broadcast_to(alphas, (batch, n_chunks)),
        scale=1.0 / np.broadcast_to(betas, (batch, n_chunks)),
    )
    draws = np.where(active[None, :], draws, -np.inf)
    return np.argmax(draws, axis=1)


class TestThompsonMatchesBroadcastGamma:
    """``scale * standard_gamma`` in C order is exactly ``gamma``'s stream."""

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_chunks_and_stream_position(self, seed, n_chunks, batch):
        params = spawn_rng(seed, "params")
        # Posterior-shaped beliefs (Eq. III.4 with the default prior)
        # mixed with arbitrary positive ones; shapes below and above 1
        # take different standard_gamma algorithms.
        alphas = np.where(
            params.random(n_chunks) < 0.5,
            params.integers(0, 5, n_chunks) + 0.1,
            params.uniform(0.01, 30.0, n_chunks),
        )
        betas = params.integers(0, 200, n_chunks) + params.uniform(0.5, 2.0)
        active = params.random(n_chunks) < 0.7
        active[params.integers(0, n_chunks)] = True
        policy = ThompsonPolicy()
        new, old = spawn_rng(seed, "draws"), spawn_rng(seed, "draws")
        for step in range(1, 4):
            chosen = policy.choose(alphas, betas, active, new, step, batch=batch)
            assert chosen.tolist() == _broadcast_gamma_choose(
                alphas, betas, active, old, batch
            ).tolist()
            assert new.random() == old.random()


class TestBayesUCBPolicy:
    def test_prefers_uncertain_over_certain_equal_mean(self):
        """Same posterior mean, fewer samples -> higher quantile -> chosen."""
        policy = BayesUCBPolicy()
        alphas = np.array([1.0, 10.0])
        betas = np.array([10.0, 100.0])  # both mean 0.1
        active = np.ones(2, dtype=bool)
        choice = policy.choose(alphas, betas, active, spawn_rng(0, "p"), step=5)
        assert choice[0] == 0

    def test_quantile_tightens_with_step(self):
        policy = BayesUCBPolicy()
        alphas = np.array([2.0])
        betas = np.array([10.0])
        from scipy import stats

        q_early = 1 - 1 / (1 * 1.0 + 1)
        q_late = 1 - 1 / (1000 * 1.0 + 1)
        early = stats.gamma.ppf(q_early, a=2.0, scale=0.1)
        late = stats.gamma.ppf(q_late, a=2.0, scale=0.1)
        assert late > early  # later steps use a higher quantile

    def test_respects_active_mask(self):
        policy = BayesUCBPolicy()
        alphas, betas = _flat_params(3)
        active = np.array([False, True, False])
        choice = policy.choose(alphas, betas, active, spawn_rng(1, "p"), step=2)
        assert choice[0] == 1

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError):
            BayesUCBPolicy(horizon=0)


class TestGreedyAndUniform:
    def test_greedy_picks_max_mean(self):
        policy = GreedyMeanPolicy()
        alphas = np.array([1.0, 5.0, 2.0])
        betas = np.array([10.0, 10.0, 10.0])
        active = np.ones(3, dtype=bool)
        choice = policy.choose(alphas, betas, active, spawn_rng(0, "p"), 1)
        assert choice[0] == 1

    def test_uniform_covers_active(self):
        policy = UniformPolicy()
        alphas, betas = _flat_params(4)
        active = np.array([True, False, True, False])
        choices = policy.choose(
            alphas, betas, active, spawn_rng(1, "p"), 1, batch=200
        )
        assert set(np.unique(choices)) <= {0, 2}
        assert len(set(np.unique(choices))) == 2

    def test_uniform_raises_when_nothing_active(self):
        policy = UniformPolicy()
        alphas, betas = _flat_params(2)
        with pytest.raises(ConfigError):
            policy.choose(alphas, betas, np.zeros(2, bool), spawn_rng(2, "p"), 1)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("thompson", ThompsonPolicy),
            ("bayes_ucb", BayesUCBPolicy),
            ("greedy", GreedyMeanPolicy),
            ("uniform", UniformPolicy),
        ],
    )
    def test_dispatch(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_policy("epsilon-greedy")


class TestVectorPriorsInBeliefs:
    """Per-chunk alpha0/beta0 arrays flow through Eq. III.4 element-wise."""

    def test_vector_priors_add_element_wise(self):
        n1 = np.array([0.0, 3.0, 1.0])
        n = np.array([0.0, 10.0, 4.0])
        alpha0 = np.array([0.1, 2.0, 0.5])
        beta0 = np.array([1.0, 11.0, 4.0])
        alphas, betas = beliefs_from_counts(n1, n, alpha0, beta0)
        assert alphas.tolist() == [0.1, 5.0, 1.5]
        assert betas.tolist() == [1.0, 21.0, 8.0]

    def test_scalar_prior_on_one_side_broadcasts(self):
        alphas, betas = beliefs_from_counts(
            np.array([1.0, 2.0]), np.array([5.0, 6.0]),
            0.1, np.array([1.0, 2.0]),
        )
        assert alphas.tolist() == [1.1, 2.1]
        assert betas.tolist() == [6.0, 8.0]

    def test_warm_start_equals_posterior_of_the_recorded_run(self):
        """Priors built from recorded counts ARE the earlier posterior."""
        n1_old = np.array([2.0, 0.0])
        n_old = np.array([6.0, 3.0])
        post_alpha, post_beta = beliefs_from_counts(n1_old, n_old, 0.1, 1.0)
        warm_alpha, warm_beta = beliefs_from_counts(
            np.zeros(2), np.zeros(2), post_alpha, post_beta
        )
        assert warm_alpha.tolist() == post_alpha.tolist()
        assert warm_beta.tolist() == post_beta.tolist()

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError, match="2 entries for 3 chunks"):
            beliefs_from_counts(
                np.zeros(3), np.zeros(3), np.array([0.1, 0.2]), 1.0
            )
        with pytest.raises(ConfigError, match="entries for"):
            beliefs_from_counts(
                np.zeros(3), np.zeros(3), 0.1, np.array([1.0, 2.0])
            )

    def test_rejects_2d_and_nonpositive_arrays(self):
        with pytest.raises(ConfigError, match="1-D"):
            beliefs_from_counts(
                np.zeros(2), np.zeros(2), np.ones((2, 1)), 1.0
            )
        with pytest.raises(ConfigError, match="positive"):
            beliefs_from_counts(
                np.zeros(2), np.zeros(2), np.array([0.1, 0.0]), 1.0
            )
        with pytest.raises(ConfigError, match="positive"):
            beliefs_from_counts(
                np.zeros(2), np.zeros(2), 0.1, np.array([1.0, np.inf])
            )
