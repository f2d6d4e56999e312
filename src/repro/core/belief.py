"""Gamma belief distributions and chunk-selection policies (§III-B, §III-C).

ExSample does not trust the raw point estimate R̂_j = N1_j / n_j: early in a
run a chunk may look bad purely from unlucky draws. Instead, the uncertainty
of the estimate is modelled with a Gamma distribution (Eq. III.4):

    R_j(n_j + 1) ~ Gamma(alpha = N1_j + alpha0, beta = n_j + beta0)

parameterised by *shape* alpha and *rate* beta, so the mean alpha/beta matches
Eq. III.1 and the variance alpha/beta^2 matches the bound of Eq. III.3.

Policies turn the per-chunk beliefs into a chunk choice:

* :class:`ThompsonPolicy` — draw one sample from each belief, pick the argmax
  (the paper's method).
* :class:`BayesUCBPolicy` — pick the argmax of an upper belief quantile that
  tightens over time (the alternative the paper reports trying, [18]).
* :class:`GreedyMeanPolicy` — argmax of the posterior mean; the strawman that
  §III-B warns can get stuck on early lucky chunks; kept for ablations.
* :class:`UniformPolicy` — ignore beliefs entirely; with one frame per draw
  this reduces ExSample to stratified random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class GammaBelief:
    """A Gamma(shape=alpha, rate=beta) belief over a chunk's future reward.

    This is Eq. III.4 for one chunk: ``alpha = N1 + alpha0`` and
    ``beta = n + beta0``.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError(
                f"Gamma belief requires positive parameters, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def mean(self) -> float:
        """Posterior mean alpha/beta — consistent with Eq. III.1."""
        return self.alpha / self.beta

    @property
    def variance(self) -> float:
        """Posterior variance alpha/beta^2 — consistent with Eq. III.3."""
        return self.alpha / (self.beta * self.beta)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw Thompson sample(s) from the belief."""
        return rng.gamma(shape=self.alpha, scale=1.0 / self.beta, size=size)

    def quantile(self, q: float) -> float:
        """Inverse CDF at ``q`` (used by Bayes-UCB)."""
        from scipy import stats

        return float(stats.gamma.ppf(q, a=self.alpha, scale=1.0 / self.beta))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density, used by the Figure 2 validation plots."""
        from scipy import stats

        return stats.gamma.pdf(x, a=self.alpha, scale=1.0 / self.beta)


def beliefs_from_counts(
    n1: np.ndarray,
    n: np.ndarray,
    alpha0: "float | np.ndarray",
    beta0: "float | np.ndarray",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Eq. III.4: alphas = N1 + alpha0, betas = n + beta0.

    ``alpha0``/``beta0`` are each a positive scalar (the paper's uniform
    prior) or a positive 1-D array aligned with the counts — per-chunk
    priors, the warm-start path of the repository index. Array priors are
    validated for positivity and length before the addition so a stale or
    truncated prior vector fails loudly instead of broadcasting nonsense.
    """
    n1 = np.asarray(n1, dtype=float)
    n = np.asarray(n, dtype=float)
    for name, prior in (("alpha0", alpha0), ("beta0", beta0)):
        arr = np.asarray(prior, dtype=float)
        if arr.ndim > 1:
            raise ConfigError(
                f"{name} must be a scalar or 1-D per-chunk array, "
                f"got shape {arr.shape}"
            )
        if arr.ndim == 1 and arr.shape != n1.shape:
            raise ConfigError(
                f"per-chunk {name} has {arr.size} entries for "
                f"{n1.size} chunks"
            )
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ConfigError(
                f"{name} must be positive and finite everywhere"
            )
    alphas = n1 + alpha0
    betas = n + beta0
    if np.any(alphas <= 0) or np.any(betas <= 0):
        raise ConfigError("belief parameters must be positive; check alpha0/beta0")
    return alphas, betas


class ChunkPolicy:
    """Interface: map per-chunk belief parameters to chosen chunk indices."""

    def choose(
        self,
        alphas: np.ndarray,
        betas: np.ndarray,
        active: np.ndarray,
        rng: np.random.Generator,
        step: int,
        batch: int = 1,
    ) -> np.ndarray:
        """Return ``batch`` chunk indices, restricted to ``active`` chunks.

        Parameters
        ----------
        alphas, betas:
            Gamma belief parameters per chunk (Eq. III.4).
        active:
            Boolean mask of chunks that still contain unsampled frames.
            Exhausted chunks must never be chosen.
        rng:
            Random source for stochastic policies.
        step:
            1-based global iteration count (used by Bayes-UCB's schedule).
        batch:
            Batched sampling (§III-F): how many draws to produce at once.
        """
        raise NotImplementedError

    @staticmethod
    def _masked_argmax(scores: np.ndarray, active: np.ndarray) -> int:
        masked = np.where(active, scores, -np.inf)
        return int(np.argmax(masked))


class ThompsonPolicy(ChunkPolicy):
    """The paper's policy: argmax over one Gamma draw per chunk (line 4-6)."""

    def choose(self, alphas, betas, active, rng, step, batch=1):
        # One draw per (batch, chunk); argmax row-wise. Matches the batched
        # variant of §III-F: "we draw B samples per chunk j instead of one".
        # ``rng.gamma(shape, scale)`` computes ``scale * standard_gamma``
        # element by element in C order, so drawing standard gammas and
        # scaling by the same ``1.0 / betas`` in place consumes the stream
        # and rounds exactly as the broadcast ``gamma`` call did.
        draws = rng.standard_gamma(alphas, size=(batch, alphas.shape[0]))
        draws *= 1.0 / betas
        np.copyto(draws, -np.inf, where=np.logical_not(active))
        return np.argmax(draws, axis=1)


class BayesUCBPolicy(ChunkPolicy):
    """Bayes-UCB [18]: argmax of the 1 - 1/(t·horizon) belief quantile."""

    def __init__(self, horizon: float = 1.0):
        if horizon <= 0:
            raise ConfigError("ucb horizon must be positive")
        self.horizon = horizon

    def choose(self, alphas, betas, active, rng, step, batch=1):
        from scipy import stats

        t = max(int(step), 1)
        q = 1.0 - 1.0 / (t * self.horizon + 1.0)
        scores = stats.gamma.ppf(q, a=alphas, scale=1.0 / betas)
        # Deterministic given the state; break ties randomly so the first
        # rounds (identical beliefs everywhere) still spread out.
        scores = scores + rng.uniform(0.0, 1e-12, size=scores.shape)
        choice = self._masked_argmax(scores, active)
        return np.full(batch, choice, dtype=np.int64)


class GreedyMeanPolicy(ChunkPolicy):
    """Argmax of the posterior mean. Kept as the §III-B cautionary baseline."""

    def choose(self, alphas, betas, active, rng, step, batch=1):
        scores = alphas / betas + rng.uniform(0.0, 1e-12, size=alphas.shape)
        choice = self._masked_argmax(scores, active)
        return np.full(batch, choice, dtype=np.int64)


class UniformPolicy(ChunkPolicy):
    """Pick active chunks uniformly at random (stratified-random ablation)."""

    def choose(self, alphas, betas, active, rng, step, batch=1):
        candidates = np.flatnonzero(active)
        if candidates.size == 0:
            raise ConfigError("no active chunks to choose from")
        return rng.choice(candidates, size=batch, replace=True)


def make_policy(name: str, ucb_horizon: float = 1.0) -> ChunkPolicy:
    """Instantiate a policy by config name (see :class:`ExSampleConfig`)."""
    if name == "thompson":
        return ThompsonPolicy()
    if name == "bayes_ucb":
        return BayesUCBPolicy(horizon=ucb_horizon)
    if name == "greedy":
        return GreedyMeanPolicy()
    if name == "uniform":
        return UniformPolicy()
    raise ConfigError(f"unknown policy name {name!r}")
