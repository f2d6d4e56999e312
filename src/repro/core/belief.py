"""Gamma belief distributions and chunk-selection policies (§III-B, §III-C).

ExSample does not trust the raw point estimate R̂_j = N1_j / n_j: early in a
run a chunk may look bad purely from unlucky draws. Instead, the uncertainty
of the estimate is modelled with a Gamma distribution (Eq. III.4):

    R_j(n_j + 1) ~ Gamma(alpha = N1_j + alpha0, beta = n_j + beta0)

parameterised by *shape* alpha and *rate* beta, so the mean alpha/beta matches
Eq. III.1 and the variance alpha/beta^2 matches the bound of Eq. III.3.

Policies turn the per-chunk beliefs into a chunk choice:

* :class:`ThompsonPolicy` — draw one sample from each belief, pick the argmax
  (the paper's method). On large repositories most chunks have never been
  drawn and hold the same prior; :meth:`ThompsonPolicy.choose_grouped`
  draws them as one group, with :func:`group_win_probability` (a
  scipy-free regularised incomplete gamma) deciding whether the group's
  best draw beats the drawn chunks'.
* :class:`BayesUCBPolicy` — pick the argmax of an upper belief quantile that
  tightens over time (the alternative the paper reports trying, [18]).
* :class:`GreedyMeanPolicy` — argmax of the posterior mean; the strawman that
  §III-B warns can get stuck on early lucky chunks; kept for ablations.
* :class:`UniformPolicy` — ignore beliefs entirely; with one frame per draw
  this reduces ExSample to stratified random sampling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Tuple

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


#: :func:`group_win_probability` sums the incomplete-gamma series below
#: ``x = a + _SERIES_REACH`` and evaluates the continued fraction above it.
#: The usual switch at ``a + 1`` costs ~24 µs of continued fraction at
#: a = 0.1, x = 2, where the series takes ~4 µs (about 20 terms).
_SERIES_REACH = 30.0
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def group_win_probability(a: float, x: float, members: int) -> float:
    """Chance that the largest of ``members`` i.i.d. Gamma(a, 1) draws exceeds ``x``.

    That is ``1 - P(a, x) ** members``, with ``P`` the regularised lower
    incomplete gamma function, evaluated in plain Python (``math``) so the
    sampler never imports scipy. The series gives ``P`` and the
    continued fraction (modified Lentz) gives ``Q = 1 - P`` directly, each
    where it converges fast, and the power is taken through
    ``expm1``/``log1p`` so a probability near 0 or 1 keeps its absolute
    accuracy (tests hold it within 1e-10 of scipy for up to 5000 members).
    """
    if x <= 0.0:
        return 1.0
    # x^a e^-x / Gamma(a), as a product wherever no factor can overflow:
    # the log form cancels terms of size a log x, and m multiplies that
    # error (6e-11 at a = 20, m = 4775).
    if a < 100.0 and x < 700.0:
        front = x**a * math.exp(-x) / math.gamma(a)
    else:
        front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + _SERIES_REACH:
        # P(a, x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n)).
        term = total = 1.0 / a
        shape = a
        while term > total * _EPS:
            shape += 1.0
            term *= x / shape
            total += term
        lower = total * front
        if lower <= 0.0:
            return 1.0
        return max(0.0, -math.expm1(members * math.log(lower)))
    # Q(a, x) = x^a e^-x / Gamma(a) / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)).
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    delta = i = 0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        fraction *= delta
    upper = min(1.0, fraction * front)
    return -math.expm1(members * math.log1p(-upper))


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
    """The paper's policy: argmax over one Gamma draw per chunk (line 4-6).

    :meth:`choose` draws every chunk. :meth:`choose_grouped` is the same
    choice in distribution when many chunks still hold the prior: it draws
    only the chunks already sampled, and lets the never-sampled ones
    compete as one group. The argmax of m i.i.d. draws is uniform over
    them and independent of their maximum, whose CDF is ``P(a0, b0 t)^m``
    (Gamma(a0, b0) has CDF ``P(a0, b0 t)``). So one uniform decides whether
    the group's maximum beats the drawn chunks' best value T (probability
    ``1 - P(a0, b0 T)^m``), and one integer names the winning member.
    """

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

    def choose_grouped(
        self,
        alphas: np.ndarray,
        betas: np.ndarray,
        group: int,
        prior: Tuple[float, float],
        rng: np.random.Generator,
        batch: int = 1,
    ) -> List[int]:
        """``batch`` Thompson choices over drawn chunks plus one prior group.

        ``alphas``/``betas`` are the beliefs of the k drawn chunks that
        still have frames; ``group`` never-drawn chunks hold the scalar
        ``prior`` ``(alpha0, beta0)``. Each row returns ``i < k`` for drawn
        chunk ``i`` or ``k + j`` for group member ``j``. The stream per
        call: one ``(batch, k)`` block of standard gammas, then per row one
        uniform when both sides compete and one integer when the group wins.
        """
        k = alphas.shape[0]
        if not k:
            return [int(rng.integers(group)) for _ in range(batch)]
        draws = rng.standard_gamma(alphas, size=(batch, k))
        draws /= betas
        best = draws.argmax(axis=1).tolist()
        if not group:
            return best
        alpha0, beta0 = prior
        for row in range(batch):
            top = draws.item(row, best[row])
            if rng.random() < group_win_probability(alpha0, beta0 * top, group):
                best[row] = k + int(rng.integers(group))
        return best


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
