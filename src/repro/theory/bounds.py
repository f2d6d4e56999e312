"""Numeric verification of the paper's three theorems (§III-A, §III-B).

The estimator module states the bounds; this module *measures* them:

* :func:`bias_margin_report` — Monte-Carlo check of the bias theorem
  (Eq. III.2): measured relative bias vs both stated upper bounds.
* :func:`variance_margin_report` — Monte-Carlo check of the variance bound
  (Eq. III.3).
* :func:`poisson_fit_report` — the sampling-distribution theorem: N1(n) is
  approximately Poisson(λ = Σ π_i(n)) when the p_i are small or n is large.
  Measured as the total-variation distance between the empirical N1
  distribution and the Poisson pmf.
* :func:`dataset_coverage_check` — the paper's §III-D reality check: on the
  BDD MOT dataset (where instances *co-occur* in frames, violating the
  independence assumption), the Eq. III.3 95% confidence bound covered the
  true expected reward "about 80% of the time". We reproduce this by
  sampling frames from a synthetic dataset — whose instances co-occur the
  same way — and measuring the same coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import (
    bias_bound_maxp,
    bias_bound_moments,
    expected_bias,
    expected_n1,
    expected_r,
    pi_seen_at,
)
from repro.errors import DatasetError

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (video -> theory)
    from repro.video.datasets import Dataset


@dataclass(frozen=True)
class MarginReport:
    """A measured quantity against its theoretical bound."""

    measured: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.measured <= self.bound * (1 + 1e-9)

    @property
    def margin(self) -> float:
        """bound / measured (>= 1 when the bound holds with slack)."""
        if self.measured <= 0:
            return float("inf")
        return self.bound / self.measured


def bias_margin_report(p: np.ndarray, n: int) -> dict:
    """Exact relative bias vs the two Eq. III.2 bounds.

    (Uses the closed forms — no Monte Carlo needed: the theorem's quantities
    are all computable for a known population.)
    """
    p = np.asarray(p, dtype=float)
    estimate = expected_n1(p, n) / max(n, 1)
    if estimate <= 0:
        raise DatasetError("population yields a zero estimate at this n")
    relative_bias = expected_bias(p, n) / estimate
    return {
        "relative_bias": relative_bias,
        "maxp_bound": MarginReport(relative_bias, bias_bound_maxp(p)),
        "moments_bound": MarginReport(relative_bias, bias_bound_moments(p)),
    }


def variance_margin_report(
    p: np.ndarray, n: int, runs: int, rng: np.random.Generator
) -> MarginReport:
    """Monte-Carlo Var[N1/n] against the Eq. III.3 bound E[R̂]/n."""
    p = np.asarray(p, dtype=float)
    counts = rng.binomial(n, p[None, :], size=(runs, p.size))
    estimates = np.sum(counts == 1, axis=1) / n
    measured = float(np.var(estimates))
    bound = expected_n1(p, n) / (n * n)
    return MarginReport(measured=measured, bound=bound)


def poisson_fit_report(
    p: np.ndarray, n: int, runs: int, rng: np.random.Generator
) -> dict:
    """Total-variation distance between empirical N1(n) and Poisson(λ).

    λ = n Σ π_i(n-1)·... — concretely E[N1(n)], per the §III-B theorem.
    TV distance below ~0.05 indicates an excellent fit.
    """
    p = np.asarray(p, dtype=float)
    counts = rng.binomial(n, p[None, :], size=(runs, p.size))
    samples = np.sum(counts == 1, axis=1).astype(np.int64)
    lam = expected_n1(p, n)
    hi = int(max(samples.max(), lam * 3) + 2)
    empirical = np.bincount(samples, minlength=hi + 1) / runs
    support = np.arange(hi + 1)
    from scipy import stats

    poisson_pmf = stats.poisson.pmf(support, lam)
    tv_distance = 0.5 * float(np.abs(empirical - poisson_pmf).sum())
    return {
        "lambda": lam,
        "tv_distance": tv_distance,
        "empirical_mean": float(samples.mean()),
        "empirical_var": float(samples.var()),
    }


def dataset_coverage_check(
    dataset: "Dataset",
    checkpoints: np.ndarray,
    runs: int,
    rng: np.random.Generator,
    z: float = 1.96,
) -> float:
    """§III-D on real-shaped data: coverage of the Eq. III.3 bound.

    Samples frames uniformly (with replacement, like the paper's per-frame
    occupancy view) from the dataset's global timeline; instances co-occur
    within frames exactly as the synthetic world lays them out, so the
    independence assumption behind Eq. III.3 is genuinely violated. Returns
    the fraction of (run, checkpoint) pairs whose true expected reward falls
    inside R̂ ± z·sqrt(R̂/n); the paper measured ≈0.8 against a nominal 0.95.
    """
    world = dataset.world
    total = dataset.total_frames
    arrays = world.instance_arrays()
    starts = arrays.global_starts
    ends = starts + arrays.durations
    durations = arrays.durations.astype(float)
    p_global = durations / total
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    inside = 0
    totals = 0
    for _ in range(runs):
        times_seen = np.zeros(world.num_instances, dtype=np.int64)
        cursor = 0
        frames = rng.integers(0, total, size=int(checkpoints.max()))
        for n in checkpoints:
            while cursor < n:
                frame = frames[cursor]
                visible = (starts <= frame) & (frame < ends)
                times_seen[visible] += 1
                cursor += 1
            n1 = int(np.sum(times_seen == 1))
            estimate = n1 / n
            true_r = float(p_global[times_seen == 0].sum())
            half_width = z * np.sqrt(max(estimate, 1e-12) / n)
            inside += int(abs(true_r - estimate) <= half_width)
            totals += 1
    return inside / totals
