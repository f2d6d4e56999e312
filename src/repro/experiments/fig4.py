"""Figure 4: varying the number of chunks for a fixed workload (§IV-C).

Fixed population (skew 1/32, mean duration 700 frames — the third row/third
column of Figure 3) while the chunk count M sweeps 1 → 1024. The paper's
findings this harness reproduces:

* more chunks steepen the *optimal-allocation* curve (finer-grained skew);
* ExSample's realised curve tracks the optimum closely for small/medium M
  but falls behind at M=1024 (it must spend ~M samples just surveying);
* every chunked configuration beats random, but benefits are non-monotonic
  in M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

import numpy as np

from repro.experiments.parallel import parallel_traces
from repro.experiments.runner import make_searcher, median_discovery, sample_grid
from repro.theory.instances import InstancePopulation, even_chunk_bounds
from repro.theory.optimal_weights import optimal_curve
from repro.utils.rng import RngFactory
from repro.utils.tables import ascii_table, sparkline


@dataclass(frozen=True)
class Fig4Config:
    num_instances: int
    total_frames: int
    mean_duration: int
    skew: float
    chunk_counts: Tuple[int, ...]
    runs: int
    frame_budget: int
    seed: int = 0

    @classmethod
    def quick(cls) -> "Fig4Config":
        return cls(
            num_instances=2000,
            total_frames=2_000_000,
            mean_duration=700,
            skew=1 / 32,
            chunk_counts=(1, 2, 16, 128, 1024),
            runs=3,
            frame_budget=8000,
        )

    @classmethod
    def paper(cls) -> "Fig4Config":
        return cls(
            num_instances=2000,
            total_frames=16_000_000,
            mean_duration=700,
            skew=1 / 32,
            chunk_counts=(1, 2, 16, 128, 1024),
            runs=21,
            frame_budget=30_000,
        )


@dataclass
class Fig4Curve:
    num_chunks: int
    grid: np.ndarray
    exsample_median: np.ndarray
    exsample_low: np.ndarray
    exsample_high: np.ndarray
    optimal_expected: np.ndarray

    def final_found(self) -> float:
        return float(self.exsample_median[-1])

    def optimal_final(self) -> float:
        return float(self.optimal_expected[-1])


@dataclass
class Fig4Result:
    curves: List[Fig4Curve]
    random_median: np.ndarray
    grid: np.ndarray
    config: Fig4Config


def run(config: Fig4Config) -> Fig4Result:
    rngs = RngFactory(config.seed).child("fig4")
    population = InstancePopulation.place(
        config.num_instances,
        config.total_frames,
        config.mean_duration,
        rngs.stream("pop"),
        skew_fraction=config.skew,
    )
    grid = sample_grid(config.frame_budget, points=24)
    curves: List[Fig4Curve] = []
    for num_chunks in config.chunk_counts:
        bounds = even_chunk_bounds(config.total_frames, num_chunks)
        make = partial(
            make_searcher, "exsample", population, bounds, rngs, ("ex", num_chunks), {}
        )
        traces = parallel_traces(make, config.runs, frame_budget=config.frame_budget)
        median, low, high = median_discovery(traces, grid)
        p_matrix = population.chunk_probabilities(bounds)
        # Coarse optimal curve: solving per grid point is the dominant cost,
        # so evaluate on a thinned grid and interpolate.
        thin = grid[:: max(len(grid) // 8, 1)]
        optimal_thin = optimal_curve(p_matrix, thin.astype(float))
        optimal = np.interp(grid, thin, optimal_thin)
        curves.append(
            Fig4Curve(
                num_chunks=num_chunks,
                grid=grid,
                exsample_median=median,
                exsample_low=low,
                exsample_high=high,
                optimal_expected=optimal,
            )
        )

    # Random sampling ignores chunk boundaries: one chunk spans the timeline.
    one_chunk = even_chunk_bounds(config.total_frames, 1)
    random_traces = parallel_traces(
        partial(make_searcher, "random", population, one_chunk, rngs, ("rnd",), {}),
        config.runs,
        frame_budget=config.frame_budget,
    )
    random_median, _, _ = median_discovery(random_traces, grid)
    return Fig4Result(
        curves=curves, random_median=random_median, grid=grid, config=config
    )


def format_result(result: Fig4Result) -> str:
    rows = []
    for curve in result.curves:
        rows.append(
            (
                curve.num_chunks,
                f"{curve.final_found():.0f}",
                f"{curve.optimal_final():.0f}",
                sparkline(curve.exsample_median, width=30),
            )
        )
    rows.append(
        (
            "random",
            f"{result.random_median[-1]:.0f}",
            "-",
            sparkline(result.random_median, width=30),
        )
    )
    table = ascii_table(
        ["chunks", "found (median)", "optimal E[found]", "trajectory"],
        rows,
        title=(
            f"Figure 4 — chunk-count sweep "
            f"(budget {result.config.frame_budget} samples)"
        ),
    )
    return table
