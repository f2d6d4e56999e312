"""Figure 3: the skew × duration simulation grid (§IV-B).

2000 instances are placed on a timeline with four levels of placement skew
(none, and 95% of instances within the central 1/4, 1/32, 1/256 of frames)
and four mean durations (14, 100, 700, 4900 frames). For each of the 16
cells, ExSample (128 chunks) and random sampling run repeatedly; the paper
reports the median discovery trajectories, 25-75 bands, the savings in
samples needed to reach 10/100/1000 results, and the expected trajectory of
the optimal static allocation (Eq. IV.1).

Expected shape (paper Figure 3): savings grow with skew (left to right) and
with duration (top to bottom) — from ~1x with no skew to tens of times at
skew 1/256 — and ExSample never does significantly worse than random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.parallel import parallel_map, parallel_traces
from repro.experiments.runner import make_searcher, median_samples_to
from repro.theory.instances import InstancePopulation, even_chunk_bounds
from repro.theory.optimal_weights import expected_found
from repro.utils.rng import RngFactory
from repro.utils.stats import geometric_mean
from repro.utils.tables import ascii_table


@dataclass(frozen=True)
class Fig3Config:
    num_instances: int
    total_frames: int
    num_chunks: int
    runs: int
    frame_budget: int
    skews: Tuple[Optional[float], ...] = (None, 1 / 4, 1 / 32, 1 / 256)
    durations: Tuple[int, ...] = (14, 100, 700, 4900)
    targets: Tuple[int, ...] = (10, 100, 1000)
    seed: int = 0

    @classmethod
    def quick(cls) -> "Fig3Config":
        return cls(
            num_instances=2000,
            total_frames=2_000_000,
            num_chunks=128,
            runs=3,
            frame_budget=4000,
        )

    @classmethod
    def paper(cls) -> "Fig3Config":
        return cls(
            num_instances=2000,
            total_frames=16_000_000,
            num_chunks=128,
            runs=21,
            frame_budget=10_000,
        )


@dataclass
class Fig3Cell:
    skew: Optional[float]
    duration: int
    #: median samples to reach each target, per method.
    samples_to: Dict[str, Dict[int, Optional[float]]]
    #: savings ratio random/exsample per target (None when unreachable).
    savings: Dict[int, Optional[float]]
    #: expected instances found by the optimal allocation at frame_budget.
    optimal_found: float
    median_found: Dict[str, float]


@dataclass
class Fig3Result:
    cells: List[Fig3Cell]
    config: Fig3Config

    def savings_summary(self) -> Dict[int, List[float]]:
        out: Dict[int, List[float]] = {}
        for cell in self.cells:
            for target, ratio in cell.savings.items():
                if ratio is not None:
                    out.setdefault(target, []).append(ratio)
        return out


def run_cell(
    config: Fig3Config, skew: Optional[float], duration: int
) -> Fig3Cell:
    rngs = RngFactory(config.seed).child("fig3", str(skew), duration)
    population = InstancePopulation.place(
        config.num_instances,
        config.total_frames,
        duration,
        rngs.stream("pop"),
        skew_fraction=skew,
    )
    bounds = even_chunk_bounds(config.total_frames, config.num_chunks)

    ex_traces = parallel_traces(
        partial(make_searcher, "exsample", population, bounds, rngs, ("ex",), {}),
        config.runs,
        frame_budget=config.frame_budget,
    )
    rnd_traces = parallel_traces(
        partial(make_searcher, "random", population, bounds, rngs, ("rnd",), {}),
        config.runs,
        frame_budget=config.frame_budget,
    )

    samples_to: Dict[str, Dict[int, Optional[float]]] = {"exsample": {}, "random": {}}
    savings: Dict[int, Optional[float]] = {}
    for target in config.targets:
        ex_med = median_samples_to(ex_traces, target)
        rnd_med = median_samples_to(rnd_traces, target)
        samples_to["exsample"][target] = ex_med
        samples_to["random"][target] = rnd_med
        if ex_med is not None and rnd_med is not None and ex_med > 0:
            savings[target] = rnd_med / ex_med
        else:
            savings[target] = None

    p_matrix = population.chunk_probabilities(bounds)
    from repro.theory.optimal_weights import optimal_weights

    weights = optimal_weights(p_matrix, float(config.frame_budget))
    optimal_found = expected_found(p_matrix, weights, float(config.frame_budget))
    median_found = {
        "exsample": float(np.median([t.num_results for t in ex_traces])),
        "random": float(np.median([t.num_results for t in rnd_traces])),
    }
    return Fig3Cell(
        skew=skew,
        duration=duration,
        samples_to=samples_to,
        savings=savings,
        optimal_found=optimal_found,
        median_found=median_found,
    )


def _run_cell_task(config: Fig3Config, cell: Tuple[Optional[float], int]) -> Fig3Cell:
    return run_cell(config, cell[0], cell[1])


def run(config: Fig3Config) -> Fig3Result:
    """Run the 16-cell grid; cells fan out over ``REPRO_JOBS`` workers.

    Each cell is self-seeded from ``(config.seed, skew, duration)``, so the
    parallel grid is element-wise identical to the serial one. Inside a
    worker the per-cell ``parallel_traces`` stays serial (no nested pools).
    """
    grid = [
        (skew, duration)
        for duration in config.durations
        for skew in config.skews
    ]
    cells = parallel_map(partial(_run_cell_task, config), grid)
    return Fig3Result(cells=cells, config=config)


def format_result(result: Fig3Result) -> str:
    def skew_label(s: Optional[float]) -> str:
        return "none" if s is None else f"1/{int(round(1 / s))}"

    rows = []
    for cell in result.cells:
        row = [skew_label(cell.skew), cell.duration]
        for target in result.config.targets:
            ratio = cell.savings.get(target)
            row.append("-" if ratio is None else f"{ratio:.2g}x")
        row.append(f"{cell.median_found['exsample']:.0f}")
        row.append(f"{cell.median_found['random']:.0f}")
        row.append(f"{cell.optimal_found:.0f}")
        rows.append(row)
    headers = (
        ["skew", "dur"]
        + [f"sav@{t}" for t in result.config.targets]
        + ["ex found", "rnd found", "opt found"]
    )
    table = ascii_table(
        headers, rows, title="Figure 3 — savings grid (skew x duration)"
    )
    all_ratios = [
        ratio
        for ratios in result.savings_summary().values()
        for ratio in ratios
    ]
    footer = ""
    if all_ratios:
        footer = (
            f"\nsavings across reachable cells: geo-mean "
            f"{geometric_mean(all_ratios):.2f}x, "
            f"max {max(all_ratios):.2g}x, min {min(all_ratios):.2g}x "
            f"(paper: 1x to 84x, never significantly below 1x)"
        )
    return table + footer
