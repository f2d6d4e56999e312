"""Shared experiment machinery: scales, simulated runs, savings trials.

Every experiment module follows one convention: a frozen ``*Config`` with
``quick()`` and ``paper()`` constructors, a ``run(config) -> *Result``
function, and a ``format_result`` renderer. Benches and the CLI call
``run`` with :func:`default_config`, which selects the paper-scale
configuration when the ``REPRO_FULL=1`` environment variable is set and
the quick configuration otherwise. Scaling down changes absolute counts,
never the comparison structure, so the qualitative shape (who wins,
roughly by how much, where the crossovers sit) is preserved.

The harnesses share their units of work from here: :func:`make_searcher`
builds every simulated run (fig3, fig4, the ablations) from the searcher
registry, and fig5 and fig6 share :func:`savings_trial` and
:func:`median_savings`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.baselines  # noqa: F401  - registers random and randomplus
from repro.core.config import ExSampleConfig
from repro.core.registry import SearcherContext, searcher_spec
from repro.core.sampler import SearchTrace
from repro.experiments.parallel import dataset_engine
from repro.query.metrics import interpolate_curves_on_grid, savings_ratio
from repro.query.query import DistinctObjectQuery
from repro.theory.temporal_sim import TemporalEnvironment
from repro.utils.stats import median_and_band


def is_full_scale() -> bool:
    """True when the user asked for paper-scale runs (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "") == "1"


def default_config(config_cls):
    """Pick quick or paper configuration for an experiment config class."""
    return config_cls.paper() if is_full_scale() else config_cls.quick()


def make_searcher(
    method: str,
    population,
    bounds: np.ndarray,
    rngs,
    key: tuple,
    config_kwargs: dict,
    run_idx: int,
):
    """Run ``run_idx`` of a registered ``method`` over a fresh simulation.

    The method's factory gets a new :class:`TemporalEnvironment`, the stream
    ``rngs.child(*key, run_idx)`` and ``ExSampleConfig(seed=run_idx,
    **config_kwargs)``, which non-ExSample methods ignore. A
    ``functools.partial`` over all but ``run_idx`` is a picklable factory
    for :func:`~repro.experiments.parallel.parallel_traces`.
    """
    ctx = SearcherContext(
        engine=None,
        env=TemporalEnvironment(population, bounds),
        rngs=rngs.child(*key, run_idx),
        run_seed=run_idx,
        config=ExSampleConfig(seed=run_idx, **config_kwargs),
    )
    return searcher_spec(method).factory(ctx)


def sample_grid(max_samples: int, points: int = 60) -> np.ndarray:
    """Geometric grid of sample counts, matching the paper's log x-axes."""
    return np.unique(
        np.geomspace(1, max(max_samples, 2), num=points).astype(np.int64)
    )


def median_discovery(
    traces: Sequence[SearchTrace], grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Median and 25-75 band of discovery curves across runs (Fig 3 style)."""
    stacked = interpolate_curves_on_grid(traces, grid)
    return median_and_band(stacked)


def median_samples_to(
    traces: Sequence[SearchTrace], k: int
) -> float | None:
    """Median samples needed to find ``k`` distinct results across runs.

    Runs that never reach ``k`` are treated as needing more samples than
    any run that did (right-censored); if most runs fail, returns None.
    """
    values = []
    censored = 0
    for trace in traces:
        needed = trace.samples_to_results(k)
        if needed is None:
            censored += 1
        else:
            values.append(needed)
    if len(values) <= censored:
        return None
    values.extend([np.inf] * censored)
    med = float(np.median(values))
    return med if np.isfinite(med) else None


def savings_trial(
    scale: float, seed: int, recalls: Tuple[float, ...], task: Tuple[str, str, int]
) -> Dict[float, Optional[float]]:
    """ExSample vs random time savings per recall for one (dataset, class,
    trial); None where either run missed the recall.

    The engine comes from the process-local :func:`dataset_engine` memo, so
    a trial runs in any worker and depends only on its arguments.
    """
    ds_name, class_name, trial = task
    dataset, engine = dataset_engine(ds_name, scale, seed)
    query = DistinctObjectQuery(
        class_name,
        recall_target=max(recalls),
        frame_budget=dataset.total_frames // 2,
    )
    ex = engine.run(query, method="exsample", run_seed=trial)
    rnd = engine.run(query, method="random", run_seed=trial)
    return {
        recall: savings_ratio(rnd.trace, ex.trace, ex.gt_count, recall, mode="time")
        for recall in recalls
    }


def median_savings(
    tasks: Sequence[Tuple[str, str, int]],
    results: Sequence[Dict[float, Optional[float]]],
    recalls: Tuple[float, ...],
) -> Dict[Tuple[str, str], Dict[float, Optional[float]]]:
    """Median of :func:`savings_trial` results per (dataset, class) and
    recall; None where none of the pair's trials reached the recall."""
    ratios: Dict[Tuple[str, str], Dict[float, List[float]]] = {}
    for (ds_name, class_name, _trial), per_recall in zip(tasks, results, strict=True):
        pair = ratios.setdefault((ds_name, class_name), {r: [] for r in recalls})
        for recall, ratio in per_recall.items():
            if ratio is not None:
                pair[recall].append(ratio)
    return {
        key: {r: (float(np.median(v)) if v else None) for r, v in pair.items()}
        for key, pair in ratios.items()
    }
