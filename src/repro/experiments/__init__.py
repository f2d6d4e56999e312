"""Experiment harnesses regenerating every paper table and figure.

One module per artifact — :mod:`~repro.experiments.fig2` through
:mod:`~repro.experiments.fig6`, :mod:`~repro.experiments.table1` — plus the
ablation suite. Each module exposes ``run(config)`` and ``format_result``;
the config classes have ``quick()`` and ``paper()`` constructors and
:func:`~repro.experiments.runner.default_config` picks between them based on
the ``REPRO_FULL`` environment variable (the CLI's ``--full`` sets it).

Every simulated run is built from the searcher registry by
:func:`~repro.experiments.runner.make_searcher`, and fig5 and fig6 share
one savings trial and its per-(dataset, class) median.

Every harness executes its independent units (runs, trials, cells, rows)
through :mod:`repro.experiments.parallel`: set ``REPRO_JOBS=N`` (or the CLI
``--jobs``) to fan them out over N worker processes with results
element-wise identical to the serial path. Synthetic worlds reach those
workers as their builder recipes, and ``REPRO_CACHE=shared``
(``--shared-cache``) joins every process onto one detection memo; see
:mod:`repro.parallel.shm`.
"""

from repro.experiments import ablations, fig2, fig3, fig4, fig5, fig6, report, table1
from repro.experiments.parallel import (
    clear_dataset_engines,
    dataset_engine,
    parallel_map,
    parallel_sweep_methods,
    parallel_traces,
    resolve_jobs,
)
from repro.experiments.runner import (
    default_config,
    is_full_scale,
    median_discovery,
    median_samples_to,
    sample_grid,
)

__all__ = [
    "ablations",
    "clear_dataset_engines",
    "dataset_engine",
    "default_config",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "is_full_scale",
    "median_discovery",
    "median_samples_to",
    "parallel_map",
    "parallel_sweep_methods",
    "parallel_traces",
    "report",
    "resolve_jobs",
    "sample_grid",
    "table1",
]
