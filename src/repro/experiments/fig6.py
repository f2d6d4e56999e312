"""Figure 6: chunk-level skew histograms for representative queries (§V-C).

Five queries spanning the observed savings spectrum, with their per-chunk
instance histograms, the minimal half-covering chunk set, the skew metric S,
and the measured savings at recall 0.5. The paper's exemplars:

=====================  ======  =====  ========
query                  N       S      savings
=====================  ======  =====  ========
dashcam / bicycle        249     14     7x
bdd1k / motor            509     19     2x
night-street / person   2078    4.5     3x
archie / car           33546    1.1     1x
amsterdam / boat         588    1.6    0.9x
=====================  ======  =====  ========

The reproduction checks the *relationship*: savings grow with S, except
when the chunk count is so large (bdd1k: 1000 chunks) that surveying eats
the advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from repro.experiments.parallel import dataset_engine, parallel_map
from repro.experiments.runner import median_savings, savings_trial
from repro.theory.skew import SkewSummary
from repro.utils.tables import ascii_table

#: The paper's five representative queries with their published N and S.
PAPER_EXEMPLARS: Tuple[Tuple[str, str, int, float], ...] = (
    ("dashcam", "bicycle", 249, 14.0),
    ("bdd1k", "motor", 509, 19.0),
    ("night_street", "person", 2078, 4.5),
    ("archie", "car", 33546, 1.1),
    ("amsterdam", "boat", 588, 1.6),
)


@dataclass(frozen=True)
class Fig6Config:
    scale: float
    trials: int = 2
    recall: float = 0.5
    seed: int = 0

    @classmethod
    def quick(cls) -> "Fig6Config":
        return cls(scale=0.05)

    @classmethod
    def paper(cls) -> "Fig6Config":
        return cls(scale=1.0, trials=5)


@dataclass
class Fig6Panel:
    dataset: str
    class_name: str
    summary: SkewSummary
    savings: Optional[float]
    paper_n: int
    paper_s: float


@dataclass
class Fig6Result:
    panels: List[Fig6Panel]
    config: Fig6Config


def run(config: Fig6Config) -> Fig6Result:
    tasks = [
        (ds_name, class_name, trial)
        for ds_name, class_name, _, _ in PAPER_EXEMPLARS
        for trial in range(config.trials)
    ]
    # Pre-warm the dataset/engine memo (shared with forked workers).
    for ds_name, _, _, _ in PAPER_EXEMPLARS:
        dataset_engine(ds_name, config.scale, config.seed)
    recalls = (config.recall,)
    results = parallel_map(
        partial(savings_trial, config.scale, config.seed, recalls), tasks
    )
    savings = median_savings(tasks, results, recalls)
    panels: List[Fig6Panel] = []
    for ds_name, class_name, paper_n, paper_s in PAPER_EXEMPLARS:
        dataset, _ = dataset_engine(ds_name, config.scale, config.seed)
        summary = SkewSummary.from_counts(dataset.skew_counts(class_name))
        panels.append(
            Fig6Panel(
                dataset=ds_name,
                class_name=class_name,
                summary=summary,
                savings=savings.get((ds_name, class_name), {}).get(config.recall),
                paper_n=paper_n,
                paper_s=paper_s,
            )
        )
    return Fig6Result(panels=panels, config=config)


def format_result(result: Fig6Result) -> str:
    blocks = []
    rows = []
    for panel in result.panels:
        label = f"{panel.dataset}/{panel.class_name}"
        blocks.append(f"{label}\n{panel.summary.bar_chart()}")
        rows.append(
            (
                label,
                panel.summary.total_instances,
                f"{panel.summary.skew:.2g}",
                f"{panel.paper_s:.2g}",
                "-" if panel.savings is None else f"{panel.savings:.2g}x",
            )
        )
    table = ascii_table(
        ["query", "N (ours)", "S (ours)", "S (paper)", "savings@0.5"],
        rows,
        title="Figure 6 — skew and savings for representative queries",
    )
    return "\n\n".join(["\n\n".join(blocks), table])
