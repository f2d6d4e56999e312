"""Figure 5: time-savings ratio ExSample vs random per query (§V-C).

For every dataset × class, both methods run to 90% recall (capped by a
frame budget); the savings ratio at recall r is

    time_random(r) / time_exsample(r)

(neither method has an upfront cost, so time and samples are proportional).
The paper's summary statistics this harness checks: max ≈ 6x, worst ≈ 0.75x,
geometric mean ≈ 1.9x across all bars, 0.9-percentile ≈ 3.7x, 0.1-percentile
≈ 1.2x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.parallel import dataset_engine, parallel_map
from repro.experiments.runner import median_savings, savings_trial
from repro.experiments.table1 import select_classes
from repro.utils.stats import geometric_mean
from repro.utils.tables import ascii_table
from repro.video.datasets import DATASET_BUILDERS


@dataclass(frozen=True)
class Fig5Config:
    datasets: Tuple[str, ...]
    scale: float
    recalls: Tuple[float, ...] = (0.1, 0.5, 0.9)
    trials: int = 2
    seed: int = 0
    max_classes: Optional[int] = 4

    @classmethod
    def quick(cls) -> "Fig5Config":
        return cls(datasets=tuple(DATASET_BUILDERS), scale=0.04, trials=2)

    @classmethod
    def paper(cls) -> "Fig5Config":
        return cls(
            datasets=tuple(DATASET_BUILDERS), scale=1.0, trials=5, max_classes=None
        )


@dataclass
class Fig5Bar:
    dataset: str
    class_name: str
    gt_count: int
    #: median savings ratio per recall level (None = target unreached).
    savings: Dict[float, Optional[float]]


@dataclass
class Fig5Result:
    bars: List[Fig5Bar]
    config: Fig5Config

    def ratios_at(self, recall: float) -> List[float]:
        return [
            bar.savings[recall]
            for bar in self.bars
            if bar.savings.get(recall) is not None
        ]

    def geo_mean_all(self) -> float:
        all_ratios = [
            ratio
            for recall in self.config.recalls
            for ratio in self.ratios_at(recall)
        ]
        return geometric_mean(all_ratios) if all_ratios else float("nan")


def run(config: Fig5Config) -> Fig5Result:
    # Every (dataset, class, trial) unit fans out over workers as one list.
    pairs = select_classes(config)
    tasks = [(ds, cls, trial) for ds, cls in pairs for trial in range(config.trials)]
    results = parallel_map(
        partial(savings_trial, config.scale, config.seed, config.recalls), tasks
    )
    savings = median_savings(tasks, results, config.recalls)
    bars: List[Fig5Bar] = []
    for ds_name, class_name in pairs:
        dataset, _ = dataset_engine(ds_name, config.scale, config.seed)
        bars.append(
            Fig5Bar(
                dataset=ds_name,
                class_name=class_name,
                gt_count=dataset.gt_count(class_name),
                savings=savings[(ds_name, class_name)],
            )
        )
    return Fig5Result(bars=bars, config=config)


def format_result(result: Fig5Result) -> str:
    recalls = result.config.recalls
    rows = []
    sort_recall = 0.5 if 0.5 in recalls else recalls[0]
    ordered = sorted(
        result.bars,
        key=lambda b: -(b.savings.get(sort_recall) or 0.0),
    )
    for bar in ordered:
        cells = [bar.dataset, bar.class_name, bar.gt_count]
        for recall in recalls:
            ratio = bar.savings.get(recall)
            cells.append("-" if ratio is None else f"{ratio:.2f}x")
        rows.append(cells)
    headers = ["dataset", "category", "N"] + [
        f"sav@{r}" for r in recalls
    ]
    table = ascii_table(
        headers, rows, title="Figure 5 — ExSample vs random savings per query"
    )
    lines = [table, ""]
    for recall in recalls:
        ratios = result.ratios_at(recall)
        if not ratios:
            continue
        lines.append(
            f"recall {recall}: geo-mean {geometric_mean(ratios):.2f}x  "
            f"max {max(ratios):.2f}x  min {min(ratios):.2f}x  "
            f"p90 {np.percentile(ratios, 90):.2f}x  "
            f"p10 {np.percentile(ratios, 10):.2f}x"
        )
    lines.append(
        f"overall geo-mean {result.geo_mean_all():.2f}x "
        "(paper: 1.9x geo-mean, max ~6x, min ~0.75x)"
    )
    return "\n".join(lines)
