"""Table I: proxy scan time vs ExSample time-to-recall (§V-B).

For every dataset and object class, compare

* the time a proxy-based approach spends *just scoring* the dataset
  (``total_frames / 100 fps`` — before it can return a single result), with
* the time ExSample needs to reach 10% / 50% / 90% of all distinct
  instances (sampling at 20 fps with no upfront cost).

The paper's headline finding: "Across all queries and datasets, it is
cheaper to reach 90% of instances using ExSample sampling than it is to scan
and score frames prior to sampling, and much easier to reach 10% and 50%."
The harness reports each row plus the count of rows violating that relation
(expected: 0, or nearly so at small scales).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import dataset_engine, parallel_map
from repro.query.cost import CostModel
from repro.query.metrics import time_to_recall
from repro.query.query import DistinctObjectQuery
from repro.utils.tables import ascii_table, format_duration
from repro.video.datasets import DATASET_BUILDERS

#: Classes evaluated per dataset in quick mode (representative subset,
#: including every Figure 6 exemplar). Full mode uses all classes.
QUICK_CLASSES: Dict[str, Tuple[str, ...]] = {
    "dashcam": ("bicycle", "traffic light", "person", "bus"),
    "bdd1k": ("motor", "traffic light", "person", "truck"),
    "bdd_mot": ("car", "pedestrian", "bus", "motorcycle"),
    "amsterdam": ("boat", "bicycle", "person", "car"),
    "archie": ("car", "person", "bicycle", "bus"),
    "night_street": ("person", "car", "bus", "truck"),
}


@dataclass(frozen=True)
class Table1Config:
    datasets: Tuple[str, ...]
    scale: float
    recalls: Tuple[float, ...] = (0.1, 0.5, 0.9)
    seed: int = 0
    max_classes: Optional[int] = 4

    @classmethod
    def quick(cls) -> "Table1Config":
        return cls(datasets=tuple(DATASET_BUILDERS), scale=0.04)

    @classmethod
    def paper(cls) -> "Table1Config":
        return cls(datasets=tuple(DATASET_BUILDERS), scale=1.0, max_classes=None)


@dataclass
class Table1Row:
    dataset: str
    class_name: str
    scan_seconds: float
    time_to: Dict[float, Optional[float]]
    gt_count: int

    def beats_scan_at(self, recall: float) -> Optional[bool]:
        t = self.time_to.get(recall)
        if t is None:
            return None
        return t < self.scan_seconds


@dataclass
class Table1Result:
    rows: List[Table1Row]
    config: Table1Config

    def violations(self, recall: float = 0.9) -> int:
        """Rows where ExSample failed to beat the proxy scan at ``recall``."""
        return sum(1 for row in self.rows if row.beats_scan_at(recall) is False)


def _run_row(
    scale: float,
    seed: int,
    recalls: Tuple[float, ...],
    task: Tuple[str, str],
) -> Table1Row:
    """One (dataset, class) table row — a picklable parallel unit."""
    ds_name, class_name = task
    dataset, engine = dataset_engine(ds_name, scale, seed)
    query = DistinctObjectQuery(
        class_name,
        recall_target=max(recalls),
        frame_budget=dataset.total_frames,
    )
    outcome = engine.run(query, method="exsample")
    return Table1Row(
        dataset=ds_name,
        class_name=class_name,
        scan_seconds=CostModel().scan_cost(dataset.total_frames),
        time_to={
            recall: time_to_recall(outcome.trace, outcome.gt_count, recall)
            for recall in recalls
        },
        gt_count=outcome.gt_count,
    )


def run(config: Table1Config) -> Table1Result:
    rows = parallel_map(
        partial(_run_row, config.scale, config.seed, config.recalls),
        select_classes(config),
    )
    return Table1Result(rows=rows, config=config)


def select_classes(config) -> List[Tuple[str, str]]:
    """The (dataset, class) pairs a Table I or Figure 5 sweep evaluates.

    Every class when ``config.max_classes`` is None; otherwise each
    dataset's ``QUICK_CLASSES`` first, then its other classes, cut to
    ``max_classes``. Building the datasets here pre-warms the process-local
    memo that workers resolve engines through.
    """
    pairs: List[Tuple[str, str]] = []
    for ds_name in config.datasets:
        dataset, _ = dataset_engine(ds_name, config.scale, config.seed)
        classes = dataset.classes
        if config.max_classes is not None:
            preferred = [c for c in QUICK_CLASSES.get(ds_name, ()) if c in classes]
            rest = [c for c in classes if c not in preferred]
            classes = (preferred + rest)[: config.max_classes]
        pairs.extend((ds_name, class_name) for class_name in classes)
    return pairs


def format_result(result: Table1Result) -> str:
    recalls = result.config.recalls
    table_rows = []
    for row in result.rows:
        cells = [
            row.dataset,
            format_duration(row.scan_seconds),
            row.class_name,
            row.gt_count,
        ]
        for recall in recalls:
            t = row.time_to.get(recall)
            cells.append("-" if t is None else format_duration(t))
        table_rows.append(cells)
    headers = ["dataset", "proxy scan", "category", "N"] + [
        f"{int(r * 100)}%" for r in recalls
    ]
    table = ascii_table(
        headers,
        table_rows,
        title="Table I — proxy scan time vs ExSample time to recall",
    )
    v = result.violations(max(recalls))
    footer = (
        f"\nrows where ExSample@{int(max(recalls) * 100)}% was *not* cheaper "
        f"than the proxy scan: {v} / {len(result.rows)} (paper: 0)"
    )
    return table + footer
