"""The §VII fusion extension: proxy scores without a full upfront scan.

Plain ExSample never looks at a proxy; BlazeIt scores every frame before
returning anything. The fusion searcher sits in between: ExSample chooses
chunks, and a chunk is only scored — paying that chunk's scan cost — after
Thompson sampling has returned to it enough times and it has yielded an
object.
Whether the trade wins depends on how expensive the detector is relative to
the scan; this example sweeps that ratio and prints the crossover.

Run:  python examples/fusion_search.py
"""

from repro import CostModel, DistinctObjectQuery, QueryEngine, make_dataset
from repro.query import time_to_recall
from repro.utils.tables import ascii_table, format_duration


def main() -> None:
    dataset = make_dataset("dashcam", scale=0.05, seed=0)
    class_name = "bicycle"  # rare and clustered: ExSample's favourite prey
    query = DistinctObjectQuery(
        class_name, recall_target=0.9, frame_budget=dataset.total_frames
    )
    print(
        f"query: 90% of the {dataset.gt_count(class_name)} distinct "
        f"{class_name}s in {dataset.total_frames} frames\n"
    )

    rows = []
    for detector_fps in (20.0, 5.0, 2.0):
        engine = QueryEngine(
            dataset, cost_model=CostModel(detector_fps=detector_fps), seed=0
        )
        row = [f"{detector_fps:g} fps"]
        for method in ("exsample", "exsample_fusion", "proxy"):
            outcome = engine.run(query, method=method)
            seconds = time_to_recall(outcome.trace, outcome.gt_count, 0.9)
            row.append(
                "-"
                if seconds is None
                else f"{format_duration(seconds)} ({outcome.trace.num_samples}f)"
            )
        rows.append(row)
    print(
        ascii_table(
            ["detector", "exsample", "exsample_fusion", "proxy (full scan)"],
            rows,
            title="time to 90% recall (and detector frames used)",
        )
    )
    print(
        "\nAt the paper's 20 fps detector, plain ExSample wins — scans are "
        "too dear.\nAs the detector gets heavier, fusion's smaller frame "
        "count takes over, while\nthe full-scan proxy stays hostage to its "
        "upfront cost. This is the §VII\ntrade-off, made concrete."
    )


if __name__ == "__main__":
    main()
