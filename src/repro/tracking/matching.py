"""IoU-based assignment between detection sets (the SORT matching step)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError


def greedy_match(
    iou: np.ndarray, threshold: float = 0.3
) -> List[Tuple[int, int]]:
    """Greedy best-first matching on an IoU matrix.

    Repeatedly picks the highest remaining IoU pair at or above the
    threshold. This is the matching SORT-style trackers use in practice:
    nearly as good as optimal for well-separated objects and much simpler.
    Returns (row, col) index pairs.
    """
    _check(iou, threshold)
    work = iou.copy()
    pairs: List[Tuple[int, int]] = []
    while work.size:
        row, col = divmod(int(work.argmax()), work.shape[1])
        if work[row, col] < threshold:
            break
        pairs.append((row, col))
        work[row, :] = -1.0
        work[:, col] = -1.0
    return pairs


def hungarian_match(
    iou: np.ndarray, threshold: float = 0.3
) -> List[Tuple[int, int]]:
    """Optimal assignment maximising total IoU, filtered by the threshold.

    Uses scipy's Hungarian solver. Sub-threshold entries are zeroed
    *before* solving: otherwise the solver may realise the same total
    through pairs that the threshold then discards (e.g. two 0.25s instead
    of one 0.5), leaving fewer — or worse — matches than greedy. Pairs
    below the threshold are dropped from the returned assignment.
    """
    _check(iou, threshold)
    if iou.size == 0:
        return []
    from scipy.optimize import linear_sum_assignment

    eligible = np.where(iou >= threshold, iou, 0.0)
    rows, cols = linear_sum_assignment(-eligible)
    return [
        (int(r), int(c))
        for r, c in zip(rows, cols, strict=True)
        if iou[r, c] >= threshold
    ]


def _check(iou: np.ndarray, threshold: float) -> None:
    if iou.ndim != 2:
        raise ConfigError("IoU matrix must be 2-D")
    if not 0 < threshold <= 1:
        raise ConfigError("threshold must lie in (0, 1]")
