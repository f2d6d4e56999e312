"""Distinct object queries: what the user asks the system (§II-B).

A distinct object limit query is "find ``limit`` distinct objects of class
``class_name``"; each result must be a *different* physical object as judged
by the discriminator. Recall-target queries ("find 90% of the traffic
lights") are the evaluation's framing of the same thing: the limit is a
fraction of the (approximate) ground-truth instance count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import QueryError


@dataclass(frozen=True)
class DistinctObjectQuery:
    """A distinct-object limit query over a video repository.

    Exactly one of ``limit`` / ``recall_target`` should drive stopping;
    ``frame_budget`` may cap detector invocations and ``cost_budget`` may
    cap seconds of modelled processing time (the paper's cost-to-recall
    regime) in either mode — and either budget may also stand alone for
    budgeted exploration.
    """

    class_name: str
    limit: Optional[int] = None
    recall_target: Optional[float] = None
    frame_budget: Optional[int] = None
    cost_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.class_name:
            raise QueryError("query needs a class name")
        if self.limit is not None and self.limit <= 0:
            raise QueryError("limit must be positive")
        if self.recall_target is not None and not 0 < self.recall_target <= 1:
            raise QueryError("recall_target must lie in (0, 1]")
        if self.limit is not None and self.recall_target is not None:
            raise QueryError("specify limit or recall_target, not both")
        if self.frame_budget is not None and self.frame_budget <= 0:
            raise QueryError("frame_budget must be positive")
        if self.cost_budget is not None and not self.cost_budget > 0:
            raise QueryError("cost_budget must be positive")

    def resolve_limit(self, gt_count: int) -> Optional[int]:
        """Concrete result limit given the ground-truth instance count.

        Uses the same ceiling rule as :func:`repro.query.metrics
        .samples_to_recall`, so a recall-target run stops exactly when the
        measured recall reaches the target.
        """
        if self.limit is not None:
            return self.limit
        if self.recall_target is not None:
            if gt_count <= 0:
                raise QueryError("recall target needs a positive GT count")
            import math

            return max(int(math.ceil(self.recall_target * gt_count - 1e-9)), 1)
        return None
