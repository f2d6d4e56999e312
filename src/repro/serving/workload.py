"""Workload files: replayable multi-tenant query arrival schedules.

A workload is a JSON description of queries with arrival times — the
serving analogue of an experiment config. ``repro serve`` replays one
against a dataset; :func:`replay` does the same inside any event loop.

Format (either a bare list or ``{"queries": [...]}``)::

    {
      "queries": [
        {"object": "person", "limit": 5, "arrival": 0.0, "tenant": "a"},
        {"object": "car", "recall": 0.5, "arrival": 0.25, "tenant": "b",
         "method": "random", "run_seed": 3}
      ]
    }

Per-item keys: ``object`` (required class name); ``limit`` / ``recall`` /
``frame_budget`` / ``cost_budget`` (stopping regime, as in the CLI);
``arrival`` (seconds since replay start, finite and >= 0, default 0);
``method``, ``run_seed``, ``tenant``, ``batch_size``. Every key except
``object`` has a back-compat default, so workload files written before a
field existed keep loading unchanged. Unknown keys are rejected so a typo
cannot silently run a misconfigured workload. Arrival times only pace
submission: a server admits and batches sessions in submission order.

Two keys exist for fleet replay (:mod:`repro.serving.fleet`) and are
ignored by single-server :func:`replay`: ``shard`` pins an item to one
shard index, overriding the placement policy (e.g. to reproduce a
placement-sensitive incident), and ``pause_after`` pauses the session
after that many fulfilled steps — checkpointable where it stands, the
way a migration test stages a session mid-flight.

The ``{"queries": [...]}`` object form also accepts a top-level
``"executor"`` key — a detector executor spec string (``"inline"``,
``"thread"`` or ``"thread:N"``) recorded with the workload so a
replay reproduces the serving mode it was captured under. Read it with
:func:`load_executor`; ``repro serve``/``repro fleet`` use it as the
default when no ``--executor`` flag is given.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import asdict, dataclass
from typing import Awaitable, Callable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.query.query import DistinctObjectQuery

__all__ = [
    "WorkloadItem",
    "item_from_json",
    "load_executor",
    "load_workload",
    "replay",
    "save_workload",
]


@dataclass(frozen=True)
class WorkloadItem:
    """One scheduled query submission."""

    object: str
    arrival: float = 0.0
    limit: Optional[int] = None
    recall: Optional[float] = None
    frame_budget: Optional[int] = None
    cost_budget: Optional[float] = None
    method: str = "exsample"
    run_seed: int = 0
    tenant: str = "default"
    batch_size: Optional[int] = None
    shard: Optional[int] = None
    pause_after: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival < math.inf:
            raise ConfigError(
                f"arrival must be finite and >= 0, got {self.arrival!r}"
            )
        if self.shard is not None and self.shard < 0:
            raise ConfigError("shard must be >= 0")
        if self.pause_after is not None and self.pause_after < 1:
            raise ConfigError("pause_after must be >= 1")

    def query(self) -> DistinctObjectQuery:
        return DistinctObjectQuery(
            self.object,
            limit=self.limit,
            recall_target=self.recall,
            frame_budget=self.frame_budget,
            cost_budget=self.cost_budget,
        )


def item_from_json(raw: object, index: Optional[int] = None) -> WorkloadItem:
    """Validate one JSON query object into a :class:`WorkloadItem`.

    Shared by workload files and the wire protocol's ``submit`` op, so
    both reject the same typos with the same message. ``index`` labels
    errors when parsing a file.
    """
    where = "workload entry" if index is None else f"workload entry {index}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} is not an object")
    valid = set(WorkloadItem.__dataclass_fields__)
    unknown = set(raw) - valid
    if unknown:
        raise ConfigError(
            f"{where} has unknown keys {sorted(unknown)}; "
            f"valid keys: {sorted(valid)}"
        )
    if "object" not in raw:
        raise ConfigError(f"{where} needs an 'object'")
    return WorkloadItem(**raw)


def load_workload(path: str) -> List[WorkloadItem]:
    """Parse a workload file into items (arrival order preserved)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("queries")
    if not isinstance(payload, list):
        raise ConfigError(
            "workload must be a JSON list of queries or an object with a "
            "'queries' list"
        )
    return [item_from_json(raw, index) for index, raw in enumerate(payload)]


def load_executor(path: str) -> Optional[str]:
    """The workload file's top-level ``"executor"`` spec, if any.

    Mirrors :func:`repro.serving.faults.load_faults`: the key rides in
    the ``{"queries": [...]}`` object form and is validated against the
    accepted executor specs here, so a typo fails at load time rather than
    serving the whole workload on the wrong (default) executor.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        return None
    spec = payload.get("executor")
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise ConfigError(
            f"workload 'executor' must be a spec string, got "
            f"{type(spec).__name__}"
        )
    from repro.serving.executors import validate_executor_spec

    validate_executor_spec(spec)
    return spec


def save_workload(path: str, items: Sequence[WorkloadItem]) -> None:
    """Write items back out as a workload file."""
    payload = {
        "queries": [
            {k: v for k, v in asdict(item).items() if v is not None}
            for item in items
        ]
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


async def _submit_paced(
    items: Sequence[WorkloadItem],
    time_scale: float,
    submit: Callable[[WorkloadItem], Awaitable[object]],
) -> list:
    """Await ``submit(item)`` for every item at its scaled arrival time.

    The pacing loop behind :func:`replay` and
    :func:`repro.serving.fleet.replay_fleet`. ``time_scale`` stretches
    the arrival schedule; ``0`` ignores it and submits as fast as
    ``submit`` returns. A non-finite or negative ``time_scale`` raises
    :class:`~repro.errors.ConfigError` before anything is submitted.
    Items go out in arrival order, but the returned handles align with
    ``items`` (``handles[i]`` belongs to ``items[i]``).
    """
    if not 0 <= time_scale < math.inf:
        raise ConfigError(
            f"time_scale must be finite and >= 0, got {time_scale!r}"
        )
    items = list(items)
    loop = asyncio.get_running_loop()
    start = loop.time()
    handles: list = [None] * len(items)
    for index in sorted(range(len(items)), key=lambda i: items[i].arrival):
        if time_scale > 0:
            delay = items[index].arrival * time_scale - (loop.time() - start)
            if delay > 0:
                await asyncio.sleep(delay)
        handles[index] = await submit(items[index])
    return handles


async def replay(server, items: Sequence[WorkloadItem], time_scale: float = 1.0):
    """Submit a workload to ``server`` honouring arrival times.

    Paced by :func:`_submit_paced`: ``time_scale=0`` submits everything as
    fast as admission allows — the right mode for tests and benchmarks.
    The returned handles align with ``items``; callers typically follow
    with ``await server.drain()``.
    """

    async def submit(item: WorkloadItem):
        return await server.submit(
            item.query(),
            method=item.method,
            run_seed=item.run_seed,
            tenant=item.tenant,
            **(
                {"batch_size": item.batch_size}
                if item.batch_size is not None
                else {}
            ),
        )

    return await _submit_paced(items, time_scale, submit)
