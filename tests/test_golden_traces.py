"""Golden trace digests: every random stream pinned across commits.

The identity suites elsewhere compare two paths *within* one version of
the code (served vs solo, restored vs uninterrupted, lazy vs eager). A
change that moves every path's random stream together passes all of
them. This module pins sha256 digests of whole traces — chunks, frames,
d0s, d1s, costs and results — for a few fixed runs, so such a change
fails here.

Regenerate the digests only for a deliberate stream change, and record
that change in CHANGES.md. To print the current digests::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

#: ``(method, batch_size)`` runs of one bdd1k query at scale 1.0, the
#: 1000-chunk repository of the solo benchmark.
BDD1K_RUNS = {
    "exsample-b1": ("exsample", 1),
    "exsample-b4": ("exsample", 4),
    "random": ("random", 1),
    "randomplus": ("randomplus", 1),
    "oracle": ("oracle", 1),
}
BDD1K_CLASS = "bus"
BDD1K_SEED = 7
#: One archie ``run_many`` call mixing exsample and random over two
#: classes, fused by the in-process server at batch size 4. Its 60
#: chunks each see up to a few dozen draws, so later random+ levels and
#: the uniform order's tail run too.
ARCHIE_QUERIES = (
    ("bicycle", "exsample"),
    ("bicycle", "random"),
    ("bus", "exsample"),
    ("bus", "random"),
)
ARCHIE_LIMIT = 30
ARCHIE_SEED = 11

#: Computed before the lazy frame orders went in; they must not move.
GOLDEN = {
    "bdd1k/exsample-b1": "cf109a1e0c64db2659bcd940a0ebc64b351cd1806452b20748eb6f7be8cb5e5f",
    "bdd1k/exsample-b4": "496ab34b31aa9783b6c7b3ca0eb219194cc6f30dd8b02678fa5c17c865175c66",
    "bdd1k/random": "e5f6aad1c1d2737f65ee1938855ccc5dc92a31949fcf7d4f22057222176ef279",
    "bdd1k/randomplus": "15f0ab5c661388a5f8c0f028c35f107c4a3e60d357c1a40d627120adfb837d10",
    "bdd1k/oracle": "eff713b288051dbc096598a35991a568224791bf211af473b06395e825d18f87",
    "archie/run_many/0": "9ac52f1862f17c3d189c87ab63b49cc1e77086e6d727bce5ed6a489df4bc87c4",
    "archie/run_many/1": "230d9096943ca20ae8b5cb80b1df1fa12d24a04cca65a3d44a198e16cd7d8ac8",
    "archie/run_many/2": "309e845f4294399b220133a26ec2c37dc9d0244f35acf9612623c323ce42f45d",
    "archie/run_many/3": "a93f3fdb82353a63984bfe7a792897cbd394762623c069428a66d93a1c01f864",
}


def _result_key(result) -> tuple:
    """A canonical tuple for one ``FoundObject``, free of numpy reprs."""
    return (
        int(result.video),
        int(result.frame),
        result.class_name,
        float(result.score).hex(),
        tuple(float(v).hex() for v in result.box_xyxy),
        None if result.instance_uid is None else int(result.instance_uid),
        int(result.track_id),
    )


def trace_digest(trace) -> str:
    """sha256 over a trace's per-frame arrays and its results."""
    hasher = hashlib.sha256()
    for values, dtype in (
        (trace.chunks, "<i8"),
        (trace.frames, "<i8"),
        (trace.d0s, "<i8"),
        (trace.d1s, "<i8"),
        (trace.costs, "<f8"),
    ):
        hasher.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
        hasher.update(b"\x1e")
    hasher.update(
        repr(tuple(_result_key(r) for r in trace.results)).encode()
    )
    return hasher.hexdigest()


def compute_digests() -> dict:
    """Run every pinned query and digest its trace."""
    from repro.query import DistinctObjectQuery, QueryEngine
    from repro.video import make_dataset

    digests = {}
    engine = QueryEngine(make_dataset("bdd1k", scale=1.0, seed=0), seed=0)
    for name, (method, batch_size) in BDD1K_RUNS.items():
        outcome = engine.run(
            DistinctObjectQuery(BDD1K_CLASS, limit=10),
            method=method,
            run_seed=BDD1K_SEED,
            batch_size=batch_size,
        )
        digests[f"bdd1k/{name}"] = trace_digest(outcome.trace)
    engine = QueryEngine(make_dataset("archie", scale=0.05, seed=0), seed=0)
    outcomes = engine.run_many(
        [DistinctObjectQuery(c, limit=ARCHIE_LIMIT) for c, _ in ARCHIE_QUERIES],
        method=[m for _, m in ARCHIE_QUERIES],
        run_seeds=[ARCHIE_SEED + k for k in range(len(ARCHIE_QUERIES))],
        batch_size=4,
    )
    for k, outcome in enumerate(outcomes):
        digests[f"archie/run_many/{k}"] = trace_digest(outcome.trace)
    return digests


@pytest.fixture(scope="module")
def digests() -> dict:
    return compute_digests()


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_trace_digest_is_pinned(digests, run):
    assert digests[run] == GOLDEN[run], (
        f"{run}: the trace changed. If the random stream changed on "
        "purpose, regenerate GOLDEN and record why in CHANGES.md."
    )


if __name__ == "__main__":
    for key, value in compute_digests().items():
        print(f'    "{key}": "{value}",')
