"""Golden trace digests: every random stream pinned across commits.

The identity suites elsewhere compare two paths *within* one version of
the code (served vs solo, restored vs uninterrupted, lazy vs eager). A
change that moves every path's random stream together passes all of
them. This module pins sha256 digests of whole traces — chunks, frames,
d0s, d1s, costs and results — for a few fixed runs, so such a change
fails here. It also pins digests of the simulated detector's own output
over fixed, seeded ``detect_batch`` calls, so a change to the detector
kernel that moves any detection, or turns one of its fields into a numpy
scalar, fails here even when no pinned trace happens to see it. And it
pins digests of the synthesised worlds the end-to-end benchmark runs on,
so a change to dataset synthesis that moves any instance, or the order
in which visibility reports instances, fails here too.

Regenerate the digests only for a deliberate stream change. Record that
change in CHANGES.md, and bump ``STREAM_VERSION`` in
:mod:`repro.core.sampler`: the repository index keys recorded outcomes on
it, so an index written under the old streams must stop replaying them.
To print the current digests::

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

#: Computed when each run took one order generator and each discriminator
#: one track-extension generator (``STREAM_VERSION`` 2); only a
#: deliberate stream change moves them. ``bdd1k/randomplus`` kept its
#: digest: its single global order stream is unchanged, and the new
#: track extents change none of its matches. The two bdd1k exsample
#: digests were recomputed when Thompson runs over more than 256 chunks
#: began drawing their never-drawn chunks as one group (``STREAM_VERSION``
#: 3); archie's 60 chunks keep the per-chunk draw and their digests.
GOLDEN = {
    "bdd1k/exsample-b1": "e78c59e726e0a36499259597ac471fb7834cacf0795bebeb638f668992c794a0",
    "bdd1k/exsample-b4": "e3c8a6e1b2e39f295a171033882bcd81d7fbbda1bea3e06509919f7937e7020a",
    "bdd1k/random": "c116ab44186b234143b4752b12422abf0e98f7a60467e63b742b0797b70cd9bf",
    "bdd1k/randomplus": "15f0ab5c661388a5f8c0f028c35f107c4a3e60d357c1a40d627120adfb837d10",
    "bdd1k/oracle": "71cb4bc0234a705b139c4e79b9f9f66e4cd679433b0f580ef681519dba2d082f",
    "archie/run_many/0": "440d36ef3e856d93cfbf7a54fda76eabb3b3a1d2699bb29d3b033fafeacf0628",
    "archie/run_many/1": "b75488859fbb8e9aee66c6e1b25b9633261c8ff6e52f5933f2d44e77a8b877ef",
    "archie/run_many/2": "a9d990be428ee3dae31fb5eb39069211868cb00c3174e1026ba425e3375988f6",
    "archie/run_many/3": "200bbb923a0cf763ab758b298a73ad135a6afffd648960ec2fdc42424cdeaddc",
}


#: Seeded ``detect_batch`` call sets, each run on a detector with no
#: cache under every class, ``None`` and :data:`UNKNOWN_CLASS`:
#: ``(dataset, scale, calls, max frames per call, frame margin)``.
#: Fused calls span the 4 videos of archie at 0.2 (the ``batch``
#: workload's repository; archie at 0.05 has one video) and repeat a
#: pair now and then. ``*-single`` calls are single frames, as in
#: ``solo`` and nearly every ``fleet`` shard call: bdd1k sees about one
#: instance per frame, archie several, so there rows share a frame's
#: draws. dashcam frames reach ``margin`` frames before a video's start
#: and past its end.
DETECT_CALLS = {
    "archie-fused": ("archie", 0.2, 40, 24, 0),
    "archie-single": ("archie", 0.2, 150, 1, 0),
    "bdd1k-single": ("bdd1k", 1.0, 150, 1, 0),
    "dashcam": ("dashcam", 0.02, 30, 12, 3),
    "dashcam-single": ("dashcam", 0.02, 150, 1, 3),
}
DETECT_SEED = 5
UNKNOWN_CLASS = "zebra"

#: Computed before the detector kernel was rewritten around the
#: segment-table visibility index; they must not move. The two
#: ``*-single`` digests were added later, computed with the fused pass
#: alone, before one-frame calls got their own scalar kernel.
GOLDEN_DETECT = {
    "detect/archie-fused": "415b350b75909edb6f74701c19d51953dc9f254214df6a57634ff4bb58ff27b8",
    "detect/archie-single": "df636dfaba1c57a6226a4dd76cb971f6028108f30e875f910511d64f944f995a",
    "detect/bdd1k-single": "7e15c7f9f785a4649deb5ecad8732cb38d63a0cc6c9a04ad43620bd345c58290",
    "detect/dashcam": "5c53d1976677ffcdfccb77daa7e25c7120371d197236c79884d4b43d95214ac1",
    "detect/dashcam-single": "702d4bb9463a732cdaadb73d00d2283626e50f83573a7a9ff4bb3a66143e8b25",
}


#: The e2ebench workloads' worlds: ``(dataset, scale)``, built at seed 0.
WORLDS = {
    "world/bdd1k-1.0": ("bdd1k", 1.0),
    "world/archie-0.2": ("archie", 0.2),
    "world/dashcam-0.02": ("dashcam", 0.02),
}

#: Computed with the per-instance builder, before synthesis drew each
#: class's instances as arrays; they must not move.
GOLDEN_WORLD = {
    "world/bdd1k-1.0": "47af1ebeda321a3179deb005ceb968e63885f7cd4c5c83786782062a91256913",
    "world/archie-0.2": "02c304a36f92f3dab8cd9abc5ac225029303c9236e70e4ba448ee4b894ce3369",
    "world/dashcam-0.02": "751c10b84220d4147a94d1a26d0d33d945bea65356308309c8be8d5d30a201bf",
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


def _field_key(value) -> tuple:
    """Type name and value; floats by ``float.hex()``, so no repr rounds."""
    return (
        type(value).__name__,
        value.hex() if isinstance(value, float) else value,
    )


def detections_digest(hasher, detections) -> None:
    """Feed one frame's detections, every field with its type, to ``hasher``."""
    for d in detections:
        box = d.box
        fields = (
            d.video, d.frame, box.x1, box.y1, box.x2, box.y2,
            d.class_name, d.score, d.instance_uid,
        )
        hasher.update(
            repr((type(box).__name__,) + tuple(map(_field_key, fields))).encode()
        )
    hasher.update(b"\x1e")


def _detect_call_pairs(dataset, calls, max_frames, margin, rng):
    """Seeded ``(videos, frames)`` call shapes over ``dataset``."""
    lengths = [v.num_frames for v in dataset.repository.videos]
    out = []
    for _ in range(calls):
        size = int(rng.integers(1, max_frames + 1))
        videos = [int(v) for v in rng.integers(0, len(lengths), size=size)]
        frames = [
            int(rng.integers(-margin, lengths[v] + margin)) for v in videos
        ]
        if size > 2 and rng.random() < 0.5:
            videos.append(videos[0])
            frames.append(frames[0])
        out.append((videos, frames))
    return out


def compute_detect_digests() -> dict:
    """Digest every pinned ``detect_batch`` call set, per class filter."""
    from repro.detection.simulated import SimulatedDetector
    from repro.video import make_dataset

    digests = {}
    for name, (dataset_name, scale, calls, max_frames, margin) in DETECT_CALLS.items():
        dataset = make_dataset(dataset_name, scale=scale, seed=0)
        detector = SimulatedDetector(dataset.world, seed=DETECT_SEED)
        pairs = _detect_call_pairs(
            dataset, calls, max_frames, margin, np.random.default_rng(DETECT_SEED)
        )
        hasher = hashlib.sha256()
        for class_filter in dataset.world.class_names() + [None, UNKNOWN_CLASS]:
            hasher.update(repr(class_filter).encode())
            for videos, frames in pairs:
                for detections in detector.detect_batch(videos, frames, class_filter):
                    detections_digest(hasher, detections)
                hasher.update(b"\x1d")
        digests[f"detect/{name}"] = hasher.hexdigest()
    return digests


def world_digest(world) -> str:
    """sha256 over ``content_digest()`` and the uids in video order."""
    hasher = hashlib.sha256(world.content_digest())
    order = world.instance_arrays().video_order
    hasher.update(np.ascontiguousarray(order, dtype="<i8").tobytes())
    return hasher.hexdigest()


def compute_world_digests() -> dict:
    """Synthesise every pinned world and digest it."""
    from repro.video import make_dataset

    return {
        key: world_digest(make_dataset(name, scale=scale, seed=0).world)
        for key, (name, scale) in WORLDS.items()
    }


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


@pytest.fixture(scope="module")
def detect_digests() -> dict:
    return compute_detect_digests()


@pytest.mark.parametrize("calls", sorted(GOLDEN_DETECT))
def test_detector_digest_is_pinned(detect_digests, calls):
    assert detect_digests[calls] == GOLDEN_DETECT[calls], (
        f"{calls}: the detector's output changed. If it changed on "
        "purpose, regenerate GOLDEN_DETECT and record why in CHANGES.md."
    )


@pytest.fixture(scope="module")
def world_digests() -> dict:
    return compute_world_digests()


@pytest.mark.parametrize("world", sorted(GOLDEN_WORLD))
def test_world_digest_is_pinned(world_digests, world):
    assert world_digests[world] == GOLDEN_WORLD[world], (
        f"{world}: the synthesised world changed. If it changed on "
        "purpose, regenerate GOLDEN_WORLD and record why in CHANGES.md."
    )


if __name__ == "__main__":
    for compute in (compute_digests, compute_detect_digests, compute_world_digests):
        for key, value in compute().items():
            print(f'    "{key}": "{value}",')
