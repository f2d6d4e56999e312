"""The six evaluation datasets, synthesised to the paper's shape (§V-A).

Real videos are unavailable offline, so each dataset is regenerated as a
synthetic world whose *structure* matches the paper's description:

=============  =====  ======  ==========================  =================
dataset        hours  camera  chunking                    notes
=============  =====  ======  ==========================  =================
dashcam        10     moving  20-minute chunks            several drives
bdd1k          ~11    moving  1 chunk per clip (1000)     <1 minute clips
bdd_mot        ~3     moving  1 chunk per clip (1600)     200-frame clips
amsterdam      20     static  20-minute chunks (60)       urban canal cam
archie         20     static  20-minute chunks (60)       urban street cam
night_street   20     static  20-minute chunks (60)       town square cam
=============  =====  ======  ==========================  =================

Class lists follow Table I. Instance counts, durations and skew levels are
calibrated to the paper's qualitative descriptions and the five quantified
examples of Figure 6 (e.g. dashcam/bicycle: N=249, S≈14; archie/car:
N=33546, S≈1.1; amsterdam/boat: N=588, S≈1.6; night-street/person: N=2078,
S≈4.5; bdd1k/motor: N=509, S≈19). Everything scales with the ``scale``
parameter: frame counts and instance counts shrink together, preserving
instance density and therefore the savings-ratio shape, so benches can run
at ``scale=0.05`` while `REPRO_FULL=1` runs paper-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.utils.rng import RngFactory
from repro.video.chunks import ChunkMap, FixedDurationChunker, PerClipChunker
from repro.video.synthetic import ClassSpec, SyntheticWorld, SyntheticWorldBuilder
from repro.video.video import (
    VideoRepository,
    clip_collection_repository,
    single_camera_repository,
)


@dataclass
class Dataset:
    """A fully materialised evaluation dataset."""

    name: str
    repository: VideoRepository
    world: SyntheticWorld
    chunk_map: ChunkMap
    camera: str  # "moving" | "static"

    @property
    def classes(self) -> List[str]:
        return self.world.class_names()

    @property
    def total_frames(self) -> int:
        return self.repository.total_frames

    def gt_count(self, class_name: str) -> int:
        count = self.world.count_of(class_name)
        if count == 0:
            raise DatasetError(
                f"dataset {self.name!r} has no instances of {class_name!r}"
            )
        return count

    def skew_counts(self, class_name: str) -> np.ndarray:
        return self.world.chunk_counts(class_name, self.chunk_map.global_bounds())


def _scaled(count: int, scale: float) -> int:
    """Scale an instance count, keeping at least a handful of instances."""
    return max(int(round(count * scale)), 8)


def _moving(name: str, count: int, dur: float, skew: Tuple, scale: float) -> ClassSpec:
    return ClassSpec(
        name=name,
        count=_scaled(count, scale),
        mean_duration_s=dur,
        skew=skew,
        size_range=(30.0, 200.0),
    )


def _static(name: str, count: int, dur: float, skew: Tuple, scale: float) -> ClassSpec:
    return ClassSpec(
        name=name,
        count=_scaled(count, scale),
        mean_duration_s=dur,
        skew=skew,
        size_range=(40.0, 260.0),
    )


def build_dashcam(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """10 hours of drives; high location skew for infrastructure classes."""
    hours = 10.0 * scale
    repo = single_camera_repository("dashcam", hours, fps, segment_minutes=40.0)
    specs = [
        _moving("person", 2500, 3.0, ("hotspots", 5, 0.40), scale),
        _moving("bicycle", 249, 4.0, ("hotspots", 2, 0.08), scale),
        _moving("stop sign", 600, 2.5, ("hotspots", 6, 0.40), scale),
        _moving("traffic light", 1800, 5.0, ("hotspots", 4, 0.35), scale),
        _moving("fire hydrant", 350, 1.5, ("hotspots", 5, 0.45), scale),
        _moving("bus", 300, 4.0, ("hotspots", 3, 0.50), scale),
        _moving("truck", 700, 4.0, ("hotspots", 8, 0.70), scale),
    ]
    return _assemble(
        "dashcam", repo, specs, FixedDurationChunker(20.0 * scale), "moving", seed
    )


def build_bdd1k(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """1000 sub-minute clips, one chunk per clip (the §IV-C stress case)."""
    num_clips = max(int(round(1000 * scale)), 20)
    rngs = RngFactory(seed).child("bdd1k-clips")
    repo = clip_collection_repository(
        "bdd1k", num_clips, clip_frames=1200, fps=fps,
        frame_jitter=150, rng=rngs.generator(),
    )
    clip_scale = num_clips / 1000.0
    specs = [
        _moving("bike", 350, 3.0, ("hotspots", 12, 0.30), clip_scale),
        _moving("bus", 800, 3.5, ("hotspots", 20, 0.50), clip_scale),
        _moving("motor", 509, 3.0, ("hotspots", 6, 0.12), clip_scale),
        _moving("person", 4000, 3.0, ("hotspots", 40, 0.60), clip_scale),
        _moving("rider", 400, 3.0, ("hotspots", 10, 0.25), clip_scale),
        _moving("traffic light", 3000, 4.0, ("hotspots", 30, 0.55), clip_scale),
        _moving("traffic sign", 6000, 3.0, ("uniform",), clip_scale),
        _moving("truck", 1500, 3.5, ("hotspots", 25, 0.60), clip_scale),
    ]
    return _assemble("bdd1k", repo, specs, PerClipChunker(), "moving", seed)


def build_bdd_mot(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """1600 clips of ~200 frames with exact instance labels (§V-A)."""
    num_clips = max(int(round(1600 * scale)), 20)
    repo = clip_collection_repository("bddmot", num_clips, clip_frames=200, fps=fps)
    clip_scale = num_clips / 1600.0
    specs = [
        _moving("car", 8000, 2.5, ("hotspots", 50, 0.70), clip_scale),
        _moving("pedestrian", 3000, 2.0, ("hotspots", 30, 0.50), clip_scale),
        _moving("truck", 1200, 2.5, ("hotspots", 30, 0.60), clip_scale),
        _moving("bus", 500, 2.5, ("hotspots", 15, 0.40), clip_scale),
        _moving("bicycle", 400, 2.0, ("hotspots", 12, 0.35), clip_scale),
        _moving("rider", 350, 2.0, ("hotspots", 12, 0.35), clip_scale),
        _moving("motorcycle", 300, 2.0, ("hotspots", 8, 0.25), clip_scale),
        _moving("trailer", 60, 2.5, ("hotspots", 4, 0.20), clip_scale),
        _moving("train", 40, 3.0, ("hotspots", 2, 0.10), clip_scale),
    ]
    return _assemble("bdd_mot", repo, specs, PerClipChunker(), "moving", seed)


def build_amsterdam(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """20 hours from a static canal-side camera; boats have little skew."""
    repo = single_camera_repository("amsterdam", 20.0 * scale, fps)
    specs = [
        _static("person", 8000, 8.0, ("normal", 0.45), scale),
        _static("car", 5000, 10.0, ("normal", 0.55), scale),
        _static("bicycle", 6000, 6.0, ("normal", 0.40), scale),
        _static("boat", 588, 40.0, ("normal", 0.90), scale),
        _static("motorcycle", 150, 6.0, ("normal", 0.30), scale),
        _static("dog", 250, 5.0, ("normal", 0.35), scale),
        _static("truck", 800, 8.0, ("normal", 0.50), scale),
    ]
    return _assemble(
        "amsterdam", repo, specs, FixedDurationChunker(20.0 * scale), "static", seed
    )


def build_archie(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """20 hours of constant urban traffic; cars are everywhere (S≈1.1)."""
    repo = single_camera_repository("archie", 20.0 * scale, fps)
    specs = [
        _static("car", 33546, 6.0, ("uniform",), scale),
        _static("person", 12000, 8.0, ("normal", 0.60), scale),
        _static("bicycle", 2500, 5.0, ("normal", 0.45), scale),
        _static("bus", 900, 6.0, ("normal", 0.55), scale),
        _static("motorcycle", 250, 5.0, ("normal", 0.35), scale),
        _static("truck", 1500, 6.0, ("normal", 0.60), scale),
    ]
    return _assemble(
        "archie", repo, specs, FixedDurationChunker(20.0 * scale), "static", seed
    )


def build_night_street(scale: float = 1.0, seed: int = 0, fps: float = 30.0) -> Dataset:
    """20 hours over a town square at night; people cluster in the evening."""
    repo = single_camera_repository("night_street", 20.0 * scale, fps)
    specs = [
        _static("car", 9000, 8.0, ("normal", 0.60), scale),
        _static("person", 2078, 12.0, ("normal", 0.32), scale),
        _static("bus", 500, 7.0, ("normal", 0.50), scale),
        _static("truck", 700, 7.0, ("normal", 0.55), scale),
        _static("dog", 120, 6.0, ("normal", 0.30), scale),
        _static("motorcycle", 60, 5.0, ("normal", 0.25), scale),
    ]
    return _assemble(
        "night_street", repo, specs, FixedDurationChunker(20.0 * scale), "static", seed
    )


#: Registry of dataset builders keyed by paper name.
DATASET_BUILDERS: Dict[str, Callable[..., Dataset]] = {
    "dashcam": build_dashcam,
    "bdd1k": build_bdd1k,
    "bdd_mot": build_bdd_mot,
    "amsterdam": build_amsterdam,
    "archie": build_archie,
    "night_street": build_night_street,
}


def make_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Build one of the six evaluation datasets by name."""
    try:
        builder = DATASET_BUILDERS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        ) from None
    if not 0 < scale <= 1.0:
        raise DatasetError("scale must lie in (0, 1]")
    return builder(scale=scale, seed=seed)


def _assemble(name, repository, specs, chunker, camera, seed) -> Dataset:
    builder = SyntheticWorldBuilder(repository, RngFactory(seed).child(name))
    for spec in specs:
        builder.add_class(spec)
    world = builder.build()
    return Dataset(
        name=name,
        repository=repository,
        world=world,
        chunk_map=chunker.chunk(repository),
        camera=camera,
    )
