"""Shared fixtures: small, fast instances of every substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.simulated import PERFECT_PROFILE, SimulatedDetector
from repro.theory.instances import InstancePopulation
from repro.theory.temporal_sim import TemporalEnvironment
from repro.utils.rng import RngFactory, spawn_rng
from repro.video.chunks import FixedDurationChunker
from repro.video.datasets import Dataset
from repro.video.synthetic import ClassSpec, build_world
from repro.video.video import Video, VideoRepository


@pytest.fixture
def rng() -> np.random.Generator:
    return spawn_rng(1234, "tests")


@pytest.fixture
def rngs() -> RngFactory:
    return RngFactory(1234)


@pytest.fixture
def small_population() -> InstancePopulation:
    """200 instances, 100k frames, moderate skew — fast but non-trivial."""
    return InstancePopulation.place(
        200, 100_000, 300, spawn_rng(7, "pop"), skew_fraction=1 / 8
    )


@pytest.fixture
def flat_population() -> InstancePopulation:
    """200 instances spread uniformly (the no-skew control)."""
    return InstancePopulation.place(
        200, 100_000, 300, spawn_rng(8, "pop-flat"), skew_fraction=None
    )


@pytest.fixture
def temporal_env(small_population: InstancePopulation) -> TemporalEnvironment:
    return TemporalEnvironment.with_even_chunks(small_population, 16)


def traces_equal(a, b) -> bool:
    """Whether two search traces sampled the same frames with the same
    outcomes and costs, element for element."""
    return (
        np.array_equal(a.chunks, b.chunks)
        and np.array_equal(a.frames, b.frames)
        and np.array_equal(a.d0s, b.d0s)
        and np.array_equal(a.d1s, b.d1s)
        and np.array_equal(a.costs, b.costs)
    )


def make_tiny_dataset(seed: int = 0, minutes: float = 4.0) -> Dataset:
    """A hand-rolled dataset small enough for exhaustive test scans.

    Two videos of ``minutes/2`` each at 10 fps, three object classes with
    contrasting skew, chunked into ~8 chunks.
    """
    fps = 10.0
    frames_per_video = int(minutes / 2 * 60 * fps)
    repository = VideoRepository(
        [
            Video("tiny-0", frames_per_video, fps=fps, width=640, height=480),
            Video("tiny-1", frames_per_video, fps=fps, width=640, height=480),
        ]
    )
    world = build_world(
        repository,
        [
            ClassSpec("car", count=30, mean_duration_s=6.0, skew=("uniform",),
                      size_range=(60, 200)),
            ClassSpec("bicycle", count=12, mean_duration_s=4.0,
                      skew=("hotspots", 1, 0.10), size_range=(50, 150)),
            ClassSpec("dog", count=6, mean_duration_s=3.0,
                      skew=("normal", 0.5), size_range=(40, 120)),
        ],
        seed=seed,
    )
    chunk_map = FixedDurationChunker(minutes=0.5).chunk(repository)
    return Dataset(
        name="tiny",
        repository=repository,
        world=world,
        chunk_map=chunk_map,
        camera="static",
    )


@pytest.fixture
def tiny_dataset() -> Dataset:
    return make_tiny_dataset(seed=0)


@pytest.fixture
def perfect_detector(tiny_dataset: Dataset) -> SimulatedDetector:
    return SimulatedDetector(tiny_dataset.world, profile=PERFECT_PROFILE, seed=0)
