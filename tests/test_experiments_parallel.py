"""Tests for the process-parallel experiment backbone.

The contract under test: parallel execution is a pure wall-clock
optimisation — for any job count, results are element-wise identical to the
serial loop, in the same order.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.config import ExSampleConfig
from repro.core.sampler import ExSampleSearcher
from repro.errors import ConfigError
from repro.experiments import fig2, fig3
from repro.experiments.parallel import (
    clear_dataset_engines,
    dataset_engine,
    parallel_map,
    parallel_sweep_methods,
    parallel_traces,
    resolve_jobs,
)
from repro.query.query import DistinctObjectQuery
from repro.theory.instances import InstancePopulation, even_chunk_bounds
from repro.theory.temporal_sim import TemporalEnvironment
from repro.utils.rng import RngFactory

from tests.conftest import traces_equal


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x} failed")


def _make_searcher(population, bounds, rngs, run_idx):
    env = TemporalEnvironment(population, bounds)
    return ExSampleSearcher(
        env, ExSampleConfig(seed=run_idx), rng=rngs.child("ex", run_idx)
    )


@pytest.fixture(scope="module")
def workload():
    rngs = RngFactory(3).child("partest")
    population = InstancePopulation.place(
        200, 100_000, 500, rngs.stream("pop"), skew_fraction=1 / 16
    )
    bounds = even_chunk_bounds(100_000, 16)
    return partial(_make_searcher, population, bounds, rngs)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_IN_WORKER", raising=False)
        assert resolve_jobs() == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_worker_guard_prevents_nesting(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_IN_WORKER", "1")
        assert resolve_jobs() == 1
        assert resolve_jobs(8) == 1

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs()
        monkeypatch.delenv("REPRO_JOBS")
        with pytest.raises(ConfigError):
            resolve_jobs(0)


class TestParallelMap:
    def test_order_stable(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=3) == [x * x for x in items]

    def test_serial_fallback_for_closures_warns(self):
        captured = []

        def unpicklable(x):
            captured.append(x)
            return -x

        with pytest.warns(RuntimeWarning, match="does not pickle"):
            assert parallel_map(unpicklable, [1, 2, 3], jobs=4) == [-1, -2, -3]
        assert captured == [1, 2, 3]  # ran in this process

    def test_probe_serializes_one_item_not_the_whole_list(self, monkeypatch):
        """The pre-flight pickle probe covers fn plus one representative
        item; the full task list is serialized once, at submit time."""
        import pickle

        from repro.experiments import parallel as parallel_mod

        seen = []

        class RecordingPickle:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

            @staticmethod
            def dumps(obj, *args, **kwargs):
                seen.append(obj)
                return pickle.dumps(obj, *args, **kwargs)

        monkeypatch.setattr(parallel_mod, "pickle", RecordingPickle)
        items = list(range(6))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]
        assert seen == [(_square, 0)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="task 0 failed"):
            parallel_map(_boom, [0, 1, 2], jobs=2)
        with pytest.raises(ValueError, match="task 0 failed"):
            parallel_map(_boom, [0, 1], jobs=1)


class TestParallelTraces:
    def test_identical_to_serial(self, workload):
        serial = parallel_traces(workload, 4, jobs=1, frame_budget=600)
        parallel = parallel_traces(workload, 4, jobs=2, frame_budget=600)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert traces_equal(a, b)

    def test_jobs_default_to_repro_jobs(self, workload, monkeypatch):
        serial = parallel_traces(workload, 3, frame_budget=400)
        monkeypatch.setenv("REPRO_JOBS", "2")
        env_driven = parallel_traces(workload, 3, frame_budget=400)
        for a, b in zip(serial, env_driven):
            assert traces_equal(a, b)


class TestParallelSweep:
    def test_identical_to_serial(self):
        dataset, engine = dataset_engine("dashcam", 0.02, 13)
        query = DistinctObjectQuery("person", limit=6)
        serial = parallel_sweep_methods(engine, query, jobs=1)
        parallel = parallel_sweep_methods(engine, query, jobs=2)
        assert list(serial) == list(parallel)  # method order preserved
        for method in serial:
            assert traces_equal(serial[method].trace, parallel[method].trace)


class TestDatasetEngineMemo:
    """The process-local engine memo honors cache policy and stays bounded."""

    def test_cache_policy_reaches_worker_built_engines(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        clear_dataset_engines()
        _, engine_off = dataset_engine("dashcam", 0.02, 21, cache="off")
        assert engine_off.detection_cache is None
        _, engine_lru = dataset_engine("dashcam", 0.02, 21, cache="lru")
        assert engine_lru.detection_cache.policy == "lru"
        assert engine_lru is not engine_off  # policy is part of the memo key
        _, engine_default = dataset_engine("dashcam", 0.02, 21)
        assert engine_default.detection_cache.policy == "unbounded"
        # The env knob (what CLI --cache sets, and workers inherit) wins
        # over the default when no explicit policy is passed.
        monkeypatch.setenv("REPRO_CACHE", "lru")
        _, engine_env = dataset_engine("dashcam", 0.02, 21)
        assert engine_env.detection_cache.policy == "lru"
        assert engine_env is engine_lru
        clear_dataset_engines()

    def test_memo_is_bounded_with_a_clear_path(self):
        from repro.experiments.parallel import _ENGINE_MEMO_SLOTS, _dataset_engine

        clear_dataset_engines()
        assert _dataset_engine.cache_info().maxsize == _ENGINE_MEMO_SLOTS
        dataset_engine("dashcam", 0.02, 31)
        assert _dataset_engine.cache_info().currsize == 1
        assert dataset_engine("dashcam", 0.02, 31)[1] is dataset_engine(
            "dashcam", 0.02, 31
        )[1]
        clear_dataset_engines()
        assert _dataset_engine.cache_info().currsize == 0


class TestExperimentHarnesses:
    """Whole harnesses under REPRO_JOBS: results identical to serial."""

    def test_fig3_cell_grid(self, monkeypatch):
        config = fig3.Fig3Config(
            num_instances=150,
            total_frames=60_000,
            num_chunks=8,
            runs=2,
            frame_budget=300,
            skews=(None, 1 / 8),
            durations=(100,),
            targets=(10,),
        )
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = fig3.run(config)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = fig3.run(config)
        assert len(serial.cells) == len(parallel.cells)
        for a, b in zip(serial.cells, parallel.cells):
            assert (a.skew, a.duration) == (b.skew, b.duration)
            assert a.samples_to == b.samples_to
            assert a.median_found == b.median_found

    def test_fig2_block_split(self, monkeypatch):
        config = fig2.Fig2Config(
            num_instances=120, runs=24, max_n=20_000, checkpoints=12
        )
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = fig2.run(config)
        monkeypatch.setenv("REPRO_JOBS", "3")
        parallel = fig2.run(config)
        assert np.array_equal(serial.tuples.n, parallel.tuples.n)
        assert np.array_equal(serial.tuples.n1, parallel.tuples.n1)
        assert np.array_equal(serial.tuples.r_next, parallel.tuples.r_next)
