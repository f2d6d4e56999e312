"""Smoke tests for every experiment harness at miniature scale.

These verify each artifact module runs end-to-end and produces a sane,
renderable result; the *shape* assertions against the paper live in
``test_integration.py`` and the benchmark suite.
"""

import pickle
from functools import partial

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearcher
from repro.baselines.randomplus_search import RandomPlusSearcher
from repro.core.config import ExSampleConfig
from repro.core.sampler import ExSampleSearcher
from repro.experiments import (
    ablations,
    default_config,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    table1,
)
from repro.experiments.parallel import clear_dataset_engines, dataset_engine
from repro.experiments.runner import (
    is_full_scale,
    make_searcher,
    median_samples_to,
    median_savings,
    sample_grid,
    savings_trial,
)
from repro.theory.instances import InstancePopulation, even_chunk_bounds
from repro.theory.temporal_sim import TemporalEnvironment
from repro.utils.rng import RngFactory

from tests.conftest import traces_equal


class TestRunnerHelpers:
    def test_sample_grid_properties(self):
        grid = sample_grid(10_000, points=30)
        assert grid[0] == 1
        assert grid[-1] == 10_000
        assert np.all(np.diff(grid) > 0)

    def test_default_config_quick_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not is_full_scale()
        config = default_config(fig2.Fig2Config)
        assert config.runs == fig2.Fig2Config.quick().runs

    def test_default_config_full_when_env_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert is_full_scale()
        config = default_config(fig2.Fig2Config)
        assert config.runs == fig2.Fig2Config.paper().runs

    def test_median_samples_to_censoring(self):
        from repro.core.sampler import SearchTrace

        def trace(d0s):
            n = len(d0s)
            return SearchTrace(
                chunks=np.zeros(n, dtype=np.int64),
                frames=np.arange(n, dtype=np.int64),
                d0s=np.asarray(d0s, dtype=np.int64),
                d1s=np.zeros(n, dtype=np.int64),
                costs=np.ones(n),
            )

        reached = trace([1, 1])
        failed = trace([0, 0])
        assert median_samples_to([reached, reached, failed], 2) == 2.0
        assert median_samples_to([failed, failed, reached], 2) is None

    def test_make_searcher_matches_direct_construction(self):
        """The registry-built run draws exactly what the direct constructor
        draws on the same stream and config."""
        rngs = RngFactory(5).child("make-searcher")
        population = InstancePopulation.place(
            300, 200_000, 400, rngs.stream("pop"), skew_fraction=1 / 16
        )
        bounds = even_chunk_bounds(200_000, 16)
        kwargs = {"policy": "bayes_ucb", "batch_size": 4}
        cases = (
            ("exsample", ("ex", "variant"), kwargs,
             lambda env, rng, i: ExSampleSearcher(
                 env, ExSampleConfig(seed=i, **kwargs), rng=rng
             )),
            ("random", ("rnd",), {},
             lambda env, rng, i: RandomSearcher(env, rng=rng)),
            ("randomplus", ("rp",), {},
             lambda env, rng, i: RandomPlusSearcher(env, rng=rng)),
        )
        for method, key, config_kwargs, build in cases:
            for run_idx in (0, 1):
                built = make_searcher(
                    method, population, bounds, rngs, key, config_kwargs, run_idx
                )
                reference = build(
                    TemporalEnvironment(population, bounds),
                    rngs.child(*key, run_idx),
                    run_idx,
                )
                assert type(built) is type(reference)
                trace = built.run(frame_budget=300)
                assert trace.num_samples == 300
                assert traces_equal(trace, reference.run(frame_budget=300))

    def test_median_savings_none_where_no_trial_reached_a_ratio(self):
        tasks = [("ds", "a", 0), ("ds", "a", 1), ("ds", "b", 0), ("ds", "b", 1)]
        results = [
            {0.5: 2.0, 0.9: None},
            {0.5: 4.0, 0.9: None},
            {0.5: None, 0.9: None},
            {0.5: None, 0.9: None},
        ]
        assert median_savings(tasks, results, (0.5, 0.9)) == {
            ("ds", "a"): {0.5: 3.0, 0.9: None},
            ("ds", "b"): {0.5: None, 0.9: None},
        }

    def test_make_searcher_partial_survives_a_pickle(self):
        """A partial over every argument but the run index is the factory
        that ``parallel_traces`` ships to workers: after a pickle round trip
        it builds the same runs, and each run index draws its own stream."""
        rngs = RngFactory(6).child("make-searcher-pickle")
        population = InstancePopulation.place(
            300, 200_000, 400, rngs.stream("pop"), skew_fraction=1 / 16
        )
        bounds = even_chunk_bounds(200_000, 16)
        factory = partial(
            make_searcher, "exsample", population, bounds, rngs, ("ex",),
            {"batch_size": 4},
        )
        shipped = pickle.loads(pickle.dumps(factory))
        runs = [factory(run_idx).run(frame_budget=300) for run_idx in (0, 1)]
        for run_idx, trace in enumerate(runs):
            assert traces_equal(trace, shipped(run_idx).run(frame_budget=300))
        assert not np.array_equal(runs[0].frames, runs[1].frames)

    def test_savings_trial_depends_only_on_its_arguments(self):
        """A trial gives the same ratios on a freshly built engine as on one
        that other trials have used, so it runs alike in any worker."""
        recalls = (0.1, 0.5, 0.9)
        first = savings_trial(0.03, 0, recalls, ("dashcam", "person", 0))
        savings_trial(0.03, 0, recalls, ("dashcam", "person", 1))
        clear_dataset_engines()
        assert savings_trial(0.03, 0, recalls, ("dashcam", "person", 0)) == first
        assert set(first) == set(recalls)
        assert all(ratio is None or ratio > 0 for ratio in first.values())


class TestFig2:
    def test_miniature_run(self):
        config = fig2.Fig2Config(
            num_instances=200, runs=150, max_n=5000, checkpoints=12
        )
        result = fig2.run(config)
        assert len(result.cells) >= 3
        assert 0.5 <= result.variance_coverage <= 1.0
        text = fig2.format_result(result)
        assert "Figure 2" in text
        assert "cover95" in text

    def test_belief_mean_tracks_truth(self):
        config = fig2.Fig2Config(
            num_instances=300, runs=150, max_n=20_000, checkpoints=16
        )
        result = fig2.run(config)
        mid_cells = [c for c in result.cells if c.n >= 100 and c.true_mean > 0]
        assert mid_cells
        for cell in mid_cells:
            assert cell.belief_mean == pytest.approx(cell.true_mean, rel=0.6)


class TestFig3:
    def test_single_cell(self):
        config = fig3.Fig3Config(
            num_instances=300,
            total_frames=300_000,
            num_chunks=32,
            runs=2,
            frame_budget=1500,
            targets=(10, 100),
        )
        cell = fig3.run_cell(config, 1 / 32, 700)
        assert cell.median_found["exsample"] > 0
        assert cell.optimal_found > 0

    def test_grid_and_format(self):
        config = fig3.Fig3Config(
            num_instances=150,
            total_frames=150_000,
            num_chunks=16,
            runs=2,
            frame_budget=600,
            skews=(None, 1 / 16),
            durations=(100, 700),
            targets=(10,),
        )
        result = fig3.run(config)
        assert len(result.cells) == 4
        text = fig3.format_result(result)
        assert "Figure 3" in text


class TestFig4:
    def test_miniature_run(self):
        config = fig4.Fig4Config(
            num_instances=200,
            total_frames=200_000,
            mean_duration=700,
            skew=1 / 16,
            chunk_counts=(1, 8, 64),
            runs=2,
            frame_budget=1200,
        )
        result = fig4.run(config)
        assert len(result.curves) == 3
        for curve in result.curves:
            assert np.all(np.diff(curve.exsample_median) >= 0)
            assert curve.optimal_expected[-1] <= 200 + 1e-6
        assert "Figure 4" in fig4.format_result(result)


class TestTable1:
    def test_miniature_run(self):
        config = table1.Table1Config(
            datasets=("dashcam",), scale=0.03, max_classes=2
        )
        result = table1.run(config)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.scan_seconds > 0
        text = table1.format_result(result)
        assert "Table I" in text

    def test_select_classes_puts_quick_classes_first(self):
        """Under a class cap each dataset's ``QUICK_CLASSES`` lead, in their
        listed order; without a cap every class of the dataset is kept."""
        capped = table1.Table1Config(
            datasets=("dashcam",), scale=0.03, max_classes=2
        )
        assert table1.select_classes(capped) == [
            ("dashcam", "bicycle"),
            ("dashcam", "traffic light"),
        ]
        uncapped = table1.Table1Config(
            datasets=("dashcam",), scale=0.03, max_classes=None
        )
        dataset, _ = dataset_engine("dashcam", 0.03, 0)
        assert table1.select_classes(uncapped) == [
            ("dashcam", class_name) for class_name in dataset.classes
        ]


class TestFig5:
    def test_miniature_run(self):
        config = fig5.Fig5Config(
            datasets=("dashcam",), scale=0.03, trials=1, max_classes=2
        )
        result = fig5.run(config)
        assert len(result.bars) == 2
        text = fig5.format_result(result)
        assert "Figure 5" in text

    def test_configs_span_the_six_datasets_in_artifact_order(self):
        """Figure 5 and Table I list the six datasets in the committed
        artifacts' row order at both scales."""
        six = ("dashcam", "bdd1k", "bdd_mot", "amsterdam", "archie", "night_street")
        for config in (
            fig5.Fig5Config.quick(),
            fig5.Fig5Config.paper(),
            table1.Table1Config.quick(),
            table1.Table1Config.paper(),
        ):
            assert config.datasets == six


class TestFig6:
    def test_miniature_run(self):
        config = fig6.Fig6Config(scale=0.03, trials=1)
        result = fig6.run(config)
        assert len(result.panels) == 5
        labels = {(p.dataset, p.class_name) for p in result.panels}
        assert ("dashcam", "bicycle") in labels
        assert ("archie", "car") in labels
        text = fig6.format_result(result)
        assert "Figure 6" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def config(self):
        return ablations.AblationConfig(
            num_instances=300,
            total_frames=300_000,
            num_chunks=16,
            runs=2,
            frame_budget=1200,
            target_results=100,
        )

    def test_randomplus(self, config):
        result = ablations.randomplus_ablation(config)
        assert set(result) == {
            "exsample/randomplus",
            "exsample/uniform",
            "random",
            "random+",
        }

    def test_policy(self, config):
        result = ablations.policy_ablation(config)
        assert "thompson" in result

    def test_prior(self, config):
        result = ablations.prior_ablation(config)
        assert len(result) == 5

    def test_batch(self, config):
        result = ablations.batch_ablation(config)
        assert set(result) == {"batch=1", "batch=8", "batch=64"}

    def test_format(self, config):
        result = ablations.batch_ablation(config)
        text = ablations.format_ablation("batch", result)
        assert "batch=1" in text

    def test_rows_come_out_in_table_order(self, config):
        """Each ablation reports its rows in the committed artifact's order."""
        assert list(ablations.randomplus_ablation(config)) == [
            "exsample/randomplus", "exsample/uniform", "random", "random+",
        ]
        assert list(ablations.policy_ablation(config)) == [
            "thompson", "bayes_ucb", "greedy", "uniform",
        ]
        assert list(ablations.prior_ablation(config)) == [
            "a0=0.01,b0=1.0", "a0=0.1,b0=1.0", "a0=1.0,b0=1.0",
            "a0=0.1,b0=0.1", "a0=0.1,b0=10.0",
        ]
        assert list(ablations.batch_ablation(config)) == [
            "batch=1", "batch=8", "batch=64",
        ]

    def test_a_row_keeps_its_streams_alone(self, config, monkeypatch):
        """Run i of a row draws from ``rngs.child(*key, i)``: with its
        neighbour rows dropped, a row reports the same value."""
        full = ablations.batch_ablation(config)
        assert full["batch=8"] is not None
        row = next(r for r in ablations._ROWS["abl-batch"] if r[0] == "batch=8")
        monkeypatch.setitem(ablations._ROWS, "abl-batch", (row,))
        assert ablations.batch_ablation(config) == {"batch=8": full["batch=8"]}
