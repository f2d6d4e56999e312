"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported where it is used: importing the CLI, in a fresh
    interpreter, loads none of it."""
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_query_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--object", "car"])

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestListDatasets:
    def test_lists_all_six(self):
        code, text = run_cli("list-datasets")
        assert code == 0
        for name in ("dashcam", "bdd1k", "bdd_mot", "amsterdam", "archie",
                     "night_street"):
            assert name in text


class TestQuery:
    def test_basic_query(self):
        code, text = run_cli(
            "query", "--dataset", "dashcam", "--object", "traffic light",
            "--limit", "5", "--scale", "0.02",
        )
        assert code == 0
        assert "distinct results" in text
        assert "video" in text

    def test_default_limit_applied(self):
        code, text = run_cli(
            "query", "--dataset", "dashcam", "--object", "person",
            "--scale", "0.02",
        )
        assert code == 0
        assert "distinct results" in text

    @pytest.mark.parametrize("method", ["random", "exsample_fusion"])
    def test_other_methods(self, method):
        code, text = run_cli(
            "query", "--dataset", "dashcam", "--object", "person",
            "--limit", "3", "--scale", "0.02", "--method", method,
        )
        assert code == 0


class TestCompare:
    def test_compare_all_methods(self):
        code, text = run_cli(
            "compare", "--dataset", "dashcam", "--object", "traffic light",
            "--recall", "0.3", "--scale", "0.02",
        )
        assert code == 0
        for method in ("exsample", "random", "proxy", "oracle"):
            assert method in text


class TestServe:
    def test_workload_replay(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text(
            """
            {"queries": [
              {"object": "person", "limit": 2, "tenant": "a", "batch_size": 4},
              {"object": "person", "limit": 2, "run_seed": 1, "tenant": "b",
               "batch_size": 4},
              {"object": "traffic light", "limit": 2, "tenant": "a",
               "arrival": 0.01, "batch_size": 4}
            ]}
            """
        )
        code, text = run_cli(
            "serve", "--dataset", "dashcam", "--workload", str(workload),
            "--scale", "0.02", "--time-scale", "0",
        )
        assert code == 0
        assert "workload replay" in text
        assert "finished" in text
        assert "detector:" in text
        assert "tenant a:" in text and "tenant b:" in text

    def test_invalid_entries_reported_cleanly(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text(
            """
            {"queries": [
              {"object": "person", "limit": 2},
              {"object": "unicorn", "limit": 1},
              {"object": "person", "method": "frobnicate"},
              {"object": "person", "limit": 1, "batch_size": 0}
            ]}
            """
        )
        code, text = run_cli(
            "serve", "--dataset", "dashcam", "--workload", str(workload),
        )
        assert code == 1
        assert "unicorn" in text
        assert "frobnicate" in text
        assert "batch_size" in text
        assert "workload replay" not in text  # nothing was served

    def test_empty_workload(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text('{"queries": []}')
        code, text = run_cli(
            "serve", "--dataset", "dashcam", "--workload", str(workload),
        )
        assert code == 0
        assert "empty" in text

    def test_requires_exactly_one_of_workload_and_listen(self, tmp_path):
        code, text = run_cli("serve", "--dataset", "dashcam")
        assert code == 1
        assert "exactly one" in text
        workload = tmp_path / "wl.json"
        workload.write_text('{"queries": []}')
        code, text = run_cli(
            "serve", "--dataset", "dashcam", "--workload", str(workload),
            "--listen", "127.0.0.1:0",
        )
        assert code == 1
        assert "exactly one" in text

    @pytest.mark.parametrize(
        "argv, mp_context, message",
        [
            (["serve", "--dataset", "dashcam", "--listen", "no-port-here"],
             None, "ReproError: --listen expects HOST:PORT"),
            (["serve", "--dataset", "dashcam", "--listen", "127.0.0.1:x"],
             None, "ReproError: --listen port must be an integer"),
            (["serve", "--dataset", "dashcam", "--listen", "127.0.0.1:0",
              "--executor", "bogus"],
             None, "ConfigError: unknown detector executor 'bogus'"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--executor", "process:2"],
             None, "ConfigError: unknown detector executor 'process' "
                   "(accepted: "),
            (["fleet", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--executor", "process"],
             None, "ConfigError: unknown detector executor 'process' "
                   "(accepted: "),
            (["fleet", "--dataset", "dashcam", "--workload", "WORKLOAD"],
             "bogus", "ConfigError: unknown multiprocessing start method"),
            (["query", "--dataset", "dashcam", "--object", "car"],
             None, "QueryError: class 'car' not in dataset 'dashcam'"),
            (["query", "--dataset", "dashcam", "--object", "person",
              "--scale", "nan"],
             None, "DatasetError: scale must lie in (0, 1]"),
            (["query", "--dataset", "dashcam", "--object", "person",
              "--detector-fps", "nan"],
             None, "ConfigError: throughputs must be positive"),
            (["query", "--dataset", "dashcam", "--object", "person",
              "--cost-budget", "nan"],
             None, "QueryError: cost_budget must be positive"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--max-batch", "0"],
             None, "ConfigError: max_batch_size must be >= 1"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--max-batch", "-3"],
             None, "ConfigError: max_batch_size must be >= 1"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--flush-ms", "-5"],
             None, "ConfigError: flush_latency must be finite and >= 0"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--flush-ms", "nan"],
             None, "ConfigError: flush_latency must be finite and >= 0"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--time-scale", "nan"],
             None, "ConfigError: time_scale must be finite and >= 0"),
            (["serve", "--dataset", "dashcam", "--workload", "WORKLOAD",
              "--time-scale", "-1"],
             None, "ConfigError: time_scale must be finite and >= 0"),
        ],
        ids=["no-port", "bad-port", "executor", "serve-process",
             "fleet-process", "mp-context", "class", "nan-scale",
             "nan-detector-fps", "nan-cost-budget", "zero-max-batch",
             "negative-max-batch", "negative-flush-ms", "nan-flush-ms",
             "nan-time-scale", "negative-time-scale"],
    )
    def test_listen_spec_validated(
        self, argv, mp_context, message, tmp_path, monkeypatch
    ):
        """Bad input gets one ``error:`` line and exit code 1, not a
        traceback."""
        workload = tmp_path / "wl.json"
        workload.write_text('{"queries": [{"object": "person", "limit": 1}]}')
        if mp_context is not None:
            monkeypatch.setenv("REPRO_MP_CONTEXT", mp_context)
        argv = [str(workload) if arg == "WORKLOAD" else arg for arg in argv]
        if "--scale" not in argv:
            argv += ["--scale", "0.02"]
        code, text = run_cli(*argv)
        assert code == 1
        assert text.startswith(f"error: {message}")
        assert text.count("\n") == 1


class TestFleet:
    def test_fleet_replay(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text(
            """
            {"queries": [
              {"object": "person", "limit": 2, "tenant": "a"},
              {"object": "person", "limit": 2, "run_seed": 1, "tenant": "b"},
              {"object": "traffic light", "limit": 1, "tenant": "a",
               "shard": 1}
            ]}
            """
        )
        code, text = run_cli(
            "fleet", "--dataset", "dashcam", "--workload", str(workload),
            "--scale", "0.02", "--time-scale", "0", "--shards", "2",
        )
        assert code == 0
        assert "fleet replay" in text
        assert "fleet: 2 shards" in text
        assert "finished" in text
        assert "shard 0:" in text and "shard 1:" in text

    def test_shard_pin_beyond_fleet_rejected(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text(
            '{"queries": [{"object": "person", "limit": 1, "shard": 5}]}'
        )
        code, text = run_cli(
            "fleet", "--dataset", "dashcam", "--workload", str(workload),
            "--scale", "0.02", "--shards", "2",
        )
        assert code == 1
        assert "invalid workload" in text
        assert "shard" in text

    def test_empty_workload(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text('{"queries": []}')
        code, text = run_cli(
            "fleet", "--dataset", "dashcam", "--workload", str(workload),
        )
        assert code == 0
        assert "empty" in text

    def test_placement_and_context_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "--dataset", "dashcam", "--workload", "x.json",
                 "--placement", "round_robin_shards"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "--dataset", "dashcam", "--workload", "x.json",
                 "--context", "greenthreads"]
            )


class TestExperimentAndAblation:
    def test_fig6_experiment_runs(self, monkeypatch):
        # fig6 is the cheapest full-artifact harness; shrink it further by
        # monkeypatching its quick config.
        from repro.experiments import fig6 as fig6_mod

        monkeypatch.setattr(
            fig6_mod.Fig6Config, "quick",
            classmethod(lambda cls: cls(scale=0.02, trials=1)),
        )
        monkeypatch.delenv("REPRO_FULL", raising=False)
        code, text = run_cli("experiment", "fig6")
        assert code == 0
        assert "Figure 6" in text

    def test_experiment_honours_repro_full(self, monkeypatch):
        """REPRO_FULL=1, or --full, which sets it, runs the paper config."""
        from repro.experiments import fig6 as fig6_mod

        def quick(cls):
            raise AssertionError("the quick config ran under REPRO_FULL=1")

        monkeypatch.setattr(fig6_mod.Fig6Config, "quick", classmethod(quick))
        monkeypatch.setattr(
            fig6_mod.Fig6Config, "paper",
            classmethod(lambda cls: cls(scale=0.02, trials=1)),
        )
        for env, flags in (("1", ()), ("", ("--full",))):
            monkeypatch.setenv("REPRO_FULL", env)
            code, text = run_cli("experiment", "fig6", *flags)
            assert code == 0
            assert "Figure 6" in text

    def test_experiment_all_honours_repro_full(self, monkeypatch):
        """``experiment all`` runs every artifact's paper config under
        REPRO_FULL=1."""
        from repro.experiments import report as report_mod

        class StubConfig:
            @classmethod
            def quick(cls):
                raise AssertionError("the quick config ran under REPRO_FULL=1")

            @classmethod
            def paper(cls):
                return "paper config"

        monkeypatch.setattr(
            report_mod, "ARTIFACTS",
            {"stub": (StubConfig, lambda config: config, lambda r: f"ran {r}")},
        )
        monkeypatch.setenv("REPRO_FULL", "1")
        code, text = run_cli("experiment", "all")
        assert code == 0
        assert "ran paper config" in text

    def test_execution_flags_leave_the_environment_as_found(self, monkeypatch):
        """--full and --jobs reach the command through os.environ; once
        main() returns, or raises, os.environ is what it was before."""
        from repro import cli
        from repro.errors import ConfigError
        from repro.experiments.ablations import AblationConfig
        from repro.experiments.runner import default_config

        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "3")
        before = dict(os.environ)
        seen = []

        def run(config):
            seen.append((os.environ.get("REPRO_FULL"), os.environ.get("REPRO_JOBS"),
                         config.runs))
            if len(seen) == 2:
                raise ConfigError("typed stub failure")
            if len(seen) == 3:
                raise RuntimeError("untyped stub failure")
            return "ran"

        monkeypatch.setattr(cli, "ARTIFACTS", {"fig6": (AblationConfig, run, str)})
        argv = ("experiment", "fig6", "--full", "--jobs", "2")
        assert run_cli(*argv) == (0, "ran\n")
        assert dict(os.environ) == before
        assert run_cli(*argv)[0] == 1
        assert dict(os.environ) == before
        with pytest.raises(RuntimeError):
            run_cli(*argv)
        assert dict(os.environ) == before
        assert seen == [("1", "2", AblationConfig.paper().runs)] * 3
        assert default_config(AblationConfig) == AblationConfig.quick()

    def test_ablation_runs(self, monkeypatch):
        from repro.experiments import ablations as abl

        monkeypatch.setattr(
            abl.AblationConfig, "quick",
            classmethod(
                lambda cls: cls(
                    num_instances=150, total_frames=150_000, num_chunks=8,
                    runs=2, frame_budget=500, target_results=50,
                )
            ),
        )
        code, text = run_cli("ablation", "batch")
        assert code == 0
        assert "batch=1" in text
