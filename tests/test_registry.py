"""The pluggable searcher registry (repro.core.registry).

New search methods register a factory under a name; the engine, the CLI
parser and the live ``SEARCH_METHODS`` view must all pick the registration
up without any engine edits — that is the whole point of the registry.
"""

import pytest

from repro.baselines import RandomSearcher
from repro.cli import build_parser
from repro.core.registry import (
    SEARCH_METHODS,
    SearcherSpec,
    register_searcher,
    searcher_spec,
    searcher_specs,
    unregister_searcher,
)
from repro.errors import ConfigError, QueryError
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery

from tests.conftest import make_tiny_dataset

BUILTIN_METHODS = (
    "exsample",
    "random",
    "randomplus",
    "sequential",
    "proxy",
    "oracle",
    "exsample_fusion",
)


class TestBuiltinRegistrations:
    def test_all_builtins_registered_in_historical_order(self):
        assert tuple(SEARCH_METHODS) == BUILTIN_METHODS

    def test_every_builtin_has_a_description(self):
        for spec in searcher_specs():
            assert isinstance(spec, SearcherSpec)
            assert spec.description, f"{spec.name} has no description"

    def test_specs_resolve_by_name(self):
        for name in BUILTIN_METHODS:
            assert searcher_spec(name).name == name


class TestLiveView:
    def test_sequence_protocol(self):
        assert len(SEARCH_METHODS) == len(tuple(SEARCH_METHODS))
        assert SEARCH_METHODS[0] == "exsample"
        assert "random" in SEARCH_METHODS
        assert "no_such_method" not in SEARCH_METHODS
        assert SEARCH_METHODS == BUILTIN_METHODS

    def test_view_is_live(self):
        @register_searcher("registry_test_live", description="temp")
        def _factory(ctx):  # pragma: no cover - never constructed
            raise AssertionError

        try:
            assert "registry_test_live" in SEARCH_METHODS
            assert tuple(SEARCH_METHODS)[-1] == "registry_test_live"
        finally:
            unregister_searcher("registry_test_live")
        assert "registry_test_live" not in SEARCH_METHODS


class TestRegistrationErrors:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_searcher("exsample")(lambda ctx: None)

    def test_duplicate_error_lists_available(self):
        with pytest.raises(ConfigError, match="random"):
            register_searcher("exsample")(lambda ctx: None)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            register_searcher("")

    def test_unknown_method_lists_available(self):
        with pytest.raises(QueryError) as excinfo:
            searcher_spec("definitely_not_a_method")
        message = str(excinfo.value)
        for name in BUILTIN_METHODS:
            assert name in message

    def test_engine_surfaces_unknown_method(self):
        engine = QueryEngine(make_tiny_dataset(seed=5), seed=5)
        with pytest.raises(QueryError, match="exsample"):
            engine.run(
                DistinctObjectQuery("car", limit=1), method="definitely_not_a_method"
            )

    def test_unregister_unknown_raises(self):
        with pytest.raises(QueryError, match="cannot unregister"):
            unregister_searcher("definitely_not_a_method")


class TestThirdPartyRegistration:
    """A plug-in method must work end to end without touching the engine."""

    def test_plugin_runs_through_engine_cli_and_view(self):
        built = {}

        @register_searcher(
            "registry_test_plugin",
            description="random under a new name",
            accepts_extras=True,
        )
        def _factory(ctx):
            built["extras"] = dict(ctx.extras)
            return RandomSearcher(ctx.env, rng=ctx.rngs, batch_size=ctx.batch())

        try:
            # Visible in the live view ...
            assert "registry_test_plugin" in SEARCH_METHODS
            # ... accepted by the CLI parser's --method choices ...
            args = build_parser().parse_args(
                [
                    "query",
                    "--dataset", "dashcam",
                    "--object", "person",
                    "--method", "registry_test_plugin",
                ]
            )
            assert args.method == "registry_test_plugin"
            # ... and runnable through the engine, extras included.
            engine = QueryEngine(make_tiny_dataset(seed=5), seed=5)
            outcome = engine.run(
                DistinctObjectQuery("car", limit=3),
                method="registry_test_plugin",
                batch_size=4,
                favourite_colour="teal",
            )
            assert outcome.num_results >= 3
            assert outcome.method == "registry_test_plugin"
            assert built["extras"] == {"favourite_colour": "teal"}
        finally:
            unregister_searcher("registry_test_plugin")

    def test_plugin_matches_builtin_given_same_rng_keying(self):
        """The registry adds no hidden state: a plug-in factory building
        RandomSearcher the same way produces byte-identical picks when the
        rng keying (which includes the method name) matches."""

        @register_searcher("registry_test_random_clone")
        def _factory(ctx):
            return RandomSearcher(ctx.env, rng=ctx.rngs, batch_size=ctx.batch())

        try:
            engine = QueryEngine(make_tiny_dataset(seed=6), seed=6)
            env = engine.environment("car", run_seed=1)
            clone = engine.make_searcher(
                "registry_test_random_clone", env, run_seed=1
            )
            picks_clone = [clone.pick_batch() for _ in range(5)]
            env2 = engine.environment("car", run_seed=1)
            builtin = engine.make_searcher("random", env2, run_seed=1)
            picks_builtin = [builtin.pick_batch() for _ in range(5)]
            # Streams are keyed by method name, so the sequences differ ...
            assert picks_clone != picks_builtin
            # ... but both are valid (chunk, frame) draws over the dataset.
            sizes = engine.dataset.chunk_map.sizes()
            for batch in picks_clone:
                for chunk, frame in batch:
                    assert 0 <= frame < sizes[chunk]
        finally:
            unregister_searcher("registry_test_random_clone")


class TestEngineFactoryParity:
    """make_searcher argument handling preserved across the redesign."""

    def test_batch_size_validation(self):
        engine = QueryEngine(make_tiny_dataset(seed=7), seed=7)
        env = engine.environment("car")
        with pytest.raises(QueryError, match="batch_size"):
            engine.make_searcher("random", env, batch_size=0)

    def test_misspelled_kwarg_fails_fast(self):
        """A typo must not silently run a misconfigured search."""
        engine = QueryEngine(make_tiny_dataset(seed=7), seed=7)
        env = engine.environment("car")
        with pytest.raises(QueryError, match="batchsize"):
            engine.make_searcher("random", env, batchsize=64)
        with pytest.raises(QueryError, match="unknown keyword"):
            engine.run(DistinctObjectQuery("car", limit=1), striide=3)

    def test_config_and_batch_size_conflict(self):
        from repro.core.config import ExSampleConfig

        engine = QueryEngine(make_tiny_dataset(seed=7), seed=7)
        for method in ("exsample", "exsample_fusion"):
            env = engine.environment("car")
            with pytest.raises(QueryError, match="inside the ExSampleConfig"):
                engine.make_searcher(
                    method, env, config=ExSampleConfig(), batch_size=8
                )

    def test_plugin_joins_method_sweeps(self):
        from repro.experiments.parallel import parallel_sweep_methods

        @register_searcher("registry_test_sweep")
        def _factory(ctx):
            return RandomSearcher(ctx.env, rng=ctx.rngs, batch_size=ctx.batch())

        try:
            engine = QueryEngine(make_tiny_dataset(seed=8), seed=8)
            outcomes = parallel_sweep_methods(
                engine, DistinctObjectQuery("car", limit=2), batch_size=8
            )
            assert tuple(outcomes) == tuple(SEARCH_METHODS)
            assert "registry_test_sweep" in outcomes
            assert outcomes["registry_test_sweep"].num_results >= 2
        finally:
            unregister_searcher("registry_test_sweep")

    def test_engineless_context_rejected_for_engine_coupled_methods(self):
        from repro.core.registry import SearcherContext
        from repro.utils.rng import RngFactory

        engine = QueryEngine(make_tiny_dataset(seed=7), seed=7)
        env = engine.environment("car")
        ctx = SearcherContext(engine=None, env=env, rngs=RngFactory(0))
        for method in ("sequential", "proxy", "oracle", "exsample_fusion"):
            with pytest.raises(QueryError, match=method):
                searcher_spec(method).factory(ctx)
