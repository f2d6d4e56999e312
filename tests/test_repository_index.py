"""Tests for the persistent repository index (:mod:`repro.index`).

The acceptance bar, layer by layer:

* the store itself — digest-checked segments, count aggregation across
  records, corrupted-file resilience, vacuum compaction under an advisory
  lock, path-only pickling;
* engine integration — completed sessions record their knowledge, exact
  repeats short-circuit to the recorded outcome with **zero** detector
  calls, non-repeats warm-start from aggregated per-chunk counts;
* invalidation — an index built against one world/detector identity is
  *ignored* (logged warning, never a crash, never adopted rows) when the
  world mutates or the detector seed changes;
* sharing — the serving path records through the same hook, and one index
  directory serves a whole fleet of shard processes.
"""

import logging
import os
import pickle

import numpy as np
import pytest

from repro.core.config import ExSampleConfig
from repro.core.sampler import STREAM_VERSION, SearchTrace
from repro.errors import ConfigError
from repro.index import (
    INDEX_VERSION,
    RepositoryIndex,
    canonical_query_digest,
    chunk_signature,
    counts_from_trace,
    make_repository_index,
)
from repro.index import store as index_store
from repro.query.engine import QueryEngine, ReplaySession
from repro.query.query import DistinctObjectQuery

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical


def _trace(chunks, d0s=None, d1s=None):
    """A minimal hand-built trace for store-level tests."""
    chunks = np.asarray(chunks, dtype=np.int64)
    n = chunks.size
    return SearchTrace(
        chunks=chunks,
        frames=np.zeros(n, dtype=np.int64),
        d0s=np.asarray(d0s if d0s is not None else np.ones(n), dtype=np.int64),
        d1s=np.asarray(d1s if d1s is not None else np.zeros(n), dtype=np.int64),
        costs=np.full(n, 0.05),
        results=[],
        searcher="exsample",
    )


# ---------------------------------------------------------------------------
# Store unit tests: digests, merging, resilience, vacuum, pickling.
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_chunk_signature_deterministic_and_sensitive(self):
        assert chunk_signature([30, 30, 12]) == chunk_signature([30, 30, 12])
        assert chunk_signature([30, 30, 12]) != chunk_signature([30, 30, 13])
        assert chunk_signature([30, 30, 12]) != chunk_signature([30, 30])

    def test_counts_from_trace_local_accounting(self):
        trace = _trace([0, 2, 2, 0], d0s=[1, 2, 0, 0], d1s=[0, 1, 0, 1])
        n, n1 = counts_from_trace(trace, num_chunks=4)
        assert n.tolist() == [2, 0, 2, 0]
        # chunk 0: (1-0) + (0-1) = 0; chunk 2: (2-1) + (0-0) = 1
        assert n1.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_counts_from_empty_trace(self):
        n, n1 = counts_from_trace(_trace([]), num_chunks=3)
        assert n.tolist() == [0, 0, 0]
        assert n1.tolist() == [0.0, 0.0, 0.0]

    def test_query_digest_sensitivity(self, monkeypatch):
        base = dict(
            scope="s1",
            chunk_sig="c1",
            engine_seed=0,
            cost_model=None,
            method="exsample",
            run_seed=0,
            query=DistinctObjectQuery("car", limit=4),
            config=None,
        )
        digest = canonical_query_digest(**base)
        assert digest == canonical_query_digest(**base)
        for key, value in [
            ("scope", "s2"),
            ("chunk_sig", "c2"),
            ("engine_seed", 1),
            ("method", "random"),
            ("run_seed", 1),
            ("query", DistinctObjectQuery("car", limit=5)),
            ("config", ExSampleConfig()),
        ]:
            assert canonical_query_digest(**{**base, key: value}) != digest
        assert (
            canonical_query_digest(**base, searcher_kwargs={"batch_size": 4})
            != digest
        )
        # Another version of the search's random streams.
        monkeypatch.setattr(index_store, "STREAM_VERSION", STREAM_VERSION + 1)
        assert canonical_query_digest(**base) != digest

    def test_make_repository_index_specs(self, tmp_path):
        assert make_repository_index(None) is None
        index = make_repository_index(str(tmp_path / "idx"))
        assert isinstance(index, RepositoryIndex)
        assert make_repository_index(index) is index
        with pytest.raises(ConfigError):
            make_repository_index(42)


class TestStore:
    def test_counts_sum_across_records(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        key = ("scope", "car", "sig")
        index.record_session(
            scope="scope", class_name="car", chunk_sig="sig", num_chunks=3,
            trace=_trace([0, 1], d0s=[1, 0], d1s=[0, 0]),
        )
        index.record_session(
            scope="scope", class_name="car", chunk_sig="sig", num_chunks=3,
            trace=_trace([1, 1], d0s=[2, 0], d1s=[0, 0]),
        )
        n, n1 = index.counts_for(*key)
        assert n.tolist() == [1, 3, 0]
        assert n1.tolist() == [1.0, 2.0, 0.0]

    def test_counts_for_misses(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        assert index.counts_for("scope", "car", "sig") is None
        index.record_session(
            scope="scope", class_name="car", chunk_sig="sig", num_chunks=2,
            trace=_trace([0]),
        )
        assert index.counts_for("scope", "dog", "sig") is None
        assert index.counts_for("other", "car", "sig") is None
        assert index.counts_for("scope", "car", "other") is None

    def test_outcome_first_write_wins(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        for blob in (b"first", b"second"):
            index.record_session(
                scope="s", class_name="car", chunk_sig="c", num_chunks=1,
                trace=_trace([0]), query_digest="q1", outcome_blob=blob,
                reason="result_limit",
            )
        record = index.outcome_for("q1")
        assert record["blob"] == b"first"
        assert record["reason"] == "result_limit"
        assert index.outcome_for("missing") is None

    def test_corrupted_segment_is_skipped_with_warning(self, tmp_path, caplog):
        index = RepositoryIndex(str(tmp_path))
        index.record_session(
            scope="s", class_name="car", chunk_sig="c", num_chunks=1,
            trace=_trace([0]),
        )
        seg_dir = tmp_path / "segments"
        (seg_dir / "seg-0-garbage.bin").write_bytes(b"not a pickle at all")
        with caplog.at_level(logging.WARNING, logger="repro.index"):
            stats = index.stats()
        assert stats.skipped_files == 1
        assert stats.count_keys == 1  # the good segment still reads
        assert any("skipping" in r.message for r in caplog.records)

    def test_digest_mismatch_is_skipped(self, tmp_path, caplog):
        index = RepositoryIndex(str(tmp_path))
        payload = pickle.dumps({"counts": {}, "detections": {}, "outcomes": {}})
        envelope = {
            "version": INDEX_VERSION,
            "meta": {},
            "digest": "0" * 32,
            "payload": payload,
        }
        with open(tmp_path / "segments" / "seg-0-bad.bin", "wb") as handle:
            pickle.dump(envelope, handle)
        with caplog.at_level(logging.WARNING, logger="repro.index"):
            stats = index.stats()
        assert stats.skipped_files == 1
        assert any("digest mismatch" in r.message for r in caplog.records)

    def test_vacuum_compacts_without_losing_knowledge(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        for seed in range(3):
            index.record_session(
                scope="s", class_name="car", chunk_sig="c", num_chunks=2,
                trace=_trace([seed % 2]), query_digest=f"q{seed}",
                outcome_blob=f"blob{seed}".encode(), reason="result_limit",
            )
        before = index.stats()
        after = index.vacuum()
        assert before.segment_files == 3 and after.segment_files == 0
        assert after.compacted
        assert (after.count_keys, after.outcomes) == (
            before.count_keys, before.outcomes,
        )
        n_before = index.counts_for("s", "car", "c")
        assert n_before[0].tolist() == [2, 1]
        for seed in range(3):
            assert index.outcome_for(f"q{seed}")["blob"] == f"blob{seed}".encode()
        # Segments recorded after a vacuum merge on top of the compacted
        # store, and a second vacuum folds them in.
        index.record_session(
            scope="s", class_name="car", chunk_sig="c", num_chunks=2,
            trace=_trace([1]),
        )
        n, _ = index.counts_for("s", "car", "c")
        assert n.tolist() == [2, 2]
        assert index.vacuum().segment_files == 0

    def test_vacuum_lock_is_advisory_and_exclusive(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        lock = tmp_path / "vacuum.lock"
        lock.write_text("12345")
        with pytest.raises(ConfigError, match="another vacuum"):
            index.vacuum()
        lock.unlink()
        index.vacuum()
        assert not lock.exists()  # released on completion

    def test_pickles_as_path_only_and_reopens(self, tmp_path):
        index = RepositoryIndex(str(tmp_path))
        index.record_session(
            scope="s", class_name="car", chunk_sig="c", num_chunks=1,
            trace=_trace([0]),
        )
        index._load()  # populate the in-memory merge cache
        clone = pickle.loads(pickle.dumps(index))
        assert clone.path == index.path
        assert clone._cache_state is None  # contents did not travel
        n, _ = clone.counts_for("s", "car", "c")
        assert n.tolist() == [1]

    def test_writers_never_share_files(self, tmp_path):
        index_a = RepositoryIndex(str(tmp_path))
        index_b = RepositoryIndex(str(tmp_path))
        index_a.record_session(
            scope="s", class_name="car", chunk_sig="c", num_chunks=1,
            trace=_trace([0]),
        )
        index_b.record_session(
            scope="s", class_name="car", chunk_sig="c", num_chunks=1,
            trace=_trace([0]),
        )
        # Both writes landed as distinct segments and both are readable
        # from either handle — the append-only format needs no lock.
        assert index_a.stats().segment_files == 2
        n, _ = index_b.counts_for("s", "car", "c")
        assert n.tolist() == [2]


# ---------------------------------------------------------------------------
# Engine integration: record, replay, warm-start.
# ---------------------------------------------------------------------------


@pytest.fixture()
def dataset():
    return make_tiny_dataset(seed=6)


QUERY = DistinctObjectQuery("bicycle", limit=4)


class TestEngineRecording:
    def test_completed_run_records_all_three_layers(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        outcome = engine.run(QUERY, run_seed=0)
        stats = engine.index.stats()
        assert stats.outcomes == 1
        assert stats.total_samples == outcome.trace.num_samples
        assert stats.detection_rows == outcome.trace.num_samples
        scope = engine.detector.cache_scope()
        assert stats.scopes == (scope,)

    def test_detection_rows_preload_into_fresh_engine(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        outcome = engine.run(QUERY, run_seed=0)
        fresh = QueryEngine(dataset, seed=6, index=str(tmp_path))
        assert len(fresh.detection_cache) == outcome.trace.num_samples

    def test_recording_failure_never_breaks_the_query(
        self, dataset, tmp_path, monkeypatch, caplog
    ):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))

        def boom(**kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(engine.index, "record_session", boom)
        with caplog.at_level(logging.WARNING):
            outcome = engine.run(QUERY, run_seed=0)
        assert outcome.num_results >= 4
        assert any("on_complete" in r.message for r in caplog.records)

    def test_index_off_by_default(self, dataset):
        engine = QueryEngine(dataset, seed=6)
        assert engine.index is None
        session = engine.session(QUERY, run_seed=0)
        assert session.on_complete is None


class TestReplay:
    def test_exact_repeat_replays_with_zero_detector_calls(
        self, dataset, tmp_path
    ):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        cold = engine.run(QUERY, run_seed=0)
        repeat = QueryEngine(dataset, seed=6, index=str(tmp_path))
        session = repeat.session(QUERY, run_seed=0)
        assert isinstance(session, ReplaySession)
        assert session.replayed
        replayed = session.run_to_completion()
        assert repeat.detector.detect_calls == 0
        assert_traces_identical(replayed.trace, cold.trace)
        # Byte-identity: the replay carries the exact bytes the original
        # live run serialised to.
        assert session.outcome_blob == pickle.dumps(
            cold, protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_replay_streams_the_original_terminal_event(
        self, dataset, tmp_path
    ):
        from repro.query.session import BudgetExhausted

        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        cold = engine.run(QUERY, run_seed=0)
        session = engine.session(QUERY, run_seed=0)
        events = list(session.stream())
        assert len(events) == 1
        assert isinstance(events[0], BudgetExhausted)
        assert events[0].num_samples == cold.trace.num_samples

    def test_replay_does_not_re_record(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        engine.run(QUERY, run_seed=0)
        engine.run(QUERY, run_seed=0)  # replay
        assert engine.index.stats().outcomes == 1

    def test_digest_misses_run_live(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        engine.run(QUERY, run_seed=0)
        for kwargs in (
            {"run_seed": 1},
            {"run_seed": 0, "method": "random"},
        ):
            assert not engine.session(QUERY, **kwargs).replayed
        other_query = DistinctObjectQuery("bicycle", limit=3)
        assert not engine.session(other_query, run_seed=0).replayed

    def test_outcome_recorded_under_other_streams_runs_live(
        self, dataset, tmp_path, monkeypatch
    ):
        """An outcome recorded under another stream version is never
        replayed; its counts and detection rows still warm the live run,
        which records an outcome that the next repeat replays."""
        with monkeypatch.context() as patch:
            patch.setattr(index_store, "STREAM_VERSION", STREAM_VERSION - 1)
            old = QueryEngine(dataset, seed=6, index=str(tmp_path))
            old.run(QUERY, run_seed=0)
            assert old.session(QUERY, run_seed=0).replayed
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        assert len(engine.detection_cache) > 0
        session = engine.session(QUERY, run_seed=0)
        assert not session.replayed
        assert isinstance(session.search_run.searcher.config.alpha0, np.ndarray)
        live = session.run_to_completion()
        assert engine.index.stats().outcomes == 2
        repeat = engine.session(QUERY, run_seed=0)
        assert repeat.replayed
        assert_traces_identical(repeat.run_to_completion().trace, live.trace)

    def test_different_engine_seed_never_replays(self, dataset, tmp_path):
        QueryEngine(dataset, seed=6, index=str(tmp_path)).run(QUERY, run_seed=0)
        other = QueryEngine(dataset, seed=7, index=str(tmp_path))
        session = other.session(QUERY, run_seed=0)
        assert not session.replayed


class TestWarmStart:
    def test_warm_run_gets_vector_priors_from_counts(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        cold = engine.run(QUERY, run_seed=0)
        warm_session = engine.session(QUERY, run_seed=1)
        config = warm_session.search_run.searcher.config
        num_chunks = dataset.chunk_map.sizes().size
        assert isinstance(config.alpha0, np.ndarray)
        assert config.alpha0.shape == (num_chunks,)
        assert isinstance(config.beta0, np.ndarray)
        # The recorded samples are the prior's pseudo-observations.
        assert float(np.sum(config.beta0)) == pytest.approx(
            num_chunks * 1.0 + cold.trace.num_samples
        )
        warm = warm_session.run_to_completion()
        assert warm.num_results >= 4

    def test_warm_start_reaches_target_with_fewer_samples(
        self, dataset, tmp_path
    ):
        """On the hotspot-skewed class, earned knowledge must pay off.

        Any single seed pair can be lucky either way, so the claim is
        aggregated over several run seeds — deterministic given the seeds.
        Warm runs record as they go, so later seeds are progressively
        warmer; that compounding is the index working as designed.
        """
        cold_engine = QueryEngine(dataset, seed=6)
        cold = sum(
            cold_engine.run(QUERY, run_seed=s).trace.num_samples
            for s in range(1, 7)
        )
        warm_engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        warm_engine.run(QUERY, run_seed=0)  # seeds the index
        warm = sum(
            warm_engine.run(QUERY, run_seed=s).trace.num_samples
            for s in range(1, 7)
        )
        assert warm < cold

    def test_explicit_config_suppresses_warm_start(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        engine.run(QUERY, run_seed=0)
        config = ExSampleConfig(seed=1)
        session = engine.session(QUERY, run_seed=1, config=config)
        assert session.search_run.searcher.config is config

    def test_warm_start_folds_batch_size(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        engine.run(QUERY, run_seed=0)
        session = engine.session(QUERY, run_seed=1, batch_size=4)
        config = session.search_run.searcher.config
        assert config.batch_size == 4
        assert isinstance(config.alpha0, np.ndarray)

    def test_other_classes_start_uniform(self, dataset, tmp_path):
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        engine.run(QUERY, run_seed=0)
        session = engine.session(
            DistinctObjectQuery("car", limit=3), run_seed=0
        )
        config = session.search_run.searcher.config
        assert np.ndim(config.alpha0) == 0


# ---------------------------------------------------------------------------
# Invalidation: a stale index is ignored with a warning, never adopted.
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_mutated_world_ignores_index(self, dataset, tmp_path, caplog):
        QueryEngine(dataset, seed=6, index=str(tmp_path)).run(QUERY, run_seed=0)
        mutated = make_tiny_dataset(seed=7)  # different world content
        with caplog.at_level(logging.WARNING, logger="repro.index"):
            engine = QueryEngine(mutated, seed=6, index=str(tmp_path))
        assert any("ignoring the index" in r.message for r in caplog.records)
        assert len(engine.detection_cache) == 0  # nothing preloaded
        session = engine.session(QUERY, run_seed=0)
        assert not session.replayed  # different scope -> different digest
        assert np.ndim(session.search_run.searcher.config.alpha0) == 0

    def test_different_detector_seed_ignores_index(
        self, dataset, tmp_path, caplog
    ):
        QueryEngine(dataset, seed=6, index=str(tmp_path)).run(QUERY, run_seed=0)
        with caplog.at_level(logging.WARNING, logger="repro.index"):
            engine = QueryEngine(dataset, seed=13, index=str(tmp_path))
        assert any("ignoring the index" in r.message for r in caplog.records)
        outcome = engine.run(QUERY, run_seed=0)  # runs fine, no crash
        assert outcome.num_results >= 4
        # Both identities now coexist in one directory, cleanly keyed.
        assert len(engine.index.stats().scopes) == 2

    def test_foreign_knowledge_matches_fresh_run_exactly(
        self, dataset, tmp_path
    ):
        """An ignored index must leave traces byte-identical to no index."""
        QueryEngine(dataset, seed=6, index=str(tmp_path)).run(QUERY, run_seed=0)
        bare = QueryEngine(dataset, seed=13).run(QUERY, run_seed=0)
        indexed = QueryEngine(dataset, seed=13, index=str(tmp_path)).run(
            QUERY, run_seed=0
        )
        assert_traces_identical(bare.trace, indexed.trace)


# ---------------------------------------------------------------------------
# Serving: the event-loop driver records through the same hook.
# ---------------------------------------------------------------------------


class TestServingIntegration:
    def test_run_many_records_and_replays(self, dataset, tmp_path):
        queries = [
            DistinctObjectQuery("bicycle", limit=3),
            DistinctObjectQuery("car", limit=3),
        ]
        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        first = engine.run_many(queries)
        assert engine.index.stats().outcomes == 2
        repeat_engine = QueryEngine(dataset, seed=6, index=str(tmp_path))
        second = repeat_engine.run_many(queries)
        assert repeat_engine.detector.detect_calls == 0
        for a, b in zip(first, second):
            assert_traces_identical(a.trace, b.trace)

    def test_server_submit_records(self, dataset, tmp_path):
        import asyncio

        engine = QueryEngine(dataset, seed=6, index=str(tmp_path))

        async def _go():
            server = engine.serve()
            handle = await server.submit(QUERY, run_seed=0)
            await handle.result()
            await server.drain()

        asyncio.run(_go())
        assert engine.index.stats().outcomes == 1


class TestFleetSharedIndex:
    def test_one_index_serves_every_shard(self, tmp_path):
        from repro.serving.fleet import FleetConfig, outcome_of, run_fleet
        from repro.serving.workload import WorkloadItem

        dataset = make_tiny_dataset(seed=11)
        items = [
            WorkloadItem(object="car", limit=3, method="exsample",
                         run_seed=seed, tenant=f"t{seed}")
            for seed in range(3)
        ]
        config = FleetConfig(n_shards=2, index=str(tmp_path / "idx"))
        summaries, _ = run_fleet(dataset, items, config=config, engine_seed=11)
        assert all(s["state"] == "finished" for s in summaries)
        index = RepositoryIndex(str(tmp_path / "idx"))
        assert index.stats().outcomes == 3
        # Knowledge earned inside the fleet replays on a solo engine built
        # against the same dataset and engine seed.
        solo = QueryEngine(dataset, seed=11, index=str(tmp_path / "idx"))
        session = solo.session(items[0].query(), run_seed=0)
        assert session.replayed
        replayed = session.run_to_completion()
        assert solo.detector.detect_calls == 0
        assert_traces_identical(
            replayed.trace, outcome_of(summaries[0]).trace
        )


# ---------------------------------------------------------------------------
# CLI: index build | stats | vacuum, and --index on query.
# ---------------------------------------------------------------------------


class TestIndexCli:
    def test_build_stats_vacuum_round_trip(self, tmp_path, capsys):
        import io

        from repro.cli import main

        path = str(tmp_path / "idx")
        args = ["--path", path, "--dataset", "dashcam",
                "--object", "traffic light", "--limit", "4",
                "--runs", "2", "--scale", "0.02"]
        out = io.StringIO()
        assert main(["index", "build", *args], out=out) == 0
        assert "live" in out.getvalue()
        out = io.StringIO()
        assert main(["index", "stats", "--path", path], out=out) == 0
        assert "2 recorded outcome(s)" in out.getvalue()
        out = io.StringIO()
        assert main(["index", "vacuum", "--path", path], out=out) == 0
        assert "compacted store" in out.getvalue()
        # A rebuilt run over the vacuumed index replays both seeds.
        out = io.StringIO()
        assert main(["index", "build", *args], out=out) == 0
        assert out.getvalue().count("replayed") == 2

    def test_query_index_flag(self, tmp_path):
        import io

        from repro.cli import main

        path = str(tmp_path / "idx")
        args = ["query", "--dataset", "dashcam", "--object", "traffic light",
                "--limit", "4", "--scale", "0.02", "--index", path]
        first, second = io.StringIO(), io.StringIO()
        assert main(args, out=first) == 0
        assert main(args, out=second) == 0
        assert first.getvalue() == second.getvalue()
        assert RepositoryIndex(path).stats().outcomes == 1
