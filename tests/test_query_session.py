"""The resumable streaming QuerySession API (repro.query.session).

The acceptance bar for the redesign: for every registered method,
checkpoint-at-arbitrary-step → restore → finish must produce a SearchTrace
identical — chunks, frames, d0s/d1s, costs, results — to an uninterrupted
run, and ``QueryEngine.run`` must behave exactly like a session driven to
completion.
"""

import numpy as np
import pytest

from repro.core.environment import CallbackEnvironment, Observation
from repro.core.registry import SEARCH_METHODS
from repro.core.sampler import ExSampleSearcher, SearchRun
from repro.errors import QueryError
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.query.session import (
    CHECKPOINT_VERSION,
    BudgetExhausted,
    QuerySession,
    ResultFound,
    SampleBatch,
)

from tests.conftest import make_tiny_dataset


def assert_traces_identical(a, b):
    assert np.array_equal(a.chunks, b.chunks)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.d0s, b.d0s)
    assert np.array_equal(a.d1s, b.d1s)
    assert np.array_equal(a.costs, b.costs)
    assert a.results == b.results
    assert a.upfront_cost == b.upfront_cost
    assert a.searcher == b.searcher


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


QUERY = DistinctObjectQuery("car", limit=6)


class TestStreamEvents:
    def test_event_sequence_shape(self, engine):
        session = engine.session(QUERY, method="exsample", batch_size=4)
        events = list(session.stream())
        assert isinstance(events[-1], BudgetExhausted)
        assert events[-1].reason == "result_limit"
        assert sum(isinstance(e, BudgetExhausted) for e in events) == 1
        results = [e for e in events if isinstance(e, ResultFound)]
        assert len(results) == events[-1].num_results >= 6
        # Cumulative counters are monotonic and result numbering is dense.
        assert [e.num_results for e in results] == list(
            range(1, len(results) + 1)
        )
        batches = [e for e in events if isinstance(e, SampleBatch)]
        assert all(
            a.num_samples < b.num_samples for a, b in zip(batches, batches[1:])
        )
        assert batches[-1].num_samples == events[-1].num_samples

    def test_results_found_mid_batch_precede_their_batch_event(self, engine):
        session = engine.session(QUERY, method="exsample", batch_size=4)
        seen_samples = 0
        for event in session.stream():
            if isinstance(event, ResultFound):
                # Discovered at or before the batch frontier that follows.
                assert event.sample_index > seen_samples
            elif isinstance(event, SampleBatch):
                seen_samples = event.num_samples

    def test_stream_matches_blocking_run(self, engine):
        session = engine.session(QUERY, method="exsample", batch_size=4)
        for _ in session.stream():
            pass
        blocking = engine.run(QUERY, method="exsample", batch_size=4)
        assert_traces_identical(session.trace(), blocking.trace)
        assert session.outcome().num_results == blocking.num_results

    def test_pause_suspends_and_stream_resumes_losslessly(self, engine):
        reference = list(
            engine.session(QUERY, method="exsample", batch_size=4).stream()
        )
        session = engine.session(QUERY, method="exsample", batch_size=4)
        collected = []
        while not (session.finished and not session._pending):
            for event in session.stream():
                collected.append(event)
                session.pause()  # stop after every single event
            if collected and isinstance(collected[-1], BudgetExhausted):
                break
        assert collected == reference

    def test_step_returns_events_and_drains(self, engine):
        session = engine.session(QUERY, method="random", batch_size=8)
        all_events = []
        while not session.finished:
            all_events.extend(session.step())
        assert isinstance(all_events[-1], BudgetExhausted)
        assert session.step() == []


class TestCheckpointRestore:
    @pytest.mark.parametrize("method", tuple(SEARCH_METHODS))
    @pytest.mark.parametrize("cut_after", [1, 4, 11])
    def test_restore_finishes_byte_identical(self, engine, method, cut_after):
        """The acceptance criterion, for every registered method."""
        reference = engine.run(
            QUERY, method=method, run_seed=2, batch_size=3
        ).trace
        session = engine.session(QUERY, method=method, run_seed=2, batch_size=3)
        consumed = 0
        for _ in session.stream():
            consumed += 1
            if consumed >= cut_after:
                session.pause()
        blob = session.checkpoint()
        restored = QuerySession.restore(blob)
        assert restored.method == method
        assert restored.query == QUERY
        for _ in restored.stream():
            pass
        assert restored.finished
        assert_traces_identical(reference, restored.trace())

    @pytest.mark.parametrize("method", tuple(SEARCH_METHODS))
    def test_restore_after_first_picks_finishes_byte_identical(
        self, engine, method
    ):
        """Checkpoint after the first batch of picks, where chunk orders
        are freshest: random/oracle have built only the orders of the
        chunks they picked, and exsample orders have just made their
        first draw."""
        reference = engine.run(
            QUERY, method=method, run_seed=2, batch_size=3
        ).trace
        session = engine.session(QUERY, method=method, run_seed=2, batch_size=3)
        session.step()
        searcher = session.search_run.searcher
        if method in ("random", "oracle"):
            built = [o is not None for o in searcher._orders._orders]
            assert 0 < sum(built) < len(built)
        if method == "exsample":
            opened = [o for o in searcher._orders if o is not None]
            assert any(o.remaining == o.size - 1 for o in opened)
        restored = QuerySession.restore(session.checkpoint())
        for _ in restored.stream():
            pass
        assert restored.finished
        assert_traces_identical(reference, restored.trace())

    @pytest.mark.parametrize("method", tuple(SEARCH_METHODS))
    def test_restored_session_continues_event_stream(self, engine, method):
        """Events after restore continue the uninterrupted event sequence."""
        reference = list(
            engine.session(QUERY, method=method, run_seed=3, batch_size=5).stream()
        )
        session = engine.session(QUERY, method=method, run_seed=3, batch_size=5)
        collected = []
        for event in session.stream():
            collected.append(event)
            if len(collected) == 2:
                session.pause()
        restored = QuerySession.restore(session.checkpoint())
        collected.extend(restored.stream())
        assert collected == reference

    def test_checkpoint_to_disk_roundtrip(self, engine, tmp_path):
        path = tmp_path / "session.ckpt"
        reference = engine.run(QUERY, method="exsample", batch_size=4).trace
        session = engine.session(QUERY, method="exsample", batch_size=4)
        for _ in session.stream():
            session.pause()
        blob = session.checkpoint(str(path))
        assert path.read_bytes() == blob
        restored = QuerySession.restore(str(path))
        for _ in restored.stream():
            pass
        assert_traces_identical(reference, restored.trace())

    def test_checkpoint_of_finished_session_restores_finished(self, engine):
        session = engine.session(QUERY, method="random")
        for _ in session.stream():
            pass
        restored = QuerySession.restore(session.checkpoint())
        assert restored.finished
        assert list(restored.stream()) == []
        assert_traces_identical(session.trace(), restored.trace())

    def test_restore_rejects_garbage(self, tmp_path):
        with pytest.raises(QueryError):
            QuerySession.restore(b"not a checkpoint")
        with pytest.raises(QueryError):
            QuerySession.restore(
                __import__("pickle").dumps({"something": "else"})
            )

    def test_restore_rejects_future_version(self):
        import pickle

        blob = pickle.dumps({"version": 999})
        with pytest.raises(QueryError, match="version"):
            QuerySession.restore(blob)


class TestCheckpointEnvelope:
    """The envelope: digest-verified payload plus peekable metadata."""

    def _paused_session(self, engine):
        session = engine.session(QUERY, method="exsample", run_seed=5)
        for _ in session.stream():
            session.pause()
        return session

    def test_envelope_structure(self, engine):
        import hashlib
        import pickle

        blob = self._paused_session(engine).checkpoint()
        envelope = pickle.loads(blob)
        assert envelope["version"] == CHECKPOINT_VERSION
        assert set(envelope) == {"version", "meta", "digest", "payload"}
        assert set(envelope["meta"]) == {
            "method", "num_samples", "num_results", "total_cost",
        }
        assert isinstance(envelope["payload"], bytes)
        assert envelope["digest"] == hashlib.blake2b(
            envelope["payload"], digest_size=16
        ).hexdigest()

    def test_peek_matches_session_counters(self, engine):
        from repro.query.session import peek_checkpoint

        session = self._paused_session(engine)
        blob = session.checkpoint()
        info = peek_checkpoint(blob)
        assert info.version == CHECKPOINT_VERSION
        assert info.method == "exsample"
        assert info.num_samples == session.num_samples
        assert info.num_results == session.num_results
        assert info.total_cost == session.total_cost
        assert info.payload_bytes > 0
        assert info.payload_bytes < len(blob)

    def test_corrupted_payload_is_caught_by_digest(self, engine):
        from repro.query.session import peek_checkpoint

        blob = bytearray(self._paused_session(engine).checkpoint())
        # Flip one bit mid-blob: inside the payload bytes, so the outer
        # envelope still decodes and only the digest can catch it.
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(QueryError, match="digest mismatch"):
            QuerySession.restore(bytes(blob))
        # peek verifies before any restore attempt, too.
        with pytest.raises(QueryError, match="digest mismatch"):
            peek_checkpoint(bytes(blob))

    def test_large_world_checkpoint_carries_the_recipe(self):
        """A bdd1k 1.0 checkpoint holds the world as its builder recipe,
        not its ~2 MB of columns, and still finishes like a plain run."""
        from repro.video.datasets import make_dataset

        big = QueryEngine(make_dataset("bdd1k", scale=1.0, seed=0), seed=0)
        query = DistinctObjectQuery("motor", limit=20)
        session = big.session(query, method="exsample")
        for _ in session.stream():
            session.pause()
        blob = session.checkpoint()
        assert len(blob) <= 200_000
        restored = QuerySession.restore(blob)
        for _ in restored.stream():
            pass
        assert_traces_identical(
            restored.trace(), big.run(query, method="exsample").trace
        )

    def test_older_checkpoint_versions_are_refused(self, engine):
        """Older layouts get a typed QueryError, never an AttributeError.

        v1 blobs were flat dicts; v2 envelopes hold searchers in the
        layout before the uniform baselines built chunk orders lazily; v3
        envelopes hold a world pickled as a list of instance objects; v4
        envelopes hold a generator per chunk order and per track; v5
        envelopes hold large-repository searchers without chunk groups;
        v6 envelopes hold a built world as its columns, not its recipe.
        """
        import pickle

        from repro.query.session import peek_checkpoint

        session = self._paused_session(engine)
        v1_blob = pickle.dumps(
            {
                "version": 1,
                "query": session.query,
                "method": session.method,
                "gt_count": session.gt_count,
                "run": session._run,
                "pending": list(session._pending),
                "end_emitted": session._end_emitted,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        envelope = pickle.loads(session.checkpoint())
        older = []
        for version in (2, 3, 4, 5, 6):
            envelope["version"] = version
            older.append(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
        for blob in (v1_blob, *older):
            with pytest.raises(QueryError, match="version"):
                QuerySession.restore(blob)
            with pytest.raises(QueryError, match="version"):
                peek_checkpoint(blob)


class TestSearchRunStandalone:
    """SearchRun works over any environment, without an engine."""

    @staticmethod
    def _hit_env(sizes, modulus=5):
        def observe(chunk, frame):
            found = int((chunk * 991 + frame) % modulus == 0)
            return Observation(
                d0=found, d1=0, results=[chunk * 10_000 + frame] * found, cost=1.0
            )

        return CallbackEnvironment(sizes, observe)

    def test_begin_step_matches_run(self):
        searcher_a = ExSampleSearcher(self._hit_env([60, 60]), rng=1)
        trace_a = searcher_a.run(result_limit=5)
        searcher_b = ExSampleSearcher(self._hit_env([60, 60]), rng=1)
        run = searcher_b.begin(result_limit=5)
        steps = 0
        while not run.finished:
            run.step()
            steps += 1
        assert steps >= 1
        assert run.reason == "result_limit"
        assert_traces_identical(trace_a, run.trace())

    def test_exhaustion_reason(self):
        searcher = ExSampleSearcher(self._hit_env([10, 10]), rng=0)
        run = searcher.begin(result_limit=10_000)
        while not run.finished:
            run.step()
        assert run.reason == "exhausted"
        assert run.num_samples == 20

    def test_frame_budget_and_cost_budget_reasons(self):
        searcher = ExSampleSearcher(self._hit_env([50, 50]), rng=0)
        run = searcher.begin(frame_budget=7)
        while not run.finished:
            run.step()
        assert run.reason == "frame_budget"
        assert run.num_samples == 7

        searcher = ExSampleSearcher(self._hit_env([50, 50]), rng=0)
        run = searcher.begin(cost_budget=4.5)
        while not run.finished:
            run.step()
        assert run.reason == "cost_budget"
        assert run.total_cost >= 4.5

    def test_step_after_finish_is_a_noop(self):
        searcher = ExSampleSearcher(self._hit_env([10, 10]), rng=0)
        run = searcher.begin(frame_budget=3)
        while not run.finished:
            run.step()
        before = run.num_samples
        step = run.step()
        assert step.finished and step.picks == []
        assert run.num_samples == before

    def test_session_without_query_has_no_outcome(self):
        searcher = ExSampleSearcher(self._hit_env([10, 10]), rng=0)
        session = QuerySession(SearchRun(searcher, frame_budget=5))
        for _ in session.stream():
            pass
        assert session.trace().num_samples == 5
        with pytest.raises(QueryError, match="no query"):
            session.outcome()


class TestRunMany:
    def test_round_robin_matches_solo_runs(self, engine):
        queries = [
            DistinctObjectQuery("car", limit=4),
            DistinctObjectQuery("bicycle", limit=3),
            DistinctObjectQuery("dog", limit=2),
        ]
        outcomes = engine.run_many(queries, method="exsample", batch_size=4)
        for seed, (query, outcome) in enumerate(zip(queries, outcomes)):
            solo = engine.run(
                query, method="exsample", run_seed=seed, batch_size=4
            )
            assert_traces_identical(outcome.trace, solo.trace)

    def test_mixed_methods_per_query(self, engine):
        queries = [
            DistinctObjectQuery("car", limit=3),
            DistinctObjectQuery("car", limit=3),
        ]
        outcomes = engine.run_many(queries, method=["exsample", "random"])
        assert [o.method for o in outcomes] == ["exsample", "random"]
        for outcome in outcomes:
            assert outcome.num_results >= 3

    def test_misaligned_arguments_rejected(self, engine):
        queries = [DistinctObjectQuery("car", limit=2)]
        with pytest.raises(QueryError, match="methods"):
            engine.run_many(queries, method=["exsample", "random"])
        with pytest.raises(QueryError, match="run_seeds"):
            engine.run_many(queries, run_seeds=[0, 1])


class TestEngineRunParity:
    """engine.run is now a session wrapper; its semantics must not move."""

    def test_recall_target_uses_distinct_real_limit(self, engine):
        outcome = engine.run(
            DistinctObjectQuery("car", recall_target=0.2, frame_budget=2400),
            method="exsample",
        )
        gt = engine.dataset.gt_count("car")
        assert outcome.trace.num_samples <= 2400
        # the unique-real stop must have been reachable
        assert outcome.gt_count == gt

    def test_unknown_class_still_raises(self, engine):
        with pytest.raises(QueryError, match="not in dataset"):
            engine.run(DistinctObjectQuery("submarine", limit=1))
