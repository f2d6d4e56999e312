"""The async serving layer (repro.serving) and the request/fulfil split.

The acceptance bar, mirroring the session-API redesign's: serving must be
*invisible* in the results. A session run on a loaded ``QueryServer`` —
its detection fused with seven other tenants' requests, paused and
checkpointed mid-flight — must produce a trace byte-identical to the same
``(query, method, run_seed)`` run solo. What serving *is* allowed to
change (and must, to be worth having) is the detector-call schedule:
fewer, larger fused calls.

Every async test drives a private event loop via ``asyncio.run`` — the
suite stays dependency-free and runs unmodified under
``PYTHONASYNCIODEBUG=1`` (a CI job does exactly that).
"""

import asyncio
import math

import pytest

from repro.core.environment import FrameRequest, propose_frames
from repro.core.registry import SEARCH_METHODS
from repro.core.sampler import ExSampleSearcher
from repro.errors import (
    ConfigError,
    QueryError,
    ServerDrainingError,
    ServerOverloadedError,
)
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.query.session import QuerySession
from repro.serving import (
    DetectorBatcher,
    ServerConfig,
    WorkloadItem,
    load_workload,
    replay,
    save_workload,
    serve_sessions,
)

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


def fresh_engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


QUERY = DistinctObjectQuery("car", limit=5)


# ---------------------------------------------------------------------------
# The request/fulfil split on the environment and the SearchRun.
# ---------------------------------------------------------------------------


class TestRequestFulfilSplit:
    def test_observe_batch_equals_propose_then_ingest(self, engine):
        """The blocking path is exactly the composition of the halves."""
        picks = [(0, 3), (1, 7), (0, 4), (5, 0)]
        env_a = engine.environment("car", run_seed=0)
        env_b = engine.environment("car", run_seed=0)
        via_observe = env_a.observe_batch(picks)
        request = env_b.propose_batch(picks)
        assert isinstance(request, FrameRequest)
        assert request.picks == picks
        assert request.class_filter == "car"
        assert len(request) == len(picks)
        via_split = env_b.ingest_batch(request, env_b.detect_request(request))
        assert [(o.d0, o.d1, o.cost, o.results) for o in via_observe] == [
            (o.d0, o.d1, o.cost, o.results) for o in via_split
        ]

    def test_propose_touches_no_detector_or_discriminator_state(self, engine):
        env = engine.environment("car", run_seed=0)
        calls_before = engine.detector.detect_calls
        frames_before = engine.detector.frames_processed
        request = env.propose_batch([(0, 1), (2, 2)])
        assert engine.detector.detect_calls == calls_before
        assert engine.detector.frames_processed == frames_before
        assert len(request.videos) == 2

    def test_ingest_rejects_misaligned_detections(self, engine):
        env = engine.environment("car", run_seed=0)
        request = env.propose_batch([(0, 1), (2, 2)])
        with pytest.raises(QueryError, match="detection lists"):
            env.ingest_batch(request, [[]])

    def test_propose_frames_dispatch(self, engine):
        env = engine.environment("car", run_seed=0)
        assert propose_frames(env, [(0, 1)]) is not None

        class NoSplit:
            pass

        assert propose_frames(NoSplit(), [(0, 1)]) is None

    def test_manual_propose_fulfil_equals_step(self, engine):
        """Driving the split by hand reproduces step()'s trace exactly."""
        reference = engine.run(QUERY, method="exsample", run_seed=4,
                               batch_size=3).trace
        session = fresh_engine().session(
            QUERY, method="exsample", run_seed=4, batch_size=3
        )
        run = session.search_run
        env = run.searcher.env
        while True:
            proposal = run.propose()
            if proposal is None:
                break
            detections = env.detect_request(proposal.request)
            observations = env.ingest_batch(proposal.request, detections)
            run.fulfil(proposal, observations)
        assert run.finished
        assert_traces_identical(reference, run.trace())

    def test_double_propose_rejected(self, engine):
        run = fresh_engine().session(QUERY, run_seed=0).search_run
        proposal = run.propose()
        assert proposal is not None
        with pytest.raises(RuntimeError, match="outstanding"):
            run.propose()
        env = run.searcher.env
        run.fulfil(
            proposal,
            env.ingest_batch(
                proposal.request, env.detect_request(proposal.request)
            ),
        )
        assert run.propose() is not None  # boundary reached, propose again

    def test_fulfil_without_proposal_rejected(self, engine):
        run = fresh_engine().session(QUERY, run_seed=0).search_run
        from repro.core.sampler import StepProposal

        with pytest.raises(RuntimeError, match="no outstanding"):
            run.fulfil(StepProposal(picks=[(0, 0)], request=None), [])

    def test_propose_on_exhausted_searcher_sets_reason(self):
        """pick_batch() returning [] finishes the run through propose()."""
        env = fresh_engine().environment("car", run_seed=0)
        searcher = ExSampleSearcher(env)
        run = searcher.begin()  # no explicit limit: budget = every frame
        while True:
            proposal = run.propose()
            if proposal is None:
                break
            detections = env.detect_request(proposal.request)
            run.fulfil(proposal, env.ingest_batch(proposal.request, detections))
        assert run.finished
        assert run.reason in ("frame_budget", "exhausted")
        assert run.propose() is None  # terminal: stays None


# ---------------------------------------------------------------------------
# Server outcomes are identical to solo runs.
# ---------------------------------------------------------------------------


class TestServerIdentity:
    @pytest.mark.parametrize("method", tuple(SEARCH_METHODS))
    def test_server_outcome_identical_to_solo(self, method):
        """Acceptance criterion: serving never changes a trace, any method."""
        solo_engine = fresh_engine()
        reference = solo_engine.run(
            QUERY, method=method, run_seed=2, batch_size=3
        ).trace

        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=8)
            # Load the server: the probed session shares the detector with
            # three concurrent neighbours.
            neighbours = [
                await server.submit(
                    DistinctObjectQuery("car", limit=3),
                    run_seed=10 + i,
                    batch_size=4,
                )
                for i in range(3)
            ]
            probe = await server.submit(
                QUERY, method=method, run_seed=2, batch_size=3
            )
            outcome = await probe.result()
            for handle in neighbours:
                await handle.result()
            return outcome

        outcome = asyncio.run(go())
        assert_traces_identical(reference, outcome.trace)

    def test_run_many_is_server_backed_and_identical(self):
        engine = fresh_engine()
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

    def test_run_many_works_inside_a_running_event_loop(self):
        """Jupyter/async-app parity: the historical run_many was plain
        synchronous code that worked anywhere; the server-backed one hosts
        its loop on a worker thread when one is already running."""
        engine = fresh_engine()
        queries = [DistinctObjectQuery("car", limit=3) for _ in range(2)]
        outside = engine.run_many(queries, batch_size=4)

        async def go():
            return engine.run_many(queries, batch_size=4)

        inside = asyncio.run(go())
        for a, b in zip(outside, inside):
            assert_traces_identical(a.trace, b.trace)

    def test_run_many_never_reprs_its_outcomes(self, monkeypatch):
        """Teardown regression: on the main thread, asyncio.run restores
        SIGINT through signal.getsignal/signal.signal, which build a
        message holding the repr() of the finished main task, result
        included. A main task returning the outcomes paid for a repr of
        every QueryOutcome, numpy traces and all, twice per call."""
        import threading

        from repro.query.engine import QueryOutcome

        assert threading.current_thread() is threading.main_thread()
        calls = []
        original = QueryOutcome.__repr__

        def counting_repr(outcome):
            calls.append(outcome)
            return original(outcome)

        monkeypatch.setattr(QueryOutcome, "__repr__", counting_repr)
        engine = fresh_engine()
        queries = [DistinctObjectQuery("car", limit=3) for _ in range(2)]
        outcomes = engine.run_many(queries, batch_size=4)
        assert len(outcomes) == 2
        assert calls == []

    def test_serve_sessions_propagates_errors_from_inner_loop(self, engine):
        async def go():
            with pytest.raises(QueryError, match="exactly one"):
                # A bogus "session" object fails inside submit; the error
                # must cross the worker-thread boundary intact.
                serve_sessions([None], engine=engine)

        asyncio.run(go())

    def test_batching_disabled_identical_outcomes_more_calls(self):
        queries = [DistinctObjectQuery("car", limit=3) for _ in range(4)]

        fused_engine = fresh_engine()
        fused = fused_engine.run_many(queries, batch_size=4)
        fused_calls = fused_engine.detector.detect_calls

        plain_engine = fresh_engine()
        plain = plain_engine.run_many(
            queries, batch_size=4,
            server_config=ServerConfig(batching=False),
        )
        plain_calls = plain_engine.detector.detect_calls

        for a, b in zip(fused, plain):
            assert_traces_identical(a.trace, b.trace)
        assert fused_calls < plain_calls


# ---------------------------------------------------------------------------
# The batcher.
# ---------------------------------------------------------------------------


class TestDetectorBatcher:
    def test_same_class_sessions_fuse(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=8, max_batch_size=1024)
            handles = [
                await server.submit(
                    DistinctObjectQuery("car", limit=3),
                    run_seed=i,
                    batch_size=4,
                )
                for i in range(6)
            ]
            for handle in handles:
                await handle.result()
            return server.stats()

        stats = asyncio.run(go())
        assert stats.detector_calls < stats.batcher.requests
        assert stats.fusion_ratio > 1.5
        assert stats.batch_occupancy > 4.0

    def test_max_batch_size_splits_fused_calls(self):
        engine = fresh_engine()

        async def go():
            # 4 sessions x 4 frames with an 8-frame cap: each flush must
            # split into >= 2 calls, and everything still completes.
            server = engine.serve(max_in_flight=4, max_batch_size=8)
            handles = [
                await server.submit(
                    DistinctObjectQuery("car", limit=3),
                    run_seed=i,
                    batch_size=4,
                )
                for i in range(4)
            ]
            for handle in handles:
                await handle.result()
            return server.stats()

        stats = asyncio.run(go())
        assert stats.batcher.max_occupancy <= 8

    def test_mixed_classes_do_not_fuse_but_complete(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=4)
            handles = [
                await server.submit(
                    DistinctObjectQuery(cls, limit=2), run_seed=i, batch_size=2
                )
                for i, cls in enumerate(["car", "bicycle", "dog"])
            ]
            return [await h.result() for h in handles]

        outcomes = asyncio.run(go())
        assert [o.num_results >= 2 for o in outcomes] == [True] * 3

    def test_batcher_propagates_detector_errors(self):
        class ExplodingDetector:
            cache = None

            def detect_batch(self, videos, frames, class_filter=None):
                raise RuntimeError("GPU on fire")

        async def go():
            batcher = DetectorBatcher(flush_latency=0.001)
            request = FrameRequest(
                picks=[(0, 0)], videos=[0], frames=[0], class_filter=None
            )

            class Handle:
                seq = 0
                tenant = "t"

            with pytest.raises(RuntimeError, match="GPU on fire"):
                await batcher.detect(ExplodingDetector(), request, Handle())

        asyncio.run(go())

    def test_session_failure_reported_not_swallowed(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve()
            handle = await server.submit(QUERY, run_seed=0)
            # Sabotage the environment mid-flight: the failure must land
            # on this handle, not kill the loop.
            handle.session.search_run.searcher.env.detector = None
            state = await handle.wait()
            return state, handle.error, server.stats().failed

        state, error, failed = asyncio.run(go())
        # The env lacking a detector falls back to inline observation,
        # which still works -- so either it finished (fallback path) or
        # failed cleanly; both prove the server survived.
        assert state in ("finished", "failed")
        assert failed in (0, 1)


# ---------------------------------------------------------------------------
# Submission order: the one service order for admission and batch assembly.
# ---------------------------------------------------------------------------


class TestSubmissionOrder:
    def test_sessions_finish_in_submission_order_one_at_a_time(self):
        engine = fresh_engine()
        finished = []

        async def go():
            server = engine.serve(max_in_flight=1, flush_latency=0.0005)
            handles = [
                await server.submit(QUERY, run_seed=seed, batch_size=2)
                for seed in range(3)
            ]

            async def watch(handle):
                await handle.wait()
                finished.append(handle.seq)

            await asyncio.gather(*(watch(h) for h in reversed(handles)))
            return handles

        handles = asyncio.run(go())
        assert [h.seq for h in handles] == [0, 1, 2]
        assert finished == [0, 1, 2]

    def test_split_flush_serves_lowest_seq_first(self):
        """A flush packs requests by ``seq``, not by arrival at the batcher:
        the request added last but submitted first rides the first call."""
        calls = []

        class RecordingDetector:
            cache = None

            def detect_batch(self, videos, frames, class_filter=None):
                calls.append(list(frames))
                return [[f] for f in frames]

        class Handle:
            tenant = "t"

            def __init__(self, seq):
                self.seq = seq

        def request(frames):
            return FrameRequest(
                picks=[(0, f) for f in frames], videos=[0] * len(frames),
                frames=frames, class_filter=None,
            )

        async def go():
            detector = RecordingDetector()
            # Frames 20 and 10 wait (2 < 4); seq 0's three frames reach the
            # cap and flush all three requests, which must split in two.
            batcher = DetectorBatcher(max_batch_size=4, flush_latency=60.0)
            tasks = []
            for seq, frames in ((2, [20]), (1, [10]), (0, [0, 1, 2])):
                tasks.append(asyncio.ensure_future(
                    batcher.detect(detector, request(frames), Handle(seq))
                ))
                await asyncio.sleep(0)
            return await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)

        results = asyncio.run(go())
        assert calls == [[0, 1, 2, 10], [20]]
        assert results == [[[20]], [[10]], [[0], [1], [2]]]


# ---------------------------------------------------------------------------
# Admission control and backpressure.
# ---------------------------------------------------------------------------


class TestAdmission:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_in_flight", 0),
            ("queue_capacity", -1),
            ("max_batch_size", 0),
            ("max_batch_size", -3),
            ("flush_latency", -0.005),
            ("flush_latency", math.nan),
            ("flush_latency", math.inf),
        ],
    )
    def test_server_config_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServerConfig(**{field: value})

    def test_max_in_flight_queues_excess_sessions(self):
        engine = fresh_engine()
        observed = {}

        async def go():
            server = engine.serve(max_in_flight=1)
            first = await server.submit(QUERY, run_seed=0, batch_size=2)
            second = await server.submit(QUERY, run_seed=1, batch_size=2)
            observed["states"] = (first.state, second.state)
            observed["queued"] = server.stats().queued
            await first.result()
            await second.result()
            observed["final"] = server.stats().finished

        asyncio.run(go())
        assert observed["states"] == ("running", "queued")
        assert observed["queued"] == 1
        assert observed["final"] == 2

    def test_overload_raises_without_wait(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1, queue_capacity=1)
            await server.submit(QUERY, run_seed=0)
            await server.submit(QUERY, run_seed=1)
            with pytest.raises(ServerOverloadedError, match="queue full"):
                await server.submit(QUERY, run_seed=2, wait=False)
            await server.drain()

        asyncio.run(go())

    def test_backpressure_waits_for_room_then_admits(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1, queue_capacity=1)
            handles = await asyncio.gather(
                *(
                    server.submit(QUERY, run_seed=i, batch_size=4)
                    for i in range(4)
                )
            )
            outcomes = [await h.result() for h in handles]
            return outcomes

        outcomes = asyncio.run(go())
        assert len(outcomes) == 4
        assert all(o.num_results >= 5 for o in outcomes)

    def test_queue_capacity_zero_wakes_waiters_on_departure(self):
        """Regression: with queue_capacity=0 the only admission signal is
        an in-flight slot freeing up; backpressured submitters must be
        woken then (they used to wait forever on the empty-queue pump)."""
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1, queue_capacity=0)
            handles = await asyncio.gather(
                *(
                    server.submit(QUERY, run_seed=i, batch_size=4)
                    for i in range(3)
                )
            )
            return [await h.result() for h in handles]

        outcomes = asyncio.run(asyncio.wait_for(go(), timeout=30))
        assert len(outcomes) == 3
        assert all(o.num_results >= 5 for o in outcomes)

    def test_submit_requires_exactly_one_of_query_session(self, engine):
        async def go():
            server = engine.serve()
            with pytest.raises(QueryError, match="exactly one"):
                await server.submit()
            session = engine.session(QUERY)
            with pytest.raises(QueryError, match="exactly one"):
                await server.submit(QUERY, session=session)

        asyncio.run(go())

    def test_submit_session_rejects_searcher_overrides(self, engine):
        """Overrides only apply when the server builds the session; dropping
        them silently would run a misconfigured search."""

        async def go():
            server = engine.serve()
            session = engine.session(QUERY)
            with pytest.raises(QueryError, match="cannot be combined"):
                await server.submit(session=session, batch_size=8)
            with pytest.raises(QueryError, match="cannot be combined"):
                await server.submit(session=session, method="random")
            # tenant/pause_after are server-side: allowed.
            handle = await server.submit(
                session=session, tenant="a", pause_after=1
            )
            await handle.wait()

        asyncio.run(go())

    def test_evict_finished_forgets_terminal_sessions(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve()
            handle = await server.submit(QUERY, batch_size=4)
            await handle.result()
            assert server.stats().submitted == 1
            assert server.evict_finished() == 1
            assert server.stats().submitted == 0
            assert server.evict_finished() == 0

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Checkpoint/restore *under serving* (satellite).
# ---------------------------------------------------------------------------


class TestCheckpointUnderServing:
    @pytest.mark.parametrize("method", tuple(SEARCH_METHODS))
    def test_pause_checkpoint_restore_into_fresh_server(self, method):
        """Mid-flight checkpoint on a loaded server, restored elsewhere.

        The merged trace (steps under server A + steps under server B
        after a pickle round-trip) must equal an uninterrupted solo run —
        for every registered method.
        """
        reference = fresh_engine().run(
            QUERY, method=method, run_seed=2, batch_size=3
        ).trace

        engine_a = fresh_engine()

        async def first_leg():
            server = engine_a.serve(max_in_flight=8)
            # Concurrent neighbours ensure the checkpoint happens while
            # the batcher is actively fusing this session's requests.
            neighbours = [
                await server.submit(
                    DistinctObjectQuery("car", limit=3),
                    run_seed=20 + i,
                    batch_size=4,
                )
                for i in range(2)
            ]
            probe = await server.submit(
                QUERY, method=method, run_seed=2, batch_size=3, pause_after=2
            )
            state = await probe.wait()
            for neighbour in neighbours:
                await neighbour.result()
            return state, probe

        state, probe = asyncio.run(first_leg())
        if state == "finished":
            # Tiny queries can finish inside two steps; the solo-identity
            # test already covers that path, nothing left to restore.
            assert_traces_identical(reference, probe.session.trace())
            return
        assert state == "paused"
        assert probe.steps == 2
        with pytest.raises(QueryError, match="paused"):
            asyncio.run(probe.result())

        blob = probe.session.checkpoint()
        restored = QuerySession.restore(blob)

        engine_b = fresh_engine()

        async def second_leg():
            server = engine_b.serve(max_in_flight=4)
            sibling = await server.submit(
                DistinctObjectQuery("bicycle", limit=2),
                run_seed=31,
                batch_size=4,
            )
            handle = await server.submit(session=restored)
            outcome = await handle.result()
            await sibling.result()
            return outcome

        outcome = asyncio.run(second_leg())
        assert_traces_identical(reference, outcome.trace)

    def test_pause_requested_externally_stops_at_boundary(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve()
            handle = await server.submit(
                DistinctObjectQuery("car", frame_budget=2000), batch_size=2
            )
            await asyncio.sleep(0.01)
            handle.pause()
            state = await handle.wait()
            return state, handle

        state, handle = asyncio.run(go())
        assert state == "paused"
        assert 0 < handle.session.num_samples < 2000
        # A paused session sits at a batch boundary: checkpointable, and
        # the restored copy picks up exactly where serving stopped.
        restored = QuerySession.restore(handle.session.checkpoint())
        assert restored.num_samples == handle.session.num_samples


class TestGracefulDrain:
    """drain_gracefully: nothing accepted is dropped, nothing new enters."""

    def test_drain_settles_accepted_sessions_then_refuses(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1)
            running = await server.submit(QUERY, run_seed=0, batch_size=4)
            queued = await server.submit(QUERY, run_seed=1, batch_size=4)
            assert queued.state == "queued"
            await server.drain_gracefully()
            assert server.draining
            assert server.stats().draining
            # Both the in-flight and the still-queued session finished.
            assert running.state == "finished"
            assert queued.state == "finished"
            with pytest.raises(ServerDrainingError, match="no longer"):
                await server.submit(QUERY, run_seed=2)
            # Idempotent: a second drain is a no-op, not an error.
            await server.drain_gracefully()
            return await running.result(), await queued.result()

        first, second = asyncio.run(go())
        assert first.num_results >= 5
        assert second.num_results >= 5

    def test_drain_checkpoint_leaves_every_session_checkpointable(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1)
            running = await server.submit(
                DistinctObjectQuery("car", frame_budget=2000), batch_size=2
            )
            queued = await server.submit(QUERY, run_seed=1)
            await asyncio.sleep(0.01)
            await server.drain_gracefully(checkpoint=True)
            assert running.state == "paused"
            assert queued.state == "paused"
            return running, queued

        running, queued = asyncio.run(go())
        # In-flight paused at a batch boundary mid-run; the queued one
        # paused unstarted. Both restore.
        assert running.session.num_samples > 0
        assert queued.session.num_samples == 0
        for handle in (running, queued):
            restored = QuerySession.restore(handle.session.checkpoint())
            assert restored.num_samples == handle.session.num_samples

    def test_backpressured_waiter_is_refused_when_drain_begins(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=1, queue_capacity=0)
            running = await server.submit(QUERY, run_seed=0, batch_size=4)
            waiter = asyncio.ensure_future(
                server.submit(QUERY, run_seed=1)
            )
            await asyncio.sleep(0)  # let the waiter enter backpressure
            await server.drain_gracefully()
            with pytest.raises(ServerDrainingError, match="waited"):
                await waiter
            # The waiter's session was never accepted, so the drain only
            # settled the running one.
            assert server.stats().finished == 1
            await running.result()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Workload files and replay.
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_roundtrip(self, tmp_path):
        items = [
            WorkloadItem(object="car", limit=3, tenant="a"),
            WorkloadItem(
                object="bicycle", recall=0.5, arrival=0.5, method="random",
                run_seed=2, batch_size=8,
            ),
        ]
        path = tmp_path / "wl.json"
        save_workload(str(path), items)
        assert load_workload(str(path)) == items

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text('[{"object": "car", "limit": 2}]')
        items = load_workload(str(path))
        assert items[0].query() == DistinctObjectQuery("car", limit=2)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "wl.json"
        # ``deadline`` is a retired key: sessions are served in submission
        # order, and a file that still sets it must not run as if it did.
        for key in ('"limt": 3', '"deadline": 2.0'):
            path.write_text(f'{{"queries": [{{"object": "car", {key}}}]}}')
            with pytest.raises(ConfigError, match="unknown keys"):
                load_workload(str(path))

    @pytest.mark.parametrize("arrival", ["Infinity", "NaN", "-1.0"])
    def test_non_finite_or_negative_arrival_rejected(self, tmp_path, arrival):
        # Python's json accepts the non-standard Infinity and NaN literals.
        path = tmp_path / "wl.json"
        path.write_text(f'[{{"object": "car", "arrival": {arrival}}}]')
        with pytest.raises(ConfigError, match="arrival must be finite"):
            load_workload(str(path))

    def test_missing_object_rejected(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text('{"queries": [{"limit": 3}]}')
        with pytest.raises(ConfigError, match="needs an 'object'"):
            load_workload(str(path))

    def test_replay_submits_by_arrival_returns_in_item_order(self):
        engine = fresh_engine()
        items = [
            WorkloadItem(object="car", limit=2, arrival=0.02, tenant="late"),
            WorkloadItem(object="car", limit=2, run_seed=1, tenant="early"),
        ]

        async def go():
            server = engine.serve()
            handles = await replay(server, items, time_scale=0)
            await server.drain()
            return handles

        handles = asyncio.run(go())
        # handles[i] belongs to items[i], however arrivals were ordered...
        assert [h.tenant for h in handles] == ["late", "early"]
        # ...while submission itself followed arrival order (seq is the
        # server's monotonic submission counter).
        assert handles[1].seq < handles[0].seq
        assert all(h.state == "finished" for h in handles)

    @pytest.mark.parametrize("time_scale", [math.inf, math.nan, -1.0])
    def test_replay_rejects_non_finite_or_negative_time_scale(
        self, time_scale
    ):
        engine = fresh_engine()
        items = [
            WorkloadItem(object="car", limit=1),
            WorkloadItem(object="car", limit=1, arrival=0.01),
        ]

        async def go():
            server = engine.serve()
            try:
                with pytest.raises(ConfigError, match="time_scale"):
                    await asyncio.wait_for(
                        replay(server, items, time_scale=time_scale),
                        timeout=10,
                    )
                return server.stats().submitted
            finally:
                await server.shutdown()

        assert asyncio.run(go()) == 0


# ---------------------------------------------------------------------------
# Stats plumbing (per-tenant, per-scope cache breakdown).
# ---------------------------------------------------------------------------


class TestServerStats:
    def test_per_tenant_and_cache_scope_breakdown(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve(max_in_flight=8)
            handles = [
                await server.submit(
                    DistinctObjectQuery("car", limit=3),
                    run_seed=i,
                    tenant="alice" if i % 2 == 0 else "bob",
                    batch_size=4,
                )
                for i in range(4)
            ]
            for handle in handles:
                await handle.result()
            # Replay alice's first query verbatim: every frame it needs is
            # now memoized, so its requests arrive pre-cached — the case
            # the per-tenant cache-hit attribution exists to expose.
            rerun = await server.submit(
                DistinctObjectQuery("car", limit=3),
                run_seed=0,
                tenant="alice",
                batch_size=4,
            )
            await rerun.result()
            return server.stats()

        stats = asyncio.run(go())
        assert set(stats.per_tenant) == {"alice", "bob"}
        alice = stats.per_tenant["alice"]
        assert alice.sessions == 3 and alice.finished == 3
        assert alice.samples > 0 and alice.detector_frames > 0
        assert alice.detect_wait.count == alice.detector_requests
        # Engine cache info flows through, with the per-scope breakdown
        # attributing every lookup to this engine's one detector scope.
        assert stats.cache is not None
        scope = engine.detector.cache_scope()
        assert scope in stats.cache.per_scope
        per_scope = stats.cache.per_scope[scope]
        assert per_scope.hits + per_scope.misses == stats.cache.requests
        # The verbatim rerun's frames were already memoized when its
        # fused calls were issued, so its hits land on alice.
        assert stats.batcher.tenant_cache_hits.get("alice", 0) > 0

    def test_per_tenant_detector_stats_with_batching_disabled(self):
        """Direct (unfused) detector calls must still show up per tenant."""
        engine = fresh_engine()

        async def go():
            server = engine.serve(batching=False)
            handle = await server.submit(
                DistinctObjectQuery("car", limit=3), tenant="a", batch_size=4
            )
            await handle.result()
            return server.stats()

        stats = asyncio.run(go())
        tenant = stats.per_tenant["a"]
        assert tenant.detector_requests > 0
        assert tenant.detector_frames > 0
        assert tenant.detect_wait.count == tenant.detector_requests
        assert stats.detector_calls == tenant.detector_requests

    def test_describe_renders(self):
        engine = fresh_engine()

        async def go():
            server = engine.serve()
            await (await server.submit(QUERY, batch_size=4)).result()
            return server.stats()

        text = asyncio.run(go()).describe()
        assert "sessions:" in text and "detector:" in text
        assert "tenant default:" in text
