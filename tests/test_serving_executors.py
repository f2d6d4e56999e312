"""Detector executors (repro.serving.executors) and off-loop dispatch.

The acceptance bar extends serving's: executors change *where* a fused
``detect_batch`` runs — inline on the loop or on a worker thread — never
*what* it computes. Every registered search method must produce traces
element-wise identical to solo ``engine.run`` under every executor; the
lifecycle contract (drain/shutdown settle in-flight detect futures
before an owned pool is released), the hand-off of every batch to the
executor at assembly, and the assembly-time cache-hit attribution
snapshot are each pinned here.

CI runs this module in tier-1 and once more under
``PYTHONASYNCIODEBUG=1``; as everywhere in the serving suites, each test
drives a private loop via ``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.core.registry import SEARCH_METHODS
from repro.errors import ConfigError
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.serving import (
    DetectorBatcher,
    ServerConfig,
    load_executor,
    make_executor,
)
from repro.serving.executors import (
    InlineDetectorExecutor,
    ThreadDetectorExecutor,
    validate_executor_spec,
)
from repro.serving.fleet import FleetConfig

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical

METHODS = list(SEARCH_METHODS)

QUERY = DistinctObjectQuery("car", limit=4)


def fresh_engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


@pytest.fixture(scope="module")
def thread_exec():
    """One thread pool shared by every test in the module.

    Passed as an *instance*, so servers never close it (ownership stays
    here) — exactly the multi-server sharing the ownership rule exists
    to allow.
    """
    executor = ThreadDetectorExecutor(max_workers=2)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def solo_outcomes():
    engine = fresh_engine()
    return {
        method: engine.run(QUERY, method=method, run_seed=i, batch_size=4)
        for i, method in enumerate(METHODS)
    }


class _GatedDetector:
    """Delegates to a real detector, but ``detect_batch`` blocks until
    released — the off-loop batch is provably *in flight* while the test
    pokes at drain/shutdown/dispatch from the loop side."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def detect_batch(self, videos, frames, class_filter=None):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        return self._inner.detect_batch(
            videos, frames, class_filter=class_filter
        )


class _Handle:
    def __init__(self, seq, tenant="t"):
        self.seq = seq
        self.tenant = tenant


async def _wait_event(event, timeout=10.0):
    ok = await asyncio.get_running_loop().run_in_executor(
        None, event.wait, timeout
    )
    assert ok, "gated detector never entered detect_batch"


async def _wait_until(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Spec strings.
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_make_executor_resolves_specs(self):
        assert isinstance(make_executor(None), InlineDetectorExecutor)
        assert isinstance(make_executor("inline"), InlineDetectorExecutor)
        thread = make_executor("thread:3")
        assert isinstance(thread, ThreadDetectorExecutor)
        assert thread.max_workers == 3

    def test_instances_pass_through_unwrapped(self, thread_exec):
        assert make_executor(thread_exec) is thread_exec

    def test_bad_specs_fail_eagerly(self):
        with pytest.raises(ConfigError, match="unknown detector executor"):
            validate_executor_spec("gpu")
        with pytest.raises(ConfigError, match="no argument"):
            make_executor("inline:2")
        with pytest.raises(ConfigError, match="worker count"):
            make_executor("thread:lots")
        with pytest.raises(ConfigError, match="executor must be"):
            validate_executor_spec(42)
        with pytest.raises(ConfigError, match="max_workers"):
            ThreadDetectorExecutor(max_workers=0)
        # An unknown name gets one line naming every accepted spec.
        for spec in ("process", "process:2"):
            with pytest.raises(
                ConfigError,
                match="unknown detector executor 'process' "
                "\\(accepted: None, 'inline', 'thread', 'thread:N' or a "
                "DetectorExecutor instance\\)",
            ):
                ServerConfig(executor=spec)

    def test_server_config_validates_at_construction(self):
        with pytest.raises(ConfigError, match="unknown detector executor"):
            ServerConfig(executor="gpu")
        with pytest.raises(TypeError, match="pipeline_depth"):
            ServerConfig(pipeline_depth=2)

    def test_fleet_configs_require_spec_strings(self):
        with pytest.raises(ConfigError, match="spec string"):
            FleetConfig(
                server=ServerConfig(executor=ThreadDetectorExecutor())
            )

    def test_workload_file_executor_key(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(
            '{"executor": "thread:2", '
            '"queries": [{"object": "car", "limit": 2}]}'
        )
        assert load_executor(path) == "thread:2"
        bare = tmp_path / "bare.json"
        bare.write_text('[{"object": "car", "limit": 2}]')
        assert load_executor(bare) is None
        for spec in ("warp", "process"):
            bad = tmp_path / f"{spec}.json"
            bad.write_text(f'{{"executor": "{spec}", "queries": []}}')
            with pytest.raises(
                ConfigError, match=f"unknown detector executor '{spec}'"
            ):
                load_executor(bad)


# ---------------------------------------------------------------------------
# Headline: outcomes identical to solo across every executor.
# ---------------------------------------------------------------------------


class TestExecutorIdentity:
    def _run_all_methods(self, executor):
        engine = fresh_engine()
        outcomes = engine.run_many(
            [QUERY] * len(METHODS),
            method=METHODS,
            run_seeds=list(range(len(METHODS))),
            batch_size=4,
            server_config=ServerConfig(executor=executor),
        )
        return engine, outcomes

    @pytest.mark.parametrize("mode", ["inline", "thread"])
    def test_every_method_identical_to_solo(
        self, mode, thread_exec, solo_outcomes
    ):
        executor = {"inline": "inline", "thread": thread_exec}[mode]
        engine, outcomes = self._run_all_methods(executor)
        for method, outcome in zip(METHODS, outcomes, strict=True):
            assert_traces_identical(
                outcome.trace, solo_outcomes[method].trace
            )
        if mode != "inline":
            # The work genuinely went through the off-loop path.
            assert engine.detector.detect_calls > 0

    def test_pipelined_capacity_splits_identical(self, thread_exec):
        """Small batch cap: flushes split into several off-loop batches,
        and none of it shows in the traces."""
        engine = fresh_engine()
        outcomes = engine.run_many(
            [QUERY] * 4,
            batch_size=4,
            server_config=ServerConfig(
                executor=thread_exec, max_batch_size=8
            ),
        )
        reference = fresh_engine()
        for i, outcome in enumerate(outcomes):
            solo = reference.run(QUERY, run_seed=i, batch_size=4)
            assert_traces_identical(outcome.trace, solo.trace)

    def test_stats_report_the_offloop_pipeline(self, thread_exec):
        engine = fresh_engine()

        async def go():
            server = engine.serve(executor=thread_exec)
            handles = [
                await server.submit(QUERY, run_seed=i, batch_size=4)
                for i in range(3)
            ]
            for handle in handles:
                await handle.result()
            await server.drain()
            return server.stats()

        stats = asyncio.run(go())
        assert stats.executor == "thread(workers=2)"
        assert "executor: thread(workers=2)" in stats.describe()
        assert stats.batcher.dispatched_batches >= 1
        assert stats.batcher.offloop_busy_s > 0.0
        from repro.serving.net import stats_to_jsonable

        payload = stats_to_jsonable(stats)
        assert payload["executor"] == "thread(workers=2)"
        assert (
            payload["batcher"]["dispatched_batches"]
            == stats.batcher.dispatched_batches
        )


# ---------------------------------------------------------------------------
# Lifecycle: drain and shutdown settle in-flight detect futures.
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_drain_waits_for_in_flight_batch(self):
        engine = fresh_engine()
        gated = _GatedDetector(engine.detector)
        engine.detector = gated

        async def go():
            server = engine.serve(executor="thread", flush_latency=0.001)
            handle = await server.submit(QUERY, run_seed=0, batch_size=4)
            await _wait_event(gated.entered)
            drainer = asyncio.create_task(server.drain_gracefully())
            await asyncio.sleep(0.05)
            assert not drainer.done()  # parked behind the gated batch
            gated.release.set()
            await drainer
            assert handle.state == "finished"
            assert server.stats().batcher.dispatched_batches >= 1
            # drain_gracefully closed the owned executor's pool.
            assert server.executor._pool is None

        asyncio.run(go())

    def test_shutdown_settles_in_flight_future_before_closing(self):
        engine = fresh_engine()
        gated = _GatedDetector(engine.detector)
        engine.detector = gated

        async def go():
            server = engine.serve(executor="thread", flush_latency=0.001)
            handle = await server.submit(QUERY, run_seed=0, batch_size=4)
            await _wait_event(gated.entered)
            stopper = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.05)
            # Sessions are cancelled immediately, but the executor future
            # is still running on its worker; shutdown must wait it out
            # rather than yanking the pool from under it.
            assert not stopper.done()
            gated.release.set()
            await stopper
            # Shutdown's house style: cancelled sessions report "failed"
            # with a shutdown error (or won the race and finished).
            assert handle.state in ("failed", "finished")
            if handle.state == "failed":
                assert "shutdown" in str(handle.error)
            assert server.executor._pool is None

        asyncio.run(go())

    def test_passed_in_instances_survive_server_close(self, thread_exec):
        engine = fresh_engine()

        async def go():
            for run_seed in (0, 1):  # two servers, one shared pool
                server = engine.serve(executor=thread_exec)
                handle = await server.submit(
                    QUERY, run_seed=run_seed, batch_size=4
                )
                await handle.result()
                await server.drain_gracefully()
            assert thread_exec._pool is not None  # still ours, still warm

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Dispatch at assembly and the assembly-time attribution snapshot.
# ---------------------------------------------------------------------------


class TestPipelining:
    def test_capacity_split_batches_dispatch_at_assembly(self):
        engine = fresh_engine()
        gated = _GatedDetector(engine.detector)
        executor = ThreadDetectorExecutor(max_workers=4)

        async def go():
            batcher = DetectorBatcher(
                max_batch_size=2,
                flush_latency=0.001,
                executor=executor,
            )
            env = engine.environment("car", run_seed=0)
            requests = [
                env.propose_batch([(0, 2 * i), (0, 2 * i + 1)])
                for i in range(4)
            ]
            # Each request alone reaches the 2-frame cap: four
            # single-request batches, each handed to the executor the
            # moment it is assembled, none waiting for another to land.
            tasks = [
                asyncio.create_task(
                    batcher.detect(gated, request, _Handle(seq=i))
                )
                for i, request in enumerate(requests)
            ]
            await _wait_event(gated.entered)
            await _wait_until(
                lambda: batcher.stats.dispatched_batches == 4
            )
            assert batcher.stats.peak_in_flight == 4
            assert batcher.stats.detector_calls == 0  # all still gated
            gated.release.set()
            results = await asyncio.gather(*tasks)
            await batcher.settle()
            assert batcher.stats.dispatched_batches == 4
            assert batcher.stats.peak_in_flight == 4
            assert batcher.stats.detector_calls == 4
            # Concurrent dispatch reordered nothing: each future got its
            # own frames.
            reference = fresh_engine().environment("car", run_seed=0)
            for request, result in zip(requests, results, strict=True):
                expected = reference.detect_request(
                    reference.propose_batch(request.picks)
                )
                assert result == expected
            await executor.aclose()

        asyncio.run(go())

    def test_cache_hit_attribution_snapshots_at_assembly(self):
        """Regression: with two batches of the *same* frames in flight
        concurrently, the tenant whose batch was assembled before the
        other's results landed must not be credited those hits. The
        snapshot is taken when composition freezes, so executor timing
        cannot leak one batch's landing into another's attribution."""
        engine = fresh_engine()
        gated = _GatedDetector(engine.detector)
        executor = ThreadDetectorExecutor(max_workers=2)

        async def go():
            batcher = DetectorBatcher(
                max_batch_size=2,
                flush_latency=0.001,
                executor=executor,
            )
            env = engine.environment("car", run_seed=0)
            picks = [(0, 0), (0, 1)]
            first = asyncio.create_task(
                batcher.detect(
                    gated, env.propose_batch(picks), _Handle(0, tenant="a")
                )
            )
            await _wait_event(gated.entered)
            second = asyncio.create_task(
                batcher.detect(
                    gated, env.propose_batch(picks), _Handle(1, tenant="b")
                )
            )
            await _wait_until(
                lambda: batcher.stats.dispatched_batches == 2
            )
            gated.release.set()
            await asyncio.gather(first, second)
            await batcher.settle()
            # Both batches were assembled before either landed: neither
            # tenant saw a warm cache, whatever order they completed in.
            assert batcher.stats.tenant_cache_hits.get("a", 0) == 0
            assert batcher.stats.tenant_cache_hits.get("b", 0) == 0
            # A request assembled *after* the landings is a genuine hit.
            await batcher.detect(
                gated, env.propose_batch(picks), _Handle(2, tenant="c")
            )
            await batcher.settle()
            assert batcher.stats.tenant_cache_hits.get("c") == len(picks)
            await executor.aclose()

        asyncio.run(go())

    def test_executor_failure_lands_on_the_awaiters(self):
        class ExplodingDetector:
            cache = None

            def detect_batch(self, videos, frames, class_filter=None):
                raise RuntimeError("GPU on fire")

        engine = fresh_engine()
        executor = ThreadDetectorExecutor()

        async def go():
            batcher = DetectorBatcher(flush_latency=0.001, executor=executor)
            env = engine.environment("car", run_seed=0)
            request = env.propose_batch([(0, 0)])
            with pytest.raises(RuntimeError, match="GPU on fire"):
                await batcher.detect(ExplodingDetector(), request, _Handle(0))
            await batcher.settle()
            await executor.aclose()

        asyncio.run(go())
