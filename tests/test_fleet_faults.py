"""Fault tolerance of the serving fleet (supervision + chaos harness).

The acceptance bar: a fleet that loses a shard process mid-search — by
SIGKILL, by a wedged event loop, even mid-migration — must finish the
workload with outcomes *byte-identical* to solo ``engine.run`` calls,
redoing at most ``checkpoint_every`` steps per recovered session. Faults
are injected declaratively (:mod:`repro.serving.faults`) so every
scenario here is reproducible, and every test asserts the fleet's
children are gone afterwards: shutdown must always return with no
zombies, however ugly the failure.

CI runs this module under both the fork and spawn start methods (the
``chaos`` job sets ``REPRO_MP_CONTEXT``); locally it uses the platform
default.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.core.registry import SEARCH_METHODS
from repro.errors import FleetDegradedError, ShardLostError
from repro.query.engine import QueryEngine
from repro.serving import ServerConfig
from repro.serving.faults import FaultPlan, FaultSpec, load_faults
from repro.serving.fleet import FleetConfig, FleetRouter, replay_fleet
from repro.serving.workload import WorkloadItem

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical

METHODS = list(SEARCH_METHODS)

ALL_METHOD_ITEMS = [
    WorkloadItem(
        object="car",
        limit=4,
        method=method,
        run_seed=index,
        tenant=f"tenant-{index % 3}",
    )
    for index, method in enumerate(METHODS)
]

#: Supervision tuned for tests: fast heartbeats, fast verdicts.
FAST_BEAT = dict(
    heartbeat_interval=0.05,
    heartbeat_timeout=0.25,
    missed_heartbeats=2,
    op_timeout=5.0,
)


@pytest.fixture(autouse=True)
def no_leaked_shards():
    """Every test must leave zero live shard children behind."""
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard")
        ]
        if not leaked:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked shard processes: {leaked}")


@pytest.fixture(scope="module")
def solo_outcomes():
    engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
    return {
        (item.method, item.run_seed): engine.run(
            item.query(), method=item.method, run_seed=item.run_seed
        )
        for item in ALL_METHOD_ITEMS
    }


async def _launch(dataset, **overrides):
    engine_seed = overrides.pop("engine_seed", 11)
    config = FleetConfig(**overrides)
    return await FleetRouter.launch(
        dataset, config=config, engine_seed=engine_seed
    )


# ---------------------------------------------------------------------------
# The fault plan itself (pure declarative layer, no processes).
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(ConfigError, match="after_steps"):
            FaultSpec(kind="kill", after_steps=0)
        with pytest.raises(ConfigError, match="unknown fault fields"):
            FaultSpec.from_json({"kind": "kill", "when": "now"})

    def test_plan_shard_scoping_and_relaunch_pruning(self):
        plan = FaultPlan((
            FaultSpec(kind="kill", shard=0, after_steps=3),
            FaultSpec(kind="drop_frame", op="samples", repeat=True),
        ))
        assert len(plan.for_shard(0)) == 2
        assert len(plan.for_shard(1)) == 1  # shard=None arms everywhere
        # A relaunched shard 0 only re-arms repeat=True specs — a
        # scripted crash must not become a crash loop.
        assert [s.kind for s in plan.surviving_relaunch(0)] == ["drop_frame"]

    def test_load_faults_from_workload_file(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(
            '{"queries": [{"object": "car", "limit": 2}], '
            '"faults": [{"kind": "kill", "shard": 1, "after_steps": 4}]}'
        )
        plan = load_faults(path)
        assert plan is not None and len(plan) == 1
        assert plan.specs[0].shard == 1
        bare = tmp_path / "bare.json"
        bare.write_text('[{"object": "car", "limit": 2}]')
        assert load_faults(bare) is None


# ---------------------------------------------------------------------------
# Headline: mid-search SIGKILL, byte-identical recovery, every method.
# ---------------------------------------------------------------------------


class TestKillRecoveryIdentity:
    def test_all_methods_survive_a_mid_search_kill(self, solo_outcomes):
        """Shard 0 is SIGKILLed while sessions of all 7 methods are in
        flight; supervision relaunches it and resumes its sessions from
        their checkpoints (or scratch). Every outcome must still be
        element-wise identical to its solo reference."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(
                dataset,
                n_shards=2,
                checkpoint_every=2,
                faults=FaultPlan((
                    FaultSpec(kind="kill", shard=0, after_steps=4),
                )),
                **FAST_BEAT,
            )
            try:
                handles = await replay_fleet(
                    router, ALL_METHOD_ITEMS, time_scale=0.0
                )
                outcomes = [await h.result() for h in handles]
                # The sessions can all finish (recovered onto the
                # survivor) before the monitor's relaunch of the corpse
                # completes; wait for the restart rather than racing it.
                # Relaunching a shard under the spawn start method on a
                # loaded machine can take many seconds; the deadline is
                # generous because only its expiry fails the test.
                for _ in range(300):
                    stats = await router.stats()
                    if stats.restarts >= 1:
                        break
                    await asyncio.sleep(0.1)
                return outcomes, stats
            finally:
                await router.shutdown()

        outcomes, stats = asyncio.run(go())
        for item, outcome in zip(ALL_METHOD_ITEMS, outcomes):
            solo = solo_outcomes[(item.method, item.run_seed)]
            assert outcome.query == solo.query
            assert outcome.gt_count == solo.gt_count
            assert_traces_identical(outcome.trace, solo.trace)
        assert stats.restarts >= 1
        assert stats.recovered_sessions + stats.rerun_sessions >= 1
        assert not stats.down_shards

    def test_kill_before_any_admission(self):
        """The shard dies before a single session reaches it: the
        monitor notices the corpse, relaunches, and queued submissions
        run on the fresh incarnation."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(
                dataset, n_shards=1, checkpoint_every=2, **FAST_BEAT
            )
            try:
                router.shards[0].process.kill()
                handles = [
                    await router.submit(
                        WorkloadItem(object="car", limit=3, run_seed=i)
                    )
                    for i in range(2)
                ]
                outcomes = [await h.result() for h in handles]
                stats = await router.stats()
                return outcomes, stats
            finally:
                await router.shutdown()

        outcomes, stats = asyncio.run(go())
        assert stats.restarts == 1
        engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
        for run_seed, outcome in enumerate(outcomes):
            solo = engine.run(
                WorkloadItem(object="car", limit=3, run_seed=run_seed)
                .query(),
                run_seed=run_seed,
            )
            assert_traces_identical(outcome.trace, solo.trace)

    def test_mid_batch_kill_redoes_at_most_checkpoint_every_steps(self):
        """The checkpoint cycle bounds the redo: a session killed between
        checkpoints re-executes at most ``checkpoint_every`` steps."""
        dataset = make_tiny_dataset(seed=11)
        item = WorkloadItem(
            object="car", frame_budget=200, batch_size=8, run_seed=5
        )

        async def go():
            router = await _launch(
                dataset,
                n_shards=1,
                checkpoint_every=2,
                server=ServerConfig(max_in_flight=4),
                faults=FaultPlan((
                    FaultSpec(kind="kill", shard=0, after_steps=7),
                )),
                **FAST_BEAT,
            )
            try:
                handle = await router.submit(item)
                outcome = await handle.result()
                stats = await router.stats()
                return outcome, stats, handle.recoveries
            finally:
                await router.shutdown()

        outcome, stats, recoveries = asyncio.run(go())
        assert stats.restarts >= 1
        assert recoveries >= 1
        assert stats.recovered_sessions >= 1
        # The redo ledger: work lost per recovery is capped by the cycle.
        assert stats.redone_steps <= 2 * (
            stats.recovered_sessions + stats.rerun_sessions
        )
        # Superseded incarnations are evicted as the cycle turns: the
        # shard keeps one record for the live session, not one paused
        # ghost per checkpoint (~12 cycles in this run).
        assert stats.submitted <= 2
        engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
        solo = engine.run(item.query(), run_seed=item.run_seed,
                          batch_size=item.batch_size)
        assert_traces_identical(outcome.trace, solo.trace)


# ---------------------------------------------------------------------------
# Kill during a live migration.
# ---------------------------------------------------------------------------


class TestKillDuringMigration:
    def test_source_shard_dies_mid_move(self):
        """The source shard is killed between the staging pause and the
        checkpoint: migrate() fails (the move did fail), but the session
        recovers — re-run from scratch it re-stages the same pause, and
        a second migrate to the survivor completes identically."""
        dataset = make_tiny_dataset(seed=11)
        item = WorkloadItem(
            object="car", limit=4, run_seed=7, shard=0, pause_after=1
        )

        async def go():
            router = await _launch(
                dataset, n_shards=2, checkpoint_every=2, **FAST_BEAT
            )
            try:
                handle = await router.submit(item)
                assert await handle.wait() == "paused"
                router.shards[0].process.kill()
                with pytest.raises(Exception):
                    await router.migrate(handle, 1)
                # Recovery re-runs the session from scratch; determinism
                # re-arms the same staged pause.
                assert await handle.wait() == "paused"
                await router.migrate(handle, 1)
                outcome = await handle.result()
                # The survivor can finish the session before the monitor
                # even convicts the corpse; wait for the relaunch rather
                # than racing it.
                # Relaunching a shard under the spawn start method on a
                # loaded machine can take many seconds; the deadline is
                # generous because only its expiry fails the test.
                for _ in range(300):
                    stats = await router.stats()
                    if stats.restarts >= 1:
                        break
                    await asyncio.sleep(0.1)
                return outcome, handle.shard, stats
            finally:
                await router.shutdown()

        outcome, final_shard, stats = asyncio.run(go())
        assert final_shard == 1
        assert stats.restarts >= 1
        engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
        solo = engine.run(item.query(), run_seed=item.run_seed)
        assert_traces_identical(outcome.trace, solo.trace)


# ---------------------------------------------------------------------------
# Hung (not dead) shard: heartbeat conviction.
# ---------------------------------------------------------------------------


class TestHungShard:
    def test_stalled_event_loop_is_treated_like_a_crash(self):
        """A stall fault wedges the shard's loop: the process stays
        alive but stops answering pings. Missed heartbeats convict it;
        it is SIGKILLed, relaunched, and its sessions recovered."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(
                dataset,
                n_shards=1,
                checkpoint_every=2,
                faults=FaultPlan((
                    FaultSpec(kind="stall", shard=0, after_steps=3),
                )),
                heartbeat_interval=0.05,
                heartbeat_timeout=0.2,
                missed_heartbeats=2,
                op_timeout=2.0,
            )
            try:
                handle = await router.submit(
                    WorkloadItem(object="car", limit=4, run_seed=2)
                )
                outcome = await handle.result()
                stats = await router.stats()
                return outcome, stats
            finally:
                await router.shutdown()

        outcome, stats = asyncio.run(go())
        assert stats.restarts >= 1
        engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
        solo = engine.run(
            WorkloadItem(object="car", limit=4, run_seed=2).query(),
            run_seed=2,
        )
        assert_traces_identical(outcome.trace, solo.trace)


# ---------------------------------------------------------------------------
# Circuit breaker: recovery exhausted.
# ---------------------------------------------------------------------------


class TestRecoveryExhausted:
    def test_max_restarts_zero_fails_typed_and_degrades(self):
        """With no restart budget the lone shard's death is final: its
        sessions fail with ShardLostError, later submissions are refused
        with FleetDegradedError, and shutdown still returns cleanly."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(
                dataset,
                n_shards=1,
                checkpoint_every=2,
                max_restarts=0,
                faults=FaultPlan((
                    FaultSpec(kind="kill", shard=0, after_steps=2),
                )),
                **FAST_BEAT,
            )
            try:
                handle = await router.submit(
                    WorkloadItem(object="car", limit=4, run_seed=1)
                )
                with pytest.raises(ShardLostError, match="no live shard"):
                    await handle.result()
                with pytest.raises(FleetDegradedError, match="down") as exc:
                    await router.submit(
                        WorkloadItem(object="car", limit=2)
                    )
                stats = await router.stats()
                return stats, exc.value.down
            finally:
                await router.shutdown()

        stats, down = asyncio.run(go())
        assert stats.down_shards == [0]
        assert down == (0,)
        assert "DEGRADED" in stats.describe()


# ---------------------------------------------------------------------------
# Shutdown under the worst case: a wedged shard, supervision off.
# ---------------------------------------------------------------------------


class TestShutdownEscalation:
    def test_shutdown_reaps_a_hung_shard(self):
        """Even with supervision disabled, shutdown must return: the
        wedged shard ignores the drain, gets terminate -> kill, and the
        autouse fixture proves nothing survives."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(
                dataset,
                n_shards=1,
                supervise=False,
                op_timeout=1.0,
                faults=FaultPlan((
                    FaultSpec(kind="stall", shard=0, after_steps=2),
                )),
            )
            handle = await router.submit(
                WorkloadItem(object="car", limit=4)
            )
            # Give the stall time to trigger, then shut down anyway.
            await asyncio.sleep(0.3)
            await router.shutdown()
            with pytest.raises(Exception):
                await handle.result()

        asyncio.run(go())
