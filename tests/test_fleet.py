"""The sharded serving fleet (repro.serving.fleet + placement).

The acceptance bar lifts the serving layer's one more level: a workload
replayed across N shard *processes* — routed by any placement policy,
admission-controlled by the router, some sessions live-migrated between
shards mid-flight — must produce outcomes element-wise identical to solo
``engine.run`` calls, for every registered search method. Shards are real
child processes (fork by default here; a dedicated test exercises spawn,
and CI runs the module under both), built over the same dataset and
sharing one cross-process detection cache.
"""

import asyncio
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.registry import SEARCH_METHODS
from repro.errors import ConfigError, QueryError, ServerOverloadedError
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.query.session import QuerySession
from repro.serving import ServerConfig
from repro.serving.fleet import (
    FleetConfig,
    FleetRouter,
    replay_fleet,
)
from repro.serving.placement import (
    PLACEMENT_POLICIES,
    HashTenantPolicy,
    LeastLoadedPolicy,
    make_placement_policy,
)
from repro.serving.workload import (
    WorkloadItem,
    load_workload,
    save_workload,
)

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical

METHODS = list(SEARCH_METHODS)

#: One query per registered method, tenants interleaved so tenant-affine
#: placement actually spreads work over both shards.
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


@pytest.fixture(autouse=True)
def no_leaked_shards():
    """Every test must reap its shard children — zombies fail the suite."""
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            process
            for process in multiprocessing.active_children()
            if process.name.startswith("repro-shard")
        ]
        if not leaked:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked shard processes: {leaked}")


@pytest.fixture(scope="module")
def solo_engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


@pytest.fixture(scope="module")
def solo_outcomes(solo_engine):
    """Reference outcomes: each workload item run alone, no fleet."""
    return {
        (item.method, item.run_seed): solo_engine.run(
            item.query(), method=item.method, run_seed=item.run_seed
        )
        for item in ALL_METHOD_ITEMS
    }


async def _launch(dataset, **overrides):
    overrides.setdefault("engine_seed", 11)
    return await FleetRouter.launch(dataset, **overrides)


# ---------------------------------------------------------------------------
# Placement policies (pure routing logic, no processes).
# ---------------------------------------------------------------------------


class _FakeShard:
    def __init__(self, index, active, queued=0):
        self.index = index
        self.active = active
        self.queued = queued


class TestPlacementPolicies:
    def test_hash_tenant_is_stable_and_tenant_affine(self):
        policy = HashTenantPolicy()
        shards = [_FakeShard(i, 0) for i in range(3)]
        a1 = policy.choose(WorkloadItem(object="car", tenant="alice"), shards)
        a2 = policy.choose(
            WorkloadItem(object="dog", tenant="alice", run_seed=9), shards
        )
        assert a1 == a2  # same tenant, same shard, whatever the query
        picked = {
            policy.choose(WorkloadItem(object="car", tenant=f"t{i}"), shards)
            for i in range(32)
        }
        assert len(picked) > 1  # different tenants do spread

    def test_least_loaded_picks_minimum_with_index_ties(self):
        policy = LeastLoadedPolicy()
        shards = [_FakeShard(0, 2), _FakeShard(1, 0), _FakeShard(2, 0)]
        item = WorkloadItem(object="car")
        assert policy.choose(item, shards) == 1  # tie broken by index

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_least_loaded_spreads_a_queued_burst(self, k):
        """A burst reaches placement before any dispatcher admits it, so
        every shard reads ``active == 0``: queued submissions must count
        as load, or the whole burst ties onto shard 0."""
        policy = LeastLoadedPolicy()
        shards = [_FakeShard(i, 0) for i in range(k)]
        item = WorkloadItem(object="car")
        for _ in range(2 * k):
            shards[policy.choose(item, shards)].queued += 1
        assert [shard.queued for shard in shards] == [2] * k

    def test_registry_round_trip_and_errors(self):
        assert set(PLACEMENT_POLICIES) >= {"hash_tenant", "least_loaded"}
        assert isinstance(make_placement_policy(None), HashTenantPolicy)
        policy = LeastLoadedPolicy()
        assert make_placement_policy(policy) is policy
        with pytest.raises(ConfigError, match="unknown placement"):
            make_placement_policy("nope")


class TestWorkloadFleetFields:
    def test_shard_pin_and_pause_after_round_trip(self, tmp_path):
        items = [
            WorkloadItem(object="car", limit=2, shard=1, pause_after=3),
            WorkloadItem(object="car", limit=2),
        ]
        path = tmp_path / "w.json"
        save_workload(str(path), items)
        assert load_workload(str(path)) == items

    def test_pre_fleet_workload_files_still_load(self, tmp_path):
        # A file written before the fleet fields existed has neither key.
        path = tmp_path / "old.json"
        path.write_text('{"queries": [{"object": "car", "limit": 2}]}')
        (item,) = load_workload(str(path))
        assert item.shard is None
        assert item.pause_after is None

    def test_fleet_field_validation(self):
        with pytest.raises(ConfigError, match="shard"):
            WorkloadItem(object="car", shard=-1)
        with pytest.raises(ConfigError, match="pause_after"):
            WorkloadItem(object="car", pause_after=0)

    @pytest.mark.parametrize("time_scale", [math.inf, math.nan, -1.0])
    def test_replay_rejects_non_finite_or_negative_time_scale(
        self, time_scale
    ):
        """``replay_fleet`` paces with the single server's loop, so it
        refuses the same time scales before submitting anything."""
        submitted = []

        class Router:
            async def submit(self, item):
                submitted.append(item)
                return item

        items = [
            WorkloadItem(object="car"),
            WorkloadItem(object="car", arrival=0.01),
        ]

        async def go():
            with pytest.raises(ConfigError, match="time_scale"):
                await asyncio.wait_for(
                    replay_fleet(Router(), items, time_scale=time_scale),
                    timeout=10,
                )

        asyncio.run(go())
        assert submitted == []


# ---------------------------------------------------------------------------
# Replay identity across real shard processes.
# ---------------------------------------------------------------------------


class TestFleetReplayIdentity:
    @pytest.mark.parametrize("placement", ["hash_tenant", "least_loaded"])
    def test_all_methods_identical_to_solo_with_migration(
        self, placement, solo_outcomes
    ):
        """Every registered method through the fleet, one session migrated.

        The headline acceptance test: replay routes 7 methods across two
        shard processes under each placement policy; one extra session is
        staged with ``pause_after`` and live-migrated to the other shard
        mid-flight. Every outcome must be element-wise identical to its
        solo reference.
        """
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=2, placement=placement)
            try:
                handles = await replay_fleet(
                    router, ALL_METHOD_ITEMS, time_scale=0.0
                )
                staged = await router.submit(
                    WorkloadItem(
                        object="car",
                        limit=4,
                        method="exsample",
                        run_seed=99,
                        tenant="mover",
                        shard=0,
                        pause_after=1,
                    )
                )
                assert await staged.wait() == "paused"
                await router.migrate(staged, 1)
                outcomes = [await h.result() for h in handles]
                migrated = await staged.result()
                assert staged.shard == 1
                assert staged.migrations == 1
                stats = await router.stats()
                return handles, outcomes, migrated, stats
            finally:
                await router.shutdown()

        handles, outcomes, migrated, stats = asyncio.run(go())
        if placement == "hash_tenant":
            # tenant-0 hashes to shard 0, tenant-1/2 to shard 1, so the
            # affine policy provably uses both shards. (least_loaded's
            # split of a burst is pinned in TestFleetAdmission.)
            assert {h.shard for h in handles} == {0, 1}
        for item, outcome in zip(ALL_METHOD_ITEMS, outcomes):
            solo = solo_outcomes[(item.method, item.run_seed)]
            assert outcome.query == solo.query
            assert outcome.gt_count == solo.gt_count
            assert_traces_identical(outcome.trace, solo.trace)
        solo_engine = QueryEngine(make_tiny_dataset(seed=11), seed=11)
        solo_moved = solo_engine.run(
            DistinctObjectQuery("car", limit=4), method="exsample", run_seed=99
        )
        assert_traces_identical(migrated.trace, solo_moved.trace)
        assert stats.migrations == 1
        assert stats.finished == len(ALL_METHOD_ITEMS) + 1

    def test_shard_pin_overrides_placement(self):
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=2)
            try:
                pinned = [
                    await router.submit(
                        WorkloadItem(
                            object="car", limit=2, run_seed=i,
                            tenant="same-tenant", shard=i,
                        )
                    )
                    for i in range(2)
                ]
                for handle in pinned:
                    await handle.result()
                return [h.shard for h in pinned]
            finally:
                await router.shutdown()

        assert asyncio.run(go()) == [0, 1]


# ---------------------------------------------------------------------------
# Cross-process checkpoint migration under the spawn start method.
# ---------------------------------------------------------------------------


class TestSpawnContextMigration:
    def test_every_method_migrates_between_spawned_shards(
        self, solo_outcomes, monkeypatch
    ):
        """Pause on a loaded shard, restore in a fresh spawn-context
        process, merged trace byte-identical — for every method."""
        dataset = make_tiny_dataset(seed=11)
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")

        async def go():
            router = await _launch(dataset, n_shards=2)
            try:
                staged = []
                for index, item in enumerate(ALL_METHOD_ITEMS):
                    handle = await router.submit(
                        WorkloadItem(
                            object=item.object,
                            limit=item.limit,
                            method=item.method,
                            run_seed=item.run_seed,
                            tenant=item.tenant,
                            shard=index % 2,
                            pause_after=2,
                        )
                    )
                    staged.append(handle)
                outcomes = []
                for handle in staged:
                    state = await handle.wait()
                    source = handle.shard
                    if state == "paused":
                        await router.migrate(handle, (source + 1) % 2)
                        assert handle.shard == (source + 1) % 2
                    outcomes.append(await handle.result())
                stats = await router.stats()
                return outcomes, [h.migrations for h in staged], stats
            finally:
                await router.shutdown()

        outcomes, migrations, stats = asyncio.run(go())
        assert sum(migrations) >= 1
        assert stats.migrations == sum(migrations)
        for item, outcome in zip(ALL_METHOD_ITEMS, outcomes):
            solo = solo_outcomes[(item.method, item.run_seed)]
            assert_traces_identical(outcome.trace, solo.trace)


def _finish_checkpoint(blob):
    """Restore a checkpoint and run it to the end (a fresh process's body)."""
    session = QuerySession.restore(blob)
    for _ in session.stream():
        pass
    return session.outcome()


class TestDurableCheckpoints:
    def test_recovery_checkpoint_restores_in_a_fresh_process_after_shutdown(
        self, solo_engine
    ):
        """The router's recovery-table checkpoint names nothing that dies
        with the fleet: a fresh spawn process restores it after shutdown
        and finishes with the solo trace."""
        dataset = make_tiny_dataset(seed=11)
        item = WorkloadItem(
            object="car", frame_budget=80, batch_size=4, run_seed=5
        )

        async def go():
            router = await _launch(dataset, n_shards=1, checkpoint_every=2)
            try:
                handle = await router.submit(item)
                outcome = await handle.result()
            finally:
                await router.shutdown()
            return handle.checkpoint_blob, outcome

        blob, outcome = asyncio.run(go())
        assert blob is not None
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            restored = pool.submit(_finish_checkpoint, blob).result(timeout=120)
        solo = solo_engine.run(
            item.query(), run_seed=item.run_seed, batch_size=item.batch_size
        )
        assert_traces_identical(outcome.trace, solo.trace)
        assert_traces_identical(restored.trace, solo.trace)


# ---------------------------------------------------------------------------
# Fleet-level admission control and statistics.
# ---------------------------------------------------------------------------


class TestFleetAdmission:
    def test_router_queue_overflow_is_typed(self):
        dataset = make_tiny_dataset(seed=11)
        config = FleetConfig(
            n_shards=1,
            queue_capacity=0,
            server=ServerConfig(max_in_flight=1),
        )

        async def go():
            router = await FleetRouter.launch(
                dataset, config=config, engine_seed=11
            )
            try:
                # An exhaustive scan holds the single slot long enough to
                # observe the full shard deterministically.
                first = await router.submit(
                    WorkloadItem(object="car", limit=1000)
                )
                await first.admitted()
                with pytest.raises(
                    ServerOverloadedError, match="queue full"
                ):
                    await router.submit(
                        WorkloadItem(object="car", limit=1, run_seed=1),
                        wait=False,
                    )
                # The patient path backpressures instead and completes
                # once the first session departs.
                second_task = asyncio.ensure_future(
                    router.submit(
                        WorkloadItem(object="car", limit=1, run_seed=1)
                    )
                )
                outcome_first = await first.result()
                second = await second_task
                outcome_second = await second.result()
                return outcome_first, outcome_second
            finally:
                await router.shutdown()

        outcome_first, outcome_second = asyncio.run(go())
        assert outcome_first.num_results >= 1
        assert outcome_second.num_results >= 1

    def test_least_loaded_splits_a_burst_evenly(self):
        """The fleet-scaling bench's shape: 6 items submitted at once to
        2 shards. The router sees them all before either dispatcher
        admits one, so only the queued count can tell the shards apart;
        the burst must split 3/3."""
        dataset = make_tiny_dataset(seed=11)
        items = [
            WorkloadItem(object="car", limit=2, run_seed=i, tenant=f"t{i}")
            for i in range(6)
        ]

        async def go():
            router = await _launch(
                dataset, n_shards=2, placement="least_loaded"
            )
            try:
                handles = await replay_fleet(router, items, time_scale=0.0)
                placed = [handle.shard for handle in handles]
                for handle in handles:
                    await handle.result()
                return placed
            finally:
                await router.shutdown()

        placed = asyncio.run(go())
        assert [placed.count(0), placed.count(1)] == [3, 3], placed

    def test_submit_after_shutdown_is_refused(self):
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=1)
            await router.shutdown()
            with pytest.raises(QueryError, match="shut down"):
                await router.submit(WorkloadItem(object="car", limit=1))

        asyncio.run(go())


class TestFleetStats:
    def test_cross_shard_cache_aggregation(self):
        """Shard 1 re-running shard 0's query must hit the shared memo,
        and the aggregated per-scope counters must see both processes."""
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=2)
            try:
                first = await router.submit(
                    WorkloadItem(object="car", limit=3, shard=0)
                )
                await first.result()
                second = await router.submit(
                    WorkloadItem(object="car", limit=3, shard=1)
                )
                await second.result()
                return await router.stats()
            finally:
                await router.shutdown()

        stats = asyncio.run(go())
        assert stats.shards == 2
        assert stats.finished == 2
        assert stats.submitted == 2
        assert [s["finished"] for s in stats.per_shard] == [1, 1]
        cache = stats.cache
        assert cache is not None
        assert cache.policy == "shared"
        # Identical query, identical detector: every frame shard 1
        # touched was already memoized by shard 0.
        assert cache.hits > 0
        assert cache.per_scope, "per-scope breakdown must aggregate"
        assert sum(s.hits for s in cache.per_scope.values()) == cache.hits
        assert (
            sum(s.misses for s in cache.per_scope.values()) == cache.misses
        )

    def test_private_cache_fleet_merges_per_shard_infos(self):
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=2, shared_cache=False)
            try:
                for shard in range(2):
                    handle = await router.submit(
                        WorkloadItem(object="car", limit=2, shard=shard)
                    )
                    await handle.result()
                return await router.stats()
            finally:
                await router.shutdown()

        stats = asyncio.run(go())
        cache = stats.cache
        assert cache is not None
        assert cache.policy != "shared"
        assert cache.misses > 0

    def test_describe_is_printable(self):
        dataset = make_tiny_dataset(seed=11)

        async def go():
            router = await _launch(dataset, n_shards=2)
            try:
                handle = await router.submit(
                    WorkloadItem(object="car", limit=2)
                )
                await handle.result()
                return await router.stats()
            finally:
                await router.shutdown()

        text = asyncio.run(go()).describe()
        assert "fleet: 2 shards" in text
        assert "shard 0:" in text
        assert "cache:" in text
