"""Sharded serving fleet: shard processes, a tenant router, live migration.

One server process means one GIL and one event loop; the fleet layer
scales the serving story sideways. A :class:`repro.serving.FleetRouter`
spawns N shard server processes — each owning a full engine over the
same dataset and one cross-process detection cache — and routes every
submission by a placement policy (tenant-affine hashing here). Shards
speak the newline-delimited JSON wire protocol (:mod:`repro.serving.net`),
so everything below also works against ``repro serve --listen`` across
machines.

Three properties are demonstrated (and asserted):

* **tenant-affine placement** — one tenant's queries stay on one shard,
  keeping its detection locality in a single process;
* **live migration** — a session is paused on its shard, its checkpoint
  shipped over the wire, and resumed on another shard mid-search;
* **the fleet never changes results** — every outcome, including the
  migrated one, is element-wise identical to the same (query, method,
  run_seed) run alone.

Run:  python examples/fleet_serving.py
"""

import asyncio

import numpy as np

from repro import DistinctObjectQuery, QueryEngine, make_dataset
from repro.serving import FleetRouter, WorkloadItem

DATASET_KWARGS = dict(name="dashcam", scale=0.02, seed=7)
ENGINE_SEED = 7
WORKLOAD = [
    # (tenant, class, limit, run_seed)
    ("alice", "person", 3, 0),
    ("bob", "person", 3, 1),
    ("alice", "traffic light", 2, 2),
    ("bob", "bicycle", 2, 3),
]


async def serve(dataset):
    router = await FleetRouter.launch(
        dataset, n_shards=2, placement="hash_tenant", engine_seed=ENGINE_SEED
    )
    try:
        handles = [
            await router.submit(
                WorkloadItem(
                    object=class_name,
                    limit=limit,
                    run_seed=run_seed,
                    tenant=tenant,
                )
            )
            for tenant, class_name, limit, run_seed in WORKLOAD
        ]
        outcomes = [await handle.result() for handle in handles]

        # Live migration: stage a fifth query with pause_after, then move
        # it to the other shard mid-search. Its trace must come out as if
        # nothing happened.
        mover = await router.submit(
            WorkloadItem(
                object="person",
                limit=3,
                run_seed=9,
                tenant="carol",
                shard=0,
                pause_after=1,
            )
        )
        if await mover.wait() == "paused":
            await router.migrate(mover, to_shard=1)
        moved_outcome = await mover.result()

        stats = await router.stats()
        return handles, outcomes, mover, moved_outcome, stats
    finally:
        await router.shutdown()


def main() -> None:
    dataset = make_dataset(**DATASET_KWARGS)
    print(f"launching a 2-shard fleet over {DATASET_KWARGS['name']}...")
    handles, outcomes, mover, moved_outcome, stats = asyncio.run(
        serve(dataset)
    )

    by_tenant = {}
    for (tenant, class_name, _limit, _run_seed), handle, outcome in zip(
        WORKLOAD, handles, outcomes
    ):
        by_tenant.setdefault(tenant, set()).add(handle.shard)
        print(
            f"  {tenant:5s} {class_name:13s} -> shard {handle.shard}, "
            f"{outcome.num_results} results in "
            f"{outcome.trace.num_samples} frames"
        )
    print(
        f"  carol person        -> shard {mover.shard} "
        f"(migrated x{mover.migrations}), {moved_outcome.num_results} "
        f"results in {moved_outcome.trace.num_samples} frames"
    )
    # Tenant-affine placement: each tenant's queries share one shard.
    assert all(len(shards) == 1 for shards in by_tenant.values())

    print()
    print(stats.describe())

    # The fleet changed where sessions ran, never what they returned.
    solo = QueryEngine(make_dataset(**DATASET_KWARGS), seed=ENGINE_SEED)
    checked = list(zip(WORKLOAD, outcomes))
    checked.append((("carol", "person", 3, 9), moved_outcome))
    for (_tenant, class_name, limit, run_seed), outcome in checked:
        reference = solo.run(
            DistinctObjectQuery(class_name, limit=limit), run_seed=run_seed
        )
        assert np.array_equal(reference.trace.chunks, outcome.trace.chunks)
        assert np.array_equal(reference.trace.frames, outcome.trace.frames)
        assert np.array_equal(reference.trace.costs, outcome.trace.costs)
        assert reference.trace.results == outcome.trace.results
    print()
    print(
        f"{len(checked)} outcomes identical to solo runs "
        f"({stats.migrations} migrated); "
        f"shared cache: {stats.cache.hits} hits / {stats.cache.misses} misses"
    )


if __name__ == "__main__":
    main()
