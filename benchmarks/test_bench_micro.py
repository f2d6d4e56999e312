"""Micro-benchmarks of the library's hot paths.

These use pytest-benchmark's statistics properly (many rounds) — they time
the *implementation*, unlike the artifact benches which run experiment
harnesses once. Useful for catching performance regressions in the sampler
inner loop, frame orders, the detector simulation and the Eq. IV.1 solver.
"""

import os
import time

import numpy as np

from repro.core.config import ExSampleConfig
from repro.core.environment import batched_observe
from repro.core.frame_order import RandomPlusOrder, UniformOrder
from repro.core.sampler import ExSampleSearcher
from repro.detection.simulated import SimulatedDetector
from repro.query.engine import QueryEngine
from repro.theory.instances import InstancePopulation, even_chunk_bounds
from repro.theory.optimal_weights import optimal_weights
from repro.theory.temporal_sim import TemporalEnvironment
from repro.tracking.discriminator import TrackDiscriminator
from repro.utils.rng import RngFactory, spawn_rng
from repro.video.datasets import make_dataset

from benchmarks.conftest import save_artifact, save_metric


def test_exsample_step_throughput(benchmark):
    """Cost of one full pick-observe-update iteration over 128 chunks."""
    population = InstancePopulation.place(
        1000, 2_000_000, 700, spawn_rng(0, "mb"), skew_fraction=1 / 32
    )
    env = TemporalEnvironment.with_even_chunks(population, 128)
    searcher = ExSampleSearcher(env, ExSampleConfig(seed=0), rng=RngFactory(0))

    def step():
        picks = searcher.pick_batch()
        observations = batched_observe(env, picks)
        searcher.update(picks, observations)

    benchmark(step)


def test_observe_batch_beats_per_frame_loop():
    """§III-F: the batched observation path out-runs the per-frame loop.

    Same picks, same seeds, fresh environments per measurement — the only
    difference is one `observe_batch` call versus a Python loop of
    `observe` calls. Timed best-of-N on the synthetic dashcam dataset to
    shrug off scheduler noise; observations are also checked for equality,
    so the speedup is provably not from doing different work.
    """
    dataset = make_dataset("dashcam", scale=0.02, seed=7)
    # Cache off: this bench isolates the batched-vs-looped *observation*
    # paths; memoization (measured by its own bench below) would turn the
    # second measurement into pure cache hits.
    engine = QueryEngine(dataset, seed=7, detection_cache="off")
    sizes = dataset.chunk_map.sizes()
    rng = np.random.default_rng(0)
    picks = [
        (int(c), int(rng.integers(0, sizes[c])))
        for c in rng.integers(0, sizes.size, 512)
    ]

    env_a = engine.environment("person", run_seed=0)
    env_b = engine.environment("person", run_seed=0)
    obs_seq = [env_a.observe(c, f) for c, f in picks]
    obs_batch = env_b.observe_batch(picks)
    assert [(o.d0, o.d1, o.cost) for o in obs_seq] == [
        (o.d0, o.d1, o.cost) for o in obs_batch
    ]

    def per_frame():
        # Fresh environment per round (discriminator state grows during a
        # measurement) but constructed outside the timed region, so the
        # clock sees only observation work.
        env = engine.environment("person", run_seed=1)
        start = time.perf_counter()
        for chunk, frame in picks:
            env.observe(chunk, frame)
        return time.perf_counter() - start

    def batched():
        env = engine.environment("person", run_seed=1)
        start = time.perf_counter()
        env.observe_batch(picks)
        return time.perf_counter() - start

    # Interleave the measurements and keep each side's best so a noisy
    # neighbour on a shared CI runner has to hit every round of one side
    # to flip the comparison.
    t_per_frame = t_batched = float("inf")
    for _ in range(9):
        t_per_frame = min(t_per_frame, per_frame())
        t_batched = min(t_batched, batched())
    speedup = t_per_frame / t_batched
    save_artifact(
        "micro_observe_batch",
        (
            f"observe_batch vs per-frame loop (512 picks, dashcam 0.02)\n"
            f"per-frame: {t_per_frame * 1e3:.2f} ms\n"
            f"batched:   {t_batched * 1e3:.2f} ms\n"
            f"speedup:   {speedup:.2f}x"
        ),
    )
    # Strict "batched beats per-frame" by default; shared CI runners set
    # BENCH_TIMING_TOLERANCE (e.g. 1.2) to keep this a no-major-regression
    # gate instead of an intermittent red on scheduler noise.
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = t_batched < t_per_frame * tolerance
    save_metric(
        "observe_batch",
        per_frame_ms=t_per_frame * 1e3,
        batched_ms=t_batched * 1e3,
        speedup=speedup,
        gated=True,
        passed=passed,
    )
    assert passed, (
        f"batched path slower than per-frame loop: "
        f"{t_batched * 1e3:.2f}ms vs {t_per_frame * 1e3:.2f}ms "
        f"(tolerance {tolerance}x)"
    )


def test_randomplus_order_throughput(benchmark):
    """Frames/second drawn from a 1M-frame random+ order."""
    order_holder = {}

    def draw_batch():
        if "order" not in order_holder or order_holder["order"].remaining < 1000:
            order_holder["order"] = RandomPlusOrder(
                1_000_000, spawn_rng(0, "mb2")
            )
        order = order_holder["order"]
        for _ in range(1000):
            order.next()

    benchmark(draw_batch)


def test_uniform_order_throughput(benchmark):
    holder = {}

    def draw_batch():
        if "order" not in holder or holder["order"].remaining < 1000:
            holder["order"] = UniformOrder(1_000_000, spawn_rng(0, "mb3"))
        for _ in range(1000):
            holder["order"].next()

    benchmark(draw_batch)


def test_detector_throughput(benchmark):
    """Simulated detections/second on a mid-size dataset."""
    dataset = make_dataset("dashcam", scale=0.05, seed=0)
    detector = SimulatedDetector(dataset.world, seed=0)
    frames = iter(range(0, dataset.repository.videos[0].num_frames))
    state = {"frame": 0}

    def detect_one():
        state["frame"] = (state["frame"] + 37) % dataset.repository.videos[
            0
        ].num_frames
        detector.detect(0, state["frame"])

    benchmark(detect_one)


def test_discriminator_matching_throughput(benchmark):
    """Matching cost with a populated track store (hundreds of tracks)."""
    dataset = make_dataset("dashcam", scale=0.05, seed=0)
    detector = SimulatedDetector(dataset.world, seed=0)
    discriminator = TrackDiscriminator(dataset.world, seed=0)
    # Warm the store with detections from a frame sweep.
    for frame in range(0, 20_000, 61):
        dets = detector.detect(0, frame, class_filter="person")
        discriminator.observe(0, frame, dets)
    state = {"frame": 1}

    def match_one():
        state["frame"] = (state["frame"] + 97) % 20_000
        dets = detector.detect(0, state["frame"], class_filter="person")
        discriminator.get_matches(0, state["frame"], dets)

    benchmark(match_one)


def test_optimal_weights_solver(benchmark):
    """Eq. IV.1 solve time at Figure-3 scale (2000 x 128)."""
    population = InstancePopulation.place(
        2000, 2_000_000, 700, spawn_rng(1, "mb4"), skew_fraction=1 / 32
    )
    p_matrix = population.chunk_probabilities(
        even_chunk_bounds(2_000_000, 128)
    )
    benchmark.pedantic(
        optimal_weights, args=(p_matrix, 5000.0), rounds=3, iterations=1
    )


def test_session_stepping_within_10pct_of_monolithic_loop():
    """The QuerySession redesign must not tax the blocking path.

    Same query, same seeds, fresh environment per measurement: one side
    drives the historical monolithic loop (`Searcher.run`), the other
    steps the identical searcher through a streaming `QuerySession`,
    materialising every event. Each side runs once untimed, then the
    fastest of 5 alternating timed runs of each side is compared. The
    streamed run must land within 10% of the monolithic loop on a
    10k-frame run (scaled by BENCH_TIMING_TOLERANCE for noisy shared
    runners); the traces are also compared, so the parity is provably
    not from doing different work.
    """
    from repro.core.sampler import SearchRun
    from repro.query.query import DistinctObjectQuery
    from repro.query.session import QuerySession

    dataset = make_dataset("dashcam", scale=0.02, seed=7)
    engine = QueryEngine(dataset, seed=7)
    frames = 10_000
    assert dataset.total_frames >= frames
    query = DistinctObjectQuery("person", limit=10_000, frame_budget=frames)

    def make_searcher(run_seed):
        env = engine.environment("person", run_seed=run_seed)
        return engine.make_searcher(
            "exsample", env, run_seed=run_seed, batch_size=32
        )

    # Equal work check, outside the timed region.
    trace_mono = make_searcher(0).run(frame_budget=frames)
    session = QuerySession(
        SearchRun(make_searcher(0), frame_budget=frames), query=query
    )
    for _ in session.stream():
        pass
    trace_sess = session.trace()
    assert trace_mono.num_samples == trace_sess.num_samples == frames
    assert np.array_equal(trace_mono.chunks, trace_sess.chunks)
    assert np.array_equal(trace_mono.costs, trace_sess.costs)

    def monolithic():
        searcher = make_searcher(1)
        start = time.perf_counter()
        searcher.run(frame_budget=frames)
        return time.perf_counter() - start

    def stepped():
        run = SearchRun(make_searcher(1), frame_budget=frames)
        sess = QuerySession(run, query=query)
        start = time.perf_counter()
        events = 0
        for _ in sess.stream():
            events += 1
        elapsed = time.perf_counter() - start
        assert events > 0
        return elapsed

    # Run seed 1's frames are first detected by whichever side runs first,
    # so each side runs once untimed before the timed runs alternate.
    monolithic()
    stepped()
    t_mono = t_sess = float("inf")
    for _ in range(5):
        t_mono = min(t_mono, monolithic())
        t_sess = min(t_sess, stepped())
    overhead = t_sess / t_mono
    save_artifact(
        "micro_session_stepping",
        (
            f"QuerySession streaming vs monolithic Searcher.run "
            f"(10k frames, dashcam 0.02, batch 32)\n"
            f"monolithic: {t_mono * 1e3:.2f} ms\n"
            f"session:    {t_sess * 1e3:.2f} ms\n"
            f"overhead:   {overhead:.3f}x"
        ),
    )
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = t_sess <= t_mono * 1.10 * tolerance
    save_metric(
        "session_stepping",
        monolithic_ms=t_mono * 1e3,
        session_ms=t_sess * 1e3,
        overhead=overhead,
        gated=True,
        passed=passed,
    )
    assert passed, (
        f"session-stepped execution {overhead:.3f}x slower than the "
        f"monolithic loop (allowed: 1.10 x tolerance {tolerance})"
    )


def test_detection_cache_sweep_speedup():
    """Repeated-run sweeps over one engine must win >= 3x from the cache.

    The fig3-sweep shape: several runs over the *same* engine, each with a
    fresh environment (fresh discriminator), observing the same frames.
    With the detection cache off, every repeat re-generates detections
    from scratch; with the default unbounded cache, repeats 2..5 are pure
    hits. Observations are compared across the two engines, so the
    speedup is provably not from doing different work. The archie dataset
    (the densest world, ~4.5 visible instances per frame) with a sparse
    query class makes detection the dominant per-frame cost, as it is for
    a real detector.
    """
    dataset = make_dataset("archie", scale=0.02, seed=7)
    sizes = dataset.chunk_map.sizes()
    rng = np.random.default_rng(0)
    picks = [
        (int(c), int(rng.integers(0, sizes[c])))
        for c in rng.integers(0, sizes.size, 512)
    ]
    repeats = 5

    engine_cold = QueryEngine(dataset, seed=7, detection_cache="off")
    engine_cached = QueryEngine(dataset, seed=7, detection_cache="unbounded")

    # Equal-work check, outside the timed region.
    obs_cold = engine_cold.environment("bus", run_seed=0).observe_batch(picks)
    obs_cached = engine_cached.environment("bus", run_seed=0).observe_batch(picks)
    assert [(o.d0, o.d1, o.cost) for o in obs_cold] == [
        (o.d0, o.d1, o.cost) for o in obs_cached
    ]

    def sweep(engine):
        start = time.perf_counter()
        for run_seed in range(1, repeats + 1):
            env = engine.environment("bus", run_seed=run_seed)
            env.observe_batch(picks)
        return time.perf_counter() - start

    t_cold = t_cached = float("inf")
    for _ in range(5):
        t_cold = min(t_cold, sweep(engine_cold))
        t_cached = min(t_cached, sweep(engine_cached))
    speedup = t_cold / t_cached
    info = engine_cached.cache_info()
    save_artifact(
        "micro_cache_sweep",
        (
            f"detection cache: 5-repeat sweep over one engine "
            f"(512 picks/run, archie 0.02, class 'bus')\n"
            f"cache off:  {t_cold * 1e3:.2f} ms\n"
            f"cache on:   {t_cached * 1e3:.2f} ms\n"
            f"speedup:    {speedup:.2f}x\n"
            f"final cache state: {info}"
        ),
    )
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = speedup >= 3.0 / tolerance
    save_metric(
        "cache_sweep",
        cold_ms=t_cold * 1e3,
        cached_ms=t_cached * 1e3,
        speedup=speedup,
        cache_hit_rate=info.hit_rate,
        gated=True,
        passed=passed,
    )
    assert passed, (
        f"cached sweep only {speedup:.2f}x faster than cold "
        f"(required: 3.0x / tolerance {tolerance})"
    )


def test_vectorized_detector_speedup():
    """The vectorised detector must beat the per-instance loop >= 2x.

    The reference below is the historical per-instance implementation
    (one miss draw, one jitter, one score per instance, each via its own
    generator call, with three intermediate BoundingBox objects per
    detection). The product path runs the whole 512-frame call as one
    pass: visibility for every frame is one lookup in the world's
    segment table, ground-truth boxes and miss probabilities are flat
    arrays over all visible instances, the per-frame loop only draws, and
    jitter, clipping and object construction run once after it. Both run
    on a deliberately dense world (~20 visible instances per frame) where
    the inner loop is the cost that matters — the regime the
    vectorisation exists for. The reference consumes the per-frame stream
    in a different order, so only counts are compared, not bytes (the
    per-frame streams themselves are identical).
    """
    from repro.video.synthetic import ClassSpec, build_world
    from repro.video.video import Video, VideoRepository

    repo = VideoRepository(
        [Video("dense-0", 24_000, fps=10.0, width=1280, height=720)]
    )
    world = build_world(
        repo,
        [
            ClassSpec("car", count=600, mean_duration_s=60.0),
            ClassSpec("person", count=300, mean_duration_s=40.0),
        ],
        seed=0,
    )
    detector = SimulatedDetector(world, seed=0)

    from repro.detection.detections import Detection
    from repro.video.geometry import BoundingBox

    def per_instance_detect(video, frame):
        rng = detector._frame_rng.seeded(detector.seed, "detect", video, frame)
        profile = detector.profile
        detections = []
        visible = detector.world.visible(video, frame)
        if visible:
            meta = detector.world.repository.videos[video]
            for instance in visible:
                gt_box = instance.box_at(frame)
                if rng.random() < detector._miss_probability(gt_box):
                    continue
                box = (
                    gt_box
                    if profile.jitter == 0
                    else gt_box.jittered(rng, profile.jitter)
                )
                box = box.clipped(meta.width, meta.height)
                score = float(rng.beta(*profile.score_tp))
                detections.append(
                    Detection(
                        video=video,
                        frame=frame,
                        box=box,
                        class_name=instance.class_name,
                        score=score,
                        instance_uid=instance.uid,
                    )
                )
        count = int(rng.poisson(profile.false_positives_per_frame))
        meta = detector.world.repository.videos[video]
        for _ in range(count):
            w = float(rng.uniform(20, 200))
            h = w * float(rng.uniform(0.5, 1.5))
            x1 = float(rng.uniform(0, max(meta.width - w, 1)))
            y1 = float(rng.uniform(0, max(meta.height - h, 1)))
            detections.append(
                Detection(
                    video=video,
                    frame=frame,
                    box=BoundingBox(x1, y1, x1 + w, y1 + h),
                    class_name=str(rng.choice(detector._class_names)),
                    score=float(rng.beta(*profile.score_fp)),
                    instance_uid=None,
                )
            )
        return detections

    frames = [int(f) for f in np.random.default_rng(1).integers(0, 24_000, 512)]
    # Same frames, same per-frame streams: the two implementations draw in
    # a different order but from identical distributions; visible-instance
    # sets must agree exactly.
    for frame in frames[:32]:
        ref_uids = {d.instance_uid for d in per_instance_detect(0, frame)}
        vec_uids = {d.instance_uid for d in detector.detect(0, frame)}
        visible = {i.uid for i in world.visible(0, frame)} | {None}
        assert ref_uids <= visible and vec_uids <= visible

    t_ref = t_vec = float("inf")
    for _ in range(9):
        start = time.perf_counter()
        for frame in frames:
            per_instance_detect(0, frame)
        t_ref = min(t_ref, time.perf_counter() - start)
        start = time.perf_counter()
        detector.detect_batch([0] * len(frames), frames)
        t_vec = min(t_vec, time.perf_counter() - start)
    speedup = t_ref / t_vec
    save_artifact(
        "micro_vectorized_detector",
        (
            f"vectorized detector vs per-instance loop "
            f"(512-frame batch, ~20 instances/frame)\n"
            f"per-instance: {t_ref * 1e3:.2f} ms\n"
            f"vectorized:   {t_vec * 1e3:.2f} ms\n"
            f"speedup:      {speedup:.2f}x"
        ),
    )
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = speedup >= 2.0 / tolerance
    save_metric(
        "vectorized_detector",
        per_instance_ms=t_ref * 1e3,
        vectorized_ms=t_vec * 1e3,
        speedup=speedup,
        gated=True,
        passed=passed,
    )
    assert passed, (
        f"vectorized detector only {speedup:.2f}x over the per-instance "
        f"loop (required: 2.0x / tolerance {tolerance})"
    )


def _world_probe(world, item):
    """Trivial worker body: the cost under test is task *dispatch*."""
    return (item, world.num_instances)


def _noop(x):
    return x


def _shm_cache_sweep(engine, run_seed):
    """One worker task of a repeated sweep: observe a fixed pick set."""
    sizes = engine.dataset.chunk_map.sizes()
    rng = np.random.default_rng(0)
    picks = [
        (int(c), int(rng.integers(0, sizes[c])))
        for c in rng.integers(0, sizes.size, 256)
    ]
    observations = engine.environment("bus", run_seed=run_seed).observe_batch(picks)
    info = engine.cache_info()
    return [(o.d0, o.d1, o.cost) for o in observations], info.hits, info.misses


def test_world_spawn_dispatch():
    """Per-task dispatch of a built world must beat by-value pickling >= 2x.

    The spawn start method pays full task serialization per submit. A
    world the builder made pickles as its recipe (a few hundred bytes),
    and each worker rebuilds it once, on its first task, then reuses it;
    the same world built straight from its columns pickles by value, so
    every task ships megabytes. Each side runs in its own warmed 2-worker
    spawn pool with a trivial task body, so the measured difference is
    serialization plus one rebuild per worker, not work or pool startup.
    The gate compares the best of 3 rounds; the first round, which pays
    the rebuilds, is recorded next to it. Results are compared, so the
    speedup is provably not from doing different work. The comparison is
    serialization-bound rather than core-bound, so the gate holds on
    1-core runners too; BENCH_TIMING_TOLERANCE relaxes it against
    scheduler noise.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial
    from multiprocessing import get_context

    from repro.video.synthetic import ClassSpec, SyntheticWorld, build_world
    from repro.video.video import Video, VideoRepository

    repo = VideoRepository(
        [Video("dispatch-0", 400_000, fps=10.0, width=1280, height=720)]
    )
    world = build_world(
        repo,
        [
            ClassSpec("car", count=12_000, mean_duration_s=30.0),
            ClassSpec("person", count=8_000, mean_duration_s=20.0),
        ],
        seed=0,
    )
    by_value = SyntheticWorld(world.repository, world.instance_arrays())
    recipe_bytes = len(pickle.dumps(world))
    world_bytes = len(pickle.dumps(by_value))
    assert recipe_bytes < 2048 < world_bytes
    tasks = list(range(12))
    expected = [(i, world.num_instances) for i in tasks]

    def dispatch(sent, rounds=3):
        """(first round, best round) seconds for the task list."""
        fn = partial(_world_probe, sent)
        with ProcessPoolExecutor(
            max_workers=2, mp_context=get_context("spawn")
        ) as pool:
            assert list(pool.map(_noop, range(2))) == [0, 1]  # warm workers
            elapsed = []
            for _ in range(rounds):
                start = time.perf_counter()
                futures = [pool.submit(fn, item) for item in tasks]
                results = [future.result() for future in futures]
                elapsed.append(time.perf_counter() - start)
                assert results == expected
        return elapsed[0], min(elapsed)

    first_pickled, t_pickled = dispatch(by_value)
    first_recipe, t_recipe = dispatch(world)
    speedup = t_pickled / t_recipe
    save_artifact(
        "micro_world_dispatch",
        (
            f"spawn-pool task dispatch: recipe-pickled world vs by-value "
            f"world ({len(tasks)} tasks, {world.num_instances} instances; "
            f"recipe {recipe_bytes} B, by value {world_bytes / 1e6:.1f} MB)\n"
            f"by value: best {t_pickled * 1e3:.2f} ms, "
            f"first round {first_pickled * 1e3:.2f} ms\n"
            f"recipe:   best {t_recipe * 1e3:.2f} ms, "
            f"first round {first_recipe * 1e3:.2f} ms (one rebuild per worker)\n"
            f"speedup (best rounds): {speedup:.2f}x"
        ),
    )
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = speedup >= 2.0 / tolerance
    save_metric(
        "world_dispatch",
        pickled_ms=t_pickled * 1e3,
        recipe_ms=t_recipe * 1e3,
        first_round_pickled_ms=first_pickled * 1e3,
        first_round_recipe_ms=first_recipe * 1e3,
        speedup=speedup,
        recipe_bytes=recipe_bytes,
        world_mb=world_bytes / 1e6,
        tasks=len(tasks),
        cores=os.cpu_count() or 1,
        gated=True,
        passed=passed,
    )
    assert passed, (
        f"recipe-world dispatch only {speedup:.2f}x over by-value world "
        f"dispatch (required: 2.0x / tolerance {tolerance})"
    )


def test_shared_cache_cross_process_hit_rate():
    """A repeated parallel sweep must hit detections another process paid.

    Two consecutive 2-worker pools run the same pick set over one
    engine wired to a :class:`SharedDetectionCache`. The second pool's
    workers are fresh processes with zero local state — every hit they
    report can only come from rows the first pool's workers wrote to the
    shared store. The hit-rate gate is deterministic (no timing), so it
    holds on any runner; wall-clock for both pools is recorded honestly
    alongside.
    """
    from functools import partial

    from repro.experiments.parallel import parallel_map

    dataset = make_dataset("archie", scale=0.02, seed=7)
    engine = QueryEngine(dataset, seed=7, detection_cache="shared")
    engine.detection_cache.clear()
    fn = partial(_shm_cache_sweep, engine)
    start = time.perf_counter()
    first = parallel_map(fn, [0, 1, 2, 3], jobs=2)
    t_first = time.perf_counter() - start
    start = time.perf_counter()
    second = parallel_map(fn, [0, 1, 2, 3], jobs=2)
    t_second = time.perf_counter() - start
    same_observations = [obs for obs, _, _ in first] == [obs for obs, _, _ in second]
    hits = sum(h for _, h, _ in second)
    misses = sum(m for _, _, m in second)
    hit_rate = hits / max(hits + misses, 1)
    store_size = len(engine.detection_cache)
    engine.detection_cache.clear()
    passed = same_observations and hits > 0
    save_artifact(
        "micro_shared_cache",
        (
            f"cross-process shared detection cache: repeated 4-task sweep "
            f"over two fresh 2-worker pools (256 picks/task, archie 0.02)\n"
            f"first pool (cold store):  {t_first * 1e3:.2f} ms\n"
            f"second pool (warm store): {t_second * 1e3:.2f} ms\n"
            f"second-pool hit rate:     {hit_rate:.1%} "
            f"({hits} hits / {misses} misses, {store_size} shared rows)"
        ),
    )
    save_metric(
        "shared_cache",
        first_pool_ms=t_first * 1e3,
        second_pool_ms=t_second * 1e3,
        second_pool_hits=hits,
        second_pool_misses=misses,
        second_pool_hit_rate=hit_rate,
        shared_rows=store_size,
        gated=True,
        passed=passed,
    )
    assert same_observations
    assert hits > 0, (
        "fresh workers of the second pool reported zero hits — the "
        "detection memo is not shared across processes"
    )


def test_parallel_traces_scaling():
    """Process-parallel runs on the fig3 quick workload.

    Times ``parallel_traces`` at jobs=1 vs jobs=4 on one fig3 quick-config
    cell (2000 instances, 2M frames, 128 chunks, 4000-frame budget) and
    asserts the parallel traces are element-wise identical to serial. The
    >= 2x wall-clock gate only applies on machines with >= 4 cores —
    single-core containers still run the identity check and record their
    numbers.
    """
    from functools import partial

    from repro.experiments.parallel import parallel_traces
    from repro.experiments.runner import make_searcher
    from repro.utils.rng import RngFactory

    rngs = RngFactory(0).child("bench-par")
    population = InstancePopulation.place(
        2000, 2_000_000, 700, rngs.stream("pop"), skew_fraction=1 / 32
    )
    bounds = even_chunk_bounds(2_000_000, 128)
    make = partial(make_searcher, "exsample", population, bounds, rngs, ("ex",), {})
    runs, budget = 8, 4000

    serial = parallel_traces(make, runs, jobs=1, frame_budget=budget)
    parallel = parallel_traces(make, runs, jobs=4, frame_budget=budget)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.chunks, b.chunks)
        assert np.array_equal(a.d0s, b.d0s)
        assert np.array_equal(a.costs, b.costs)

    t_serial = t_parallel = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        parallel_traces(make, runs, jobs=1, frame_budget=budget)
        t_serial = min(t_serial, time.perf_counter() - start)
        start = time.perf_counter()
        parallel_traces(make, runs, jobs=4, frame_budget=budget)
        t_parallel = min(t_parallel, time.perf_counter() - start)
    speedup = t_serial / t_parallel
    cores = os.cpu_count() or 1
    save_artifact(
        "micro_parallel_scaling",
        (
            f"parallel_traces jobs=4 vs jobs=1 "
            f"(fig3 quick cell, {runs} runs x {budget} frames, "
            f"{cores} cores available)\n"
            f"serial (jobs=1):   {t_serial * 1e3:.2f} ms\n"
            f"parallel (jobs=4): {t_parallel * 1e3:.2f} ms\n"
            f"speedup:           {speedup:.2f}x\n"
            f"traces: parallel == serial, element-wise"
        ),
    )
    gated = cores >= 4
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = speedup >= 2.0 / tolerance if gated else None
    save_metric(
        "parallel_scaling",
        serial_ms=t_serial * 1e3,
        parallel_ms=t_parallel * 1e3,
        speedup=speedup,
        jobs=4,
        cores=cores,
        gated=gated,
        passed=passed,
    )
    if gated:
        assert passed, (
            f"jobs=4 only {speedup:.2f}x over serial on {cores} cores "
            f"(required: 2.0x / tolerance {tolerance})"
        )


def test_serving_cross_session_batching_cuts_detector_calls():
    """Cross-session batching + off-loop overlap: calls *and* wall-clock.

    Four ways to run the same 8-query workload over one engine:

    * **fused** — the QueryServer with batching on: pending frame requests
      coalesce across sessions into fused ``detect_batch`` calls
      (executed inline on the event loop);
    * **fused+overlapped** — same fusing, but the fused calls run on the
      thread detector executor: detection overlaps session CPU work in a
      double-buffered pipeline;
    * **per-session** — the same server with batching off: every session
      invokes the detector itself, one call per step (the old
      ``run_many`` round-robin schedule);
    * **solo** — plain sequential ``engine.run`` per query.

    Each mode runs on a fresh engine (fresh cache, fresh call counter)
    with identical (query, method, run_seed) triples, so traces must be
    element-wise identical across all four — asserted below, which
    proves both the call savings and the overlap are pure scheduling,
    not skipped work.

    Two gates. Calls: fused issues at most half the calls of per-session
    stepping (deterministic, no tolerance). Wall-clock: fused+overlapped
    beats sequential solo by >=1.3x — the regression this PR exists to
    fix, since inline fused execution *lost* to solo despite 5x fewer
    calls (everything serialized on the loop, plus batching overhead).
    The timing gate takes min-of-3 on both sides and only applies on
    >=2-core machines; a 1-core container cannot overlap anything, so
    there the numbers are recorded honestly without failing (the
    ``micro_parallel_scaling`` precedent).
    """
    from repro.query.query import DistinctObjectQuery
    from repro.serving import ServerConfig

    n_sessions = 8
    queries = [DistinctObjectQuery("person", limit=6) for _ in range(n_sessions)]

    def build_engine():
        return QueryEngine(
            make_dataset("dashcam", scale=0.02, seed=7), seed=7
        )

    def run_server(batching, executor="inline"):
        engine = build_engine()
        start = time.perf_counter()
        outcomes = engine.run_many(
            queries,
            batch_size=4,
            server_config=ServerConfig(
                max_in_flight=n_sessions,
                max_batch_size=1024,
                batching=batching,
                executor=executor,
            ),
        )
        elapsed = time.perf_counter() - start
        return outcomes, engine.detector.detect_calls, elapsed

    def run_solo():
        engine = build_engine()
        start = time.perf_counter()
        outcomes = [
            engine.run(query, run_seed=seed, batch_size=4)
            for seed, query in enumerate(queries)
        ]
        elapsed = time.perf_counter() - start
        return outcomes, engine.detector.detect_calls, elapsed

    fused, fused_calls, fused_s = run_server(batching=True)
    overlapped, overlapped_calls, overlapped_s = run_server(
        batching=True, executor="thread"
    )
    plain, plain_calls, plain_s = run_server(batching=False)
    solo, solo_calls, solo_s = run_solo()

    for a, b, c, d in zip(fused, overlapped, plain, solo):
        for other in (b, c, d):
            assert np.array_equal(a.trace.chunks, other.trace.chunks)
            assert np.array_equal(a.trace.frames, other.trace.frames)
            assert np.array_equal(a.trace.costs, other.trace.costs)
            assert a.trace.results == other.trace.results

    # The executor changes where fused calls run, never how they fuse.
    assert overlapped_calls == fused_calls

    # min-of-3 for the timing-gated pair (first runs above count as one).
    for _ in range(2):
        _, _, s = run_server(batching=True, executor="thread")
        overlapped_s = min(overlapped_s, s)
        _, _, s = run_solo()
        solo_s = min(solo_s, s)
    overlap_speedup = solo_s / overlapped_s

    reduction = plain_calls / max(fused_calls, 1)
    cores = os.cpu_count() or 1
    save_artifact(
        "micro_serving_batching",
        (
            f"cross-session detector batching "
            f"({n_sessions} concurrent sessions, dashcam 0.02, batch 4, "
            f"{cores} cores available)\n"
            f"fused (QueryServer, inline executor): {fused_calls} calls, "
            f"{fused_s * 1e3:.1f} ms\n"
            f"fused+overlapped (thread executor):   {overlapped_calls} calls, "
            f"{overlapped_s * 1e3:.1f} ms\n"
            f"per-session stepping (batching off):  {plain_calls} calls, "
            f"{plain_s * 1e3:.1f} ms\n"
            f"sequential solo runs:                 {solo_calls} calls, "
            f"{solo_s * 1e3:.1f} ms\n"
            f"call reduction (fused vs per-session): {reduction:.2f}x\n"
            f"overlap speedup (solo / fused+overlapped): "
            f"{overlap_speedup:.2f}x\n"
            f"outcomes: identical element-wise across all four modes"
        ),
    )
    gated = cores >= 2
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = overlap_speedup >= 1.3 / tolerance if gated else None
    save_metric(
        "serving_batching",
        sessions=n_sessions,
        fused_calls=fused_calls,
        overlapped_calls=overlapped_calls,
        per_session_calls=plain_calls,
        solo_calls=solo_calls,
        call_reduction=reduction,
        overlap_speedup=overlap_speedup,
        fused_ms=fused_s * 1e3,
        overlapped_ms=overlapped_s * 1e3,
        per_session_ms=plain_s * 1e3,
        solo_ms=solo_s * 1e3,
        cores=cores,
        gated=gated,
        passed=passed,
    )
    assert fused_calls * 2 <= plain_calls, (
        f"cross-session batching saved only {reduction:.2f}x detector calls "
        f"({fused_calls} fused vs {plain_calls} per-session; required >=2x)"
    )
    if gated:
        assert passed, (
            f"fused+overlapped serving only {overlap_speedup:.2f}x over "
            f"sequential solo on {cores} cores "
            f"(required: 1.3x / tolerance {tolerance})"
        )


def test_fleet_scaling_throughput():
    """A 2-shard fleet must out-serve one shard server — where it can.

    The fleet's pitch is sideways scaling: shard processes own whole
    engines, so detector work runs on distinct cores and the router only
    moves JSON frames. Both sides replay the same workload through the
    same wire path (a 1-shard fleet vs a 2-shard fleet, launch cost
    excluded), so the measured difference is parallelism, not protocol.
    Outcomes are asserted element-wise identical to solo ``engine.run``
    for both fleet widths — scaling never changes a result.

    The >=1.5x throughput gate only applies on multi-core machines; a
    1-core runner cannot parallelize detector work, so there the numbers
    are recorded honestly (speedup ~1x or below) without failing.
    """
    import asyncio

    from repro.query.query import DistinctObjectQuery
    from repro.serving.fleet import FleetRouter, replay_fleet
    from repro.serving.workload import WorkloadItem

    seed = 7
    dataset_kwargs = dict(name="dashcam", scale=0.02, seed=seed)
    items = [
        WorkloadItem(
            object=class_name,
            limit=3,
            run_seed=run_seed,
            tenant=f"t{run_seed}",
        )
        for run_seed, class_name in enumerate(
            ["person", "traffic light", "person", "bicycle",
             "person", "traffic light"]
        )
    ]

    async def replay_through(n_shards):
        router = await FleetRouter.launch(
            make_dataset(**dataset_kwargs),
            n_shards=n_shards,
            placement="least_loaded",
            engine_seed=seed,
        )
        try:
            start = time.perf_counter()
            handles = await replay_fleet(router, items, time_scale=0.0)
            outcomes = [await handle.result() for handle in handles]
            elapsed = time.perf_counter() - start
        finally:
            await router.shutdown()
        return outcomes, elapsed

    def best_of(n_shards, rounds=3):
        best = None
        for _ in range(rounds):
            outcomes, elapsed = asyncio.run(replay_through(n_shards))
            if best is None or elapsed < best[1]:
                best = (outcomes, elapsed)
        return best

    single_outcomes, t_single = best_of(1)
    fleet_outcomes, t_fleet = best_of(2)

    # Identity first: neither fleet width may change any outcome.
    solo = QueryEngine(make_dataset(**dataset_kwargs), seed=seed)
    for item, one, two in zip(items, single_outcomes, fleet_outcomes):
        reference = solo.run(
            DistinctObjectQuery(item.object, limit=item.limit),
            run_seed=item.run_seed,
        )
        for outcome in (one, two):
            assert np.array_equal(reference.trace.chunks, outcome.trace.chunks)
            assert np.array_equal(reference.trace.frames, outcome.trace.frames)
            assert np.array_equal(reference.trace.costs, outcome.trace.costs)
            assert reference.trace.results == outcome.trace.results

    cores = os.cpu_count() or 1
    speedup = t_single / t_fleet
    throughput_single = len(items) / t_single
    throughput_fleet = len(items) / t_fleet
    save_artifact(
        "micro_fleet_scaling",
        (
            f"fleet replay throughput: 2 shard processes vs 1 "
            f"({len(items)} sessions, least_loaded placement, "
            f"{cores} cores)\n"
            f"1 shard:  {t_single * 1e3:.1f} ms "
            f"({throughput_single:.1f} sessions/s)\n"
            f"2 shards: {t_fleet * 1e3:.1f} ms "
            f"({throughput_fleet:.1f} sessions/s)\n"
            f"speedup:  {speedup:.2f}x\n"
            f"outcomes: identical element-wise to solo runs at both widths"
        ),
    )
    gated = cores >= 2
    tolerance = float(os.environ.get("BENCH_TIMING_TOLERANCE", "1.0"))
    passed = speedup >= 1.5 / tolerance if gated else None
    save_metric(
        "fleet_scaling",
        sessions=len(items),
        single_shard_ms=t_single * 1e3,
        two_shard_ms=t_fleet * 1e3,
        speedup=speedup,
        cores=cores,
        gated=gated,
        passed=passed,
    )
    if gated:
        assert passed, (
            f"2-shard fleet sped replay up only {speedup:.2f}x on {cores} "
            f"cores (required >=1.5x)"
        )


def test_repository_index_warm_start(tmp_path):
    """The repository index must cut detector sampling on repeat workloads.

    Two engines run the identical query at run seeds 1..6 over the same
    dataset. The cold engine has no index; the warm engine shares a
    repository index seeded by one prior run (seed 0) and keeps recording
    as it goes, so later seeds benefit from everything earlier ones paid —
    exactly the cross-query reuse the subsystem exists for. Samples are
    summed across seeds because individual (warm, cold) pairs are noisy:
    a lucky cold draw can beat an unlucky warm one, but the aggregate
    cannot. Both gates are deterministic counts, so no timing tolerance
    applies; metrics are recorded before either assert so a failure still
    leaves honest numbers in the trajectory file.

    The second gate is the exact-repeat short-circuit: a fresh engine on
    the same index re-issued the seed-0 query and must replay it from the
    recorded outcome — zero detector calls, byte-identical outcome pickle.
    """
    import pickle

    from repro.query.engine import ReplaySession
    from repro.query.query import DistinctObjectQuery

    dataset_kwargs = dict(name="dashcam", scale=0.02, seed=7)
    query = DistinctObjectQuery("bicycle", limit=4)
    index_path = tmp_path / "repo-index"
    seeds = range(1, 7)

    warm_engine = QueryEngine(
        make_dataset(**dataset_kwargs), seed=7, index=str(index_path)
    )
    seed_outcome = warm_engine.run(query, run_seed=0)
    warm_samples = sum(
        warm_engine.run(query, run_seed=s).trace.num_samples for s in seeds
    )

    cold_engine = QueryEngine(make_dataset(**dataset_kwargs), seed=7)
    cold_samples = sum(
        cold_engine.run(query, run_seed=s).trace.num_samples for s in seeds
    )

    # Exact repeat on a fresh engine: replayed, zero detector work.
    fresh = QueryEngine(
        make_dataset(**dataset_kwargs), seed=7, index=str(index_path)
    )
    fresh.detection_cache.clear()  # preload must not mask live sampling
    session = fresh.session(query, run_seed=0)
    replayed = isinstance(session, ReplaySession)
    replay_calls = fresh.detector.detect_calls
    blob_identical = session.outcome_blob == pickle.dumps(
        seed_outcome, protocol=pickle.HIGHEST_PROTOCOL
    )

    reduction = cold_samples / max(warm_samples, 1)
    passed = (
        warm_samples < cold_samples
        and replayed
        and replay_calls == 0
        and blob_identical
    )
    save_artifact(
        "micro_warm_start",
        (
            f"repository index warm start "
            f"(dashcam 0.02, 'bicycle' limit 4, seeds 1..6 summed)\n"
            f"cold engine (no index):   {cold_samples} samples\n"
            f"warm engine (shared idx): {warm_samples} samples\n"
            f"reduction:                {reduction:.2f}x\n"
            f"exact repeat: replayed={replayed}, "
            f"detector calls={replay_calls}, "
            f"outcome bytes identical={blob_identical}"
        ),
    )
    save_metric(
        "warm_start",
        cold_samples=cold_samples,
        warm_samples=warm_samples,
        reduction=reduction,
        runs_summed=len(list(seeds)),
        replay_detector_calls=replay_calls,
        replay_byte_identical=blob_identical,
        gated=True,
        passed=passed,
    )
    assert warm_samples < cold_samples, (
        f"warm-started runs drew {warm_samples} samples vs {cold_samples} "
        f"cold over seeds 1..6 — the index priors are not helping"
    )
    assert replayed and replay_calls == 0, (
        f"exact repeat was not short-circuited (replayed={replayed}, "
        f"{replay_calls} detector calls)"
    )
    assert blob_identical, (
        "replayed outcome pickle differs from the recorded run's bytes"
    )


def test_crash_recovery():
    """A mid-search SIGKILL costs at most ``checkpoint_every`` redone steps.

    One supervised shard runs a budgeted search while the chaos harness
    kills the shard process after 7 fulfilled steps. The router relaunches
    the shard, resumes the session from its latest recovery-table
    checkpoint (taken every 2 steps), and the final outcome must be
    byte-identical to a solo ``engine.run``. Gates are on correctness —
    the redo ledger stays within ``checkpoint_every`` per recovery and the
    trace is unchanged; the clean-vs-crash wall times are recorded for the
    perf trajectory but not gated (detection latency is timer-dependent).
    """
    import asyncio

    from repro.query.query import DistinctObjectQuery
    from repro.serving.faults import FaultPlan, FaultSpec
    from repro.serving.fleet import FleetRouter
    from repro.serving.workload import WorkloadItem

    seed = 7
    checkpoint_every = 2
    dataset_kwargs = dict(name="dashcam", scale=0.02, seed=seed)
    item = WorkloadItem(
        object="person", frame_budget=200, batch_size=8, run_seed=5
    )

    async def replay_once(faults):
        router = await FleetRouter.launch(
            make_dataset(**dataset_kwargs),
            n_shards=1,
            engine_seed=seed,
            checkpoint_every=checkpoint_every,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
            faults=faults,
        )
        try:
            start = time.perf_counter()
            handle = await router.submit(item)
            outcome = await handle.result()
            elapsed = time.perf_counter() - start
            stats = await router.stats()
        finally:
            await router.shutdown()
        return outcome, stats, elapsed

    clean_outcome, _, t_clean = asyncio.run(replay_once(None))
    kill = FaultPlan((FaultSpec(kind="kill", shard=0, after_steps=7),))
    crash_outcome, stats, t_crash = asyncio.run(replay_once(kill))

    solo = QueryEngine(make_dataset(**dataset_kwargs), seed=seed).run(
        item.query(), run_seed=item.run_seed, batch_size=item.batch_size
    )
    identical = all(
        np.array_equal(solo.trace.chunks, outcome.trace.chunks)
        and np.array_equal(solo.trace.frames, outcome.trace.frames)
        and np.array_equal(solo.trace.costs, outcome.trace.costs)
        and solo.trace.results == outcome.trace.results
        for outcome in (clean_outcome, crash_outcome)
    )
    recoveries = stats.recovered_sessions + stats.rerun_sessions
    passed = (
        identical
        and stats.restarts >= 1
        and recoveries >= 1
        and stats.redone_steps <= checkpoint_every * recoveries
    )

    save_artifact(
        "micro_crash_recovery",
        (
            f"crash recovery: SIGKILL after 7 steps, checkpoint every "
            f"{checkpoint_every} (1 shard, {item.frame_budget}-frame "
            f"budget, batch {item.batch_size})\n"
            f"clean run:   {t_clean * 1e3:.1f} ms\n"
            f"crashed run: {t_crash * 1e3:.1f} ms "
            f"(+{(t_crash - t_clean) * 1e3:.1f} ms to detect + relaunch + "
            f"resume)\n"
            f"restarts: {stats.restarts}  recovered: "
            f"{stats.recovered_sessions}  rerun: {stats.rerun_sessions}  "
            f"steps redone: {stats.redone_steps} "
            f"(bound {checkpoint_every}/recovery)\n"
            f"outcome: {'byte-identical to' if identical else 'DIFFERS from'} "
            f"solo engine.run"
        ),
    )
    save_metric(
        "micro_crash_recovery",
        clean_ms=t_clean * 1e3,
        crashed_ms=t_crash * 1e3,
        recovery_overhead_ms=(t_crash - t_clean) * 1e3,
        restarts=stats.restarts,
        recovered_sessions=stats.recovered_sessions,
        rerun_sessions=stats.rerun_sessions,
        redone_steps=stats.redone_steps,
        checkpoint_every=checkpoint_every,
        identical=identical,
        gated=True,
        passed=passed,
    )
    assert identical, "an outcome differs from the solo engine.run trace"
    assert stats.restarts >= 1, "the kill fault never tripped supervision"
    assert recoveries >= 1
    assert stats.redone_steps <= checkpoint_every * recoveries, (
        f"{stats.redone_steps} steps redone across {recoveries} recoveries "
        f"— the checkpoint cycle (every {checkpoint_every}) is not bounding "
        f"lost work"
    )
