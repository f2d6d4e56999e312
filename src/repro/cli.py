"""Command-line interface: run queries, experiments and ablations.

Examples::

    python -m repro list-datasets
    python -m repro query --dataset dashcam --object "traffic light" \
        --limit 20 --method exsample --scale 0.05
    python -m repro compare --dataset night_street --object person \
        --recall 0.5 --scale 0.04
    python -m repro experiment fig3
    python -m repro experiment table1 --full
    python -m repro ablation policy
    python -m repro serve --dataset dashcam --workload workload.json
    python -m repro serve --dataset dashcam --listen 127.0.0.1:7070
    python -m repro fleet --dataset dashcam --workload workload.json \
        --shards 2 --placement hash_tenant
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.registry import searcher_specs
from repro.errors import ReproError
from repro.experiments import ablations as ablations_mod
from repro.experiments.report import ARTIFACTS, generate_report, render_report
from repro.experiments.parallel import parallel_sweep_methods
from repro.experiments.runner import default_config
from repro.query.cost import CostModel
from repro.query.engine import SEARCH_METHODS, QueryEngine
from repro.query.metrics import time_to_recall
from repro.query.query import DistinctObjectQuery
from repro.query.session import BudgetExhausted, ResultFound
from repro.serving.placement import PLACEMENT_POLICIES
from repro.utils.tables import ascii_table, format_duration
from repro.video.datasets import DATASET_BUILDERS, make_dataset

_ABLATIONS = {
    "randomplus": ablations_mod.randomplus_ablation,
    "policy": ablations_mod.policy_ablation,
    "prior": ablations_mod.prior_ablation,
    "batch": ablations_mod.batch_ablation,
    "chunks": ablations_mod.chunk_count_ablation,
    "proxy-quality": ablations_mod.proxy_quality_ablation,
    "fusion": ablations_mod.fusion_crossover_ablation,
    "sequential-variance": ablations_mod.sequential_variance_ablation,
    "batch-time": ablations_mod.batch_time_ablation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExSample reproduction: queries, experiments, ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list the six evaluation datasets")

    sub.add_parser(
        "methods",
        help="list registered search methods (including plug-in registrations)",
    )

    query = sub.add_parser("query", help="run one distinct-object query")
    query.add_argument("--dataset", required=True, choices=sorted(DATASET_BUILDERS))
    query.add_argument("--object", required=True, dest="object_class",
                       help="object class to search for")
    query.add_argument("--method", default="exsample", choices=SEARCH_METHODS)
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--recall", type=float, default=None)
    query.add_argument("--scale", type=float, default=0.05)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--detector-fps", type=float, default=20.0)
    query.add_argument(
        "--cost-budget", type=float, default=None,
        help="stop after this many seconds of modelled processing time",
    )
    query.add_argument(
        "--batch", type=int, default=None,
        help="detector batch size (§III-F); stopping points are unaffected",
    )
    query.add_argument(
        "--stream", action="store_true",
        help="print each distinct result the moment it is found",
    )
    query.add_argument(
        "--cache", default="unbounded",
        choices=("unbounded", "lru", "off", "shared"),
        help="detection memoization policy (results are unaffected)",
    )
    _add_index_flag(query)

    compare = sub.add_parser(
        "compare", help="run every method on one query and compare times"
    )
    compare.add_argument("--dataset", required=True, choices=sorted(DATASET_BUILDERS))
    compare.add_argument("--object", required=True, dest="object_class")
    compare.add_argument("--recall", type=float, default=0.5)
    compare.add_argument("--scale", type=float, default=0.05)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--cache", default="unbounded",
        choices=("unbounded", "lru", "off", "shared"),
        help="detection memoization policy (results are unaffected)",
    )
    compare.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the method sweep (default: REPRO_JOBS or 1)",
    )
    _add_index_flag(compare)
    _add_shared_cache_flag(compare)

    serve = sub.add_parser(
        "serve",
        help="replay a workload against the async server, or listen on a "
             "socket (--listen) for wire-protocol clients",
    )
    serve.add_argument("--dataset", required=True, choices=sorted(DATASET_BUILDERS))
    serve.add_argument(
        "--workload", default=None,
        help="JSON workload file: queries with arrival times "
             "(see repro.serving.workload for the format); required unless "
             "--listen is given",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the newline-delimited JSON wire protocol on this "
             "address (port 0 binds an ephemeral port) until a client "
             "sends the shutdown op, instead of replaying a workload",
    )
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--time-scale", type=float, default=0.0,
        help="stretch factor for workload arrival times; 0 (default) "
             "submits as fast as admission allows",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=8,
        help="maximum sessions stepping concurrently (admission control)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="admission queue bound; beyond it submissions backpressure",
    )
    serve.add_argument(
        "--max-batch", type=int, default=256,
        help="maximum frames per fused detector call",
    )
    serve.add_argument(
        "--flush-ms", type=float, default=2.0,
        help="max milliseconds a detector request waits for batch company",
    )
    serve.add_argument(
        "--executor", default=None, metavar="SPEC",
        help="detector executor spec: inline or thread[:N] (results "
             "are unaffected; thread overlaps fused detection with "
             "session CPU work); default: the workload file's "
             "'executor' key, else inline",
    )
    serve.add_argument(
        "--no-batching", action="store_true",
        help="disable cross-session batching (per-session detector calls; "
             "results are unaffected, detector call counts are not)",
    )
    serve.add_argument(
        "--cache", default="unbounded",
        choices=("unbounded", "lru", "off", "shared"),
        help="detection memoization policy (results are unaffected)",
    )
    _add_index_flag(serve)

    fleet = sub.add_parser(
        "fleet",
        help="replay a workload across a sharded fleet of server processes",
    )
    fleet.add_argument("--dataset", required=True, choices=sorted(DATASET_BUILDERS))
    fleet.add_argument(
        "--workload", required=True,
        help="JSON workload file (items may pin a 'shard' or set "
             "'pause_after'; see repro.serving.workload)",
    )
    fleet.add_argument(
        "--shards", type=int, default=2,
        help="number of shard server processes",
    )
    fleet.add_argument(
        "--placement", default="hash_tenant",
        choices=sorted(PLACEMENT_POLICIES),
        help="shard placement policy (traces are placement-independent)",
    )
    fleet.add_argument(
        "--context", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for every child process "
             "(sets REPRO_MP_CONTEXT; default: REPRO_MP_CONTEXT or the "
             "platform default)",
    )
    fleet.add_argument("--scale", type=float, default=0.05)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--time-scale", type=float, default=0.0,
        help="stretch factor for workload arrival times; 0 (default) "
             "submits as fast as admission allows",
    )
    fleet.add_argument(
        "--max-in-flight", type=int, default=8,
        help="in-flight sessions per shard (router admission limit)",
    )
    fleet.add_argument(
        "--queue-capacity", type=int, default=64,
        help="router-side admission queue bound per shard",
    )
    fleet.add_argument(
        "--executor", default=None, metavar="SPEC",
        help="detector executor spec inside each shard server: inline "
             "or thread[:N] (results are unaffected); default: the "
             "workload file's 'executor' key, else inline",
    )
    fleet.add_argument(
        "--no-shared-cache", action="store_true",
        help="give each shard a private detection cache instead of the "
             "cross-process shared memo (results are unaffected)",
    )
    fleet.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="auto-checkpoint every session every N fulfilled steps "
             "(the crash-recovery table; a killed shard's sessions "
             "resume from their last checkpoint, redoing at most N steps)",
    )
    fleet.add_argument(
        "--max-restarts", type=int, default=2,
        help="shard relaunches before the circuit breaker takes the "
             "shard out of rotation (sessions move to survivors)",
    )
    _add_index_flag(fleet)

    index = sub.add_parser(
        "index",
        help="manage a persistent repository index (cross-query reuse)",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build",
        help="seed an index by running queries with recording attached",
    )
    index_build.add_argument("--path", required=True,
                             help="index directory (created if missing)")
    index_build.add_argument("--dataset", required=True,
                             choices=sorted(DATASET_BUILDERS))
    index_build.add_argument("--object", required=True, dest="object_class",
                             help="object class to seed knowledge for")
    index_build.add_argument("--method", default="exsample",
                             choices=SEARCH_METHODS)
    index_build.add_argument("--limit", type=int, default=10)
    index_build.add_argument(
        "--runs", type=int, default=3,
        help="seeding runs (run seeds 0..N-1); later runs warm-start from "
             "the knowledge earlier ones recorded",
    )
    index_build.add_argument("--scale", type=float, default=0.05)
    index_build.add_argument("--seed", type=int, default=0)

    index_stats = index_sub.add_parser(
        "stats", help="summarise an index directory's recorded knowledge"
    )
    index_stats.add_argument("--path", required=True)

    index_vacuum = index_sub.add_parser(
        "vacuum",
        help="fold append-only segments into one compacted store",
    )
    index_vacuum.add_argument("--path", required=True)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table or figure"
    )
    experiment.add_argument("name", choices=sorted(ARTIFACTS) + ["all"])
    experiment.add_argument(
        "--full", action="store_true",
        help="paper-scale configuration (slow; sets REPRO_FULL=1); "
             "default is the quick config unless REPRO_FULL=1",
    )
    experiment.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for independent runs/cells "
             "(default: REPRO_JOBS or 1; results are identical to serial)",
    )
    experiment.add_argument(
        "--cache", default=None,
        choices=("unbounded", "lru", "off", "shared"),
        help="detection-cache policy for worker-built engines "
             "(sets REPRO_CACHE; results are unaffected)",
    )
    _add_shared_cache_flag(experiment)

    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis determinism/concurrency lint suite",
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", default="text", choices=("text", "json"),
        dest="lint_format", help="report format (json is the CI artifact)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings "
             "(default: lint-baseline.json at the repo root if present)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from current findings and exit 0",
    )
    lint.add_argument(
        "--stats", action="store_true",
        help="print the findings-per-rule/package table and baseline debt",
    )
    lint.add_argument(
        "--rules", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also print suppressed and baselined findings",
    )

    ablation = sub.add_parser("ablation", help="run one design-choice ablation")
    ablation.add_argument("name", choices=sorted(_ABLATIONS))
    ablation.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for independent runs (default: REPRO_JOBS or 1)",
    )
    ablation.add_argument(
        "--cache", default=None,
        choices=("unbounded", "lru", "off", "shared"),
        help="detection-cache policy for worker-built engines "
             "(sets REPRO_CACHE; results are unaffected)",
    )
    _add_shared_cache_flag(ablation)

    return parser


def _add_index_flag(subparser) -> None:
    subparser.add_argument(
        "--index", default=None, metavar="PATH",
        help="attach a persistent repository index directory: completed "
             "queries record their knowledge, new ones warm-start from it, "
             "exact repeats replay with zero detector calls",
    )


def _add_shared_cache_flag(subparser) -> None:
    subparser.add_argument(
        "--shared-cache", action="store_true",
        help="share one detection memo across all worker processes "
             "(shorthand for --cache shared); results are unaffected",
    )


def _cmd_list_datasets(out) -> int:
    rows = []
    for name in sorted(DATASET_BUILDERS):
        dataset = make_dataset(name, scale=0.02, seed=0)
        rows.append(
            (
                name,
                dataset.camera,
                dataset.chunk_map.num_chunks,
                ", ".join(dataset.classes[:5])
                + (", ..." if len(dataset.classes) > 5 else ""),
            )
        )
    print(
        ascii_table(
            ["dataset", "camera", "chunks@2%", "classes"],
            rows,
            title="evaluation datasets (synthetic; see DESIGN.md)",
        ),
        file=out,
    )
    return 0


def _cmd_methods(out) -> int:
    rows = [(spec.name, spec.description or "-") for spec in searcher_specs()]
    print(
        ascii_table(
            ["method", "description"],
            rows,
            title="registered search methods (@register_searcher)",
        ),
        file=out,
    )
    return 0


def _cmd_query(args, out) -> int:
    dataset = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = QueryEngine(
        dataset,
        cost_model=CostModel(detector_fps=args.detector_fps),
        seed=args.seed,
        detection_cache=args.cache,
        index=args.index,
    )
    if args.limit is None and args.recall is None and args.cost_budget is None:
        args.limit = 10
    query = DistinctObjectQuery(
        args.object_class,
        limit=args.limit,
        recall_target=args.recall,
        frame_budget=dataset.total_frames,
        cost_budget=args.cost_budget,
    )
    if args.stream:
        return _stream_query(engine, query, args, out)
    outcome = engine.run(query, method=args.method, batch_size=args.batch)
    print(
        f"{outcome.num_results} distinct results in "
        f"{outcome.trace.num_samples} detector frames "
        f"({format_duration(outcome.trace.total_cost)} modelled GPU time)",
        file=out,
    )
    for found in outcome.found[:10]:
        print(
            f"  video {found.video:4d} frame {found.frame:7d} "
            f"score {found.score:.2f}",
            file=out,
        )
    if outcome.num_results > 10:
        print(f"  ... and {outcome.num_results - 10} more", file=out)
    return 0


def _stream_query(engine, query, args, out) -> int:
    """Anytime execution: print results as the session discovers them."""
    session = engine.session(query, method=args.method, batch_size=args.batch)
    for event in session.stream():
        if isinstance(event, ResultFound):
            found = event.result
            print(
                f"  #{event.num_results:3d} video {found.video:4d} "
                f"frame {found.frame:7d} score {found.score:.2f} "
                f"({event.sample_index} frames sampled)",
                file=out,
            )
            if hasattr(out, "flush"):
                out.flush()
        elif isinstance(event, BudgetExhausted):
            print(
                f"done ({event.reason}): {event.num_results} distinct results "
                f"in {event.num_samples} detector frames "
                f"({format_duration(event.total_cost)} modelled GPU time)",
                file=out,
            )
    return 0


def _cmd_compare(args, out) -> int:
    _apply_parallel_env(args)
    cache = "shared" if args.shared_cache else args.cache
    dataset = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = QueryEngine(
        dataset, seed=args.seed, detection_cache=cache, index=args.index
    )
    query = DistinctObjectQuery(
        args.object_class,
        recall_target=args.recall,
        frame_budget=dataset.total_frames,
    )
    rows = []
    outcomes = parallel_sweep_methods(engine, query, jobs=args.jobs)
    for method, outcome in outcomes.items():
        seconds = time_to_recall(outcome.trace, outcome.gt_count, args.recall)
        rows.append(
            (
                method,
                outcome.trace.num_samples,
                "-" if seconds is None else format_duration(seconds),
            )
        )
    print(
        ascii_table(
            ["method", "detector frames", f"time to {args.recall:.0%} recall"],
            rows,
            title=f"{args.dataset} / {args.object_class}",
        ),
        file=out,
    )
    info = engine.cache_info()
    if info is not None and (info.requests or info.size):
        # With --jobs the sweep runs in workers against engine copies; the
        # local counters then only reflect this process's share (a shared
        # cache still shows the store size every worker filled).
        print(f"detection {info}", file=out)
    return 0


#: The environment variables the execution flags set.
_PARALLEL_ENV = ("REPRO_JOBS", "REPRO_FULL", "REPRO_MP_CONTEXT", "REPRO_CACHE")


def _apply_parallel_env(args) -> None:
    """Propagate the execution flags to the harnesses via env.

    The library resolves its scale, worker count, child start method and
    cache policy from the environment (so nested code, worker processes
    and benches see one set of knobs); the CLI flags simply set them for
    the command — worker pools it starts inherit them — and :func:`main`
    restores the earlier values when the command returns or raises.
    """
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "full", False):
        os.environ["REPRO_FULL"] = "1"
    if getattr(args, "context", None) is not None:
        os.environ["REPRO_MP_CONTEXT"] = args.context
    if getattr(args, "shared_cache", False):
        os.environ["REPRO_CACHE"] = "shared"
    elif getattr(args, "cache", None) and args.command in ("experiment", "ablation"):
        os.environ["REPRO_CACHE"] = args.cache


def _workload_problems(items, dataset, dataset_name, n_shards=None):
    """Validate workload entries against a dataset/registry up front.

    One bad item should be a clean per-item message before serving
    starts, not a traceback that abandons the sessions already in
    flight.
    """
    problems = []
    for index, item in enumerate(items):
        if item.object not in dataset.classes:
            problems.append(
                f"entry {index}: class {item.object!r} not in dataset "
                f"{dataset_name!r} (available: {dataset.classes})"
            )
        if item.method not in SEARCH_METHODS:
            problems.append(
                f"entry {index}: unknown method {item.method!r} "
                f"(available: {list(SEARCH_METHODS)})"
            )
        if item.batch_size is not None and item.batch_size < 1:
            problems.append(f"entry {index}: batch_size must be >= 1")
        if (
            n_shards is not None
            and item.shard is not None
            and item.shard >= n_shards
        ):
            problems.append(
                f"entry {index}: pins shard {item.shard} but the fleet "
                f"has {n_shards} shards"
            )
        try:
            item.query()
        except ReproError as exc:
            problems.append(f"entry {index}: {exc}")
    return problems


def _parse_listen(spec: str):
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"--listen expects HOST:PORT, got {spec!r} (use port 0 for an "
            "ephemeral port)"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ReproError(f"--listen port must be an integer, got {port!r}") from exc


def _cmd_serve(args, out) -> int:
    """Replay a workload of timed query arrivals against a QueryServer."""
    import asyncio

    from repro.serving import ServerConfig, load_executor, load_workload, replay

    if (args.workload is None) == (args.listen is None):
        print("serve needs exactly one of --workload or --listen", file=out)
        return 1
    executor = args.executor
    if executor is None and args.workload is not None:
        executor = load_executor(args.workload)
    dataset = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = QueryEngine(
        dataset, seed=args.seed, detection_cache=args.cache, index=args.index
    )
    config = ServerConfig(
        max_in_flight=args.max_in_flight,
        queue_capacity=args.queue_capacity,
        max_batch_size=args.max_batch,
        flush_latency=args.flush_ms / 1000.0,
        batching=not args.no_batching,
        executor=executor or "inline",
    )
    if args.listen is not None:
        from repro.serving.net import serve_forever

        host, port = _parse_listen(args.listen)

        def _announce(bound_port: int) -> None:
            print(
                f"serving {args.dataset} on {host}:{bound_port} "
                "(newline-delimited JSON; send {\"op\": \"shutdown\"} to stop)",
                file=out,
            )
            if hasattr(out, "flush"):
                out.flush()

        asyncio.run(
            serve_forever(
                engine, host=host, port=port, config=config, ready=_announce
            )
        )
        return 0
    items = load_workload(args.workload)
    if not items:
        print("workload is empty; nothing to serve", file=out)
        return 0
    problems = _workload_problems(items, dataset, args.dataset)
    if problems:
        for problem in problems:
            print(f"invalid workload: {problem}", file=out)
        return 1

    async def _run():
        server = engine.serve(config=config)
        handles = await replay(server, items, time_scale=args.time_scale)
        await server.drain()
        return server, handles

    server, handles = asyncio.run(_run())
    rows = []
    for item, handle in zip(items, handles, strict=True):
        state = handle.state
        rows.append(
            (
                handle.tenant,
                item.object,
                handle.method,
                handle.num_results if state == "finished" else "-",
                handle.num_samples,
                state,
            )
        )
    print(
        ascii_table(
            ["tenant", "object", "method", "results", "frames", "state"],
            rows,
            title=f"workload replay: {args.workload} over {args.dataset}",
        ),
        file=out,
    )
    print(server.stats().describe(), file=out)
    failed = [h for h in handles if h.state == "failed"]
    for handle in failed:
        print(
            f"FAILED {handle.tenant}/{handle.query.class_name}: "
            f"{handle.error}",
            file=out,
        )
    return 1 if failed else 0


def _cmd_fleet(args, out) -> int:
    """Replay a workload across a sharded fleet of server processes."""
    from repro.serving import (
        FleetConfig,
        ServerConfig,
        load_executor,
        load_faults,
        load_workload,
    )
    from repro.serving.fleet import run_fleet

    _apply_parallel_env(args)
    items = load_workload(args.workload)
    if not items:
        print("workload is empty; nothing to serve", file=out)
        return 0
    dataset = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    problems = _workload_problems(
        items, dataset, args.dataset, n_shards=args.shards
    )
    if problems:
        for problem in problems:
            print(f"invalid workload: {problem}", file=out)
        return 1
    config = FleetConfig(
        n_shards=args.shards,
        placement=args.placement,
        shared_cache=not args.no_shared_cache,
        queue_capacity=args.queue_capacity,
        server=ServerConfig(
            max_in_flight=args.max_in_flight,
            executor=(
                args.executor or load_executor(args.workload) or "inline"
            ),
        ),
        index=args.index,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        faults=load_faults(args.workload),
    )
    summaries, stats = run_fleet(
        dataset,
        items,
        config=config,
        engine_seed=args.seed,
        time_scale=args.time_scale,
    )
    rows = []
    for summary in summaries:
        rows.append(
            (
                summary["tenant"],
                summary["object"],
                summary["method"],
                summary["shard"],
                summary["num_results"]
                if summary["state"] == "finished"
                else "-",
                summary["num_samples"],
                summary["state"]
                + (f" (moved x{summary['migrations']})"
                   if summary["migrations"] else "")
                + (f" (recovered x{summary['recoveries']})"
                   if summary.get("recoveries") else ""),
            )
        )
    print(
        ascii_table(
            ["tenant", "object", "method", "shard", "results", "frames",
             "state"],
            rows,
            title=(
                f"fleet replay: {args.workload} over {args.dataset} "
                f"({args.shards} shards, {args.placement})"
            ),
        ),
        file=out,
    )
    print(stats.describe(), file=out)
    failed = [s for s in summaries if s["state"] == "failed"]
    for summary in failed:
        print(
            f"FAILED {summary['tenant']}/{summary['object']}: "
            f"{summary['error']}: {summary['message']}",
            file=out,
        )
    return 1 if failed else 0


def _cmd_index(args, out) -> int:
    """Manage a persistent repository index: build, stats, vacuum."""
    from repro.index import RepositoryIndex

    if args.index_command == "stats":
        print(RepositoryIndex(args.path).stats().describe(), file=out)
        return 0
    if args.index_command == "vacuum":
        stats = RepositoryIndex(args.path).vacuum()
        print("vacuum complete", file=out)
        print(stats.describe(), file=out)
        return 0
    # build: run seeding queries with recording attached; each run uses
    # the next run seed, so later runs warm-start from earlier knowledge.
    dataset = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = QueryEngine(dataset, seed=args.seed, index=args.path)
    query = DistinctObjectQuery(
        args.object_class,
        limit=args.limit,
        frame_budget=dataset.total_frames,
    )
    rows = []
    for run_seed in range(args.runs):
        session = engine.session(query, method=args.method, run_seed=run_seed)
        outcome = session.run_to_completion()
        rows.append(
            (
                run_seed,
                "replayed" if session.replayed else "live",
                outcome.num_results,
                outcome.trace.num_samples,
            )
        )
    print(
        ascii_table(
            ["run seed", "mode", "results", "detector frames"],
            rows,
            title=(
                f"index build: {args.runs} x {args.object_class} "
                f"over {args.dataset}"
            ),
        ),
        file=out,
    )
    print(engine.index.stats().describe(), file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    _apply_parallel_env(args)
    if args.name == "all":
        print(render_report(generate_report()), file=out)
        return 0
    config_cls, run, format_result = ARTIFACTS[args.name]
    result = run(default_config(config_cls))
    print(format_result(result), file=out)
    return 0


def _cmd_ablation(args, out) -> int:
    _apply_parallel_env(args)
    fn = _ABLATIONS[args.name]
    config = default_config(ablations_mod.AblationConfig)
    result = fn(config)
    # Some ablations return nested per-variant statistics; flatten for the
    # common tabular renderer.
    flat = {}
    for key, value in result.items():
        if isinstance(value, dict):
            for stat, stat_value in value.items():
                flat[f"{key}/{stat}"] = stat_value
        else:
            flat[key] = value
    print(
        ablations_mod.format_ablation(f"{args.name} ablation", flat),
        file=out,
    )
    return 0


def _cmd_lint(args, out) -> int:
    from pathlib import Path

    from repro import analysis

    root = Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    if not args.paths and not paths[0].exists():
        # Running from an installed checkout layout; fall back to the
        # package's own source tree.
        paths = [Path(analysis.__file__).resolve().parent.parent]
        root = paths[0].parent.parent

    rules = None
    if args.rules:
        rules = [analysis.get_rule(c.strip()) for c in args.rules.split(",") if c.strip()]

    baseline_path = Path(args.baseline) if args.baseline else root / analysis.DEFAULT_BASELINE
    baseline = analysis.Baseline.load(baseline_path)

    result = analysis.run_lint(paths, root, rules=rules, baseline=None)

    if args.write_baseline:
        analysis.Baseline.from_findings(result.findings).save(baseline_path)
        print(f"wrote {baseline_path}", file=out)
        return 0

    result.findings = baseline.apply(result.findings)
    result.baseline_debt = baseline.debt
    if args.lint_format == "json":
        print(analysis.render_json(result), file=out)
    else:
        print(analysis.render_text(result, verbose=args.verbose), file=out)
    if args.stats:
        print(file=out)
        print(analysis.render_stats(result), file=out)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point. Returns a process exit code.

    A typed :class:`~repro.errors.ReproError` prints one ``error:`` line
    and returns 1; any other exception propagates. Either way, the
    environment variables the execution flags set are back at their
    earlier values (see :func:`_apply_parallel_env`).
    """
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    saved_env = {name: os.environ.get(name) for name in _PARALLEL_ENV}
    try:
        if args.command == "list-datasets":
            return _cmd_list_datasets(out)
        if args.command == "methods":
            return _cmd_methods(out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "compare":
            return _cmd_compare(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "fleet":
            return _cmd_fleet(args, out)
        if args.command == "index":
            return _cmd_index(args, out)
        if args.command == "experiment":
            return _cmd_experiment(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command == "ablation":
            return _cmd_ablation(args, out)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 1
    finally:
        # An in-process caller must not carry one command's flags into
        # the next.
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
