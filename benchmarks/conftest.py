"""Benchmark-suite helpers.

Each benchmark regenerates one paper artifact (table or figure) and saves
its text rendering under ``benchmarks/results/`` so the output survives
pytest's capture regardless of ``-s``. Set ``REPRO_FULL=1`` to run the
paper-scale configurations (slow); the default quick configurations
preserve the comparisons' shape at a fraction of the cost.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Machine-readable micro-benchmark metrics. The first :func:`save_metric`
#: call of a pytest session starts the file afresh, later calls merge
#: key-by-key, so after a run that saves metrics the file holds exactly
#: that run's benches — no stale sections from renamed or removed
#: benchmarks — and a run that saves none (the paper artifacts alone)
#: leaves the committed record in place. CI uploads it as an artifact,
#: giving the perf trajectory across PRs a parseable record.
BENCH_JSON = RESULTS_DIR / "BENCH_micro.json"

#: Whether this session has written ``BENCH_JSON`` yet. conftest modules
#: are imported once per pytest session, so this is per-session state.
_bench_json_started = False


def save_artifact(name: str, text: str) -> None:
    """Persist a regenerated artifact and echo it for -s runs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def _git_sha():
    """The checked-out commit, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=RESULTS_DIR.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def save_metric(name: str, **values) -> None:
    """Merge one benchmark's metrics into ``BENCH_micro.json``.

    ``values`` should be JSON-scalar timings/ratios (seconds, speedups,
    counts). Each call overwrites only its own ``name`` section, so the
    file accumulates every micro-benchmark that ran, in any order. Every
    bench saves its row before it asserts, with ``gated`` (whether its
    gate applies on this machine; always for the deterministic count
    gates) and ``passed`` (whether it held; None when not gated), so a
    failed gate still leaves its numbers. ``_meta.git_sha`` names the
    commit that was checked out.
    """
    global _bench_json_started
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {}
    if _bench_json_started:
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except (OSError, ValueError):
            pass
    _bench_json_started = True
    meta = payload.setdefault("_meta", {})
    meta["python"] = platform.python_version()
    meta["machine"] = platform.machine()
    meta["git_sha"] = _git_sha()
    payload[name] = values
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
