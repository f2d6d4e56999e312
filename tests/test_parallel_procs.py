"""Child-process lifecycle (repro.parallel.procs): children die with their owner.

An owner killed with SIGKILL (the chaos harness's shard kill, an OOM
kill) never shuts down what it started. Every kind of child the library
starts must notice on its own and exit, under every start method: a
``parallel_map`` pool worker, a 2-shard fleet (its shards and its
shared-cache manager) and the shared-cache manager. Without a watch, an
orphaned fork pool worker blocks on its call queue forever, holding
every inherited descriptor.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Seconds each orphaned child gets to exit after its owner is killed.
EXIT_WITHIN_S = 8.0

_PRELUDE = """
import multiprocessing, os, time

def report():
    for child in multiprocessing.active_children():
        print(child.pid, flush=True)
"""

#: Owner script per child kind, and how many child pids it prints.
#: Every owner prints the pids once its children are running, then
#: parks until the test kills it. Owners keep references to what they
#: started: a dropped pool shuts its workers down on its own.
OWNERS = {
    "parallel_map": ("""
from repro.experiments.parallel import parallel_map
from tests.test_parallel_procs import park

parallel_map(park, range(2), jobs=2)
""", 2),
    "fleet": ("""
import asyncio

from repro.serving.fleet import FleetRouter
from tests.conftest import make_tiny_dataset

async def main():
    router = await FleetRouter.launch(make_tiny_dataset(seed=11), n_shards=2)
    report()
    await asyncio.sleep(60)

asyncio.run(main())
""", 3),
    "manager": ("""
from repro.parallel.shm import shared_detection_cache

shared_detection_cache()
report()
time.sleep(60)
""", 1),
}


def park(item):
    """A ``parallel_map`` task that reports its worker and never returns."""
    # One write per line: both workers share the pipe, and print() may
    # split the number and the newline into separate writes.
    os.write(1, b"%d\n" % os.getpid())
    time.sleep(60)


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive; an unreaped zombie counts as exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _read_pids(owner, count: int, stderr: Path) -> list:
    out = b""
    deadline = time.monotonic() + 60.0
    while out.count(b"\n") < count:
        ready, _, _ = select.select(
            [owner.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        chunk = os.read(owner.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            raise AssertionError(
                f"owner printed {out!r}, expected {count} pids; stderr:\n"
                + stderr.read_text()
            )
        out += chunk
    return [int(line) for line in out.split()]


@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_children_exit_when_owner_is_killed(kind, start_method, tmp_path):
    script, count = OWNERS[kind]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
        REPRO_MP_CONTEXT=start_method,
    )
    stderr = tmp_path / "owner.err"
    with open(stderr, "w") as err:
        owner = subprocess.Popen(
            [sys.executable, "-c", _PRELUDE + script],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=REPO,
            env=env,
        )
    try:
        pids = _read_pids(owner, count, stderr)
        assert all(map(_running, pids)), pids
        owner.kill()  # SIGKILL: no chance to stop anything it started
        owner.wait(timeout=10)
        deadline = time.monotonic() + EXIT_WITHIN_S
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:  # clean up before failing
            os.kill(pid, signal.SIGKILL)
        assert not survivors, (
            f"{kind} children {survivors} outlived their owner under "
            f"{start_method}"
        )
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait()
        owner.stdout.close()
