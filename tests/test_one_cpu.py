"""Every paper entry point finishes in a 1-CPU Ray session.

A stage that holds the only CPU starves the tasks downstream of it, and
the run hangs without an error. One subprocess starts one 1-CPU session
(tests/one_cpu_session.py) and runs the entry points in turn, each on an
input with the shape of the query that uses it. Each gets
``BUDGET_S``; an entry point that misses it, or crashes, fails its own
case, and the session restarts with the entry points after it.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading

import pytest

from tests.one_cpu_session import ENTRY_POINTS, digest, write_inputs

BUDGET_S = 60
STARTUP_S = 120  # ray.init on a busy 1-vCPU host

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _start(sf_dir: str, work: str, names: list[str], log):
    """The session subprocess and a queue of its stdout lines (None at EOF)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tests.one_cpu_session", sf_dir, work, *names],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        start_new_session=True,
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line.strip())
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return proc, lines


def _next(lines: queue.Queue, timeout: float) -> str | None:
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        return "timeout"


def _tail(path: str) -> str:
    with open(path) as f:
        return f.read()[-2000:]


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


@pytest.fixture(scope="module")
def one_cpu(sf_dir, tmp_path_factory):
    """(work dir, {name: digest}, {name: failure message})."""
    work = str(tmp_path_factory.mktemp("one_cpu"))
    write_inputs(sf_dir, work)
    done: dict[str, str] = {}
    failed: dict[str, str] = {}
    pending = list(ENTRY_POINTS)
    while pending:
        log_path = os.path.join(work, f"stderr-{len(failed)}.log")
        with open(log_path, "w") as log:
            proc, lines = _start(sf_dir, work, pending, log)
        ok = _next(lines, STARTUP_S) == "ready"
        if not ok:
            failed.update((n, f"the 1-CPU session did not start: {_tail(log_path)}") for n in pending)
            pending = []
        while ok and pending:
            name = pending.pop(0)
            line = _next(lines, BUDGET_S)
            ok = bool(line) and line.startswith(f"done {name} ")
            if ok:
                done[name] = line.split()[-1]
            elif line == "timeout":
                failed[name] = f"{name} stalled: no result within {BUDGET_S} s at 1 CPU"
            else:
                failed[name] = f"{name} crashed at 1 CPU: {_tail(log_path)}"
        if ok:  # let the session shut down, then clear what is left of it
            try:
                proc.wait(timeout=STARTUP_S)
            except subprocess.TimeoutExpired:
                pass
        _kill(proc)
    return work, done, failed


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_finishes_at_one_cpu(ray_session, sf_dir, one_cpu, name):
    work, done, failed = one_cpu
    if name in failed:
        pytest.fail(failed[name])
    if name in ("run_ocr_chain", "corpus_evaluate_pipeline", "eval_rollup"):
        # same rows and CER counts as in the 4-CPU session
        assert done[name] == digest(ENTRY_POINTS[name](sf_dir, work))
