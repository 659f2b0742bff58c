"""Process accounting from ``/proc``: summed resident memory and CPU
time of the benchmark process and every process it started (the Ray
services and workers), and stopping whatever of them outlives the Ray
session."""

from __future__ import annotations

import os
import signal
import threading
import time


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def _cpu_and_start(pid: int) -> tuple[float, str] | None:
    """User + system time of ``pid`` (not of its reaped children: those
    are counted as processes of their own) and its start time."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields 14, 15 and 22 of stat(5), counted from the state at 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK"), fields[19]


class TreeMeter:
    """Resident memory and CPU time of this process and every process it
    started (the Ray services, workers and actors).

    A daemon thread reads them every ``interval`` seconds while active:
    ``peak_mb`` is the largest summed RSS, and the last CPU reading of
    each process is kept, so a process that exits keeps its time. The
    actors of a finished Ray actor pool are idle when they are stopped,
    so little is lost between the last reading and the exit."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = 0
        self._cpu: dict[tuple[int, str], float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()

    def _sample(self) -> None:
        rss = 0
        for p in [os.getpid(), *descendants()]:
            if (got := _cpu_and_start(p)) is not None:
                rss += rss_bytes(p)
                with self._lock:
                    self._cpu[(p, got[1])] = got[0]
        self.peak = max(self.peak, rss)

    def _run(self):
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def cpu_s(self) -> float:
        """CPU seconds used so far by every process seen."""
        self._sample()
        with self._lock:
            return sum(self._cpu.values())

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


TREE = TreeMeter()


def _start_time(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[19]
    except OSError:
        return None


def snapshot() -> dict[int, str]:
    """pid -> start time of every descendant, to recognise them after
    they are re-parented."""
    return {p: t for p in descendants() if (t := _start_time(p)) is not None}


def stop_all(procs: dict[int, str], timeout: float = 10.0, signals=(None, signal.SIGTERM, signal.SIGKILL)) -> None:
    """Wait for the processes in ``procs`` to end; terminate, then kill,
    those still alive after ``timeout`` (``None`` in ``signals``: just
    wait)."""

    def alive():
        return [p for p, t in procs.items() if _start_time(p) == t and _state(p) != "Z"]

    for sig in signals:
        if sig is not None:
            for p in alive():
                try:
                    os.kill(p, sig)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _reap()
            if not alive():
                return
            time.sleep(0.1)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
