"""In-memory tracer for the benchmark's traced run.

Spans are recorded around the benchmark's calls into each layer's
public functions: name, start, end, parent span and run id. Functions
called many thousands of times per run (edit distance) are wrapped as
*hot calls* instead: their calls and busy time are aggregated per name,
and their time is charged to the enclosing span as child time, so the
enclosing layer's self time excludes it. Counts (work done, wasted
work) are recorded at the same boundaries. Nothing is written until
``dump``.

A layer's self time is its span's duration minus the part covered by
its child spans and hot calls.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import Counter, defaultdict
from unittest import mock


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, busy_s]
        self._stack: list[dict] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1]["child_s"] += rec["end"] - rec["start"]
            self.spans.append(rec)

    def current(self) -> str | None:
        return self._stack[-1]["name"] if self._stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap_span(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; ``on_result(result)``
        may record counts."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapped

    def wrap_hot(self, name: str, fn):
        """``fn`` with its calls and busy time aggregated under ``name``."""
        agg = self.hot[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1]["child_s"] += dt

        return wrapped

    def self_s(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name)

    def events(self) -> int:
        return len(self.spans) + sum(c for c, _ in self.hot.values())

    def dump(self, path: str) -> None:
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"run": self.run_id, "counts": dict(self.counts),
                                "hot": {k: v for k, v in self.hot.items()}}) + "\n")


def patch_everywhere(modules, original, replacement) -> contextlib.ExitStack:
    """Replace every module-level binding of ``original`` in ``modules``
    (covers both ``util.levenshtein`` and ``from ..util import
    levenshtein`` copies); the returned stack restores them on close."""
    stack = contextlib.ExitStack()
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                stack.enter_context(mock.patch.object(mod, attr, replacement))
    return stack


def event_costs(n: int = 20000) -> tuple[float, float]:
    """Measured cost in seconds of one recorded span and one hot call,
    used to report the tracing overhead of a traced run."""
    t = Tracer("calibrate")
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    span_cost = (time.perf_counter() - t0) / n
    f = t.wrap_hot("y", _noop)
    t0 = time.perf_counter()
    for _ in range(n):
        f()
    t1 = time.perf_counter()
    for _ in range(n):
        _noop()
    hot_cost = max(0.0, ((t1 - t0) - (time.perf_counter() - t1)) / n)
    return span_cost, hot_cost


def _noop():
    return None
