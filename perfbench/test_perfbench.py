"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perfbench import procstat
from perfbench.run import END_TO_END, PER_LAYER, ROOT
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _file_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            p = os.path.join(d, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def gen(seed, label):
        wl = WORKLOADS[name](seed, 30, str(tmp_path))
        wl.generate(str(tmp_path / label))
        return _file_bytes(str(tmp_path / label))

    a, b, c = gen(7, "a"), gen(7, "b"), gen(8, "c")
    assert a and a == b
    assert a.keys() == c.keys() and a != c


def test_catalog_matches_benchmark_json():
    bench = _load_benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_self_time_excludes_children_and_hot_calls():
    tr = Tracer("t")
    hot = tr.wrap_hot("h", lambda: sum(range(20000)))
    with tr.span("outer"):
        with tr.span("inner"):
            hot()
        hot()
    outer = next(s for s in tr.spans if s["name"] == "outer")
    inner = next(s for s in tr.spans if s["name"] == "inner")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tr.hot["h"][0] == 2
    total = outer["end"] - outer["start"]
    assert tr.self_s("outer") + tr.self_s("inner") + tr.hot["h"][1] == pytest.approx(total)


def test_tree_meter_keeps_the_cpu_time_of_exited_processes():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.5: pass"
    with procstat.TreeMeter(interval=0.05) as meter:
        c0 = meter.cpu_s()
        subprocess.run([sys.executable, "-c", burn], check=True)
        used = meter.cpu_s() - c0
    assert 0.4 <= used < 1.5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(name, trace):
    bench = _load_benchmark()
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--pages", "24"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, p.stderr[-3000:]
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
