"""Benchmark of record for the extraction, alignment and OCR
post-correction pipelines.

    python3 perfbench/run.py --workload extract_write --seed 1 --seconds 20 --trace 0

Run from the repository root. One local Ray session: 1 logical CPU for
the text workloads, 2 for ``ocr_chain`` (at 1 the chain's correction
pool cannot be scheduled and the run hangs). The workload's inputs are
generated from ``--seed``; the program receives only those files.

Untraced (``--trace 0``): set-up is Ray start + input generation (three
times, median) + one warm-up operation; then operations run back to
back (a closed loop, one client) for ``--seconds``, at least three of
them. Each operation has a timeout and its outputs are checked; a hang,
an exception or a failed check counts as a failed operation. Prints the
end-to-end metrics (medians over the operations).

An operation's cost is its CPU time (``cpu_s``): user + system time of
the benchmark process and of the Ray services, workers and actors over
the program calls. On a shared host the wall time of one operation
moves with the time other tenants take from this machine's CPUs: on a
4-vCPU virtual machine, over ten seeds, the interquartile range of the
wall time of ``extract_write`` reached 0.37 of its median, that of its
CPU time 0.19. The wall time is reported with the per-layer metrics
(``wall.*``).

Traced (``--trace 1``): the same set-up, untraced operations for a third
of ``--seconds`` (for the wall time), then for the rest the benchmark
replays operations in this process with a span around every call into
a layer's public functions, and prints the per-layer metrics (medians
over replays). The spans are written to ``.pb/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pb")  # short: the Ray socket paths live below it
GEN_REPEATS = 3
OP_TIMEOUT_S = 60.0
DEADLINE_S = 150.0  # operations end by then; Ray shutdown fits in the rest of 180 s
RESERVE_S = 30.0  # no new operation starts with less time than this left
MIN_OPS = 3  # untraced operations per run, even past --seconds: one stalled operation is not the median

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "docs_per_cpu_s": "1/s",
    "ok_frac": "ratio",
    "output_match": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer self times: metric -> span name
LAYER_SPANS = {
    "sources.corpus_io.read_s": "sources.corpus_io.read",
    "stages.extract.busy_s": "stages.extract",
    "state.manifest.write_s": "state.manifest.write",
    "state.manifest.resume_s": "state.manifest.resume",
    "corpus.variants.busy_s": "corpus.variants",
    "stages.align.busy_s": "stages.align",
    "sources.media.render_s": "sources.media.render",
    "pipelines.ocr_chain.degrade_s": "pipelines.ocr_chain.degrade",
    "pipelines.ocr_chain.rebalance_s": "pipelines.ocr_chain.rebalance",
    "stages.image_ops.binarize_s": "stages.image_ops.binarize",
    "stages.image_ops.denoise_s": "stages.image_ops.denoise",
    "stages.segment.busy_s": "stages.segment",
    "stages.recognize.busy_s": "stages.recognize",
    "stages.textops.lexicon_s": "stages.textops.lexicon",
    "stages.postcorrect.confusions_s": "stages.postcorrect.confusions",
    "stages.postcorrect.train_ranker_s": "stages.postcorrect.train_ranker",
    "stages.postcorrect.correct_s": "stages.postcorrect.correct",
    "stages.metrics.cer_s": "stages.metrics.cer",
}

PER_LAYER = {
    **{m: "s" for m in LAYER_SPANS},
    "sources.corpus_io.bytes_read": "bytes",
    "stages.extract.spans_out": "count",
    "state.manifest.partitions_committed": "count",
    "state.manifest.bytes_written": "bytes",
    "state.manifest.partitions_skipped": "count",
    "state.manifest.resume_recompute_frac": "ratio",
    "corpus.variants.lines_out": "count",
    "stages.align.line_pairs": "count",
    "stages.align.word_giveup_frac": "ratio",
    "util.levenshtein.calls": "count",
    "util.levenshtein.busy_s": "s",
    "pipelines.ocr_chain.rebalance_spread": "ratio",
    "stages.segment.lines_out": "count",
    "stages.recognize.lines_out": "count",
    "stages.postcorrect.lines_changed": "count",
    "stages.postcorrect.useful_frac": "ratio",
    "stages.postcorrect.corrected_cer": "ratio",
    "ray.overhead_s": "s",
    "wall.run_s": "s",
    "wall.docs_per_s": "1/s",
    "trace.events": "count",
    "trace.overhead_s": "s",
}


class Hang(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """``fn()`` on a daemon thread; raises ``Hang`` after ``timeout``
    (the thread is abandoned: Ray shutdown ends the work it waits on)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised on the calling thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, timeout))
    if t.is_alive():
        raise Hang(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def start_ray(num_cpus: int):
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    temp_dir = os.path.join(WORK, "r")
    kwargs = {}
    # Ray puts AF_UNIX sockets ~62 characters below its temp dir (limit 107)
    if len(temp_dir) <= 45:
        kwargs["_temp_dir"] = temp_dir
    else:
        print(f"perfbench: {temp_dir} is too long for Ray's socket paths; using Ray's default", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False


def stop_ray(procs: dict, hung: bool) -> None:
    """Stop the Ray session and wait for every process it started.

    After a hang, ``ray.shutdown`` is skipped: the abandoned operation
    thread would touch the shut-down core worker, which then ends this
    process at once. The Ray processes are killed instead."""
    import signal

    import ray

    from perfbench.procstat import snapshot, stop_all

    procs.update(snapshot())
    session = None
    try:
        session = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        pass
    if hung:
        stop_all(procs, timeout=5.0, signals=(signal.SIGKILL,))
    else:
        shutdown = threading.Thread(target=ray.shutdown, daemon=True)
        shutdown.start()
        shutdown.join(timeout=30)
        stop_all(procs, timeout=5.0)
    if session and session.startswith(WORK):
        shutil.rmtree(session, ignore_errors=True)


def layer_metrics(tr, vals: dict, run_s: float, pages: int, costs: tuple[float, float]) -> dict:
    out = {m: tr.self_s(span) for m, span in LAYER_SPANS.items()}
    out.update({k: v for k, v in tr.counts.items() if k in PER_LAYER})
    calls, busy = tr.hot.get("util.levenshtein", (0, 0.0))
    out["util.levenshtein.calls"] = calls
    out["util.levenshtein.busy_s"] = busy
    out.update(vals)
    first_write = out["sources.corpus_io.read_s"] + out["stages.extract.busy_s"] + out["state.manifest.write_s"]
    if out["state.manifest.resume_s"] and out["state.manifest.write_s"]:
        out["state.manifest.resume_recompute_frac"] = out["state.manifest.resume_s"] / first_write
    root = next(s for s in tr.spans if s["name"] == "op.run")
    out["ray.overhead_s"] = run_s - root["child_s"]
    out["wall.run_s"] = run_s
    out["wall.docs_per_s"] = pages / run_s
    out["trace.events"] = tr.events()
    out["trace.overhead_s"] = len(tr.spans) * costs[0] + (tr.events() - len(tr.spans)) * costs[1]
    return {m: out.get(m, 0) for m in PER_LAYER}


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=None, help="input size override (tests)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import ocrd_cis_ray
    except ImportError as e:
        print(f"perfbench: the program is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(ocrd_cis_ray.__file__).startswith(ROOT + os.sep):
        print(f"perfbench: ocrd_cis_ray was imported from outside {ROOT}", file=sys.stderr)
        return 2
    from perfbench import procstat
    from perfbench.tracer import Tracer, event_costs
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"w-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    wl = WORKLOADS[args.workload](args.seed, args.pages, run_dir)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    attempted = failed = 0
    checks_total = checks_ok = 0
    samples: dict[str, list[float]] = {}
    layer_samples: list[dict] = []

    def record(res: dict) -> None:
        nonlocal failed, checks_total, checks_ok
        checks_total += len(res["checks"])
        checks_ok += sum(map(bool, res["checks"]))
        if not all(res["checks"]):
            failed += 1
        for k, v in res.items():
            if k != "checks":
                samples.setdefault(k, []).append(v)
        print(f"perfbench: op {attempted}: " + " ".join(
            f"{k}={v:.3f}" for k, v in res.items() if k != "checks") + f" checks={res['checks']}", file=sys.stderr)

    hung = False

    def attempt(fn):
        """Run one operation; False when the run must stop (hang)."""
        nonlocal attempted, failed, hung
        attempted += 1
        try:
            fn()
        except Hang as e:
            failed += 1
            hung = True
            print(f"perfbench: operation {attempted} hung: {e}", file=sys.stderr)
            return False
        except Exception as e:  # any operation error counts as a failure
            failed += 1
            print(f"perfbench: operation {attempted} failed: {e!r}", file=sys.stderr)
        return True

    procs: dict = {}
    setup_s = None
    try:
        t0 = time.perf_counter()
        start_ray(wl.ray_cpus)
        ray_start_s = time.perf_counter() - t0
        procs = procstat.snapshot()
        gen_s = []
        for k in range(GEN_REPEATS):
            t0 = time.perf_counter()
            wl.generate(os.path.join(run_dir, f"in{k}"))
            gen_s.append(time.perf_counter() - t0)
        wl.prepare()
        warm = call_with_timeout(wl.op, min(OP_TIMEOUT_S, remaining()))
        setup_s = ray_start_s + statistics.median(gen_s) + warm["wall_s"]
        if not all(warm["checks"]):
            print("perfbench: the warm-up operation failed its output checks", file=sys.stderr)
            attempted, failed = 1, 1

        def more(n: int, seconds: float, min_n: int = 1) -> bool:
            if failed or n == 0:
                return failed == 0
            return remaining() > RESERVE_S and (n < min_n or time.perf_counter() - t_meas < seconds)

        untraced_s = args.seconds / 3 if args.trace else args.seconds
        with procstat.TREE:
            t_meas = time.perf_counter()
            while more(len(samples.get("run_s", ())), untraced_s, MIN_OPS):
                if not attempt(lambda: record(call_with_timeout(wl.op, min(OP_TIMEOUT_S, remaining())))):
                    break
        if args.trace and failed == 0:
            costs = event_costs()
            run_s = statistics.median(samples["run_s"])
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            n = 0
            while more(n, args.seconds):
                n += 1
                tr = Tracer(f"{args.workload}-{args.seed}-{n}")

                def replay(tr=tr):
                    vals, checks = call_with_timeout(lambda: wl.traced(tr), min(OP_TIMEOUT_S, remaining()))
                    record({"checks": checks})
                    layer_samples.append(layer_metrics(tr, vals, run_s, wl.pages, costs))
                    tr.dump(os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"))

                if not attempt(replay):
                    break
    except Exception as e:
        print(f"perfbench: set-up failed: {e!r}", file=sys.stderr)
        attempted, failed = max(attempted, 1), max(failed, 1)
        hung = hung or isinstance(e, Hang)

    metrics = {}
    if args.trace and layer_samples:
        metrics = {
            m: {"value": statistics.median(s[m] for s in layer_samples), "unit": u} for m, u in PER_LAYER.items()
        }
    elif not args.trace and samples.get("cpu_s") and setup_s is not None:
        cpu_s = statistics.median(samples["cpu_s"])
        values = {
            "setup_s": setup_s,
            "cpu_s": cpu_s,
            "docs_per_cpu_s": wl.pages / cpu_s,
            "ok_frac": (attempted - failed) / attempted,
            "output_match": checks_ok / checks_total,
            "peak_rss_mb": procstat.TREE.peak_mb,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    ok = failed == 0 and bool(metrics)
    # the result goes out before Ray is stopped: Ray logs only to stderr
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    t0 = time.perf_counter()
    stop_ray(procs, hung)
    print(f"perfbench: set-up {setup_s} s, Ray stopped in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    if hung:
        # interpreter exit would join the pipeline threads the abandoned
        # operation still holds
        sys.stderr.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
