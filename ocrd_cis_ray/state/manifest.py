"""Per-partition lineage + checkpoint manifests for resumable runs.

The reference's resume story is coarse: file groups are materialized on
disk and steps are skipped when their output dir exists
(ocrd_cis/aio/aio.py:269-271,296-298); postcorrect reloads mets.xml to
avoid clobbering (postcorrect/cli.py:44-46). At 10^12 documents the
engine needs per-partition granularity (north_rule): each stage writes
one output directory per doc_id range partition, committed atomically
(tmp dir + rename) together with a manifest row recording
(partition id, key range, input fingerprint, row count, status). A
resumed run lists committed partitions and skips WRITING them: it still
recomputes the upstream Dataset once, because the partition bounds are
drawn from a key sample of that Dataset, and it rewrites only the
partitions that are missing or stale. A resume that reads only the
uncommitted inputs needs input-keyed partitions (ROADMAP item 2).

Layout:

    out_dir/
      part=00000/ *.parquet        (atomic: written as .tmp-00000, renamed)
      _manifest/00000.json         ({"partition": 0, "lo": ..., "hi": ...,
                                     "rows": N, "input_fingerprint": ...,
                                     "status": "done", "stage": name})
"""

from __future__ import annotations

import json
import os
import shutil
import uuid


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def completed_partitions(out_dir: str) -> dict[int, dict]:
    """Partitions already committed by a previous (possibly killed) run."""
    mdir = _manifest_dir(out_dir)
    done: dict[int, dict] = {}
    if not os.path.isdir(mdir):
        return done
    for name in os.listdir(mdir):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, name)) as f:
                rec = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue  # torn write = not committed
        if rec.get("status") == "done":
            done[int(rec["partition"])] = rec
    return done


def commit_partition(out_dir: str, partition: int, rec: dict) -> None:
    """Atomically publish a partition's manifest row (write tmp + rename)."""
    mdir = _manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    rec = dict(rec, partition=partition, status="done")
    tmp = os.path.join(mdir, f".tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as f:
        json.dump(rec, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(mdir, f"{partition:05d}.json"))


def partition_dir(out_dir: str, partition: int) -> str:
    return os.path.join(out_dir, f"part={partition:05d}")


def run_partitioned(
    make_ds,
    out_dir: str,
    partitions: list[tuple[str, str]],
    *,
    stage: str = "stage",
    input_fingerprint: str = "",
) -> dict:
    """Resumable partitioned execution.

    ``partitions`` is a list of (lo, hi) doc_id key ranges (hi exclusive,
    "" = unbounded); ``make_ds(lo, hi)`` returns the Dataset for one
    range. Completed partitions (per the manifest) are skipped; each
    remaining partition is written to a tmp dir, fsync-renamed into
    place, then its manifest row is committed. A kill between write and
    commit leaves a .tmp dir that is ignored and redone on resume —
    at-least-once execution with exactly-once publication.

    Returns {"completed": k, "skipped": s, "rows": total}.
    """
    os.makedirs(out_dir, exist_ok=True)
    # sweep stale tmp dirs from killed runs (their manifests were never
    # committed, so their work is redone below)
    for name in os.listdir(out_dir):
        if name.startswith(".tmp-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    done = completed_partitions(out_dir)
    skipped = completed = rows_total = 0
    for pid, (lo, hi) in enumerate(partitions):
        rec = done.get(pid)
        # a committed partition is only reusable when it was produced
        # from the SAME inputs over the SAME key range — a rerun with
        # changed inputs or re-derived partition bounds must invalidate
        # and recompute, not silently serve stale rows
        if rec is not None and (
            rec.get("input_fingerprint", "") == input_fingerprint
            and rec.get("lo") == lo
            and rec.get("hi") == hi
        ):
            skipped += 1
            rows_total += int(rec.get("rows", 0))
            continue
        if rec is not None:
            # invalidate: remove the stale manifest row before redoing
            try:
                os.remove(os.path.join(_manifest_dir(out_dir), f"{pid:05d}.json"))
            except OSError:
                pass
        final = partition_dir(out_dir, pid)
        tmp = os.path.join(out_dir, f".tmp-{pid:05d}-{uuid.uuid4().hex}")
        ds = make_ds(lo, hi)
        ds.write_parquet(tmp)
        rows = sum(
            _parquet_rows(os.path.join(tmp, f)) for f in os.listdir(tmp) if f.endswith(".parquet")
        )
        nbytes = sum(
            os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp) if f.endswith(".parquet")
        )
        if os.path.isdir(final):
            shutil.rmtree(final)  # stale uncommitted output from a kill
        os.replace(tmp, final)
        commit_partition(
            out_dir,
            pid,
            {"lo": lo, "hi": hi, "rows": rows, "bytes": nbytes, "stage": stage, "input_fingerprint": input_fingerprint},
        )
        completed += 1
        rows_total += rows
    return {"completed": completed, "skipped": skipped, "rows": rows_total}


def _parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def partitioned_write_pass(
    ds,
    out_dir: str,
    *,
    key: str,
    n_partitions: int,
    stage: str,
    input_fingerprint: str,
    sample_limit: int,
    write_batch,
    rows_in_dir,
    extra_rec=None,
    stringify_key: bool = False,
) -> dict:
    """Shared scaffold of the one-pass resumable sinks: the kill-safety-
    critical resume semantics live here ONCE — sampled key-range bounds,
    committed-partition skip validation against (lo, hi, fingerprint),
    stale-manifest invalidation, .tmp sweep + per-run token dirs, the
    single parallel map_batches write pass, and the exactly-once
    rename+commit loop. ``write_resumable`` (parquet) and the PAGE-XML
    corpus sink (one XML per row) parameterize only the file format:

    - ``write_batch(table, pids, skip_mask, tmp_dir_for, ids)`` writes
      the non-skipped rows of one batch into ``tmp_dir_for(pid)``
      (``ids`` is the batch's key column as computed for partitioning —
      already stringified under ``stringify_key`` — so sinks that name
      files by key never re-convert it);
    - ``rows_in_dir(tmp_dir)`` counts rows actually ON DISK (the
      manifest must match disk truth even when a retried batch
      coalesced to one file);
    - ``extra_rec(tmp_dir)`` adds sink-specific manifest fields.

    Writes proceed in parallel across the cluster instead of one
    driver-sequenced execution per partition (16 sequential executions
    measured 13 s for a 2 s write workload at sf0.1). A kill MID-PASS
    commits nothing and leaves only .tmp-* dirs, which the next run
    sweeps and redoes; once committed, reruns skip fingerprint- and
    range-matched partitions, and run no write pass when every partition
    matches. An empty input unpublishes every committed partition.
    """
    import numpy as np
    import pyarrow as pa
    import ray

    ds = ds.materialize()
    # key sample in Arrow, one task per block and no exchange: every
    # block contributes its rows 0, stride, 2*stride, ... so the sample
    # holds at most sample_limit + one row per block keys and does not
    # depend on the order in which blocks arrive (count() is metadata on
    # a materialized Dataset). With <= sample_limit rows it is every key.
    stride = max(1, -(-ds.count() // sample_limit))

    # a UDF, NOT ds.select_columns: Ray's map_groups emits schema-less
    # EMPTY blocks for empty sort partitions, and the built-in Project
    # operator raises KeyError on them
    def _key_sample(t: pa.Table) -> pa.Table:
        if key in t.column_names:
            return t.select([key]).take(np.arange(0, t.num_rows, stride))
        if t.num_rows == 0:
            return t
        raise KeyError(f"write key {key!r} missing from a non-empty block")

    sampled = ray.get(
        ds.map_batches(_key_sample, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).to_arrow_refs()
    )
    # len(), not num_rows: an empty block the UDF never saw can come
    # back as a pandas DataFrame
    keys = [t[key] for t in sampled if len(t)]
    partitions: list[tuple] = []
    bounds: list = []
    if keys:  # else all blocks are empty (e.g. every doc filtered)
        sample = np.sort(pa.chunked_array(keys).to_numpy())
        if stringify_key:
            sample = np.asarray(sorted(str(x) for x in sample), dtype=object)
        idx = [round(i * len(sample) / n_partitions) for i in range(1, n_partitions)]
        bounds = sorted({sample[min(i, len(sample) - 1)] for i in idx})
        bounds = [b.item() if isinstance(b, np.generic) else b for b in bounds]
        prev = None
        for b in bounds:
            partitions.append((prev, b))
            prev = b
        partitions.append((prev, None))
    n_parts = len(partitions)

    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if name.startswith(".tmp-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    done = completed_partitions(out_dir)
    skip = {
        pid
        for pid, (lo, hi) in enumerate(partitions)
        if (rec := done.get(pid)) is not None
        and rec.get("input_fingerprint", "") == input_fingerprint
        and rec.get("lo") == lo
        and rec.get("hi") == hi
    }
    # everything published that this run does not keep is stale: inputs
    # or bounds changed, the run derives fewer partitions (none when the
    # input is empty), or a kill came between rename and commit
    published = {
        int(name[len("part="):])
        for name in os.listdir(out_dir)
        if name.startswith("part=") and name[len("part="):].isdigit()
    }
    for pid in (set(done) | published) - skip:
        try:
            os.remove(os.path.join(_manifest_dir(out_dir), f"{pid:05d}.json"))
        except FileNotFoundError:
            pass
        if os.path.isdir(partition_dir(out_dir, pid)):
            shutil.rmtree(partition_dir(out_dir, pid))
    rows_total = sum(int(done[p].get("rows", 0)) for p in skip)
    if len(skip) == n_parts:  # nothing to write: no pass over the blocks
        return {"completed": 0, "skipped": len(skip), "rows": rows_total}
    token = uuid.uuid4().hex

    def tmp_for(p: int) -> str:
        return os.path.join(out_dir, f".tmp-{token}-{int(p):05d}")

    for pid in range(n_parts):
        if pid not in skip:
            os.makedirs(tmp_for(pid), exist_ok=True)
    bounds_arr = np.asarray(bounds, dtype=object) if stringify_key else np.asarray(bounds)
    skip_arr = np.zeros(n_parts, dtype=bool)
    for pid in skip:
        skip_arr[pid] = True

    def _split(t):
        if t.num_rows:
            if stringify_key:
                ids = np.asarray([str(d) for d in t[key].to_pylist()], dtype=object)
            else:
                ids = t[key].to_numpy(zero_copy_only=False)
            pids = np.searchsorted(bounds_arr, ids, side="right")
            write_batch(t, pids, skip_arr, tmp_for, ids)
        # constant empty schema: the pass is executed for its side
        # effects only; rows are counted from disk at commit time
        return pa.table({"pid": pa.array([], pa.int64())})

    ds.map_batches(_split, batch_format="pyarrow").materialize()
    completed = 0
    for pid, (lo, hi) in enumerate(partitions):
        if pid in skip:
            continue
        tmp = tmp_for(pid)
        rows = rows_in_dir(tmp)
        rec = {
            "lo": lo,
            "hi": hi,
            "rows": rows,
            "stage": stage,
            "input_fingerprint": input_fingerprint,
        }
        if extra_rec is not None:
            rec.update(extra_rec(tmp))
        os.replace(tmp, partition_dir(out_dir, pid))
        commit_partition(out_dir, pid, rec)
        completed += 1
        rows_total += rows
    return {"completed": completed, "skipped": len(skip), "rows": rows_total}


def write_resumable(
    ds,
    out_dir: str,
    *,
    key: str = "doc_id",
    n_partitions: int = 16,
    stage: str = "stage",
    input_fingerprint: str = "",
    sample_limit: int = 200_000,
) -> dict:
    """Checkpointed partitioned parquet write of ANY Dataset — the
    generic per-stage lineage sink (north_rule: every stage's output is
    per-partition manifested so a killed job resumes). Resume/commit
    semantics live in ``partitioned_write_pass``; this sink only
    defines the parquet batch format. Tradeoff vs the per-partition
    ``run_partitioned`` loop (still used by ingest): the single
    pass is ~6x faster, but a kill mid-pass redoes the whole write.
    """
    import hashlib

    import numpy as np
    import pyarrow as pa

    def write_batch(t, pids, skip_mask, tmp_dir_for, _ids):
        import pyarrow.parquet as pq

        # file names must be DETERMINISTIC in the batch CONTENT: a Ray
        # task retry re-writes the same file instead of adding a
        # duplicate (uuid names would double the rows of a partition
        # whose writer died after a partial write). The tag hashes the
        # WHOLE batch (all columns, IPC bytes), not just the key values:
        # with a non-unique key, two distinct batches can carry identical
        # key sequences (e.g. >1 full batch of one doc_id's line rows)
        # and a key-only tag would silently overwrite the first batch's
        # file with the second's. Residual caveat (documented): batches
        # byte-identical in their ENTIRETY coalesce to one file — add a
        # row discriminator upstream if exact duplicate blocks must
        # survive this sink.
        h = hashlib.blake2b(digest_size=16)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        h.update(sink.getvalue())
        batch_tag = h.hexdigest()
        for p in np.unique(pids):
            if skip_mask[p]:
                continue
            sub = t.filter(pa.array(pids == p))
            pq.write_table(sub, os.path.join(tmp_dir_for(p), f"{batch_tag}.parquet"))

    def rows_in_dir(tmp: str) -> int:
        return sum(_parquet_rows(os.path.join(tmp, f)) for f in os.listdir(tmp))

    def extra_rec(tmp: str) -> dict:
        return {
            "bytes": sum(os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp))
        }

    return partitioned_write_pass(
        ds,
        out_dir,
        key=key,
        n_partitions=n_partitions,
        stage=stage,
        input_fingerprint=input_fingerprint,
        sample_limit=sample_limit,
        write_batch=write_batch,
        rows_in_dir=rows_in_dir,
        extra_rec=extra_rec,
    )


def doc_id_ranges(n_partitions: int, *, prefix: str = "d", id_width: int = 8, max_id: int = 10**8) -> list[tuple[str, str]]:
    """Range-partition the doc_id keyspace ``d{num:08d}p*`` into
    lexicographic (lo, hi) bounds — the north_rule's range partitioning.
    """
    bounds = [round(i * max_id / n_partitions) for i in range(n_partitions + 1)]
    out = []
    for i in range(n_partitions):
        lo = f"{prefix}{bounds[i]:0{id_width}d}" if i > 0 else ""
        hi = f"{prefix}{bounds[i + 1]:0{id_width}d}" if i < n_partitions - 1 else ""
        out.append((lo, hi))
    return out
