"""Per-partition lineage + checkpoint manifests for resumable runs.

The reference's resume story is coarse: file groups are materialized on
disk and steps are skipped when their output dir exists
(ocrd_cis/aio/aio.py:269-271,296-298); postcorrect reloads mets.xml to
avoid clobbering (postcorrect/cli.py:44-46). At 10^12 documents the
engine needs per-partition granularity (north_rule): each stage writes
one output directory per doc_id range partition, committed atomically
(tmp dir + rename) together with a manifest row recording
(partition id, key range, input fingerprint, row count, bytes, status).
``write_resumable`` is the one sink every resumable writer goes through
(stage outputs, ingest, the PAGE-XML export); a ``PartFormat`` hook
decides only how a partition's rows sit on disk. A resumed run lists
committed partitions and skips WRITING them: it still recomputes the
upstream Dataset once, because the partition bounds are drawn from a
key sample of that Dataset, and it rewrites only the partitions that
are missing or stale. A first write is two Dataset executions (the
upstream, then the write pass); a resume over a fully committed dir is
the upstream alone. A resume that reads only the uncommitted inputs
needs input-keyed partitions (ROADMAP item 2).

Layout:

    out_dir/
      part=00000/ *.parquet        (or *.xml; atomic: written under
                                    .tmp-<run>-00000, renamed)
      _manifest/00000.json         ({"partition": 0, "lo": ..., "hi": ...,
                                     "rows": N, "bytes": B,
                                     "input_fingerprint": ...,
                                     "status": "done", "stage": name})
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from typing import Callable, NamedTuple


def path_fingerprint(path: str) -> str:
    """Input fingerprint of a file or a directory tree: a hash of the
    relative name, size and mtime of every non-hidden file under
    ``path``. New contents at the same path change it, so a resumed
    run recomputes instead of serving rows built from earlier inputs.
    Pass the inputs a stage reads, not a directory that may also hold
    its output."""
    import hashlib

    files = []
    if os.path.isdir(path):
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            files += [os.path.join(root, n) for n in names if not n.startswith(".")]
    else:
        files = [path]
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(files):
        st = os.stat(f)
        name = os.path.relpath(f, path)
        h.update(f"{name}\x00{st.st_size}\x00{st.st_mtime_ns}\x00".encode())
    return h.hexdigest()


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


class PartFormat(NamedTuple):
    """How the rows of a partition sit on disk: the sink's one format
    hook.

    - ``write(table, directory)`` writes one batch's rows of one
      partition into ``directory``, under file names that depend only
      on the content: a Ray task retry rewrites the same files instead
      of adding duplicates;
    - ``count_rows(directory)`` counts the rows on disk. The manifest
      records this count, so it matches the disk even when a retried
      batch coalesced to the same files.
    """

    write: Callable
    count_rows: Callable


def _write_parquet_part(t, directory: str) -> None:
    """One parquet file named by the blake2b of its own bytes. The hash
    covers every column, not just the keys: with a non-unique key, two
    distinct batches can carry identical key sequences (e.g. more than
    one batch of one doc_id's line rows), and a key-only name would
    overwrite the first batch's file with the second's. Residual
    caveat: parts that are byte-identical in their entirety coalesce to
    one file; add a row discriminator upstream if exact duplicate rows
    must survive this sink."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    sink = pa.BufferOutputStream()
    pq.write_table(t, sink)
    data = sink.getvalue()
    name = hashlib.blake2b(data, digest_size=16).hexdigest()
    with open(os.path.join(directory, f"{name}.parquet"), "wb") as f:
        f.write(data)


def _parquet_dir_rows(directory: str) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(os.path.join(directory, f)).num_rows for f in os.listdir(directory))


PARQUET = PartFormat(_write_parquet_part, _parquet_dir_rows)

# about this many doc_ids are sampled for the partition bounds; every
# doc_id when the input has no more rows
SAMPLE_LIMIT = 200_000


def write_resumable(
    ds,
    out_dir: str,
    *,
    n_partitions: int = 16,
    stage: str = "stage",
    input_fingerprint: str = "",
    part_format: PartFormat = PARQUET,
) -> dict:
    """Checkpointed partitioned write of ANY Dataset keyed by
    ``doc_id``: the engine's one resumable sink (north_rule: every
    stage's output is per-partition manifested, so a killed job
    resumes). The bounds, the committed-partition skip, the stale
    sweep, the write pass and the exactly-once rename + commit live
    here; ``part_format`` (parquet by default; PAGE-XML in
    ``sources/page_xml.PAGE_XML``) decides only how a partition's rows
    sit on disk.

    The upstream is materialized once. Its partition bounds are the
    quantiles of a doc_id sample that the driver draws from the
    materialized blocks (reading them starts no execution): every key
    whose stable hash falls under 2**64 / stride, about
    ``SAMPLE_LIMIT`` keys, so the bounds depend on the key values alone
    and not on the block layout (every key at <= ``SAMPLE_LIMIT``
    rows). A first write is then two Dataset executions, the upstream
    and the write pass; a resume over a fully committed dir is the
    upstream alone. Known limit: on a multi-node cluster the sample
    pulls each block to the driver once (``ocr_chain._statistics`` does
    the same); bounds from parquet footer statistics would not (ROADMAP
    item 2).

    All partitions are written in one parallel pass instead of one
    driver-sequenced execution per partition (16 sequential executions
    measured 13 s for a 2 s write workload at sf0.1). A kill MID-PASS
    commits nothing and leaves only .tmp-* dirs, which the next run
    sweeps and redoes; once committed, reruns skip fingerprint- and
    range-matched partitions, and run no write pass when every
    partition matches. An empty input unpublishes every committed
    partition. Every manifest row records the partition's rows and
    bytes on disk.

    Returns {"completed": k, "skipped": s, "rows": total}.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    ds = ds.materialize()
    n_rows = ds.count()  # metadata on a materialized Dataset
    # the sample keeps each key whose hash falls under 2**64 / stride,
    # so it depends on the key values alone: every key at stride 1
    stride = max(1, -(-n_rows // SAMPLE_LIMIT))

    def _key_sample(t: pa.Table) -> pa.Array:
        if "doc_id" not in t.column_names:
            raise KeyError("write key 'doc_id' missing from a non-empty block")
        keys = t["doc_id"].combine_chunks()
        if stride == 1:
            return keys
        hashes = pd.util.hash_array(keys.to_numpy(zero_copy_only=False), categorize=False)
        return keys.filter(pa.array(hashes < np.uint64(2**64 // stride)))

    # on the driver, over the materialized blocks: reading them starts
    # no Dataset execution. Empty blocks are skipped: Ray's map_groups
    # emits schema-less ones for empty sort partitions.
    keys = [
        k
        for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows and len(k := _key_sample(t))
    ]
    partitions: list[tuple] = []
    bounds: list = []
    if n_rows:  # else all blocks are empty (e.g. every doc filtered)
        if keys:  # else one unbounded partition
            sample = np.sort(pa.chunked_array(keys).to_numpy())
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
    bounds_arr = np.asarray(bounds)
    skip_arr = np.zeros(n_parts, dtype=bool)
    skip_arr[list(skip)] = True

    def _split(t):
        if t.num_rows:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            pids = np.searchsorted(bounds_arr, ids, side="right")
            for p in np.unique(pids):
                if not skip_arr[p]:
                    part_format.write(t.filter(pa.array(pids == p)), tmp_for(p))
        # constant empty schema: the pass is executed for its side
        # effects only; rows are counted from disk at commit time
        return pa.table({"pid": pa.array([], pa.int64())})

    ds.map_batches(_split, batch_format="pyarrow").materialize()
    completed = 0
    for pid, (lo, hi) in enumerate(partitions):
        if pid in skip:
            continue
        tmp = tmp_for(pid)
        rows = part_format.count_rows(tmp)
        nbytes = sum(os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp))
        os.replace(tmp, partition_dir(out_dir, pid))
        commit_partition(
            out_dir,
            pid,
            {"lo": lo, "hi": hi, "rows": rows, "bytes": nbytes, "stage": stage, "input_fingerprint": input_fingerprint},
        )
        completed += 1
        rows_total += rows
    return {"completed": completed, "skipped": len(skip), "rows": rows_total}
