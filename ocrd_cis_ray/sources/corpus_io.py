"""Corpus table I/O: Lance-first, parquet fallback.

The production input (north_rule / input_hint) is a LANCE table of
interleaved text + media documents
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
at 10^12-document scale, read as a streaming ``ray.data.Dataset``.
``ray.data.read_lance`` exists in Ray 2.49 but needs the ``lance``
package, which this sandbox does not ship — so the reader dispatches:

- a ``.lance`` dataset directory → ``ray.data.read_lance`` (column
  projection + filter pushdown supported by the Lance fragment reader);
- otherwise → ``ray.data.read_parquet`` over the same schema (the
  driver's testdata layout; identical downstream pipeline).

Everything downstream is format-agnostic: stages consume Arrow batches,
so swapping the storage layer never touches operator code. Writes mirror
the same dispatch (Lance when available, partitioned parquet fallback —
see state/manifest.write_resumable for the checkpointed sink).
"""

from __future__ import annotations

import os

# most documents per task of a parquet corpus read: at 1 CPU the 6,000
# pages of the benchmark corpus are one task. Each task has a fixed
# cost however little it reads: every extra read task (and the write
# task of its block) added about 33 ms of process-tree CPU to a
# 0.42 s resumable write of that corpus (1-CPU session, 1-vCPU host).
# Whole waves of one task per CPU also leave no straggler tail.
CORPUS_TASK_DOCS = 8192


def session_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8))


def n_bundles(n_rows: int, cap: int) -> int:
    """Tasks of a pass over ``n_rows`` rows: whole waves of one task per
    CPU, as few as keep a task at most ``cap`` rows, and never more
    tasks than rows (at least 1)."""
    cpus = session_cpus()
    return max(1, min(n_rows, cpus * -(-n_rows // (cpus * cap))))


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def read_corpus(path: str, *, columns: list[str] | None = None, **kwargs):
    """Streaming Dataset over a corpus table (Lance dir or parquet).

    ``columns`` prunes at the read on BOTH paths — only the projected
    columns leave storage (Lance fragment reader / parquet row groups).

    A parquet corpus is read in whole waves of one task per CPU, as few
    as keep a task at most ``CORPUS_TASK_DOCS`` documents
    (``n_bundles``); the row count comes from the parquet footers, so
    the block count does not depend on the file count. A caller's own
    ``override_num_blocks`` wins.
    """
    import ray.data as rd

    if path.rstrip("/").endswith(".lance") or os.path.isdir(os.path.join(path, "data")):
        if not lance_available():
            raise RuntimeError(
                f"{path} looks like a Lance dataset but the 'lance' package "
                "is not installed; install pylance or convert to parquet"
            )
        return rd.read_lance(path, columns=columns, **kwargs)
    if "override_num_blocks" not in kwargs:
        import pyarrow.dataset as pds

        n = pds.dataset(path, format="parquet", filesystem=kwargs.get("filesystem")).count_rows()
        kwargs["override_num_blocks"] = n_bundles(n, CORPUS_TASK_DOCS)
    return rd.read_parquet(path, columns=columns, **kwargs)


def write_corpus(ds, path: str, **kwargs):
    """Write a corpus Dataset: Lance when the package is present,
    partitioned parquet otherwise (never one giant file — resumable
    layout per north_rule; for checkpointed writes use
    state/manifest.write_resumable)."""
    if path.rstrip("/").endswith(".lance"):
        if not lance_available():
            raise RuntimeError("Lance output requested but 'lance' is not installed")
        return ds.write_lance(path, **kwargs)
    return ds.write_parquet(path, **kwargs)
