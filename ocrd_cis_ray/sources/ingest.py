"""Corpus ingestion: raw files → interleaved document table (+ manifest).

The reference's one-time workspace build (aio unpack + addtoworkspace,
ocrd_cis/aio/aio.py:31-59,142-236: unpack GT zips, register page files
in METS, rewrite references) maps to a one-shot Ray job:
``read_binary_files`` over a directory of raw page texts →
parse/flatten into the interleaved span schema → resumable partitioned
parquet write with per-partition manifests (state/manifest.write_resumable).

File convention here: one UTF-8 text file per page, name = doc_id; the
payload's lines become line spans, words derived per recognize.py:237,
region text per recognize.py:195-199 — the same normalization the
extract stage applies, so ingested docs satisfy the span-sequence
invariant immediately.
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..corpus import _build_spans
from ..util import nfkc


def parse_page_batch(batch: pa.Table) -> pa.Table:
    """(bytes, path) rows -> interleaved (doc_id, spans) rows."""
    paths = batch["path"].to_pylist()
    payloads = batch["bytes"].to_pylist()
    doc_ids, kinds, texts, media, offs = [], [], [], [], []
    for path, payload in zip(paths, payloads):
        doc_id = os.path.splitext(os.path.basename(path))[0]
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError:
            text = payload.decode("utf-8", errors="replace")
        k: list[str] = ["region"]
        t: list[str] = [""]
        m: list[str] = [""]
        lines = [nfkc(ln) for ln in text.splitlines() if ln.strip()]
        for ln in lines:
            k.append("line")
            t.append(ln)
            m.append("")
            for w in ln.split(" "):
                k.append("word")
                t.append(w)
                m.append("")
        t[0] = "\n".join(lines)
        doc_ids.append(doc_id)
        kinds.append(k)
        texts.append(t)
        media.append(m)
        offs.append(list(range(len(k))))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": _build_spans(kinds, texts, media, offs),
        }
    )


def ingest_pages(input_dir: str, *, format: str = "auto"):
    """Lazy ingest Dataset over a directory of page files.

    ``format``: "text" (one UTF-8 text file per page), "page-xml"
    (PcGts trees, the reference's native input — sources/page_xml.py),
    or "auto" (default): dispatch on the directory's file extensions
    (.xml → page-xml, else text). Both parsers emit the same
    interleaved span schema, so everything downstream is format-blind.
    """
    import ray.data as rd

    if format == "auto":
        has_xml = any(
            f.lower().endswith(".xml")
            for f in os.listdir(input_dir)
            if not f.startswith(".")
        )
        format = "page-xml" if has_xml else "text"
    if format == "page-xml":
        from .page_xml import parse_page_xml_batch as parser
    elif format == "text":
        parser = parse_page_batch
    else:
        raise ValueError(f"unknown ingest format: {format!r}")
    ds = rd.read_binary_files(input_dir, include_paths=True)
    return ds.map_batches(parser, batch_format="pyarrow")


def ingest_resumable(input_dir: str, out_dir: str, *, n_partitions: int = 8) -> dict:
    """Resumable ingest: the parsed pages go through the one resumable
    sink (``state.manifest.write_resumable``), which writes each doc_id
    range atomically with a manifest row; a rerun skips committed
    ranges (the reference's skip-if-output-exists resume,
    aio.py:269-271, at per-partition granularity). The doc_id is the
    file stem, so the bounds are the quantiles of the file names. The
    fingerprint covers the file listing (names, sizes, mtimes): adding,
    removing or touching an input file recomputes instead of serving
    stale committed rows."""
    from ..state.manifest import path_fingerprint, write_resumable

    if all(f.startswith(".") for f in os.listdir(input_dir)):
        return {"completed": 0, "skipped": 0, "rows": 0}
    return write_resumable(
        ingest_pages(input_dir),
        out_dir,
        n_partitions=n_partitions,
        stage="ingest",
        input_fingerprint=path_fingerprint(input_dir),
    )
