"""Corpus ingestion: raw files → interleaved document table (+ manifest).

The reference's one-time workspace build (aio unpack + addtoworkspace,
ocrd_cis/aio/aio.py:31-59,142-236: unpack GT zips, register page files
in METS, rewrite references) maps to a one-shot Ray job:
``read_binary_files`` over a directory of raw page texts →
parse/flatten into the interleaved span schema → resumable partitioned
parquet write with per-partition manifests (state/manifest.py).

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
    """Resumable ingest: partition the doc_id keyspace, write each range
    atomically with a manifest row; a rerun skips committed ranges
    (the reference's skip-if-output-exists resume, aio.py:269-271, at
    per-partition granularity)."""
    import pyarrow.compute as pc

    from ..state.manifest import path_fingerprint, run_partitioned

    # sample the doc_id range from file names (driver-side, names only)
    names = sorted(
        os.path.splitext(f)[0] for f in os.listdir(input_dir) if not f.startswith(".")
    )
    if not names:
        return {"completed": 0, "skipped": 0, "rows": 0}
    bounds = [names[round(i * len(names) / n_partitions)] for i in range(1, n_partitions)]
    ranges = []
    prev = ""
    for b in bounds:
        ranges.append((prev, b))
        prev = b
    ranges.append((prev, ""))

    def make_ds(lo, hi):
        ds = ingest_pages(input_dir)

        def in_range(t: pa.Table) -> pa.Table:
            ids = t["doc_id"]
            mask = pc.greater_equal(ids, lo) if lo else pc.equal(ids, ids)
            if hi:
                mask = pc.and_(mask, pc.less(ids, hi))
            return t.filter(mask)

        return ds.map_batches(in_range, batch_format="pyarrow")

    # content fingerprint over the file LISTING (names+sizes+mtimes):
    # adding/removing/touching an input file changes the fingerprint, so
    # resume invalidates affected partitions instead of serving stale
    # committed rows (the bounds are also re-derived from the listing
    # and checked per-partition by run_partitioned)
    fp = path_fingerprint(input_dir)
    return run_partitioned(make_ds, out_dir, ranges, stage="ingest", input_fingerprint=fp)
