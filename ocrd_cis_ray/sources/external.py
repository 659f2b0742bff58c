"""External-OCR importer: ingest per-line predictions from an external
engine (e.g. Calamari) as an alignment variant source.

Reference: ocrd_cis/div/importer.py:56-160 — the importer walks a
``linesdir`` of ``*.pred.txt`` files produced by an external OCR
engine, matches each to an existing PAGE TextLine by file basename, and
annotates the recognized text as new TextEquivs (line and glyph level).

Restated Ray-Data-first: a directory of ``{doc_id}__{line_no}.pred.txt``
UTF-8 files streams through ``read_binary_files`` into a variant-lines
Dataset (doc_id, source, line_no, text, conf) — the exact schema the
alignment shuffle consumes (stages/align.py align_variants), so an
external engine's output unions into the n-way alignment like any
internal OCR channel. Unmatched / misnamed files are skipped with the
reference's log-and-skip tolerance (importer.py:120-127).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

SUFFIX = ".pred.txt"


def parse_pred_batch(batch: pa.Table, *, source: str, conf: float, suffix: str = SUFFIX) -> pa.Table:
    """(bytes, path) rows -> (doc_id, source, line_no, text, conf)."""
    paths = batch["path"].to_pylist()
    payloads = batch["bytes"].to_pylist()
    doc_ids, line_nos, texts = [], [], []
    for path, payload in zip(paths, payloads):
        name = os.path.basename(path)
        if not name.endswith(suffix):
            continue
        stem = name[: -len(suffix)]
        doc_id, sep, line_part = stem.rpartition("__")
        if not sep:
            continue  # misnamed: log-and-skip (importer.py:120-127)
        try:
            line_no = int(line_part)
        except ValueError:
            continue
        try:
            text = payload.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            text = payload.decode("utf-8", errors="replace").rstrip("\n")
        doc_ids.append(doc_id)
        line_nos.append(line_no)
        texts.append(text)
    n = len(doc_ids)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "source": pa.array([source] * n, pa.string()),
            "line_no": pa.array(np.array(line_nos, np.int32)),
            "text": pa.array(texts, pa.string()),
            "conf": pa.array(np.full(n, conf, dtype=np.float32)),
        }
    )


def import_external_lines(lines_dir: str, *, source: str = "EXT", conf: float = 0.5, suffix: str = SUFFIX):
    """Lazy Dataset of external OCR variant lines, union-ready for the
    alignment pipeline."""
    from functools import partial

    import ray.data as rd

    ds = rd.read_binary_files(lines_dir, include_paths=True)
    return ds.map_batches(
        partial(parse_pred_batch, source=source, conf=conf, suffix=suffix),
        batch_format="pyarrow",
    )
