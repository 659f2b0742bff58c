"""Line-image cutter: export (line image, GT text) training pairs.

The reference's div/cutter.py walks PAGE trees, crops each TextLine's
bounding box from the page image, binarizes (Otsu after Gaussian),
resizes to a fixed height and writes one image file per line next to
its GT text (cutter.py:60-120) — the training-set export that feeds
ocropus_rtrain / `train`.

Ray-Data-first shape: everything is row-local — each batch renders (or
receives) page images, segments them, crops/binarizes/resizes the
lines and pairs them with the page's GT line texts in reading order.
ZERO shuffles: the read splits the text rows into whole waves of one
block per CPU inside the read task. Output goes through
``write_resumable`` (partitioned parquet + manifest), so a killed
export resumes without recomputing finished partitions, and
``train_recognizer`` reads the directory directly (columns: pixels,
gt_text).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def cut_lines_batch(batch: pa.Table, *, line_height: int = 48) -> pa.Table:
    """Page rows (doc_id, pixels, gt_lines: list<string>) → training
    line rows (doc_id, line_no, pixels, gt_text).

    Per page: segment → crop each line box → Otsu binarize →
    aspect-preserving resize to ``line_height`` (cutter.py:26-43
    resize_keep_ratio + binarize semantics) → pair with the GT line of
    the same reading-order index. Pages where the detected line count
    differs from the GT line count are skipped whole (a missegmented
    page would mis-pair every following line — the reference's
    log-and-skip spirit)."""
    from ..sources.media import decode_gray, encode_gray, resize_to_height
    from ..stages.image_ops import binarize_global
    from ..stages.segment import segment_page

    out = {"doc_id": [], "line_no": [], "pixels": [], "gt_text": []}
    for did, buf, gts in zip(
        batch["doc_id"].to_pylist(),
        batch["pixels"].to_pylist(),
        batch["gt_lines"].to_pylist(),
    ):
        try:
            img = decode_gray(buf)
            boxes = segment_page(img)
        except Exception:
            continue
        if not gts or len(boxes) != len(gts):
            continue
        for ln, ((y0, y1, x0, x1), gt) in enumerate(zip(boxes, gts)):
            crop = binarize_global(img[y0:y1, x0:x1])
            crop = resize_to_height(crop, line_height)
            out["doc_id"].append(did)
            out["line_no"].append(ln)
            out["pixels"].append(encode_gray(crop))
            out["gt_text"].append(gt)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "line_no": pa.array(np.array(out["line_no"], np.int32)),
            "pixels": pa.array(out["pixels"], pa.large_binary()),
            "gt_text": pa.array(out["gt_text"], pa.string()),
        }
    )


def cut_training_lines(
    sf_dir: str,
    out_dir: str,
    *,
    line_height: int = 48,
    n_partitions: int = 16,
) -> dict:
    """Full cutter export over the synthetic corpus: documents →
    rendered pages with their GT line texts → cut_lines_batch →
    resumable partitioned parquet. Returns the manifest stats
    ({"completed", "skipped", "rows"}). The documents are read and
    rendered in the OCR chain's page bundles (``ocr_chain._text_bundles``:
    whole waves of one block per CPU, split inside the read task, no
    exchange)."""
    from ..sources.media import encode_gray
    from ..state.manifest import path_fingerprint, write_resumable
    from .ocr_chain import _text_bundles, compose_page, page_lines

    doc_path = f"{sf_dir}/documents.parquet"
    docs, pages_per_batch = _text_bundles(sf_dir)

    def render(t: pa.Table) -> pa.Table:
        out = {"doc_id": [], "pixels": [], "gt_lines": []}
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            lines = page_lines(text)
            if not lines:
                continue
            out["doc_id"].append(str(did))
            out["pixels"].append(encode_gray(compose_page(lines)))
            out["gt_lines"].append(lines)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "pixels": pa.array(out["pixels"], pa.large_binary()),
                "gt_lines": pa.array(out["gt_lines"], pa.list_(pa.string())),
            }
        )

    from functools import partial

    pages = docs.map_batches(render, batch_format="pyarrow", batch_size=pages_per_batch)
    lines = pages.map_batches(
        partial(cut_lines_batch, line_height=line_height),
        batch_format="pyarrow",
        batch_size=16,
    )
    return write_resumable(
        lines,
        out_dir,
        n_partitions=n_partitions,
        stage="cut",
        input_fingerprint=f"{path_fingerprint(doc_path)}:lh{line_height}",
    )
