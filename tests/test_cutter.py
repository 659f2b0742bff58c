"""Line-image cutter export (div/cutter.py analog): pages → (line
image, GT text) parquet pairs, resumable, consumed directly by
train_recognizer."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture()
def tiny_sf(tmp_path):
    texts = [
        "ab cd ef gh ij kl mn op qr st uv wx",
        "one two three four five six seven eight nine",
        "red green blue cyan pink gray teal navy",
        "dog cat fox owl elk bee ant ram yak emu",
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(1, len(texts) + 1), pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    return str(tmp_path)


def test_cut_training_lines_export(ray_session, tiny_sf, tmp_path):
    """Cutter exports one row per (page, reading-order line) with the
    binarized fixed-height crop and its GT text; a rerun skips every
    committed partition (resumable sink)."""
    import ray.data as rd

    from ocrd_cis_ray.pipelines.cutter import cut_training_lines
    from ocrd_cis_ray.pipelines.ocr_chain import page_lines
    from ocrd_cis_ray.sources.media import decode_gray

    out_dir = str(tmp_path / "cut")
    res = cut_training_lines(tiny_sf, out_dir, line_height=48, n_partitions=2)
    expect = sum(len(page_lines(t)) for t in pq.read_table(f"{tiny_sf}/documents.parquet")["text"].to_pylist())
    assert res["rows"] == expect and res["completed"] >= 1

    rows = rd.read_parquet(out_dir).take_all()
    assert {"doc_id", "line_no", "pixels", "gt_text"} <= set(rows[0])
    for r in rows:
        img = decode_gray(r["pixels"])
        assert img.shape[0] == 48  # fixed height
        assert set(np.unique(img)) <= {0, 255}  # binarized
        assert r["gt_text"]
    # GT pairing: line_no matches the page_lines slice
    docs = {str(d): page_lines(t) for d, t in zip(*[pq.read_table(f"{tiny_sf}/documents.parquet")[c].to_pylist() for c in ("doc_id", "text")])}
    for r in rows:
        assert r["gt_text"] == docs[r["doc_id"]][r["line_no"]]

    # resume: second run skips all committed partitions
    res2 = cut_training_lines(tiny_sf, out_dir, line_height=48, n_partitions=2)
    assert res2["completed"] == 0 and res2["skipped"] >= 1

    # same path, new contents (words reversed, same doc_ids and line
    # counts): the rerun recomputes every partition and holds the new lines
    t = pq.read_table(f"{tiny_sf}/documents.parquet")
    rev = [" ".join(reversed(x.split(" "))) for x in t["text"].to_pylist()]
    pq.write_table(pa.table({"doc_id": t["doc_id"], "text": rev}), f"{tiny_sf}/documents.parquet")
    res3 = cut_training_lines(tiny_sf, out_dir, line_height=48, n_partitions=2)
    assert res3["skipped"] == 0 and res3["completed"] == res["completed"]
    want = {str(d): page_lines(x) for d, x in zip(t["doc_id"].to_pylist(), rev)}
    rows = rd.read_parquet(out_dir).take_all()
    assert len(rows) == res["rows"]
    assert all(r["gt_text"] == want[r["doc_id"]][r["line_no"]] for r in rows)


def test_train_consumes_cutter_output(ray_session, tiny_sf, tmp_path):
    """train_recognizer reads the cutter's parquet directly — the
    cutter is the training-data export path a user of `train` needs
    (reference div/cutter.py feeding ocropus_rtrain)."""
    import ray.data as rd

    from ocrd_cis_ray.pipelines.cutter import cut_training_lines
    from ocrd_cis_ray.stages.lstm import train_recognizer

    out_dir = str(tmp_path / "cut")
    cut_training_lines(tiny_sf, out_dir, line_height=48, n_partitions=2)
    model = str(tmp_path / "m.pkl")
    res = train_recognizer(
        rd.read_parquet(out_dir), model, epochs=2, max_lines=8, nstates=16
    )
    n_exported = rd.read_parquet(out_dir).count()
    assert res["lines"] == min(8, n_exported) and res["classes"] > 2
    import os

    assert os.path.exists(model)
