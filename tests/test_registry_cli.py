"""Stage registry, JSON pipeline assembly, CLI surface."""

from __future__ import annotations

import json

import pyarrow as pa
import pytest

from ocrd_cis_ray.registry import REGISTRY, build_pipeline
from ocrd_cis_ray.sources.media import encode_gray, render_line


def test_registry_has_core_stages():
    for name in ("binarize", "denoise", "deskew", "dewarp", "segment", "recognize", "extract", "dedup_exact"):
        assert name in REGISTRY
        assert REGISTRY[name].description


def test_build_pipeline_validates_config(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"x": 1}])
    with pytest.raises(ValueError, match="unknown stage"):
        build_pipeline(ds, [{"stage": "nope"}])
    with pytest.raises(ValueError, match="unknown params"):
        build_pipeline(ds, [{"stage": "binarize", "params": {"bogus": 1}}])


def test_json_pipeline_matches_direct_calls(ray_session):
    import ray.data as rd

    from ocrd_cis_ray.stages.image_ops import media_op

    rows = [
        {
            "doc_id": f"d{i}",
            "span_id": "s0",
            "media_ref": "",
            "features": "",
            "pixels": encode_gray(render_line(f"config test {i}")),
        }
        for i in range(4)
    ]
    tbl = pa.Table.from_pylist(rows)
    config = [
        {"stage": "binarize", "params": {"method": "global"}},
        {"stage": "denoise", "params": {"minsize": 2}},
    ]
    via_config = build_pipeline(rd.from_arrow(tbl), config).to_pandas()
    direct = media_op(media_op(rd.from_arrow(tbl), "binarize", method="global"), "denoise", minsize=2).to_pandas()
    a = via_config.sort_values("doc_id").reset_index(drop=True)
    b = direct.sort_values("doc_id").reset_index(drop=True)
    assert list(a["features"]) == list(b["features"])
    assert [bytes(x) for x in a["pixels"]] == [bytes(x) for x in b["pixels"]]


def test_cli_stages_listing():
    from ocrd_cis_ray.__main__ import main

    assert main(["stages"]) == 0


def test_cli_train_subcommand(ray_session, tmp_path):
    """CLI train (ocrd-cis-ocropy-train analog): parquet of GT line
    rows -> pickled model, JSON report on stdout."""
    import os

    import pyarrow.parquet as pq

    from ocrd_cis_ray.sources.media import encode_gray, render_line
    from ocrd_cis_ray.__main__ import main

    texts = ["cli train a", "cli train b", "nice lines"]
    tbl = pa.table(
        {
            "pixels": pa.array([encode_gray(render_line(t)) for t in texts], pa.large_binary()),
            "gt_text": texts,
        }
    )
    d = tmp_path / "lines"
    d.mkdir()
    pq.write_table(tbl, str(d / "lines.parquet"))
    model = str(tmp_path / "m.pkl")
    rc = main(["train", "-i", str(d), "--model", model, "--epochs", "5"])
    assert rc in (0, None)
    assert os.path.exists(model)

    from ocrd_cis_ray.stages.lstm import SeqRecognizer

    rec = SeqRecognizer.load(model)
    assert rec.codec.size() > 5


def test_cli_ocr_chain_subcommand(ray_session, sf_dir):
    """CLI ocr-chain (aio super-pipeline analog) runs at sf0.001 and
    reports raw + postcorrected CER rows."""
    import json as _json
    import io
    from contextlib import redirect_stdout

    from ocrd_cis_ray.__main__ import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["ocr-chain", "--sf-dir", sf_dir])
    assert rc in (0, None)
    rows = _json.loads(buf.getvalue().strip().splitlines()[-1])
    stages = {(r["stage"], r["source"]) for r in rows}
    assert ("raw", "OCR-1") in stages and ("postcorrected", "OCR-2") in stages


def test_round4_stages_via_build_pipeline(ray_session):
    import pandas as pd
    import ray.data as rd

    from ocrd_cis_ray.registry import build_pipeline

    # urlfilter stage
    urls = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "url": [
                    "https://WWW.keep.com/a?utm_x=1",
                    "https://bad.com/a",
                    "https://keep.com/a",
                ],
            }
        )
    )
    out = build_pipeline(
        urls, [{"stage": "urlfilter", "params": {"blocked_domains": ["bad.com"]}}]
    ).to_pandas().sort_values("doc_id")
    assert list(out["keep_url"]) == [True, False, True]
    assert list(out["is_canonical"]) == [True, True, False]  # 0 beats 2

    # pagerank stage (nodes derived from edge endpoints)
    edges = rd.from_pandas(
        pd.DataFrame({"src": [1, 2], "dst": [0, 0], "outdeg": [1, 1]})
    )
    pr = build_pipeline(
        edges, [{"stage": "pagerank", "params": {"iters": 1}}]
    ).to_pandas().set_index("node")["rank_q"]
    from ocrd_cis_ray.stages.linkgraph import SCALE

    assert int(pr.loc[0]) == 15 * SCALE // 100 + 85 * (2 * SCALE) // 100
    assert int(pr.loc[1]) == 15 * SCALE // 100


def test_cli_report_rollup_golden(ray_session, tmp_path):
    """CLI report (div/auswerter.py + div/eval.py analog): wide aligned
    lines -> per-book/source JSON report artifact, checked against a
    hand-computed golden."""
    import json as _json

    import pyarrow.parquet as pq

    from ocrd_cis_ray.__main__ import main

    # two books, two sources; counters are small enough to hand-check
    tbl = pa.table(
        {
            "book": ["b1", "b1", "b2"],
            "GT": ["ab cd", "ef", "ab"],
            # OCR-1: perfect on b1 line 1, one char error on line 2 + b2
            "OCR-1": ["ab cd", "eX", "aX"],
            # OCR-2: drops a word on b1 line 1, perfect elsewhere
            "OCR-2": ["ab", "ef", "ab"],
        }
    )
    src = tmp_path / "wide"
    src.mkdir()
    pq.write_table(tbl, str(src / "part.parquet"))
    out = tmp_path / "report.json"

    rc = main(["report", "-i", str(src), "-o", str(out)])
    assert rc == 0
    report = _json.loads(out.read_text())
    assert report["books"] == ["b1", "b2"]
    rows = {(r["book"], r["source"]): r for r in report["rows"]}

    golden = {
        # book, source: (n_lines, gt_chars, char_errors, gt_words, words_recognized)
        ("b1", "OCR-1"): (2, 7, 1, 3, 2),
        ("b1", "OCR-2"): (2, 7, 3, 3, 2),
        ("b2", "OCR-1"): (1, 2, 1, 1, 0),
        ("b2", "OCR-2"): (1, 2, 0, 1, 1),
        ("__total__", "OCR-1"): (3, 9, 2, 4, 2),
        ("__total__", "OCR-2"): (3, 9, 3, 4, 3),
    }
    assert set(rows) == set(golden)
    for key, (nl, gc, ce, gw, wr) in golden.items():
        r = rows[key]
        assert (r["n_lines"], r["gt_chars"], r["char_errors"], r["gt_words"],
                r["words_recognized"]) == (nl, gc, ce, gw, wr), key
        assert r["accuracy"] == 1.0 - ce / gc
