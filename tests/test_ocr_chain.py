"""End-to-end OCR lifecycle: pages → degrade → preprocess → segment →
recognize → align/eval → post-correct. The Ray restatement of the
reference's aio super-pipeline (unpack → recognize per engine → align →
post-correct → stats)."""

from __future__ import annotations

import pandas as pd
import pyarrow.parquet as pq
import pytest

from ocrd_cis_ray.pipelines.ocr_chain import run_ocr_chain


@pytest.fixture(scope="module")
def chain_result(ray_session, sf_dir):
    return run_ocr_chain(sf_dir)


def test_chain_produces_all_stages(chain_result):
    stages = set(zip(chain_result["stage"], chain_result["source"]))
    assert ("raw", "OCR-1") in stages
    assert ("raw", "OCR-2") in stages
    assert ("postcorrected", "OCR-2") in stages


def test_noisier_engine_has_higher_cer(chain_result):
    raw = chain_result[chain_result["stage"] == "raw"].set_index("source")
    assert raw.loc["OCR-2", "char_error_rate"] > raw.loc["OCR-1", "char_error_rate"]
    # both engines actually err (the degradation bites) but stay usable
    assert 0 < raw.loc["OCR-1", "char_error_rate"] < 0.15
    assert 0 < raw.loc["OCR-2", "char_error_rate"] < 0.30


def test_postcorrection_reduces_cer(chain_result):
    df = chain_result.set_index(["stage", "source"])
    before = df.loc[("raw", "OCR-2"), "char_error_rate"]
    after = df.loc[("postcorrected", "OCR-2"), "char_error_rate"]
    assert after < before  # the channel model + lexicon help
    assert df.loc[("postcorrected", "OCR-2"), "gt_chars"] == df.loc[("raw", "OCR-2"), "gt_chars"]


def test_chain_deterministic(ray_session, sf_dir, chain_result):
    again = run_ocr_chain(sf_dir)
    a = chain_result.sort_values(["stage", "source"]).reset_index(drop=True)
    b = again.sort_values(["stage", "source"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_chain_runs_five_executions_without_sort(ray_session, sf_dir, chain_result, executed_plans):
    """The chain makes at most five Dataset executions (lexicon, pages →
    wide frame, confusions, ranker examples, correction + CER) and no
    all-to-all: the read splits the text rows into page bundles, and no
    Sort counts the vocabulary. Same output as the module's first run."""
    again = run_ocr_chain(sf_dir)
    assert 0 < len(executed_plans) <= 5, executed_plans
    assert not [plan for plan in executed_plans if "AllToAllOperator" in plan], executed_plans
    pd.testing.assert_frame_equal(chain_result, again)


def test_wide_passes_take_one_bundle_per_cpu(ray_session):
    """A pass runs whole waves of one task per CPU of the session (4
    here), as few as keep a task within its cap: the OCR pass up to
    OCR_BATCH_PAGES pages a task, the passes over the wide frame up to
    WIDE_BUNDLE_LINES lines; never more tasks than rows, at least 1."""
    import ray

    from ocrd_cis_ray.pipelines.ocr_chain import OCR_BATCH_PAGES, WIDE_BUNDLE_LINES, _n_bundles

    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus > 1
    for cap in (WIDE_BUNDLE_LINES, OCR_BATCH_PAGES):
        assert _n_bundles(cpus * cap, cap) == cpus
        assert _n_bundles(cpus * cap + 1, cap) == 2 * cpus
        assert _n_bundles(5 * cpus * cap - 1, cap) == 5 * cpus
        assert _n_bundles(cpus - 1, cap) == cpus - 1
        assert _n_bundles(0, cap) == 1
        for n in (1, cap, cpus * cap + 1, 7 * cpus * cap // 2):
            assert -(-n // _n_bundles(n, cap)) <= cap
    assert _n_bundles(576, WIDE_BUNDLE_LINES) == cpus
    assert _n_bundles(96, OCR_BATCH_PAGES) == cpus


def test_page_bundles_are_one_task_each(ray_session, tmp_path):
    """The OCR pass reads the text rows in one block per bundle, and
    each block runs in a task of its own: 10 pages on 4 CPUs split into
    blocks of 3, 3, 2 and 2 pages, mapped in batches of 2, so no two
    blocks merge into one task."""
    from collections import defaultdict

    import pyarrow as pa

    from ocrd_cis_ray.pipelines.ocr_chain import _text_bundles

    pq.write_table(pa.table({"doc_id": list(range(10)), "text": ["a b"] * 10}), str(tmp_path / "documents.parquet"))
    texts, batch = _text_bundles(str(tmp_path))

    def task_and_pages(t):
        import ray

        return pa.table({"task": [ray.get_runtime_context().get_task_id()], "n": [t.num_rows]})

    out = texts.map_batches(task_and_pages, batch_format="pyarrow", batch_size=batch).to_pandas()
    per_task = defaultdict(list)
    for task, n in zip(out["task"], out["n"]):
        per_task[task].append(n)
    assert sorted(sorted(ns) for ns in per_task.values()) == [[1, 2], [1, 2], [2], [2]]


@pytest.mark.parametrize(
    "texts, want",
    [
        ([], []),
        (["", "a b", None], [("postcorrected", "OCR-2", 0, 3), ("raw", "OCR-1", 0, 3), ("raw", "OCR-2", 0, 3)]),
    ],
)
def test_chain_edge_inputs(ray_session, tmp_path, texts, want):
    """A 0-row documents.parquet gives the empty frame; empty and null
    texts render blank pages that read as "" with no errors."""
    import pyarrow as pa

    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    out = run_ocr_chain(str(tmp_path))
    assert list(out.columns) == ["stage", "source", "char_errors", "gt_chars", "char_error_rate"]
    assert sorted(zip(out["stage"], out["source"], out["char_errors"], out["gt_chars"])) == want


def test_chain_writes_resumable_corrected_corpus(ray_session, sf_dir, tmp_path):
    import json
    import os

    import pyarrow as pa

    from ocrd_cis_ray.pipelines.ocr_chain import page_lines

    # a private copy of the input, so the last step can rewrite it in place
    src = tmp_path / "in"
    src.mkdir()
    doc_path = str(src / "documents.parquet")
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pq.write_table(docs, doc_path)
    sf_dir = str(src)

    out_dir = str(tmp_path / "corrected")
    res = run_ocr_chain(sf_dir, out_dir=out_dir)
    stats = res.attrs["write"]
    assert stats["completed"] > 0 and stats["skipped"] == 0
    import glob

    files = glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)
    total = sum(pq.read_metadata(f).num_rows for f in files)
    assert total == stats["rows"] > 0
    # rerun resumes: every partition already committed -> nothing rewritten
    res2 = run_ocr_chain(sf_dir, out_dir=out_dir)
    st2 = res2.attrs["write"]
    assert st2["completed"] == 0 and st2["skipped"] == stats["completed"]
    assert st2["rows"] == stats["rows"]
    # manifest sanity: one json per partition, carrying the stage tag
    mdir = os.path.join(out_dir, "_manifest")
    recs = [json.load(open(os.path.join(mdir, f))) for f in os.listdir(mdir)]
    assert recs and all(r.get("stage") == "postcorrect" for r in recs)

    # same path, new contents (every document's words reversed, same
    # doc_ids): the rerun recomputes every partition and the sink holds
    # the new GT lines, not the first run's
    rev = [" ".join(reversed(t.split(" "))) for t in docs["text"].to_pylist()]
    pq.write_table(pa.table({"doc_id": docs["doc_id"], "text": rev}), doc_path)
    st3 = run_ocr_chain(sf_dir, out_dir=out_dir).attrs["write"]
    assert st3["skipped"] == 0 and st3["completed"] == stats["completed"]
    want = {
        (str(d), ln): line
        for d, t in zip(docs["doc_id"].to_pylist(), rev)
        for ln, line in enumerate(page_lines(t))
    }
    rows = pa.concat_tables(
        pq.read_table(f) for f in glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)
    ).to_pylist()
    assert len(rows) == st3["rows"] > 0
    # a line the segmenter finds past the page's text lines has GT ""
    assert all(r["GT"] == want.get((str(r["doc_id"]), r["line_no"]), "") for r in rows)


def test_eval_rollup_empty_gt_group_stays_finite(ray_session):
    """(book, source) groups whose GT is all-empty must yield finite
    accuracy (JSON-serializable report), not inf/NaN; so must the
    per-source report over the same lines."""
    import json

    import numpy as np

    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.stages.metrics import eval_report, eval_rollup

    wide = rd.from_arrow(
        pa.table(
            {
                "book": pa.array(["b1", "b1", "b2"]),
                "doc_id": pa.array(["b1/p1", "b1/p2", "b2/p1"]),
                "line_no": pa.array([0, 0, 0], pa.int32()),
                "OCR-1": pa.array(["x", "y", ""]),
                "GT": pa.array(["", "", ""]),  # empty reference
            }
        )
    )
    for out in (eval_rollup(wide, sources=("OCR-1",)), eval_report(wide, sources=("OCR-1",))):
        assert np.isfinite(out["accuracy"]).all()
        json.dumps(out.to_dict(), allow_nan=False)  # strict JSON: no Infinity/NaN
