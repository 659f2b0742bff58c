"""Differential tests for the flagship evaluate path's line pairing.

``_oracle`` is the pairing the path replaced, kept here as the reference
semantics: ``NWayAligner`` over the long-form variant lines, its
``level == "line"`` rows pivoted to one column per source the way
perfbench's ``_line_pairs`` does it, then ``cer_partials_batch`` over
the (source, GT) pairs. ``line_cer_partials`` joins the sources on
(doc_id, line_no) in Arrow instead, and must give the same per-source
(char_errors, gt_chars).
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from ocrd_cis_ray.corpus import synth_variants_batch
from ocrd_cis_ray.pipelines.flagship import corpus_evaluate_pipeline, line_cer_partials, materialize_corpus
from ocrd_cis_ray.stages.align import NWayAligner
from ocrd_cis_ray.stages.extract import extract_spans_batch
from ocrd_cis_ray.stages.metrics import cer_partials_batch

SOURCES = ("OCR-1", "OCR-2", "GT")


def _oracle(variants: pa.Table, sources) -> dict:
    """{source: (char_errors, gt_chars)} of the aligner's line rows."""
    aligned = NWayAligner(list(sources))(variants.to_pandas())
    lines = aligned[aligned["level"] == "line"]
    src, text, gt = [], [], []
    if not lines.empty:
        wide = lines.pivot_table(index=["doc_id", "line_no"], columns="source", values="text", aggfunc="first")
        g = wide["GT"].fillna("").tolist() if "GT" in wide.columns else []
        for s in sources:
            if g and s != "GT" and s in wide.columns:
                src += [s] * len(g)
                text += wide[s].fillna("").tolist()
                gt += g
    pairs = pa.table({"source": pa.array(src, pa.string()), "text": pa.array(text, pa.string()),
                      "gt_text": pa.array(gt, pa.string())})
    return {r["source"]: (r["char_errors"], r["gt_chars"]) for r in cer_partials_batch(pairs).to_pylist()}


def _partials(variants: pa.Table, sources) -> dict:
    return {r["source"]: (r["char_errors"], r["gt_chars"])
            for r in line_cer_partials(variants, sources).to_pylist()}


def _variants(cells: dict) -> pa.Table:
    """Long-form variant table from {(doc_id, source, line_no): text}."""
    keys = list(cells)
    return pa.table(
        {
            "doc_id": pa.array([k[0] for k in keys], pa.string()),
            "source": pa.array([k[1] for k in keys], pa.string()),
            "line_no": pa.array([k[2] for k in keys], pa.int32()),
            "text": pa.array([cells[k] for k in keys], pa.string()),
            "conf": pa.array([0.5] * len(keys), pa.float32()),
        }
    )


SOURCE_LISTS = [
    SOURCES,
    ("OCR-1", "GT"),
    ("OCR-1", "OCR-2"),  # no GT: no pairs
    ("GT", "OCR-1", "OCR-2"),  # GT as the master
    ("OCR-2", "OCR-3", "OCR-1", "GT"),
]

_cells = st.dictionaries(
    st.tuples(
        st.sampled_from(["d0", "d1", "d2"]),
        st.sampled_from(["OCR-1", "OCR-2", "OCR-3", "GT"]),
        st.integers(0, 4),
    ),
    st.none() | st.text(alphabet="ab c", max_size=8),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(cells=_cells, sources=st.sampled_from(SOURCE_LISTS))
# a support source misses a master line
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "OCR-1", 1): "cc", ("d0", "OCR-2", 0): "ab",
                ("d0", "GT", 0): "ab", ("d0", "GT", 1): "ca"}, sources=SOURCES)
# GT misses a line
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "OCR-1", 1): "cc", ("d0", "OCR-2", 0): "b",
                ("d0", "OCR-2", 1): "c", ("d0", "GT", 1): "ca"}, sources=SOURCES)
# support and GT rows only on line numbers the master lacks
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "OCR-2", 3): "ab", ("d0", "GT", 0): "b",
                ("d0", "GT", 4): "ba"}, sources=SOURCES)
# a doc with no master lines
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "GT", 0): "ab", ("d1", "OCR-2", 0): "a",
                ("d1", "GT", 0): "abc"}, sources=SOURCES)
# None text, on the master, a support and GT
@example(cells={("d0", "OCR-1", 0): None, ("d0", "OCR-2", 0): "a", ("d0", "GT", 0): "ab",
                ("d0", "OCR-1", 1): "a", ("d0", "OCR-2", 1): None, ("d0", "GT", 1): None},
         sources=SOURCES)
# a source absent from the whole batch
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "GT", 0): "abc", ("d1", "OCR-1", 0): "c",
                ("d1", "GT", 0): "c"}, sources=SOURCES)
# a source list without GT
@example(cells={("d0", "OCR-1", 0): "ab", ("d0", "OCR-2", 0): "a", ("d0", "GT", 0): "ab"},
         sources=("OCR-1", "OCR-2"))
# an empty block
@example(cells={}, sources=SOURCES)
def test_line_partials_match_aligner_line_rows(cells, sources):
    variants = _variants(cells)
    assert _partials(variants, sources) == _oracle(variants, sources)


def test_evaluate_pipeline_matches_aligner_oracle(ray_session, sf_dir, tmp_path):
    """The Dataset the pipeline returns has the oracle's per-source sums
    over the corpus files, sorted by source, with their rates."""
    import ray.data

    corpus = materialize_corpus(sf_dir, str(tmp_path / "corpus"), files=4)
    want: dict = {}
    for f in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        variants = synth_variants_batch(extract_spans_batch(pq.read_table(f)), sources=SOURCES, seed=42)
        for s, (e, c) in _oracle(variants, SOURCES).items():
            acc = want.setdefault(s, [0, 0])
            acc[0] += e
            acc[1] += c

    ds = corpus_evaluate_pipeline(corpus)
    assert isinstance(ds, ray.data.Dataset)
    df = ds.to_pandas()
    assert list(df.columns) == ["source", "char_errors", "gt_chars", "char_error_rate"]
    assert list(df["source"]) == sorted(want) == ["OCR-1", "OCR-2"]
    assert {r.source: [r.char_errors, r.gt_chars] for r in df.itertuples()} == want
    assert all(r.gt_chars > 0 and r.char_error_rate == r.char_errors / r.gt_chars for r in df.itertuples())

    # without GT there is nothing to score against: an error naming it
    with pytest.raises(ValueError, match="'GT'"):
        corpus_evaluate_pipeline(corpus, sources=("OCR-1", "OCR-2"))
