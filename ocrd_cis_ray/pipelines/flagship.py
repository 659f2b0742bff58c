"""Flagship end-to-end pipeline: corpus → extraction → variants →
n-way alignment → evaluation metrics.

Mirrors the reference's aio super-pipeline (ocrd_cis/aio/aio.py:
unpack → recognize per OCR engine → align → stats) as one lazy Ray
Data flow: every stage is a map_batches/groupby over the streaming
executor, nothing materializes the corpus on the driver.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..corpus import synth_batch, synth_variants_batch
from ..stages.align import align_variants
from ..stages.extract import extract, flatten_spans_batch
from ..stages.metrics import cer_by_source


def raw_corpus(sf_dir: str, *, pages_per_doc: int = 1, seed: int = 42):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        synth_batch,
        batch_format="pyarrow",
        fn_kwargs={"seed": seed, "pages_per_doc": pages_per_doc, "raw": True},
    )


def extract_pipeline(sf_dir: str, *, pages_per_doc: int = 1, seed: int = 42):
    """read → synthesize raw interleaved docs → extract/normalize spans."""
    return extract(raw_corpus(sf_dir, pages_per_doc=pages_per_doc, seed=seed))


def materialize_corpus(sf_dir: str, out_dir: str, *, pages_per_doc: int = 1, seed: int = 42, files: int = 256) -> str:
    """Write the raw interleaved corpus to partitioned parquet once —
    the bench/production input layout (many files ⇒ the read itself
    parallelizes, unlike on-the-fly synthesis from one source file).

    256 files: single-row-group files cannot be split below file
    granularity by the reader, so the file count IS the downstream
    block count — 64 files gave the 32-cpu fused evaluate a 2-wave
    straggler tail. A cached dir with a DIFFERENT file count is
    regenerated (the count is the layout contract)."""
    import os
    import shutil

    existing = (
        [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
        if os.path.isdir(out_dir)
        else []
    )
    if len(existing) != files:
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        ds = raw_corpus(sf_dir, pages_per_doc=pages_per_doc, seed=seed)
        ds.repartition(files).write_parquet(out_dir)
    return out_dir


def corpus_extract_pipeline(corpus_dir: str):
    """read materialized corpus (Lance when available, else parquet —
    sources/corpus_io dispatch) → extract/normalize spans."""
    from ..sources.corpus_io import read_corpus

    return extract(read_corpus(corpus_dir))


def corpus_evaluate_pipeline(corpus_dir: str, *, seed: int = 42, sources=("OCR-1", "OCR-2", "GT")):
    """read materialized corpus → extract → variants → fused align+CER."""
    docs = corpus_extract_pipeline(corpus_dir)
    return _evaluate_from_docs(docs, seed=seed, sources=sources)


def align_pipeline(sf_dir: str, *, pages_per_doc: int = 1, seed: int = 42, sources=("OCR-1", "OCR-2", "GT")):
    """extracted docs → per-source corrupted variant lines → n-way align."""
    docs = extract_pipeline(sf_dir, pages_per_doc=pages_per_doc, seed=seed)
    variants = docs.map_batches(
        synth_variants_batch, batch_format="pyarrow", fn_kwargs={"sources": tuple(sources), "seed": seed}
    )
    return align_variants(variants, list(sources))


def evaluate_pipeline(sf_dir: str, *, pages_per_doc: int = 1, seed: int = 42, sources=("OCR-1", "OCR-2", "GT")):
    """Full chain ending in per-source CER of aligned line variants vs GT
    (reference div/stats.py:31-91 semantics), FUSED with ZERO shuffle:
    variants are synthesized inside each doc's batch, so alignment,
    per-line OCR/GT pairing and CER partial sums all happen batch-
    locally and only tiny per-source partials reach the final
    aggregate — neither the variant rows nor the aligned intermediate
    ever cross an exchange (at 10^12 docs either would dominate
    shuffle bytes).
    """
    docs = extract_pipeline(sf_dir, pages_per_doc=pages_per_doc, seed=seed)
    return _evaluate_from_docs(docs, seed=seed, sources=sources)


def _evaluate_from_docs(docs, *, seed: int = 42, sources=("OCR-1", "OCR-2", "GT")):
    from ..stages.align import NWayAligner
    from ..util import levenshtein

    aligner = NWayAligner(list(sources))
    ocr_sources = [s for s in sources if s != "GT"]

    def align_and_eval(bucket: pd.DataFrame) -> pd.DataFrame:
        aligned = aligner(bucket)
        b = aligned[aligned["level"] == "line"]
        if b.empty:
            return pd.DataFrame({"source": [], "char_errors": [], "gt_chars": []})
        wide = b.pivot_table(
            index=["doc_id", "line_no"], columns="source", values="text", aggfunc="first"
        ).reset_index()
        acc: dict[str, list[int]] = {}
        if "GT" in wide.columns:
            gts = wide["GT"].fillna("").to_numpy()
            for src in ocr_sources:
                if src not in wide.columns:
                    continue
                errs = chars = 0
                for t, g in zip(wide[src].fillna("").to_numpy(), gts):
                    errs += levenshtein(t, g)
                    chars += len(g)
                acc[src] = [errs, chars]
        srcs = sorted(acc)
        return pd.DataFrame(
            {
                "source": srcs,
                "char_errors": pd.array([acc[s][0] for s in srcs], dtype="int64"),
                "gt_chars": pd.array([acc[s][1] for s in srcs], dtype="int64"),
            }
        )

    # ZERO-shuffle: synth_variants_batch derives every source's variant
    # of a doc INSIDE the doc's batch, so whole-doc locality already
    # holds per batch and the former bucketed_groupby(doc_id) exchange
    # moved multi-million variant rows for nothing (the chain's wide
    # path applies the same insight). Long-form inputs whose sources
    # arrive as separate rows (external OCR importers, q60-q62) still
    # go through align_variants' genuine exchange.
    def synth_align_eval(t: pa.Table) -> pd.DataFrame:
        bucket = synth_variants_batch(
            t, sources=tuple(sources), seed=seed
        ).to_pandas()
        return align_and_eval(bucket)

    # block granularity rides on the corpus file count (256 — see
    # materialize_corpus): single-row-group parquet can't be split
    # below file granularity, and a repartition here would reintroduce
    # an exchange the fusion just removed
    partials = docs.map_batches(synth_align_eval, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    out = partials.groupby("source").aggregate(
        Sum("char_errors", alias_name="char_errors"), Sum("gt_chars", alias_name="gt_chars")
    )

    def rate(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        b["char_error_rate"] = np.where(b["gt_chars"] > 0, b["char_errors"] / b["gt_chars"], 0.0)
        return b

    return out.map_batches(rate, batch_format="pandas")


def evaluate_pipeline_unfused(sf_dir: str, *, pages_per_doc: int = 1, seed: int = 42):
    """Reference-shaped chain (align stage output shuffled to the eval
    stage) — kept for parity testing against the fused version."""
    aligned = align_pipeline(sf_dir, pages_per_doc=pages_per_doc, seed=seed)

    def line_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        # whole hash bucket: all sources of every (doc, line) are
        # co-located because the bucket key is doc_id, so one vectorized
        # pivot per bucket pairs each OCR source with GT
        b = bucket[bucket["level"] == "line"]
        if b.empty:
            return pd.DataFrame({"source": [], "text": [], "gt_text": []})
        wide = b.pivot_table(
            index=["doc_id", "line_no"], columns="source", values="text", aggfunc="first"
        ).reset_index()
        out = []
        for src in ("OCR-1", "OCR-2"):
            if src not in wide.columns or "GT" not in wide.columns:
                continue
            out.append(
                pd.DataFrame(
                    {"source": src, "text": wide[src].fillna(""), "gt_text": wide["GT"].fillna("")}
                )
            )
        if not out:
            return pd.DataFrame({"source": [], "text": [], "gt_text": []})
        return pd.concat(out, ignore_index=True)

    from ..shuffle import bucketed_groupby

    pairs = bucketed_groupby(aligned, "doc_id", line_pairs, whole_bucket=True)
    return cer_by_source(pairs)


def flatten(ds):
    return ds.map_batches(flatten_spans_batch, batch_format="pyarrow")
