"""Flagship end-to-end pipeline: corpus → extraction → variants →
line pairing → evaluation metrics.

Mirrors the reference's aio super-pipeline (ocrd_cis/aio/aio.py:
unpack → recognize per OCR engine → align → stats) as one lazy Ray
Data flow up to the per-block CER partials, which the driver sums.
The evaluation reads only the line level of the alignment: the
reference's ``align_lines`` (align/cli.py:82-109) appends each support
line to the master line's TextEquiv list, which is a join on
(doc_id, line_no) and does not depend on word matching. Word-level
alignment is ``stages.align.align_variants``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..corpus import synth_batch, synth_variants_batch
from ..stages.extract import extract
from ..stages.metrics import cer_partials_wide, cer_reduce


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
    the bench/production input layout (many files ⇒ the read I/O
    spreads over files, unlike on-the-fly synthesis from one source
    file).

    The file count does not set the downstream block count:
    ``read_corpus`` reads in whole waves of one task per CPU, sized
    from the row count in the parquet footers. A cached dir with a
    DIFFERENT file count is regenerated (the count is the layout
    contract)."""
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
    sources/corpus_io dispatch; parquet in whole waves of one task per
    CPU) → extract/normalize spans."""
    from ..sources.corpus_io import read_corpus

    return extract(read_corpus(corpus_dir))


def line_frame(variants: pa.Table, sources) -> pa.Table:
    """Wide line frame (doc_id, line_no, <source>...) of one block of
    long-form variant lines (doc_id, source, line_no, text), one row
    per (doc_id, source, line_no).

    ``sources[0]`` is the master: its rows give the keys. Every other
    source joins onto them with a left join, and a missing cell is "".
    A source that matches no master line in the block gets no column,
    like a source absent from the aligner's line rows."""
    keys = ["doc_id", "line_no"]
    by_source = variants["source"]

    def rows_of(src: str) -> pa.Table:
        t = variants.filter(pc.equal(by_source, src))
        return pa.table({"doc_id": t["doc_id"], "line_no": t["line_no"], src: pc.fill_null(t["text"], "")})

    wide = rows_of(sources[0])
    for src in sources[1:]:
        wide = wide.join(rows_of(src), keys=keys, join_type="left outer", use_threads=False)
    present = [c for c in wide.column_names[2:] if wide[c].null_count < wide.num_rows]
    return pa.table({**{k: wide[k] for k in keys}, **{c: pc.fill_null(wide[c], "") for c in present}})


def line_cer_partials(variants: pa.Table, sources) -> pa.Table:
    """Per-block CER partials of the line pairs (source line, GT line)
    of every non-GT source in ``line_frame(variants, sources)``. A
    block whose master lines pair with no GT line yields no rows."""
    wide = line_frame(variants, sources)
    cols = set(wide.column_names)
    pairs = [(s, "GT") for s in sources if s != "GT" and s in cols] if "GT" in cols else []
    return cer_partials_wide(wide, pairs)


def corpus_evaluate_pipeline(corpus_dir: str, *, seed: int = 42, sources=("OCR-1", "OCR-2", "GT")):
    """read materialized corpus → extract → variants → line CER
    partials per block → driver-side sum. Returns a Dataset (source,
    char_errors, gt_chars, char_error_rate) sorted by source.

    Each block derives every source's variant of a document inside the
    block (``synth_variants_batch``), so the (doc_id, line_no) join is
    block-local and the run is one Dataset execution with no exchange.
    The read runs in whole waves of one task per CPU (``read_corpus``),
    whatever the corpus file count. Raises ValueError, before any Ray work,
    when ``sources`` has no "GT" to score against."""
    import ray.data as rd

    if "GT" not in sources:
        raise ValueError(f"corpus_evaluate_pipeline: sources {tuple(sources)} lack the 'GT' source")

    def block_partials(t: pa.Table) -> pa.Table:
        return line_cer_partials(synth_variants_batch(t, sources=sources, seed=seed), sources)

    docs = corpus_extract_pipeline(corpus_dir)
    return rd.from_pandas(cer_reduce(docs.map_batches(block_partials, batch_format="pyarrow")))
