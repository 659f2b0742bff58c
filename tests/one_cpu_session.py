"""The paper's entry points, run in turn in one 1-CPU Ray session.

    python -m tests.one_cpu_session SF_DIR WORK_DIR NAME [NAME ...]

prints ``ready`` once the session is up, then ``done <name> <digest>``
after each named entry point finishes. ``WORK_DIR`` must hold the
inputs that ``write_inputs`` writes. Each entry point returns its result
rows; ``digest`` hashes them, so a run in another session can be
compared line for line (tests/test_one_cpu.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

CHAIN_DOCS = 48  # the OCR chain, the cutter and the raw corpus read these
TEXT_DOCS = 12  # one text file per page for the ingest and PAGE-XML sinks


def write_inputs(sf_dir: str, work: str) -> None:
    """Files the entry points read: a ``CHAIN_DOCS``-document slice of
    ``documents.parquet`` and a directory of ``TEXT_DOCS`` page files.
    The recognition and correction entry points read ``sf_dir`` whole,
    like the queries that use them."""
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    os.makedirs(os.path.join(work, "chain"), exist_ok=True)
    pq.write_table(docs.slice(0, CHAIN_DOCS), os.path.join(work, "chain", "documents.parquet"))
    os.makedirs(os.path.join(work, "pages"), exist_ok=True)
    for did, text in zip(docs["doc_id"].to_pylist()[:TEXT_DOCS], docs["text"].to_pylist()):
        with open(os.path.join(work, "pages", f"doc{int(did):06d}.txt"), "w") as f:
            f.write("\n".join(" ".join((text or "").split(" ")[i : i + 8]) for i in range(0, 32, 8)))


def digest(rows) -> str:
    """Order-insensitive hash of JSON-able result rows."""
    lines = sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()[:16]


def _stats(stats: dict) -> list[dict]:
    return [{k: stats[k] for k in ("completed", "skipped", "rows")}]


def extract_write(sf_dir: str, work: str) -> list[dict]:
    """The shape of the extract_write benchmark workload: materialized
    raw corpus -> extract -> manifested write."""
    from ocrd_cis_ray.pipelines.flagship import corpus_extract_pipeline, materialize_corpus
    from ocrd_cis_ray.state.manifest import write_resumable

    corpus = materialize_corpus(os.path.join(work, "chain"), os.path.join(work, "corpus"), files=4)
    return _stats(write_resumable(corpus_extract_pipeline(corpus), os.path.join(work, "extracted"), stage="extract"))


def corpus_evaluate(sf_dir: str, work: str) -> list[dict]:
    """The shape of the align_eval benchmark workload: extract ->
    variants -> line pairing + CER."""
    from ocrd_cis_ray.pipelines.flagship import corpus_evaluate_pipeline, materialize_corpus

    corpus = materialize_corpus(os.path.join(work, "chain"), os.path.join(work, "corpus"), files=4)
    return corpus_evaluate_pipeline(corpus).to_pandas().to_dict("records")


def ocr_chain(sf_dir: str, work: str) -> list[dict]:
    from ocrd_cis_ray.pipelines.ocr_chain import run_ocr_chain

    out = run_ocr_chain(os.path.join(work, "chain"))
    return out[["stage", "source", "char_errors", "gt_chars"]].to_dict("records")


def eval_rollup(sf_dir: str, work: str) -> list[dict]:
    """q113's shape (the CLI ``report`` rollup) over the chain's
    document slice."""
    from __ray_entry__ import q113_eval_rollup

    return q113_eval_rollup(os.path.join(work, "chain")).to_dict("records")


def cutter(sf_dir: str, work: str) -> list[dict]:
    from ocrd_cis_ray.pipelines.cutter import cut_training_lines

    return _stats(cut_training_lines(os.path.join(work, "chain"), os.path.join(work, "cut"), n_partitions=2, n_blocks=2))


def ingest(sf_dir: str, work: str) -> list[dict]:
    from ocrd_cis_ray.sources.ingest import ingest_resumable

    return _stats(ingest_resumable(os.path.join(work, "pages"), os.path.join(work, "ingested"), n_partitions=4))


def page_xml_sink(sf_dir: str, work: str) -> list[dict]:
    from ocrd_cis_ray.sources.ingest import ingest_pages
    from ocrd_cis_ray.sources.page_xml import write_page_xml_corpus

    docs = ingest_pages(os.path.join(work, "pages"))
    return _stats(write_page_xml_corpus(docs, os.path.join(work, "page_xml"), n_partitions=2))


def recognize(sf_dir: str, work: str) -> list[dict]:
    """q71: the media lines -> template recognition -> projection task."""
    from __ray_entry__ import q71_recognize

    return q71_recognize(sf_dir).to_pandas().to_dict("records")


def recognize_model(sf_dir: str, work: str) -> list[dict]:
    """q71's shape with a pickled BIDILSTM (untrained, seeded: this run
    checks scheduling, not accuracy). The LSTM's cost grows with the
    line width, so the lines are cut to 10 characters."""
    from __ray_entry__ import _media_lines
    from ocrd_cis_ray.sources.media import render_line
    from ocrd_cis_ray.stages.lstm import Codec, SeqRecognizer
    from ocrd_cis_ray.stages.recognize import CHARSET, recognize_lines

    path = os.path.join(work, "model.pkl")
    SeqRecognizer(render_line("x").shape[0], 8, Codec([""] + CHARSET), seed=7).save(path)
    rec = recognize_lines(_media_lines(sf_dir, max_chars=10), batch_size=64, model_path=path)
    return rec.map_batches(_project, batch_format="pyarrow").to_pandas().to_dict("records")


def _project(t: pa.Table) -> pa.Table:
    return t.select(["doc_id", "text"])


def postcorrect(sf_dir: str, work: str) -> list[dict]:
    """q72: corpus lexicon, corrupted tokens -> token correction ->
    projection task."""
    from __ray_entry__ import q72_postcorrect

    return q72_postcorrect(sf_dir).to_pandas().to_dict("records")


# name -> entry point, in run order
ENTRY_POINTS = {
    "extract_write_resumable": extract_write,
    "corpus_evaluate_pipeline": corpus_evaluate,
    "run_ocr_chain": ocr_chain,
    "eval_rollup": eval_rollup,
    "cut_training_lines": cutter,
    "ingest_resumable": ingest,
    "write_page_xml_corpus": page_xml_sink,
    "recognize_lines": recognize,
    "recognize_lines_model_path": recognize_model,
    "postcorrect_tokens": postcorrect,
}


def main(sf_dir: str, work: str, names: list[str]) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 * 2**20)
    DataContext.get_current().enable_progress_bars = False
    print("ready", flush=True)
    for name in names:
        print(f"done {name} {digest(ENTRY_POINTS[name](sf_dir, work))}", flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
