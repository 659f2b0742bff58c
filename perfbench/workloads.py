"""The three benchmark workloads.

Each workload generates its inputs from the seed, runs one operation
through the program's public pipeline entry points (``op``), checks the
outputs against expected values, and can replay the same work in the
benchmark process with a span around every call into a layer's public
functions (``traced``).

- ``extract_write``: raw interleaved corpus -> ``corpus_extract_pipeline``
  -> ``write_resumable`` into a fresh directory, then the rerun over the
  committed directory (resume).
- ``align_eval``: ``corpus_evaluate_pipeline`` (extract -> variants ->
  n-way align -> CER) over a raw corpus.
- ``ocr_chain``: ``run_ocr_chain`` over a ``documents.parquet``: render,
  degrade x2, binarize, denoise, segment, recognize, lexicon, confusions,
  ranker, line correction, CER.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .inputs import dir_bytes, documents, write_corpus, write_documents
from .procstat import TREE
from .tracer import Tracer, patch_everywhere

SOURCES = ("OCR-1", "OCR-2", "GT")


class Workload:
    name = ""
    default_pages = 0
    ray_cpus = 1  # logical CPUs of the Ray session

    def __init__(self, seed: int, pages: int | None, work_dir: str):
        self.seed = seed
        self.pages = pages or self.default_pages
        self.work_dir = work_dir
        self.input_dir = ""
        self._ops = 0

    def generate(self, input_dir: str) -> None:
        """Write the seeded inputs under ``input_dir`` and use them."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the expected outputs (not timed)."""

    def op(self) -> dict:
        """One timed operation: ``{"run_s", "cpu_s", "wall_s", "checks":
        [bool]}`` plus workload-specific timings."""
        raise NotImplementedError

    def traced(self, tr: Tracer) -> tuple[dict, list[bool]]:
        """Replay one operation under ``tr``; per-layer values and checks."""
        raise NotImplementedError

    def _fresh(self, label: str) -> str:
        self._ops += 1
        return os.path.join(self.work_dir, f"{label}-{self._ops}")


def _timed(fn):
    """``fn()``, its wall time, and the CPU time the benchmark process
    and the Ray services, workers and actors used while it ran."""
    c0, t0 = TREE.cpu_s(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, TREE.cpu_s() - c0


def _read_blocks(corpus_dir: str, tr: Tracer) -> list[pa.Table]:
    """The corpus as ``read_corpus`` delivers it, under a read span;
    counts the bytes of the blocks it returned."""
    import ray

    from ocrd_cis_ray.sources.corpus_io import read_corpus

    with tr.span("sources.corpus_io.read"):
        blocks = ray.get(read_corpus(corpus_dir).materialize().to_arrow_refs())
    tr.count("sources.corpus_io.bytes_read", sum(t.nbytes for t in blocks))
    return blocks


def _spans_out(t: pa.Table) -> int:
    return int(pc.sum(pc.list_value_length(t["spans"])).as_py() or 0)


@contextlib.contextmanager
def _levenshtein_traced(tr: Tracer):
    """Count and time every edit-distance call the benchmark process makes."""
    import sys

    from ocrd_cis_ray import util

    mods = [m for n, m in list(sys.modules.items()) if n.startswith("ocrd_cis_ray") and m is not None]
    with patch_everywhere(mods, util.levenshtein, tr.wrap_hot("util.levenshtein", util.levenshtein)):
        yield


class ExtractWrite(Workload):
    name = "extract_write"
    default_pages = 6000
    files = 8

    def generate(self, input_dir):
        from ocrd_cis_ray.corpus import synth_batch

        self.docs = documents(self.seed, self.pages)
        raw = synth_batch(self.docs, seed=self.seed, raw=True)
        self.input_dir = write_corpus(raw, os.path.join(input_dir, "corpus"), self.files)

    def prepare(self):
        from ocrd_cis_ray.corpus import synth_batch

        self.expected = synth_batch(self.docs, seed=self.seed, raw=False).sort_by("doc_id")

    def _write(self, ds, out_dir):
        from ocrd_cis_ray.state.manifest import write_resumable

        return write_resumable(ds, out_dir, stage="extract", input_fingerprint=f"seed={self.seed}")

    def _pipeline(self):
        from ocrd_cis_ray.pipelines.flagship import corpus_extract_pipeline

        return corpus_extract_pipeline(self.input_dir)

    def _check_resume(self, first: dict, rerun: dict) -> bool:
        return (
            rerun["completed"] == 0
            and rerun["skipped"] == first["completed"]
            and rerun["rows"] == first["rows"]
        )

    def _check_spans(self, out_dir: str) -> bool:
        files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
        got = pa.concat_tables([pq.read_table(f) for f in files]).sort_by("doc_id")
        exp = self.expected
        return (
            got.num_rows == exp.num_rows
            and got["doc_id"].combine_chunks().equals(exp["doc_id"].combine_chunks())
            and got["spans"].combine_chunks().equals(exp["spans"].combine_chunks())
        )

    def op(self):
        out = self._fresh("out")
        first, run_s, cpu_s = _timed(lambda: self._write(self._pipeline(), out))
        rerun, resume_s, _ = _timed(lambda: self._write(self._pipeline(), out))
        checks = [
            first["rows"] == self.pages and first["completed"] > 0,
            self._check_resume(first, rerun),
            self._check_spans(out),
        ]
        shutil.rmtree(out, ignore_errors=True)
        return {"run_s": run_s, "cpu_s": cpu_s, "resume_s": resume_s, "wall_s": run_s + resume_s, "checks": checks}

    def traced(self, tr):
        import ray.data as rd

        from ocrd_cis_ray.stages.extract import extract_spans_batch

        out = self._fresh("traced")
        with tr.span("op.run"):
            blocks = _read_blocks(self.input_dir, tr)
            with tr.span("stages.extract"):
                docs = [extract_spans_batch(t) for t in blocks]
            with tr.span("state.manifest.write"):
                first = self._write(rd.from_arrow(docs), out)
        with tr.span("op.resume"):
            with tr.span("state.manifest.resume"):
                rerun = self._write(self._pipeline(), out)
        vals = {
            "stages.extract.spans_out": sum(_spans_out(d) for d in docs),
            "state.manifest.partitions_committed": first["completed"],
            "state.manifest.bytes_written": dir_bytes(out),
            "state.manifest.partitions_skipped": rerun["skipped"],
        }
        checks = [self._check_resume(first, rerun), self._check_spans(out)]
        shutil.rmtree(out, ignore_errors=True)
        return vals, checks


class AlignEval(Workload):
    name = "align_eval"
    default_pages = 800
    files = 8

    def generate(self, input_dir):
        from ocrd_cis_ray.corpus import synth_batch

        docs = documents(self.seed, self.pages)
        raw = synth_batch(docs, seed=self.seed, raw=True)
        self.input_dir = write_corpus(raw, os.path.join(input_dir, "corpus"), self.files)

    def prepare(self):
        blocks = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))]
        self.expected = self.replay(blocks, Tracer("expected"))

    def replay(self, blocks: list[pa.Table], tr: Tracer) -> dict:
        """The evaluate pipeline's per-block work, in this process:
        extract -> variants -> align -> line pairing + CER partials.
        The pipeline sums the edit distances of the paired lines in a
        private closure; the replay does the same sums through the
        public ``cer_partials_batch``. Returns {source: (char_errors,
        gt_chars)}."""
        from ocrd_cis_ray.corpus import synth_variants_batch
        from ocrd_cis_ray.stages.align import NWayAligner
        from ocrd_cis_ray.stages.extract import extract_spans_batch
        from ocrd_cis_ray.stages.metrics import cer_partials_batch

        aligner = NWayAligner(list(SOURCES))
        totals: dict[str, list[int]] = {}
        for t in blocks:
            with tr.span("stages.extract"):
                docs = extract_spans_batch(t)
            tr.count("stages.extract.spans_out", _spans_out(docs))
            with tr.span("corpus.variants"):
                variants = synth_variants_batch(docs, sources=SOURCES, seed=self.seed)
            tr.count("corpus.variants.lines_out", variants.num_rows)
            with tr.span("stages.align"):
                aligned = aligner(variants.to_pandas())
            # the pipeline's line pairing, in the benchmark's own code: a
            # span of its own keeps it out of the CER time and out of
            # ``ray.overhead_s``
            with tr.span("align_eval.line_pairs"):
                pairs = _line_pairs(aligned)
            with tr.span("stages.metrics.cer"):
                partials = cer_partials_batch(pairs)
            for row in partials.to_pylist():
                acc = totals.setdefault(row["source"], [0, 0])
                acc[0] += row["char_errors"]
                acc[1] += row["gt_chars"]
        return {s: tuple(v) for s, v in sorted(totals.items())}

    def _check(self, got: dict) -> list[bool]:
        return [got.get(s) == v for s, v in self.expected.items()] + [set(got) == set(self.expected)]

    def op(self):
        from ocrd_cis_ray.pipelines.flagship import corpus_evaluate_pipeline

        df, run_s, cpu_s = _timed(lambda: corpus_evaluate_pipeline(self.input_dir, seed=self.seed).to_pandas())
        got = {r.source: (int(r.char_errors), int(r.gt_chars)) for r in df.itertuples()}
        return {"run_s": run_s, "cpu_s": cpu_s, "wall_s": run_s, "checks": self._check(got)}

    def traced(self, tr):
        from ocrd_cis_ray.stages import align

        match_cursor = align.match_cursor

        def counted_match(master, tokens):
            out = match_cursor(master, tokens)
            if tr.current() == "stages.align":
                tr.count("stages.align.line_pairs")
                if out is None:
                    tr.count("stages.align.giveups")
            return out

        with tr.span("op.run"):
            blocks = _read_blocks(self.input_dir, tr)
            with _levenshtein_traced(tr), patch_everywhere([align], match_cursor, counted_match):
                got = self.replay(blocks, tr)
        pairs = tr.counts["stages.align.line_pairs"]
        vals = {
            "stages.align.word_giveup_frac": tr.counts["stages.align.giveups"] / pairs if pairs else 0.0,
        }
        return vals, self._check(got)


def _line_pairs(aligned) -> pa.Table:
    """(source, text, gt_text) rows pairing each OCR source's aligned
    line with the GT line — the flagship evaluation's line pairing."""
    lines = aligned[aligned["level"] == "line"]
    src, text, gt = [], [], []
    if not lines.empty:
        wide = lines.pivot_table(index=["doc_id", "line_no"], columns="source", values="text", aggfunc="first")
        g = wide["GT"].fillna("").tolist() if "GT" in wide.columns else []
        for s in SOURCES:
            if g and s != "GT" and s in wide.columns:
                src += [s] * len(g)
                text += wide[s].fillna("").tolist()
                gt += g
    return pa.table({"source": pa.array(src, pa.string()), "text": pa.array(text, pa.string()),
                     "gt_text": pa.array(gt, pa.string())})


class OcrChain(Workload):
    name = "ocr_chain"
    default_pages = 96  # the chain splits pages into 16 blocks: 6 pages each
    ray_cpus = 2  # at 1, the two 0.5-CPU LineCorrector actors hold the only CPU and the chain hangs

    def generate(self, input_dir):
        self.docs = documents(self.seed, self.pages)
        self.input_dir = write_documents(self.docs, os.path.join(input_dir, "sf"))

    def prepare(self):
        from ocrd_cis_ray.pipelines.ocr_chain import page_lines

        self.gt_chars = sum(len(line) for t in self.docs["text"].to_pylist() for line in page_lines(t))
        self.reference: dict | None = None  # char_errors of the first run

    def _check(self, got: dict) -> list[bool]:
        keys = {("raw", "OCR-1"), ("raw", "OCR-2"), ("postcorrected", "OCR-2")}
        errors = {k: e for k, (e, _) in got.items()}
        if self.reference is None and set(got) == keys:
            self.reference = errors
        return [set(got) == keys, errors == self.reference] + [
            chars == self.gt_chars for _, chars in got.values()
        ]

    def op(self):
        from ocrd_cis_ray.pipelines.ocr_chain import run_ocr_chain

        df, run_s, cpu_s = _timed(lambda: run_ocr_chain(self.input_dir))
        got = {(r.stage, r.source): (int(r.char_errors), int(r.gt_chars)) for r in df.itertuples()}
        return {"run_s": run_s, "cpu_s": cpu_s, "wall_s": run_s, "checks": self._check(got)}

    def traced(self, tr):
        import ray
        import ray.data as rd

        from ocrd_cis_ray import util
        from ocrd_cis_ray.pipelines import ocr_chain as oc
        from ocrd_cis_ray.stages import image_ops, segment
        from ocrd_cis_ray.stages.postcorrect import LineCorrector, learn_confusions, train_ranker
        from ocrd_cis_ray.stages.textops import token_frequencies

        levenshtein = util.levenshtein
        media_stage = image_ops._media_stage

        def traced_media_stage(batch, op, params):
            with tr.span(f"stages.image_ops.{op}"):
                return media_stage(batch, op=op, params=params)

        def count_rows(name):
            return lambda t: tr.count(name, t.num_rows)

        with tr.span("op.run"):
            with tr.span("stages.textops.lexicon"):
                texts = rd.read_parquet(os.path.join(self.input_dir, "documents.parquet"), columns=["text"])
                lexicon = token_frequencies(texts, top_v=200_000).to_dict()
            with tr.span("sources.media.render"):
                pages = oc.synth_pages(self.input_dir, carry_text=True).materialize()
            with tr.span("pipelines.ocr_chain.rebalance"):
                pages, rebalance = oc.rebalance_pages(pages)
            ocr = oc.DualChannelOCR(emit_wide=True)
            ocr.rec = tr.wrap_span("stages.recognize", ocr.rec, count_rows("stages.recognize.lines_out"))
            with contextlib.ExitStack() as patches:
                patches.enter_context(_levenshtein_traced(tr))
                patches.enter_context(patch_everywhere(
                    [oc], oc.degrade_batch, tr.wrap_span("pipelines.ocr_chain.degrade", oc.degrade_batch)))
                patches.enter_context(patch_everywhere([image_ops], media_stage, traced_media_stage))
                patches.enter_context(patch_everywhere(
                    [segment], segment.segment_pages_batch,
                    tr.wrap_span("stages.segment", segment.segment_pages_batch, count_rows("stages.segment.lines_out"))))
                wide_parts = []
                for block in ray.get(pages.to_arrow_refs()):
                    for lo in range(0, block.num_rows, 8):  # the chain's OCR batch size
                        with tr.span("pipelines.ocr_chain.ocr"):
                            wide_parts.append(ocr(block.slice(lo, 8)))
                wide = pa.concat_tables(wide_parts)
                with tr.span("stages.metrics.cer"):
                    raw = oc._cer_partials_wide(wide, pairs=[("OCR-1", "GT"), ("OCR-2", "GT")])
                with tr.span("stages.postcorrect.confusions"):
                    confusions = learn_confusions(
                        rd.from_arrow([pa.table({"text": w["OCR-2"], "gt_text": w["GT"]}) for w in wide_parts]),
                        sample_rate=0.25,
                    )
                with tr.span("stages.postcorrect.train_ranker"):
                    ranker = train_ranker(
                        rd.from_arrow([pa.table({"text": w["OCR-2"], "peer_text": w["OCR-1"], "gt_text": w["GT"]})
                                       for w in wide_parts]),
                        lexicon, confusions, sample_rate=1.0,
                    )
                with tr.span("stages.postcorrect.correct"):
                    corrector = LineCorrector(lexicon, confusions, ranker=ranker)
                    lines = pa.table({"text": wide["OCR-2"], "peer_text": wide["OCR-1"], "GT": wide["GT"]})
                    fixed = pa.concat_tables(
                        [corrector(lines.slice(lo, 256)) for lo in range(0, lines.num_rows, 256)]
                    )
                with tr.span("stages.metrics.cer"):
                    post = oc._cer_partials_wide(
                        pa.table({"OCR-2": fixed["corrected_text"], "GT": fixed["GT"]}), pairs=[("OCR-2", "GT")]
                    )
        changed = useful = 0
        for text, corr, gt in zip(fixed["text"].to_pylist(), fixed["corrected_text"].to_pylist(),
                                  fixed["GT"].to_pylist()):
            if corr != text:
                changed += 1
                useful += levenshtein(corr, gt) < levenshtein(text, gt)
        post_row = post.to_pylist()[0]
        got = {("raw", r["source"]): (r["char_errors"], r["gt_chars"]) for r in raw.to_pylist()}
        got[("postcorrected", "OCR-2")] = (post_row["char_errors"], post_row["gt_chars"])
        vals = {
            "pipelines.ocr_chain.rebalance_spread": rebalance["spread"],
            "stages.postcorrect.lines_changed": changed,
            "stages.postcorrect.useful_frac": useful / changed if changed else 0.0,
            "stages.postcorrect.corrected_cer": post_row["char_errors"] / max(1, post_row["gt_chars"]),
        }
        return vals, self._check(got)


WORKLOADS = {w.name: w for w in (ExtractWrite, AlignEval, OcrChain)}
