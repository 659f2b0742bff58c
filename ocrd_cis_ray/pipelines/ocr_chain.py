"""The full OCR lifecycle over page MEDIA — the Ray-Data restatement of
the reference's aio super-pipeline (ocrd_cis/aio/aio.py: unpack → per
OCR engine recognize → align → profile/post-correct → stats):

    document text
      → page render                                   ┐
      → per-OCR-source degradation (seeded noise;     │ one task per
        the "two scanners")                           │ pages batch,
      → preprocessing (binarize → despeckle)          │ both channels
      → line segmentation (recursive XY cut)          │
      → line recognition                              │
      → n-way join of OCR sources + GT (page-local)   ┘
      → channel model (confusions) and ranker training
      → post-correction of the worst source           [tasks, per-worker state]
      → per-source CER before and after correction    [partials + driver sum]

The render runs inside the OCR task, so page media never leaves it:
the rows that cross the object store are (doc_id, text) rows in and
text lines out. ``run_ocr_chain`` makes five Dataset executions and its
only exchange is the Repartition of the (doc_id, text) rows. Every
stage runs as plain Ray Data tasks on the session's warm workers: the
chain starts no processes per run, and no stage holds a CPU that the
tasks downstream of it need. GT lines are derived from the same
deterministic page layout, so CER-before/after has exact goldens.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.media import encode_gray, render_line
from ..stages.metrics import cer_partials_wide, cer_reduce
from ..util import stable_hash64

LINES_PER_PAGE = 6
WORDS_PER_LINE = 8
# pages per OCR task batch: one page costs ~15 ms per channel
OCR_BATCH_PAGES = 8
# most rows per task of the passes over the materialized wide frame
# (confusions, ranker examples, correction + CER): each task pays a
# fixed Ray cost that outweighs the work of a few hundred lines, so a
# pass takes one bundle per CPU up to this size (``_wide_bundle``); the
# three results do not depend on the block layout
WIDE_BUNDLE_LINES = 4096


def page_lines(text: str) -> list[str]:
    """Deterministic page layout: 8-word lines, first LINES_PER_PAGE."""
    words = (text or "").split(" ")
    lines = [" ".join(words[k : k + WORDS_PER_LINE]) for k in range(0, len(words), WORDS_PER_LINE)]
    return lines[:LINES_PER_PAGE]


def compose_page(lines: list[str], *, gap: int = 6, pad: int = 12) -> np.ndarray:
    imgs = [render_line(t) for t in lines]
    w = max(i.shape[1] for i in imgs) + 2 * pad
    rows = [np.full((pad, w), 255, np.uint8)]
    for im in imgs:
        row = np.full((im.shape[0], w), 255, np.uint8)
        row[:, pad : pad + im.shape[1]] = im
        rows.append(row)
        rows.append(np.full((gap, w), 255, np.uint8))
    rows.append(np.full((pad, w), 255, np.uint8))
    return np.vstack(rows)


def render_pages(t: pa.Table) -> pa.Table:
    """(doc_id, text) rows → page-image media rows (doc_id, span_id,
    media_ref, features, pixels, text): one page per document, laid out
    by ``page_lines``. The source text stays on the page row so the OCR
    stage can derive the GT lines page-locally (``DualChannelOCR``)."""
    out = {"doc_id": [], "span_id": [], "media_ref": [], "features": [], "pixels": []}
    texts = t["text"].to_pylist()
    for did, text in zip(t["doc_id"].to_pylist(), texts):
        img = compose_page(page_lines(text))
        out["doc_id"].append(str(did))
        out["span_id"].append("page-0")
        out["media_ref"].append(f"media/{did}/page-0.bin")
        out["features"].append("")
        out["pixels"].append(encode_gray(img))
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "span_id": pa.array(out["span_id"], pa.string()),
            "media_ref": pa.array(out["media_ref"], pa.string()),
            "features": pa.array(out["features"], pa.string()),
            "pixels": pa.array(out["pixels"], pa.large_binary()),
            "text": pa.array([s or "" for s in texts], pa.string()),
        }
    )


def _session_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8))


def _text_rows(sf_dir: str):
    """(doc_id, text) rows of ``documents.parquet``, repartitioned into
    6 blocks per CPU (at least 16).

    A single-file parquet read is one task, so without the repartition
    the pages land in a handful of giant blocks and the render and OCR
    tasks downstream are starved of parallelism. The exchange moves
    only the small text rows, never page media."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # 6x CPU: the fused OCR stage is CPU-bound at ~15 ms/page, so finer
    # blocks cost nothing in overhead but remove the 2-wave straggler
    # tail on the OCR stage (measured 11.8 s @ 2xCPU -> 9.9 s @ 6xCPU
    # for the OCR stage at sf0.1/32 cpus)
    return ds.repartition(max(16, 6 * _session_cpus()))


def synth_pages(sf_dir: str, *, carry_text: bool = True):
    """documents → a Dataset of page-image media rows (``render_pages``
    over ``_text_rows``).

    ``run_ocr_chain`` does not call this: it renders inside its OCR task,
    so no page media leaves that task. perfbench's traced replay calls
    it to time the render on its own, and passes ``carry_text=True``;
    the page rows always carry the text, so any other value raises."""
    if carry_text is not True:
        raise ValueError("synth_pages keeps the text column on the page rows (carry_text=True)")
    return _text_rows(sf_dir).map_batches(render_pages, batch_format="pyarrow")


def rebalance_pages(pages, *, n_partitions: int | None = None, threshold: float = 1.25):
    """Byte-weighted range rebalance of the media-heavy page rows — the
    north_rule's explicit groupby-shuffle rebalancing of skewed
    partitions (shuffle.weighted_ranges), GATED on measured skew: the
    pages are materialized once, per-block byte totals are read with a
    zero-copy metadata pass, and the all-to-all media shuffle only runs
    when the realized block spread exceeds ``threshold``. A corpus
    that is already balanced (the common case after synth_pages'
    up-front repartition) pays zero media movement; a skewed one pays
    exactly one exchange: rows tagged with their byte-balanced doc_id
    range (driver-side weighted quantiles over a bounded sample) and
    co-located per range.

    Returns (pages_dataset, stats) where stats reports the realized
    per-partition byte distribution: {"parts", "max_mb", "mean_mb",
    "spread", "rebalanced"} — spread = max/mean partition bytes
    (1.0 = perfect).

    ``run_ocr_chain`` does not call this: it renders each page inside
    its OCR task, so it has no media block to rebalance. perfbench's
    traced replay calls it over ``synth_pages``.
    """
    from ray.data.aggregate import Sum

    from ..shuffle import weighted_ranges

    if n_partitions is None:
        n_partitions = max(8, _session_cpus())

    pages = pages.materialize()

    # per-block byte totals: one row out per block, payload never copied
    def block_bytes(t: pa.Table) -> pa.Table:
        return pa.table({"b": pa.array([t.nbytes], pa.int64())})

    blk = (
        pages.map_batches(block_bytes, batch_size=None, batch_format="pyarrow")
        .to_pandas()["b"]
        .to_numpy(np.float64)
    )
    if len(blk) >= max(2, n_partitions // 2):
        spread = float(blk.max() / blk.mean())
        if spread <= threshold:
            stats = {
                "parts": int(len(blk)),
                "max_mb": round(float(blk.max()) / 2**20, 2),
                "mean_mb": round(float(blk.mean()) / 2**20, 2),
                "spread": round(spread, 3),
                "rebalanced": False,
            }
            return pages, stats

    def with_bytes(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if "pixels" in t.column_names:
            return t.append_column(
                "media_bytes", pc.cast(pc.binary_length(t["pixels"]), pa.int64())
            )
        # sidecar mode: the payload byte length rides in the cas ref
        # (cas://<hash>/<nbytes>) — weight by it without fetching
        sizes = [int(r.rsplit("/", 1)[-1]) for r in t["media_ref"].to_pylist()]
        return t.append_column("media_bytes", pa.array(sizes, pa.int64()))

    # pages is already materialized; the byte-append map is cheap enough
    # to recompute for the two consumers below (no second materialize)
    sized = pages.map_batches(with_bytes, batch_format="pyarrow")
    bounds = weighted_ranges(sized, "doc_id", "media_bytes", n_partitions)
    bounds_arr = np.array(bounds, dtype=object)

    def assign(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=object)
        part = np.searchsorted(bounds_arr, ids, side="right").astype(np.int32)
        return t.append_column("__part", pa.array(part))

    parted = sized.map_batches(assign, batch_format="pyarrow")
    balanced = parted.groupby("__part").map_groups(_drop_part_cols, batch_format="pyarrow").materialize()
    # spread metric WITHOUT a second media shuffle: per-batch partial
    # byte sums keyed by partition (≤ n_partitions rows per batch), one
    # tiny aggregate — the payload bytes never move again
    def part_bytes(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"__part": t["__part"].to_numpy(), "media_bytes": t["media_bytes"].to_numpy()}
        )
        return df.groupby("__part", sort=False)["media_bytes"].sum().reset_index()

    spread_df = (
        parted.map_batches(part_bytes, batch_format="pyarrow")
        .groupby("__part")
        .aggregate(Sum("media_bytes", alias_name="bytes"))
        .to_pandas()
    )
    b = spread_df["bytes"].to_numpy(dtype=np.float64)
    stats = {
        "parts": int(len(b)),
        "max_mb": round(float(b.max()) / 2**20, 2),
        "mean_mb": round(float(b.mean()) / 2**20, 2),
        "spread": round(float(b.max() / b.mean()), 3),
        "rebalanced": True,
    }
    return balanced, stats


def _drop_part_cols(t: pa.Table) -> pa.Table:
    return t.drop_columns(["__part", "media_bytes"])


def degrade_batch(t: pa.Table, *, source: str, noise: int, erode: float, seed: int = 42) -> pa.Table:
    """Seeded per-(doc, source) degradation — the scanner/engine variance
    each OCR file group carries in the reference: salt specks in the
    background plus stroke erosion (random ink pixels dropped at rate
    ``erode``), which is what actually flips glyph classifications."""
    from ..sources.media import decode_gray

    out = []
    for did, buf in zip(t["doc_id"].to_pylist(), t["pixels"].to_pylist()):
        img = decode_gray(buf).copy()
        rng = np.random.default_rng((stable_hash64(f"{did}/{source}") ^ seed) & 0xFFFFFFFF)
        h, w = img.shape
        if erode > 0:
            ys, xs = np.nonzero(img < 128)
            drop = rng.random(len(ys)) < erode
            img[ys[drop], xs[drop]] = 255
        if noise > 0:
            # vectorized speck placement: batch-draw candidate
            # coordinates, test all 3x3 neighbourhoods with nine
            # shifted-AND lookups at once, then greedily accept the
            # first `noise` non-conflicting sites (a placed speck
            # blackens its cell, so later candidates within
            # Chebyshev distance 1 must be skipped — the sequential
            # loop's semantics at vector cost). A dense page may
            # lack `noise` isolated white sites; the bounded draw
            # (8x oversample) gives up instead of spinning.
            k = 8 * noise
            ys = rng.integers(1, h - 1, size=k)
            xs = rng.integers(1, w - 1, size=k)
            white = img == 255
            ok = np.ones(k, dtype=bool)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ok &= white[ys + dy, xs + dx]
            placed = 0
            occupied: set[tuple[int, int]] = set()
            for y, x in zip(ys[ok].tolist(), xs[ok].tolist()):
                if placed >= noise:
                    break
                if any(
                    (y + dy, x + dx) in occupied
                    for dy in (-1, 0, 1)
                    for dx in (-1, 0, 1)
                ):
                    continue
                img[y, x] = 0
                occupied.add((y, x))
                placed += 1
        out.append(encode_gray(img))
    cols = {n: t[n] for n in t.column_names}
    cols["pixels"] = pa.array(out, pa.large_binary())
    return pa.table(cols)



_CHANNEL_CONFIGS = (
    # (source, speck noise, stroke erosion)
    ("OCR-1", 25, 0.15),
    ("OCR-2", 60, 0.32),
)


class DualChannelOCR:
    """Fused OCR channels: one call runs degrade -> binarize -> denoise
    -> segment -> recognize for BOTH engine configs per pages batch.

    Why fused: the split pipeline ran two recognizer stages plus four
    task stages per channel, with every intermediate media table
    crossing the object store. Per-batch fusion keeps the degraded
    page, the binarized page and the line crops in task-local memory —
    the only rows that leave the stage are the final TEXT lines
    (tuple-weight, not media-weight). The recognition state (template
    bank) is shared by both channels. A build is cheap (well
    under the cost of one page), so the chain builds one per batch
    inside a plain task (``_ocr_wide_batch``)."""

    def __init__(self, *, emit_wide: bool = True):
        from ..stages.recognize import Recognizer

        if emit_wide is not True:
            raise ValueError("DualChannelOCR emits the wide line frame only (emit_wide=True)")
        # text_only: the chain consumes line TEXT only — word/glyph
        # polygon assembly is per-char Python dict churn it never reads
        self.rec = Recognizer(text_only=True)

    def _channel_lines(self, batch: pa.Table):
        """Run every engine channel over the (media-only) page batch;
        yields (source, recognizer output table)."""
        from ..stages.image_ops import _media_stage
        from ..stages.segment import segment_pages_batch

        for source, noise, erode in _CHANNEL_CONFIGS:
            t = degrade_batch(batch, source=source, noise=noise, erode=erode)
            t = _media_stage(t, op="binarize", params={"method": "global"})
            t = _media_stage(t, op="denoise", params={"minsize": 2})
            t = segment_pages_batch(t)
            yield source, self.rec(t)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Page rows (``render_pages``) → the wide line
        frame. The GT lines derive from the page row's text with the
        SAME page_lines layout that rendered the page, and both OCR
        channels run in this call — so the (doc_id, line_no) join of
        the sources is a page-LOCAL dict merge here. Emits one row per
        (doc_id, line_no) with one text column per source: the union of
        GT and recognized line numbers, absent cells "".
        """
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        media = batch.drop_columns(["text"])

        chan_maps: dict[str, dict[str, dict[int, str]]] = {}
        for source, r in self._channel_lines(media):
            per_doc: dict[str, dict[int, str]] = {}
            for did, sid, tx in zip(
                r["doc_id"].to_pylist(), r["span_id"].to_pylist(), r["text"].to_pylist()
            ):
                per_doc.setdefault(did, {})[int(sid.rsplit("-", 1)[-1])] = tx
            chan_maps[source] = per_doc

        srcs = [c[0] for c in _CHANNEL_CONFIGS]
        out: dict[str, list] = {"doc_id": [], "line_no": [], **{s: [] for s in srcs}, "GT": []}
        for did, text in zip(doc_ids, texts):
            gl = page_lines(text)
            per_src = [chan_maps[s].get(did, {}) for s in srcs]
            lns = set(range(len(gl)))
            for m in per_src:
                lns.update(m.keys())
            for ln in sorted(lns):
                out["doc_id"].append(did)
                out["line_no"].append(ln)
                out["GT"].append(gl[ln] if ln < len(gl) else "")
                for s, m in zip(srcs, per_src):
                    out[s].append(m.get(ln, ""))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "line_no": pa.array(out["line_no"], pa.int32()),
                **{s: pa.array(out[s], pa.string()) for s in srcs},
                "GT": pa.array(out["GT"], pa.string()),
            }
        )


def _ocr_wide_batch(batch: pa.Table) -> pa.Table:
    """The chain's OCR task: (doc_id, text) rows → rendered pages → the
    wide line frame (``DualChannelOCR``). The page media lives and dies
    in this task."""
    return DualChannelOCR()(render_pages(batch))


_cer_partials_wide = cer_partials_wide  # the name perfbench's traced replay imports

# (stage, source) of each CER column of ``_chain_cer_partials``
_CER_STAGES = {
    "OCR-1": ("raw", "OCR-1"),
    "OCR-2": ("raw", "OCR-2"),
    "corrected": ("postcorrected", "OCR-2"),
}


def _wide_bundle(n_lines: int) -> int:
    """Rows per task of a pass over ``n_lines`` wide-frame lines: one
    bundle per CPU, at most ``WIDE_BUNDLE_LINES`` lines each."""
    return max(1, min(WIDE_BUNDLE_LINES, -(-n_lines // _session_cpus())))


def _chain_cer_partials(t: pa.Table) -> pa.Table:
    """CER partials of corrected line rows (``correct_lines`` output):
    raw OCR-1 (the peer), raw OCR-2 and corrected OCR-2, each against GT."""
    wide = pa.table(
        {"OCR-1": t["peer_text"], "OCR-2": t["text"], "corrected": t["corrected_text"], "GT": t["GT"]}
    )
    return cer_partials_wide(wide, pairs=[(c, "GT") for c in _CER_STAGES])


def run_ocr_chain(sf_dir: str, *, out_dir: str | None = None):
    """Full chain; returns a summary frame
    (stage, source, char_errors, gt_chars, char_error_rate) with one
    'raw' row per OCR source and one 'postcorrected' row for OCR-2
    (the noisier engine — the reference corrects the aligned master).

    Five Dataset executions, and the only exchange is the Repartition of
    the (doc_id, text) rows:

    1. lexicon: per-batch token counts, summed on the driver
       (``textops.token_frequencies``);
    2. pages → wide frame: one task per ``OCR_BATCH_PAGES`` pages renders
       them and runs both OCR channels (``_ocr_wide_batch``), and the
       (doc_id, line_no, OCR-1, OCR-2, GT) frame is materialized;
    3. confusions learned from OCR-2-vs-GT pairs;
    4. ranker examples;
    5. line correction and every CER partial (raw OCR-1, raw OCR-2,
       corrected OCR-2) in one pass, summed by one ``cer_reduce``.

    Passes 3-5 read the wide frame in one bundle per CPU of at most
    ``WIDE_BUNDLE_LINES`` lines (``_wide_bundle``). With ``out_dir``, the corrected lines
    are materialized and written as a resumable stage output first.

    Every stage is a plain Ray Data task on the session's warm workers:
    OCR builds its (cheap) DualChannelOCR per batch, correction rebuilds
    its LineCorrector at most once per worker (``postcorrect.correct_lines``).
    No actor pool: the chain starts no processes per run and finishes on
    a 1-CPU session.
    """
    import ray.data as rd

    from ..stages.postcorrect import correct_lines, learn_confusions, train_ranker
    from ..stages.textops import token_frequencies

    # lexicon from the corpus vocabulary (the reference's language
    # dict), top-V truncated
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    lexicon = token_frequencies(docs, top_v=200_000).to_dict()
    wide = (
        _text_rows(sf_dir)
        .map_batches(_ocr_wide_batch, batch_format="pyarrow", batch_size=OCR_BATCH_PAGES)
        .materialize()
    )

    bundle = _wide_bundle(wide.count())

    def wide_pass(project):
        return wide.map_batches(project, batch_format="pyarrow", batch_size=bundle)

    def to_pairs(t: pa.Table) -> pa.Table:
        return pa.table({"text": t["OCR-2"], "gt_text": t["GT"]})

    def to_train(t: pa.Table) -> pa.Table:
        return pa.table({"text": t["OCR-2"], "peer_text": t["OCR-1"], "gt_text": t["GT"]})

    def to_correct(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "line_no": t["line_no"], "text": t["OCR-2"],
             "peer_text": t["OCR-1"], "GT": t["GT"]}
        )

    # channel model learned from OCR-2-vs-GT pairs; a deterministic 25 %
    # content-hash sample bounds the O(len²) edit alignments and is
    # independent of the block layout (the model is a rate estimate)
    confusions = learn_confusions(wide_pass(to_pairs), sample_rate=0.25)

    # learned re-ranker + decision maker over candidate features
    # (rank/distance/frequency/peer agreement — the reference's
    # profiler-free rrFeatures/dmFeatures subset, data/config.json:
    # 15-215) trained on every GT'd line; train_ranker's model-selection
    # gate falls back to the fixed vote unless the learned decision
    # beats it on the training sample
    ranker = train_ranker(wide_pass(to_train), lexicon, confusions, sample_rate=1.0)

    # line-level correction as tasks (cursor matcher + nOCR peer vote
    # per token; no token-level shuffle)
    fixed = correct_lines(wide_pass(to_correct), lexicon, confusions, ranker=ranker)

    write_stats = None
    if out_dir is not None:
        # the corrected corpus is a STAGE OUTPUT (north_rule: every
        # stage per-partition manifested); materialize the text-only
        # lines once so the sink and the CER reduce share one
        # execution of the correction stage
        from ..state.manifest import path_fingerprint, write_resumable

        fixed = fixed.materialize()
        write_stats = write_resumable(
            fixed,
            out_dir,
            key="doc_id",
            stage="postcorrect",
            input_fingerprint=path_fingerprint(f"{sf_dir}/documents.parquet"),
        )

    out = cer_reduce(fixed.map_batches(_chain_cer_partials, batch_format="pyarrow"))
    stage_source = [_CER_STAGES[c] for c in out["source"]]
    out["stage"] = [stage for stage, _ in stage_source]
    out["source"] = [source for _, source in stage_source]
    out = out[["stage", "source", "char_errors", "gt_chars", "char_error_rate"]]
    if write_stats is not None:
        out.attrs["write"] = write_stats
    return out
