"""The full OCR lifecycle over page MEDIA — the Ray-Data restatement of
the reference's aio super-pipeline (ocrd_cis/aio/aio.py: unpack → per
OCR engine recognize → align → profile/post-correct → stats):

    page images
      → per-OCR-source degradation (seeded noise; the "two scanners")
      → preprocessing (binarize → despeckle)          [stateless tasks]
      → line segmentation (recursive XY cut)          [stateless tasks]
      → line recognition                              [stateless tasks]
      → n-way join of OCR sources + GT                [page-local]
      → per-source CER                                 [partial+reduce]
      → post-correction of the worst source           [tasks, per-worker state]
      → CER after correction                           [partial+reduce]

Both engine channels run fused in ONE task per pages batch and the
per-line source join happens page-locally inside it (the GT text rides
on the page row), so the chain moves media exactly once (render → OCR
tasks) and text never shuffles. Every stage runs as plain Ray Data
tasks on the session's warm workers: the chain starts no processes per
run, and no stage holds a CPU that the tasks downstream of it need.
GT lines are derived from the same deterministic page layout, so
CER-before/after has exact goldens.
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


def synth_pages(sf_dir: str, *, n_blocks: int | None = None, carry_text: bool = False):
    """documents → page-image media rows (doc_id, span_id, media_ref,
    features, pixels[, text]).

    The text-only input is repartitioned BEFORE the media render: a
    single-file parquet read is one task, so without this the rendered
    media lands in a handful of giant blocks and every downstream map
    stage is starved of parallelism. The exchange moves only (doc_id,
    text) rows — cheap — and buys N balanced media blocks.

    ``carry_text=True`` keeps the source text on the page row so a
    downstream stage can derive the GT lines page-locally (the chain's
    zero-shuffle wide path) — the text is small next to the pixels and
    rides along for free."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    if n_blocks is None:
        # 6x CPU: the fused OCR stage is CPU-bound at ~15 ms/page, so
        # finer blocks cost nothing in overhead but remove the 2-wave
        # straggler tail on the OCR stage (measured 11.8 s @ 2xCPU ->
        # 9.9 s @ 6xCPU for the OCR stage at sf0.1/32 cpus)
        n_blocks = max(16, 6 * int(ray.cluster_resources().get("CPU", 8)))
    ds = ds.repartition(n_blocks)

    def render(t: pa.Table) -> pa.Table:
        out = {"doc_id": [], "span_id": [], "media_ref": [], "features": [], "pixels": []}
        texts = t["text"].to_pylist()
        for did, text in zip(t["doc_id"].to_pylist(), texts):
            img = compose_page(page_lines(text))
            out["doc_id"].append(str(did))
            out["span_id"].append("page-0")
            out["media_ref"].append(f"media/{did}/page-0.bin")
            out["features"].append("")
            out["pixels"].append(encode_gray(img))
        cols = {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "span_id": pa.array(out["span_id"], pa.string()),
            "media_ref": pa.array(out["media_ref"], pa.string()),
            "features": pa.array(out["features"], pa.string()),
            "pixels": pa.array(out["pixels"], pa.large_binary()),
        }
        if carry_text:
            cols["text"] = pa.array([s or "" for s in texts], pa.string())
        return pa.table(cols)

    return ds.map_batches(render, batch_format="pyarrow")


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
    """
    import ray
    from ray.data.aggregate import Sum

    from ..shuffle import weighted_ranges

    if n_partitions is None:
        n_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))

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

    def __init__(self, *, emit_wide: bool = True, sidecar_root: str | None = None):
        from ..stages.recognize import Recognizer

        if emit_wide is not True:
            raise ValueError("DualChannelOCR emits the wide line frame only (emit_wide=True)")
        # text_only: the chain consumes line TEXT only — word/glyph
        # polygon assembly is per-char Python dict churn it never reads
        self.rec = Recognizer(text_only=True)
        self.sidecar_root = sidecar_root

    def _hydrate(self, batch: pa.Table) -> pa.Table:
        """Sidecar mode: the page rows arrive pixel-less (media_ref
        only); fetch the payloads HERE — after every exchange — with
        per-batch ref dedup. Inline mode is a no-op."""
        if self.sidecar_root is None or "pixels" in batch.column_names:
            return batch
        from ..state.mediastore import _store_for

        store = _store_for(self.sidecar_root)
        refs = batch["media_ref"].to_pylist()
        blobs = store.get_many(refs)
        return batch.append_column(
            "pixels", pa.array([blobs[r] for r in refs], pa.large_binary())
        )

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
        """Zero-shuffle wide path: the page row carries its source text
        (synth_pages carry_text=True), the GT lines derive from it with
        the SAME page_lines layout that rendered the page, and both OCR
        channels run in this call — so the (doc_id, line_no) join of
        the sources is a page-LOCAL dict merge here. Emits one row per
        (doc_id, line_no) with one text column per source: the union of
        GT and recognized line numbers, absent cells "".
        """
        batch = self._hydrate(batch)
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


def _ocr_wide_batch(batch: pa.Table, *, sidecar_root: str | None) -> pa.Table:
    """Task form of the fused OCR stage (``DualChannelOCR``)."""
    return DualChannelOCR(sidecar_root=sidecar_root)(batch)


_cer_partials_wide = cer_partials_wide  # the name perfbench's traced replay imports


def run_ocr_chain(
    sf_dir: str,
    *,
    out_dir: str | None = None,
    media_sidecar: str | None = None,
):
    """Full chain; returns a summary frame
    (stage, source, char_errors, gt_chars, char_error_rate) with one
    'raw' row per OCR source and one 'postcorrected' row for OCR-2
    (the noisier engine — the reference corrects the aligned master).

    ``media_sidecar``: root of a content-addressed sidecar store
    (state/mediastore.py). When set, the rendered pixels are
    externalized right after the render — page rows carry only the
    ``cas://`` ref, so the materialize and any rebalance exchange move
    O(refs) rows — and the OCR task hydrates them lazily per batch.
    The default (None) keeps inline payloads: on this corpus the media
    is written + read exactly once either way, so inline avoids the
    extra blob round-trip; sidecar wins as soon as more than one stage
    or run consumes the same media, or an exchange would move it.

    Shuffle budget: ZERO media-or-line exchanges. The page row carries
    its GT text, both OCR channels run fused per task, and the wide
    (doc_id, line_no) frame is assembled page-locally inside the OCR
    task (DualChannelOCR). CER, confusion learning, ranker
    training and line correction all run row-locally over the
    materialized wide frame. (The gated rebalance pays one media
    exchange ONLY when the realized block-byte spread exceeds its
    threshold.)

    Execution: every stage is a plain Ray Data task on the session's
    warm workers — OCR builds its (cheap) DualChannelOCR per batch,
    correction rebuilds its LineCorrector at most once per worker
    (``postcorrect.correct_lines``). No actor pool: the chain starts no
    processes per run and finishes on a 1-CPU session.
    """
    from functools import partial

    # lexicon from the corpus vocabulary (the reference's language
    # dict), built distributed + top-V truncated — never a full-corpus
    # driver scan (textops.token_frequencies). Kicked off in a driver
    # THREAD so its (text-only) Dataset job overlaps the media-heavy
    # OCR phase — the two jobs share the Ray scheduler, the result is
    # order-independent. The overlap pays even with task-only stages:
    # run one after the other (96 pages, 2 Ray CPUs on a 1-vCPU VM),
    # the chain took ~14 % more CPU and ~0.5 s more wall time.
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd

    from ..stages.textops import token_frequencies

    # build the Dataset on the MAIN thread (read_parquet's lazy fsspec
    # import is not thread-safe in Ray 2.49); only the execution runs in
    # the worker thread
    _docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    _threads = ThreadPoolExecutor(max_workers=2)
    try:
        lex_future = _threads.submit(lambda: token_frequencies(_docs, top_v=200_000).to_dict())

        # render pages ONCE and share across engine channels (pages are the
        # expensive media payload; the object store holds them for both);
        # the rebalance re-partitions by byte-weighted doc_id ranges so the
        # fan-out sees equal-byte blocks even under media-size skew
        pages = synth_pages(sf_dir, carry_text=True)
        if media_sidecar is not None:
            from ..state.mediastore import externalize_media

            pages = externalize_media(pages, media_sidecar)
        pages, _ = rebalance_pages(pages)
        # ZERO-shuffle wide frame: the page row carries its GT text, both
        # OCR channels run fused in one task, and the (doc_id, line_no)
        # source join happens page-locally inside it, so the chain pays no
        # bucketed pivot of long-form variant lines (~7 s of pure exchange
        # at sf0.1/32cpus: the pivot compute is negligible, the all-to-all
        # is not).
        wide = pages.map_batches(
            partial(_ocr_wide_batch, sidecar_root=media_sidecar),
            batch_format="pyarrow",
            batch_size=8,
        ).materialize()

        # raw CER over the (materialized) wide frame runs in a thread too:
        # it has no dependency on the correction path and overlaps the
        # confusion/ranker training jobs below
        cer_raw_future = _threads.submit(
            lambda: cer_reduce(
                wide.map_batches(
                    partial(cer_partials_wide, pairs=[("OCR-1", "GT"), ("OCR-2", "GT")]),
                    batch_format="pyarrow",
                )
            ).assign(stage="raw")
        )

        lexicon = lex_future.result()

        # channel model learned from OCR-2-vs-GT pairs — row-local over
        # wide, SAMPLE-BOUND: the confusion estimate saturates after a few
        # thousand aligned pairs, so cap the O(len²) edit alignments at 64
        # differing lines per batch instead of paying one per corpus line
        from ..stages.postcorrect import correct_lines, learn_confusions, train_ranker

        def to_pairs(t: pa.Table) -> pa.Table:
            return pa.table({"text": t["OCR-2"], "gt_text": t["GT"]})

        # deterministic 25% content-hash sample: layout-invariant (rerun ==
        # rerun, any block layout), bounded alignment cost; the channel
        # model is a rate estimate, so subsampling is consistent.
        confusions = learn_confusions(
            wide.map_batches(to_pairs, batch_format="pyarrow"), sample_rate=0.25
        )

        # learned re-ranker + decision maker over candidate features
        # (rank/distance/frequency/peer agreement — the reference's
        # profiler-free rrFeatures/dmFeatures subset, data/config.json:
        # 15-215) trained on GT'd lines; train_ranker's model-selection
        # gate falls back to the fixed vote unless the learned decision
        # beats it on the training sample
        def to_train(t: pa.Table) -> pa.Table:
            return pa.table(
                {"text": t["OCR-2"], "peer_text": t["OCR-1"], "gt_text": t["GT"]}
            )

        # full-corpus examples: the per-worker triple cache makes extraction
        # scale with DISTINCT (token, peer, gt) triples, not line count, and
        # marginal hard examples are exactly what the decision maker needs
        ranker = train_ranker(
            wide.map_batches(to_train, batch_format="pyarrow"),
            lexicon,
            confusions,
            sample_rate=1.0,
        )

        # line-level correction as tasks (cursor matcher + nOCR peer vote
        # per token; no token-level shuffle)
        def to_correct(t: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": t["doc_id"], "line_no": t["line_no"], "text": t["OCR-2"],
                 "peer_text": t["OCR-1"], "GT": t["GT"]}
            )

        fixed = correct_lines(
            wide.map_batches(to_correct, batch_format="pyarrow"), lexicon, confusions, ranker=ranker
        )

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

        def fixed_wide(t: pa.Table) -> pa.Table:
            return pa.table({"OCR-2": t["corrected_text"], "GT": t["GT"]})

        cer_fixed = cer_reduce(
            fixed.map_batches(fixed_wide, batch_format="pyarrow").map_batches(
                partial(cer_partials_wide, pairs=[("OCR-2", "GT")]), batch_format="pyarrow"
            )
        ).assign(stage="postcorrected")

        cer_raw = cer_raw_future.result()
    finally:
        # on a raising stage, cancel PENDING futures and drop the
        # executor so nothing new starts; an already-RUNNING Dataset
        # job cannot be cancelled and drains in the background — its
        # thread exits with the job, but a retry launched immediately
        # after the exception may briefly share the scheduler with it
        _threads.shutdown(wait=False, cancel_futures=True)
    out = pd.concat([cer_raw, cer_fixed], ignore_index=True)[
        ["stage", "source", "char_errors", "gt_chars", "char_error_rate"]
    ]
    if write_stats is not None:
        out.attrs["write"] = write_stats
    return out
