"""The full OCR lifecycle over page MEDIA — the Ray-Data restatement of
the reference's aio super-pipeline (ocrd_cis/aio/aio.py: unpack → per
OCR engine recognize → align → profile/post-correct → stats):

    document text
      → page render                                   ┐
      → per-OCR-source degradation (seeded noise;     │ one task per
        the "two scanners")                           │ CPU over a
      → preprocessing (binarize → despeckle)          │ (pages, h, w)
      → line segmentation (recursive XY cut)          │ stack, both
      → line recognition                              │ channels
      → n-way join of OCR sources + GT (page-local)   │
      → per-batch token counts, per-line confusions   │
        and ranker triples                            ┘
      → lexicon, channel model (confusions) and       [driver, over the
        ranker training                                materialized blocks]
      → post-correction of the worst source           [tasks, per-worker state]
      → per-source CER before and after correction    [partials + driver sum]

The render runs inside the OCR task, so page media never leaves it:
the rows that cross the object store are (doc_id, text) rows in and
text lines, with their statistics, out. ``run_ocr_chain`` makes two
Dataset executions and no exchange: the read splits the (doc_id, text)
rows into whole waves of one block per CPU inside the read task, and
the statistics between the two executions are reduced on the driver
from the materialized OCR output. Every stage runs as plain Ray
Data tasks on the session's warm workers: the chain starts no
processes per run, and no stage holds a CPU that the tasks downstream
of it need. GT lines are derived from the same deterministic page
layout, so CER-before/after has exact goldens.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.corpus_io import n_bundles, session_cpus
from ..sources.media import encode_gray, render_line
from ..stages.metrics import cer_partials_wide, cer_reduce
from ..util import stable_hash64

LINES_PER_PAGE = 6
DEGRADE_SEED = 42
WORDS_PER_LINE = 8
# Each task pays a fixed Ray cost that outweighs the work of a few
# hundred lines or a few pages, so the OCR execution and the pass over
# the materialized wide frame (correction + CER) each run in whole
# waves of one task per CPU (``n_bundles``), as few as keep a task
# under the caps below; no result depends on the block layout. Too few
# waves leave a straggler tail: the per-page OCR stage that preceded
# the page stack took 11.8 s with 2xCPU blocks against 9.9 s with 6xCPU
# (sf0.1, 32 CPUs). Too many tasks cost more:
# at sf0.1 on 4 CPUs, the OCR execution took 13.2 s in 316 tasks of 16
# pages, 7.6 s in 80 of 64 and 7.1 s in 20 of 250 (with 19 % more
# peak memory).
# most pages per OCR task: a channel holds a (pages, h, w) uint8 stack,
# about 100 KB a page, plus a few stack-sized temporaries
OCR_BATCH_PAGES = 64
# most wide-frame lines per task of the correction + CER pass
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
    stage can derive the GT lines page-locally (``DualChannelOCR``).
    Only perfbench's traced replay renders page rows (``synth_pages``):
    the chain's OCR task renders its pages straight into the page stack."""
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


def _text_bundles(sf_dir: str):
    """(doc_id, text) rows of ``documents.parquet`` in page bundles;
    returns (dataset, batch size).

    The read asks for one block per bundle (``n_bundles`` with cap
    ``OCR_BATCH_PAGES``), so Ray splits the rows inside the read task
    and no exchange runs. The testdata files hold one row group each,
    so the reader alone cannot spread them over tasks. The split makes
    blocks of ``n // k`` and ``n // k + 1`` rows; batches of ``n // k``
    rows keep Ray from merging two short blocks into one task."""
    import pyarrow.dataset as pds
    import ray.data as rd

    path = f"{sf_dir}/documents.parquet"
    n = pds.dataset(path, format="parquet").count_rows()
    k = n_bundles(n, OCR_BATCH_PAGES)
    ds = rd.read_parquet(path, columns=["doc_id", "text"], override_num_blocks=k)
    return ds, max(1, n // k)


def _text_rows(sf_dir: str):
    """(doc_id, text) rows of ``documents.parquet``, repartitioned into
    6 blocks per CPU (at least 16), for ``synth_pages``.

    Only perfbench's traced replay reaches this (through
    ``synth_pages``); the chain and the cutter read through
    ``_text_bundles``, which needs no exchange."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.repartition(max(16, 6 * session_cpus()))


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
        n_partitions = max(8, session_cpus())

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


def degrade_stack(stack: np.ndarray, hs: np.ndarray, ws: np.ndarray, doc_ids: list[str], source: str, noise: int, erode: float, seed: int) -> np.ndarray:
    """Seeded per-(doc, source) degradation of a white-padded uint8 page
    stack — the scanner/engine variance each OCR file group carries in
    the reference: stroke erosion (random ink pixels dropped at rate
    ``erode``), which is what actually flips glyph classifications,
    plus ``noise`` salt specks in the background.

    Each page draws from its own ``default_rng`` stream, seeded by its
    doc_id and ``source``, in the order a page alone would: one uniform
    per ink pixel (row-major), then 8x``noise`` candidate speck rows and
    columns inside the page's own bounds. A candidate whose 3x3
    neighbourhood is white after erosion is placed unless an earlier
    placed speck lies within Chebyshev distance 1 (a placed speck
    blackens its cell); each page keeps its first ``noise`` placements.
    A dense page may lack ``noise`` isolated white sites; the bounded
    draw gives up instead of spinning."""
    out = stack.copy()
    n_pages, height, width = out.shape
    rngs = [np.random.default_rng((stable_hash64(f"{did}/{source}") ^ seed) & 0xFFFFFFFF) for did in doc_ids]
    if erode > 0:
        # row-major: page by page, each page's ink in its own order
        ink = np.flatnonzero(out < 128)
        per_page = np.diff(np.searchsorted(ink, np.arange(n_pages + 1) * (height * width)))
        u = np.concatenate([rng.random(n) for rng, n in zip(rngs, per_page.tolist())] or [np.zeros(0)])
        out.reshape(-1)[ink[u < erode]] = 255
        del ink, u  # stack-sized: free them before the speck pass
    if noise <= 0 or n_pages == 0:
        return out
    k = 8 * noise
    ys = np.stack([rng.integers(1, h - 1, size=k) for rng, h in zip(rngs, hs.tolist())]).ravel()
    xs = np.stack([rng.integers(1, w - 1, size=k) for rng, w in zip(rngs, ws.tolist())]).ravel()
    page = np.repeat(np.arange(n_pages), k)
    ok = np.ones(len(page), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ok &= out[page, ys + dy, xs + dx] == 255
    page, ys, xs = page[ok], ys[ok], xs[ok]
    # a candidate with no other candidate within distance 1 is placed;
    # only the few that have one run the sequential rule
    key = (page * height + ys) * width + xs
    offsets = [dy * width + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    sort = np.argsort(key, kind="stable")
    order = key[sort]
    near = np.zeros(len(key), np.int64)
    for dy in (-1, 0, 1):
        near[sort] += np.searchsorted(order, order + dy * width + 1, "right") - np.searchsorted(
            order, order + dy * width - 1, "left"
        )
    placed = near == 1  # only itself
    occupied: set[int] = set()
    for i in np.flatnonzero(~placed).tolist():
        c = int(key[i])
        if not any(c + off in occupied for off in offsets):
            occupied.add(c)
            placed[i] = True
    # each page's first `noise` placements
    rank = np.cumsum(placed)
    page_start = np.searchsorted(page, np.arange(n_pages))
    before = np.concatenate([[0], rank])[page_start][page]
    keep = placed & (rank - before <= noise)
    out[page[keep], ys[keep], xs[keep]] = 0
    return out


def degrade_batch(t: pa.Table, *, source: str, noise: int, erode: float, seed: int = DEGRADE_SEED) -> pa.Table:
    """``degrade_stack`` over the page rows of ``t`` (raw-gray ``pixels``)."""
    from ..sources.media import decode_gray
    from ..stages.image_ops import stack_pages

    stack, hs, ws = stack_pages([decode_gray(b) for b in t["pixels"].to_pylist()])
    stack = degrade_stack(stack, hs, ws, t["doc_id"].to_pylist(), source, noise, erode, seed)
    cols = {n: t[n] for n in t.column_names}
    cols["pixels"] = pa.array(
        [encode_gray(p[:h, :w]) for p, h, w in zip(stack, hs.tolist(), ws.tolist())], pa.large_binary()
    )
    return pa.table(cols)


_CHANNEL_CONFIGS = (
    # (source, speck noise, stroke erosion)
    ("OCR-1", 25, 0.15),
    ("OCR-2", 60, 0.32),
)


def _channel_lines(stack: np.ndarray, hs: np.ndarray, ws: np.ndarray, doc_ids: list[str], source: str, noise: int, erode: float) -> list[list[str]]:
    """One OCR channel over a white-padded page stack: degrade →
    binarize → despeckle → segment → recognize, stack passes with no
    codec between them; returns each page's line texts in reading
    order. Every line of the batch is matched against the glyph
    templates in one matmul (``recognize.match_lines``)."""
    from ..stages.image_ops import binarize_stack, despeckle_stack
    from ..stages.recognize import match_lines
    from ..stages.segment import segment_stack

    s = degrade_stack(stack, hs, ws, doc_ids, source, noise, erode, DEGRADE_SEED)
    s = binarize_stack(s, hs, ws)
    s, _ = despeckle_stack(s)
    boxes = segment_stack(s, hs, ws)
    crops = [s[p, y0:y1, x0:x1] for p, page_boxes in enumerate(boxes) for y0, y1, x0, x1 in page_boxes]
    texts = iter([text for text, _, _ in match_lines(crops)])
    return [[next(texts) for _ in page_boxes] for page_boxes in boxes]


def ocr_pages(doc_ids: list[str], texts: list, stack: np.ndarray, hs: np.ndarray, ws: np.ndarray) -> pa.Table:
    """Both OCR channels (``_channel_lines``) over a white-padded stack
    of rendered pages (``image_ops.stack_pages``) → the wide line frame
    (doc_id, line_no, OCR-1, OCR-2, GT).

    The GT lines derive from the page's text with the SAME
    ``page_lines`` layout that rendered it, so the (doc_id, line_no)
    join of the sources is a page-LOCAL dict merge. One row per
    (doc_id, line_no): the union of GT and recognized line numbers,
    absent cells ""."""
    srcs = [c[0] for c in _CHANNEL_CONFIGS]
    chan_maps: dict[str, dict[str, dict[int, str]]] = {s: {} for s in srcs}
    if len(stack):
        for source, noise, erode in _CHANNEL_CONFIGS:
            per_doc = chan_maps[source]
            for did, lines in zip(doc_ids, _channel_lines(stack, hs, ws, doc_ids, source, noise, erode)):
                per_doc.setdefault(did, {}).update(enumerate(lines))

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


class DualChannelOCR:
    """``ocr_pages`` over page rows (``render_pages``: raw-gray
    ``pixels`` plus the page's ``text``).

    The chain does not use this: its OCR task renders the pages and
    hands them to ``ocr_pages`` as arrays (``_ocr_wide_batch``).
    perfbench's traced replay builds one with ``emit_wide=True`` and
    replaces ``rec`` with a wrapped callable; ``ocr_pages`` recognizes
    through ``recognize.match_lines`` and never calls ``rec``, so the
    replay's recognize span stays empty."""

    def __init__(self, *, emit_wide: bool = True):
        from ..stages.recognize import Recognizer

        if emit_wide is not True:
            raise ValueError("DualChannelOCR emits the wide line frame only (emit_wide=True)")
        self.rec = Recognizer(text_only=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.media import decode_gray

        from ..stages.image_ops import stack_pages

        stack = stack_pages([decode_gray(b) for b in batch["pixels"].to_pylist()])
        return ocr_pages(batch["doc_id"].to_pylist(), batch["text"].to_pylist(), *stack)


def _ocr_wide_batch(batch: pa.Table) -> pa.Table:
    """The chain's OCR task: (doc_id, text) rows → rendered pages → the
    wide line frame (``ocr_pages``), plus what the chain's statistics
    need (``_with_statistics``). The page media lives and dies in this
    task."""
    from ..stages.image_ops import stack_pages

    texts = batch["text"].to_pylist()
    stack = stack_pages([compose_page(page_lines(t)) for t in texts])
    return _with_statistics(ocr_pages([str(d) for d in batch["doc_id"].to_pylist()], texts, *stack), batch)


def _with_statistics(wide: pa.Table, batch: pa.Table) -> pa.Table:
    """The wide frame of the (doc_id, text) rows ``batch`` with three
    list<struct> columns for ``_statistics``:

    - ``lexicon``: the batch's (w, c) token counts over the full
      document texts (``textops._token_count_partials``), on the first
      row (every page has at least one line row);
    - ``confusions``: each line's (OCR-2, GT) character confusions
      (``postcorrect.line_confusions``), under a deterministic 25 %
      content-hash sample that bounds the O(len²) edit alignments and
      does not depend on the block layout (the model is a rate
      estimate);
    - ``triples``: each line's (OCR-2 token, OCR-1 peer, GT token)
      triples (``postcorrect.line_triples``), in-lexicon keys included."""
    from ..stages.postcorrect import line_confusions, line_triples
    from ..stages.textops import _token_count_partials

    counts = _token_count_partials(batch, col="text")
    at_first = [0] + [counts.num_rows] * wide.num_rows
    lexicon = pa.ListArray.from_arrays(pa.array(at_first, pa.int32()), counts.to_struct_array().combine_chunks())
    ocr1, ocr2, gt = (wide[c].to_pylist() for c in ("OCR-1", "OCR-2", "GT"))
    return (
        wide.append_column("lexicon", lexicon)
        .append_column("confusions", line_confusions(ocr2, gt, 0.25))
        .append_column("triples", line_triples(ocr2, ocr1, gt, 1.0))
    )


def _wide_frame(sf_dir: str):
    """The materialized OCR execution: ``_ocr_wide_batch`` over the page
    bundles of ``documents.parquet`` (``_text_bundles``)."""
    texts, pages_per_batch = _text_bundles(sf_dir)
    return texts.map_batches(_ocr_wide_batch, batch_format="pyarrow", batch_size=pages_per_batch).materialize()


def _statistics(wide) -> tuple[dict, dict, np.ndarray | None]:
    """(lexicon, confusions, ranker) from the statistics columns of the
    materialized wide frame (``_with_statistics``). The driver reads the
    blocks once (no Dataset execution) and reduces them as
    ``token_frequencies``, ``learn_confusions`` and ``train_ranker`` do:

    - lexicon: the corpus vocabulary (the reference's language dict),
      top-V truncated (``textops.reduce_token_counts``);
    - confusions: the channel model learned from the sampled
      OCR-2-vs-GT pairs (``postcorrect.reduce_confusions``);
    - ranker: the learned re-ranker + decision maker over candidate
      features (rank/distance/frequency/peer agreement — the
      reference's profiler-free rrFeatures/dmFeatures subset,
      data/config.json: 15-215) trained on every GT'd line; its
      model-selection gate falls back to the fixed vote (None) unless
      the learned decision beats it (``postcorrect.reduce_ranker``)."""
    from ..stages.postcorrect import entry_counts, list_rows, reduce_confusions, reduce_ranker
    from ..stages.textops import reduce_token_counts

    lex, conf, trips = [], [], []
    for block in wide.iter_batches(batch_format="pyarrow", batch_size=None):
        lex.append(list_rows(block["lexicon"]))
        conf.append(entry_counts(block["confusions"], ["src", "dst"]))
        trips.append(entry_counts(block["triples"], ["key", "peer", "gt"]))
    lexicon = reduce_token_counts(lex, top_v=200_000).to_dict()
    confusions = reduce_confusions(conf)
    return lexicon, confusions, reduce_ranker(trips, lexicon, confusions)


_cer_partials_wide = cer_partials_wide  # the name perfbench's traced replay imports

# (stage, source) of each CER column of ``_chain_cer_partials``
_CER_STAGES = {
    "OCR-1": ("raw", "OCR-1"),
    "OCR-2": ("raw", "OCR-2"),
    "corrected": ("postcorrected", "OCR-2"),
}


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

    Two Dataset executions and no exchange:

    1. pages → wide frame + statistics: the read splits the (doc_id,
       text) rows into whole waves of one bundle per CPU, each of at
       most ``OCR_BATCH_PAGES`` pages (``_text_bundles``); one task per
       bundle renders them, runs both OCR channels over the page stack
       and adds the statistics columns (``_ocr_wide_batch``), and the
       (doc_id, line_no, OCR-1, OCR-2, GT, lexicon, confusions,
       triples) frame is materialized. The driver then reads its blocks
       once and derives the lexicon, the confusions and the ranker
       (``_statistics``);
    2. line correction and every CER partial (raw OCR-1, raw OCR-2,
       corrected OCR-2) in one pass over the wide frame, in whole waves
       of one bundle per CPU, each of at most ``WIDE_BUNDLE_LINES``
       lines (``n_bundles``), summed by one ``cer_reduce``.

    With ``out_dir``, the corrected lines are materialized and written
    as a resumable stage output first.

    Every stage is a plain Ray Data task on the session's warm workers:
    the OCR task needs no state beyond the per-process template bank,
    and correction rebuilds its LineCorrector at most once per worker
    (``postcorrect.correct_lines``).
    No actor pool: the chain starts no processes per run and finishes on
    a 1-CPU session.
    """
    from ..stages.postcorrect import correct_lines

    wide = _wide_frame(sf_dir)
    lexicon, confusions, ranker = _statistics(wide)

    n_lines = wide.count()
    bundle = max(1, -(-n_lines // n_bundles(n_lines, WIDE_BUNDLE_LINES)))

    def to_correct(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "line_no": t["line_no"], "text": t["OCR-2"],
             "peer_text": t["OCR-1"], "GT": t["GT"]}
        )

    # line-level correction as tasks (cursor matcher + nOCR peer vote
    # per token; no token-level shuffle)
    fixed = correct_lines(
        wide.map_batches(to_correct, batch_format="pyarrow", batch_size=bundle), lexicon, confusions, ranker=ranker
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
