"""Image preprocessing stages: binarize, deskew, denoise, clip, dewarp,
validity predicates — pure-numpy reimplementations of the reference's
ocropy-derived algorithms, packaged as stateless ``map_batches`` UDFs
over a media-line table.

Table schema (FIXTURES.md F3):
    doc_id, span_id, media_ref, features (comma-list lineage tag),
    width:int32, height:int32, pixels:large_binary (raw-gray codec)

Feature lineage follows the reference exactly: each step appends its
tag to the comma-separated ``features`` string
(binarize.py:196-223 appends 'binarized', deskew.py:138-152
'deskewed', ...); consumers select/filter on the tags
(binarize.py:123-124 feature_filter='binarized',
segment.py:234-235 feature_selector='binarized').

Algorithms (reimplemented from the reference's published semantics, not
copied):
- normalize: any uint8 image -> float grayscale [0,1], bg≈1 fg≈0
  (pil2array semantics, ocropy/common.py:21-53)
- binarize: global Otsu or nlbin-style percentile flatten + threshold
  (ocropy/common.py:204-247, binarize.py:33-67)
- deskew: projection-profile variance maximization over rotation
  candidates (estimate_skew_angle, ocropy/common.py:93-140)
- denoise/despeckle: connected-component size filter
  (remove_noise, ocropy/common.py:1153-1169)
- borderclean/clip: components confined to margins or intruding from
  siblings painted to background (common.py:251-297, clip.py:218-267)
- dewarp: center-line normalization — column centroids smoothed, rows
  resampled around the centerline (lineest.py:60-87)
- predicates: check_line size/inversion/CC-count plausibility
  (common.py:300-327)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.media import decode_gray, encode_gray

# ---------------------------------------------------------------------------
# numpy kernels


def normalize_gray(img: np.ndarray) -> np.ndarray:
    """uint8 -> float [0,1]; ensures background is white (≈1) by
    inverting when the image is mostly dark (pil2array + inversion
    check semantics, common.py:21-53, 330-354)."""
    a = img.astype(np.float64) / 255.0
    if a.mean() < 0.5:
        a = 1.0 - a
    return a


def otsu_threshold(img: np.ndarray) -> float:
    """Classic Otsu over a 256-bin histogram of a float [0,1] image."""
    hist, edges = np.histogram(img, bins=256, range=(0.0, 1.0))
    return float(_otsu_rows(hist[None].astype(np.float64), edges)[0])


def _otsu_rows(hists: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Otsu threshold of every row of a (n, bins) float64 histogram
    array: the cumulative sums run along each row, so every row gets
    the same floats as a histogram of its own (0.5 for an empty one)."""
    total = hists.sum(axis=1)
    centers = (edges[:-1] + edges[1:]) / 2
    w0 = np.cumsum(hists, axis=1)
    w1 = total[:, None] - w0
    m0 = np.cumsum(hists * centers, axis=1)
    mt = m0[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (mt - m0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1
    return np.where(total == 0, 0.5, centers[np.argmax(between, axis=1)])


def stack_pages(pages: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint8 pages of any sizes -> (stack, heights, widths): one
    (pages, max h, max w) array, each page top-left and padded with
    white (255). The stack kernels below treat white padding as
    background and keep it white."""
    hs = np.array([p.shape[0] for p in pages], np.int64)
    ws = np.array([p.shape[1] for p in pages], np.int64)
    stack = np.full((len(pages), int(hs.max(initial=0)), int(ws.max(initial=0))), 255, np.uint8)
    for out, page in zip(stack, pages):
        out[: page.shape[0], : page.shape[1]] = page
    return stack, hs, ws


def _page_counts(stack: np.ndarray, hs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(black, white) pixel counts of every page of a white-padded uint8
    stack, padding excluded; a page is binary iff they sum to h·w.
    Page by page, so no stack-sized mask: black is what ``count_nonzero``
    leaves over, white needs one page-sized mask at a time."""
    flat = stack.reshape(len(stack), -1)
    n_pad = flat.shape[1] - hs * ws
    black = flat.shape[1] - np.array([np.count_nonzero(row) for row in flat], np.int64)
    white = np.array([np.count_nonzero(row == 255) for row in flat], np.int64)
    return black, white - n_pad


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """True count of every row of a 2-D bool array (a loop of flat
    ``count_nonzero`` calls is several times faster than ``axis=1``)."""
    return np.array([np.count_nonzero(row) for row in mask], np.int64)


def binarize_stack(stack: np.ndarray, hs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Global Otsu binarization of every page of a white-padded uint8
    stack -> uint8 {0,255}, padding white (binarize.py:41-48
    'global'/'otsu' methods).

    Per page, exactly as on the page alone: a page whose mean is below
    127.5 is inverted first (the inversion check), and its threshold
    comes from a 256-bin histogram of its own pixels, padding excluded
    (a binary page's histogram is its black and white counts). v/255
    falls in histogram bin v exactly (v·256/255 is never an integer for
    0<v<255), so the histogram counts the raw bytes, and ``a > t`` with
    ``a = w/255`` is ``w > floor(255·t)`` for a byte ``w``."""
    n = len(stack)
    black, white = _page_counts(stack, hs, ws)
    binary = black + white == hs * ws
    sums = 255 * white
    for p in np.flatnonzero(~binary):
        sums[p] = stack[p, : hs[p], : ws[p]].sum(dtype=np.int64)
    inv = 2 * sums < 255 * hs * ws
    w = stack
    if inv.any():
        w = stack.copy()
        w[inv] = 255 - w[inv]
    hists = np.zeros((n, 256))
    hists[:, 0] = np.where(inv, white, black)
    hists[:, 255] = np.where(inv, black, white)
    for p in np.flatnonzero(~binary):
        hists[p] = np.bincount(w[p, : hs[p], : ws[p]].ravel(), minlength=256)
    t = _otsu_rows(hists, np.linspace(0.0, 1.0, 257))
    # t is a bin center (or 0.5), so 0 <= floor(255·t) <= 254
    out = (w > np.floor(t * 255.0).astype(np.uint8)[:, None, None]).view(np.uint8)
    out *= np.uint8(255)  # in place: a fresh stack-sized product costs 3x the compare
    for p in np.flatnonzero(inv):  # an inverted page's padding turned black
        out[p, hs[p] :, :] = 255
        out[p, :, ws[p] :] = 255
    return out


def binarize_global(img: np.ndarray) -> np.ndarray:
    """Global Otsu binarization -> uint8 {0,255}: ``binarize_stack`` over
    one page for uint8 input, the float histogram path otherwise."""
    if img.dtype == np.uint8:
        return binarize_stack(img[None], np.array(img.shape[:1]), np.array(img.shape[1:]))[0]
    a = normalize_gray(img)
    t = otsu_threshold(a)
    return np.where(a > t, 255, 0).astype(np.uint8)


def binarize_nlbin(img: np.ndarray, *, lo: float = 5.0, hi: float = 90.0, block: int = 16) -> np.ndarray:
    """nlbin-style: flatten by a coarse local whitelevel estimate, then
    percentile thresholds (estimate_local_whitelevel + estimate_thresholds,
    common.py:69-89,173-197 — block-pooled percentile instead of the
    reference's scipy percentile filter, same normalize-then-threshold
    shape)."""
    a = normalize_gray(img)
    h, w = a.shape
    # coarse local white level: per-block high percentile, upsampled
    bh, bw = -(-h // block), -(-w // block)  # ceil
    padded = np.pad(a, ((0, bh * block - h), (0, bw * block - w)), mode="edge")
    blocks = padded.reshape(bh, block, bw, block)
    white = np.percentile(blocks, 80, axis=(1, 3))
    white = np.repeat(np.repeat(white, block, axis=0), block, axis=1)[:h, :w]
    flat = a / np.maximum(white, 1e-3)
    flat = np.clip(flat, 0, 1)
    lo_v, hi_v = np.percentile(flat, lo), np.percentile(flat, hi)
    flat = np.clip((flat - lo_v) / max(hi_v - lo_v, 1e-3), 0, 1)
    return np.where(flat > 0.5, 255, 0).astype(np.uint8)


def estimate_skew_angle(img: np.ndarray, *, maxskew: float = 5.0, steps: int = 8) -> float:
    """Projection-profile skew estimation: shear candidates in
    [-maxskew, maxskew] at 2·maxskew·steps+1 angles, score by variance
    of row means, return the argmax (estimate_skew_angle,
    common.py:93-140; candidate grid per ocrd-tool.json maxskew/
    skewsteps defaults)."""
    from ..sources.media import shear_vertical

    a = normalize_gray(img)
    best_angle, best_score = 0.0, -1.0
    n = int(2 * maxskew * steps + 1)
    for angle in np.linspace(-maxskew, maxskew, n):
        sheared = shear_vertical((a * 255).astype(np.uint8), -angle)
        rows = 1.0 - sheared.astype(np.float64).mean(axis=1) / 255.0
        score = float(np.var(rows))
        if score > best_score:
            best_score, best_angle = score, float(angle)
    return best_angle


def deskew(img: np.ndarray, *, maxskew: float = 5.0, steps: int = 8) -> tuple[np.ndarray, float]:
    """Estimate + undo skew; returns (image, estimated_angle). The
    orientation annotation follows the reference's wrap
    180-(180-angle)%360 (binarize.py:203-207)."""
    from ..sources.media import shear_vertical

    angle = estimate_skew_angle(img, maxskew=maxskew, steps=steps)
    return shear_vertical(img, -angle), angle


def _runs(binary_fg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal horizontal foreground runs, vectorized: one np.diff over
    the padded mask. Returns (row, col_start, col_end_exclusive), sorted
    row-major (np.nonzero order)."""
    h, w = binary_fg.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = binary_fg
    d = np.diff(padded, axis=1)
    sr, sc = np.nonzero(d == 1)
    _, ec = np.nonzero(d == -1)  # same row order as starts
    return sr, sc, ec


def label_components(binary_fg: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling via run-length union-find.

    ``binary_fg``: bool array, True = foreground. Returns (labels, n)
    with labels in 1..n (0 = background). Replaces the reference's
    scipy ``measurements.label`` (used throughout ocrolib/morph.py).

    Cost is O(runs), not O(pixels): horizontal runs are found with one
    vectorized ``np.diff`` per image, run-vs-previous-row overlaps come
    from two global ``searchsorted`` calls (runs are row-major sorted,
    so (row*stride+col) keys make the previous-row window a contiguous
    slice), and only the union-find over run-adjacency edges is a
    Python loop — typically 100-1000× fewer iterations than pixels.
    """
    h, w = binary_fg.shape
    labels = np.zeros((h, w), dtype=np.int32)
    if h == 0 or w == 0:
        return labels, 0
    sr, sc, ec = _runs(binary_fg)
    nruns = len(sc)
    if nruns == 0:
        return labels, 0
    stride = w + 1
    row64 = sr.astype(np.int64)
    key_start = row64 * stride + sc
    key_end = row64 * stride + ec
    # runs of the previous row overlapping run j's column span:
    # key_end > (row_j-1)*stride + sc_j  and  key_start < (row_j-1)*stride + ec_j
    q_lo = (row64 - 1) * stride + sc
    q_hi = (row64 - 1) * stride + ec
    lo = np.searchsorted(key_end, q_lo, side="right")
    hi = np.searchsorted(key_start, q_hi, side="left")
    counts = np.maximum(hi - lo, 0)
    total_edges = int(counts.sum())
    parent = list(range(nruns))  # python list: scalar indexing ~5× numpy

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    if total_edges:
        j_idx = np.repeat(np.arange(nruns), counts)
        i_idx = np.repeat(lo, counts) + (
            np.arange(total_edges) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        for a, b in zip(i_idx.tolist(), j_idx.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
    # vectorized root resolution: parents always point to smaller ids,
    # so iterated pointer-jumping converges in O(log depth) passes
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            break
        roots = nxt
    uniq, compact = np.unique(roots, return_inverse=True)
    run_labels = (compact + 1).astype(np.int32)
    # paint runs into the label image: one vectorized multi-range fill
    lengths = (ec - sc).astype(np.int64)
    total_px = int(lengths.sum())
    flat_starts = row64 * w + sc
    offs = np.arange(total_px) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = labels.ravel()
    flat[np.repeat(flat_starts, lengths) + offs] = np.repeat(run_labels, lengths)
    return labels, len(uniq)


def despeckle_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Paint every isolated foreground pixel of a white-padded uint8
    stack to background; returns (cleaned, removed per page).

    Under the 4-connectivity ``label_components`` uses, a size-1
    component is exactly a fg pixel with no fg 4-neighbour, so one
    neighbour test replaces the labeling. Padding is white, so
    a page's border sees background beyond it, as it would alone."""
    fg = stack < 128
    iso = np.zeros_like(fg)  # first: fg 4-neighbours
    iso[:, 1:] |= fg[:, :-1]
    iso[:, :-1] |= fg[:, 1:]
    iso[:, :, 1:] |= fg[:, :, :-1]
    iso[:, :, :-1] |= fg[:, :, 1:]
    np.logical_not(iso, out=iso)
    iso &= fg
    del fg
    removed = _row_counts(iso.reshape(len(stack), -1))
    if not removed.any():
        return stack, removed
    out = stack.copy()
    out[iso] = 255
    return out, removed


def remove_small_components(img: np.ndarray, *, minsize: int = 4) -> tuple[np.ndarray, int]:
    """Despeckle: paint foreground components smaller than ``minsize``
    pixels to background (remove_noise, common.py:1153-1169).
    Returns (cleaned, n_removed)."""
    if minsize <= 1:
        # sizes < minsize matches no component — no-op, same as slow path
        return img, 0
    if minsize == 2:  # size-1 components only: the stack kernel over this page
        out, removed = despeckle_stack(img[None])
        return out[0], int(removed[0])
    fg = img < 128
    labels, n = label_components(fg)
    if n == 0:
        return img, 0
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    small = np.flatnonzero(sizes[1:] < minsize) + 1
    if len(small) == 0:
        return img, 0
    mask = np.isin(labels, small)
    out = img.copy()
    out[mask] = 255
    return out, len(small)


def borderclean(img: np.ndarray, *, margin: int = 4) -> np.ndarray:
    """Remove components confined entirely to the margins
    (common.py:251-297): any component whose bounding box lies fully
    inside the ``margin`` band is painted to background."""
    fg = img < 128
    labels, n = label_components(fg)
    if n == 0:
        return img
    h, w = img.shape
    ys, xs = np.nonzero(labels)
    ls = labels[ys, xs]
    # vectorized per-component bounding boxes via scatter-min/max
    y0 = np.full(n + 1, h, dtype=np.int64)
    y1 = np.full(n + 1, -1, dtype=np.int64)
    x0 = np.full(n + 1, w, dtype=np.int64)
    x1 = np.full(n + 1, -1, dtype=np.int64)
    np.minimum.at(y0, ls, ys)
    np.maximum.at(y1, ls, ys)
    np.minimum.at(x0, ls, xs)
    np.maximum.at(x1, ls, xs)
    inside_margin = (y1 < margin) | (y0 >= h - margin) | (x1 < margin) | (x0 >= w - margin)
    inside_margin[0] = False
    if not inside_margin.any():
        return img
    out = img.copy()
    out[inside_margin[labels] & fg] = 255
    return out


def clip_intruders(img: np.ndarray, core_box: tuple[int, int, int, int]) -> np.ndarray:
    """Clip semantics (clip.py:218-267): components that do NOT touch
    the segment's core box (y0,y1,x0,x1) — i.e. are exclusively owned
    by an intersecting neighbour — are painted to background."""
    y0, y1, x0, x1 = core_box
    fg = img < 128
    labels, n = label_components(fg)
    if n == 0:
        return img
    core = np.zeros(n + 1, dtype=bool)
    core_lab = labels[y0:y1, x0:x1]
    core[np.unique(core_lab[core_lab > 0])] = True
    mask = ~core[labels] & fg
    out = img.copy()
    out[mask] = 255
    return out


def check_dewarp_line(img: np.ndarray, *, max_neighbour: float = 0.02) -> str:
    """Validate a crop as a SINGLE text line before centerline
    normalization (CenterNormalizer.check, ocrolib/lineest.py:25-59:
    "make sure we only have 1 textline in the image, i.e. no intruders
    from bad cropping — otherwise dewarping would heavily distort our
    actual line"). Returns "" if safe, else a reason string.

    Scipy-free profile test: smooth the row ink profile, split it into
    ink bands at its gaps, and reject when the ink mass OUTSIDE the
    dominant band exceeds ``max_neighbour`` of the total (the
    reference's max_ignore semantics, dewarp.py:36-57)."""
    a = 255.0 - img.astype(np.float64)
    total = a.sum()
    if total <= 0:
        return "image is blank"
    prof = a.sum(axis=1)
    h = len(prof)
    k = max(1, h // 10)
    kern = np.ones(k) / k
    sm = np.convolve(np.pad(prof, k // 2, mode="edge"), kern, mode="valid")[:h]
    on = sm > 0.05 * sm.max()
    # contiguous band runs
    d = np.diff(on.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if on[0]:
        starts = np.r_[0, starts]
    if on[-1]:
        ends = np.r_[ends, h]
    if len(starts) <= 1:
        return ""
    band_ink = np.array([prof[s:e].sum() for s, e in zip(starts, ends)])
    outside = total - band_ink.max()
    if outside > max_neighbour * total:
        return (
            f"found {len(starts)} text bands; {outside / total:.1%} of ink "
            f"outside the dominant line (max_neighbour={max_neighbour:.1%})"
        )
    return ""


def padvert(img: np.ndarray, *, range_: int = 4) -> np.ndarray:
    """Pad a line crop with white above and below — the dewarp fallback
    for crops that fail the single-line check ("just as dewarping would
    do on average, so at least this line has similar margins as the
    others", dewarp.py:64-69,158-166)."""
    margin = int(range_ * img.shape[0] / 16)
    return np.pad(img, ((margin, margin), (0, 0)), constant_values=255).astype(np.uint8)


def dewarp_centerline(img: np.ndarray, *, target_h: int = 24, r: float = 1.2, smooth: int = 9) -> np.ndarray:
    """Center-line normalization (CenterNormalizer.measure/dewarp,
    ocrolib/lineest.py:60-87): per-column ink centroid, box-smoothed,
    rows resampled to a fixed band of ``target_h`` around it."""
    a = 255 - img.astype(np.float64)  # ink intensity
    h, w = img.shape
    colsum = a.sum(axis=0)
    ys = np.arange(h, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        center = (a * ys[:, None]).sum(axis=0) / np.maximum(colsum, 1e-9)
    center[colsum < 1e-9] = h / 2.0
    if smooth > 1:
        k = np.ones(smooth) / smooth
        center = np.convolve(np.pad(center, smooth // 2, mode="edge"), k, mode="valid")[:w]
    half = target_h / 2.0
    offs = (np.arange(target_h) - half + 0.5) * r
    rows = np.round(center[None, :] + offs[:, None]).astype(int)
    ok = (rows >= 0) & (rows < h)
    cols = np.broadcast_to(np.arange(w), (target_h, w))
    return np.where(ok, img[np.clip(rows, 0, h - 1), cols], 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# morphology suite (reference ocrolib/morph.py:14-444 semantics, scipy-free)


def _sliding_extreme_1d(a: np.ndarray, size: int, axis: int, maximum: bool) -> np.ndarray:
    """Centered sliding max/min along one axis via log-shift folding —
    O(log size) vectorized passes, no scipy."""
    if size <= 1:
        return a
    op = np.maximum if maximum else np.minimum
    pad_val = a.min() if maximum else a.max()
    lo = size // 2
    hi = size - 1 - lo
    pad_width = [(0, 0), (0, 0)]
    pad_width[axis] = (lo, hi)
    x = np.pad(a, pad_width, mode="constant", constant_values=pad_val)
    # fold shifted copies: window extreme = extremes of doubling offsets
    out = x.copy()
    shift = 1
    remaining = size - 1
    while remaining > 0:
        s = min(shift, remaining)
        out = op(out, np.roll(out, -s, axis=axis))
        remaining -= s
        shift *= 2
    sel = [slice(None), slice(None)]
    sel[axis] = slice(0, a.shape[axis])
    return out[tuple(sel)]


def r_dilation(image: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Binary/grayscale dilation with a (h, w) box structuring element
    (morph.py:76-80; separable sliding max)."""
    out = _sliding_extreme_1d(np.asarray(image), size[0], axis=0, maximum=True)
    return _sliding_extreme_1d(out, size[1], axis=1, maximum=True)


def r_erosion(image: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Binary/grayscale erosion with a (h, w) box (morph.py:82-86)."""
    out = _sliding_extreme_1d(np.asarray(image), size[0], axis=0, maximum=False)
    return _sliding_extreme_1d(out, size[1], axis=1, maximum=False)


def r_opening(image: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    return r_dilation(r_erosion(image, size), size)


def r_closing(image: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    return r_erosion(r_dilation(image, size), size)


def keep_marked(image: np.ndarray, markers: np.ndarray) -> np.ndarray:
    """Keep only those foreground components of ``image`` (bool) that
    overlap ``markers`` (bool) (morph.py:229-236)."""
    labels, n = label_components(image)
    if n == 0:
        return np.zeros_like(image, dtype=bool)
    hit = np.zeros(n + 1, dtype=bool)
    marked = labels[markers & image]
    hit[marked] = True
    hit[0] = False
    return hit[labels]


def remove_marked(image: np.ndarray, markers: np.ndarray) -> np.ndarray:
    """Remove components of ``image`` touching ``markers`` (morph.py:238-245)."""
    return image & ~keep_marked(image, markers)


def propagate_labels(image: np.ndarray, labels: np.ndarray, conflict: int = 0) -> np.ndarray:
    """Propagate seed ``labels`` to the components of ``image``;
    components receiving more than one distinct seed label get
    ``conflict`` (morph.py:293-307). Vectorized over (component, seed)
    pairs — no per-component Python loop."""
    comp, n = label_components(image)
    if n == 0:
        return np.zeros_like(labels)
    sel = (comp > 0) & (labels > 0)
    pairs = np.unique(np.stack([comp[sel], labels[sel]], axis=1), axis=0) if sel.any() else np.zeros((0, 2), np.int64)
    out_lab = np.zeros(n + 1, dtype=labels.dtype)
    if len(pairs):
        counts = np.bincount(pairs[:, 0], minlength=n + 1)
        firsts = np.zeros(n + 1, dtype=labels.dtype)
        firsts[pairs[:, 0][::-1]] = pairs[:, 1][::-1]  # first label wins (pairs sorted)
        out_lab = np.where(counts == 1, firsts, np.where(counts > 1, conflict, 0)).astype(labels.dtype)
    return out_lab[comp]


def propagate_labels_majority(image: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Propagate the MAJORITY overlapping seed label into each component
    (morph.py:273-291) — majority by overlap pixel count."""
    comp, n = label_components(image)
    if n == 0:
        return np.zeros_like(labels)
    sel = (comp > 0) & (labels > 0)
    if not sel.any():
        return np.zeros_like(labels)
    c, l = comp[sel].astype(np.int64), labels[sel].astype(np.int64)
    lmax = int(l.max())
    keys = c * (lmax + 1) + l
    uniq, counts = np.unique(keys, return_counts=True)
    uc, ul = uniq // (lmax + 1), uniq % (lmax + 1)
    # winner per component = label with the max overlap count
    order = np.lexsort((counts, uc))  # per component ascending by count
    out_lab = np.zeros(n + 1, dtype=labels.dtype)
    out_lab[uc[order]] = ul[order]  # last write per component = max count
    return out_lab[comp]


def spread_labels(labels: np.ndarray, maxdist: int = 9999999) -> np.ndarray:
    """Spread labels to nearby background up to ``maxdist``
    (morph.py:204-214 semantics). Chessboard metric via iterative 3×3
    label dilation (the reference uses the euclidean distance
    transform; boundaries between labels can differ by <1 px)."""
    out = labels.copy()
    rounds = min(maxdist, max(labels.shape))
    for _ in range(rounds):
        empty = out == 0
        if not empty.any():
            break
        grown = r_dilation(out, (3, 3))
        out = np.where(empty, grown, out)
    return out


def dist_labels(mask: np.ndarray) -> np.ndarray:
    """Chessboard distance to the nearest background for pixels inside
    ``mask`` — the depth transform the reference uses to flatten
    overlapping line masks by depth (morph dist_labels in
    resegment.py:254-259). Exact two-pass chamfer (full-row horizontal
    relaxations subsume the W/E half-sweeps); every row op vectorized,
    O(H) python iterations."""
    h, w = mask.shape
    big = np.int32(h + w + 2)
    d = np.where(mask, big, 0).astype(np.int32)
    xs = np.arange(w, dtype=np.int32)

    def _hrelax(row: np.ndarray) -> np.ndarray:
        # min over k<=x of row[k]+(x-k) = x + cummin(row-k), both directions
        row = np.minimum(row, np.minimum.accumulate(row - xs) + xs)
        rev = row[::-1]
        return np.minimum(row, (np.minimum.accumulate(rev - xs) + xs)[::-1])

    def _vrelax(cur: np.ndarray, adj: np.ndarray) -> np.ndarray:
        m = adj.copy()
        m[1:] = np.minimum(m[1:], adj[:-1])
        m[:-1] = np.minimum(m[:-1], adj[1:])
        return np.minimum(cur, m + 1)

    d[0] = _hrelax(d[0])
    for y in range(1, h):
        d[y] = _hrelax(_vrelax(d[y], d[y - 1]))
    for y in range(h - 2, -1, -1):
        d[y] = _hrelax(_vrelax(d[y], d[y + 1]))
    return d * mask


def remove_separator_lines(img: np.ndarray, scale: int, *, min_len_scale: float = 10.0) -> tuple[np.ndarray, int]:
    """Remove long black rules (horizontal/vertical separators) before
    line finding (remove_hlines, common.py:512-519, and the vertical
    analog compute_separators_morph): any component whose bbox width OR
    height exceeds ``min_len_scale``·scale is painted to background.
    Returns (cleaned, n_removed). Vectorized bbox stats — no per-label
    scan."""
    fg = img < 128
    labels, n = label_components(fg)
    if n == 0:
        return img, 0
    h, w = img.shape
    ys, xs = np.nonzero(labels)
    ls = labels[ys, xs]
    y0 = np.full(n + 1, h, np.int64); y1 = np.full(n + 1, -1, np.int64)
    x0 = np.full(n + 1, w, np.int64); x1 = np.full(n + 1, -1, np.int64)
    np.minimum.at(y0, ls, ys); np.maximum.at(y1, ls, ys)
    np.minimum.at(x0, ls, xs); np.maximum.at(x1, ls, xs)
    limit = min_len_scale * max(scale, 1)
    sep = ((x1 - x0 + 1) > limit) | ((y1 - y0 + 1) > limit)
    sep[0] = False
    if not sep.any():
        return img, 0
    out = img.copy()
    out[sep[labels] & fg] = 255
    return out, int(sep[1:].sum())


def select_regions(binary: np.ndarray, score_fn, min_score: float = 0, nbest: int = 100000) -> np.ndarray:
    """Keep the ``nbest`` highest-scoring components with score >
    ``min_score`` (morph.py:309-318). ``score_fn`` maps a boolean
    component mask -> float; scoring loops components (scores are
    arbitrary Python), everything else is vectorized."""
    labels, n = label_components(binary)
    if n == 0:
        return np.zeros_like(binary, dtype=bool)
    scores = np.array([score_fn(labels == i) for i in range(1, n + 1)])
    keep_ids = np.argsort(-scores)[:nbest] + 1
    keep = np.zeros(n + 1, dtype=bool)
    keep[keep_ids] = True
    keep[1:] &= scores > min_score
    keep[0] = False
    return keep[labels]


# ---------------------------------------------------------------------------
# validity predicates (common.py:300-381)


def check_line(img: np.ndarray, *, min_h: int = 4, max_h: int = 200, min_w: int = 8, max_components_per_px: float = 0.5) -> str:
    """Validity predicate (check_line, common.py:300-327): returns ""
    when plausible, else an error string (the reference logs + skips,
    recognize.py:227-232)."""
    h, w = img.shape
    if h < min_h:
        return f"image not tall enough for a text line {h}<{min_h}"
    if h > max_h:
        return f"image too tall for a text line {h}>{max_h}"
    if w < min_w:
        return f"line too short {w}<{min_w}"
    a = img.astype(np.float64) / 255.0  # raw, no inversion correction
    ink = (a < 0.5).mean()
    if ink > 0.6:
        return "image too black, possibly inverted"
    if ink < 0.001:
        return "image is blank"
    fg = img < 128
    _, n = label_components(fg)
    if n > max_components_per_px * w:
        return f"too many connected components for a line {n}"
    return ""


def check_region(img: np.ndarray, *, zoom: float = 1.0) -> str:
    """Validity predicate for a text REGION image (check_region,
    common.py:329-354): size plausibility, inversion check, and a
    CC-count budget of 4 slots per 30×30 px."""
    if img.size == 0:
        return "image dimensions are zero"
    if img.max() == img.min():
        return "image is blank"
    # inversion check on the ink mask (reference works on inverted
    # binary where ink=1: mean<median flags mostly-ink images)
    b = (img < 128).astype(np.float64)
    if np.mean(b) < np.median(b):
        return "image may be inverted"
    h, w = img.shape
    if h < 45 / zoom:
        return f"image not tall enough for a region image {img.shape}"
    if h > 5000 / zoom:
        return f"image too tall for a region image {img.shape}"
    if w < 100 / zoom:
        return f"image too narrow for a region image {img.shape}"
    if w > 5000 / zoom:
        return f"image too wide for a region image {img.shape}"
    slots = int(w * h / (30 * 30) * zoom * zoom) * 4
    _, n = label_components(img < 128)
    if n < 5:
        return f"too few connected components for a region image (got {n})"
    if n > slots and n > 10:
        return f"too many connected components for a region image ({n} > {slots})"
    return ""


def check_page(img: np.ndarray, *, zoom: float = 1.0) -> str:
    """Validity predicate for a PAGE image (check_page,
    common.py:357-381)."""
    if img.size == 0:
        return "image dimensions are zero"
    if img.max() == img.min():
        return "image is blank"
    b = (img < 128).astype(np.float64)
    if np.mean(b) < np.median(b):
        return "image may be inverted"
    h, w = img.shape
    if h < 600 / zoom:
        return f"image not tall enough for a page image {img.shape}"
    if h > 10000 / zoom:
        return f"image too tall for a page image {img.shape}"
    if w < 600 / zoom:
        return f"image too narrow for a page image {img.shape}"
    if w > 10000 / zoom:
        return f"image too wide for a page image {img.shape}"
    slots = int(w * h / (30 * 30) * zoom * zoom) * 4
    _, n = label_components(img < 128)
    if n < 10:
        return f"too few connected components for a page image (got {n})"
    if n > slots and n > 10:
        return f"too many connected components for a page image ({n} > {slots})"
    return ""


# ---------------------------------------------------------------------------
# feature lineage + batch stages


def has_feature(features: str, tag: str) -> bool:
    return tag in [f for f in (features or "").split(",") if f]


def add_feature(features: str, tag: str) -> str:
    fs = [f for f in (features or "").split(",") if f]
    if tag not in fs:
        fs.append(tag)
    return ",".join(fs)


def _media_stage(batch: pa.Table, op: str, params: dict) -> pa.Table:
    """Generic media map: decode → kernel → encode, appending the
    feature tag and any scalar annotations. Fallback policy mirrors the
    reference: a failing segment is passed through unmodified with the
    error recorded (recognize.py:227-232, dewarp.py:158-166)."""
    pixels = batch["pixels"].to_pylist()
    features = batch["features"].to_pylist()
    out_px, out_feat, out_angle, out_err = [], [], [], []
    for buf, feat in zip(pixels, features):
        angle = 0.0
        err = ""
        try:
            img = decode_gray(buf)
            if op == "binarize":
                method = params.get("method", "global")
                img = binarize_nlbin(img) if method == "nlbin" else binarize_global(img)
                tag = "binarized"
            elif op == "deskew":
                img, angle = deskew(img, maxskew=params.get("maxskew", 5.0), steps=params.get("steps", 8))
                tag = "deskewed"
            elif op == "denoise":
                img, _ = remove_small_components(img, minsize=params.get("minsize", 4))
                tag = "despeckled"
            elif op == "dewarp":
                # single-line check first (lineest.py:25-59): a
                # missegmented multi-line crop would be mangled by the
                # centerline warp — pad it instead and annotate
                report = ""
                if params.get("check", True):
                    report = check_dewarp_line(
                        img, max_neighbour=params.get("max_neighbour", 0.02)
                    )
                if report:
                    img = padvert(img, range_=params.get("range", 4))
                    tag = "padded"
                    err = report
                else:
                    img = dewarp_centerline(img, target_h=params.get("target_h", 24))
                    tag = "dewarped"
            elif op == "borderclean":
                img = borderclean(img, margin=params.get("margin", 4))
                tag = "cleaned"
            elif op == "clip":
                # sibling-intrusion clip (clip.py:218-267): the core box
                # is the segment inset by `margin` at top/bottom (where
                # neighbouring lines' ascenders/descenders intrude in
                # the row-local crop); components not reaching the core
                # are painted to background
                m = int(params.get("margin", 3))
                hh = img.shape[0]
                img = clip_intruders(img, (min(m, hh - 1), max(hh - m, 1), 0, img.shape[1]))
                tag = "clipped"
            else:
                raise ValueError(f"unknown media op {op}")
            out_px.append(encode_gray(img))
            out_feat.append(add_feature(feat, tag))
        except Exception as e:  # log-and-skip: pass original through
            err = str(e)
            out_px.append(buf)
            out_feat.append(feat)
        out_angle.append(angle)
        out_err.append(err)
    cols = {name: batch[name] for name in batch.column_names}
    cols["pixels"] = pa.array(out_px, pa.large_binary())
    cols["features"] = pa.array(out_feat, pa.string())
    if op == "deskew":
        # orientation wrap per binarize.py:203-207
        orients = [180 - (180 - a) % 360 for a in out_angle]
        cols["orientation"] = pa.array(orients, pa.float32())
    cols["error"] = pa.array(out_err, pa.string())
    return pa.table(cols)


def media_op(ds, op: str, **params):
    """Dataset wrapper: apply one media kernel as a stateless stage.

    Media-heavy rows mean small batches (64) so a batch × concurrency
    stays well inside a worker heap.
    """
    from functools import partial

    batch_size = params.pop("batch_size", 64)
    return ds.map_batches(
        partial(_media_stage, op=op, params=params),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def preprocess_chain(ds, *, binarize_method: str = "global", clip_margin: int = 3):
    """The reference's full preprocessing chain
    binarize→denoise→clip→deskew→dewarp
    (tests/run_image_preprocessing_test.bash:23-50 order; clip removes
    sibling-line intruders from the margin band before geometry
    estimation, clip.py:218-267)."""
    ds = media_op(ds, "binarize", method=binarize_method)
    ds = media_op(ds, "denoise")
    ds = media_op(ds, "clip", margin=clip_margin)
    ds = media_op(ds, "deskew")
    ds = media_op(ds, "dewarp")
    return ds
