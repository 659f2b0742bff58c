"""Page segmentation: page image → line regions in reading order.

Reimplements the *semantics* of the reference's segmentation
(ocrd_cis/ocropy/segment.py + compute_segmentation/lines2regions,
ocropy/common.py:1295-1794): detect text lines on a binarized page,
group them into regions/columns, and emit them in reading order
(top-to-bottom within a column, columns left-to-right — the recursive
X-Y cut ordering the reference's `lines2regions` RXYC produces;
reading-order topological sort per psegutils.py:114-170).

Algorithm (projection-profile recursive X-Y cut — a published classic,
not the reference's exact heuristics):
1. binarize (Otsu), compute ink profiles;
2. recursively split on the widest whitespace gap — horizontal gaps
   (≥ min_line_gap) separate stacked blocks, vertical gutters
   (≥ min_col_gap) separate columns; recursion alternates until no gap
   remains;
3. leaves = line boxes (y0, y1, x0, x1), emitted depth-first which IS
   reading order;
4. each line box becomes a line span + cropped media payload, offsets
   assigned in reading order (the driver schema's document-order index).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.media import decode_gray, encode_gray
from .image_ops import binarize_global, binarize_stack


def _gaps(profile: np.ndarray, min_gap: int) -> list[tuple[int, int]]:
    """Maximal runs of zero-ink positions of length >= min_gap (interior
    only: a run touching either end of the profile is a margin, not a
    separator), from one ``np.diff`` over the blank mask."""
    blank = profile == 0
    if not blank.any():
        return []
    d = np.diff(blank.view(np.int8))
    starts = np.flatnonzero(d == 1) + 1  # blank runs that start inside
    ends = np.flatnonzero(d == -1) + 1  # blank runs that end inside
    if blank[0]:
        ends = ends[1:]
    if blank[-1]:
        starts = starts[:-1]
    keep = ends - starts >= min_gap
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def estimate_scale(fg: np.ndarray, *, zoom: float = 1.0) -> int:
    """Median character scale = median sqrt(component area) over the
    mid-sized components (estimate_scale, psegutils.py:21-35): paint
    each component's sqrt-area into a scalemap largest-last so nested/
    overlapping boxes don't double-count, keep 3/zoom..100/zoom, take
    the median; 42/zoom fallback for empty pages."""
    from .image_ops import label_components

    labels, n = label_components(fg)
    if n == 0:
        return int(42 / zoom)
    sizes = np.bincount(labels.ravel())[1:]
    root = np.sqrt(sizes.astype(np.float64))
    ok = (root > 3 / zoom) & (root < 100 / zoom)
    if not ok.any():
        return int(42 / zoom)
    return int(np.median(root[ok]))


def reading_order(boxes: list[tuple[int, int, int, int]]) -> list[int]:
    """Topological reading order over line boxes (y0, y1, x0, x1):
    i precedes j if they x-overlap and i is above j, or if no third box
    vertically separates them and i is left of j (reading_order +
    topsort, psegutils.py:114-170). Handles non-Manhattan layouts
    (marginalia, skewed columns) the depth-first XY order cannot."""
    n = len(boxes)
    order = np.zeros((n, n), dtype=bool)
    for i, u in enumerate(boxes):
        for j, v in enumerate(boxes):
            if u[3] > v[2] and u[2] < v[3]:  # x-overlap
                if u[0] < v[0]:  # above
                    order[i, j] = True
            elif u[3] <= v[2]:  # strictly left of v
                separates = any(
                    w[1] >= min(u[0], v[0]) and w[0] <= max(u[1], v[1])
                    and w[2] < u[3] and w[3] > v[2]
                    for k, w in enumerate(boxes) if k not in (i, j)
                )
                if not separates:
                    order[i, j] = True
    visited = np.zeros(n, dtype=bool)
    out: list[int] = []

    def visit(k: int):
        if visited[k]:
            return
        visited[k] = True
        for p in np.flatnonzero(order[:, k]):
            visit(int(p))
        out.append(k)

    for k in range(n):
        visit(k)
    return out


# ---------------------------------------------------------------------------
# Polygon outlines (masks2polygons semantics, reference
# ocrd_cis/ocropy/segment.py:58-135): per label, outer contour(s) of the
# label mask, reading-ordered parts, tiny parts dropped, ≥4-point
# polygons of (x, y) int points. cv2/shapely-free: Moore-neighbor
# boundary tracing + collinear-run compression (the CHAIN_APPROX_SIMPLE
# analog for the raster contours this tracer produces).

# clockwise 8-neighborhood ring (y down): E, SE, S, SW, W, NW, N, NE
_TRACE_DIRS = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
_TRACE_IDX = {d: i for i, d in enumerate(_TRACE_DIRS)}


def trace_outer_contour(mask: np.ndarray) -> list[tuple[int, int]]:
    """Outer boundary pixels of the foreground component containing the
    topmost-leftmost pixel, clockwise, as (x, y) tuples (open polygon —
    the endpoint is not repeated). Moore-neighbor tracing with Jacob's
    stopping criterion; runtime O(perimeter)."""
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return []
    i = int(np.lexsort((xs, ys))[0])
    start = (int(ys[i]), int(xs[i]))
    # backtrack cell = W neighbor of start (background by construction:
    # start is the leftmost foreground pixel of the topmost row)
    bg = (start[0], start[1] - 1)
    start_bg = bg
    cur = start
    contour = [start]
    for _ in range(4 * len(ys) + 8):
        cy, cx = cur
        bidx = _TRACE_IDX[(bg[0] - cy, bg[1] - cx)]
        nxt = None
        for k in range(1, 9):
            idx = (bidx + k) % 8
            dy, dx = _TRACE_DIRS[idx]
            ny, nx = cy + dy, cx + dx
            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx]:
                nxt = (ny, nx)
                pdy, pdx = _TRACE_DIRS[(bidx + k - 1) % 8]
                bg = (cy + pdy, cx + pdx)
                break
        if nxt is None:
            break  # isolated single pixel
        if nxt == start and bg == start_bg:
            break  # closed the loop with the same entry direction
        cur = nxt
        contour.append(cur)
    return [(x, y) for y, x in contour]


def _compress_collinear(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop interior points of straight runs (closed-polygon aware) —
    a rectangle's traced boundary reduces to its 4 corners."""
    n = len(pts)
    if n < 3:
        return pts
    out = []
    for i in range(n):
        p0, p1, p2 = pts[i - 1], pts[i], pts[(i + 1) % n]
        if (p1[0] - p0[0], p1[1] - p0[1]) != (p2[0] - p1[0], p2[1] - p1[1]):
            out.append(p1)
    return out if out else pts[:1]


def masks_to_polygons(
    bg_labels: np.ndarray,
    fg_bin: np.ndarray,
    *,
    min_area: int | None = None,
) -> tuple[list[tuple[int, list[tuple[int, int]]]], np.ndarray]:
    """Label masks -> polygon outlines (reference masks2polygons,
    segment.py:58-135): for every nonzero label with some foreground,
    find the outer contour of each connected part, drop parts that are
    both under ``min_area`` pixels and under 10% of the label's area,
    sort parts in reading order, keep (simplified) polygons of ≥4
    points. Returns (list of (label, polygon) tuples, new label array
    renumbered by result index) — labels can split into multiple
    polygons, exactly like the reference. Area = pixel count (the
    reference uses cv2.contourArea; same order of magnitude, same
    filtering intent)."""
    from .image_ops import label_components

    results: list[tuple[int, list[tuple[int, int]]]] = []
    result_labels = np.zeros_like(bg_labels, dtype=bg_labels.dtype)
    for label in np.unique(bg_labels):
        if not label:
            continue
        bg_mask = bg_labels == label
        if not np.count_nonzero(bg_mask & fg_bin):
            continue  # skip labels with no foreground (reference :84-87)
        parts, n_parts = label_components(bg_mask)
        if n_parts == 0:
            continue
        areas = np.bincount(parts.ravel(), minlength=n_parts + 1)
        total_area = int(areas[1:].sum())
        if not total_area:
            continue
        # reading-order the parts by their bboxes (reference sorts
        # contours with morph.reading_order, :105-110)
        boxes = []
        for p in range(1, n_parts + 1):
            pys, pxs = np.nonzero(parts == p)
            boxes.append((int(pys.min()), int(pys.max()) + 1, int(pxs.min()), int(pxs.max()) + 1))
        order = reading_order(boxes) if len(boxes) > 1 else [0]
        for bi in order:
            p = bi + 1
            area = int(areas[p])
            if min_area and area < min_area and area / total_area < 0.1:
                continue  # too small (reference :113-117)
            poly = _compress_collinear(trace_outer_contour(parts == p))
            if len(poly) < 4:
                continue  # degenerate (reference :128-131)
            results.append((int(label), poly))
            result_labels[parts == p] = len(results)
    return results, result_labels


def _box_blur_1d(a: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Centered box (uniform) filter along one axis via cumsum — O(n)
    vectorized, no scipy. Edge windows are clipped to the array (sum
    over fewer samples, normalized by true window length)."""
    if size <= 1:
        return a.astype(np.float64, copy=False)
    a = np.asarray(a, dtype=np.float64)
    if axis == 1:
        return _box_blur_1d(a.T, size, 0).T
    n = a.shape[0]
    cs = np.zeros((n + 1,) + a.shape[1:], dtype=np.float64)
    np.cumsum(a, axis=0, out=cs[1:])
    lo = size // 2
    hi = size - 1 - lo
    idx_hi = np.minimum(np.arange(n) + hi + 1, n)
    idx_lo = np.maximum(np.arange(n) - lo, 0)
    return (cs[idx_hi] - cs[idx_lo]) / (idx_hi - idx_lo).reshape((-1,) + (1,) * (a.ndim - 1))


def _gauss_blur(a: np.ndarray, sigma_y: float, sigma_x: float) -> np.ndarray:
    """Separable Gaussian approximation: three box passes per axis
    (box width ≈ 2σ gives a 3-pass variance ≈ σ²) — the classic
    box-chain approximation, scipy-free."""
    out = np.asarray(a, dtype=np.float64)
    wy = max(1, int(round(2 * sigma_y / np.sqrt(3))) | 1)
    wx = max(1, int(round(2 * sigma_x / np.sqrt(3))) | 1)
    for _ in range(3):
        if wy > 1:
            out = _box_blur_1d(out, wy, 0)
        if wx > 1:
            out = _box_blur_1d(out, wx, 1)
    return out


def _odd(x: float) -> int:
    return max(1, int(x) | 1)


def compute_colseps(
    fg: np.ndarray, scale: int, *, maxcolseps: int = 3, csminheight: int = 10
) -> np.ndarray:
    """Whitespace column separators — compute_colseps_conv semantics
    (/root/reference/ocrd_cis/ocropy/common.py:658-697), scipy-free:
    smooth the ink map, threshold the near-zero background, keep only
    vertical blank runs at least ``csminheight``·scale tall that lie
    strictly between ink (not page margins), and select the
    ``maxcolseps`` tallest. Returns a bool separator mask."""
    h, w = fg.shape
    out = np.zeros((h, w), dtype=bool)
    if maxcolseps <= 0 or not fg.any():
        return out
    sm = _gauss_blur(fg.astype(np.float64), float(scale), 0.5 * scale)
    blank = sm < 0.1 * max(sm.max(), 1e-9)
    ink_cols = np.flatnonzero(fg.any(axis=0))
    lo_x, hi_x = int(ink_cols[0]), int(ink_cols[-1])
    interior = np.zeros(w, dtype=bool)
    interior[lo_x + 1 : hi_x] = True
    blank &= interior[None, :]
    # a separator must run through TEXT, not margins: clip runs to the
    # page's ink row range so the blank space below a short column does
    # not qualify that column's own ink columns as separators
    ink_rows = np.flatnonzero(fg.any(axis=1))
    blank[: ink_rows[0]] = False
    blank[ink_rows[-1] + 1 :] = False
    # per-column tallest blank run via one diff over the transposed map
    bt = blank.T  # (w, h): each row is one image column
    padded = np.zeros((w, h + 2), dtype=np.int8)
    padded[:, 1:-1] = bt
    d = np.diff(padded, axis=1)
    cs, ys = np.nonzero(d == 1)  # run starts (column, y)
    _, ye = np.nonzero(d == -1)  # run ends, pairwise aligned
    lens = ye - ys
    tallest = np.zeros(w, dtype=np.int64)
    np.maximum.at(tallest, cs, lens)
    col_ok = tallest >= csminheight * scale
    if not col_ok.any():
        return out
    # a true gutter is WIDE as well as tall: word gaps that happen to
    # align across lines are ~1 glyph wide, a column gutter is several
    # (the reference discriminates via column-edge gradients +
    # select_regions; width does the same job box-free)
    min_w = 3 * scale
    dd = np.diff(np.r_[0, col_ok.astype(np.int8), 0])
    band_s = np.flatnonzero(dd == 1)
    band_e = np.flatnonzero(dd == -1)
    widths = band_e - band_s
    bands = [
        (int(s), int(e)) for s, e, bw in zip(band_s, band_e, widths) if bw >= min_w
    ]
    # keep the maxcolseps tallest bands
    bands.sort(key=lambda b: int(tallest[b[0] : b[1]].max()), reverse=True)
    for s, e in bands[:maxcolseps]:
        band_blank = blank[:, s:e].all(axis=1)
        out[band_blank, s:e] = True
    return out


def lines_to_regions(
    boxes: list[tuple[int, int, int, int]],
    *,
    scale: int | None = None,
    min_vgap: float = 1.5,
    min_hgap: float = 2.0,
    prefer_vertical: bool | None = None,
) -> list[int]:
    """Group line boxes into text regions by recursive X-Y cuts —
    lines2regions semantics (/root/reference/ocrd_cis/ocropy/
    common.py:1172-1794) at box granularity: split the box set
    recursively at shared gaps (vertical gutters wider than
    ``min_vgap``·scale make columns; horizontal bands taller than
    ``min_hgap``·scale make stacked blocks), leaves = regions in cut
    order. The reference runs the same hybrid RXYC over per-pixel line
    labels with separator partitions; box granularity keeps the result
    identical whenever line polygons are their bboxes (always true for
    this engine's segmenters).

    Vertical (column) cuts use an absolute gutter threshold
    (``min_vgap``·scale); horizontal (block) cuts are RELATIVE to the
    group's median inter-line gap — a block boundary must be clearly
    larger (1.8×) than normal line spacing AND at least
    ``min_hgap``·scale, so ordinary leading never fragments a
    paragraph (the reference's "gaps must have a certain distance
    between each other ... corresponding to the number of lines").

    Returns one region id per input box (ids are dense, in reading /
    cut order)."""
    n = len(boxes)
    if n == 0:
        return []
    if scale is None:
        scale = max(1, int(np.median([b[1] - b[0] for b in boxes]) / 2))
    vgap = min_vgap * scale
    hgap = min_hgap * scale
    region_of = [0] * n
    next_region = [0]

    def gaps_along(idxs, lo_k, hi_k, min_gap, relative=False):
        ivs = sorted((boxes[i][lo_k], boxes[i][hi_k]) for i in idxs)
        gaps, cuts_at = [], []
        cur_end = ivs[0][1]
        for s, e in ivs[1:]:
            if s > cur_end:
                gaps.append(s - cur_end)
                cuts_at.append((cur_end + s) / 2)
            cur_end = max(cur_end, e)
        if not gaps:
            return []
        thresh = min_gap
        if relative:
            thresh = max(min_gap, 1.8 * float(np.median(gaps)))
        return [c for g, c in zip(gaps, cuts_at) if g >= thresh]

    def leaf(idxs):
        rid = next_region[0]
        next_region[0] += 1
        for i in idxs:
            region_of[i] = rid

    def recurse(idxs):
        if len(idxs) <= 1:
            leaf(idxs)
            return
        vcuts = gaps_along(idxs, 2, 3, vgap)  # x-gaps → columns
        hcuts = gaps_along(idxs, 0, 1, hgap, relative=True)  # y-gaps → blocks
        if vcuts and (prefer_vertical is not False or not hcuts):
            lo_k, cuts = 2, vcuts
        elif hcuts:
            lo_k, cuts = 0, hcuts
        else:
            leaf(idxs)
            return
        groups: list[list[int]] = [[] for _ in range(len(cuts) + 1)]
        for i in idxs:
            g = sum(1 for c in cuts if boxes[i][lo_k] > c)
            groups[g].append(i)
        live = [g for g in groups if g]
        if len(live) <= 1:
            leaf(idxs)
            return
        for g in live:
            recurse(g)

    recurse(list(range(n)))
    return region_of


def _hmerge_seed_labels(
    seed_lab: np.ndarray, ns: int, sep_cols: np.ndarray | None = None
) -> np.ndarray:
    """Merge seed labels that belong to the same text line but were
    split at long whitespace (word gaps / columns of a table row):
    the reference's hmerge_line_seeds (common.py:869-...) relabels
    seeds with mutually-centric vertical intervals. Simplified here:
    two labels merge when each one's y-center lies inside the other's
    y-extent and their x-extents do not overlap (horizontally disjoint
    pieces of one vertical band). A merge is BLOCKED when a column
    separator lies in the x-gap between the two pieces (the
    reference's "blocked by seps" rule, common.py:940-948;
    ``sep_cols`` = bool per x). Union-find over the O(L²) pairs —
    L is the per-page seed count, tens at most."""
    if ns < 2:
        return seed_lab
    sel = seed_lab > 0
    ls = seed_lab[sel]
    ys, xs = np.nonzero(sel)
    y0 = np.full(ns + 1, np.iinfo(np.int64).max, np.int64)
    y1 = np.full(ns + 1, -1, np.int64)
    x0 = np.full(ns + 1, np.iinfo(np.int64).max, np.int64)
    x1 = np.full(ns + 1, -1, np.int64)
    np.minimum.at(y0, ls, ys)
    np.maximum.at(y1, ls, ys)
    np.minimum.at(x0, ls, xs)
    np.maximum.at(x1, ls, xs)
    yc = (y0 + y1) / 2
    parent = list(range(ns + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, ns + 1):
        if y1[i] < 0:
            continue
        for j in range(i + 1, ns + 1):
            if y1[j] < 0:
                continue
            if not (y0[j] <= yc[i] <= y1[j] and y0[i] <= yc[j] <= y1[i]):
                continue  # not mutually centric vertically
            if x0[i] <= x1[j] and x0[j] <= x1[i]:
                continue  # x-overlap: genuinely stacked, keep split
            if sep_cols is not None:
                glo = int(min(x1[i], x1[j]))
                ghi = int(max(x0[i], x0[j]))
                if glo < ghi and sep_cols[glo : ghi + 1].any():
                    continue  # column separator between the pieces
            pi, pj = find(i), find(j)
            if pi != pj:
                parent[max(pi, pj)] = min(pi, pj)
    relabel = np.array([find(i) for i in range(ns + 1)], dtype=seed_lab.dtype)
    return relabel[seed_lab]


def segment_page_seeds(
    img: np.ndarray,
    *,
    min_line_h: int = 4,
    threshold: float = 0.2,
    vscale: float = 2.0,
    order: str = "xy",
    remove_separators: bool = False,
    fullpage: bool = False,
    maxcolseps: int = 3,
    csminheight: int = 10,
) -> list[tuple[int, int, int, int]]:
    """Seed-based line boxes: the reference's gradient-map pipeline
    (compute_gradmaps + compute_line_seeds + label spreading,
    /root/reference/ocrd_cis/ocropy/common.py:734-857,1104-1134),
    scipy-free and column-scan-free.

    Where the projection XY cut needs a full-width zero-ink row between
    lines, this finds BASELINE (bottom) and TOPLINE (top) gradient
    ridges per column and seeds the band between a topline above and
    the baseline below — so touching ascenders/descenders, which erase
    the projection gap but not the gradient ridges, still split.

    Steps (reference file:line in parens):
    1. scale = median glyph scale (psegutils.py:21-35);
    2. boxmap-cleaned ink: drop components outside (0.5, 4)·scale —
       rules/images/noise don't contribute gradients (common.py:755-757);
    3. y-derivative of Gaussian-smoothed ink → bottom/top maps
       (common.py:761-781);
    4. ridge marks = per-column local maxima over a 2σ window, kept
       above threshold, dilated 1×scale (compute_line_seeds
       common.py:803-816) — vectorized with sliding-extreme filters;
    5. seeds: between-marks test via per-column prefix/suffix scans
      (nearest mark above is a topline AND nearest below is a baseline
      within 5·scale — the robust transition rule, common.py:826-843 —
      plus a δ-band above every baseline), replacing the reference's
      per-x Python transition loop with 4 accumulates;
    6. open seeds (scale/2 × scale) to re-separate touching lines
       (common.py:850-851), label them (run-length union-find);
    7. assign ink components to seed labels by majority overlap,
       conflicted components keep the seed partition (the
       propagate/conflict/spread cascade, common.py:1117-1134);
    8. per-label ink bboxes → boxes, reading order like the XY path.
    """
    from .image_ops import (
        binarize_global,
        label_components,
        propagate_labels,
        propagate_labels_majority,
        r_dilation,
        r_opening,
        remove_separator_lines,
        spread_labels,
    )

    binary = binarize_global(img)
    fg0 = (binary < 128)
    scale = estimate_scale(fg0)
    if remove_separators:
        binary, _ = remove_separator_lines(binary, scale)
        fg0 = binary < 128
    h, w = fg0.shape
    if not fg0.any():
        return []

    # 2. boxmap cleaning: keep mid-sized components only
    labels, n = label_components(fg0)
    if n:
        sizes = np.bincount(labels.ravel())
        root = np.sqrt(sizes.astype(np.float64))
        keep = (root > 0.5 * scale) & (root < 4 * scale)
        keep[0] = False
        cleaned = keep[labels] & fg0
        if not cleaned.any():
            cleaned = fg0
    else:
        cleaned = fg0

    # 3. gradient maps: d/dy of smoothed ink
    smoothed = _gauss_blur(cleaned.astype(np.float64), max(4.0, 0.3 * scale), float(scale))
    grad = np.gradient(smoothed, axis=0)
    bottom = np.where(grad < 0, -grad, 0.0)
    top = np.where(grad > 0, grad, 0.0)
    if bottom.max() > 0:
        bottom = bottom / bottom.max()
    if top.max() > 0:
        top = top / top.max()

    # 4. ridge marks: per-column local maxima of each map
    from .image_ops import _sliding_extreme_1d

    vrange = _odd(vscale * scale)
    t2 = threshold * threshold  # reference squares the threshold
    bmark = (bottom >= _sliding_extreme_1d(bottom, vrange, 0, True)) & (bottom > t2)
    tmark = (top >= _sliding_extreme_1d(top, vrange, 0, True)) & (top > t2 / 2)
    bmark = r_dilation(bmark, (1, _odd(scale)))
    tmark = r_dilation(tmark, (1, _odd(scale)))

    # 5. between-marks seeds via prefix/suffix scans per column
    yy = np.broadcast_to(np.arange(h)[:, None], (h, w))
    NEG, POS = -h, 2 * h
    b_above = np.maximum.accumulate(np.where(bmark, yy, NEG), axis=0)
    t_above = np.maximum.accumulate(np.where(tmark, yy, NEG), axis=0)
    b_below = np.minimum.accumulate(np.where(bmark, yy, POS)[::-1], axis=0)[::-1]
    t_below = np.minimum.accumulate(np.where(tmark, yy, POS)[::-1], axis=0)[::-1]
    delta = max(3, int(scale))
    between = (t_above > b_above) & (b_below < t_below) & (b_below - t_above <= 5 * scale)
    near_base = (b_below < t_below) & (b_below - yy <= delta)
    seeds = between | near_base

    # fullpage: interrupt seeds at whitespace column separators before
    # labeling (compute_line_seeds' colseps gating, common.py:805-816,
    # 831-833) so lines never span a gutter
    sep_cols = None
    if fullpage:
        colseps = compute_colseps(fg0, scale, maxcolseps=maxcolseps, csminheight=csminheight)
        if colseps.any():
            seeds &= ~colseps
            sep_cols = colseps.any(axis=0)

    # 6. open to re-separate touching lines, then label
    seeds = r_opening(seeds.astype(np.uint8), (_odd(scale / 2), _odd(scale))).astype(bool)
    seed_lab, ns = label_components(seeds)
    seed_lab = _hmerge_seed_labels(seed_lab, ns, sep_cols)
    ns = int(seed_lab.max())
    if ns == 0:
        # degenerate page (e.g. one huge blob): fall back to one box
        nz_r = np.flatnonzero(fg0.any(axis=1))
        nz_c = np.flatnonzero(fg0.any(axis=0))
        return [(int(nz_r[0]), int(nz_r[-1]) + 1, int(nz_c[0]), int(nz_c[-1]) + 1)]

    # 7. assign ink to seed labels (majority; conflicts keep seed split)
    lab_maj = propagate_labels_majority(fg0, seed_lab)
    lab_uni = propagate_labels(fg0, seed_lab, conflict=0)
    conflicts = lab_maj > lab_uni  # conflicted components: uni==0 < maj
    lab = np.where(conflicts, seed_lab, lab_maj)
    # capture stragglers (diacritics etc.) near existing labels
    spread = spread_labels(np.where(lab > 0, lab, seed_lab), maxdist=max(1, scale // 2))
    lab = np.where(fg0, np.where(lab > 0, lab, spread), 0)

    # 8. per-label ink bboxes (vectorized scatter-min/max)
    sel = lab > 0
    if not sel.any():
        return []
    ls = lab[sel]
    ys, xs = np.nonzero(sel)
    nl = int(ls.max())
    y0 = np.full(nl + 1, h, np.int64)
    y1 = np.full(nl + 1, -1, np.int64)
    x0 = np.full(nl + 1, w, np.int64)
    x1 = np.full(nl + 1, -1, np.int64)
    np.minimum.at(y0, ls, ys)
    np.maximum.at(y1, ls, ys)
    np.minimum.at(x0, ls, xs)
    np.maximum.at(x1, ls, xs)
    boxes = [
        (int(y0[i]), int(y1[i]) + 1, int(x0[i]), int(x1[i]) + 1)
        for i in range(1, nl + 1)
        if y1[i] >= 0 and (y1[i] + 1 - y0[i]) >= min_line_h
    ]
    boxes.sort(key=lambda b: (b[0], b[2]))
    if order == "topological" and len(boxes) > 1:
        boxes = [boxes[i] for i in reading_order(boxes)]
    return boxes


# the XY cut's defaults (``segment_page``, ``segment_stack``)
MIN_LINE_GAP, MIN_COL_GAP, MIN_LINE_H = 3, 20, 4


def _xy_cut(fg: np.ndarray, rows: np.ndarray, cols: np.ndarray, min_line_gap: int, min_col_gap: int, min_line_h: int) -> list[tuple[int, int, int, int]]:
    """Line boxes (y0, y1, x0, x1) of one page's ink mask ``fg`` (with
    its row and column ink profiles) by recursive XY cut, depth-first,
    which is reading order.

    Each pending box carries its row and column profiles. Trimming a
    box to its ink slices them (the cut rows and columns hold no ink),
    and the trimmed box goes straight on to the gap search. A band of
    a horizontal cut keeps its slice of the row profile, so only its
    column profile is summed anew (and the converse for a vertical
    cut). The pending boxes sit on a LIFO stack, children pushed
    last-first, which visits them in the recursion's order."""
    out: list[tuple[int, int, int, int]] = []
    h, w = fg.shape
    todo = [((0, h, 0, w), "v", rows, cols)]
    while todo:
        box, axis, rows, cols = todo.pop()
        y0, y1, x0, x1 = box
        nz_r = np.flatnonzero(rows)
        if len(nz_r) == 0:
            continue
        nz_c = np.flatnonzero(cols)
        ty0, ty1 = y0 + nz_r[0], y0 + nz_r[-1] + 1
        tx0, tx1 = x0 + nz_c[0], x0 + nz_c[-1] + 1
        if (ty0, ty1, tx0, tx1) != (y0, y1, x0, x1):  # cut to the ink (trimming it again is a no-op)
            box = y0, y1, x0, x1 = ty0, ty1, tx0, tx1
            rows, cols = rows[nz_r[0] : nz_r[-1] + 1], cols[nz_c[0] : nz_c[-1] + 1]
        if axis == "h":
            gaps = _gaps(rows, min_line_gap)
            if gaps:
                bands, prev = [], y0
                for gy0, gy1 in gaps + [(y1 - y0, None)]:
                    band = fg[prev : y0 + gy0, x0:x1]
                    bands.append(((prev, y0 + gy0, x0, x1), "v", rows[prev - y0 : gy0], band.sum(axis=0)))
                    if gy1 is not None:
                        prev = y0 + gy1
                todo.extend(reversed(bands))
            elif _gaps(cols, min_col_gap):  # no horizontal gap: try vertical before declaring a leaf
                todo.append((box, "v", rows, cols))
            elif y1 - y0 >= min_line_h:
                out.append(box)
            continue
        # vertical (column) cut: left-to-right
        vgaps = _gaps(cols, min_col_gap)
        if vgaps:
            bands, prev = [], x0
            for gx0, gx1 in vgaps + [(x1 - x0, None)]:
                band = fg[y0:y1, prev : x0 + gx0]
                bands.append(((y0, y1, prev, x0 + gx0), "h", band.sum(axis=1), cols[prev - x0 : gx0]))
                if gx1 is not None:
                    prev = x0 + gx1
            todo.extend(reversed(bands))
        elif _gaps(rows, min_line_gap):  # no column gap: fall back to horizontal
            todo.append((box, "h", rows, cols))
        elif y1 - y0 >= min_line_h:
            out.append(box)
    return out


def segment_stack(stack: np.ndarray, hs: np.ndarray, ws: np.ndarray) -> list[list[tuple[int, int, int, int]]]:
    """``segment_page``'s default XY cut over every page of a
    white-padded uint8 stack: one input pass, one ink mask and one pair
    of profile sums for the whole stack (padding holds no ink), then
    the recursion per page."""
    fg = binarize_stack(stack, hs, ws) < 128
    rows, cols = (np.add.reduce(fg.view(np.uint8), axis=a, dtype=np.int32) for a in (2, 1))
    return [
        _xy_cut(fg[p, :h, :w], rows[p, :h], cols[p, :w], MIN_LINE_GAP, MIN_COL_GAP, MIN_LINE_H)
        for p, (h, w) in enumerate(zip(hs.tolist(), ws.tolist()))
    ]


def segment_page(
    img: np.ndarray, *, min_line_gap: int | str = MIN_LINE_GAP, min_col_gap: int = MIN_COL_GAP, min_line_h: int = MIN_LINE_H, order: str = "xy", remove_separators: bool = False, method: str = "xy", fullpage: bool = False
) -> list[tuple[int, int, int, int]]:
    """Line boxes (y0, y1, x0, x1) in reading order via recursive XY cut.

    ``min_line_gap="auto"`` derives the gap threshold from the page's
    character scale (median CC size — psegutils estimate_scale), so
    dense small print and loose large print segment with the same
    config. ``order="topological"`` re-sorts the leaf boxes with the
    x-overlap/above/left-of partial order (psegutils reading_order)
    instead of the depth-first XY order — needed for marginalia and
    skewed multi-column layouts. ``method="seeds"`` switches to the
    gradient-seed line finder (segment_page_seeds) which splits
    touching lines the projection cut cannot."""
    if method == "seeds":
        return segment_page_seeds(
            img,
            min_line_h=min_line_h,
            order=order,
            remove_separators=remove_separators,
            fullpage=fullpage,
        )
    binary = binarize_global(img)
    if remove_separators:
        # paint out long black rules (column dividers / hrules) so the
        # whitespace-gap cuts can see through them (remove_hlines +
        # separator semantics, common.py:512-519)
        from .image_ops import remove_separator_lines

        fg0 = binary < 128
        binary, _ = remove_separator_lines(binary, estimate_scale(fg0))
    fg = binary < 128
    if min_line_gap == "auto":
        # inter-line white gaps scale with the glyph size; ~1/3 of the
        # median character scale separates lines without splitting
        # tall glyphs at their waist
        min_line_gap = max(2, estimate_scale(fg) // 3)
    out = _xy_cut(fg, fg.sum(axis=1), fg.sum(axis=0), min_line_gap, min_col_gap, min_line_h)
    if order == "topological" and len(out) > 1:
        out = [out[i] for i in reading_order(out)]
    return out


def line_polygon(img: np.ndarray, box: tuple[int, int, int, int], scale: int) -> list[tuple[int, int]]:
    """Outline polygon of one line box's ink, absolute page coords.

    The reference's line polygons come from masks2polygons over the
    SPREAD line labels — contiguous per-line blobs, not raw glyph ink
    (segment.py:58-135 applied at :486-520). The analog here: close the
    box's ink horizontally (bridging inter-glyph and inter-word gaps,
    like label spreading does) and trace the outer contour of the
    resulting blob; reading-first polygon wins when the closing leaves
    several parts."""
    from .image_ops import r_closing

    y0, y1, x0, x1 = box
    fg = img[y0:y1, x0:x1] < 128
    if not fg.any():
        return []
    closed = r_closing(fg, (1, _odd(4 * max(2, scale)))) | fg
    labels = closed.astype(np.int32)  # single label: the line blob(s)
    polys, _ = masks_to_polygons(labels, fg)
    if not polys:
        return []
    return [(int(x + x0), int(y + y0)) for x, y in polys[0][1]]


_POLY_TYPE = pa.list_(pa.struct([("x", pa.int32()), ("y", pa.int32())]))


def polygon_to_arrow(poly: list[tuple[int, int]]) -> list[dict]:
    return [{"x": int(x), "y": int(y)} for x, y in poly]


def segment_pages_batch(batch: pa.Table, *, emit_regions: bool = False, emit_polygons: bool = False, **params) -> pa.Table:
    """Page-media rows -> line-media rows in reading order.

    Input: (doc_id, span_id, media_ref, features, pixels) page images.
    Output: one row per detected line with the cropped payload, box
    coords, and a reading-order line index (the `offset` analog).
    ``emit_regions=True`` additionally groups the lines into text
    regions (lines_to_regions RXYC) and adds a ``region_no`` column —
    the reference's region level of the PAGE hierarchy.
    ``emit_polygons=True`` adds a ``polygon: list<struct<x,y>>`` column
    with each line's ink outline in absolute page coordinates (the
    Coords element of the PAGE hierarchy, reference masks2polygons
    segment.py:58-135).
    """
    out = {
        "doc_id": [],
        "span_id": [],
        "media_ref": [],
        "features": [],
        "line_no": [],
        "region_no": [],
        "y0": [],
        "y1": [],
        "x0": [],
        "x1": [],
        "pixels": [],
        "polygon": [],
    }
    ids = batch["doc_id"].to_pylist()
    spans = batch["span_id"].to_pylist()
    refs = batch["media_ref"].to_pylist()
    feats = batch["features"].to_pylist()
    pixels = batch["pixels"].to_pylist()
    for did, sid, ref, feat, buf in zip(ids, spans, refs, feats, pixels):
        try:
            img = decode_gray(buf)
            boxes = segment_page(img, **params)
        except Exception:
            boxes = []  # log-and-skip (segment.py:486-493 fallback spirit)
        regions = lines_to_regions(boxes) if emit_regions and boxes else [0] * len(boxes)
        scale = estimate_scale(img < 128) if (emit_polygons and boxes) else 0
        for ln, (y0, y1, x0, x1) in enumerate(boxes):
            out["doc_id"].append(did)
            out["span_id"].append(f"{sid}/line-{ln}")
            out["media_ref"].append(f"{ref}#l{ln}")
            out["features"].append(feat)
            out["line_no"].append(ln)
            out["region_no"].append(regions[ln])
            out["y0"].append(y0)
            out["y1"].append(y1)
            out["x0"].append(x0)
            out["x1"].append(x1)
            out["pixels"].append(encode_gray(img[y0:y1, x0:x1]))
            if emit_polygons:
                out["polygon"].append(
                    polygon_to_arrow(line_polygon(img, (y0, y1, x0, x1), scale))
                )
    cols = {
        "doc_id": pa.array(out["doc_id"]),
        "span_id": pa.array(out["span_id"], pa.string()),
        "media_ref": pa.array(out["media_ref"], pa.string()),
        "features": pa.array(out["features"], pa.string()),
        "line_no": pa.array(np.array(out["line_no"], np.int32)),
        "y0": pa.array(np.array(out["y0"], np.int32)),
        "y1": pa.array(np.array(out["y1"], np.int32)),
        "x0": pa.array(np.array(out["x0"], np.int32)),
        "x1": pa.array(np.array(out["x1"], np.int32)),
        "pixels": pa.array(out["pixels"], pa.large_binary()),
    }
    if emit_regions:
        cols["region_no"] = pa.array(np.array(out["region_no"], np.int32))
    if emit_polygons:
        cols["polygon"] = pa.array(out["polygon"], _POLY_TYPE)
    return pa.table(cols)


def segment_pages(ds, **params):
    from functools import partial

    return ds.map_batches(
        partial(segment_pages_batch, **params), batch_format="pyarrow", batch_size=16
    )


# ---------------------------------------------------------------------------
# resegment: line box re-estimation (reference ocrd_cis/ocropy/resegment.py:57
# — replace each TextLine's polygon with the best-overlapping line of a
# fresh segmentation of its surroundings)


def resegment_rows_batch(batch: pa.Table, *, min_line_h: int = 4) -> pa.Table:
    """Re-estimate each line row's box against a fresh segmentation of
    its own crop: re-segment the (possibly preprocessed) crop, keep the
    line with the largest overlap against the current box (the
    reference's best-match polygon replacement; extra detected lines
    are dropped, a failed re-segmentation keeps the original box), and
    tighten coordinates to it. Appends the 'resegmented' lineage tag."""
    from .image_ops import add_feature

    pixels = batch["pixels"].to_pylist()
    feats = batch["features"].to_pylist()
    y0s = batch["y0"].to_pylist()
    y1s = batch["y1"].to_pylist()
    x0s = batch["x0"].to_pylist()
    x1s = batch["x1"].to_pylist()
    out_px, out_feat = [], []
    out_y0, out_y1, out_x0, out_x1 = [], [], [], []
    for buf, feat, oy0, oy1, ox0, ox1 in zip(pixels, feats, y0s, y1s, x0s, x1s):
        try:
            img = decode_gray(buf)
            boxes = segment_page(img, min_line_h=min_line_h)
            if not boxes:
                raise ValueError("no line found")
            # best overlap vs the full crop = largest area box
            areas = [(y1 - y0) * (x1 - x0) for (y0, y1, x0, x1) in boxes]
            by0, by1, bx0, bx1 = boxes[int(np.argmax(areas))]
            out_px.append(encode_gray(img[by0:by1, bx0:bx1]))
            out_feat.append(add_feature(feat, "resegmented"))
            out_y0.append(oy0 + by0)
            out_y1.append(oy0 + by1)
            out_x0.append(ox0 + bx0)
            out_x1.append(ox0 + bx1)
        except Exception:
            # keep the original box + payload (log-and-skip parity)
            out_px.append(buf)
            out_feat.append(feat)
            out_y0.append(oy0)
            out_y1.append(oy1)
            out_x0.append(ox0)
            out_x1.append(ox1)
    cols = {n: batch[n] for n in batch.column_names}
    cols["pixels"] = pa.array(out_px, pa.large_binary())
    cols["features"] = pa.array(out_feat, pa.string())
    cols["y0"] = pa.array(np.array(out_y0, np.int32))
    cols["y1"] = pa.array(np.array(out_y1, np.int32))
    cols["x0"] = pa.array(np.array(out_x0, np.int32))
    cols["x1"] = pa.array(np.array(out_x1, np.int32))
    return pa.table(cols)


def resegment_rows(ds, **params):
    from functools import partial

    return ds.map_batches(
        partial(resegment_rows_batch, **params), batch_format="pyarrow", batch_size=64
    )


# ---------------------------------------------------------------------------
# page-level resegment: baseline/ccomps-style line polygon recompute
# (reference resegment.py:181-279 + spread_dist :416-467) — existing
# (coarse, possibly shifted) line boxes compete for the page's connected
# components by mask depth, winners are spread into the background, and
# each line's coordinates are replaced by the contour hull of its spread
# region when the fg/bg overlap with the old mask is sufficient.


def _convex_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain convex hull of (x, y) points, counter-clockwise —
    the engine's join for multi-part line regions (the reference joins
    assigned contours into one hull polygon, resegment.py:479-515)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def resegment_page(
    img: np.ndarray,
    boxes: list[tuple[int, int, int, int]],
    *,
    threshold: float = 0.9,
    min_comp: int = 4,
) -> list[tuple[bool, list[tuple[int, int]], tuple[int, int, int, int]]]:
    """Recompute line polygons for existing (coarse) ``boxes`` against a
    fresh component analysis of the page (the reference's `ccomps`
    method, resegment.py:239-261 + spread_dist :416-467):

    1. depth-flatten the overlapping line masks — per-line chessboard
       distance transform, normalized so large lines do not displace
       small ones, argmax wins (resegment.py:253-259);
    2. propagate the flattened seeds to the foreground connected
       components by majority overlap (spread_dist :423);
    3. spread the labels into the background up to scale/2 (:425);
    4. accept a line's new region only if it covers ≥ threshold/3 of
       the old mask's area AND ≥ threshold of the old mask's
       foreground; contour-hull it (:432-463), else keep the old box.

    Returns one (accepted, polygon, (y0, y1, x0, x1)) per input box;
    polygon vertices are absolute (x, y) page coordinates.
    """
    from .image_ops import dist_labels, label_components, propagate_labels_majority, spread_labels

    h, w = img.shape
    fg = img < 128
    comps, n_comps = label_components(fg)
    if n_comps:
        # ignore the smallest components like punctuation (:422, and the
        # size gate `counts > 15/zoom` in :247)
        counts = np.bincount(comps.ravel(), minlength=n_comps + 1)
        comps = comps * (counts > min_comp)[comps]
    scale = estimate_scale(fg)

    # depth-flattened seed labels over the (overlapping) old masks —
    # running max/argmax over two (h, w) planes instead of an
    # (n_boxes+1, h, w) stack (identical result: strict > replicates
    # np.argmax's first-index-wins tie-break; ~n_boxes/2 less memory,
    # which matters at batch_size pages per task on 300-dpi scans)
    best_depth = np.zeros((h, w), np.float32)
    new_labels = np.zeros((h, w), np.int32)
    for i, (y0, y1, x0, x1) in enumerate(boxes):
        m = np.zeros((h, w), bool)
        m[max(0, y0) : max(0, y1), max(0, x0) : max(0, x1)] = True
        d = dist_labels(m).astype(np.float32)
        peak = d.max()
        if peak > 0:
            d *= 255.0 / peak
            win = d > best_depth
            best_depth[win] = d[win]
            new_labels[win] = i + 1
    del best_depth

    new_labels = propagate_labels_majority(comps > 0, new_labels)
    new_labels = spread_labels(new_labels, maxdist=max(1, scale // 2))

    out: list[tuple[bool, list[tuple[int, int]], tuple[int, int, int, int]]] = []
    for i, (y0, y1, x0, x1) in enumerate(boxes):
        old = np.zeros((h, w), bool)
        old[max(0, y0) : max(0, y1), max(0, x0) : max(0, x1)] = True
        box_poly = [(x0, y0), (x1 - 1, y0), (x1 - 1, y1 - 1), (x0, y1 - 1)]
        new = new_labels == i + 1
        n_old = int(np.count_nonzero(old))
        if not n_old or np.array_equal(new, old):
            out.append((False, box_poly, (y0, y1, x0, x1)))
            continue
        covers_bg = np.count_nonzero(new) / n_old
        n_old_fg = int(np.count_nonzero(old & fg))
        if covers_bg < threshold / 3 or not n_old_fg:
            out.append((False, box_poly, (y0, y1, x0, x1)))
            continue
        covers_fg = np.count_nonzero(new & fg) / n_old_fg
        if covers_fg < threshold:
            out.append((False, box_poly, (y0, y1, x0, x1)))
            continue
        parts, n_parts = label_components(new)
        pts: list[tuple[int, int]] = []
        poly: list[tuple[int, int]] = []
        if n_parts == 1:
            poly = _compress_collinear(trace_outer_contour(new))
        elif n_parts > 1:
            for p in range(1, n_parts + 1):
                pts.extend(trace_outer_contour(parts == p))
            poly = _convex_hull(pts)
        if len(poly) < 4:
            out.append((False, box_poly, (y0, y1, x0, x1)))
            continue
        ys, xs2 = np.nonzero(new)
        nb = (int(ys.min()), int(ys.max()) + 1, int(xs2.min()), int(xs2.max()) + 1)
        out.append((True, poly, nb))
    return out


def resegment_pages_batch(batch: pa.Table, *, threshold: float = 0.9) -> pa.Table:
    """Page rows + coarse line boxes -> line rows with recomputed
    polygons. Input: (doc_id, span_id, media_ref, features, pixels)
    page images plus a ``lines`` column (list<struct<y0,y1,x0,x1>> of
    the existing segmentation). Output: one row per input line with
    (accepted, polygon, tightened box, cropped payload); rejected lines
    keep their original coordinates — the reference's 'not all existing
    lines might have been resegmented' contract (resegment.py:80-96)."""
    out: dict[str, list] = {
        "doc_id": [], "span_id": [], "media_ref": [], "features": [],
        "line_no": [], "accepted": [], "y0": [], "y1": [], "x0": [], "x1": [],
        "pixels": [], "polygon": [],
    }
    from .image_ops import add_feature

    ids = batch["doc_id"].to_pylist()
    spans = batch["span_id"].to_pylist()
    refs = batch["media_ref"].to_pylist()
    feats = batch["features"].to_pylist()
    pixels = batch["pixels"].to_pylist()
    lines_col = batch["lines"].to_pylist()
    for did, sid, ref, feat, buf, lines in zip(ids, spans, refs, feats, pixels, lines_col):
        boxes = [(int(b["y0"]), int(b["y1"]), int(b["x0"]), int(b["x1"])) for b in (lines or [])]
        if not boxes:
            continue
        try:
            img = decode_gray(buf)
            results = resegment_page(img, boxes, threshold=threshold)
        except Exception:
            results = [
                (False, [(x0, y0), (x1 - 1, y0), (x1 - 1, y1 - 1), (x0, y1 - 1)], (y0, y1, x0, x1))
                for (y0, y1, x0, x1) in boxes
            ]
            img = None
        for ln, (acc, poly, (y0, y1, x0, x1)) in enumerate(results):
            out["doc_id"].append(did)
            out["span_id"].append(f"{sid}/line-{ln}")
            out["media_ref"].append(f"{ref}#l{ln}")
            out["features"].append(add_feature(feat, "resegmented") if acc else feat)
            out["line_no"].append(ln)
            out["accepted"].append(acc)
            out["y0"].append(y0)
            out["y1"].append(y1)
            out["x0"].append(x0)
            out["x1"].append(x1)
            out["pixels"].append(
                encode_gray(img[y0:y1, x0:x1]) if img is not None else b""
            )
            out["polygon"].append(polygon_to_arrow(poly))
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"]),
            "span_id": pa.array(out["span_id"], pa.string()),
            "media_ref": pa.array(out["media_ref"], pa.string()),
            "features": pa.array(out["features"], pa.string()),
            "line_no": pa.array(np.array(out["line_no"], np.int32)),
            "accepted": pa.array(out["accepted"], pa.bool_()),
            "y0": pa.array(np.array(out["y0"], np.int32)),
            "y1": pa.array(np.array(out["y1"], np.int32)),
            "x0": pa.array(np.array(out["x0"], np.int32)),
            "x1": pa.array(np.array(out["x1"], np.int32)),
            "pixels": pa.array(out["pixels"], pa.large_binary()),
            "polygon": pa.array(out["polygon"], _POLY_TYPE),
        }
    )


def resegment_pages(ds, **params):
    """Page-level resegment as an actor-friendly batch stage (media
    payloads: small batches, vectorized kernels inside)."""
    from functools import partial

    return ds.map_batches(
        partial(resegment_pages_batch, **params), batch_format="pyarrow", batch_size=16
    )
