"""Differential test of the OCR task's page-stack kernels.

``degrade_stack``, ``binarize_stack``, ``despeckle_stack``,
``segment_stack`` and ``match_lines`` run over a white-padded stack of
pages of different sizes; ``ocr_pages`` chains them into the wide line
frame. Each is held to the per-page code they replaced, frozen below as
the oracle: one page (or one line) at a time, with no padding anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from ocrd_cis_ray.pipelines.ocr_chain import (
    _CHANNEL_CONFIGS,
    DEGRADE_SEED,
    compose_page,
    degrade_stack,
    ocr_pages,
    page_lines,
)
from ocrd_cis_ray.sources.media import GLYPH_H, GLYPH_W
from ocrd_cis_ray.stages.image_ops import binarize_stack, despeckle_stack, stack_pages
from ocrd_cis_ray.stages.recognize import CHARSET, match_lines, template_bank
from ocrd_cis_ray.stages.segment import segment_stack
from ocrd_cis_ray.util import stable_hash64

# ---------------------------------------------------------------------------
# the per-page oracle


def _oracle_degrade(img, did, source, noise, erode):
    img = img.copy()
    rng = np.random.default_rng((stable_hash64(f"{did}/{source}") ^ DEGRADE_SEED) & 0xFFFFFFFF)
    h, w = img.shape
    if erode > 0:
        ys, xs = np.nonzero(img < 128)
        drop = rng.random(len(ys)) < erode
        img[ys[drop], xs[drop]] = 255
    if noise > 0:
        k = 8 * noise
        ys = rng.integers(1, h - 1, size=k)
        xs = rng.integers(1, w - 1, size=k)
        white = img == 255
        ok = np.ones(k, dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ok &= white[ys + dy, xs + dx]
        placed = 0
        occupied = set()
        for y, x in zip(ys[ok].tolist(), xs[ok].tolist()):
            if placed >= noise:
                break
            if any((y + dy, x + dx) in occupied for dy in (-1, 0, 1) for dx in (-1, 0, 1)):
                continue
            img[y, x] = 0
            occupied.add((y, x))
            placed += 1
    return img


def _oracle_otsu(hist, edges):
    total = hist.sum()
    if total == 0:
        return 0.5
    centers = (edges[:-1] + edges[1:]) / 2
    w0 = np.cumsum(hist)
    w1 = total - w0
    m0 = np.cumsum(hist * centers)
    mt = m0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (mt - m0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1
    return float(centers[int(np.argmax(between))])


def _oracle_binarize(img):
    w = (255 - img) if img.mean() < 127.5 else img
    hist = np.bincount(w.ravel(), minlength=256).astype(np.float64)
    t = _oracle_otsu(hist, np.linspace(0.0, 1.0, 257))
    return np.where(w > t * 255.0, 255, 0).astype(np.uint8)


def _oracle_despeckle(img):
    fg = img < 128
    p = np.pad(fg, 1)
    nbr = p[:-2, 1:-1].astype(np.uint8) + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
    out = img.copy()
    out[fg & (nbr == 0)] = 255
    return out


def _oracle_gaps(profile, min_gap):
    gaps, start = [], None
    for i, b in enumerate(profile == 0):
        if b and start is None:
            start = i
        elif not b and start is not None:
            if i - start >= min_gap and start > 0:
                gaps.append((start, i))
            start = None
    return gaps


def _oracle_segment(img, min_line_gap=3, min_col_gap=20, min_line_h=4):
    if bool(((img == 0) | (img == 255)).all()):
        binary = img if img.mean() >= 127.5 else (255 - img)
    else:
        binary = _oracle_binarize(img)
    fg = binary < 128
    out = []

    def recurse(box, axis):
        y0, y1, x0, x1 = box
        sub = fg[y0:y1, x0:x1]
        rows, cols = sub.sum(axis=1), sub.sum(axis=0)
        nz_r, nz_c = np.flatnonzero(rows), np.flatnonzero(cols)
        if len(nz_r) == 0:
            return
        trimmed = (y0 + nz_r[0], y0 + nz_r[-1] + 1, x0 + nz_c[0], x0 + nz_c[-1] + 1)
        if trimmed != box:
            return recurse(trimmed, axis)
        if axis == "h":
            gaps = _oracle_gaps(rows, min_line_gap)
            if gaps:
                prev = y0
                for gy0, gy1 in gaps:
                    recurse((prev, y0 + gy0, x0, x1), "v")
                    prev = y0 + gy1
                return recurse((prev, y1, x0, x1), "v")
            if _oracle_gaps(cols, min_col_gap):
                return recurse(box, "v")
        else:
            vgaps = _oracle_gaps(cols, min_col_gap)
            if vgaps:
                prev = x0
                for gx0, gx1 in vgaps:
                    recurse((y0, y1, prev, x0 + gx0), "h")
                    prev = x0 + gx1
                return recurse((y0, y1, prev, x1), "h")
            if _oracle_gaps(rows, min_line_gap):
                return recurse(box, "h")
        if y1 - y0 >= min_line_h:
            out.append(box)

    recurse((0, img.shape[0], 0, img.shape[1]), "v")
    return out


def _oracle_recognize(img):
    templates, tnorm = template_bank()
    h, w = img.shape
    gh, gw = GLYPH_H - 4, GLYPH_W - 2
    fg = img < 128
    ink_cols = np.flatnonzero(fg.any(axis=0))
    if not fg.any():
        return ""
    col_ink = fg.sum(axis=0).astype(np.int64)
    per_mod = np.bincount(np.arange(w) % GLYPH_W, weights=col_ink, minlength=GLYPH_W)
    p = int(np.argmin(per_mod + np.roll(per_mod, 1)))
    fic = int(ink_cols[0])
    x_base = (fic - 1) - ((fic - 1 - p) % GLYPH_W)
    while x_base < -1:
        x_base += GLYPH_W
    win = np.convolve(fg.sum(axis=1).astype(np.int64), np.ones(gh, dtype=np.int64), mode="valid")
    y0 = int(np.argmax(win))
    n_cells = max(0, (int(ink_cols[-1]) - x_base) // GLYPH_W + 1)
    if n_cells == 0:
        return ""
    band = np.full((gh, n_cells * GLYPH_W), 255, dtype=img.dtype)
    src = img[y0 : y0 + gh, x_base + 1 : x_base + 1 + n_cells * GLYPH_W]
    band[: src.shape[0], : src.shape[1]] = src
    cells = (band.reshape(gh, n_cells, GLYPH_W)[:, :, :gw].transpose(1, 0, 2) < 128).reshape(n_cells, -1)
    cells = cells.astype(np.float64)
    cnorm = np.linalg.norm(cells, axis=1)
    nz = np.flatnonzero(cnorm)
    if len(nz) == 0:
        return ""
    cells, cnorm = cells[nz[0] :], cnorm[nz[0] :]
    sims = (cells @ templates.T) / (np.maximum(cnorm[:, None], 1e-9) * tnorm[None, :])
    best = np.argmax(sims, axis=1)
    return "".join(" " if c < 1e-9 else CHARSET[int(b)] for c, b in zip(cnorm, best)).rstrip()


def _oracle_channel(img, did, source, noise, erode):
    page = _oracle_despeckle(_oracle_binarize(_oracle_degrade(img, did, source, noise, erode)))
    return [_oracle_recognize(page[y0:y1, x0:x1]) for y0, y1, x0, x1 in _oracle_segment(page)]


def _oracle_wide(doc_ids, texts, pages):
    srcs = [c[0] for c in _CHANNEL_CONFIGS]
    chan = {
        s: {did: dict(enumerate(_oracle_channel(p, did, s, noise, erode))) for did, p in zip(doc_ids, pages)}
        for s, noise, erode in _CHANNEL_CONFIGS
    }
    rows = []
    for did, text in zip(doc_ids, texts):
        gl = page_lines(text)
        lns = set(range(len(gl))).union(*(chan[s][did].keys() for s in srcs))
        for ln in sorted(lns):
            rows.append({"doc_id": did, "line_no": ln, **{s: chan[s][did].get(ln, "") for s in srcs},
                         "GT": gl[ln] if ln < len(gl) else ""})
    return rows


# ---------------------------------------------------------------------------
# pages

_WORDS = ["ab", "cd", "efg", "hij", "k", "lmno", "pq", "rst", "uvw", "xyz", "Qu", "M.", "0-9"]


def _text(draw) -> str:
    return " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=30)))


@st.composite
def _page(draw):
    """(text, page): a rendered page, possibly inverted or grayed, or a
    blank, specks-only or random gray page of its own size."""
    text = _text(draw)
    kind = draw(st.sampled_from(["text", "text", "inverted", "gray", "blank", "specks", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind in ("text", "inverted", "gray"):
        page = compose_page(page_lines(text))
        if kind == "inverted":
            page = 255 - page
        elif kind == "gray":  # ink 0..110, paper 150..255: the full Otsu path
            page = np.where(page < 128, rng.integers(0, 111, page.shape), rng.integers(150, 256, page.shape))
        return text, page.astype(np.uint8)
    h, w = draw(st.integers(3, 60)), draw(st.integers(3, 120))
    page = np.full((h, w), 255, np.uint8)
    if kind == "specks":
        page[rng.integers(0, h, 20), rng.integers(0, w, 20)] = 0
    elif kind == "noise":
        page = rng.integers(0, 256, (h, w)).astype(np.uint8)
    return text, page


_batches = st.lists(_page(), min_size=1, max_size=4)


def _fixed(kind: str):
    """A one-line page beside a two-line page of longer lines: the small
    page gets padding on both axes."""
    pages = []
    for text in ("Qu M. 0-9 ab", "ab cd efg hij k lmno pq rst uvw xyz ab cd efg hij k lmno"):
        pages.append((text, compose_page(page_lines(text))))
    text, page = pages[0]
    if kind == "gray":
        rng = np.random.default_rng(1)
        page = np.where(page < 128, rng.integers(0, 111, page.shape), rng.integers(150, 256, page.shape))
    elif kind == "inverted":
        page = 255 - page
    pages[0] = (text, page.astype(np.uint8))
    return pages


def _ids(batch):
    return [f"d{i}-{len(t)}" for i, (t, _) in enumerate(batch)]


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=30, deadline=None)
@given(_batches)
@example(_fixed("gray"))
@example(_fixed("inverted"))
@example([("", np.full((40, 90), 255, np.uint8))])
def test_stack_kernels_match_the_per_page_kernels(batch):
    pages = [p for _, p in batch]
    doc_ids = _ids(batch)
    stack, hs, ws = stack_pages(pages)
    for source, noise, erode in _CHANNEL_CONFIGS:
        degraded = degrade_stack(stack, hs, ws, doc_ids, source, noise, erode, DEGRADE_SEED)
        binary = binarize_stack(degraded, hs, ws)
        clean, removed = despeckle_stack(binary)
        boxes = segment_stack(clean, hs, ws)
        for i, (page, did) in enumerate(zip(pages, doc_ids)):
            h, w = page.shape
            want = _oracle_degrade(page, did, source, noise, erode)
            assert np.array_equal(degraded[i, :h, :w], want)
            want = _oracle_binarize(want)
            assert np.array_equal(binary[i, :h, :w], want)
            want_clean = _oracle_despeckle(want)
            assert np.array_equal(clean[i, :h, :w], want_clean)
            assert removed[i] == int(((want < 128) & (want_clean == 255)).sum())
            assert boxes[i] == _oracle_segment(want_clean)
        # the padding stays white through every stage
        for s in (degraded, binary, clean):
            for i, (h, w) in enumerate(zip(hs, ws)):
                assert (s[i, h:] == 255).all() and (s[i, :, w:] == 255).all()
        crops = [clean[i, y0:y1, x0:x1] for i, bs in enumerate(boxes) for y0, y1, x0, x1 in bs]
        crops += [p for p in pages]  # whole pages as lines: margins, specks, gray
        got = [text for text, _, _ in match_lines(crops)]
        assert got == [_oracle_recognize(c) for c in crops]


@settings(max_examples=15, deadline=None)
@given(_batches)
@example(_fixed("gray"))
@example([("one page only", compose_page(page_lines("one page only")))])
def test_ocr_batch_matches_the_per_page_chain(batch):
    texts = [t for t, _ in batch]
    doc_ids = _ids(batch)
    got = ocr_pages(doc_ids, texts, *stack_pages([p for _, p in batch]))
    assert got.schema == pa.schema(
        [("doc_id", pa.string()), ("line_no", pa.int32()), ("OCR-1", pa.string()), ("OCR-2", pa.string()),
         ("GT", pa.string())]
    )
    assert got.to_pylist() == _oracle_wide(doc_ids, texts, [p for _, p in batch])
