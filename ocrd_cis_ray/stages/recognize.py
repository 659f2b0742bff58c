"""Line recognition — a stateful stage run as plain tasks.

The reference loads a pickled BIDILSTM once per processor in setup()
(ocrd_cis/ocropy/recognize.py:94-102) and then recognizes line images
sequentially, splitting results into words/glyphs with positions and
confidences (recognize.py:237-302). Two model paths:

- ``model_path=...``: a pickled numpy BIDILSTM+CTC model
  (stages/lstm.py — real forward pass, translate_back decoding, codec)
  matching the reference's recognition semantics;
- default: a deterministic glyph-template bank matching the synthetic
  renderer (sources/media.py) — exact goldens for the oracle queries.

The Ray-side shape is the same for both: ``recognize_lines`` ships the
constructor kwargs once with ``ray.put``, each worker process builds the
``Recognizer`` at most once per call (``postcorrect.worker_state``), and
``__call__`` maps batches of line images as plain ``map_batches`` tasks.

Confidence semantics copied from the reference:
- glyph conf = per-char match score (recognize.py:267-268 TextEquiv conf)
- word conf = (min+max)/2 of its glyph confs (recognize.py:263-265)
- line conf = mean of glyph confs
- line -> words split on spaces (recognize.py:237)

``emit_glyphs=True`` additionally surfaces one glyph row per character
with its x position and confidence — the reference's Glyph elements
with per-char coords + conf (recognize.py:267-302); the LSTM path's
per-char positions come straight from CTC alignment (lstm.py
translate_back), the template path's from the glyph grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa

from ..sources.media import GLYPH_H, GLYPH_W, PAD_X, PAD_Y, _glyph, decode_gray

CHARSET = [chr(c) for c in range(32, 127)]
# cells per matmul slice of ``match_lines``
_SCORE_ROWS = 4096


def _bbox_poly(x0, y0, x1, y1) -> list[dict]:
    """4-point bbox polygon, reference polygon_from_bbox order
    [[x0,y0],[x1,y0],[x1,y1],[x0,y1]] — the Coords the reference
    attaches to every Word and Glyph (recognize.py:271-302: word bbox =
    glyph-extent x full line height)."""
    return [
        {"x": int(x0), "y": int(y0)},
        {"x": int(x1), "y": int(y0)},
        {"x": int(x1), "y": int(y1)},
        {"x": int(x0), "y": int(y1)},
    ]


@lru_cache(maxsize=1)
def template_bank() -> tuple[np.ndarray, np.ndarray]:
    """(templates, norms): one 0/1 float64 row of (GLYPH_H-4)·(GLYPH_W-2)
    glyph pixels per CHARSET entry (the space is all zero), built once
    per process; the norms are floored at 1e-9."""
    gh, gw = GLYPH_H - 4, GLYPH_W - 2
    templates = np.stack(
        [np.zeros(gh * gw) if ch == " " else _glyph(ch).astype(np.float64).ravel() for ch in CHARSET]
    )
    templates.setflags(write=False)
    return templates, np.maximum(np.linalg.norm(templates, axis=1), 1e-9)


def match_lines(lines: list[np.ndarray]) -> list[tuple[str, np.ndarray, int]]:
    """Template recognition of uint8 line images: per line (text, the
    confidences of its cells from the first inked one, that cell's grid
    x origin). Every cell of every line is matched against the
    ``template_bank`` in one matmul.

    Per line: the glyph grid's x phase is the offset whose cell MARGIN
    columns carry the least ink (a stray speck before the first glyph
    cannot shift it; clean render: exactly zero), and its row is the
    8-row window holding the most ink. Leading empty cells are dropped
    (a lone speck can pull the ink bbox left of the first glyph; GT
    lines never start with spaces), an empty cell reads as a space of
    confidence 1, and trailing spaces are stripped.

    The lines are padded white into one (lines, h, w) stack: padding
    adds no ink, so no phase, window or cell changes, and the 0/1 dot
    products are exact integers, so each cell's scores are the ones it
    gets on its own."""
    gh, gw = GLYPH_H - 4, GLYPH_W - 2
    n_lines = len(lines)
    if n_lines == 0:
        return []
    templates, tnorm = template_bank()
    hmax = max(gh, max(im.shape[0] for im in lines))
    wmax = -(-(max(im.shape[1] for im in lines) + GLYPH_W) // GLYPH_W) * GLYPH_W
    stack = np.full((n_lines, hmax, wmax), 255, np.uint8)
    for out, im in zip(stack, lines):
        out[: im.shape[0], : im.shape[1]] = im
    fg = stack < 128
    del stack
    col_ink, row_ink = (np.add.reduce(fg.view(np.uint8), axis=a, dtype=np.int32) for a in (1, 2))
    inked = col_ink.any(axis=1)
    first_col = np.argmax(col_ink > 0, axis=1)
    last_col = wmax - 1 - np.argmax(col_ink[:, ::-1] > 0, axis=1)
    # ink per phase class, margin score = own + previous class
    per_mod = col_ink.reshape(n_lines, -1, GLYPH_W).sum(axis=1)
    phase = np.argmin(per_mod + np.roll(per_mod, 1, axis=1), axis=1)
    x_base = (first_col - 1) - ((first_col - 1 - phase) % GLYPH_W)
    x_base = np.where(x_base < -1, x_base + GLYPH_W, x_base)  # never slice before the image
    csum = np.concatenate([np.zeros((n_lines, 1), np.int64), np.cumsum(row_ink, axis=1)], axis=1)
    y0 = np.argmax(csum[:, gh:] - csum[:, :-gh], axis=1)
    n_cells = np.where(inked, (last_col - x_base) // GLYPH_W + 1, 0)
    # every cell of the batch in one gather from the (gh, gw) windows
    line_of = np.repeat(np.arange(n_lines), n_cells)
    cell_of = np.arange(len(line_of)) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
    windows = np.lib.stride_tricks.sliding_window_view(fg, (gh, gw), axis=(1, 2))
    cells = windows[line_of, y0[line_of], x_base[line_of] + 1 + cell_of * GLYPH_W].reshape(-1, gh * gw)
    cnorm = np.sqrt(np.count_nonzero(cells, axis=1).astype(np.float64))
    # scores in slices of cells, to bound the (cells, templates) temporaries
    best = np.empty(len(cells), np.intp)
    confs = np.empty(len(cells))
    for lo in range(0, len(cells), _SCORE_ROWS):
        sims = cells[lo : lo + _SCORE_ROWS].astype(np.float64) @ templates.T
        sims /= np.maximum(cnorm[lo : lo + _SCORE_ROWS, None], 1e-9) * tnorm[None, :]
        best[lo : lo + len(sims)] = np.argmax(sims, axis=1)
        confs[lo : lo + len(sims)] = sims[np.arange(len(sims)), best[lo : lo + len(sims)]]
    empty = cnorm < 1e-9
    confs[empty] = 1.0
    chars = np.where(empty, " ", np.asarray(CHARSET)[best]).tolist()
    ends = np.cumsum(n_cells)
    starts = ends - n_cells
    # each line's first inked cell (the sentinel: none)
    inked_cells = np.append(np.flatnonzero(~empty), len(empty))
    firsts = inked_cells[np.searchsorted(inked_cells, starts)]
    out = []
    for lo, s, hi, xb in zip(starts.tolist(), firsts.tolist(), ends.tolist(), x_base.tolist()):
        if s >= hi:
            out.append(("", confs[:0], 0))
        else:
            out.append(("".join(chars[s:hi]).rstrip(), confs[s:hi], xb + (s - lo) * GLYPH_W))
    return out


class Recognizer:
    """Batch callable: media line rows -> recognized text rows.

    Output columns: doc_id, span_id, text, conf:float32,
    words: list<struct<text, conf:float32, x0:int32,
    poly: list<struct<x:int32, y:int32>>>> — poly is the reference's
    Word/Glyph Coords bbox polygon (recognize.py:271-302).
    """

    def __init__(self, *, min_conf: float = 0.0, model_path: str | None = None, emit_glyphs: bool = False, text_only: bool = False):
        # "model load" once per instance: either a pickled numpy BIDILSTM
        # (the reference's load_object + walk/postLoad path,
        # recognize.py:94-102) or the deterministic template bank
        self.seq = None
        if model_path:
            from .lstm import SeqRecognizer

            self.seq = SeqRecognizer.load(model_path)
        self.min_conf = min_conf
        self.emit_glyphs = emit_glyphs
        # text_only: skip word/glyph (and polygon) assembly — the OCR
        # chain consumes only the line text; per-char dict building is
        # pure overhead there (measured ~+15% chain wall at sf0.1)
        self.text_only = text_only

    def recognize_line_lstm(self, img: np.ndarray) -> tuple[str, float, list[dict]]:
        """BIDILSTM + CTC path: predict, then split into words with
        positions and (min+max)/2 word confidences — the reference's
        word assembly over clist/rlist/confidlist (recognize.py:237-265)."""
        text, confs, positions = self.seq.predict_line(img)
        if self.text_only:
            line_conf = float(np.mean(confs)) if confs else 0.0
            return text.strip(), line_conf, [], []
        h = img.shape[0]
        glyphs = [
            {"text": ch, "conf": np.float32(cf), "x0": np.int32(px),
             "poly": _bbox_poly(px, 0, positions[k + 1] if k + 1 < len(positions) else px + 1, h)}
            for k, (ch, cf, px) in enumerate(zip(text, confs, positions))
        ]
        words = []
        i, n = 0, len(text)
        while i < n:
            if text[i] == " ":
                i += 1
                continue
            j = i
            while j < n and text[j] != " ":
                j += 1
            wconfs = confs[i:j]
            wconf = float((min(wconfs) + max(wconfs)) / 2.0) if wconfs else 0.0
            words.append(
                {"text": text[i:j], "conf": np.float32(wconf), "x0": np.int32(positions[i]),
                 "poly": _bbox_poly(positions[i], 0, positions[j - 1] + 1, h)}
            )
            i = j
        line_conf = float(np.mean(confs)) if confs else 0.0
        return text.strip(), line_conf, words, glyphs

    def recognize_line(self, img: np.ndarray) -> tuple[str, float, list[dict]]:
        """``match_lines`` over this one line. Auto-locates the glyph
        grid from the ink, so it accepts both full renders (with
        margins) and segmentation crops (trimmed to ink) — segmentation
        output feeds straight in."""
        return self._template_result(*match_lines([img])[0], img.shape[0])

    def _template_result(self, text: str, confs: np.ndarray, x_base: int, h: int) -> tuple[str, float, list[dict]]:
        """(text, line conf, words, glyphs) of one ``match_lines``
        result for a line image of height ``h``."""
        if not text:
            return "", 0.0, [], []
        n = len(text)
        line_conf = float(confs[:n].mean())
        if self.text_only:
            return text, line_conf, [], []
        # glyph poly = its grid cell x full line height; word poly =
        # first-to-last glyph cell extent x full line height (reference
        # recognize.py:271-302 bbox Coords, on the template grid)
        glyphs = [
            {"text": text[i], "conf": np.float32(confs[i]), "x0": np.int32(x_base + i * GLYPH_W),
             "poly": _bbox_poly(x_base + i * GLYPH_W, 0, x_base + (i + 1) * GLYPH_W, h)}
            for i in range(len(text))
        ]
        # word split with positions + (min+max)/2 confidences
        words = []
        i = 0
        while i < n:
            if text[i] == " ":
                i += 1
                continue
            j = i
            while j < n and text[j] != " ":
                j += 1
            wconfs = confs[i:j]
            wconf = float((wconfs.min() + wconfs.max()) / 2.0) if len(wconfs) else 0.0
            words.append(
                {"text": text[i:j], "conf": np.float32(wconf), "x0": np.int32(x_base + i * GLYPH_W),
                 "poly": _bbox_poly(x_base + i * GLYPH_W, 0, x_base + j * GLYPH_W, h)}
            )
            i = j
        return text, line_conf, words, glyphs

    def __call__(self, batch: pa.Table) -> pa.Table:
        # a line that fails to decode or recognize reads as empty
        # (log-and-skip, recognize.py:227-232); the template path matches
        # every decoded line of the batch in one ``match_lines`` call
        empty = ("", 0.0, [], [])
        imgs = []
        for buf in batch["pixels"].to_pylist():
            try:
                imgs.append(decode_gray(buf))
            except Exception:
                imgs.append(None)
        if self.seq is not None:
            rows = []
            for img in imgs:
                try:
                    rows.append(empty if img is None else self.recognize_line_lstm(img))
                except Exception:
                    rows.append(empty)
        else:
            matched = iter(match_lines([img for img in imgs if img is not None]))
            rows = [empty if img is None else self._template_result(*next(matched), img.shape[0]) for img in imgs]
        texts, confs, words_col, glyphs_col = ([row[i] for row in rows] for i in range(4))
        cols = {
            "doc_id": batch["doc_id"],  # preserve caller's id type
            "span_id": batch["span_id"],
            "text": pa.array(texts, pa.string()),
            "conf": pa.array(np.array(confs, dtype=np.float32)),
        }
        if not self.text_only:
            point_type = pa.struct([("x", pa.int32()), ("y", pa.int32())])
            word_type = pa.struct(
                [("text", pa.string()), ("conf", pa.float32()), ("x0", pa.int32()),
                 ("poly", pa.list_(point_type))]
            )
            cols["words"] = pa.array(words_col, pa.list_(word_type))
            if self.emit_glyphs:
                cols["glyphs"] = pa.array(glyphs_col, pa.list_(word_type))
        return pa.table(cols)


def recognize_lines(ds, *, batch_size: int = 64, model_path: str | None = None, emit_glyphs: bool = False):
    """Dataset wrapper: plain tasks with a once-per-worker ``Recognizer``.

    ``model_path`` selects the numpy BIDILSTM+CTC model (stages/lstm.py)
    — each worker process unpickles it once per call; the path string,
    not the weights, ships in the broadcast kwargs."""
    import ray
    from functools import partial

    from .postcorrect import _stage_batch

    state_ref = ray.put(((), {"model_path": model_path, "emit_glyphs": emit_glyphs}))
    return ds.map_batches(
        partial(_stage_batch, cls=Recognizer, state_ref=state_ref),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
