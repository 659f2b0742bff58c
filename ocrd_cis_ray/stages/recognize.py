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

import numpy as np
import pyarrow as pa

from ..sources.media import GLYPH_H, GLYPH_W, PAD_X, PAD_Y, _glyph, decode_gray

CHARSET = [chr(c) for c in range(32, 127)]


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
        tmpls = []
        for ch in CHARSET:
            if ch == " ":
                tmpls.append(np.zeros((GLYPH_H - 4) * (GLYPH_W - 2), dtype=np.float64))
                continue
            tmpls.append(_glyph(ch).astype(np.float64).ravel())
        self.templates = np.stack(tmpls)  # (C, gh*gw)
        self.tnorm = np.maximum(np.linalg.norm(self.templates, axis=1), 1e-9)
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
        """Auto-locates the glyph grid from the ink bounding box, so it
        accepts both full renders (with margins) and segmentation crops
        (trimmed to ink) — segmentation output feeds straight in."""
        h, w = img.shape
        gh, gw = GLYPH_H - 4, GLYPH_W - 2
        fg = img < 128
        ink_rows = np.flatnonzero(fg.any(axis=1))
        ink_cols = np.flatnonzero(fg.any(axis=0))
        if len(ink_rows) == 0:
            return "", 0.0, [], []
        # noise-robust grid anchoring: a stray speck before the first
        # glyph shifts a first-ink-pixel anchor and garbles the whole
        # line. Instead: x phase = the grid offset whose cell MARGIN
        # columns carry the least ink (clean render: exactly zero);
        # y0 = the 8-row window holding the most ink.
        col_ink = fg.sum(axis=0).astype(np.int64)
        mods = np.arange(w) % GLYPH_W
        # ink per phase class, then margin score = own + previous class
        # (vectorized bincount replaces the per-phase mask loop)
        per_mod = np.bincount(mods, weights=col_ink, minlength=GLYPH_W)
        phase_scores = per_mod + np.roll(per_mod, 1)
        p = int(np.argmin(phase_scores))
        fic = int(ink_cols[0])
        x_base = (fic - 1) - ((fic - 1 - p) % GLYPH_W)
        while x_base < -1:  # keep phase, never slice before the image
            x_base += GLYPH_W
        row_ink = fg.sum(axis=1).astype(np.int64)
        win = np.convolve(row_ink, np.ones(gh, dtype=np.int64), mode="valid")
        y0 = int(np.argmax(win))
        n_cells = max(0, (int(ink_cols[-1]) - x_base) // GLYPH_W + 1)
        if n_cells == 0:
            return "", 0.0, [], []
        # all cells in ONE strided reshape: pad the grid band to full
        # cell extent, reshape to (gh, n_cells, GLYPH_W), take the glyph
        # columns — no per-cell Python slicing
        x_start = x_base + 1  # x_base >= -1 so x_start >= 0
        band = np.full((gh, n_cells * GLYPH_W), 255, dtype=img.dtype)
        src = img[y0 : y0 + gh, x_start : x_start + n_cells * GLYPH_W]
        band[: src.shape[0], : src.shape[1]] = src
        strips = band.reshape(gh, n_cells, GLYPH_W)
        cells = (
            (strips[:, :, :gw].transpose(1, 0, 2) < 128)
            .reshape(n_cells, gh * gw)
            .astype(np.float64)
        )
        cnorm = np.linalg.norm(cells, axis=1)
        # drop leading empty cells (a lone speck can pull the ink bbox
        # left of the first glyph; GT lines never start with spaces)
        nz = np.flatnonzero(cnorm)
        if len(nz) == 0:
            return "", 0.0, [], []
        if nz[0] > 0:
            s = int(nz[0])
            cells = cells[s:]
            cnorm = cnorm[s:]
            x_base += s * GLYPH_W
            n_cells -= s
        sims = (cells @ self.templates.T) / (np.maximum(cnorm[:, None], 1e-9) * self.tnorm[None, :])
        best = np.argmax(sims, axis=1)
        confs = sims[np.arange(n_cells), best]
        chars = []
        for i in range(n_cells):
            if cnorm[i] < 1e-9:
                chars.append(" ")
                confs[i] = 1.0
            else:
                chars.append(CHARSET[int(best[i])])
        text = "".join(chars).rstrip()
        if self.text_only:
            n = len(text)
            line_conf = float(confs[: max(1, n)].mean()) if n else 0.0
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
        n = len(text)
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
        line_conf = float(confs[: max(1, n)].mean()) if n else 0.0
        return text, line_conf, words, glyphs

    def __call__(self, batch: pa.Table) -> pa.Table:
        pixels = batch["pixels"].to_pylist()
        texts, confs, words_col, glyphs_col = [], [], [], []
        rec = self.recognize_line_lstm if self.seq is not None else self.recognize_line
        for buf in pixels:
            try:
                t, c, ws, gs = rec(decode_gray(buf))
            except Exception:
                t, c, ws, gs = "", 0.0, [], []  # log-and-skip (recognize.py:227-232)
            texts.append(t)
            confs.append(c)
            words_col.append(ws)
            glyphs_col.append(gs)
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
