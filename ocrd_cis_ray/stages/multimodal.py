"""Page-image decode and interleaved context-window sharding.

``decode_image`` turns one encoded page-image payload (PNG, JPEG or
the raw-gray codec) into a uint8 grayscale array; q81 and q110 run it.
``window_offsets`` and ``window_interleaved_docs`` cut an interleaved
text+media unit stream into fixed token windows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.media import decode_gray

# ---------------------------------------------------------------------------
# decode


def decode_image(payload: bytes) -> np.ndarray:
    """Image decode to uint8 grayscale — REAL for PNG (stdlib-zlib
    codec: 8-bit gray/RGB/RGBA, all five scanline filters), JPEG
    (T.81 codec in ``sources/jpeg.py``: baseline AND progressive,
    grayscale + YCbCr 4:4:4/4:2:2/4:2:0, restart markers) and the
    raw-gray codec. Color is reduced to ITU-R 601 luma."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        from ..sources.media import decode_png, rgb_to_gray

        return rgb_to_gray(decode_png(payload))
    if payload[:3] == b"\xff\xd8\xff":
        from ..sources.jpeg import decode_jpeg
        from ..sources.media import rgb_to_gray

        return rgb_to_gray(decode_jpeg(payload))
    if payload[:2] == b"G8":
        return decode_gray(payload)
    raise NotImplementedError(
        "image decode: PNG, JPEG (baseline + progressive) and raw-gray "
        "decode natively; other codecs (TIFF/WebP) need pillow/cv2"
    )


# ---------------------------------------------------------------------------
# interleaved context-window sharding


def window_offsets(doc_idx: np.ndarray, costs: np.ndarray, window_tokens: int) -> np.ndarray:
    """Fixed-stride window ids over an interleaved unit stream.

    ``doc_idx`` marks each unit's document (units of one doc contiguous,
    in order), ``costs`` its token cost (text tokens, or the slot cost of
    a media unit). A unit belongs to ``floor(tokens_before_it_in_doc /
    window_tokens)`` — the fixed-stride rule (a unit may straddle the
    boundary; it is counted where it STARTS), which unlike greedy
    repacking is a pure prefix-sum: one vectorized cumsum with per-doc
    resets, no sequential state, identical under any batch split."""
    cs = np.cumsum(costs)
    before = cs - costs
    # first unit position of each doc, broadcast back over its units
    new_doc = np.empty(len(doc_idx), dtype=bool)
    if len(doc_idx):
        new_doc[0] = True
        new_doc[1:] = doc_idx[1:] != doc_idx[:-1]
    starts = np.where(new_doc, before, 0)
    np.maximum.accumulate(starts, out=starts)
    return (before - starts) // int(window_tokens)


def window_interleaved_docs(
    ds,
    *,
    window_tokens: int = 32,
    line_words: int = 8,
    media_every: int = 3,
    media_cost: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Context-length sharding of an INTERLEAVED text+media span stream
    (the MMC4/Chameleon-style packing prep): each document's unit
    sequence — text lines of ``line_words`` words, with an image slot of
    ``media_cost`` tokens after every ``media_every``-th line (the
    corpus synthesizer's interleave rule) — is cut into fixed
    ``window_tokens`` windows by cumulative token offset.

    One zero-shuffle ``map_batches``: every unit of a document derives
    from that document's single input row, so the whole stage is
    batch-local and streams at any scale. Output: one row per
    (doc, window) with unit/text-token/media counts plus the ordered
    ``media_refs`` manifest (comma-joined ``img://doc/line`` ids) — the
    dataloader contract: which media a window needs, in stream order.
    """
    W, LW, ME, MC = int(window_tokens), int(line_words), int(media_every), int(media_cost)

    def shard(t: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        n_words = (
            pc.add(pc.count_substring(t[text_col], " "), 1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_lines = -(-n_words // LW)
        last_cost = n_words - LW * (n_lines - 1)
        n_img = n_lines // ME
        n_units = n_lines + n_img
        total = int(n_units.sum())
        doc_idx = np.repeat(np.arange(len(n_words)), n_units)
        u = np.arange(total) - np.repeat(np.cumsum(n_units) - n_units, n_units)
        # unit pattern per doc: ME lines then 1 image, repeating
        q, r = np.divmod(u, ME + 1)
        is_img = r == ME
        ln = q * ME + np.minimum(r, ME - 1)
        costs = np.where(
            is_img,
            MC,
            np.where(ln == (n_lines[doc_idx] - 1), last_cost[doc_idx], LW),
        )
        win = window_offsets(doc_idx, costs, W)
        id_vals = t[id_col].to_numpy(zero_copy_only=False)
        # ordered media manifest: image units already sit in stream
        # order, so a per-(doc,window) join of their refs is exact
        refs = np.full(total, "", dtype=object)
        if is_img.any():
            iw = np.where(is_img)[0]
            refs[iw] = [
                f"img://{id_vals[doc_idx[j]]}/{ln[j]}" for j in iw
            ]
        frame = pd.DataFrame(
            {
                "__d": doc_idx,
                "window_id": win,
                "n_units": 1,
                "n_text_tokens": np.where(is_img, 0, costs),
                "n_media": is_img.astype(np.int64),
                "n_tokens": costs,
                "__ref": refs,
            }
        )
        g = frame.groupby(["__d", "window_id"], sort=False, as_index=False).agg(
            n_units=("n_units", "sum"),
            n_text_tokens=("n_text_tokens", "sum"),
            n_media=("n_media", "sum"),
            n_tokens=("n_tokens", "sum"),
            media_refs=("__ref", lambda s: ",".join(x for x in s if x)),
        )
        ids = t[id_col].take(pa.array(g["__d"].to_numpy()))
        return pa.table(
            {
                id_col: ids,
                "window_id": pa.array(g["window_id"].to_numpy().astype(np.int64)),
                "n_units": pa.array(g["n_units"].to_numpy().astype(np.int64)),
                "n_text_tokens": pa.array(
                    g["n_text_tokens"].to_numpy().astype(np.int64)
                ),
                "n_media": pa.array(g["n_media"].to_numpy().astype(np.int64)),
                "n_tokens": pa.array(g["n_tokens"].to_numpy().astype(np.int64)),
                "media_refs": pa.array(
                    g["media_refs"].to_numpy(dtype=object), pa.string()
                ),
            }
        )

    return ds.map_batches(shard, batch_format="pyarrow")
