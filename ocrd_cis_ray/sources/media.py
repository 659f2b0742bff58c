"""Page-image codecs + deterministic synthetic line images.

Media are page images, carried as 2-D grayscale arrays inside Arrow
``large_binary`` columns with no image library (no PIL/cv2). Two
codecs live here: a tiny self-describing raw-gray codec (header =
magic 'G8', uint32 width, uint32 height, then height×width uint8
pixels, 0=black .. 255=white) and a stdlib-zlib PNG codec
(``encode_png``/``decode_png``, ``rgb_to_gray`` for color input).
JPEG lives in ``sources/jpeg.py``.

``render_line`` synthesizes deterministic text-line rasters (box-glyph
patterns per character, controlled skew / salt noise / margin
intruders) so the image ops have known goldens: deskew must recover the
injected angle (reference estimate_skew, ocropy/common.py:93-169),
denoise must remove the injected speckle count (remove_noise,
common.py:1153-1169), clip must remove the intruder
(ocropy/clip.py:218-267).
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"G8"

# glyph geometry
GLYPH_H, GLYPH_W = 12, 8
PAD_Y, PAD_X = 8, 10


def encode_gray(arr: np.ndarray) -> bytes:
    """uint8 grayscale -> raw-gray bytes."""
    a = np.ascontiguousarray(arr, dtype=np.uint8)
    h, w = a.shape
    return MAGIC + struct.pack("<II", w, h) + a.tobytes()


def decode_gray(buf: bytes) -> np.ndarray:
    """raw-gray bytes -> uint8 grayscale (h, w). Zero-copy view."""
    assert buf[:2] == MAGIC, "not a raw-gray payload"
    w, h = struct.unpack_from("<II", buf, 2)
    return np.frombuffer(buf, dtype=np.uint8, offset=10).reshape(h, w)


from functools import lru_cache


@lru_cache(maxsize=512)
def _glyph(ch: str) -> np.ndarray:
    """Deterministic (GLYPH_H-2 x GLYPH_W-2) bit pattern for a character.
    Cached: rendering re-uses each glyph thousands of times per page
    batch, and the per-call default_rng construction dominated the
    renderer before memoization."""
    code = ord(ch)
    rng = np.random.default_rng(code * 2654435761 % (2**31))
    g = rng.random((GLYPH_H - 4, GLYPH_W - 2)) < 0.55
    g[0, :] = True  # every glyph touches the x-height line (stable baseline)
    g.setflags(write=False)  # shared cache entry must stay immutable
    return g


def render_line(
    text: str,
    *,
    skew_deg: float = 0.0,
    noise: int = 0,
    intruder: bool = False,
    seed: int = 42,
) -> np.ndarray:
    """Render a text line to uint8 grayscale (white bg 255, black ink 0).

    skew is applied as a vertical shear (tan(angle) per column) — the
    same small-angle model the projection-profile deskewer assumes.
    ``noise`` adds that many isolated 1-px black speckles; ``intruder``
    paints a blob inside the top margin (a neighbouring line's
    descender, the clip test case).
    """
    text = text or " "
    w = PAD_X * 2 + GLYPH_W * len(text)
    h = PAD_Y * 2 + GLYPH_H
    img = np.full((h, w), 255, dtype=np.uint8)
    for i, ch in enumerate(text):
        if ch == " ":
            continue
        g = _glyph(ch)
        y0 = PAD_Y + 2
        x0 = PAD_X + i * GLYPH_W + 1
        img[y0 : y0 + g.shape[0], x0 : x0 + g.shape[1]][g] = 0
    if abs(skew_deg) > 1e-9:
        img = shear_vertical(img, skew_deg)
    rng = np.random.default_rng(seed)
    if noise:
        # bounded draws: small/dense lines may lack enough isolated
        # white 3x3 sites — stop after 50*noise attempts
        placed, attempts = 0, 0
        while placed < noise and attempts < 50 * noise:
            attempts += 1
            y = int(rng.integers(1, h - 1))
            x = int(rng.integers(1, w - 1))
            # keep speckles isolated: 8-neighbourhood must be white
            if img[y - 1 : y + 2, x - 1 : x + 2].min() == 255:
                img[y, x] = 0
                placed += 1
    if intruder:
        img[0:3, w // 2 : w // 2 + 6] = 0
    return img


def resize_to_height(img: np.ndarray, target_h: int) -> np.ndarray:
    """Nearest-neighbour rescale to a fixed height, width scaled to
    keep aspect (the reference resizes lines to 48 px before
    recognition — resize_keep_ratio, ocropy/recognize.py:221-224)."""
    h, w = img.shape
    if h == target_h:
        return img
    scale = target_h / h
    tw = max(1, int(round(w * scale)))
    rows = np.clip((np.arange(target_h) / scale).astype(int), 0, h - 1)
    cols = np.clip((np.arange(tw) / scale).astype(int), 0, w - 1)
    return img[rows][:, cols]


def shear_vertical(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Vertical shear by tan(angle): out[y, x] = img[y - shift(x), x]
    (nearest-neighbour gather, white fill outside)."""
    h, w = img.shape
    shift = np.round(np.tan(np.deg2rad(angle_deg)) * (np.arange(w) - w / 2)).astype(int)
    src_rows = np.arange(h)[:, None] - shift[None, :]
    ok = (src_rows >= 0) & (src_rows < h)
    cols = np.broadcast_to(np.arange(w), (h, w))
    return np.where(ok, img[np.clip(src_rows, 0, h - 1), cols], 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG codec — stdlib zlib only. Supports the non-interlaced 8-bit-depth
# subtypes that cover practically all ML-corpus PNGs: color type 0
# (grayscale), 2 (RGB), 6 (RGBA). All five scanline filters (None/Sub/
# Up/Average/Paeth) decode; the encoder defaults to filter 0 (rows are
# a straight memcpy both ways — our round trips stay vectorized) but
# can emit any filter so the decoder's unfilter path is testable
# without an external PNG library.

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}

# Adam7 interlace passes: (x_start, y_start, x_step, y_step)
_ADAM7 = [
    (0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
    (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2),
]


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    import zlib

    return (
        struct.pack(">I", len(data))
        + typ
        + data
        + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
    )


def encode_png(arr: np.ndarray, *, filter_type: int = 0, palette: bool = False,
               bit_depth: int = 8, interlace: bool = False) -> bytes:
    """uint8 (h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA -> PNG bytes.

    ``palette=True`` emits a color-type-3 PLTE stream (input RGB with
    ≤256 distinct colors; filter 0). ``bit_depth=16`` emits 16-bit
    gray/RGB (each 8-bit sample widened to v*257, the PNG convention).
    ``interlace=True`` emits Adam7 passes (filter 0). The non-default
    modes exist to exercise the decoder's full subtype coverage."""
    import zlib

    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if palette:
        if a.ndim != 3 or a.shape[2] != 3:
            raise ValueError("palette encode takes (h, w, 3) RGB")
        h, w = a.shape[:2]
        flat = a.reshape(-1, 3)
        colors, inverse = np.unique(flat, axis=0, return_inverse=True)
        if len(colors) > 256:
            raise ValueError(f"palette encode needs <=256 colors, got {len(colors)}")
        idx = inverse.astype(np.uint8).reshape(h, w)
        raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(h))
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
        return (
            _PNG_SIG
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"PLTE", colors.astype(np.uint8).tobytes())
            + _png_chunk(b"IDAT", zlib.compress(raw, 6))
            + _png_chunk(b"IEND", b"")
        )
    if bit_depth == 16:
        if a.ndim == 2:
            color, ch = 0, 1
            a3 = a[:, :, None]
        elif a.ndim == 3 and a.shape[2] == 3:
            color, ch = 2, 3
            a3 = a
        else:
            raise ValueError("16-bit encode takes gray or RGB")
        h, w = a3.shape[:2]
        wide = (a3.astype(np.uint16) * 257).astype(">u2")  # v*257 widens 8->16 exactly
        raw = b"".join(b"\x00" + wide[y].tobytes() for y in range(h))
        ihdr = struct.pack(">IIBBBBB", w, h, 16, color, 0, 0, 0)
        return (
            _PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw, 6)) + _png_chunk(b"IEND", b"")
        )
    if interlace:
        if a.ndim == 2:
            color, ch = 0, 1
            a = a[:, :, None]
        elif a.ndim == 3 and a.shape[2] in (3, 4):
            color, ch = (2, 3) if a.shape[2] == 3 else (6, 4)
        else:
            raise ValueError(f"unsupported array shape {arr.shape}")
        h, w = a.shape[:2]
        raw = bytearray()
        for x0, y0, dx, dy in _ADAM7:
            sub = a[y0::dy, x0::dx]
            for y in range(sub.shape[0]):
                if sub.shape[1]:
                    raw += b"\x00" + sub[y].tobytes()
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 1)
        return (
            _PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(raw), 6)) + _png_chunk(b"IEND", b"")
        )
    if a.ndim == 2:
        color, ch = 0, 1
        a = a[:, :, None]
    elif a.ndim == 3 and a.shape[2] == 3:
        color, ch = 2, 3
    elif a.ndim == 3 and a.shape[2] == 4:
        color, ch = 6, 4
    else:
        raise ValueError(f"unsupported array shape {arr.shape}")
    h, w = a.shape[:2]
    rows = a.reshape(h, w * ch).astype(np.int16)
    prev = np.zeros(w * ch, dtype=np.int16)
    out = bytearray()
    for y in range(h):
        cur = rows[y]
        left = np.concatenate([np.zeros(ch, np.int16), cur[:-ch]])
        upleft = np.concatenate([np.zeros(ch, np.int16), prev[:-ch]])
        if filter_type == 0:
            filt = cur
        elif filter_type == 1:
            filt = cur - left
        elif filter_type == 2:
            filt = cur - prev
        elif filter_type == 3:
            filt = cur - ((left + prev) // 2)
        elif filter_type == 4:
            p = left + prev - upleft
            pa_, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
            pred = np.where((pa_ <= pb) & (pa_ <= pc), left, np.where(pb <= pc, prev, upleft))
            filt = cur - pred
        else:
            raise ValueError(f"bad filter {filter_type}")
        out.append(filter_type)
        out += (filt & 0xFF).astype(np.uint8).tobytes()
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(bytes(out), 6))
        + _png_chunk(b"IEND", b"")
    )


def _png_unfilter(raw: bytes, h: int, rowbytes: int, fu: int) -> np.ndarray:
    """Reverse the five PNG scanline filters over one (sub-)image;
    ``fu`` = filter unit (bytes per pixel, min 1). Returns (h, rowbytes)
    uint8."""
    if h == 0 or rowbytes == 0:
        return np.zeros((h, rowbytes), np.uint8)
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, rowbytes + 1)
    ftypes = lines[:, 0]
    data = lines[:, 1:].astype(np.int16)
    if not ftypes.any():  # all filter 0: pure reshape, the fast path
        return data.astype(np.uint8)
    out = np.zeros((h, rowbytes), dtype=np.int16)
    prev = np.zeros(rowbytes, dtype=np.int16)
    for y in range(h):
        f = ftypes[y]
        cur = data[y].copy()
        if f == 0:
            pass
        elif f == 2:  # Up: whole row vectorized
            cur = (cur + prev) & 0xFF
        elif f == 1:  # Sub: prefix sum mod 256 per filter unit (vectorized)
            pad = (-len(cur)) % fu
            padded = np.concatenate([cur, np.zeros(pad, np.int16)]) if pad else cur
            cur = (
                np.cumsum(padded.reshape(-1, fu), axis=0, dtype=np.int64) & 0xFF
            ).reshape(-1)[: len(cur)].astype(np.int16)
        else:  # 3/4 carry a decoded-left dependency: walk pixel groups
            for x in range(0, rowbytes, fu):
                sl = slice(x, min(x + fu, rowbytes))
                n = sl.stop - sl.start
                left = out[y, x - fu : x - fu + n] if x else np.zeros(n, np.int16)
                up = prev[sl]
                upleft = prev[x - fu : x - fu + n] if x else np.zeros(n, np.int16)
                if f == 3:
                    cur[sl] = (cur[sl] + (left + up) // 2) & 0xFF
                elif f == 4:
                    p = left + up - upleft
                    pa_, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
                    pred = np.where(
                        (pa_ <= pb) & (pa_ <= pc), left, np.where(pb <= pc, up, upleft)
                    )
                    cur[sl] = (cur[sl] + pred) & 0xFF
                else:
                    raise ValueError(f"bad PNG filter {f}")
                out[y, sl] = cur[sl]
        out[y] = cur
        prev = out[y]
    return out.astype(np.uint8)


def _png_samples(rows: np.ndarray, w: int, ch: int, depth: int) -> np.ndarray:
    """(h, rowbytes) filtered-out bytes -> (h, w, ch) uint8 samples.
    Depths 1/2/4 unpack bit groups; 16 keeps the high byte (the exact
    inverse of the v*257 widening for 8-bit content)."""
    h = rows.shape[0]
    if depth == 8:
        return rows.reshape(h, -1)[:, : w * ch].reshape(h, w, ch)
    if depth == 16:
        u16 = np.frombuffer(rows.tobytes(), dtype=">u2").reshape(h, -1)
        return (u16[:, : w * ch] >> 8).astype(np.uint8).reshape(h, w, ch)
    # sub-byte depths (gray or palette indices; ch == 1)
    bits = np.unpackbits(rows, axis=1)
    per = 8 // depth
    vals = bits.reshape(h, -1, depth)
    weights = 1 << np.arange(depth - 1, -1, -1)
    s = (vals * weights).sum(axis=2)[:, :w]
    return s.astype(np.uint8).reshape(h, w, 1)


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes -> uint8 array: (h, w) for grayscale, (h, w, ch) else.

    Full subtype coverage: color types 0 (gray), 2 (RGB), 3 (palette,
    PLTE + optional tRNS alpha -> RGBA), 4 (gray+alpha), 6 (RGBA);
    bit depths 1/2/4/8/16 (16-bit reduced to the high byte); Adam7
    interlace; all five scanline filters. Sample-value scaling for
    sub-byte gray uses the PNG max-value convention (v·255/(2^d−1))."""
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, idat, ihdr = 8, bytearray(), None
    plte = None
    trns = None
    while pos + 8 <= len(payload):
        (ln,) = struct.unpack_from(">I", payload, pos)
        typ = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if typ == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif typ == b"PLTE":
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif typ == b"tRNS":
            trns = np.frombuffer(data, np.uint8)
        elif typ == b"IDAT":
            idat += data
        elif typ == b"IEND":
            break
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    if color not in _PNG_CHANNELS or comp != 0 or filt != 0 or interlace > 1:
        raise NotImplementedError(
            f"PNG subtype not supported (color={color} interlace={interlace}); "
            "production: pillow/cv2"
        )
    if depth not in (1, 2, 4, 8, 16) or (depth < 8 and color in (2, 4, 6)) or (
        depth == 16 and color == 3
    ):
        raise ValueError(f"invalid PNG depth/color combination {depth}/{color}")
    ch = _PNG_CHANNELS[color]
    raw = zlib.decompress(bytes(idat))

    def rowbytes(width: int) -> int:
        return (width * ch * depth + 7) // 8

    fu = max(1, ch * depth // 8)
    if interlace == 0:
        need = h * (rowbytes(w) + 1)
        if len(raw) != need:
            raise ValueError("PNG data length mismatch")
        rows = _png_unfilter(raw, h, rowbytes(w), fu)
        img = _png_samples(rows, w, ch, depth)
    else:  # Adam7
        img = np.zeros((h, w, ch), np.uint8)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw == 0 or ph == 0:
                continue
            rb = rowbytes(pw)
            take = ph * (rb + 1)
            if off + take > len(raw):
                raise ValueError("PNG interlaced data truncated")
            rows = _png_unfilter(raw[off : off + take], ph, rb, fu)
            img[y0::dy, x0::dx] = _png_samples(rows, pw, ch, depth)
            off += take
        if off != len(raw):
            raise ValueError("PNG data length mismatch")

    if color == 3:  # palette lookup (+ tRNS alpha)
        if plte is None:
            raise ValueError("paletted PNG missing PLTE")
        idx = img[:, :, 0]
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("PNG palette index out of range")
        rgb = plte[idx]
        if trns is not None:
            alpha = np.full(256, 255, np.uint8)
            alpha[: len(trns)] = trns
            return np.dstack([rgb, alpha[idx]])
        return rgb
    if depth < 8 and color == 0:
        # scale sub-byte gray to the full 0..255 range (PNG convention)
        img = (img.astype(np.uint16) * 255 // ((1 << depth) - 1)).astype(np.uint8)
    return img[:, :, 0] if ch == 1 else img


def rgb_to_gray(arr: np.ndarray) -> np.ndarray:
    """ITU-R 601 integer luma; RGBA / gray+alpha alpha is ignored."""
    if arr.ndim == 2:
        return arr
    if arr.shape[2] == 2:  # gray + alpha (PNG color type 4)
        return arr[:, :, 0]
    r, g, b = arr[:, :, 0].astype(np.uint32), arr[:, :, 1].astype(np.uint32), arr[:, :, 2].astype(np.uint32)
    return ((299 * r + 587 * g + 114 * b) // 1000).astype(np.uint8)
