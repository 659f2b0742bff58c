"""Page-image codecs (PNG, ``decode_image``) and interleaved
context-window sharding."""

from __future__ import annotations

import numpy as np
import pytest


def test_png_round_trip_all_filters_and_subtypes():
    """encode_png/decode_png parity for gray/RGB/RGBA under every
    scanline filter (the encoder can emit 1-4 so the decoder's
    unfilter path is testable without an external PNG library)."""
    from ocrd_cis_ray.sources.media import decode_png, encode_png

    rng = np.random.default_rng(7)
    arrays = [
        rng.integers(0, 256, (13, 17), dtype=np.uint8),
        rng.integers(0, 256, (9, 7, 3), dtype=np.uint8),
        rng.integers(0, 256, (5, 6, 4), dtype=np.uint8),
    ]
    for a in arrays:
        for ft in range(5):
            assert (decode_png(encode_png(a, filter_type=ft)) == a).all()


def test_decode_image_png_and_luma():
    from ocrd_cis_ray.sources.media import encode_png
    from ocrd_cis_ray.stages.multimodal import decode_image

    g = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert (decode_image(encode_png(g)) == g).all()
    rgb = np.zeros((4, 4, 3), np.uint8)
    rgb[:, :, 1] = 200  # pure green -> luma 587*200//1000 = 117
    assert (decode_image(encode_png(rgb)) == 117).all()
    # JPEG is a real codec now (sources/jpeg.py; tests/test_jpeg.py):
    # a malformed JPEG stream is a data error, not an env stub
    with pytest.raises(ValueError):
        decode_image(b"\xff\xd8\xff\xe0 not-actually-jpeg")
    # genuinely unsupported codec magic (TIFF) keeps the env-stub error
    with pytest.raises(NotImplementedError):
        decode_image(b"II*\x00 tiff-ish")


def test_window_offsets_matches_sequential_reference():
    import numpy as np

    from ocrd_cis_ray.stages.multimodal import window_offsets

    rng = np.random.default_rng(3)
    doc_idx = np.repeat(np.arange(40), rng.integers(1, 12, 40))
    costs = rng.integers(1, 9, len(doc_idx)).astype(np.int64)
    got = window_offsets(doc_idx, costs, 16)
    # sequential reference: running offset, reset per doc
    ref, off, prev = [], 0, None
    for d, c in zip(doc_idx, costs):
        if d != prev:
            off, prev = 0, d
        ref.append(off // 16)
        off += c
    assert got.tolist() == ref


def test_window_interleaved_docs_units_and_conservation(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocrd_cis_ray.stages.multimodal import window_interleaved_docs

    # doc 0: 20 words -> lines of 8,8,4; image after line 2 (cost 4).
    # stream costs: 8,8,8(img? no) -> units: L8,L8,L4,IMG4; windows at 32:
    # offsets 0,8,16,20 -> all window 0.
    # doc 1: 70 words -> 9 lines (8x8+6), images after ln 2,5,8 -> 12 units
    df = pd.DataFrame(
        {
            "doc_id": np.array([0, 1], dtype=np.int64),
            "text": [" ".join(["w"] * 20), " ".join(["v"] * 70)],
        }
    )
    out = (
        window_interleaved_docs(rd.from_pandas(df), window_tokens=32)
        .to_pandas()
        .sort_values(["doc_id", "window_id"])
        .reset_index(drop=True)
    )
    d0 = out[out["doc_id"] == 0]
    assert d0["window_id"].tolist() == [0]
    assert d0.iloc[0][["n_units", "n_text_tokens", "n_media", "n_tokens"]].tolist() == [4, 20, 1, 24]
    d1 = out[out["doc_id"] == 1]
    # conservation: text tokens = 70, media = 3, units = 12
    assert d1["n_text_tokens"].sum() == 70
    assert d1["n_media"].sum() == 3
    assert d1["n_units"].sum() == 12
    assert d1["n_tokens"].sum() == 70 + 3 * 4
    # fixed-stride: window of each unit = floor(offset/32); doc1 stream
    # costs 8,8,8,4,8,8,8,4,8,8,6,4 at offsets 0,8,16,24,28,36,44,52,
    # 56,64,72,78 -> windows 0,0,0,0,0,1,1,1,1,2,2,2
    assert d1["n_units"].tolist() == [5, 4, 3]
    # media manifest: ordered refs, one per image slot (after lines 2,5,8)
    assert d0.iloc[0]["media_refs"] == "img://0/2"
    assert sorted(",".join(d1["media_refs"]).split(",")) == [
        "img://1/2", "img://1/5", "img://1/8"
    ]

    # one huge window holds ALL of a doc's images in stream order
    wide = (
        window_interleaved_docs(rd.from_pandas(df), window_tokens=10_000)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert wide.loc[1, "media_refs"] == "img://1/2,img://1/5,img://1/8"
    assert wide.loc[1, "n_media"] == 3


class TestPngFullSubtypeCoverage:
    """Round-5: decode_png covers every PNG subtype — palette (PLTE +
    tRNS), gray+alpha, bit depths 1/2/4/8/16, Adam7 interlace."""

    def _build(self, w, h, depth, color, raw, extra=b""):
        import struct
        import zlib

        from ocrd_cis_ray.sources.media import _PNG_SIG, _png_chunk

        ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, 0)
        return (
            _PNG_SIG + _png_chunk(b"IHDR", ihdr) + extra
            + _png_chunk(b"IDAT", zlib.compress(raw, 6)) + _png_chunk(b"IEND", b"")
        )

    def test_palette_roundtrip(self):
        import numpy as np

        from ocrd_cis_ray.sources.media import decode_png, encode_png

        rng = np.random.default_rng(0)
        colors = rng.integers(0, 256, (7, 3), dtype=np.uint8)
        rgb = colors[rng.integers(0, 7, (25, 33), dtype=np.uint8)]
        assert np.array_equal(decode_png(encode_png(rgb, palette=True)), rgb)

    def test_16bit_roundtrip(self):
        import numpy as np

        from ocrd_cis_ray.sources.media import decode_png, encode_png

        rng = np.random.default_rng(1)
        g = rng.integers(0, 256, (9, 12), dtype=np.uint8)
        rgb = rng.integers(0, 256, (9, 12, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(g, bit_depth=16)), g)
        assert np.array_equal(decode_png(encode_png(rgb, bit_depth=16)), rgb)

    def test_adam7_roundtrip_all_shapes(self):
        import numpy as np

        from ocrd_cis_ray.sources.media import decode_png, encode_png

        rng = np.random.default_rng(2)
        for shape in ((1, 1), (3, 2), (8, 8), (23, 31), (9, 17)):
            g = rng.integers(0, 256, shape, dtype=np.uint8)
            assert np.array_equal(decode_png(encode_png(g, interlace=True)), g), shape
        rgba = rng.integers(0, 256, (23, 31, 4), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(rgba, interlace=True)), rgba)

    def test_gray_alpha_and_subbyte_depths(self):
        import numpy as np

        from ocrd_cis_ray.sources.media import decode_png

        rng = np.random.default_rng(3)
        ga = rng.integers(0, 256, (7, 9, 2), dtype=np.uint8)
        raw = b"".join(b"\x00" + ga[y].tobytes() for y in range(7))
        assert np.array_equal(decode_png(self._build(9, 7, 8, 4, raw)), ga)
        bits = rng.integers(0, 2, (5, 11), dtype=np.uint8)
        packed = np.packbits(bits, axis=1)
        raw = b"".join(b"\x00" + packed[y].tobytes() for y in range(5))
        assert np.array_equal(decode_png(self._build(11, 5, 1, 0, raw)), bits * 255)

    def test_palette_trns_alpha(self):
        import numpy as np

        from ocrd_cis_ray.sources.media import _png_chunk, decode_png

        rng = np.random.default_rng(4)
        idx = rng.integers(0, 4, (8, 5), dtype=np.uint8)
        pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [9, 9, 9]], np.uint8)
        trns = bytes([0, 128, 255, 255])
        rows = []
        for y in range(8):
            v = np.concatenate([idx[y], np.zeros((-len(idx[y])) % 4, np.uint8)])
            rows.append(
                b"\x00" + bytes(
                    int(v[i]) << 6 | int(v[i + 1]) << 4 | int(v[i + 2]) << 2 | int(v[i + 3])
                    for i in range(0, len(v), 4)
                )
            )
        png = self._build(
            5, 8, 2, 3, b"".join(rows),
            extra=_png_chunk(b"PLTE", pal.tobytes()) + _png_chunk(b"tRNS", trns),
        )
        dec = decode_png(png)
        assert dec.shape == (8, 5, 4)
        assert np.array_equal(dec[:, :, :3], pal[idx])
        assert np.array_equal(dec[:, :, 3], np.frombuffer(trns, np.uint8)[idx])
