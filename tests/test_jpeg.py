"""Baseline JPEG codec (sources/jpeg.py) — pure numpy T.81.

Pins: exact round-trip for constant gray at quality 95 (DC-only blocks
on the step-2 quant grid), PSNR bounds for gradients / color / noise,
4:2:0 vs 4:4:4, non-MCU-aligned dims, restart-marker resync,
progressive/malformed rejection, decode_image sniffing, and encoder
determinism. The reference's image universe is PIL-backed
(/root/reference/ocrd_cis/ocropy/common.py:21-53 pil2array): JFIF is
what real corpora carry, so the decode path must be native.
"""

import numpy as np
import pytest

from ocrd_cis_ray.sources.jpeg import (
    decode_jpeg,
    encode_jpeg,
    scaled_quant_tables,
)
from ocrd_cis_ray.stages.multimodal import decode_image


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    err = a.astype(np.float64) - b.astype(np.float64)
    mse = (err**2).mean()
    return 99.0 if mse < 1e-12 else 10 * np.log10(255.0**2 / mse)


def _gradient(h: int, w: int) -> np.ndarray:
    return ((np.arange(w)[None, :] * 2 + np.arange(h)[:, None] * 3) % 256).astype(np.uint8)


def _rgb(h: int, w: int, seed: int = 0) -> np.ndarray:
    x, y = np.arange(w), np.arange(h)
    return np.stack(
        [
            ((x[None, :] + y[:, None] + seed) // 2 % 256).astype(np.uint8),
            ((x[None, :] * 2 + seed) % 256 * np.ones((h, 1), int)).astype(np.uint8),
            ((y[:, None] * 3 + seed) % 256 * np.ones((1, w), int)).astype(np.uint8),
        ],
        axis=-1,
    )


def test_constant_gray_exact_at_q95():
    # quality 95 scales luma DC quant to 2; a constant block is DC-only,
    # and round(8*(v-128)/2)*2/8 = v-128 exactly for every v
    for v in (0, 1, 17, 127, 128, 200, 255):
        img = np.full((24, 41), v, np.uint8)  # non-MCU-aligned width
        dec = decode_jpeg(encode_jpeg(img, quality=95, subsampling="4:4:4"))
        assert dec.shape == img.shape
        assert (dec == img).all()


def test_quality_scaling_monotone():
    luma95, _ = scaled_quant_tables(95)
    luma50, _ = scaled_quant_tables(50)
    luma10, _ = scaled_quant_tables(10)
    assert luma95[0, 0] == 2  # the q110 oracle's exactness precondition
    assert (luma50 >= luma95).all() and (luma10 >= luma50).all()
    assert luma95.min() >= 1 and luma10.max() <= 255


def test_gray_gradient_psnr_improves_with_quality():
    img = _gradient(48, 64)
    psnrs = [
        _psnr(decode_jpeg(encode_jpeg(img, quality=q, subsampling="4:4:4")), img)
        for q in (50, 75, 95)
    ]
    assert psnrs[0] > 28 and psnrs[-1] > 50
    assert psnrs == sorted(psnrs)


def test_rgb_444_and_420():
    rgb = _rgb(56, 80)
    for sub, floor in (("4:4:4", 40), ("4:2:0", 35)):
        dec = decode_jpeg(encode_jpeg(rgb, quality=90, subsampling=sub))
        assert dec.shape == rgb.shape
        assert _psnr(dec, rgb) > floor


def test_odd_dimensions_and_tiny():
    for h, w in ((23, 37), (1, 1), (8, 8), (9, 8), (3, 100)):
        img = _gradient(h, w)
        dec = decode_jpeg(encode_jpeg(img, quality=92, subsampling="4:4:4"))
        assert dec.shape == (h, w)
        assert _psnr(dec, img) > 25
    rgb = _rgb(11, 13)
    dec = decode_jpeg(encode_jpeg(rgb, quality=92, subsampling="4:2:0"))
    assert dec.shape == rgb.shape


def test_restart_markers_roundtrip():
    rgb = _rgb(48, 64)
    enc = encode_jpeg(rgb, quality=88, subsampling="4:2:0", restart_interval=2)
    assert any(bytes([0xFF, 0xD0 + i]) in enc for i in range(8))
    assert _psnr(decode_jpeg(enc), rgb) > 35
    # gray + interval 1 (every MCU restarts; DC predictors reset each time)
    img = _gradient(24, 40)
    enc = encode_jpeg(img, quality=90, subsampling="4:4:4", restart_interval=1)
    assert _psnr(decode_jpeg(enc), img) > 30


def test_noise_high_quality():
    rng = np.random.default_rng(3)
    noise = rng.integers(0, 256, (40, 40)).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(noise, quality=95, subsampling="4:4:4"))
    assert _psnr(dec, noise) > 38


def test_malformed_rejected():
    img = _gradient(16, 16)
    # a baseline stream RELABELED as SOF2 is malformed progressive
    # (progressive scans may not span Ss=0..Se=63) — clean ValueError
    prog = bytearray(encode_jpeg(img, quality=90))
    prog[prog.find(b"\xff\xc0") + 1] = 0xC2
    with pytest.raises(ValueError, match="progressive|band"):
        decode_jpeg(bytes(prog))
    with pytest.raises(ValueError):
        decode_jpeg(b"\x00\x01\x02\x03")
    with pytest.raises(ValueError):
        decode_jpeg(b"\xff\xd8\xff\xd9")  # SOI+EOI, no frame


def test_progressive_decodes_identical_to_baseline():
    """THE progressive invariant: the SA scan ladder re-encodes the
    same quantized coefficients, so progressive and baseline encodes
    of one image must decode to EXACTLY the same pixels."""
    rng = np.random.default_rng(11)
    cases = [
        (_gradient(37, 51), "4:4:4", 90),
        (np.stack([_gradient(40, 56)] * 3, axis=-1), "4:2:0", 85),
        (rng.integers(0, 256, (33, 29), dtype=np.uint8), "4:4:4", 75),
        (rng.integers(0, 256, (40, 56, 3), dtype=np.uint8), "4:2:0", 60),
        (np.full((17, 19), 200, np.uint8), "4:4:4", 95),
        (np.full((3, 5), 7, np.uint8), "4:4:4", 85),
    ]
    for img, sub, q in cases:
        base = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub))
        prog = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub, progressive=True))
        assert np.array_equal(base, prog), (img.shape, sub, q)


def test_progressive_randomized_sweep():
    rng = np.random.default_rng(7)
    for trial in range(12):
        h, w = int(rng.integers(1, 70)), int(rng.integers(1, 70))
        color = bool(rng.integers(0, 2))
        shape = (h, w, 3) if color else (h, w)
        kind = trial % 3
        if kind == 0:
            img = rng.integers(0, 256, shape, dtype=np.uint8)
        elif kind == 1:
            img = np.full(shape, int(rng.integers(0, 256)), np.uint8)
        else:
            img = ((np.arange(h)[:, None] * 5 + np.arange(w)[None, :] * 3) % 256).astype(np.uint8)
            if color:
                img = np.stack([img, img // 2, 255 - img], axis=-1)
        sub = "4:2:0" if (color and rng.integers(0, 2)) else "4:4:4"
        q = int(rng.integers(30, 99))
        base = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub))
        prog = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub, progressive=True))
        assert np.array_equal(base, prog), (trial, shape, sub, q)


def test_progressive_rejects_restart_interval():
    with pytest.raises(ValueError, match="restart"):
        encode_jpeg(_gradient(16, 16), progressive=True, restart_interval=2)


def test_encoder_input_validation():
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4), np.float64))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4, 2), np.uint8))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((0, 4), np.uint8))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4, 3), np.uint8), subsampling="4:1:1")


def test_deterministic_bytes():
    rgb = _rgb(32, 48, seed=9)
    assert encode_jpeg(rgb, quality=85) == encode_jpeg(rgb, quality=85)
    img = _gradient(24, 24)
    assert encode_jpeg(img, quality=70) == encode_jpeg(img, quality=70)


def test_decode_image_sniffs_jpeg():
    img = np.full((16, 24), 77, np.uint8)
    dec = decode_image(encode_jpeg(img, quality=95, subsampling="4:4:4"))
    assert dec.dtype == np.uint8 and (dec == img).all()
    # color JPEG comes back as luma through decode_image
    rgb = _rgb(16, 24)
    luma = decode_image(encode_jpeg(rgb, quality=95, subsampling="4:4:4"))
    assert luma.shape == (16, 24)
    expected = (
        (299 * rgb[:, :, 0].astype(np.uint32)
         + 587 * rgb[:, :, 1].astype(np.uint32)
         + 114 * rgb[:, :, 2].astype(np.uint32)) // 1000
    )
    assert np.abs(luma.astype(int) - expected.astype(int)).mean() < 4.0


def test_featurizer_accepts_jpeg(ray_session):
    """JPEG payloads in media rows (``payload`` bytes + JSON ``meta``)
    decode through ``decode_image`` inside a Ray Data map, one row per
    page image of its own size, at the dimensions the row declares."""
    import json

    import ray

    rows = [
        {
            "doc_id": i,
            "media_ref": f"jpg://{i}",
            "modality": "image",
            "payload": encode_jpeg(_gradient(16 + i, 24), quality=90),
            "meta": json.dumps({"width": 24, "height": 16 + i}),
        }
        for i in range(6)
    ]

    def decode_row(row):
        img = decode_image(row["payload"])
        meta = json.loads(row["meta"])
        return {
            "doc_id": row["doc_id"],
            "ok": img.shape == (meta["height"], meta["width"]),
            "psnr": _psnr(img, _gradient(meta["height"], meta["width"])),
        }

    out = ray.data.from_items(rows).map(decode_row).take_all()
    assert sorted(r["doc_id"] for r in out) == list(range(6))
    assert all(r["ok"] for r in out)
    assert all(r["psnr"] > 45.0 for r in out)


def test_422_subsampling_full_path():
    """4:2:2 (horizontal-only chroma subsampling): decode path now
    exercised end-to-end — PSNR ordered between 4:4:4 and 4:2:0,
    restart markers pixel-invariant, progressive equal to baseline."""
    rng = np.random.default_rng(5)
    t = np.arange(64)
    base = 128 + 60 * np.sin(t[:, None] / 9) * np.cos(t[None, :] / 7)
    rgb = np.stack([base, base * 0.8 + 20, 255 - base], axis=-1).astype(np.uint8)

    def psnr(a, b):
        mse = ((a.astype(float) - b.astype(float)) ** 2).mean()
        return 10 * np.log10(255**2 / mse) if mse else 99.0

    scores = {}
    for sub in ("4:4:4", "4:2:2", "4:2:0"):
        dec = decode_jpeg(encode_jpeg(rgb, quality=90, subsampling=sub))
        assert dec.shape == rgb.shape
        scores[sub] = psnr(rgb, dec)
    assert scores["4:4:4"] > scores["4:2:2"] > scores["4:2:0"]
    assert scores["4:2:0"] > 30

    odd = rng.integers(0, 256, (37, 51, 3), dtype=np.uint8)
    d1 = decode_jpeg(encode_jpeg(odd, quality=80, subsampling="4:2:2"))
    d2 = decode_jpeg(encode_jpeg(odd, quality=80, subsampling="4:2:2", restart_interval=3))
    assert np.array_equal(d1, d2)
    p = decode_jpeg(encode_jpeg(odd, quality=80, subsampling="4:2:2", progressive=True))
    assert np.array_equal(d1, p)


def test_single_component_scan_uses_true_block_grid():
    """T.81 A.2: an Ns=1 scan rasters the component's OWN block grid,
    not MCU clusters — a single-component baseline file declaring 2x2
    sampling (legal; hmax==ch so geometry is unchanged) must decode
    identically to the 1x1 declaration. Review finding: the
    non-interleaved path was gated to progressive only."""
    img = _gradient(24, 32)
    ref = decode_jpeg(encode_jpeg(img, quality=90, subsampling="4:4:4"))
    enc = bytearray(encode_jpeg(img, quality=90, subsampling="4:4:4"))
    sof = enc.find(b"\xff\xc0")
    hv_pos = sof + 11  # SOF0: marker(2) len(2) prec(1) h(2) w(2) nf(1) cid(1) -> hv
    assert enc[hv_pos] == 0x11
    enc[hv_pos] = 0x22
    assert np.array_equal(decode_jpeg(bytes(enc)), ref)


def test_refinement_scan_missing_ac_table_is_valueerror():
    """A progressive AC refinement scan referencing an undefined AC
    table must fail with the documented ValueError, not AttributeError."""
    import struct

    prog = bytearray(encode_jpeg(_gradient(33, 29), quality=80, progressive=True))
    pos = 2
    while pos + 4 <= len(prog):
        if prog[pos] != 0xFF:
            pos += 1
            continue
        m = prog[pos + 1]
        if m in (0xD8, 0x01) or 0xD0 <= m <= 0xD7:
            pos += 2
            continue
        if m == 0xD9:
            break
        (ln,) = struct.unpack_from(">H", prog, pos + 2)
        if m == 0xDA:
            seg = prog[pos + 4 : pos + 2 + ln]
            ns = seg[0]
            ss_, a = seg[1 + 2 * ns], seg[3 + 2 * ns]
            if ss_ > 0 and (a >> 4) > 0:  # AC refinement scan
                prog[pos + 4 + 2] = 0x33  # undefined table ids
                break
            p = pos + 2 + ln
            while p + 1 < len(prog):
                if prog[p] != 0xFF:
                    p += 1
                elif prog[p + 1] == 0x00 or 0xD0 <= prog[p + 1] <= 0xD7:
                    p += 2
                elif prog[p + 1] == 0xFF:
                    p += 1
                else:
                    break
            pos = p
            continue
        pos += 2 + ln
    with pytest.raises(ValueError, match="huffman table"):
        decode_jpeg(bytes(prog))
