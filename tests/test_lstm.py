"""Numpy BIDILSTM + CTC: forward goldens, gradient check, CTC decode,
end-to-end training convergence, and recognition tasks driven by the
trained model.

Mirrors the reference's training smoke test
(reference tests/run_training_test.bash + ocropy/ocrolib/lstm.py
SeqRecognizer): train on rendered lines, assert the error drops and
round-trip recognition works.
"""

from __future__ import annotations

import numpy as np
import pytest

from ocrd_cis_ray.sources.media import render_line
from ocrd_cis_ray.stages.lstm import (
    BiLSTM,
    Codec,
    SeqRecognizer,
    ascii_codec,
    ctc_align_targets,
    make_target,
    prepare_line,
    translate_back,
)
from ocrd_cis_ray.util import levenshtein

CHARS = "abcdehilnorst "
TEXTS = ["the cat", "a dot", "cats eat", "she said", "listen"]


def test_codec_roundtrip():
    c = ascii_codec()
    assert c.code2char[0] == ""  # class 0 = CTC blank
    s = "Hello ~world"
    assert c.decode(c.encode(s)) == s
    # unknown chars map to "~" (lstm.py:948 dflt)
    assert c.decode(c.encode("é")) == "~"


def test_prepare_line_shape_and_padding():
    img = render_line("abc")
    xs = prepare_line(img, pad=16)
    h, w = img.shape
    assert xs.shape == (w + 32, h)  # time = columns, padded both sides
    assert np.all(xs[:16] == 0) and np.all(xs[-16:] == 0)
    # ink is positive, background zero
    assert xs.max() > 0.5 and xs.min() == 0.0


def test_forward_posteriors_and_determinism():
    net = BiLSTM(8, 6, 5, seed=1)
    xs = np.random.default_rng(0).random((20, 8))
    p1 = net.forward(xs)
    p2 = BiLSTM(8, 6, 5, seed=1).forward(xs)
    assert p1.shape == (20, 5)
    assert np.allclose(p1.sum(axis=1), 1.0)
    assert np.allclose(p1, p2)


def test_gradient_check_softmax_and_lstm():
    """Numeric gradient of -sum(target*log p) must match the analytic
    gradient stored by backward(target - p) (the CTC delta form,
    lstm.py:886-897)."""
    rng = np.random.default_rng(3)
    net = BiLSTM(4, 5, 3, seed=2)
    xs = rng.random((7, 4))
    tgt = rng.random((7, 3))
    tgt /= tgt.sum(axis=1, keepdims=True)

    def loss():
        p = net.forward(xs)
        return -(tgt * np.log(np.maximum(p, 1e-12))).sum()

    p = net.forward(xs)
    net.backward(tgt - p)
    eps = 1e-6
    for W, G in [(net.W2, net._g2), (net.fwd.WGI, net.fwd._grad["WGI"])]:
        G = G.copy()
        num = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                W[i, j] += eps
                lp = loss()
                W[i, j] -= 2 * eps
                lm = loss()
                W[i, j] += eps
                num[i, j] = (lp - lm) / (2 * eps)
        rel = np.abs(G + num).max() / max(np.abs(num).max(), 1e-9)
        assert rel < 1e-4, rel


def test_translate_back_decodes_regions():
    """Posteriors with two below-blank-threshold regions decode to the
    argmax class of each region with its probability."""
    no = 4
    out = np.full((10, no), 0.01)
    out[:, 0] = 0.9  # blank everywhere...
    out[2:4, 0] = 0.1
    out[2:4, 2] = 0.8  # region 1 -> class 2
    out[6:9, 0] = 0.2
    out[7, 3] = 0.85  # region 2 -> class 3 at t=7
    dec = translate_back(out, threshold=0.7)
    assert [(c, t) for t, c, _ in dec] == [(2, 2), (3, 7)] or [
        (c,) for _, c, _ in dec
    ] == [(2,), (3,)]
    codes = [c for _, c, _ in dec]
    confs = [cf for _, _, cf in dec]
    assert codes == [2, 3]
    assert confs[0] == pytest.approx(0.8) and confs[1] == pytest.approx(0.85)


def test_ctc_align_rows_are_distributions():
    rng = np.random.default_rng(0)
    out = rng.random((30, 6))
    out /= out.sum(axis=1, keepdims=True)
    tgt = make_target([2, 4, 1], 6)
    assert tgt.shape == (7, 6)
    assert (tgt[::2, 0] == 1).all()  # blank every other state
    aligned = ctc_align_targets(out, tgt)
    assert aligned.shape == out.shape
    assert np.allclose(aligned.sum(axis=1), 1.0)


def test_train_and_recognize_rendered_lines():
    """CTC training on 5 rendered lines converges to <10% CER within
    40 epochs (lr 0.01, momentum 0.9) — the end-to-end analog of the
    reference's run_training_test.bash."""
    codec = Codec(["", "~"] + list(CHARS))
    imgs = [render_line(t) for t in TEXTS]
    rec = SeqRecognizer(imgs[0].shape[0], 40, codec, seed=7)
    for _ in range(40):
        for img, t in zip(imgs, TEXTS):
            rec.train_line(img, t, lr=0.01)
    errs = sum(levenshtein(rec.predict_line(img)[0], t) for img, t in zip(imgs, TEXTS))
    total = sum(len(t) for t in TEXTS)
    assert errs / total < 0.10, f"CER {errs}/{total}"
    # per-char confidences and positions come back monotone in x
    text, confs, positions = rec.predict_line(imgs[0])
    assert len(text) == len(confs) == len(positions)
    assert all(b >= a for a, b in zip(positions, positions[1:]))


def test_recognizer_actor_lstm_path(ray_session, tmp_path):
    """The trained model drives recognize_lines end-to-end (model
    unpickled once per worker via model_path)."""
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.sources.media import encode_gray
    from ocrd_cis_ray.stages.recognize import recognize_lines

    codec = Codec(["", "~"] + list(CHARS))
    imgs = [render_line(t) for t in TEXTS]
    rec = SeqRecognizer(imgs[0].shape[0], 40, codec, seed=7)
    for _ in range(40):
        for img, t in zip(imgs, TEXTS):
            rec.train_line(img, t, lr=0.01)
    path = str(tmp_path / "model.pkl")
    rec.save(path)

    rows = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(len(TEXTS))],
            "span_id": [f"line-{i}" for i in range(len(TEXTS))],
            "pixels": pa.array([encode_gray(im) for im in imgs], pa.large_binary()),
        }
    )
    out = (
        recognize_lines(rd.from_arrow(rows), model_path=path)
        .to_pandas()
        .set_index("doc_id")
    )
    errs = sum(levenshtein(out.loc[f"d{i}", "text"], t) for i, t in enumerate(TEXTS))
    assert errs <= 2
    w0 = out.loc["d0", "words"]
    assert len(w0) >= 1 and all(w["conf"] > 0 for w in w0)


def test_train_recognizer_dataset_entrypoint(ray_session, tmp_path):
    """train_recognizer (the ocrd-cis-ocropy-train analog): Dataset of
    (pixels, gt_text) line rows -> pickled model; heights normalized
    via resize_to_height; model drives the recognition tasks."""
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.sources.media import encode_gray
    from ocrd_cis_ray.stages.lstm import train_recognizer
    from ocrd_cis_ray.stages.recognize import recognize_lines

    imgs = [render_line(t) for t in TEXTS]
    tbl = pa.table(
        {
            "pixels": pa.array([encode_gray(im) for im in imgs], pa.large_binary()),
            "gt_text": list(TEXTS),
        }
    )
    path = str(tmp_path / "model.pkl")
    res = train_recognizer(rd.from_arrow(tbl), path, epochs=40, line_height=imgs[0].shape[0])
    assert res["lines"] == len(TEXTS)
    assert res["final_cer"] < 0.10
    rows = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(len(TEXTS))],
            "span_id": ["line-0"] * len(TEXTS),
            "pixels": pa.array([encode_gray(im) for im in imgs], pa.large_binary()),
        }
    )
    out = recognize_lines(rd.from_arrow(rows), model_path=path).to_pandas()
    errs = sum(
        levenshtein(t_pred, t) for t_pred, t in zip(out.sort_values("doc_id")["text"], TEXTS)
    )
    assert errs <= 2


def test_resize_to_height():
    from ocrd_cis_ray.sources.media import resize_to_height

    img = render_line("resize me")
    h, w = img.shape
    out = resize_to_height(img, 48)
    assert out.shape[0] == 48
    assert abs(out.shape[1] - round(w * 48 / h)) <= 1
    assert (out < 128).any()
    assert resize_to_height(img, h) is img
