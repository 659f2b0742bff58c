"""Numpy BIDILSTM + CTC line recognition AND training.

Reimplements the published ocropy LSTM recognizer semantics — the
reference's core operator — without any ML framework:

- BIDILSTM = forward LSTM + reversed LSTM, outputs concatenated, then a
  bias-augmented softmax layer (reference ocrd_cis/ocropy/ocrolib/
  lstm.py:692-702 BIDILSTM, :274-300 Softmax)
- LSTM cell with input/forget/output gates and peephole weights
  WIP/WFP/WOP (lstm.py:396-417 forward_py equations)
- ``prepare_line``: invert, transpose, pad 16 blank frames each side
  (lstm.py:43-52); time axis = image columns, input dim = image rows
- CTC decoding ``translate_back``: threshold the blank class, take the
  (time, class) argmax per above-threshold region (lstm.py:737-755)
- CTC training: unary state targets (make_target, lstm.py:707-721),
  log-domain forward/backward alignment (lstm.py:757-837), delta =
  aligned - outputs at the softmax output (lstm.py:886-897
  trainSequence), SGD with momentum
- ``Codec`` char↔code table with "~" fallback (lstm.py:933-955)

NOT a copy: the implementation here is vectorized numpy — per-gate
input projections are ONE matmul over the whole sequence (the reference
does 4 mat-vecs per timestep), the recurrent update per step is
(ns)-sized only, weight gradients accumulate via a single einsum after
the backward loop, and blank-region decoding uses vectorized run-length
extraction instead of scipy ``measurements.label``.
"""

from __future__ import annotations

import pickle

import numpy as np

INITIAL_RANGE = 0.1


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50.0, 50.0)))


# ---------------------------------------------------------------------------
# codec + line preparation


class Codec:
    """Translate between integer codes and characters. Code 0 is the
    CTC blank (charset entry "")."""

    def __init__(self, charset):
        charset = sorted(set(charset))
        self.code2char = list(charset)
        self.char2code = {c: i for i, c in enumerate(charset)}

    def size(self) -> int:
        return len(self.code2char)

    def encode(self, s: str) -> list[int]:
        dflt = self.char2code.get("~", 0)
        return [self.char2code.get(c, dflt) for c in s]

    def decode(self, codes) -> str:
        n = len(self.code2char)
        return "".join(self.code2char[c] if 0 <= c < n else "~" for c in codes)


def ascii_codec() -> Codec:
    """Blank + space + '~' + printable ASCII (the reference's
    ascii_labels, lstm.py:957)."""
    return Codec(["", " ", "~"] + [chr(x) for x in range(33, 126)])


def prepare_line(line: np.ndarray, pad: int = 16) -> np.ndarray:
    """Grayscale line (h, w), white background -> LSTM input sequence
    (w + 2·pad, h): normalized, ink-positive, transposed, padded with
    blank frames (prepare_line semantics, lstm.py:43-52)."""
    a = line.astype(np.float64)
    mx = a.max()
    if mx > 0:
        a = a / mx
    a = a.max() - a  # invert: ink -> high
    a = a.T  # (w, h): time = columns
    if pad > 0:
        w = a.shape[1]
        a = np.vstack([np.zeros((pad, w)), a, np.zeros((pad, w))])
    return a


# ---------------------------------------------------------------------------
# LSTM layer (vectorized forward/backward)


class LSTMLayer:
    """One directional LSTM with peepholes.

    Weight layout per gate: (ns, 1 + ni + ns) over the 1-augmented
    [bias, input, recurrent] source vector — same augmentation as the
    reference (forward_py source construction, lstm.py:398-401)."""

    def __init__(self, ni: int, ns: int, rng: np.random.Generator):
        self.ni, self.ns = ni, ns
        na = 1 + ni + ns

        def ru(*shape):
            return (2.0 * rng.random(shape) - 1.0) * INITIAL_RANGE

        self.WGI, self.WGF, self.WGO, self.WCI = ru(ns, na), ru(ns, na), ru(ns, na), ru(ns, na)
        self.WIP, self.WFP, self.WOP = ru(ns), ru(ns), ru(ns)
        self._vel = {n: np.zeros_like(getattr(self, n)) for n in
                     ("WGI", "WGF", "WGO", "WCI", "WIP", "WFP", "WOP")}
        self._grad = {}
        self._cache = None

    def forward(self, xs: np.ndarray) -> np.ndarray:
        """xs (n, ni) -> outputs (n, ns). Input+bias projections for
        all 4 gates are single matmuls over the whole sequence; only
        the (ns,)-sized recurrent/peephole terms run per step."""
        n, ni, ns = len(xs), self.ni, self.ns
        cut = 1 + ni
        aug = np.hstack([np.ones((n, 1)), xs])  # (n, 1+ni)
        in_gi = aug @ self.WGI[:, :cut].T
        in_gf = aug @ self.WGF[:, :cut].T
        in_go = aug @ self.WGO[:, :cut].T
        in_ci = aug @ self.WCI[:, :cut].T
        Rgi, Rgf, Rgo, Rci = (W[:, cut:] for W in (self.WGI, self.WGF, self.WGO, self.WCI))
        gi = np.empty((n, ns)); gf = np.empty((n, ns)); go = np.empty((n, ns))
        ci = np.empty((n, ns)); state = np.empty((n, ns)); output = np.empty((n, ns))
        prev_out = np.zeros(ns)
        prev_state = np.zeros(ns)
        for t in range(n):
            gix = in_gi[t] + Rgi @ prev_out
            gfx = in_gf[t] + Rgf @ prev_out
            cix = in_ci[t] + Rci @ prev_out
            if t > 0:
                gix += self.WIP * prev_state
                gfx += self.WFP * prev_state
            gi[t] = sigmoid(gix)
            gf[t] = sigmoid(gfx)
            ci[t] = np.tanh(cix)
            s = ci[t] * gi[t]
            if t > 0:
                s += gf[t] * prev_state
            state[t] = s
            gox = in_go[t] + Rgo @ prev_out + self.WOP * s
            go[t] = sigmoid(gox)
            output[t] = np.tanh(s) * go[t]
            prev_out, prev_state = output[t], s
        source = np.hstack([aug, np.vstack([np.zeros(ns), output[:-1]])])  # (n, na)
        self._cache = (source, gi, gf, go, ci, state, output, xs)
        return output

    def backward(self, deltas: np.ndarray) -> np.ndarray:
        """deltas (n, ns) at the layer output -> deltas (n, ni) at the
        input; accumulates weight gradients (backward_py equations,
        lstm.py:422-466, einsum-accumulated)."""
        source, gi, gf, go, ci, state, output, xs = self._cache
        n, ni, ns = len(deltas), self.ni, self.ns
        cut = 1 + ni
        gierr = np.zeros((n, ns)); gferr = np.zeros((n, ns)); goerr = np.zeros((n, ns))
        cierr = np.zeros((n, ns)); stateerr = np.zeros((n, ns)); sourceerr = np.zeros((n, cut + ns))
        hs = np.tanh(state)
        for t in range(n - 1, -1, -1):
            outerr = deltas[t] + (sourceerr[t + 1][cut:] if t < n - 1 else 0.0)
            goerr[t] = go[t] * (1 - go[t]) * hs[t] * outerr
            serr = (1 - hs[t] ** 2) * go[t] * outerr + goerr[t] * self.WOP
            if t < n - 1:
                serr = serr + gferr[t + 1] * self.WFP + gierr[t + 1] * self.WIP + stateerr[t + 1] * gf[t + 1]
            stateerr[t] = serr
            if t > 0:
                gferr[t] = gf[t] * (1 - gf[t]) * serr * state[t - 1]
            gierr[t] = gi[t] * (1 - gi[t]) * serr * ci[t]
            cierr[t] = (1 - ci[t] ** 2) * serr * gi[t]
            se = gierr[t] @ self.WGI + goerr[t] @ self.WGO + cierr[t] @ self.WCI
            if t > 0:
                se = se + gferr[t] @ self.WGF
            sourceerr[t] = se
        self._grad = {
            "WGI": np.einsum("ts,ta->sa", gierr, source),
            "WGF": np.einsum("ts,ta->sa", gferr[1:], source[1:]) if n > 1 else np.zeros_like(self.WGF),
            "WGO": np.einsum("ts,ta->sa", goerr, source),
            "WCI": np.einsum("ts,ta->sa", cierr, source),
            "WIP": (gierr[1:] * state[:-1]).sum(axis=0) if n > 1 else np.zeros_like(self.WIP),
            "WFP": (gferr[1:] * state[:-1]).sum(axis=0) if n > 1 else np.zeros_like(self.WFP),
            "WOP": (goerr * state).sum(axis=0),
        }
        return sourceerr[:, 1:cut]

    def update(self, lr: float, momentum: float = 0.9):
        for name, g in self._grad.items():
            v = self._vel[name]
            v *= momentum
            v += lr * g
            getattr(self, name).__iadd__(v)


# ---------------------------------------------------------------------------
# BIDILSTM + softmax


class BiLSTM:
    """BIDILSTM(Ni, Ns, No): parallel forward + time-reversed LSTMs,
    concatenated, into a 1-augmented softmax (lstm.py:692-702)."""

    def __init__(self, ni: int, ns: int, no: int, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.ni, self.ns, self.no = ni, ns, no
        self.fwd = LSTMLayer(ni, ns, rng)
        self.rev = LSTMLayer(ni, ns, rng)
        self.W2 = (2.0 * rng.random((no, 2 * ns + 1)) - 1.0) * INITIAL_RANGE
        self._v2 = np.zeros_like(self.W2)
        self._z = None

    def forward(self, xs: np.ndarray) -> np.ndarray:
        """xs (n, ni) -> class posteriors (n, no), rows sum to 1."""
        y1 = self.fwd.forward(xs)
        y2 = self.rev.forward(xs[::-1])[::-1]
        z = np.hstack([np.ones((len(xs), 1)), y1, y2])
        logits = np.clip(z @ self.W2.T, -100, 100)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        self._z = z
        return probs

    def backward(self, deltas: np.ndarray):
        """deltas (n, no) at the softmax OUTPUT (the reference trains
        with dzspre = deltas directly, Softmax.backward lstm.py:301-309)."""
        self._g2 = np.einsum("to,ta->oa", deltas, self._z)
        dz = deltas @ self.W2[:, 1:]
        d1, d2 = dz[:, : self.ns], dz[:, self.ns :]
        self.fwd.backward(d1)
        self.rev.backward(d2[::-1])

    def update(self, lr: float, momentum: float = 0.9):
        self._v2 *= momentum
        self._v2 += lr * self._g2
        self.W2 += self._v2
        self.fwd.update(lr, momentum)
        self.rev.update(lr, momentum)


# ---------------------------------------------------------------------------
# CTC: decode + alignment


def translate_back(outputs: np.ndarray, threshold: float = 0.7) -> list[tuple[int, int, float]]:
    """Decode posteriors (n, no) -> [(pos, code, conf)]: find maximal
    runs where P(blank) < threshold, take the (time, class) argmax of
    each run (translate_back semantics, lstm.py:737-755; run-length
    labeling replaces scipy measurements.label on the 1-D mask)."""
    mask = outputs[:, 0] < threshold
    if not mask.any():
        return []
    d = np.diff(np.concatenate([[0], mask.view(np.int8), [0]]))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    result = []
    for s, e in zip(starts, ends):
        seg = outputs[s:e]
        flat = int(np.argmax(seg))
        t_off, c = divmod(flat, outputs.shape[1])
        result.append((s + t_off, int(c), float(seg.flat[flat])))
    return result


def make_target(cs: list[int], nc: int) -> np.ndarray:
    """Unary state-sequence target: blank, c1, blank, c2, ..., blank
    (make_target, lstm.py:707-721)."""
    result = np.zeros((2 * len(cs) + 1, nc))
    result[::2, 0] = 1.0
    for i, j in enumerate(cs):
        result[2 * i + 1, j] = 1.0
    return result


def _log_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x - y) > 10, np.maximum(x, y),
                    np.log(np.exp(np.clip(x - y, -20, 20)) + 1) + y)


def forward_algorithm(lmatch: np.ndarray, skip: float = -5.0) -> np.ndarray:
    """Edit-distance-style DP over log state-match scores: stay in the
    same state or advance one, cost = the match score
    (forward_algorithm, lstm.py:760-778)."""
    v = skip * np.arange(lmatch.shape[1], dtype=np.float64)
    out = np.empty_like(lmatch, dtype=np.float64)
    for i in range(len(lmatch)):
        w = np.roll(v, 1)
        w[0] = skip * i
        v = _log_add(v + lmatch[i], w + lmatch[i])
        out[i] = v
    return out


def ctc_align_targets(outputs: np.ndarray, targets: np.ndarray, lo: float = 1e-5) -> np.ndarray:
    """Posterior-weighted target alignment (ctc_align_targets,
    lstm.py:789-836): log match = log(outputs·targetsᵀ), forward +
    backward DP, state posteriors, project back to class space."""
    outputs = np.maximum(lo, outputs)
    outputs = outputs / outputs.sum(axis=1, keepdims=True)
    lmatch = np.log(outputs @ targets.T)
    lr = forward_algorithm(lmatch)
    rl = forward_algorithm(lmatch[::-1, ::-1])[::-1, ::-1]
    both = lr + rl
    epath = np.exp(both - both.max())
    div = epath.sum(axis=0, keepdims=True)
    epath = epath / np.where(div == 0.0, 1e-9, div)
    aligned = np.maximum(lo, epath @ targets)
    div = aligned.sum(axis=1, keepdims=True)
    return aligned / np.where(div == 0.0, 1e-9, div)


# ---------------------------------------------------------------------------
# sequence recognizer


class SeqRecognizer:
    """BIDILSTM sequence recognizer with codec (SeqRecognizer,
    lstm.py:843-931)."""

    def __init__(self, ninput: int, nstates: int, codec: Codec, seed: int = 42):
        self.Ni = ninput
        self.codec = codec
        self.lstm = BiLSTM(ninput, nstates, codec.size(), seed=seed)

    def predict_line(self, img: np.ndarray, pad: int = 16, threshold: float = 0.7):
        """Grayscale line image -> (text, per-char confs, per-char
        column positions in the ORIGINAL image)."""
        xs = prepare_line(img, pad)
        assert xs.shape[1] == self.Ni, f"wrong image height {xs.shape[1]} != {self.Ni}"
        probs = self.lstm.forward(xs)
        decoded = translate_back(probs, threshold=threshold)
        codes = [c for _, c, _ in decoded]
        confs = [conf for _, _, conf in decoded]
        positions = [max(0, t - pad) for t, _, _ in decoded]
        return self.codec.decode(codes), confs, positions

    def train_line(self, img: np.ndarray, text: str, lr: float = 0.1,
                   momentum: float = 0.9, pad: int = 16) -> str:
        """One CTC training step (trainSequence, lstm.py:882-905):
        forward → align targets → delta = aligned - outputs → backward
        → momentum update. Returns the current prediction."""
        xs = prepare_line(img, pad)
        cs = self.codec.encode(text)
        probs = self.lstm.forward(xs)
        targets = make_target(cs, self.codec.size())
        aligned = ctc_align_targets(probs, targets)
        self.lstm.backward(aligned - probs)
        self.lstm.update(lr, momentum)
        return self.codec.decode([c for _, c, _ in translate_back(probs)])

    def save(self, path: str):
        with open(path, "wb") as f:
            pickle.dump(self, f)

    @staticmethod
    def load(path: str) -> "SeqRecognizer":
        with open(path, "rb") as f:
            obj = pickle.load(f)
        if not isinstance(obj, SeqRecognizer):
            raise TypeError(f"not a SeqRecognizer model: {path}")
        return obj


def train_recognizer(
    ds,
    model_path: str,
    *,
    nstates: int = 40,
    epochs: int = 40,
    lr: float = 0.01,
    max_lines: int = 512,
    line_height: int = 28,
    seed: int = 7,
) -> dict:
    """Train a BIDILSTM+CTC recognizer from a Dataset of line rows
    (``pixels`` raw-gray payload, ``gt_text``) and pickle it to
    ``model_path``.

    Training is single-process over a bounded line sample — the exact
    shape of the reference (ocropy/train.py:58-207 / ocropus_rtrain:
    one process, `ntrain` random line draws); the distributed part of
    the story is INFERENCE, where the pickled model fans out to
    recognition tasks via ``model_path`` (loaded once per worker).
    The codec is built from the sample's character inventory. Returns
    {"lines", "classes", "epochs", "final_cer"}.
    """
    from ..sources.media import decode_gray, resize_to_height
    from ..util import levenshtein

    rows = ds.take(max_lines)
    imgs = [resize_to_height(decode_gray(r["pixels"]), line_height) for r in rows]
    texts = [r["gt_text"] or "" for r in rows]
    codec = Codec(["", "~"] + sorted({c for t in texts for c in t}))
    rec = SeqRecognizer(line_height, nstates, codec, seed=seed)
    # randomized draws: ocropus_rtrain presents lines in random order
    # each iteration (reference README.md:184 "randomly chosen lines"),
    # not a fixed epoch sweep — seeded here so training is deterministic
    order_rng = np.random.default_rng(seed)
    idx = np.arange(len(imgs))
    for _ in range(epochs):
        order_rng.shuffle(idx)
        for i in idx:
            rec.train_line(imgs[i], texts[i], lr=lr)
    errs = sum(levenshtein(rec.predict_line(img)[0], t) for img, t in zip(imgs, texts))
    total = max(1, sum(len(t) for t in texts))
    rec.save(model_path)
    return {
        "lines": len(rows),
        "classes": codec.size(),
        "epochs": epochs,
        "final_cer": round(errs / total, 4),
    }
