"""Recognizer (template OCR) and post-correction stages (token and line
tasks with once-per-worker state), plus the chained render → recognize
→ postcorrect pipeline."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from ocrd_cis_ray.sources.media import encode_gray, render_line
from ocrd_cis_ray.stages.postcorrect import PostCorrector, learn_confusions, postcorrect_tokens
from ocrd_cis_ray.stages.recognize import Recognizer, recognize_lines


def test_recognizer_exact_on_clean_render():
    r = Recognizer()
    for text in ("hello world", "the quick brown fox", "a b c"):
        got, conf, words, _ = r.recognize_line(render_line(text))
        assert got == text
        assert conf > 0.9
        assert [w["text"] for w in words] == text.split()


def test_recognizer_word_confidence_semantics():
    r = Recognizer()
    _, _, words, _ = r.recognize_line(render_line("word"))
    # word conf = (min+max)/2 of glyph confs — for a perfect match all
    # glyph confs are 1.0
    assert words[0]["conf"] == pytest.approx(1.0, abs=1e-5)
    assert words[0]["x0"] >= 0


def test_recognizer_actor_stage(ray_session):
    """recognize_lines runs the Recognizer as plain tasks and recovers
    every clean rendered line."""
    import ray.data as rd

    rows = [
        {
            "doc_id": f"d{i}",
            "span_id": f"s{i}",
            "pixels": encode_gray(render_line(f"line {i} text")),
        }
        for i in range(8)
    ]
    out = recognize_lines(rd.from_arrow(pa.Table.from_pylist(rows)), batch_size=4).to_pandas()
    assert list(out.sort_values("doc_id")["text"]) == [f"line {i} text" for i in range(8)]


LEXICON = {"hello": 50, "world": 40, "quick": 20, "brown": 20, "fox": 10, "the": 100}


def test_postcorrector_corrects_known_errors():
    pc = PostCorrector(LEXICON)
    cands = pc.candidates("hcllo")
    assert cands and cands[0][0] == "hello" and cands[0][1] == 1
    cands = pc.candidates("wrld")  # deletion
    assert cands and cands[0][0] == "world"
    assert pc.candidates("zzzzzz") == []  # nothing within distance 2


def test_postcorrector_channel_model_prefers_seen_confusion():
    # 'c'->'e' is a known OCR confusion; token 'thc' should prefer 'the'
    lex = {"the": 100, "thy": 100}  # equal priors: channel model decides
    pc_with = PostCorrector(lex, {("c", "e"): 0.9})
    cands = pc_with.candidates("thc")
    assert cands[0][0] == "the"
    pc_against = PostCorrector(lex, {("c", "y"): 0.9})
    cands = pc_against.candidates("thc")
    assert cands[0][0] == "thy"


def test_postcorrector_max_candidates():
    lex = {f"word{c}": 10 for c in "abcdefghijklmn"}
    pc = PostCorrector(lex, max_candidates=10)
    cands = pc.candidates("word")
    assert len(cands) == 10


def _reference_candidates(pc: PostCorrector, token: str, peer: str = "") -> list:
    """Brute force over the whole lexicon: every word within
    ``max_dist`` (by ``levenshtein``), scored from its edit script, plus
    the peer vote within ``max_dist + 1``; sorted by (-score, distance,
    word), top ``max_candidates``."""
    import math

    from ocrd_cis_ray.util import edit_ops, levenshtein

    def score(w):
        s = math.log(pc.lexicon.get(w, 1) / pc.total)
        for i, j in edit_ops(token, w)[1]:
            a = token[i] if i is not None else ""
            b = w[j] if j is not None else ""
            if a != b:
                c = pc.confusions.get((a, b))
                s += math.log(c) if c and c > 0 else -4.0
        return s

    out = {w: (w, levenshtein(token, w), score(w)) for w in pc.lexicon if levenshtein(token, w) <= pc.max_dist}
    key = lambda t: (-t[2], t[1], t[0])  # noqa: E731
    out = dict(sorted(out.items(), key=lambda kv: key(kv[1]))[: pc.max_candidates])
    if peer and peer != token and peer in pc.lexicon and levenshtein(token, peer) <= pc.max_dist + 1:
        out[peer] = (peer, levenshtein(token, peer), score(peer) + pc.VOTE_BONUS)
    return sorted(out.values(), key=key)[: pc.max_candidates]


_LEX_WORDS = st.text(alphabet="abcé", min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(_LEX_WORDS, st.integers(1, 50), min_size=1, max_size=25),
    st.text(alphabet="abcéx", max_size=7),
    st.integers(0, 24),
    st.integers(1, 2),
    st.integers(1, 6),
    st.dictionaries(st.tuples(st.sampled_from(["", "a", "b", "c", "x"]), st.sampled_from(["", "a", "b", "é"])), st.floats(0.01, 1.0), max_size=6),
)
def test_candidates_match_brute_force(lexicon, token, peer_ix, max_dist, max_candidates, confusions):
    """The delete-variant index finds every lexicon word within
    ``max_dist``, so ``candidates`` and the peer-vote merge of
    ``merged_candidates`` equal a brute force over the lexicon."""
    pc = PostCorrector(lexicon, confusions, max_dist=max_dist, max_candidates=max_candidates)
    peer = sorted(lexicon)[peer_ix % len(lexicon)]
    assert pc.candidates(token) == _reference_candidates(pc, token)
    assert pc.merged_candidates(token, peer) == _reference_candidates(pc, token, peer)


def test_postcorrect_stage(ray_session):
    import ray.data as rd

    rows = [
        {"doc_id": "d0", "line_no": 0, "word_no": 0, "token": "hcllo"},
        {"doc_id": "d0", "line_no": 0, "word_no": 1, "token": "world"},
    ]
    out = (
        postcorrect_tokens(rd.from_items(rows), LEXICON)
        .to_pandas()
        .sort_values("word_no")
    )
    assert list(out["corrected"]) == ["hello", "world"]
    assert list(out["suspicious"]) == [True, False]
    assert len(out["candidates"].iloc[0]) >= 1


def test_learn_confusions(ray_session):
    import ray.data as rd

    pairs = rd.from_items(
        [
            {"text": "hcllo", "gt_text": "hello"},
            {"text": "wcrld", "gt_text": "world"},
            {"text": "same", "gt_text": "same"},
        ]
    )
    conf = learn_confusions(pairs)
    assert conf.get(("c", "e")) == pytest.approx(0.5)
    assert conf.get(("c", "o")) == pytest.approx(0.5)


def test_confusion_sample_is_per_pair(ray_session):
    """The content-hash sample keeps or drops each (ocr, gt) pair on its
    own content: two pairs with the same OCR text and different GT get
    the decisions they get apart, together and in reversed order."""
    import ray.data as rd

    dropped, kept = {"text": "ab", "gt_text": "xb"}, {"text": "ab", "gt_text": "az"}

    def learn(rows):  # one block: the rows share a batch
        return learn_confusions(rd.from_arrow(pa.Table.from_pylist(rows)), sample_rate=0.5)

    assert learn([dropped]) == {}
    assert learn([kept]) == {("b", "z"): 1.0}
    assert learn([dropped, kept]) == learn([kept, dropped]) == {("b", "z"): 1.0}


def test_full_ocr_chain(ray_session):
    """render (with noise) → recognize tasks → postcorrect tasks: the
    reference's recognize→align→postcorrect flow, single-source."""
    import ray.data as rd

    texts = ["hello world", "the quick brown fox"]
    rows = [
        {"doc_id": f"d{i}", "span_id": "s0", "pixels": encode_gray(render_line(t))}
        for i, t in enumerate(texts)
    ]
    rec = recognize_lines(rd.from_arrow(pa.Table.from_pylist(rows)))

    def to_tokens(b):
        out = {"doc_id": [], "line_no": [], "word_no": [], "token": []}
        for did, words in zip(b["doc_id"].to_pylist(), b["words"].to_pylist()):
            for wn, w in enumerate(words):
                out["doc_id"].append(did)
                out["line_no"].append(0)
                out["word_no"].append(wn)
                out["token"].append(w["text"])
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"]),
                "line_no": pa.array(out["line_no"], pa.int32()),
                "word_no": pa.array(out["word_no"], pa.int32()),
                "token": pa.array(out["token"]),
            }
        )

    tokens = rec.map_batches(to_tokens, batch_format="pyarrow")
    corrected = postcorrect_tokens(tokens, LEXICON).to_pandas()
    got = corrected.sort_values(["doc_id", "word_no"]).groupby("doc_id")["corrected"].apply(" ".join)
    assert got["d0"] == "hello world"
    assert got["d1"] == "the quick brown fox"


RANK_LEX = {
    "smite": 50, "hello": 100, "world": 80, "crown": 40, "plane": 40,
    "stone": 40, "grape": 40, "mouse": 40, "house": 40, "track": 40,
    "bring": 40, "shine": 40, "feast": 40, "globe": 40,
}
# keep cases: OOV tokens both engines agree on (GT = the token itself);
# the fixed vote mangles them into the nearest lexicon word
_KEEP = ["smith", "hella", "worla", "crowd", "plant", "stony"]
# error cases: the peer engine (and GT) name the right lexicon word
_ERR = [
    ("wxrld", "world"), ("hxllo", "hello"), ("crxwn", "crown"),
    ("plxne", "plane"), ("stxne", "stone"), ("grxpe", "grape"),
    ("mxuse", "mouse"), ("trxck", "track"), ("brxng", "bring"),
    ("shxne", "shine"), ("fxast", "feast"), ("glxbe", "globe"),
]


def _ranker_lines():
    rows = [{"text": t, "peer_text": t, "gt_text": t} for t in _KEEP]
    rows += [{"text": t, "peer_text": gt, "gt_text": gt} for t, gt in _ERR]
    return rows


def test_train_ranker_learns_keep_decision(ray_session):
    """The learned decision-maker (reference dmFeatures: runDM decides
    whether the top candidate is applied, postcorrect/cli.py:34-39)
    keeps agreed-on OOV tokens the fixed vote would mangle."""
    import ray.data as rd

    from ocrd_cis_ray.stages.postcorrect import train_ranker

    w = train_ranker(rd.from_items(_ranker_lines()), RANK_LEX)
    assert w is not None

    batch = pa.table(
        {
            "doc_id": ["d"] * 2, "line_no": pa.array([0, 0], pa.int32()),
            "word_no": pa.array([0, 1], pa.int32()),
            "token": ["smith", "wxrld"], "peer": ["smith", "world"],
        }
    )
    fixed = PostCorrector(RANK_LEX)(batch)["corrected"].to_pylist()
    learned = PostCorrector(RANK_LEX, ranker=w)(batch)["corrected"].to_pylist()
    assert fixed == ["smite", "world"]  # fixed vote mangles the OOV keep
    assert learned == ["smith", "world"]  # ranker keeps it, still corrects


def test_train_ranker_deterministic(ray_session):
    import ray.data as rd

    from ocrd_cis_ray.stages.postcorrect import train_ranker

    lines = _ranker_lines()
    w1 = train_ranker(rd.from_items(lines), RANK_LEX)
    w2 = train_ranker(rd.from_items(list(reversed(lines))), RANK_LEX)
    assert np.array_equal(w1, w2)


def test_train_ranker_gate_falls_back(ray_session):
    """Model selection: too few examples, or a learned decision that
    does not beat the fixed vote on the training sample, returns None
    (the chain then keeps the fixed vote)."""
    import ray.data as rd

    from ocrd_cis_ray.stages.postcorrect import train_ranker

    few = [{"text": "wxrld", "peer_text": "world", "gt_text": "world"}]
    assert train_ranker(rd.from_items(few), RANK_LEX) is None
    # every GT is the rank-0 candidate -> fixed vote is already perfect
    perfect = [{"text": t, "peer_text": gt, "gt_text": gt} for t, gt in _ERR]
    assert train_ranker(rd.from_items(perfect), RANK_LEX) is None


def _ranker_by_occurrence(rows, lexicon, min_examples):
    """Ranker training as one example group per token occurrence, then
    a sort and dedup per (tok_id, rank, keep) in pandas: the reference
    for ``reduce_ranker``, which computes each distinct triple once."""
    import pandas as pd

    from ocrd_cis_ray.stages.align import match_cursor
    from ocrd_cis_ray.stages.postcorrect import _fit_logistic, _selection_counts
    from ocrd_cis_ray.util import clean_token

    pcor = PostCorrector(lexicon)
    feats, labels, toks = [], [], []
    for r in rows:
        words = r["text"].split(" ") if r["text"] else []
        keys = [clean_token(w) for w in words]
        if not any(k and k not in lexicon for k in keys):
            continue
        ptoks = r["peer_text"].split(" ") if r["peer_text"] else []
        gtoks = r["gt_text"].split(" ") if r["gt_text"] else []
        matched = match_cursor(words, ptoks) if ptoks else None
        gmatched = match_cursor(words, gtoks) if gtoks else None
        if gmatched is None:
            continue
        for wn, key in enumerate(keys):
            gt_tok = clean_token(gtoks[gmatched[wn]]) if key and key not in lexicon else ""
            if not gt_tok:
                continue
            peer = clean_token(ptoks[matched[wn]]) if matched is not None else ""
            cands = pcor.merged_candidates(key, peer)
            if not cands:
                continue
            feats.append(pcor.cand_features(key, peer, cands, include_keep=True))
            labels += [1.0 if c[0] == gt_tok else 0.0 for c in cands] + [1.0 if key == gt_tok else 0.0]
            name = np.asarray([f"{key}\x00{peer}\x00{gt_tok}"], dtype=object)
            toks += [pd.util.hash_array(name, categorize=False)[0]] * (len(cands) + 1)
    if len(labels) < min_examples:
        return None
    ex = pd.DataFrame(np.concatenate(feats), columns=[f"f_{n}" for n in PostCorrector.RANKER_FEATURES])
    ex["label"] = labels
    ex["tok_id"] = np.asarray(toks, np.uint64)
    ex = ex.sort_values(list(ex.columns)).drop_duplicates(subset=["tok_id", "f_rank", "f_is_keep"], keep="first")
    y = ex["label"].to_numpy(np.float64)
    if y.min() == y.max():
        return None
    tok = ex["tok_id"].to_numpy(np.uint64)
    X = ex.drop(columns=["label", "tok_id"]).to_numpy(np.float64)
    order = np.lexsort(tuple(X[:, i] for i in range(X.shape[1] - 1, -1, -1)) + (tok,))
    X, y, tok = X[order], y[order], tok[order]
    w = _fit_logistic(X, y)
    groups, fixed_ok, learned_ok = _selection_counts(tok, X @ w, y, (X[:, 1] == 0.0) & (X[:, 7] == 0.0))
    return w if groups and learned_ok > fixed_ok else None


_TRUTH = {**{t: gt for t, gt in _ERR}, **{w: w for w in list(RANK_LEX) + _KEEP}}
_WORDS = sorted(_TRUTH) + ["Hello,", "x1", "wxrld."]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(["truth", "same", "none", "extra"]), st.booleans()), max_size=5),
        max_size=14,
    ),
    st.integers(1, 3),
    st.integers(1, 60),
)
def test_ranker_matches_the_per_occurrence_reference(lines, repeats, min_examples):
    """``reduce_ranker`` over the per-batch triple counts gives the
    weights (or the None) of the per-occurrence reference: the same
    ``min_examples`` count over all occurrences (lines repeat), the same
    example groups and order, the same fit and model selection."""
    from ocrd_cis_ray.stages.postcorrect import _triple_partials, reduce_ranker
    from ocrd_cis_ray.util import clean_token

    rows = []
    for line in lines:
        truth = [_TRUTH.get(clean_token(w), w) for w, _, _ in line]
        peer = []
        for (w, how, _), t in zip(line, truth):
            peer += {"truth": [t], "same": [w], "none": [], "extra": ["qq", t]}[how]
        gt = [t if to_truth else w for (w, _, to_truth), t in zip(line, truth)]
        rows.append({"text": " ".join(w for w, _, _ in line), "peer_text": " ".join(peer), "gt_text": " ".join(gt)})
    rows *= repeats
    half = len(rows) // 2  # two batches
    parts = [_triple_partials(pa.Table.from_pylist(rs, schema=_LINE_SCHEMA), sample_rate=1.0) for rs in (rows[:half], rows[half:])]
    for m in (1, min_examples):
        got = reduce_ranker(parts, RANK_LEX, min_examples=m)
        want = _ranker_by_occurrence(rows, RANK_LEX, m)
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()


_LINE_SCHEMA = pa.schema([("text", pa.string()), ("peer_text", pa.string()), ("gt_text", pa.string())])


def test_worker_state_builds_once_per_ref_and_holds_no_ref(ray_session):
    """The once-per-worker cache rebuilds for a new state ref, reuses the
    object for the same ref, and keeps only the ref's hex id: a held
    ObjectRef would pin the previous run's state in the object store."""
    import ray

    from ocrd_cis_ray.stages import postcorrect

    builds = []

    def build(tag):
        builds.append(tag)
        return object()

    ref_a, ref_b = ray.put((("a",), {})), ray.put((("b",), {}))
    a = postcorrect.worker_state(ref_a, build)
    assert postcorrect.worker_state(ref_a, build) is a
    b = postcorrect.worker_state(ref_b, build)
    assert b is not a and builds == ["a", "b"]
    assert not any(isinstance(v, ray.ObjectRef) for v in postcorrect._WORKER_STATE.values())


def test_correct_lines_follows_each_runs_lexicon(ray_session):
    """The same lines corrected twice in one session, under lexicon A and
    then lexicon B: each result follows its own lexicon. A worker cache
    that served A's corrector to the second run would return rows built
    from other inputs."""
    import ray.data as rd

    from ocrd_cis_ray.stages.postcorrect import LineCorrector, correct_lines

    lines = [{"text": "wxrld hxllo", "peer_text": ""}] * 32
    lex_a = {"world": 80, "hello": 100}
    lex_b = {"wurld": 80, "hallo": 100}

    def run(lex):
        ds = rd.from_items(lines, override_num_blocks=8)
        return correct_lines(ds, lex).to_pandas()["corrected_text"].tolist()

    assert run(lex_a) == ["world hello"] * 32
    assert run(lex_b) == ["wurld hallo"] * 32
    direct = LineCorrector(lex_b)(pa.Table.from_pylist(lines[:1]))["corrected_text"].to_pylist()
    assert direct == ["wurld hallo"]


def test_recognizer_glyph_spans():
    """emit_glyphs surfaces one glyph per character with grid positions
    and per-char confidences (reference recognize.py:267-302 Glyph
    elements); word conf must equal (min+max)/2 over its glyph confs
    (recognize.py:263-265)."""
    r = Recognizer(emit_glyphs=True)
    text, _, words, glyphs = r.recognize_line(render_line("ab cd"))
    assert text == "ab cd"
    assert [g["text"] for g in glyphs] == ["a", "b", " ", "c", "d"]
    # positions: glyph grid stride, starting at the first word's x0
    xs = [int(g["x0"]) for g in glyphs]
    assert xs == [xs[0] + 8 * i for i in range(5)]
    assert xs[0] == int(words[0]["x0"])
    assert int(words[1]["x0"]) == xs[3]
    # word conf parity: (min+max)/2 of its glyph confs
    for w, lo, hi in ((words[0], 0, 2), (words[1], 3, 5)):
        gconfs = [float(g["conf"]) for g in glyphs[lo:hi]]
        assert float(w["conf"]) == pytest.approx((min(gconfs) + max(gconfs)) / 2)


def test_recognizer_batch_matches_each_line():
    """A batch is matched in one call, and each row is what its line
    gives alone: lines of different heights and widths, skewed and
    specked ones, an ink-trimmed crop, a blank line and a payload that
    does not decode (empty row)."""
    lines = [
        render_line("the quick brown fox"),
        render_line("ab", skew_deg=1.0, noise=4, seed=3),
        render_line("Xyz 0.9;", intruder=True),
        render_line("hello world", noise=9, seed=5)[3:-2, 10:],
        np.full((30, 12), 255, np.uint8),
        render_line("a b c")[:, :40],
    ]
    bufs = [encode_gray(im) for im in lines]
    bufs.insert(2, b"not a raw-gray payload")
    batch = pa.table({"doc_id": [str(i) for i in range(len(bufs))], "span_id": ["l"] * len(bufs),
                      "pixels": pa.array(bufs, pa.large_binary())})
    for kw in ({}, {"text_only": True}, {"emit_glyphs": True}):
        r = Recognizer(**kw)
        got = r(batch).to_pylist()
        want = [r.recognize_line(im) for im in lines]
        want.insert(2, ("", 0.0, [], []))
        assert [row["text"] for row in got] == [w[0] for w in want]
        assert [row["conf"] for row in got] == [np.float32(w[1]) for w in want]
        if not kw.get("text_only"):
            one = r(batch.slice(0, 1)).to_pylist() + r(batch.slice(1, 1)).to_pylist()
            assert [row["words"] for row in got[:2]] == [row["words"] for row in one]
            assert got[0]["text"] == "the quick brown fox"
        if kw.get("emit_glyphs"):
            assert [len(row["glyphs"]) for row in got] == [len(w[3]) for w in want]


def test_recognizer_glyph_stage(ray_session):
    """The recognition stage exposes the glyphs column when asked and
    keeps the q71 schema unchanged otherwise."""
    import ray.data as rd

    rows = [
        {
            "doc_id": 1,
            "span_id": "line-0",
            "pixels": encode_gray(render_line("hey you")),
        }
    ]
    ds = rd.from_items(rows)
    plain = recognize_lines(ds, batch_size=8).take_all()
    assert "glyphs" not in plain[0]
    out = recognize_lines(ds, batch_size=8, emit_glyphs=True).take_all()
    gs = out[0]["glyphs"]
    assert "".join(g["text"] for g in gs) == "hey you"


def _selection_loop(tok, z, y, rank0):
    """train_ranker's model selection as a pandas loop per token group."""
    import pandas as pd

    df = pd.DataFrame({"tok": tok, "z": z, "y": y, "rank0": rank0})
    fixed_ok = learned_ok = groups = 0
    for _, g in df.groupby("tok", sort=False):
        groups += 1
        r0 = g[g["rank0"]]
        fixed_ok += int(r0["y"].iloc[0]) if len(r0) else 0
        learned_ok += int(g.loc[g["z"].idxmax(), "y"])
    return groups, fixed_ok, learned_ok


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.sampled_from([0.0, 1.0]), st.booleans()),
        max_size=40,
    ),
    st.booleans(),
)
def test_ranker_selection_matches_the_group_loop(rows, sort_by_tok):
    """The vectorized selection counts equal the per-group loop's: ties
    in score go to the group's first row, a group without a rank-0 row
    counts 0 for the fixed vote, and rows need not be grouped by tok."""
    from ocrd_cis_ray.stages.postcorrect import _selection_counts

    if sort_by_tok:
        rows = sorted(rows, key=lambda r: r[0])
    tok = np.array([r[0] for r in rows], np.uint64)
    z = np.array([r[1] for r in rows], np.float64)
    y = np.array([r[2] for r in rows], np.float64)
    rank0 = np.array([r[3] for r in rows], bool)
    assert _selection_counts(tok, z, y, rank0) == _selection_loop(tok, z, y, rank0)
