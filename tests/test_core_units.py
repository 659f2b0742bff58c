"""Unit tests: util functions, corpus determinism, aligner matcher
tiers + give-up semantics, extraction parity, metrics formulas, dedup
kernels."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from ocrd_cis_ray.corpus import corrupt_text, synth_batch, synth_variants_batch
from ocrd_cis_ray.stages.align import NWayAligner, match_cursor
from ocrd_cis_ray.stages.dedup import _popcount64, _shingle_hashes, simhash_batch
from ocrd_cis_ray.stages.extract import extract_spans_batch, flatten_spans_batch
from ocrd_cis_ray.stages.metrics import cer_partials_batch, wer_partials_batch
from ocrd_cis_ray.util import edit_confusions, edit_ops, lev_within, levenshtein, nfkc


# ---------------------------------------------------------------------------
# util


@pytest.mark.parametrize(
    "a,b,d",
    [
        ("kitten", "sitting", 3),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("flaw", "lawn", 2),
        ("a", "b", 1),
        ("abcdef", "azced", 3),
    ],
)
def test_levenshtein(a, b, d):
    assert levenshtein(a, b) == d
    assert levenshtein(b, a) == d
    for limit in range(5):
        assert lev_within(a, b, limit) == (d <= limit)


def test_edit_ops_alignment():
    d, pairs = edit_ops("abc", "axc")
    assert d == 1
    subs = [(a, b) for a, b in pairs if a is not None and b is not None]
    assert (1, 1) in subs


def _edit_ops_numpy(a, b):
    """Reference: the numpy row-fill DP (cummin identity per row) with
    the same backtrace, as ``edit_ops`` was before its plain-Python DP."""
    n, m = len(a), len(b)
    dp = np.zeros((n + 1, m + 1), dtype=np.int32)
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    if n and m:
        neq = np.array([[x != y for y in b] for x in a], dtype=bool)
        js = np.arange(1, m + 1, dtype=np.int32)
        for i in range(1, n + 1):
            prev = dp[i - 1]
            t = np.minimum(prev[1:] + 1, prev[:-1] + neq[i - 1])
            t = np.minimum(t, js + i)
            dp[i, 1:] = np.minimum.accumulate(t - js) + js
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + (0 if a[i - 1] == b[j - 1] else 1):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    return int(dp[n, m]), pairs


_SEQS = st.one_of(
    st.text(alphabet="abé中 ", max_size=12),
    st.text(max_size=8),
    st.lists(st.sampled_from(["the", "tho", "a", "", "straße"]), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(_SEQS, _SEQS)
def test_edit_ops_matches_numpy_reference(a, b):
    """The plain-Python DP gives the reference's (distance, script) for
    strings (ASCII or not), token lists and empty inputs; the distance
    is ``levenshtein``; the script visits each index of ``a`` and of
    ``b`` once, in order; its non-identity pairs number the distance."""
    d, pairs = edit_ops(a, b)
    assert (d, pairs) == _edit_ops_numpy(a, b)
    assert d == levenshtein(a, b)
    assert [i for i, _ in pairs if i is not None] == list(range(len(a)))
    assert [j for _, j in pairs if j is not None] == list(range(len(b)))
    assert sum(i is None or j is None or a[i] != b[j] for i, j in pairs) == d
    if isinstance(a, str) and isinstance(b, str):
        assert sum(edit_confusions(a, b).values()) == d


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("aa", "a", (1, [(0, None), (1, 0)])),
        ("a", "aa", (1, [(None, 0), (0, 1)])),
        ("ab", "ba", (2, [(0, 0), (1, 1)])),
        ("abc", "cab", (2, [(None, 0), (0, 1), (1, 2), (2, None)])),
        ("aab", "ab", (1, [(0, None), (1, 0), (2, 1)])),
        ("", "ab", (2, [(None, 0), (None, 1)])),
        ("ab", "", (2, [(0, None), (1, None)])),
        (["the", "cat"], ["the", "the", "cat"], (1, [(None, 0), (0, 1), (1, 2)])),
    ],
)
def test_edit_ops_tie_breaks(a, b, want):
    """Ties resolve diagonal first, then deletion, then insertion."""
    assert edit_ops(a, b) == want


def test_nfkc():
    assert nfkc("ﬁsh") == "fish"  # ligature decomposes


# ---------------------------------------------------------------------------
# corpus


def _docs_table():
    return pa.table(
        {"doc_id": [1, 2, 3], "text": ["alpha beta gamma delta epsilon zeta", "one two three four", "x y z"]}
    )


def test_corpus_deterministic():
    a = synth_batch(_docs_table(), seed=42, pages_per_doc=2)
    b = synth_batch(_docs_table(), seed=42, pages_per_doc=2)
    assert a.equals(b)
    c = synth_batch(_docs_table(), seed=43, pages_per_doc=2)
    assert not a.equals(c)


def test_corpus_offsets_strictly_increasing():
    t = synth_batch(_docs_table(), seed=42)
    for spans in t["spans"].to_pylist():
        offs = [s["offset"] for s in spans]
        assert offs == list(range(len(offs)))


def test_extract_raw_equals_golden():
    raw = synth_batch(_docs_table(), seed=42, raw=True)
    golden = synth_batch(_docs_table(), seed=42, raw=False)
    assert extract_spans_batch(raw).equals(golden)
    assert extract_spans_batch(golden).equals(golden)  # idempotent


def test_extract_drops_invalid_spans():
    t = pa.table(
        {
            "doc_id": ["d1"],
            "spans": [
                [
                    {"kind": "region", "text": "", "media_ref": "", "offset": 0},
                    {"kind": "line", "text": "a b", "media_ref": "", "offset": 1},
                    {"kind": "bogus", "text": "x", "media_ref": "", "offset": 2},
                    {"kind": "image", "text": "", "media_ref": "", "offset": 3},  # no ref -> drop
                    {"kind": "image", "text": "", "media_ref": "m/1", "offset": 4},
                    {"kind": "glyph", "text": "a", "media_ref": "", "offset": 5},
                    {"kind": "separator", "text": "", "media_ref": "", "offset": 6},
                    {"kind": "table", "text": "t", "media_ref": "", "offset": 7},
                ]
            ],
        }
    )
    out = extract_spans_batch(t)["spans"].to_pylist()[0]
    kinds = [s["kind"] for s in out]
    # glyph/separator/table pass through in position (full kind vocabulary)
    assert kinds == ["region", "line", "word", "word", "image", "glyph", "separator", "table"]
    assert out[0]["text"] == "a b"  # region text recomputed
    assert [s["offset"] for s in out] == list(range(8))


def test_flatten_spans():
    golden = synth_batch(_docs_table(), seed=42)
    flat = flatten_spans_batch(golden)
    assert flat.num_rows == sum(len(s) for s in golden["spans"].to_pylist())
    assert flat.column_names == ["doc_id", "offset", "kind", "text", "media_ref"]


def test_corrupt_text_deterministic_and_small():
    t = "the test text here"
    c1 = corrupt_text(t, "OCR-1", "d1")
    assert c1 == corrupt_text(t, "OCR-1", "d1")
    assert corrupt_text(t, "GT", "d1") == t
    assert levenshtein(c1, t) <= t.count("e") + t.count("a")


# ---------------------------------------------------------------------------
# aligner


def test_match_cursor_tiers():
    # tier 1 exact / substring
    assert match_cursor(["hello"], ["hello"]) == [0]
    assert match_cursor(["hello,"], ["hello"]) == [0]  # substring
    # tier 2 levenshtein <= 1 (short) / <= 3 (long)
    assert match_cursor(["hello"], ["hcllo"]) == [0]
    assert match_cursor(["correction"], ["carrcctian"]) == [0]  # d=3, len>6
    # tier 3 containment with stripped edges
    assert match_cursor(["xhellox"], ["yhelloy"]) == [0]
    # cursor advances: same token twice matches successive positions
    assert match_cursor(["a,", "a,"], ["a", "a"]) == [0, 1]


def test_match_cursor_give_up():
    assert match_cursor(["hello", "world"], ["hello", "zzzzz"]) is None
    assert match_cursor(["hello"], []) is None


def test_aligner_give_up_emits_no_word_rows():
    df = pd.DataFrame(
        {
            "doc_id": ["d1"] * 2,
            "source": ["OCR-1", "OCR-2"],
            "line_no": [0, 0],
            "text": ["hello world", "hello zzzzz"],
            "conf": [0.9, 0.8],
        }
    )
    out = NWayAligner(["OCR-1", "OCR-2"])(df)
    lines = out[out["level"] == "line"]
    words = out[out["level"] == "word"]
    # line rows present for both sources
    assert set(lines["source"]) == {"OCR-1", "OCR-2"}
    # word rows only from master (OCR-2 gave up on the line)
    assert set(words["source"]) == {"OCR-1"}


def test_aligner_word_attachment():
    df = pd.DataFrame(
        {
            "doc_id": ["d1"] * 2,
            "source": ["OCR-1", "GT"],
            "line_no": [0, 0],
            "text": ["hcllo world", "hello world"],
            "conf": [0.9, 1.0],
        }
    )
    out = NWayAligner(["OCR-1", "GT"])(df)
    gt_words = out[(out["level"] == "word") & (out["source"] == "GT")].sort_values("word_no")
    assert list(gt_words["text"]) == ["hello", "world"]
    assert list(gt_words["idx"]) == [1, 1]


def test_variants_batch_shape():
    docs = synth_batch(_docs_table(), seed=42)
    v = synth_variants_batch(docs)
    df = v.to_pandas()
    assert set(df["source"]) == {"OCR-1", "OCR-2", "GT"}
    n_lines = sum(sum(1 for s in sp if s["kind"] == "line") for sp in docs["spans"].to_pylist())
    assert len(df) == 3 * n_lines


# ---------------------------------------------------------------------------
# metrics


def test_wer_partials_formula():
    b = pa.table({"text": ["a b c", "x y"], "gt_text": ["a b d", "x y z"]})
    out = wer_partials_batch(b).to_pydict()
    # line1: 3 words, 2 correct; line2: max(2,3)=3 words, 2 correct
    assert out["total_words"] == [6]
    assert out["correct_words"] == [4]


def test_cer_partials_formula():
    b = pa.table({"source": ["s1", "s2"], "text": ["abc", "hello"], "gt_text": ["abd", "hallo"]})
    out = cer_partials_batch(b).to_pandas().set_index("source")
    assert out.loc["s1", "char_errors"] == 1 and out.loc["s1", "gt_chars"] == 3
    assert out.loc["s2", "char_errors"] == 1 and out.loc["s2", "gt_chars"] == 5


def test_eval_report_partials_formula():
    """div/eval.py semantics: char errors = levenshtein mass, words
    recognized = GT-word membership in the prediction word list with GT
    duplicates each counted (eval.py:183-207)."""
    from ocrd_cis_ray.stages.metrics import eval_partials

    b = pa.table(
        {
            "GT": ["the cat the", "dog runs"],
            "OCR-1": ["thc cat thc", "dog rnns"],  # e->c style noise
        }
    )
    out = eval_partials(b, sources=("OCR-1",)).to_pydict()
    assert out["n_lines"] == [2]
    assert out["gt_chars"] == [len("the cat the") + len("dog runs")]
    assert out["char_errors"] == [2 + 1]
    assert out["gt_words"] == [3 + 2]
    # 'the' not in pred words (twice missed), 'cat' present, 'dog' present
    assert out["words_recognized"] == [1 + 1]


def test_error_type_counts_golden():
    """Confusion-class counts from the real DP backtrace: substitution,
    deletion and insertion classes each land in the right bucket."""
    from ocrd_cis_ray.stages.metrics import error_type_partials

    b = pa.table(
        {
            "GT": ["abc abc", "quit", "same"],
            "OCR-1": ["xbc xbc", "uitz", "same"],  # a->x subs, q deleted, z inserted
        }
    )
    out = error_type_partials(b, sources=("OCR-1",)).to_pandas()
    got = {
        (r.gt_char, r.ocr_char): r.n
        for r in out.itertuples()
    }
    assert got == {("a", "x"): 2, ("q", ""): 1, ("", "z"): 1}


# ---------------------------------------------------------------------------
# dedup kernels


def test_shingles():
    hs = _shingle_hashes("a b c d", 3)
    assert len(hs) == 2  # "a b c", "b c d"
    # short docs emit ZERO shingles — matches the oracle SQL's
    # lead()-based n-gram CTE which produces no rows for them
    assert len(_shingle_hashes("a b", 3)) == 0
    assert len(_shingle_hashes("", 3)) == 0
    # repeated grams are distinct-counted once
    assert len(_shingle_hashes("x y x y x y", 2)) == 2  # "x y", "y x"
    # batch helper agrees with the single-doc wrapper
    from ocrd_cis_ray.stages.dedup import _batch_shingle_hashes

    flat, lens = _batch_shingle_hashes(["a b c d", "a b", None, "b c d e"], 3)
    assert list(lens) == [2, 0, 0, 2]
    assert len(flat) == 4
    # shared gram "b c d" hashes identically across docs
    assert len(np.intersect1d(flat[:2], flat[2:])) == 1


def test_popcount():
    x = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert list(_popcount64(x)) == [0, 1, 2, 64]


def test_simhash_similar_docs_close():
    t = pa.table(
        {
            "doc_id": ["a", "b", "c"],
            "text": [
                "the quick brown fox jumps over the lazy dog again and again",
                "the quick brown fox jumps over the lazy dog again and againn",
                "completely different words entirely unrelated content here now",
            ],
        }
    )
    out = simhash_batch(t).to_pydict()
    ab = int(_popcount64(np.array([out["simhash"][0] ^ out["simhash"][1]], dtype=np.uint64))[0])
    ac = int(_popcount64(np.array([out["simhash"][0] ^ out["simhash"][2]], dtype=np.uint64))[0])
    assert ab < ac


def test_error_type_counts_deletion_only_attribution_unique():
    """q79's oracle recomputes class counts structurally, which is only
    valid when each source is substitution-only or deletion-only (a
    deletion ADJACENT to a substitution in one source is cost-ambiguous
    in the DP — 'tq'->'l' can be attributed two ways).  Pin that the
    deletion-only corruption used by q79's OCR-2 gets the structural
    counts from the real backtrace even on adversarial adjacency."""
    from ocrd_cis_ray.stages.metrics import error_type_partials

    gts = ["tq aqua", "qt data", "aa q a", "quarta"]
    preds = [g.replace("q", "").replace("a", "") for g in gts]
    b = pa.table({"GT": gts, "OCR-2": preds})
    out = error_type_partials(b, sources=("OCR-2",)).to_pandas()
    got = {(r.gt_char, r.ocr_char): r.n for r in out.itertuples()}
    n_q = sum(g.count("q") for g in gts)
    n_a = sum(g.count("a") for g in gts)
    assert got == {("q", ""): n_q, ("a", ""): n_a}


def test_error_type_counts_substitution_only_attribution_unique():
    """Same uniqueness property for q79's OCR-1: pointwise substitution
    with output chars disjoint from input chars gives exactly one
    minimal class attribution (no del+ins trade is ever cost-equal)."""
    from ocrd_cis_ray.stages.metrics import error_type_partials

    gts = ["echo zone", "ceo oec", "e o eo oe", "cc00"]
    preds = [g.replace("e", "c").replace("o", "0") for g in gts]
    b = pa.table({"GT": gts, "OCR-1": preds})
    out = error_type_partials(b, sources=("OCR-1",)).to_pandas()
    got = {(r.gt_char, r.ocr_char): r.n for r in out.itertuples()}
    n_e = sum(g.count("e") for g in gts)
    n_o = sum(g.count("o") for g in gts)
    assert got == {("e", "c"): n_e, ("o", "0"): n_o}


def test_remove_small_components_minsize_le_1_is_noop():
    """minsize<=1 must match the slow path (sizes < minsize matches no
    component): the isolated-pixel fast path only fires at minsize==2."""
    from ocrd_cis_ray.stages.image_ops import remove_small_components

    img = np.full((8, 8), 255, np.uint8)
    img[3, 3] = 0  # one isolated foreground pixel
    for ms in (0, 1):
        out, n = remove_small_components(img, minsize=ms)
        assert n == 0 and out[3, 3] == 0
    out, n = remove_small_components(img, minsize=2)
    assert n == 1 and out[3, 3] == 255
