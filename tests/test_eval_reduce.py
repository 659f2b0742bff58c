"""Differential test of the evaluation path: ``eval_partials`` (char
counters from ``cer_partials_wide``, word counters from one word loop)
and the one driver-side reduce ``sum_partials``, held to an inline
per-row oracle over multi-block wide frames.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from ocrd_cis_ray.stages import metrics
from ocrd_cis_ray.stages.metrics import EVAL_COUNTERS, cer_partials_wide, eval_report, eval_rollup, sum_partials
from ocrd_cis_ray.util import levenshtein

SOURCES = ("OCR-1", "OCR-2")


def _oracle(blocks: list[list[tuple]]) -> dict:
    """{(book, source): counters} of every row, one row at a time:
    EVAL_COUNTERS plus n_exact."""
    acc: dict = {}
    for rows in blocks:
        for book, *preds, g in rows:
            g = g or ""
            for src, p in zip(SOURCES, preds):
                p = p or ""
                a = acc.setdefault((book, src), dict.fromkeys(EVAL_COUNTERS + ["n_exact"], 0))
                a["n_lines"] += 1
                a["gt_chars"] += len(g)
                a["char_errors"] += levenshtein(p, g)
                a["n_exact"] += p == g
                gw = g.split(" ")
                a["gt_words"] += len(gw)
                a["words_recognized"] += sum(1 for w in gw if w in set(p.split(" ")))
    return acc


def _by_source(acc: dict) -> dict:
    out: dict = {}
    for (_, src), a in acc.items():
        t = out.setdefault(src, dict.fromkeys(a, 0))
        for k, v in a.items():
            t[k] += v
    return out


def _dataset(blocks: list[list[tuple]]):
    import ray.data as rd

    names = ["book", *SOURCES, "GT"]
    return rd.from_arrow(
        [pa.table({n: pa.array([r[i] for r in rows], pa.string()) for i, n in enumerate(names)}) for rows in blocks]
    )


_text = st.none() | st.text(alphabet="ab c", max_size=6)
_row = st.tuples(st.sampled_from(["b0", "b1", "b2"]), _text, _text, _text)
_blocks = st.lists(st.lists(_row, max_size=5), min_size=1, max_size=4)


@settings(max_examples=15, deadline=None)
@given(blocks=_blocks, one_book=st.booleans())
# all-empty GT, one book
@example(blocks=[[("b0", "x", "", ""), ("b0", None, "yy", None)]], one_book=True)
# empty blocks around the rows, many books
@example(blocks=[[], [("b1", "a b", "a", "a b"), ("b0", "c", None, "c")], [], [("b2", "", "b", "ab c")]],
         one_book=False)
# no rows at all
@example(blocks=[[], []], one_book=False)
def test_eval_path_matches_row_oracle(ray_session, blocks, one_book):
    if one_book:
        blocks = [[("b0", *r[1:]) for r in rows] for rows in blocks]
    want = _oracle(blocks)
    want_src = _by_source(want)
    ds = _dataset(blocks)

    rollup = eval_rollup(ds, sources=SOURCES)
    assert list(rollup.columns) == ["book", "source", *EVAL_COUNTERS, "accuracy"]
    assert all(rollup[c].dtype == "int64" for c in EVAL_COUNTERS)
    got = {(r["book"], r["source"]): r for r in rollup.to_dict("records")}
    assert set(got) == set(want) | {("__total__", s) for s in want_src}
    for key, a in want.items():
        assert {c: got[key][c] for c in EVAL_COUNTERS} == {c: a[c] for c in EVAL_COUNTERS}
    for src, a in want_src.items():
        assert {c: got[("__total__", src)][c] for c in EVAL_COUNTERS} == {c: a[c] for c in EVAL_COUNTERS}
    assert list(rollup["book"]) == sorted(rollup["book"])

    report = eval_report(ds, sources=SOURCES)
    totals = rollup[rollup["book"] == "__total__"].drop(columns="book").reset_index(drop=True)
    assert report.to_dict("records") == totals.to_dict("records")
    assert list(report.columns) == list(totals.columns)

    cer = sum_partials(
        ds.map_batches(partial(cer_partials_wide, pairs=[(s, "GT") for s in SOURCES]), batch_format="pyarrow"),
        ["source"],
        ["n_lines", "n_exact", "char_errors", "gt_chars"],
    )
    assert {r.pop("source"): r for r in cer.to_dict("records")} == {
        s: {c: a[c] for c in ("n_lines", "n_exact", "char_errors", "gt_chars")} for s, a in want_src.items()
    }


def test_reduce_raises_past_max_groups(ray_session, monkeypatch):
    """The driver never holds more than MAX_GROUPS groups."""
    rows = [("b0", "a", "a", "a"), ("b1", "a", "a", "a")]
    monkeypatch.setattr(metrics, "MAX_GROUPS", 4)
    assert len(eval_rollup(_dataset([rows]), sources=SOURCES)) == 4 + 2
    with pytest.raises(ValueError, match="book, source"):
        eval_rollup(_dataset([rows + [("b2", "a", "a", "a")]]), sources=SOURCES)


def test_rollup_rejects_null_book(ray_session):
    """A line without a book would fall out of every per-book group.
    The ValueError reaches the driver inside Ray's task error."""
    with pytest.raises(Exception, match="'book' has null cells"):
        eval_rollup(_dataset([[("b0", "a", "a", "a"), (None, "a", "b", "a")]]), sources=SOURCES)
