"""Evaluation aggregates: WER and CER, computed as partial-per-batch
sums + a tiny final reduce (never a row-level shuffle).

Reimplements the reference's metric semantics:

- WER (ocrd_cis/wer/cli.py:26-67): count words where test == gt over a
  whole group; report {totalWords, correctWords, incorrectWords,
  wordErrorRate}. Word comparison is positional over the line's
  space-split words (the reference walks Word elements in order).
- CER / per-source stats (ocrd_cis/div/stats.py:31-91): sum of
  Levenshtein(ocr_i, gt) per OCR source + total GT chars; accuracy
  printed as 1 - err/gtlen. Inline variant: recognize.py:234-235.

Scale shape: ``map_batches`` computes one partial-sum row per (source)
per batch; the final ``groupby(source).sum`` shuffles only
#batches × #sources rows. Over a wide line frame (one text column per
source) the CER kernel is ``cer_partials_wide``, summed on the driver
by ``cer_reduce``; the OCR chain and the flagship evaluate share it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import levenshtein, split_words


def wer_partials_batch(batch: pa.Table, *, test_col: str = "text", gt_col: str = "gt_text") -> pa.Table:
    """Per-batch partial word counts: one output row per batch.

    Positional word equality per line pair (reference wer/cli.py:33-49:
    zip of word lists; extra/missing words count as incorrect).
    """
    test = batch[test_col].to_pylist()
    gt = batch[gt_col].to_pylist()
    total = correct = 0
    for t, g in zip(test, gt):
        tw, gw = split_words(t or ""), split_words(g or "")
        n = max(len(tw), len(gw))
        total += n
        correct += sum(1 for a, b in zip(tw, gw) if a == b)
    return pa.table(
        {
            "total_words": pa.array([total], pa.int64()),
            "correct_words": pa.array([correct], pa.int64()),
        }
    )


def wer(ds, *, test_col: str = "text", gt_col: str = "gt_text") -> pd.DataFrame:
    """Global WER over a dataset of (test, gt) line pairs.

    Returns one row {total_words, correct_words, incorrect_words,
    word_error_rate} — the reference's Stats dict (wer/cli.py:50-67).
    """
    partials = ds.map_batches(
        wer_partials_batch, batch_format="pyarrow", fn_kwargs={"test_col": test_col, "gt_col": gt_col}
    )
    import ray.data.aggregate as agg

    out = partials.aggregate(agg.Sum("total_words", alias_name="total_words"),
                             agg.Sum("correct_words", alias_name="correct_words"))
    total = int(out["total_words"] or 0)
    correct = int(out["correct_words"] or 0)
    return pd.DataFrame(
        {
            "total_words": [total],
            "correct_words": [correct],
            "incorrect_words": [total - correct],
            "word_error_rate": [(total - correct) / total if total else 0.0],
        }
    )


def cer_partials_batch(
    batch: pa.Table, *, source_col: str = "source", test_col: str = "text", gt_col: str = "gt_text"
) -> pa.Table:
    """Per-batch partial CER sums keyed by source: levenshtein distance
    summed per source + GT char totals (div/stats.py:31-91)."""
    src = batch[source_col].to_pylist()
    test = batch[test_col].to_pylist()
    gt = batch[gt_col].to_pylist()
    acc: dict[str, list[int]] = {}
    for s, t, g in zip(src, test, gt):
        d = levenshtein(t or "", g or "")
        a = acc.setdefault(s, [0, 0])
        a[0] += d
        a[1] += len(g or "")
    sources = sorted(acc)
    return pa.table(
        {
            "source": pa.array(sources, pa.string()),
            "char_errors": pa.array([acc[s][0] for s in sources], pa.int64()),
            "gt_chars": pa.array([acc[s][1] for s in sources], pa.int64()),
        }
    )


def cer_partials_wide(wide: pa.Table, pairs: list[tuple[str, str]]) -> pa.Table:
    """CER partials of a wide line frame: one output row per (source,
    GT column) pair, summing ``levenshtein`` over the frame's rows. A
    null cell counts as ""."""
    cols = {name: wide[name].to_pylist() for name in {c for pr in pairs for c in pr}}
    out_src, out_err, out_chars = [], [], []
    for src, gt_col in pairs:
        e = c = 0
        for t, g in zip(cols[src], cols[gt_col]):
            t, g = t or "", g or ""
            if t != g:  # fast path: most lines of a good source are exact
                e += levenshtein(t, g)
            c += len(g)
        out_src.append(src)
        out_err.append(e)
        out_chars.append(c)
    return pa.table(
        {
            "source": pa.array(out_src, pa.string()),
            "char_errors": pa.array(out_err, pa.int64()),
            "gt_chars": pa.array(out_chars, pa.int64()),
        }
    )


def cer_reduce(partials) -> pd.DataFrame:
    """Driver-side sum of a Dataset of CER partials: (source,
    char_errors, gt_chars, char_error_rate), sorted by source.

    The partials hold at most #sources rows per block, so a pandas sum
    on the driver replaces a Ray sort-aggregate, whose all-to-all costs
    about 2 s of fixed overhead whatever the row count."""
    rows = partials.to_pandas()
    if "source" not in rows.columns:  # no block produced a partial row
        rows = pd.DataFrame({"source": pd.Series([], dtype=object),
                             "char_errors": pd.Series([], dtype="int64"),
                             "gt_chars": pd.Series([], dtype="int64")})
    out = rows.groupby("source", as_index=False)[["char_errors", "gt_chars"]].sum()
    out["char_error_rate"] = np.where(out["gt_chars"] > 0, out["char_errors"] / out["gt_chars"], 0.0)
    return out


def eval_report_partials(
    batch: pa.Table, *, sources: tuple[str, ...], gt_col: str = "GT"
) -> pa.Table:
    """Per-block partial sums for the model-comparison eval report
    (reference div/eval.py:166-207): per source — line count, GT char
    mass, levenshtein char-error mass, GT word count, and full words
    recognized (each GT word counted when it appears anywhere in the
    prediction's word list, div/eval.py:183-207)."""
    gt = batch[gt_col].to_pylist()
    rows = {s: [0, 0, 0, 0, 0] for s in sources}  # lines, chars, errs, words, recognized
    for src in sources:
        pred = batch[src].to_pylist()
        a = rows[src]
        for g, p in zip(gt, pred):
            g = g or ""
            p = p or ""
            a[0] += 1
            a[1] += len(g)
            a[2] += levenshtein(p, g)
            gw = g.split(" ")
            pw = set(p.split(" "))
            a[3] += len(gw)
            a[4] += sum(1 for w in gw if w in pw)
    return pa.table(
        {
            "source": pa.array(list(sources), pa.string()),
            "n_lines": pa.array([rows[s][0] for s in sources], pa.int64()),
            "gt_chars": pa.array([rows[s][1] for s in sources], pa.int64()),
            "char_errors": pa.array([rows[s][2] for s in sources], pa.int64()),
            "gt_words": pa.array([rows[s][3] for s in sources], pa.int64()),
            "words_recognized": pa.array([rows[s][4] for s in sources], pa.int64()),
        }
    )


def eval_report(wide_ds, *, sources: tuple[str, ...] = ("OCR-1", "OCR-2"), gt_col: str = "GT") -> pd.DataFrame:
    """Model-comparison eval report over aligned wide lines (one column
    per source + GT): per source — n_lines, gt_chars, char_errors,
    gt_words, words_recognized, accuracy = 1 - errors/chars. The Ray
    restatement of the reference's div/eval.py report ('#token errors
    made by models' / '#full words recognized' / '#accuracy achieved',
    eval.py:226-296): partial sums per block, O(blocks × sources)
    driver-side reduce — no row shuffle."""
    from functools import partial

    partials = wide_ds.map_batches(
        partial(eval_report_partials, sources=sources, gt_col=gt_col),
        batch_format="pyarrow",
    ).to_pandas()
    out = (
        partials.groupby("source", as_index=False)[
            ["n_lines", "gt_chars", "char_errors", "gt_words", "words_recognized"]
        ]
        .sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    out["accuracy"] = 1.0 - out["char_errors"].astype("float64") / out["gt_chars"]
    return out


def error_type_partials(
    batch: pa.Table, *, sources: tuple[str, ...], gt_col: str = "GT"
) -> pa.Table:
    """Per-block confusion-class counts from the full DP alignment
    backtrace (util.edit_ops, the reference's per-error-type breakdown
    intent in div/eval.py): substitutions carry (gt_char, ocr_char),
    deletions (gt_char, ''), insertions ('', ocr_char)."""
    from collections import Counter

    from ..util import edit_ops

    gt = batch[gt_col].to_pylist()
    counts: Counter = Counter()
    for src in sources:
        pred = batch[src].to_pylist()
        for g, p in zip(gt, pred):
            g = g or ""
            p = p or ""
            if g == p:
                continue  # fast path: no error ops
            _, pairs = edit_ops(g, p)
            for gi, pi in pairs:
                if gi is not None and pi is not None:
                    if g[gi] != p[pi]:
                        counts[(src, g[gi], p[pi])] += 1
                elif pi is None:
                    counts[(src, g[gi], "")] += 1
                else:
                    counts[(src, "", p[pi])] += 1
    keys = sorted(counts)
    return pa.table(
        {
            "source": pa.array([k[0] for k in keys], pa.string()),
            "gt_char": pa.array([k[1] for k in keys], pa.string()),
            "ocr_char": pa.array([k[2] for k in keys], pa.string()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def error_type_counts(
    wide_ds, *, sources: tuple[str, ...] = ("OCR-1", "OCR-2"), gt_col: str = "GT"
) -> pd.DataFrame:
    """Per-source per-confusion-class error counts (source, gt_char,
    ocr_char, n) — substitution / insertion / deletion classes from the
    real alignment backtrace. Partial Counters per block, then a
    driver-side reduce over O(blocks × observed classes) rows (the
    class alphabet is tiny vs the corpus)."""
    from functools import partial

    partials = wide_ds.map_batches(
        partial(error_type_partials, sources=sources, gt_col=gt_col),
        batch_format="pyarrow",
    ).to_pandas()
    return (
        partials.groupby(["source", "gt_char", "ocr_char"], as_index=False)["n"]
        .sum()
        .sort_values(["source", "gt_char", "ocr_char"])
        .reset_index(drop=True)
    )


def cer_by_source(ds, *, source_col: str = "source", test_col: str = "text", gt_col: str = "gt_text"):
    """Per-source CER: Dataset of (source, char_errors, gt_chars,
    char_error_rate). Partial per batch → groupby(source).sum (tiny)."""
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        cer_partials_batch,
        batch_format="pyarrow",
        fn_kwargs={"source_col": source_col, "test_col": test_col, "gt_col": gt_col},
    )
    out = partials.groupby("source").aggregate(
        Sum("char_errors", alias_name="char_errors"), Sum("gt_chars", alias_name="gt_chars")
    )

    def rate(b: pd.DataFrame) -> pd.DataFrame:
        b["char_error_rate"] = np.where(b["gt_chars"] > 0, b["char_errors"] / b["gt_chars"], 0.0)
        return b

    return out.map_batches(rate, batch_format="pandas")


def eval_rollup_partials(
    batch: pa.Table,
    *,
    sources: tuple[str, ...],
    gt_col: str = "GT",
    book_col: str = "book",
) -> pa.Table:
    """Per-block partial sums of the eval-report counters keyed by
    (book, source) — the div/auswerter.py + div/eval.py per-directory
    accounting (reference walks one book directory at a time,
    eval.py:41-52, accumulating char distances and full-word hits per
    model; auswerter.py drives the per-book model runs)."""
    gt = batch[gt_col].to_pylist()
    books = batch[book_col].to_pylist()
    rows: dict[tuple, list[int]] = {}
    for src in sources:
        pred = batch[src].to_pylist()
        for b, g, p in zip(books, gt, pred):
            g = g or ""
            p = p or ""
            a = rows.setdefault((b, src), [0, 0, 0, 0, 0])
            a[0] += 1
            a[1] += len(g)
            a[2] += levenshtein(p, g)
            gw = g.split(" ")
            pw = set(p.split(" "))
            a[3] += len(gw)
            a[4] += sum(1 for w in gw if w in pw)
    keys = sorted(rows)
    return pa.table(
        {
            "book": pa.array([k[0] for k in keys], pa.string()),
            "source": pa.array([k[1] for k in keys], pa.string()),
            "n_lines": pa.array([rows[k][0] for k in keys], pa.int64()),
            "gt_chars": pa.array([rows[k][1] for k in keys], pa.int64()),
            "char_errors": pa.array([rows[k][2] for k in keys], pa.int64()),
            "gt_words": pa.array([rows[k][3] for k in keys], pa.int64()),
            "words_recognized": pa.array([rows[k][4] for k in keys], pa.int64()),
        }
    )


def eval_rollup(
    wide_ds,
    *,
    sources: tuple[str, ...] = ("OCR-1", "OCR-2"),
    gt_col: str = "GT",
    book_col: str = "book",
    books_ceiling: int = 1_000_000,
) -> pd.DataFrame:
    """Per-book / per-source evaluation rollup + grand-total rows — the
    report artifact the reference's div/auswerter.py + div/eval.py
    produce per book directory, as ONE streaming pass: per-block
    (book, source) partial counters (integer-exact), one
    map-side-combined bucketed exchange of the tiny partials, and a
    LIMIT-bounded driver collect (raises past ``books_ceiling``
    (book, source) groups — a rollup key with unbounded cardinality is
    a misuse, not an OOM). The '__total__' book row per source is the
    exact column sum of the per-book rows."""
    from functools import partial

    from ..shuffle import bucketed_aggregate

    partials = wide_ds.map_batches(
        partial(
            eval_rollup_partials, sources=sources, gt_col=gt_col, book_col=book_col
        ),
        batch_format="pyarrow",
    )
    agg_cols = ["n_lines", "gt_chars", "char_errors", "gt_words", "words_recognized"]
    out = (
        bucketed_aggregate(
            partials,
            ["book", "source"],
            {c: (c, "sum") for c in agg_cols},
            combine=True,
            num_buckets=16,
        )
        .limit(books_ceiling + 1)
        .to_pandas()
    )
    if len(out) > books_ceiling:
        raise ValueError(
            f"eval_rollup: over {books_ceiling} (book, source) groups — "
            f"'{book_col}' is not a rollup key"
        )
    totals = out.groupby("source", as_index=False)[agg_cols].sum()
    totals.insert(0, "book", "__total__")
    out = pd.concat([out, totals], ignore_index=True)
    # gt_chars == 0 (a group whose GT lines are all empty) would divide
    # to inf/NaN and the CLI report would emit non-RFC JSON literals;
    # define accuracy over an empty reference as 1.0 iff no errors
    gt = out["gt_chars"].astype("float64")
    err = out["char_errors"].astype("float64")
    out["accuracy"] = np.where(gt > 0, 1.0 - err / np.maximum(gt, 1.0), np.where(err > 0, 0.0, 1.0))
    return out.sort_values(["book", "source"], kind="mergesort").reset_index(drop=True)
