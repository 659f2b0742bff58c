"""Evaluation aggregates: WER and CER, computed as per-block partial
sums and one driver-side reduce (no row shuffle, no exchange).

Reimplements the reference's metric semantics:

- WER (ocrd_cis/wer/cli.py:26-67): count words where test == gt over a
  whole group; report {totalWords, correctWords, incorrectWords,
  wordErrorRate}. Word comparison is positional over the line's
  space-split words (the reference walks Word elements in order).
- CER / per-source stats (ocrd_cis/div/stats.py:31-91): sum of
  Levenshtein(ocr_i, gt) per OCR source + total GT chars; accuracy
  printed as 1 - err/gtlen. Inline variant: recognize.py:234-235.
- Eval report and per-book rollup (div/eval.py:166-296,
  div/auswerter.py): the CER counters plus GT words and full words
  recognized, per source or per (book, source).

Scale shape: ``map_batches`` turns each block into a few partial rows
(one per key), and ``sum_partials`` streams those rows to the driver
and sums them there. Every evaluation reduces through it. Over a wide
line frame (one text column per source) the one CER kernel is
``cer_partials_wide``; ``cer_partials_batch`` is the long-form kernel
(q51) and the independent reference the tests compare with.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import levenshtein, split_words

# a reduce key with more groups than this is a misuse, not an OOM
MAX_GROUPS = 1_000_000


class TooManyGroups(ValueError):
    """``sum_partials`` met more than ``MAX_GROUPS`` groups."""

EVAL_COUNTERS = ["n_lines", "gt_chars", "char_errors", "gt_words", "words_recognized"]


def sum_partials(partials, keys: list[str], sums: list[str]) -> pd.DataFrame:
    """Driver-side sum of partial rows, from a Dataset or from Arrow
    tables the driver already holds: the integer ``sums`` columns summed
    per ``keys`` group, as a pandas frame sorted by the keys (typed,
    with no rows, when no block holds a row).

    The partials hold a few rows per block, so streaming the blocks to
    the driver (``iter_batches``) replaces a Ray all-to-all, whose fixed
    cost is about 2 s whatever the row count. The driver holds one block
    and the running sums, and raises ``TooManyGroups`` before it would
    hold more than ``MAX_GROUPS`` groups."""
    from ray.data import Dataset

    acc: dict[tuple, list[int]] = {}
    # batch_size=None: one batch per block; Ray drops 0-row blocks, which
    # may lack the columns, before they get here
    if isinstance(partials, Dataset):
        partials = partials.iter_batches(batch_format="pyarrow", batch_size=None)
    for b in partials:
        key_cols = [b[k].to_pylist() for k in keys]
        sum_cols = [b[c].to_pylist() for c in sums]
        for i in range(b.num_rows):
            key = tuple(col[i] for col in key_cols)
            a = acc.get(key)
            if a is None:
                if len(acc) == MAX_GROUPS:
                    raise TooManyGroups(f"over {MAX_GROUPS} ({', '.join(keys)}) groups: not a reduce key")
                a = acc[key] = [0] * len(sums)
            for j, col in enumerate(sum_cols):
                a[j] += col[i]
    groups = sorted(acc)
    return pd.DataFrame(
        {
            **{k: pd.Series([g[i] for g in groups], dtype=object) for i, k in enumerate(keys)},
            **{c: pd.Series([acc[g][j] for g in groups], dtype="int64") for j, c in enumerate(sums)},
        }
    )


def wer_partials_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial word counts of (text, gt_text) line pairs: one
    output row per batch.

    Positional word equality per line pair (reference wer/cli.py:33-49:
    zip of word lists; extra/missing words count as incorrect).
    """
    total = correct = 0
    for t, g in zip(batch["text"].to_pylist(), batch["gt_text"].to_pylist()):
        tw, gw = split_words(t or ""), split_words(g or "")
        total += max(len(tw), len(gw))
        correct += sum(1 for a, b in zip(tw, gw) if a == b)
    return pa.table(
        {
            "total_words": pa.array([total], pa.int64()),
            "correct_words": pa.array([correct], pa.int64()),
        }
    )


def wer(ds) -> pd.DataFrame:
    """Global WER over a dataset of (text, gt_text) line pairs.

    Returns one row {total_words, correct_words, incorrect_words,
    word_error_rate} — the reference's Stats dict (wer/cli.py:50-67).
    """
    sums = sum_partials(
        ds.map_batches(wer_partials_batch, batch_format="pyarrow"), [], ["total_words", "correct_words"]
    )
    total = int(sums["total_words"].sum())
    correct = int(sums["correct_words"].sum())
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
    GT column) pair, summing ``levenshtein`` over the frame's rows, with
    the frame's line count and its exact lines. A null cell counts as
    ""."""
    cols = {name: wide[name].to_pylist() for name in {c for pr in pairs for c in pr}}
    out_err, out_chars, out_exact = [], [], []
    for src, gt_col in pairs:
        e = c = exact = 0
        for t, g in zip(cols[src], cols[gt_col]):
            t, g = t or "", g or ""
            if t == g:  # fast path: most lines of a good source are exact
                exact += 1
            else:
                e += levenshtein(t, g)
            c += len(g)
        out_err.append(e)
        out_chars.append(c)
        out_exact.append(exact)
    return pa.table(
        {
            "source": pa.array([src for src, _ in pairs], pa.string()),
            "char_errors": pa.array(out_err, pa.int64()),
            "gt_chars": pa.array(out_chars, pa.int64()),
            "n_lines": pa.array([wide.num_rows] * len(pairs), pa.int64()),
            "n_exact": pa.array(out_exact, pa.int64()),
        }
    )


def cer_reduce(partials) -> pd.DataFrame:
    """Driver-side sum of a Dataset of CER partials: (source,
    char_errors, gt_chars, char_error_rate), sorted by source."""
    out = sum_partials(partials, ["source"], ["char_errors", "gt_chars"])
    out["char_error_rate"] = np.where(out["gt_chars"] > 0, out["char_errors"] / out["gt_chars"], 0.0)
    return out


def cer_by_source(ds) -> pd.DataFrame:
    """Per-source CER of long-form (source, text, gt_text) line pairs:
    (source, char_errors, gt_chars, char_error_rate)."""
    return cer_reduce(ds.map_batches(cer_partials_batch, batch_format="pyarrow"))


def eval_partials(
    batch: pa.Table, *, sources: tuple[str, ...], gt_col: str = "GT", book_col: str | None = None
) -> pa.Table:
    """Per-block partial sums of the eval-report counters
    (``EVAL_COUNTERS``), one row per source, or per (book, source) when
    ``book_col`` is given (the reference walks one book directory at a
    time, eval.py:41-52; auswerter.py drives the per-book runs).

    The char counters come from ``cer_partials_wide``; the word
    counters are the GT words and the GT words found anywhere in the
    prediction's word list (div/eval.py:183-207; GT duplicates each
    count, and "" is one word)."""
    if book_col is not None:
        books = batch[book_col]
        if books.null_count:
            raise ValueError(f"'{book_col}' has null cells: every line needs a book")
        parts = [
            eval_partials(batch.filter(pc.equal(books, b)), sources=sources, gt_col=gt_col).add_column(
                0, "book", pa.array([b] * len(sources), pa.string())
            )
            for b in pc.unique(books).to_pylist()
        ]
        return pa.concat_tables(parts)
    gt_words = [(g or "").split(" ") for g in batch[gt_col].to_pylist()]
    recognized = []
    for src in sources:
        hits = 0
        for gw, p in zip(gt_words, batch[src].to_pylist()):
            pw = set((p or "").split(" "))
            hits += sum(1 for w in gw if w in pw)
        recognized.append(hits)
    chars = cer_partials_wide(batch, [(s, gt_col) for s in sources])
    return (
        chars.select(["source", "n_lines", "gt_chars", "char_errors"])
        .append_column("gt_words", pa.array([sum(len(gw) for gw in gt_words)] * len(sources), pa.int64()))
        .append_column("words_recognized", pa.array(recognized, pa.int64()))
    )


def _with_accuracy(out: pd.DataFrame) -> pd.DataFrame:
    """Adds accuracy = 1 - char_errors/gt_chars. An empty reference
    (gt_chars == 0) would divide to inf/NaN and the CLI report would
    emit non-RFC JSON literals, so its accuracy is 1.0 iff it has no
    errors, else 0.0."""
    gt = out["gt_chars"].astype("float64")
    err = out["char_errors"].astype("float64")
    out["accuracy"] = np.where(gt > 0, 1.0 - err / np.maximum(gt, 1.0), np.where(err > 0, 0.0, 1.0))
    return out


def eval_report(wide_ds, *, sources: tuple[str, ...] = ("OCR-1", "OCR-2"), gt_col: str = "GT") -> pd.DataFrame:
    """Model-comparison eval report over aligned wide lines (one column
    per source + GT): per source — n_lines, gt_chars, char_errors,
    gt_words, words_recognized, accuracy = 1 - errors/chars. The Ray
    restatement of the reference's div/eval.py report ('#token errors
    made by models' / '#full words recognized' / '#accuracy achieved',
    eval.py:226-296)."""
    partials = wide_ds.map_batches(partial(eval_partials, sources=sources, gt_col=gt_col), batch_format="pyarrow")
    return _with_accuracy(sum_partials(partials, ["source"], EVAL_COUNTERS))


def error_type_partials(
    batch: pa.Table, *, sources: tuple[str, ...], gt_col: str = "GT"
) -> pa.Table:
    """Per-block confusion-class counts from the full DP alignment
    backtrace (``util.edit_confusions``, the reference's per-error-type
    breakdown intent in div/eval.py): substitutions carry (gt_char,
    ocr_char), deletions (gt_char, ''), insertions ('', ocr_char)."""
    from collections import Counter

    from ..util import edit_confusions

    gt = batch[gt_col].to_pylist()
    counts: Counter = Counter()
    for src in sources:
        pred = batch[src].to_pylist()
        for g, p in zip(gt, pred):
            g = g or ""
            p = p or ""
            if g == p:
                continue  # fast path: no error ops
            for (x, y), c in edit_confusions(g, p).items():
                counts[(src, x, y)] += c
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
    real alignment backtrace. Partial Counters per block, summed on the
    driver (the class alphabet is tiny vs the corpus)."""
    partials = wide_ds.map_batches(
        partial(error_type_partials, sources=sources, gt_col=gt_col),
        batch_format="pyarrow",
    )
    return sum_partials(partials, ["source", "gt_char", "ocr_char"], ["n"])


def eval_rollup(
    wide_ds,
    *,
    sources: tuple[str, ...] = ("OCR-1", "OCR-2"),
    gt_col: str = "GT",
    book_col: str = "book",
) -> pd.DataFrame:
    """Per-book / per-source evaluation rollup + grand-total rows — the
    report artifact the reference's div/auswerter.py + div/eval.py
    produce per book directory: per-block (book, source) partial
    counters, summed on the driver (at most ``MAX_GROUPS`` (book,
    source) groups). The '__total__' book row per source is the exact
    column sum of the per-book rows."""
    partials = wide_ds.map_batches(
        partial(eval_partials, sources=sources, gt_col=gt_col, book_col=book_col),
        batch_format="pyarrow",
    )
    out = sum_partials(partials, ["book", "source"], EVAL_COUNTERS)
    totals = out.groupby("source", as_index=False)[EVAL_COUNTERS].sum()
    totals.insert(0, "book", "__total__")
    out = pd.concat([out, totals], ignore_index=True)
    return _with_accuracy(out).sort_values(["book", "source"], kind="mergesort").reset_index(drop=True)
