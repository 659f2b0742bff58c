"""N-way OCR output alignment — native reimplementation of the
reference's Java aligner + Python re-attachment as a Ray Data stage.

Reference semantics (ocrd_cis/align/cli.py):

- N input file groups are zipped positionally per page
  (zip_input_files, align/cli.py:258-271) — here: the variant table is
  grouped by ``doc_id`` (the one shuffle) so every group holds all N
  sources of one document, then aligned row-locally.
- Line level (align_lines, align/cli.py:82-109): the master line keeps
  its text at index 0; each support source's line text is appended as
  an indexed entry (index=i+1) tagged with its source group — the
  TextEquiv-append semantics.
- Word level (align_words / match_*, align/cli.py:111-245): each master
  word is matched against the support source's tokens with an advancing
  cursor and three matcher tiers — exact/substring (match_tokens,
  :203-209), Levenshtein distance ≤ 1 then ≤ 3 (match_tokens_lev,
  :211-217), containment (:219-222). If any master word finds no match,
  the aligner GIVES UP on word alignment for that whole line
  (align/cli.py:119-128) — replicated bit-for-bit: the line emits no
  word rows for that source.
- The reference starts a JVM per page tuple (align/cli.py:282-293);
  here the aligner holds only its source list, so the caller builds it
  once and it ships inside the tasks' function.

Word rows are consumed only through ``align_variants`` (q61, q62,
q112). The line level alone is a join on (doc_id, line_no): the
flagship evaluation builds it that way (pipelines/flagship.line_frame)
and does not run this aligner.

Scale shape: one ``groupby(doc_id)`` shuffle of the long-form variant
lines; everything after is row-local. Skewed (media-heavy) docs don't
skew this exchange because only text lines move.
"""

from __future__ import annotations

import pandas as pd

from ..util import lev_within


def _match_one(word: str, tok: str) -> bool:
    """Tier-1 matcher: exact or substring (align/cli.py:203-209)."""
    return word == tok or (len(tok) >= 2 and tok in word) or (len(word) >= 2 and word in tok)


def _match_lev(word: str, tok: str) -> bool:
    """Tier-2 matcher: Levenshtein ≤1, or ≤3 for long tokens
    (align/cli.py:211-217). Banded bounded DP — never builds the full
    matrix (hot path: called per master word × candidate token)."""
    limit = 3 if min(len(word), len(tok)) > 6 else 1
    return lev_within(word, tok, limit)


def _match_contain(word: str, tok: str) -> bool:
    """Tier-3 matcher: containment after stripping 1-char edges
    (align/cli.py:219-222)."""
    return (len(tok) > 2 and tok[1:-1] in word) or (len(word) > 2 and word[1:-1] in tok)


def match_cursor(master_words: list[str], tokens: list[str]) -> list[int] | None:
    """Advancing-cursor token matcher (match_tokens_lambda,
    align/cli.py:224-245): for each master word, scan tokens from the
    cursor through the three tiers; first hit wins and advances the
    cursor. Returns token index per master word, or None when any word
    is unmatched (give-up-on-line, align/cli.py:119-128)."""
    out: list[int] = []
    cursor = 0
    for w in master_words:
        found = -1
        for tier in (_match_one, _match_lev, _match_contain):
            for i in range(cursor, len(tokens)):
                if tier(w, tokens[i]):
                    found = i
                    break
            if found >= 0:
                break
        if found < 0:
            return None
        out.append(found)
        cursor = found + 1
    return out


class NWayAligner:
    """Bucket callable run as plain tasks: aligns all sources of each
    document.

    Input batches are hash buckets of the long-form variant table
    (doc_id, source, line_no, text, conf) holding whole documents —
    produced by ``bucketed_groupby(..., whole_bucket=True)``
    (``align_variants``). ``sources[0]`` is the master group (the
    reference's first -I group); remaining sources are supports in
    order; a trailing "GT" group participates like any support
    (README.md:151-154 semantics).

    Output (long form, line level + word level interleaved by `level`):
      doc_id, line_no:int32, level('line'|'word'), word_no:int32,
      idx:int32, source, text, conf:float32
    where for level='line' rows idx enumerates the TextEquiv list
    (0=master) and word_no=-1; for level='word' rows each matched
    master word yields one row per source with the matched token.
    """

    COLS = ("doc_id", "line_no", "level", "word_no", "idx", "source", "text", "conf")

    def __init__(self, sources: list[str]):
        self.sources = list(sources)

    def __call__(self, bucket: pd.DataFrame) -> pd.DataFrame:
        """Processes a whole hash bucket of documents: plain-dict doc
        grouping + list accumulators, ONE DataFrame built per bucket
        (a frame per doc costs ~1 ms × millions of docs)."""
        out: dict[str, list] = {k: [] for k in self.COLS}
        emit = [out[k].append for k in self.COLS]

        def emit_row(doc_id, line_no, level, word_no, idx, source, text, conf):
            emit[0](doc_id)
            emit[1](line_no)
            emit[2](level)
            emit[3](word_no)
            emit[4](idx)
            emit[5](source)
            emit[6](text)
            emit[7](conf)

        # group rows per doc without pandas: column arrays + dict of lists
        doc_ids = bucket["doc_id"].to_numpy()
        srcs = bucket["source"].to_numpy()
        line_nos = bucket["line_no"].to_numpy()
        texts = bucket["text"].to_numpy()
        confs = bucket["conf"].to_numpy()
        docs: dict = {}
        for i in range(len(doc_ids)):
            docs.setdefault(doc_ids[i], {}).setdefault(srcs[i], {})[int(line_nos[i])] = (
                texts[i],
                float(confs[i]),
            )
        master = self.sources[0]
        supports = list(enumerate(self.sources[1:], start=1))
        for did in docs:
            by_src = docs[did]
            mlines = by_src.get(master)
            if not mlines:
                continue
            for line_no in sorted(mlines):
                mtext, mconf = mlines[line_no]
                mtext = mtext or ""
                emit_row(did, line_no, "line", -1, 0, master, mtext, mconf)
                mwords = mtext.split(" ") if mtext else []
                for idx, src in supports:
                    srows = by_src.get(src)
                    if srows is None or line_no not in srows:
                        continue
                    stext, sconf = srows[line_no]
                    stext = stext or ""
                    emit_row(did, line_no, "line", -1, idx, src, stext, sconf)
                    tokens = stext.split(" ") if stext else []
                    matched = match_cursor(mwords, tokens)
                    if matched is None:
                        continue  # give up on word alignment for this line
                    for wno, ti in enumerate(matched):
                        emit_row(did, line_no, "word", wno, idx, src, tokens[ti], sconf)
                # master's own word rows (idx 0)
                for wno, w in enumerate(mwords):
                    emit_row(did, line_no, "word", wno, 0, master, w, mconf)
        df = pd.DataFrame(out)
        df["line_no"] = df["line_no"].astype("int32")
        df["word_no"] = df["word_no"].astype("int32")
        df["idx"] = df["idx"].astype("int32")
        df["conf"] = df["conf"].astype("float32")
        return df


def align_variants(variant_ds, sources: list[str], *, num_buckets: int | None = None):
    """Dataset wrapper: long-form variant lines -> aligned long-form rows.

    One bucketed shuffle on ``doc_id`` (bounded partition count — see
    shuffle.bucketed_groupby); alignment runs row-locally per document
    inside each bucket, whole-bucket vectorized.
    """
    from ..shuffle import bucketed_groupby

    return bucketed_groupby(
        variant_ds, "doc_id", NWayAligner(sources), num_buckets=num_buckets, whole_bucket=True
    )
