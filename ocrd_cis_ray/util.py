"""Scalar helpers shared by stages: edit distance, tokenization, hashing.

Reimplements (from public-algorithm knowledge, NOT copied) the scalar
function surface of the reference (SURVEY.md §2.8):

- Levenshtein distance       (reference uses the C `Levenshtein` lib at
  ocrd_cis/align/cli.py:214, ocrd_cis/div/stats.py:84)
- edit script and its confusion counts (reference: ocrolib/edist.py:21-83)
- token cleaning             (reference: ocrd_cis/aio/aio.py:454-460)
- NFKC normalization         (reference: ocrolib/lstm.py:837-838)

All hashing here is seed-stable across processes (no Python ``hash()``,
which is salted per interpreter) so synthesized corpora and shuffles are
deterministic cluster-wide.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
import zlib
from collections import Counter

# ---------------------------------------------------------------------------
# stable hashing


def stable_hash64(s: str) -> int:
    """Deterministic 64-bit hash of a string (process- and node-stable)."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def stable_hash32(s: str) -> int:
    return zlib.crc32(s.encode("utf-8")) & 0xFFFFFFFF


def content_hash(s: str) -> str:
    """Hex content hash used for exact dedup keys."""
    return hashlib.blake2b(s.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# edit distance


def levenshtein(a: str, b: str) -> int:
    """Levenshtein distance via Myers' bit-parallel algorithm (Myers
    1999 / Hyyrö 2001) on Python big-int bitvectors — O(len(b)) word
    ops for patterns of any length (Python ints are arbitrary-width).

    Matches the semantics of the C `Levenshtein.distance` the reference
    calls (align/cli.py:214, recognize.py:234, div/stats.py:84).
    ~10x faster than a numpy row DP for ~100-char strings (the CER hot
    kernel).
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if not la:
        return lb
    if not lb:
        return la
    if la > lb:  # pattern = shorter string (fewer bits)
        a, b, la, lb = b, a, lb, la
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = (1 << la) - 1
    high = 1 << (la - 1)
    pv = mask
    mv = 0
    score = la
    get = peq.get
    for ch in b:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def lev_within(a: str, b: str, limit: int) -> bool:
    """True iff Levenshtein(a, b) <= limit — banded DP, O(limit·min(m,n)).

    The aligner only needs the bounded predicate (align/cli.py:211-217
    tests d<=1 / d<=3), so the full DP matrix is never built.
    """
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return False
    if a == b:
        return True
    if limit <= 0:
        return False
    if la == 0 or lb == 0:
        return max(la, lb) <= limit
    # classic banded two-row DP over the shorter string
    if la > lb:
        a, b, la, lb = b, a, lb, la
    INF = limit + 1
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cb = b[j - 1]
        lo = max(1, j - limit)
        hi = min(la, j + limit)
        cur = [INF] * (la + 1)
        if lo == 1:
            cur[0] = j if j <= limit else INF
        best = cur[0]
        for i in range(lo, hi + 1):
            c = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (0 if a[i - 1] == cb else 1),
            )
            cur[i] = c
            if c < best:
                best = c
        if best > limit:
            return False
        prev = cur
    return prev[la] <= limit


def edit_ops(a, b):
    """Full DP alignment of two sequences (strings or token lists);
    returns (distance, pairs). ``pairs`` is the edit script: (ai, bi)
    index tuples in order, ai/bi None for an insertion/deletion; the
    backtrace prefers the diagonal, then a deletion, then an insertion
    (the reference's xlevenshtein alignment, ocrolib/edist.py:21-83).
    Plain Python: on words and lines, numpy's per-call dispatch costs
    more than the DP."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    dp = [prev]
    for i in range(1, n + 1):
        x = a[i - 1]
        left = i
        cur = [i]
        push = cur.append
        for y, d, u in zip(b, prev, prev[1:]):
            # on a match the diagonal is the minimum (neighbours differ
            # by at most 1); otherwise 1 + min(diagonal, up, left)
            if x != y:
                if u < d:
                    d = u
                if left < d:
                    d = left
                d += 1
            push(d)
            left = d
        dp.append(cur)
        prev = cur
    pairs: list[tuple[int | None, int | None]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    return dp[n][m], pairs


def edit_confusions(a: str, b: str) -> Counter:
    """The (a_char, b_char) counts of ``edit_ops(a, b)``'s script, in
    script order: "" stands for the empty side of an indel, identities
    are skipped (channel-model confusions, per-error-type CER)."""
    counts: Counter = Counter()
    for ai, bi in edit_ops(a, b)[1]:
        x = a[ai] if ai is not None else ""
        y = b[bi] if bi is not None else ""
        if x != y:
            counts[(x, y)] += 1
    return counts


# ---------------------------------------------------------------------------
# text normalization / tokenization

_PUNCT_DIGIT_RE = re.compile(r"[^\w\s]|\d", re.UNICODE)
_WS_RE = re.compile(r"\s+")


def nfkc(s: str) -> str:
    """NFKC normalization (reference: ocrolib/lstm.py:837-838)."""
    return unicodedata.normalize("NFKC", s)


def clean_token(tok: str) -> str:
    """Strip punctuation/digits and lowercase — the reference's `tokenize`
    cleaning (aio/aio.py:454-460)."""
    return _PUNCT_DIGIT_RE.sub("", tok).lower()


def split_words(line: str) -> list[str]:
    """Line -> word split on single spaces (reference: recognize.py:237
    splits recognized line text on spaces to produce Word elements)."""
    return line.split(" ") if line else []
