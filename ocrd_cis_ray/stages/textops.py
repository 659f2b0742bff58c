"""Text-analysis stages over a documents table: language-ID, quality
scoring, token counting, document fingerprinting.

Extends the reference's text-side utilities to the operations a
large-scale training-data pipeline needs:

- stopword-set language detection follows the reference's
  ``detect_language`` (ocrd_cis/aio/aio.py:462-477: intersect document
  token set with per-language stopword sets, argmax overlap);
- token cleaning per aio/aio.py:454-460 (strip punct/digits, lower);
- quality scoring = length / punctuation / stopword-ratio features;
- fingerprint = polynomial rolling hash over the cleaned token stream.

All stages are stateless vectorized ``map_batches`` UDFs; the scoring
stage is row-local so it scales linearly with no shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# per-language stopword (function-word) lists — standard closed-class
# vocabulary, the same signal the reference's stopwords.json carries
# (div/stopwords.json: german 129 / english 174 / latin 90 words;
# div/lang.py:19-88 consumes it). The q22 oracle SQL is GENERATED from
# this dict (_langid_sql), so engine and oracle stay in lockstep.
STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset(
        """the and of to a in is it you that he was for on are as with his they
        i at be this have from or one had by word but not what all were we when
        your can said there use an each which she do how their if will up other
        about out many then them these so some her would make like him into time
        has look two more write go see number no way could people my than first
        been who its now find long down day did get come made may part over new
        sound take only little work know place year live me back give most very
        after thing our just name good sentence man think say great where help
        through much before line right too mean old any same tell boy follow
        came want show also around form three small set put end does another
        well large must big even such because turn here why ask went men read
        need land different home us move try kind hand picture again change off
        play spell air away animal house point page letter mother answer found
        study still learn should world high every near add food between own
        below country plant last school father keep tree never start city earth
        eye light thought head under story saw left dont few while along might
        close something seem next hard open example begin life always those both
        paper together got group often run""".split()
    ),
    "de": frozenset(
        """der die das und ist ich nicht sie mit ein auf für von zu den dem des
        er es wir ihr sind war waren sein eine einer eines einem einen auch als
        an aber bei bis da dann doch durch ehe ohne nach noch nur oder so um
        unter vor wenn wie wo zwar über aus man mir mich dir dich uns euch ihm
        ihn ihnen was wer wem wen welche welcher welches hier dort heute morgen
        immer wieder schon sehr mehr viel viele alle alles etwas nichts kein
        keine keiner meines deines seines hat hatte haben hatten wird werden
        wurde wurden kann können konnte muss müssen sollte würde jetzt dieser
        diese dieses jener jene jenes mein dein sein unser ihre sich selbst
        gegen zwischen während wegen trotz statt damit dass weil obwohl indem
        sondern sowie beim vom zum zur ins ans aufs""".split()
    ),
    "fr": frozenset(
        """le la les et de un une est je pas pour dans sur avec que qui quoi ne
        se ce cette ces son sa ses mon ma mes ton ta tes notre votre leur nous
        vous ils elles il elle on tu au aux du des par plus moins très bien mal
        tout tous toute toutes rien quelque chose comme mais ou donc or ni car
        si quand où dont être avoir fait faire dit dire peut pouvoir veut
        vouloir va aller vient venir sans sous entre vers chez depuis pendant
        avant après aussi encore déjà toujours jamais ici là alors ainsi même
        autre autres deux trois premier dernier nouveau grand petit bon mauvais
        était été sont avait avaient sera seront cet celui celle ceux celles
        lui leur eux moi toi soi y en""".split()
    ),
    "es": frozenset(
        """el la los las y de un una es no por para con su en que se del al lo
        le les me te nos os mi tu sus mis tus este esta estos estas ese esa
        esos esas aquel aquella como más menos muy mucho muchos poco pocos
        todo todos toda todas otro otros otra otras pero o ni si cuando donde
        porque pues aunque mientras durante antes después también tampoco ya
        aún siempre nunca aquí allí entonces así mismo misma dos tres primero
        último nuevo grande pequeño bueno malo era fue son había habían será
        serán estar estaba estaban ser tener tiene tienen hacer hace hacen
        decir dice dijo puede pueden ir va van venir viene sin sobre entre
        hacia desde hasta contra según cada cual quien cuyo ello ella ellos
        ellas usted ustedes yo él""".split()
    ),
    "zh": frozenset(
        """的 是 不 了 在 人 有 我 他 这 个 们 中 来 上 大 为 和 国 地 到 以 说 时
        要 就 出 会 可 也 你 对 生 能 而 子 那 得 于 着 下 自 之 年 过 发 后 作 里
        用 道 行 所 然 家 种 事 成 方 多 经 么 去 法 学 如 都 同 现 当 没 动 面 起
        看 定 天 分 还 进 好 小 部 其 些 主 样 理 心 她 本 前 开 但 因 只 从 想 实""".split()
    ),
    "la": frozenset(
        """et in est non ad ut cum de quod qui quae sed si ex per aut atque enim
        autem nec neque quam etiam iam tamen esse sunt erat erant fuit a ab ac
        apud ante post inter sub super contra sine pro propter ob tam ita sic
        nam vero igitur ergo itaque quia quoniam dum donec ubi unde quo cur
        quid quis quem cuius cui ipse ille hic haec hoc ea id eius eorum se
        sibi suus sua suum noster vester meus tuus omnis omnia nihil nemo
        semper numquam saepe modo tum tunc nunc hodie cras heri ibi illic
        huc illuc inde deinde primum denique quidem quoque vel sive seu an
        ne uti velut quasi tamquam""".split()
    ),
}

_TOKEN_SPLIT = r"\s+"


def token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> (doc_id, n_tokens) — whitespace token count.

    Vectorized: count spaces with a pyarrow kernel; SQL-parity with
    ``len(string_split(text, ' '))``.
    """
    n = pc.add(pc.count_substring(batch["text"], " "), 1)
    return pa.table({"doc_id": batch["doc_id"], "n_tokens": pc.cast(n, pa.int64())})


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality features per doc: n_chars, n_tokens, avg_token_len, punct_ratio.

    n_chars = utf8 length; punct_ratio = non-alnum-non-space chars /
    n_chars; avg_token_len = (n_chars - (n_tokens-1)) / n_tokens for
    single-space-joined text.
    """
    text = batch["text"]
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_tokens = pc.cast(pc.add(pc.count_substring(text, " "), 1), pa.int64())
    stripped = pc.replace_substring_regex(text, r"[A-Za-z0-9\s]", "")
    n_punct = pc.cast(pc.utf8_length(stripped), pa.int64())
    punct_ratio = pc.divide(pc.cast(n_punct, pa.float64()), pc.cast(pc.max_element_wise(n_chars, 1), pa.float64()))
    avg_tok = pc.divide(
        pc.cast(pc.subtract(n_chars, pc.subtract(n_tokens, 1)), pa.float64()),
        pc.cast(n_tokens, pa.float64()),
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "avg_token_len": avg_tok,
            "punct_ratio": punct_ratio,
        }
    )


class LangIdStage:
    """Stateful actor stage: stopword-set language ID (aio/aio.py:462-477).

    Stopword sets + compiled splitter built once per actor in __init__;
    __call__ scores each doc as argmax over per-language stopword hit
    counts (ties broken by language code order, 'und' = undetermined
    when no stopword hits).
    """

    def __init__(self, stopwords: dict[str, frozenset[str]] | None = None):
        import re

        self.stop = stopwords or STOPWORDS
        self.langs = sorted(self.stop)
        self.split = re.compile(_TOKEN_SPLIT)
        # flat lookup: token -> bitmask of languages containing it
        self.mask: dict[str, int] = {}
        for i, lang in enumerate(self.langs):
            for w in self.stop[lang]:
                self.mask[w] = self.mask.get(w, 0) | (1 << i)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        """Whole-batch vectorized: tokenize once, ONE hashmap lookup per
        token (pandas map, C hash table) to a language bitmask, then one
        bincount per language over the doc index — no per-token Python
        bit loop."""
        nl = len(self.langs)
        texts = batch["text"].tolist()
        toks_per_doc = [self.split.split((t or "").lower()) for t in texts]
        lengths = np.array([len(ts) for ts in toks_per_doc], dtype=np.int64)
        ndocs = len(texts)
        flat = [tok for ts in toks_per_doc for tok in ts]
        if not flat:
            return pd.DataFrame({"doc_id": batch["doc_id"], "lang_pred": ["und"] * ndocs})
        masks = pd.Series(flat).map(self.mask).fillna(0).to_numpy(dtype=np.int64)
        doc_idx = np.repeat(np.arange(ndocs), lengths)
        counts = np.zeros((ndocs, nl), dtype=np.int64)
        for i in range(nl):
            hit = (masks >> i) & 1 == 1
            if hit.any():
                counts[:, i] = np.bincount(doc_idx[hit], minlength=ndocs)
        best = counts.argmax(axis=1)  # ties -> first (lowest code order)
        pred = np.array(self.langs, dtype=object)[best]
        pred[counts.max(axis=1) == 0] = "und"
        return pd.DataFrame({"doc_id": batch["doc_id"], "lang_pred": pred})


_LANGID: LangIdStage | None = None


def langid_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Task form of LangIdStage: the stage builds in ~0.2 ms (six
    stopword sets -> one token->bitmask dict), so a process-global
    lazy instance gives once-per-worker setup WITHOUT an actor pool —
    tasks scale with the session and skip actor process spawn (an
    actor pool was both slower to start and capped at its
    ``concurrency``)."""
    global _LANGID
    if _LANGID is None:
        _LANGID = LangIdStage()
    return _LANGID(batch)


FP_BASE = np.uint64(1099511628211)  # FNV-ish odd multiplier
FP_OFFSET = np.uint64(1469598103934665603)


def _fp_pows(n: int) -> np.ndarray:
    """Powers of FP_BASE mod 2^64, highest power first (cached, grown on demand)."""
    global _POWS
    if len(_POWS) < n:
        m = max(n, 2 * len(_POWS))
        p = np.empty(m, dtype=np.uint64)
        p[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            for i in range(1, m):
                p[i] = p[i - 1] * FP_BASE
        _POWS = p
    return _POWS


_POWS = np.ones(1, dtype=np.uint64)


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Polynomial document fingerprint: h = sum b_i * BASE^(n-1-i) mod 2^64.

    A deterministic whole-doc fingerprint over UTF-8 bytes; equal texts
    collide by construction, near-equal texts don't (exact-dup key,
    cheaper than cryptographic hashing). Fully vectorized: one numpy
    multiply-sum over the batch's concatenated UTF-8 buffer using
    precomputed powers — no per-byte Python loop.
    """
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    arr = texts.cast(pa.binary())
    # flat byte buffer + per-doc offsets (zero-copy from Arrow)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lengths = np.diff(offs).astype(np.int64)
    maxlen = int(lengths.max()) if len(lengths) else 1
    pows = _fp_pows(maxlen + 1)
    # per-position coefficient: BASE^(len-1-pos_in_doc); build via a
    # position-within-doc index over the flat buffer
    pos = np.arange(offs[0], offs[-1], dtype=np.int64) - np.repeat(offs[:-1].astype(np.int64), lengths)
    exp = np.repeat(lengths - 1, lengths) - pos
    with np.errstate(over="ignore"):
        terms = data[offs[0] : offs[-1]].astype(np.uint64) * pows[exp]
        # prefix-sum difference (uint64 wraps = mod 2^64, which is the hash
        # domain) — handles empty docs with no special cases
        cs = np.zeros(len(terms) + 1, dtype=np.uint64)
        np.cumsum(terms, out=cs[1:])
        rel = offs.astype(np.int64) - int(offs[0])
        fps = cs[rel[1:]] - cs[rel[:-1]]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array([format(int(x), "016x") for x in fps], pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# distributed corpus vocabulary (shared by the rare-token quality filter,
# the post-correction lexicon, and the OCR chain's language dict)


def _token_count_partials(t: pa.Table, *, col: str) -> pa.Table:
    texts = t[col].to_pylist()
    toks = [w for txt in texts for w in (txt or "").split(" ")]
    vc = pd.Series(toks, dtype=object).value_counts()
    return pa.table({"w": pa.array(vc.index.to_list(), pa.string()), "c": pa.array(vc.to_numpy(), pa.int64())})


def _top_tokens(freq: pd.DataFrame, top_v: int | None) -> pd.DataFrame:
    """(w, c) rows ordered by count desc, then token asc; the first
    ``top_v`` of them when given."""
    freq = freq.sort_values(["c", "w"], ascending=[False, True])
    return freq if top_v is None else freq.head(top_v)


def token_frequencies(ds, *, col: str = "text", top_v: int | None = None) -> pd.Series:
    """Distributed corpus token-frequency map → small pd.Series
    (index = token, value = count, ordered by count desc, then token
    asc), safe to ``ray.put`` and broadcast.

    The combiner pattern: per-batch value_counts partials
    (``_token_count_partials``), materialized once and reduced by
    ``reduce_token_counts``. ``top_v`` truncates to the V most frequent
    tokens; ties at the boundary break deterministically (count desc,
    token asc). Tokens outside the map are "rare by definition"; callers
    treat misses as count 0 (or a floor of their choosing).
    """
    from functools import partial

    partials = ds.map_batches(partial(_token_count_partials, col=col), batch_format="pyarrow").materialize()
    return reduce_token_counts(partials, top_v)


def reduce_token_counts(partials, top_v: int | None) -> pd.Series:
    """(w, c) token-count partials — a materialized Dataset, or a list of
    Arrow tables the driver holds — summed on the driver
    (``metrics.sum_partials``): no exchange, whose fixed cost dwarfs
    counting a small vocabulary. Only a vocabulary of more than
    ``metrics.MAX_GROUPS`` distinct tokens, which the driver sum refuses
    to hold, falls back to ONE bucketed hash aggregate over the same
    partials; the exchange moves at most (batches × per-batch vocab)
    rows, never the token stream. On that path each aggregated block
    contributes only its local top-V candidates (each token lives in
    exactly one block after the hash aggregate, so the global top-V is a
    subset of their union), so driver memory is O(blocks × V),
    independent of vocabulary size. Returns the ``token_frequencies``
    Series."""
    from functools import partial

    from ..shuffle import bucketed_aggregate
    from . import metrics

    try:
        freq = metrics.sum_partials(partials, ["w"], ["c"])
    except metrics.TooManyGroups:
        if isinstance(partials, list):
            import ray.data as rd

            partials = rd.from_arrow(partials)
        freq_ds = bucketed_aggregate(partials, "w", {"c": ("c", "sum")})
        if top_v is not None:
            freq_ds = freq_ds.map_batches(partial(_top_tokens, top_v=top_v), batch_format="pandas")
        freq = freq_ds.to_pandas()
    freq = _top_tokens(freq, top_v)
    return pd.Series(freq["c"].to_numpy(), index=freq["w"])


# ---------------------------------------------------------------------------
# Gopher-style document quality filter

# The eight "must contain >= 2 distinct" English function words from the
# Gopher data-quality rules (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", appendix A1.1).
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_batch(
    batch: pa.Table,
    *,
    min_words: int = 15,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_symbol_ratio: float = 0.1,
    min_alpha_frac: float = 0.8,
    min_stop_distinct: int = 2,
) -> pa.Table:
    """Gopher repetition-free quality rules, vectorized, one batch pass.

    Every feature is chosen to be EXACTLY expressible in ANSI SQL (the
    q46 oracle recomputes all of them in DuckDB), with the repo's
    standing single-space tokenization convention (split on ' ',
    matching the q20/q21 oracles):

    - n_words, mean word length ((chars - spaces) / n_words);
    - symbol-to-word ratio ('#' and '...' occurrences per word);
    - fraction of words containing an ASCII letter;
    - distinct-stopword count over GOPHER_STOPWORDS;
    - pass_filter = conjunction of the published thresholds.

    Row-local; zero shuffle; per-word work is done on the FLATTENED
    word array with np.add.reduceat segment sums (no Python loop).
    """
    text = batch["text"]
    n = len(batch)
    n_words = pc.cast(pc.add(pc.count_substring(text, " "), 1), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    nw = n_words.to_numpy(zero_copy_only=False).astype(np.float64)
    mean_wl = (
        n_chars.to_numpy(zero_copy_only=False) - (nw - 1)
    ) / nw
    n_hash = pc.count_substring(text, "#").to_numpy(zero_copy_only=False)
    n_ell = pc.count_substring(text, "...").to_numpy(zero_copy_only=False)
    symbol_ratio = (n_hash + n_ell) / nw

    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nw.astype(np.int64), out=offsets[1:])
    alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
        zero_copy_only=False
    ).astype(np.float64)
    # segment sums over the flattened mask (empty docs impossible:
    # split always yields >=1 element)
    alpha_per_doc = np.add.reduceat(alpha, offsets[:-1]) if n else alpha
    frac_alpha = alpha_per_doc / nw

    stop_codes = pc.index_in(flat, pa.array(GOPHER_STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    # index_in yields null for misses -> to_numpy gives float with nan
    hit = np.nan_to_num(stop_codes, nan=-1) >= 0
    codes = np.nan_to_num(stop_codes, nan=-1).astype(np.int64)
    # distinct stopwords per doc: scatter into an (n, 8) presence grid
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), nw.astype(np.int64))
    grid = np.zeros((n, len(GOPHER_STOPWORDS)), dtype=bool)
    grid[doc_idx[hit], codes[hit]] = True
    n_stop = grid.sum(axis=1).astype(np.int64)

    nwi = n_words.to_numpy(zero_copy_only=False)
    ok = (
        (nwi >= min_words)
        & (nwi <= max_words)
        & (mean_wl >= min_mean_word_len)
        & (mean_wl <= max_mean_word_len)
        & (symbol_ratio <= max_symbol_ratio)
        & (frac_alpha >= min_alpha_frac)
        & (n_stop >= min_stop_distinct)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": n_words,
            "mean_word_len": pa.array(mean_wl, pa.float64()),
            "symbol_ratio": pa.array(symbol_ratio, pa.float64()),
            "frac_alpha_words": pa.array(frac_alpha, pa.float64()),
            "n_stop_distinct": pa.array(n_stop, pa.int64()),
            "pass_filter": pa.array(ok.astype(np.int32), pa.int32()),
        }
    )


def gopher_quality(ds, **thresholds):
    """documents(doc_id, text) -> per-doc Gopher quality features +
    pass_filter; row-local map_batches, zero shuffle."""
    return ds.map_batches(
        gopher_quality_batch, batch_format="pyarrow", fn_kwargs=thresholds
    )


# ---------------------------------------------------------------------------
# Gopher A1.2 repetition filters (Rae et al. 2021, appendix A1.2):
# duplicate-line fractions, top-n-gram char fraction, duplicated-n-gram
# coverage. The reference has no analog (its corpus is OCR pages); this
# is the repetition half of the web-corpus quality gate that pairs with
# ``gopher_quality`` (A1.1) above.

_REP_MULT = np.uint64(0x9E3779B97F4A7C15)  # same odd mixer as dedup's grams


def repetition_stats_batch(
    batch: pa.Table,
    *,
    line_words: int = 10,
    max_dup_line_frac: float = 0.30,
    max_dup_line_char_frac: float = 0.20,
    max_top_gram_frac: tuple = (0.20, 0.18, 0.16),  # n = 2, 3, 4
    max_dup_gram_frac: tuple = (0.15, 0.10),  # n = 5, 10
) -> pa.Table:
    """Per-doc repetition features, one vectorized pass, zero shuffle.

    Definitions (each chosen to be EXACTLY expressible in ANSI SQL so
    the q48 oracle can recompute them — all fractions are a single
    integer/integer division, which IEEE-doubles identically in numpy
    and DuckDB):

    - lines = fixed ``line_words``-word windows (the repo's standing
      q47 convention for corpora without sentence separators);
    - ``dup_line_frac`` = (n_lines - n_distinct_lines) / n_lines;
    - ``dup_line_char_frac`` = chars in repeat occurrences of a line
      (occurrences beyond the first) / doc chars;
    - ``top{n}_char_frac`` (n = 2,3,4) = max over n-grams of
      count * gram_chars, / doc chars (the "fraction of characters in
      the most repeated n-gram"; the count*len maximand makes the
      statistic deterministic without a tie-break on equal counts);
    - ``dup{n}_word_frac`` (n = 5,10) = words covered by any n-gram
      occurring >= 2 times in the doc / n_words (word-position
      coverage, counting overlaps once — the Gopher "fraction of
      characters inside duplicated n-grams" measured at word
      granularity, which keeps the oracle a pure integer count);
    - ``pass_filter`` = conjunction of the published A1.2 thresholds.

    Vectorization: ONE ``pd.util.hash_array`` over every word in the
    batch; n-gram identities are rolling multiply-xor combines of the
    word hashes (dedup.py's scheme — equality on the hash stands in
    for equality on the joined gram); per-doc counting is lexsort +
    run-length over (doc, hash); coverage is a +1/-1 diff array over
    flat word positions. No Python loop exceeds O(n) in gram ORDER
    (j in range(n)), never over rows.
    """
    texts = batch["text"].to_pylist()
    n_docs = len(texts)
    if n_docs == 0:
        # full declared schema even for an empty block — downstream
        # consumers (curation's fused feature pass) index pass_filter
        empty_f = pa.array([], pa.float64())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_lines": pa.array([], pa.int64()),
                "dup_line_frac": empty_f,
                "dup_line_char_frac": empty_f,
                "top2_char_frac": empty_f,
                "top3_char_frac": empty_f,
                "top4_char_frac": empty_f,
                "dup5_word_frac": empty_f,
                "dup10_word_frac": empty_f,
                "pass_filter": pa.array([], pa.int32()),
            }
        )
    words_per_doc = [t.split(" ") for t in texts]
    wc = np.array([len(ws) for ws in words_per_doc], dtype=np.int64)
    total = int(wc.sum())
    all_words = np.asarray(
        [w for ws in words_per_doc for w in ws], dtype=object
    )
    wh = pd.util.hash_array(all_words).astype(np.uint64)
    wlen = pc.utf8_length(pa.array(all_words, pa.string())).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    doc_off = np.concatenate([[0], np.cumsum(wc)])  # len n_docs+1
    doc_of_word = np.repeat(np.arange(n_docs), wc)
    n_chars = np.maximum(
        np.add.reduceat(wlen, doc_off[:-1]) + wc - 1, 1
    ) if total else np.ones(n_docs, np.int64)
    # guard: reduceat on empty segments misbehaves only if wc==0 rows
    # exist; synthetic corpus docs are non-empty (split(' ') >= 1 word)
    safe_chars = n_chars.astype(np.float64)

    L = int(line_words)
    # ----- lines: fixed L-word windows ------------------------------
    word_pos = np.arange(total) - np.repeat(doc_off[:-1], wc)
    line_of_word = word_pos // L
    n_lines = (wc + L - 1) // L
    line_off = np.concatenate([[0], np.cumsum(n_lines)])
    total_lines = int(line_off[-1])
    # flat line index of each word
    flat_line = np.repeat(line_off[:-1], wc) + line_of_word
    line_len = np.bincount(flat_line, minlength=total_lines).astype(np.int64)
    line_chars = (
        np.bincount(flat_line, weights=wlen, minlength=total_lines).astype(np.int64)
        + line_len - 1
    )
    # rolling hash per line (lines have <= L words; L passes)
    first_word_of_line = np.ones(total, dtype=bool)
    first_word_of_line[1:] = flat_line[1:] != flat_line[:-1]
    line_starts = np.flatnonzero(first_word_of_line)
    acc = np.zeros(total_lines, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(L):
            m = line_len > j
            acc[m] = acc[m] * _REP_MULT ^ wh[line_starts[m] + j]
    doc_of_line = np.repeat(np.arange(n_docs), n_lines)
    order = np.lexsort((acc, doc_of_line))
    d_s, h_s, c_s = doc_of_line[order], acc[order], line_chars[order]
    first = np.ones(total_lines, bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    n_distinct = np.bincount(d_s[first], minlength=n_docs).astype(np.int64)
    dup_chars = np.bincount(
        d_s[~first], weights=c_s[~first], minlength=n_docs
    ).astype(np.int64)
    dup_line_frac = (n_lines - n_distinct) / n_lines
    dup_line_char_frac = dup_chars / safe_chars

    # cumulative word-char prefix (chars of words s..s+n-1 = pre[s+n]-pre[s])
    pre = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(wlen, out=pre[1:])

    def _gram_stats(n: int):
        """(top_num per doc, covered-word count per doc) for order n."""
        g_cnt = np.maximum(wc - n + 1, 0)
        g_total = int(g_cnt.sum())
        if g_total == 0:
            z = np.zeros(n_docs, np.int64)
            return z, z
        g_off = np.concatenate([[0], np.cumsum(g_cnt)])
        starts = np.repeat(doc_off[:-1], g_cnt) + (
            np.arange(g_total) - np.repeat(g_off[:-1], g_cnt)
        )
        with np.errstate(over="ignore"):
            acc = np.zeros(g_total, np.uint64)
            for j in range(n):
                acc = acc * _REP_MULT ^ wh[starts + j]
        g_chars = pre[starts + n] - pre[starts] + (n - 1)
        doc_of_gram = np.repeat(np.arange(n_docs), g_cnt)
        order = np.lexsort((acc, doc_of_gram))
        d_s, h_s = doc_of_gram[order], acc[order]
        run_start = np.ones(g_total, bool)
        run_start[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        run_idx = np.cumsum(run_start) - 1
        run_len = np.bincount(run_idx).astype(np.int64)
        # count * gram_chars maximand per doc (gram chars equal within a run)
        run_first = np.flatnonzero(run_start)
        run_doc = d_s[run_first]
        run_chars = g_chars[order][run_first]
        maximand = run_len * run_chars
        top = np.zeros(n_docs, np.int64)
        np.maximum.at(top, run_doc, maximand)
        # coverage: occurrences in runs of length >= 2
        dup_occ = order[run_len[run_idx] >= 2]
        diff = np.zeros(total + 1, np.int64)
        np.add.at(diff, starts[dup_occ], 1)
        np.add.at(diff, starts[dup_occ] + n, -1)
        covered = (np.cumsum(diff[:-1]) > 0)
        cov = np.bincount(
            doc_of_word[covered], minlength=n_docs
        ).astype(np.int64) if covered.any() else np.zeros(n_docs, np.int64)
        return top, cov

    top_fracs = {}
    for n_ in (2, 3, 4):
        top, _ = _gram_stats(n_)
        top_fracs[n_] = top / safe_chars
    dup_fracs = {}
    for n_ in (5, 10):
        _, cov = _gram_stats(n_)
        dup_fracs[n_] = cov / wc.astype(np.float64)

    ok = (
        (dup_line_frac <= max_dup_line_frac)
        & (dup_line_char_frac <= max_dup_line_char_frac)
        & (top_fracs[2] <= max_top_gram_frac[0])
        & (top_fracs[3] <= max_top_gram_frac[1])
        & (top_fracs[4] <= max_top_gram_frac[2])
        & (dup_fracs[5] <= max_dup_gram_frac[0])
        & (dup_fracs[10] <= max_dup_gram_frac[1])
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(dup_line_char_frac, pa.float64()),
            "top2_char_frac": pa.array(top_fracs[2], pa.float64()),
            "top3_char_frac": pa.array(top_fracs[3], pa.float64()),
            "top4_char_frac": pa.array(top_fracs[4], pa.float64()),
            "dup5_word_frac": pa.array(dup_fracs[5], pa.float64()),
            "dup10_word_frac": pa.array(dup_fracs[10], pa.float64()),
            "pass_filter": pa.array(ok.astype(np.int32), pa.int32()),
        }
    )


def repetition_stats(ds, **kwargs):
    """documents(doc_id, text) -> per-doc Gopher A1.2 repetition
    features + pass_filter; row-local map_batches, zero shuffle."""
    return ds.map_batches(
        repetition_stats_batch, batch_format="pyarrow", fn_kwargs=kwargs
    )


# ---------------------------------------------------------------------------
# ftfy-style text fixing (Speer 2019, "ftfy: fixes text for you"):
# undo the most common UTF-8-read-as-Latin-1 mojibake sequences, strip
# BOM/control garbage, collapse whitespace. Every web-crawl pipeline
# runs a pass like this before tokenization; the table below covers
# the high-frequency double-encodings (the long tail needs heuristics
# out of scope for a deterministic kernel).

# ordered: longer sequences first so e.g. the quote forms win over
# their shared prefix
MOJIBAKE_FIXES: tuple = (
    ("\u00e2\u20ac\u2122", "\u2019"),  # a-circ euro tm  -> right single quote
    ("\u00e2\u20ac\u0153", "\u201c"),  # a-circ euro oe  -> left double quote
    ("\u00e2\u20ac\u201c", "\u2013"),  # a-circ euro ldq -> en dash
    ("\u00e2\u20ac\u201d", "\u2014"),  # a-circ euro mdash -> em dash
    ("\u00e2\u20ac", "\u201d"),        # bare a-circ euro -> right double quote
    ("\u00c3\u00a9", "\u00e9"),  # A-tilde copyright -> e-acute
    ("\u00c3\u00a8", "\u00e8"),  # -> e-grave
    ("\u00c3\u00a1", "\u00e1"),  # -> a-acute
    ("\u00c3\u00b3", "\u00f3"),  # -> o-acute
    ("\u00c3\u00ba", "\u00fa"),  # -> u-acute
    ("\u00c3\u00b1", "\u00f1"),  # -> n-tilde
    ("\u00c3\u00a4", "\u00e4"),  # -> a-umlaut
    ("\u00c3\u00b6", "\u00f6"),  # -> o-umlaut
    ("\u00c3\u00bc", "\u00fc"),  # -> u-umlaut
    ("\u00ef\u00bb\u00bf", ""),  # UTF-8 BOM read as latin-1 -> drop
    ("\u00c2\u00a0", " "),        # nbsp mojibake -> space
)


def fix_text_batch(batch: pa.Table, *, col: str = "text") -> pa.Table:
    """(doc_id, text) -> (doc_id, clean_text, changed:int32).

    Vectorized: one ``pc.replace_substring`` pass per table entry
    (bounded, ~16 passes) + one control-char regex strip + whitespace
    collapse — no per-row Python. Exactly mirrored by a chain of SQL
    ``replace``/``regexp_replace`` calls, so oracle-checkable."""
    t = batch[col]
    for bad, good in MOJIBAKE_FIXES:
        t = pc.replace_substring(t, bad, good)
    t = pc.replace_substring_regex(t, "[\\x00-\\x08\\x0b-\\x1f\\x7f]", "")
    t = pc.replace_substring_regex(t, "\\s+", " ")
    t = pc.utf8_trim_whitespace(t)
    changed = pc.cast(pc.not_equal(t, batch[col]), pa.int32())
    return pa.table(
        {"doc_id": batch["doc_id"], "clean_text": t, "changed": changed}
    )


def corrupt_text_batch(batch: pa.Table, *, col: str = "text") -> pa.Table:
    """Deterministic mojibake synthesizer (the q63 inversion fixture,
    same pattern as q44's HTML synthesizer): make the text look the
    way a UTF-8 file read as Latin-1 would — 'e' becomes the two-byte
    A-tilde sequence — plus a stray BOM and a control char keyed on
    doc_id."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    t = pc.replace_substring(batch[col], "e", "\u00c3\u00a9")
    texts = t.to_pylist()
    out = []
    for i, s in zip(ids, texts):
        if int(i) % 5 == 0:
            s = "\u00ef\u00bb\u00bf" + s
        if int(i) % 7 == 0:
            s = s.replace(" ", "\x07 ", 1)
        out.append(s)
    return pa.table({"doc_id": batch["doc_id"], col: pa.array(out, pa.string())})


def fix_text(ds, **kwargs):
    """Row-local map_batches; zero shuffle."""
    return ds.map_batches(fix_text_batch, batch_format="pyarrow", fn_kwargs=kwargs)
