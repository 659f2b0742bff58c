"""Post-correction — lexicon + channel-model candidate ranking as a
stateful stage, run as plain tasks with once-per-worker state over
tokens (``postcorrect_tokens``) or over lines (``correct_lines``).

Reference pipeline (ocrd_cis/postcorrect/cli.py + the packaged Java
decision maker): a profiler proposes correction candidates for
suspicious tokens against a language lexicon; the decision maker ranks
candidates with features (edit distance, dictionary frequency,
historical/OCR pattern weights — data/config.json leFeatures/rrFeatures/
dmFeatures) keeping the top ``maxCandidates`` (default 10,
ocrd-tool.json:490-495) and rewrites tokens where the ranker is
confident.

This native reimplementation:
- lexicon index built ONCE per stage instance in ``__init__``, at most
  once per worker process per call (``worker_state``) — a SymSpell-style
  deletion-neighbourhood index (public algorithm) for distance ≤ 2
  candidate generation (the "profiler");
- channel model = (src, dst) character-confusion weights, learned from
  aligned OCR/GT pairs with ``learn_confusions`` (the reference extracts
  confusions from edit alignments, ocrolib/edist.py:21-83);
- ranking score = log freq prior + sum of confusion log-weights along
  the edit script - per-edit penalty; top-k kept, best above threshold
  replaces the token.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import clean_token, edit_confusions, edit_ops


def _deletes(word: str, max_dist: int) -> set[str]:
    """All strings reachable by deleting up to max_dist chars."""
    out = {word}
    frontier = {word}
    for _ in range(max_dist):
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1 :])
        out |= nxt
        frontier = nxt
    return out


class PostCorrector:
    """Batch callable: token rows -> ranked candidates + correction.

    Input batches: (doc_id, line_no:int32, word_no:int32, token).
    Output adds: suspicious:bool, corrected, candidates:
    list<struct<suggestion, distance:int32, weight:float32>> (the
    stubbed-profiler JSON shape of tests/run_training_test.bash:33-49).
    """

    def __init__(
        self,
        lexicon: dict[str, int],
        confusions: dict[tuple[str, str], float] | None = None,
        *,
        max_candidates: int = 10,
        max_dist: int = 2,
        accept_threshold: float = -math.inf,
        ranker=None,
        accept_prob: float = 0.5,
    ):
        self.lexicon = dict(lexicon)
        self.total = max(1, sum(self.lexicon.values()))
        self.confusions = dict(confusions or {})
        self.max_candidates = max_candidates
        self.max_dist = max_dist
        self.accept_threshold = accept_threshold
        # learned re-ranker (train_ranker weights over RANKER_FEATURES);
        # None = the fixed prior-score vote
        self.ranker = np.asarray(ranker, np.float64) if ranker is not None else None
        self.accept_prob = accept_prob
        # SymSpell-style index: delete-variant -> [lexicon words]
        self.index: dict[str, list[str]] = {}
        for w in self.lexicon:
            for d in _deletes(w, max_dist):
                self.index.setdefault(d, []).append(w)
        # decision cache lives on the instance: correction of a (token,
        # peer) pair is deterministic, so it amortizes across ALL
        # batches the worker processes, not just one
        self._cache: dict[tuple, tuple] = {}

    # -- candidate generation ("profiler") --------------------------------

    def candidates(self, token: str) -> list[tuple[str, int, float]]:
        """(suggestion, distance, weight) top-k for a suspicious token:
        one ``edit_ops`` DP per indexed word, whose distance keeps it iff
        ≤ ``max_dist`` and whose script scores it. The index holds every
        word within ``max_dist`` (both then reach a common string in ≤
        ``max_dist`` deletes)."""
        scored = []
        for w in {w for d in _deletes(token, self.max_dist) for w in self.index.get(d, ())}:
            dist, pairs = edit_ops(token, w)
            if dist <= self.max_dist:
                scored.append((w, dist, self._score(token, w, pairs)))
        scored.sort(key=lambda t: (-t[2], t[1], t[0]))
        return scored[: self.max_candidates]

    def _score(self, token: str, cand: str, pairs: list) -> float:
        """log-domain: freq prior + channel-model weights along ``pairs``."""
        s = math.log(self.lexicon.get(cand, 1) / self.total)
        for ai, bi in pairs:
            a = token[ai] if ai is not None else ""
            b = cand[bi] if bi is not None else ""
            if a == b:
                continue
            w = self.confusions.get((a, b))
            s += math.log(w) if w and w > 0 else -4.0  # unseen-edit penalty
        return s

    # -- batch interface ---------------------------------------------------

    VOTE_BONUS = 2.0  # log-domain bonus for a peer-OCR-confirmed candidate
    # (the reference's nOCR ranking feature: candidates supported by
    # other aligned OCR engines outrank lexicon-only ones,
    # data/config.json rrFeatures/dmFeatures)

    # learned-ranker feature vector per candidate — the profiler-free
    # subset of the reference's rrFeatures (data/config.json:15-215):
    # rank in the prior ordering, edit distance, dictionary frequency,
    # channel-model score, peer (nOCR) agreement, length delta, bias —
    # plus an explicit KEEP option (is_keep=1, the reference's decision-
    # maker: runDM decides whether the top candidate is applied at all,
    # postcorrect/cli.py:34-39). Argmax over candidates+keep replaces a
    # probability threshold, which class imbalance would miscalibrate.
    # Fixed divisors keep scales comparable WITHOUT data-dependent
    # standardization (inference must reproduce training bit-for-bit).
    RANKER_FEATURES = ("bias", "rank", "distance", "log_freq", "channel", "peer_agree", "len_delta", "is_keep")

    def merged_candidates(self, key: str, peer_key: str) -> list[tuple[str, int, float]]:
        """Prior-ranked candidates with the peer-vote merge — ONE
        candidate list shared by ranking, training-example extraction
        and the fixed vote, so the ranker scores exactly what inference
        sees. The peer votes iff its edit distance is ≤ ``max_dist + 1``."""
        cands = self.candidates(key)
        if peer_key and peer_key != key and peer_key in self.lexicon:
            d, pairs = edit_ops(key, peer_key)
            if d <= self.max_dist + 1:
                score = self._score(key, peer_key, pairs) + self.VOTE_BONUS
                cands = sorted(
                    [c for c in cands if c[0] != peer_key] + [(peer_key, d, score)],
                    key=lambda t: (-t[2], t[1], t[0]),
                )[: self.max_candidates]
        return cands

    def cand_features(self, key: str, peer_key: str, cands: list[tuple[str, int, float]], *, include_keep: bool = False) -> np.ndarray:
        """(n_cands [+1 keep row], |RANKER_FEATURES|) float64 features."""
        n = len(cands) + (1 if include_keep else 0)
        out = np.zeros((n, len(self.RANKER_FEATURES)), np.float64)
        for r, (w, d, s) in enumerate(cands):
            out[r] = (
                1.0,
                r / 10.0,
                d / 4.0,
                math.log(self.lexicon.get(w, 1) / self.total) / 20.0,
                s / 40.0,
                1.0 if w == peer_key else 0.0,
                abs(len(w) - len(key)) / 4.0,
                0.0,
            )
        if include_keep:
            out[len(cands)] = (
                1.0,
                len(cands) / 10.0,
                0.0,
                math.log(self.lexicon.get(key, 1) / self.total) / 20.0,
                0.0,
                1.0 if key == peer_key else 0.0,
                0.0,
                1.0,
            )
        return out

    def _choose(self, key: str, peer_key: str, cands: list[tuple[str, int, float]]) -> str:
        """Pick the correction: learned ranker when trained (argmax
        probability over candidates + the explicit keep option), else
        the fixed prior-score vote above ``accept_threshold``."""
        if not cands:
            return key
        if self.ranker is None:
            return cands[0][0] if cands[0][2] >= self.accept_threshold else key
        z = self.cand_features(key, peer_key, cands, include_keep=True) @ self.ranker
        entries = [(w, d) for w, d, _ in cands] + [(key, 0)]
        order = sorted(range(len(entries)), key=lambda i: (-z[i], entries[i][1], entries[i][0]))
        return entries[order[0]][0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch["token"].to_pylist()
        peers = batch["peer"].to_pylist() if "peer" in batch.column_names else [None] * len(tokens)
        cand_type = pa.struct(
            [("suggestion", pa.string()), ("distance", pa.int32()), ("weight", pa.float32())]
        )
        suspicious, corrected, cands_col = [], [], []
        cache = self._cache
        for tok, peer in zip(tokens, peers):
            key = clean_token(tok or "")
            if not key or key in self.lexicon:
                suspicious.append(False)
                corrected.append(
                    key if key and tok != key and (tok or "").lower() == key else tok
                )
                cands_col.append([])
                continue
            peer_key = clean_token(peer or "") if peer else ""
            ck = (key, peer_key)
            if ck in cache:
                sus, corr, cl = cache[ck]
            else:
                # nOCR vote: the aligned token from another engine is a
                # candidate with a vote bonus when it's a lexicon word
                # within edit range of the suspicious token
                cands = self.merged_candidates(key, peer_key)
                cl = [
                    {"suggestion": c, "distance": np.int32(d), "weight": np.float32(s)}
                    for c, d, s in cands
                ]
                corr, sus = self._choose(key, peer_key, cands), True
                cache[ck] = (sus, corr, cl)
            suspicious.append(sus)
            corrected.append(corr if corr else tok)
            cands_col.append(cl)
        cols = {name: batch[name] for name in batch.column_names}
        cols["suspicious"] = pa.array(suspicious, pa.bool_())
        cols["corrected"] = pa.array(corrected, pa.string())
        cols["candidates"] = pa.array(cands_col, pa.list_(cand_type))
        return pa.table(cols)


    # -- line-level interface (explode/correct/rejoin inside the task,
    #    so the surrounding pipeline needs NO token-level shuffle) -------

    def correct_line(self, text: str, peer_text: str = "") -> str:
        """Correct every token of one line, using the peer engine's
        cursor-aligned token as the nOCR vote (match_cursor semantics,
        align/cli.py:224-245; give-up leaves tokens unvoted)."""
        from ..stages.align import match_cursor

        words = text.split(" ") if text else []
        if not words:
            return text
        ptoks = peer_text.split(" ") if peer_text else []
        # peer alignment only matters for suspicious (OOV) tokens — a
        # line without any skips the cursor match entirely (exact same
        # output: in-lexicon tokens never read the peer)
        needs_peer = any(
            (k := clean_token(w or "")) and k not in self.lexicon for w in words
        )
        matched = match_cursor(words, ptoks) if (ptoks and needs_peer) else None
        out = []
        for wn, w in enumerate(words):
            peer = ptoks[matched[wn]] if matched is not None else ""
            out.append(self._correct_token(w, peer))
        return " ".join(out)

    def _correct_token(self, tok: str, peer: str) -> str:
        key = clean_token(tok or "")
        if not key:
            return tok
        if key in self.lexicon:
            # case-normalize pure case errors (OCR 'D'/'d' confusions):
            # the token is lexicon-valid after lowercasing only
            return key if tok != key and tok.lower() == key else tok
        peer_key = clean_token(peer or "") if peer else ""
        ck = (key, peer_key)
        hit = self._cache.get(ck)
        if hit is not None:
            return hit[1]
        corr = self._choose(key, peer_key, self.merged_candidates(key, peer_key))
        self._cache[ck] = (True, corr, None)
        return corr

    def correct_lines_batch(self, batch: pa.Table, *, text_col: str = "text", peer_col: str = "peer_text", out_col: str = "corrected_text") -> pa.Table:
        texts = batch[text_col].to_pylist()
        peers = batch[peer_col].to_pylist() if peer_col in batch.column_names else [""] * len(texts)
        corrected = [self.correct_line(t or "", p or "") for t, p in zip(texts, peers)]
        cols = {n: batch[n] for n in batch.column_names}
        cols[out_col] = pa.array(corrected, pa.string())
        return pa.table(cols)


class LineCorrector(PostCorrector):
    """PostCorrector as a line-level batch callable (``correct_lines``
    runs it as tasks with a once-per-worker instance)."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        return self.correct_lines_batch(batch)


# ---------------------------------------------------------------------------
# training statistics: per-line kernels and their driver reduces. The OCR
# chain runs the kernels inside its OCR task and reduces the task output
# on the driver; ``learn_confusions`` and ``train_ranker`` run the same
# kernels over a Dataset of line pairs and reduce the same way.


def _content_sample(keys: list[str], sample_rate: float) -> np.ndarray:
    """Keep mask of a deterministic content-hash sample: a row is kept
    iff the hash of its key clears ``sample_rate``, whatever rows share
    its batch. ``categorize=False``: the categorizing path compares
    object strings as C strings, so keys that share the text before a
    NUL would all take the hash of the batch's first such key."""
    h = pd.util.hash_array(np.asarray(keys, dtype=object), categorize=False) % (1 << 32)
    return h < int(sample_rate * (1 << 32))


def _list_array(offsets: list[int], **fields: pa.Array) -> pa.Array:
    """One list<struct<fields>> entry per consecutive ``offsets`` range."""
    values = pa.StructArray.from_arrays(list(fields.values()), names=list(fields))
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def line_confusions(texts: list, gts: list, sample_rate: float | None) -> pa.Array:
    """The (src, dst, n) character confusions of each (ocr, gt) line
    pair's edit alignment — the xlevenshtein confusion extraction
    (ocrolib/edist.py:21-83) — as a list<struct<src, dst, n>> array with
    one entry per line.

    Bounding the O(len²) alignments (the channel model saturates after
    a few thousand pairs): with ``sample_rate``, a pair is aligned iff
    the content hash of its two texts clears the rate
    (``_content_sample``), so the sample does not depend on which pairs
    share a batch. Unsampled and exact lines give an empty entry."""
    texts = [t or "" for t in texts]
    gts = [g or "" for g in gts]
    keep = [True] * len(texts)
    if sample_rate is not None and texts:
        keep = _content_sample([t + "\x00" + g for t, g in zip(texts, gts)], sample_rate).tolist()
    src, dst, n, offsets = [], [], [], [0]
    for t, g, k in zip(texts, gts, keep):
        if k and t != g:
            for (a, b), c in edit_confusions(t, g).items():
                src.append(a)
                dst.append(b)
                n.append(c)
        offsets.append(len(src))
    return _list_array(offsets, src=pa.array(src, pa.string()), dst=pa.array(dst, pa.string()), n=pa.array(n, pa.int64()))


def line_triples(texts: list, peers: list, gts: list, sample_rate: float) -> pa.Array:
    """Per OCR line, the (key, peer, gt) triple of each of its tokens,
    as a list<struct<key, peer, gt>> array with one entry per line: the
    cleaned token, and the cleaned peer-engine and GT tokens that the
    advancing cursor (``align.match_cursor``) matches to it (peer ""
    when the peer match gives up). A token with an empty key or GT token
    has no triple, and neither has a line whose GT match gives up.

    The kernel needs no lexicon: it also gives in-lexicon keys, which
    ``reduce_ranker`` drops. With ``sample_rate`` < 1, a line is used
    iff the content hash of its text clears the rate."""
    from ..stages.align import match_cursor

    keep = [True] * len(texts)
    if sample_rate < 1.0 and len(texts):
        keep = _content_sample([t or "" for t in texts], sample_rate).tolist()
    out_key, out_peer, out_gt, offsets = [], [], [], [0]
    for text, peer, gt, k in zip(texts, peers, gts, keep):
        words = text.split(" ") if (k and text) else []
        keys = [clean_token(w) for w in words]
        gtoks = gt.split(" ") if (gt and any(keys)) else []
        gmatched = match_cursor(words, gtoks) if gtoks else None
        if gmatched is not None:
            ptoks = peer.split(" ") if peer else []
            matched = match_cursor(words, ptoks) if ptoks else None
            for wn, key in enumerate(keys):
                gt_tok = clean_token(gtoks[gmatched[wn]]) if key else ""
                if gt_tok:
                    out_key.append(key)
                    out_peer.append(clean_token(ptoks[matched[wn]]) if matched is not None else "")
                    out_gt.append(gt_tok)
        offsets.append(len(out_key))
    return _list_array(
        offsets,
        key=pa.array(out_key, pa.string()),
        peer=pa.array(out_peer, pa.string()),
        gt=pa.array(out_gt, pa.string()),
    )


def list_rows(lists) -> pa.Table:
    """The entries of a list<struct> column as the rows of a table."""
    import pyarrow.compute as pc

    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()  # a column may hold no chunk
    return pa.Table.from_struct_array(pc.list_flatten(lists))


def entry_counts(lists, keys: list[str]) -> pa.Table:
    """The entries of a list<struct> column (``line_confusions``,
    ``line_triples``) as (*keys, n) rows, one per distinct key: their
    ``n`` summed, or counted when they have none."""
    t = list_rows(lists)
    if "n" in t.column_names:
        out = t.group_by(keys).aggregate([("n", "sum")])
        n = out["n_sum"]
    else:
        out = t.group_by(keys).aggregate([([], "count_all")])
        n = out["count_all"]
    return pa.table({**{k: out[k] for k in keys}, "n": n})


def _confusion_partials(batch: pa.Table, *, test_col: str, gt_col: str, sample_rate: float | None) -> pa.Table:
    lists = line_confusions(batch[test_col].to_pylist(), batch[gt_col].to_pylist(), sample_rate)
    return entry_counts(lists, ["src", "dst"])


def _triple_partials(batch: pa.Table, *, sample_rate: float) -> pa.Table:
    texts = batch["text"].to_pylist()
    peers = batch["peer_text"].to_pylist() if "peer_text" in batch.column_names else [""] * len(texts)
    lists = line_triples(texts, peers, batch["gt_text"].to_pylist(), sample_rate)
    return entry_counts(lists, ["key", "peer", "gt"])


def reduce_confusions(partials) -> dict[tuple[str, str], float]:
    """(src, dst, n) confusion partials — a Dataset, or a list of Arrow
    tables the driver holds — summed on the driver
    (``metrics.sum_partials``) → the channel model for PostCorrector:
    weight = count / total edits, in (src, dst) order."""
    from .metrics import sum_partials

    agg = sum_partials(partials, ["src", "dst"], ["n"])
    total = max(1, int(agg["n"].sum()))
    return {(a, b): float(c) / total for a, b, c in zip(agg["src"], agg["dst"], agg["n"])}


# Once-per-worker state for task stages: the caller broadcasts the
# constructor inputs ONCE with ray.put, and each worker process builds
# the stage object from them at most once per run, on the session's
# warm workers (an actor pool would spawn fresh processes per run). One
# slot, keyed by the ref's hex id: holding the ObjectRef itself in a
# module global would make the worker a borrower and pin the previous
# run's lexicon/confusions in the object store until it ran again.
_WORKER_STATE: dict = {}


def worker_state(state_ref, cls):
    """``cls(*args, **kwargs)`` for ``(args, kwargs) = ray.get(state_ref)``,
    built once per worker process per ``state_ref``; a new ref replaces
    the previous object."""
    key = state_ref.hex()
    if _WORKER_STATE.get("key") != key:
        import ray

        _WORKER_STATE.clear()
        args, kwargs = ray.get(state_ref)
        _WORKER_STATE["obj"] = cls(*args, **kwargs)
        _WORKER_STATE["key"] = key
    return _WORKER_STATE["obj"]


def _stage_batch(batch: pa.Table, *, cls, state_ref) -> pa.Table:
    return worker_state(state_ref, cls)(batch)


def postcorrect_tokens(ds, lexicon: dict[str, int], confusions=None, *, batch_size: int = 4096, **kw):
    """Token-level correction of (doc_id, ..., token[, peer]) rows as
    plain Ray Data tasks; ``(lexicon, confusions)`` and ``kw`` are
    broadcast once and the PostCorrector is built at most once per
    worker process."""
    import ray
    from functools import partial

    state_ref = ray.put(((lexicon, confusions), kw))
    return ds.map_batches(
        partial(_stage_batch, cls=PostCorrector, state_ref=state_ref),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def correct_lines(lines_ds, lexicon: dict[str, int], confusions=None, *, ranker=None):
    """Line-level correction of (text, peer_text, ...) rows as plain Ray
    Data tasks: adds ``corrected_text``. The LineCorrector state
    (lexicon index + channel model + ranker) is broadcast once and
    rebuilt at most once per worker process, so no stage holds a CPU
    that the tasks downstream of it need."""
    import ray
    from functools import partial

    state_ref = ray.put(((lexicon, confusions), {"ranker": ranker}))
    return lines_ds.map_batches(
        partial(_stage_batch, cls=LineCorrector, state_ref=state_ref),
        batch_format="pyarrow",
        batch_size=256,
    )


def _fit_logistic(X: np.ndarray, y: np.ndarray, *, iters: int = 300, lr: float = 0.5, l2: float = 1e-3) -> np.ndarray:
    """Full-batch logistic regression, fixed iterations, zero init —
    bit-deterministic given (X, y) order."""
    w = np.zeros(X.shape[1], np.float64)
    n = max(1, len(y))
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-X @ w))
        g = X.T @ (p - y) / n + l2 * w
        w -= lr * g
    return w


def train_ranker(lines_ds, lexicon: dict[str, int], confusions=None, *, sample_rate: float = 1.0, min_examples: int = 20):
    """Train the candidate re-ranker on GT'd line rows
    (text, peer_text, gt_text): the token triples of every line
    (``line_triples``, bounded by a deterministic content-hash line
    sample) counted per batch in plain Ray Data tasks, then
    ``reduce_ranker`` on the driver. Returns its weights or None."""
    from functools import partial

    partials = lines_ds.map_batches(partial(_triple_partials, sample_rate=sample_rate), batch_format="pyarrow")
    tables = list(partials.iter_batches(batch_format="pyarrow", batch_size=None))
    return reduce_ranker(tables, lexicon, confusions, min_examples=min_examples)


def reduce_ranker(partials: list[pa.Table], lexicon: dict[str, int], confusions=None, *, min_examples: int = 20):
    """Driver-side ranker fit from (key, peer, gt, n) triple counts
    (``entry_counts`` of ``line_triples``): in-lexicon keys dropped,
    the rest summed per distinct triple (``metrics.sum_partials``).
    Each distinct triple's candidates and features (``merged_candidates``,
    ``cand_features``) are computed once; labels come from its GT token
    (the reference trains its rank/decision models on GT-profiled
    candidates, aio/aio.py:617-627, data/config.json rrFeatures). Then
    a logistic fit over one example group per distinct triple, in
    lexsorted order, so the weights are byte-stable across block
    layouts.

    Returns the weight vector for ``PostCorrector(ranker=...)``, or
    None when the examples of all occurrences number fewer than
    ``min_examples`` or have one label, OR when the learned argmax
    decision does not beat the fixed top-candidate vote on the training
    sample (model selection: never ship a ranker worse than the rule it
    replaces)."""
    import pyarrow.compute as pc

    from .metrics import sum_partials

    if not partials:
        return None
    trips = pa.concat_tables(partials)
    in_lex = pc.is_in(trips["key"], value_set=pa.array(list(lexicon), pa.string()))
    trips = sum_partials([trips.filter(pc.invert(in_lex))], ["key", "peer", "gt"], ["n"])
    pcor = PostCorrector(lexicon, confusions)
    feats: list[np.ndarray] = []
    labels: list[float] = []
    names: list[str] = []
    n_examples = 0
    for key, peer, gt, n in zip(trips["key"], trips["peer"], trips["gt"], trips["n"]):
        cands = pcor.merged_candidates(key, peer)
        if not cands:
            continue
        feats.append(pcor.cand_features(key, peer, cands, include_keep=True))
        labels.extend(1.0 if c[0] == gt else 0.0 for c in cands)
        labels.append(1.0 if key == gt else 0.0)  # keep row
        names.append(f"{key}\x00{peer}\x00{gt}")
        n_examples += int(n) * (len(cands) + 1)
    if n_examples < min_examples or not feats:
        return None
    y = np.asarray(labels, np.float64)
    if y.min() == y.max():
        return None  # single class: nothing to learn
    X = np.concatenate(feats)
    # a triple's group id: the hash of its key, peer and GT token
    tok = np.repeat(pd.util.hash_array(np.asarray(names, dtype=object), categorize=False), [len(F) for F in feats])
    order = np.lexsort(tuple(X[:, i] for i in range(X.shape[1] - 1, -1, -1)) + (tok,))
    X, y, tok = X[order], y[order], tok[order]
    w = _fit_logistic(X, y)
    # -- model selection on the training sample ------------------------
    # fixed vote decision = the rank-0 candidate row; learned decision =
    # argmax score within the token group (keep row included)
    groups, fixed_ok, learned_ok = _selection_counts(tok, X @ w, y, (X[:, 1] == 0.0) & (X[:, 7] == 0.0))
    if groups == 0 or learned_ok <= fixed_ok:
        return None
    return w


def _selection_counts(tok: np.ndarray, z: np.ndarray, y: np.ndarray, rank0: np.ndarray) -> tuple[int, int, int]:
    """Model selection over example rows grouped by ``tok``: (groups,
    fixed vote hits, learned hits). Per group, the fixed vote takes the
    label of its first rank-0 row (no hit without one); the learned
    decision takes the label of its first row of highest score (NaN
    scores never win, as with pandas' ``idxmax``)."""
    if len(tok) == 0:
        return 0, 0, 0
    order = np.argsort(tok, kind="stable")  # groups contiguous, rows in table order
    tok, z, y, rank0 = tok[order], z[order], y[order], rank0[order]
    z = np.where(np.isnan(z), -np.inf, z)
    starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
    sizes = np.diff(np.r_[starts, len(tok)])
    row = np.arange(len(tok))
    past = len(tok)  # no such row
    top = np.minimum.reduceat(np.where(z == np.repeat(np.maximum.reduceat(z, starts), sizes), row, past), starts)
    first0 = np.minimum.reduceat(np.where(rank0, row, past), starts)
    labels = np.r_[y, 0.0].astype(np.int64)
    return len(starts), int(labels[first0].sum()), int(labels[top].sum())


def learn_confusions(
    pairs_ds,
    *,
    test_col: str = "text",
    gt_col: str = "gt_text",
    sample_rate: float | None = None,
) -> dict[tuple[str, str], float]:
    """Distributed confusion-weight estimation: per-batch (src, dst, n)
    counts of ``line_confusions`` in plain Ray Data tasks, then
    ``reduce_confusions`` on the driver. The partials are
    ALPHABET-bounded (≤ |charset|² rows per batch, ~10² in practice),
    so a driver sum beats a Ray sort-aggregate's ~2 s fixed all-to-all
    cost. Returns the channel model dict for PostCorrector."""
    from functools import partial

    partials = pairs_ds.map_batches(
        partial(_confusion_partials, test_col=test_col, gt_col=gt_col, sample_rate=sample_rate),
        batch_format="pyarrow",
    )
    return reduce_confusions(partials)
