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
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import clean_token, edit_ops


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
        """(suggestion, distance, weight) top-k for a suspicious token."""
        from ..util import lev_within, levenshtein

        seen: dict[str, int] = {}
        for d in _deletes(token, self.max_dist):
            for w in self.index.get(d, ()):
                if w not in seen and lev_within(token, w, self.max_dist):
                    seen[w] = levenshtein(token, w)
        scored = []
        for w, dist in seen.items():
            scored.append((w, dist, self._score(token, w, dist)))
        scored.sort(key=lambda t: (-t[2], t[1], t[0]))
        return scored[: self.max_candidates]

    def _score(self, token: str, cand: str, dist: int) -> float:
        """log-domain: freq prior + channel-model confusion weights."""
        s = math.log(self.lexicon.get(cand, 1) / self.total)
        _, pairs = edit_ops(token, cand)
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
        sees."""
        from ..util import lev_within, levenshtein

        cands = self.candidates(key)
        if (
            peer_key
            and peer_key != key
            and peer_key in self.lexicon
            and lev_within(key, peer_key, self.max_dist + 1)
        ):
            d = levenshtein(key, peer_key)
            score = self._score(key, peer_key, d) + self.VOTE_BONUS
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
# channel-model learning (confusion extraction from aligned pairs)


def confusion_partials_batch(
    batch: pa.Table,
    *,
    test_col: str = "text",
    gt_col: str = "gt_text",
    max_pairs: int | None = None,
    sample_rate: float | None = None,
) -> pa.Table:
    """Per-batch (src, dst, n) confusion counts from edit alignments of
    (ocr, gt) line pairs — the xlevenshtein confusion extraction
    (ocrolib/edist.py:21-83) as a distributed partial aggregate.

    Bounding the O(len²) alignments (the channel model saturates after
    a few thousand pairs): ``sample_rate`` keeps a pair iff its content
    hash clears a threshold — DETERMINISTIC and independent of batch
    layout, so the learned model (and everything downstream) is
    byte-stable across runs; corpus-scale callers shrink the rate with
    corpus size. ``max_pairs`` (first-N differing per batch) is kept
    for explicit hard bounding but depends on block layout — prefer
    sample_rate anywhere reruns must agree."""
    test = batch[test_col].to_pylist()
    gt = batch[gt_col].to_pylist()
    if sample_rate is not None and len(test):
        thr = int(sample_rate * (1 << 32))
        h = pd.util.hash_array(
            np.asarray([(t or "") + "\x00" + (g or "") for t, g in zip(test, gt)],
                       dtype=object)
        ) % (1 << 32)
        keep = h < thr
        test = [t for t, k in zip(test, keep) if k]
        gt = [g for g, k in zip(gt, keep) if k]
    counts: Counter = Counter()
    aligned = 0
    for t, g in zip(test, gt):
        t, g = t or "", g or ""
        if t == g:
            continue
        if max_pairs is not None and aligned >= max_pairs:
            break
        aligned += 1
        _, pairs = edit_ops(t, g)
        for ai, bi in pairs:
            a = t[ai] if ai is not None else ""
            b = g[bi] if bi is not None else ""
            if a != b:
                counts[(a, b)] += 1
    items = sorted(counts.items())
    return pa.table(
        {
            "src": pa.array([k[0] for k, _ in items], pa.string()),
            "dst": pa.array([k[1] for k, _ in items], pa.string()),
            "n": pa.array([v for _, v in items], pa.int64()),
        }
    )


class RankerExampleUDF(PostCorrector):
    """Batch callable: (text, peer_text, gt_text) line rows -> per-candidate
    (features, label) training rows for the learned ranker. Labels come
    from the cursor-aligned GT token (the reference trains its
    rank/decision models on GT-profiled candidates, aio/aio.py:617-627,
    data/config.json rrFeatures)."""

    def __init__(self, *args, sample_rate: float = 1.0, **kw):
        super().__init__(*args, **kw)
        self.sample_rate = sample_rate
        self._example_cache: dict[tuple, tuple] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        from ..stages.align import match_cursor

        texts = batch["text"].to_pylist()
        peers = (
            batch["peer_text"].to_pylist()
            if "peer_text" in batch.column_names
            else [""] * len(texts)
        )
        gts = batch["gt_text"].to_pylist()
        if self.sample_rate < 1.0 and len(texts):
            thr = int(self.sample_rate * (1 << 32))
            h = pd.util.hash_array(
                np.asarray([(t or "") for t in texts], dtype=object)
            ) % (1 << 32)
            keep = h < thr
            texts = [t for t, k in zip(texts, keep) if k]
            peers = [p for p, k in zip(peers, keep) if k]
            gts = [g for g, k in zip(gts, keep) if k]
        feats: list[np.ndarray] = []
        labels: list[float] = []
        tok_ids: list[int] = []
        for text, peer, gt in zip(texts, peers, gts):
            words = (text or "").split(" ") if text else []
            if not words:
                continue
            keys = [clean_token(w or "") for w in words]
            # lines with zero suspicious (OOV) tokens produce zero
            # examples — skip BOTH cursor alignments for them
            if not any(k and k not in self.lexicon for k in keys):
                continue
            ptoks = (peer or "").split(" ") if peer else []
            gtoks = (gt or "").split(" ") if gt else []
            matched = match_cursor(words, ptoks) if ptoks else None
            gmatched = match_cursor(words, gtoks) if gtoks else None
            if gmatched is None:
                continue
            for wn, key in enumerate(keys):
                if not key or key in self.lexicon:
                    continue
                gt_tok = clean_token(gtoks[gmatched[wn]] or "")
                if not gt_tok:
                    continue
                peer_key = clean_token(ptoks[matched[wn]] or "") if matched is not None else ""
                # triple cache: candidate generation + features are
                # deterministic in (key, peer, gt), and OCR errors
                # repeat — extraction cost scales with DISTINCT triples
                # (the train_ranker driver dedups again anyway)
                trip = (key, peer_key, gt_tok)
                hit = self._example_cache.get(trip)
                if hit is None:
                    cands = self.merged_candidates(key, peer_key)
                    if not cands:
                        self._example_cache[trip] = ()
                        continue
                    F = self.cand_features(key, peer_key, cands, include_keep=True)
                    lab = [1.0 if c[0] == gt_tok else 0.0 for c in cands]
                    lab.append(1.0 if key == gt_tok else 0.0)  # keep row
                    tok = int(
                        pd.util.hash_array(
                            np.asarray([f"{key}\x00{peer_key}\x00{gt_tok}"], dtype=object)
                        )[0]
                    )
                    hit = (F, lab, tok)
                    self._example_cache[trip] = hit
                elif hit == ():
                    continue
                F, lab, tok = hit
                feats.append(F)
                labels.extend(lab)
                tok_ids.extend([tok] * len(lab))
        if feats:
            X = np.concatenate(feats)
        else:
            X = np.zeros((0, len(self.RANKER_FEATURES)), np.float64)
        cols = {f"f_{name}": pa.array(X[:, i]) for i, name in enumerate(self.RANKER_FEATURES)}
        cols["label"] = pa.array(np.asarray(labels, np.float64))
        cols["tok_id"] = pa.array(np.asarray(tok_ids, np.uint64))
        return pa.table(cols)


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


def train_ranker(
    lines_ds,
    lexicon: dict[str, int],
    confusions=None,
    *,
    sample_rate: float = 1.0,
    min_examples: int = 20,
    **pc_kwargs,
):
    """Train the candidate re-ranker on GT'd line rows
    (text, peer_text, gt_text): distributed feature extraction as plain
    Ray Data tasks over the session's warm workers (PostCorrector state
    — lexicon index + channel model — broadcast once via ray.put and
    rebuilt at most once per worker process), bounded by a
    deterministic content-hash line sample, then a driver-side logistic
    fit over the (small, ≤ max_candidates rows per suspicious token)
    example table.

    Returns the weight vector for ``PostCorrector(ranker=...)``, or
    None when examples are too few/degenerate OR when the learned
    argmax decision does not beat the fixed top-candidate vote on the
    training sample (model selection: never ship a ranker worse than
    the rule it replaces). Examples are dedup-grouped by token triple
    and lexsorted before fitting, so the weights are byte-stable across
    block layouts."""
    import ray
    from functools import partial

    # task-based extraction (no actor pool): state broadcast once,
    # rebuilt at most once per (already-warm) worker process
    state_ref = ray.put(((lexicon, confusions), {"sample_rate": sample_rate, **pc_kwargs}))
    ex = lines_ds.map_batches(
        partial(_stage_batch, cls=RankerExampleUDF, state_ref=state_ref),
        batch_format="pyarrow",
        batch_size=512,
    ).to_pandas()
    if len(ex) < min_examples:
        return None
    # one example group per distinct (token, peer, gt) triple: repeated
    # occurrences would both bias the fit and break layout determinism
    ex = ex.sort_values([c for c in ex.columns]).drop_duplicates(
        subset=["tok_id", "f_rank", "f_is_keep"], keep="first"
    )
    y = ex["label"].to_numpy(np.float64)
    if y.min() == y.max():
        return None  # single class: nothing to learn
    tok = ex["tok_id"].to_numpy(np.uint64)
    X = ex.drop(columns=["label", "tok_id"]).to_numpy(np.float64)
    order = np.lexsort(tuple(X[:, i] for i in range(X.shape[1] - 1, -1, -1)) + (tok,))
    X, y, tok = X[order], y[order], tok[order]
    w = _fit_logistic(X, y)
    # -- model selection on the training sample ------------------------
    # fixed vote decision = the rank-0 candidate row; learned decision =
    # argmax score within the token group (keep row included)
    z = X @ w
    df = pd.DataFrame(
        {"tok": tok, "z": z, "y": y, "rank0": (X[:, 1] == 0.0) & (X[:, 7] == 0.0)}
    )
    fixed_ok = learned_ok = groups = 0
    for _, g in df.groupby("tok", sort=False):
        groups += 1
        r0 = g[g["rank0"]]
        fixed_ok += int(r0["y"].iloc[0]) if len(r0) else 0
        learned_ok += int(g.loc[g["z"].idxmax(), "y"])
    if groups == 0 or learned_ok <= fixed_ok:
        return None
    return w


def learn_confusions(
    pairs_ds,
    *,
    test_col: str = "text",
    gt_col: str = "gt_text",
    max_pairs_per_batch: int | None = None,
    sample_rate: float | None = None,
) -> dict[tuple[str, str], float]:
    """Distributed confusion-weight estimation: partial counts per batch
    → small groupby sum → normalized weights (count / total edits).
    Returns the channel model dict for PostCorrector."""
    from functools import partial as fpartial

    partials = pairs_ds.map_batches(
        fpartial(
            confusion_partials_batch,
            test_col=test_col,
            gt_col=gt_col,
            max_pairs=max_pairs_per_batch,
            sample_rate=sample_rate,
        ),
        batch_format="pyarrow",
    )
    # partials are map-side combined and ALPHABET-bounded (≤ |charset|²
    # rows per batch, ~10² in practice), so the reduce input is
    # O(batches × confusion pairs) tiny rows — a driver pandas sum
    # beats a Ray sort-aggregate's ~2 s fixed all-to-all overhead. At
    # extreme block counts, callers bound the input with
    # max_pairs_per_batch (the estimate is a rate; sampling is exact
    # in expectation).
    agg = partials.to_pandas()
    if agg.empty or "n" not in agg.columns:
        return {}  # clean channel: no confusions observed
    agg = agg.groupby(["src", "dst"], as_index=False)["n"].sum()
    total = max(1, int(agg["n"].sum()))
    return {(r.src, r.dst): float(r.n) / total for r in agg.itertuples()}
