"""Crawl-frontier discovery + politeness-aware fetch scheduling —
the library form of the q101/q108 compositions used by the driver
queries.

Reference intent: the reference is a batch post-correction toolkit,
but its workspace model (fetch files listed in a manifest, process,
register outputs back — e.g. ``/root/reference/ocrd_cis/aio/aio.py:
142-236`` addtoworkspace) is exactly a crawl round: discover new
targets from what you just processed, schedule the next fetches
politely per host, commit results resumably. The frontier tier
re-expresses that loop over web corpora.

Scale shape:
- ``frontier_expand``: the candidate aggregate and the seen anti-join
  share ONE url-keyed exchange — candidate count partials (map-side
  combined upstream) and seen markers union BEFORE the shuffle, and
  each bucket both sums refs and drops seen urls.
- ``fetch_schedule``: one bucketed host exchange over the already
  tiny frontier; rank + offsets are a vectorized per-bucket sort +
  cumcount.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def frontier_expand(candidates, seen, *, url_col: str = "url", count_col: str = "n_refs"):
    """Unseen-URL frontier: aggregate candidate partials and anti-join
    the seen set in ONE url-keyed exchange.

    ``candidates``: Dataset of (url, n_refs) COUNT PARTIALS (map-side
    combined — each batch may repeat a url; partial counts sum).
    ``seen``: Dataset of (url,) already-crawled URLs (batch-local
    uniqued upstream is enough; the bucket max handles repeats).
    Returns (url, n_refs) for urls with refs > 0 not in ``seen``."""
    from ..shuffle import bucketed_groupby

    def tag_candidates(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                url_col: t[url_col],
                count_col: pc.cast(t[count_col], pa.int64()),
                "__seen": pa.array(np.zeros(len(t), np.int8)),
            }
        )

    def tag_seen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                url_col: t[url_col],
                count_col: pa.array(np.zeros(len(t), np.int64)),
                "__seen": pa.array(np.ones(len(t), np.int8)),
            }
        )

    both = candidates.map_batches(tag_candidates, batch_format="pyarrow").union(
        seen.map_batches(tag_seen, batch_format="pyarrow")
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(url_col, sort=False).agg(
            **{count_col: (count_col, "sum"), "seen": ("__seen", "max")}
        )
        g = g[(g["seen"] == 0) & (g[count_col] > 0)]
        return g.reset_index()[[url_col, count_col]].astype({count_col: "int64"})

    return bucketed_groupby(both, url_col, merge, whole_bucket=True)


def fetch_schedule(frontier, *, url_col: str = "url", count_col: str = "n_refs"):
    """Politeness-aware fetch slots over a frontier (url, n_refs):
    group by host, rank by (n_refs DESC, url), offset each slot by the
    host's crawl delay (structural rule shared with the q108 oracle:
    ``len(host) % 3 + 1`` seconds — the synthesizer analog of a robots
    Crawl-delay). Output: url, n_refs, host, slot, fetch_offset_s."""
    from ..shuffle import bucketed_groupby
    from .urlfilter import url_domain

    def add_host(t: pa.Table) -> pa.Table:
        host = pc.utf8_lower(pc.fill_null(url_domain(t[url_col]), ""))
        return pa.table(
            {
                url_col: t[url_col],
                count_col: pc.cast(t[count_col], pa.int64()),
                "host": host,
            }
        )

    withhost = frontier.map_batches(add_host, batch_format="pyarrow")

    def schedule(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [count_col, url_col], ascending=[False, True], kind="mergesort"
        )
        slot = df.groupby("host", sort=False).cumcount().to_numpy()
        delay = df["host"].str.len().to_numpy() % 3 + 1
        return pd.DataFrame(
            {
                url_col: df[url_col].to_numpy(),
                count_col: df[count_col].to_numpy().astype("int64"),
                "host": df["host"].to_numpy(),
                "slot": slot.astype("int64"),
                "fetch_offset_s": (slot * delay).astype("int64"),
            }
        )

    return bucketed_groupby(withhost, "host", schedule, whole_bucket=True)


def outlink_frontier(links, docs):
    """The corpus composition behind q101: WAT outlink targets
    (kind == 'a' rows of an ``extract_links`` table) aggregated into
    (url, n_refs) candidates, anti-joined against the corpus's
    canonical page URLs — all in ``frontier_expand``'s single
    exchange. ``links``: (kind, url_target, ...); ``docs``:
    (doc_id, source)."""
    from .urlfilter import canonicalize_urls, synthesize_urls_batch

    def tgt_partial(t: pa.Table) -> pa.Table:
        # map-side combine: (url, partial count)
        tc = pa.table({"url": t.filter(pc.equal(t["kind"], "a"))["url_target"]})
        vc = pc.value_counts(tc["url"].combine_chunks())
        return pa.table(
            {
                "url": vc.field("values"),
                "n_refs": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def seen(t: pa.Table) -> pa.Table:
        u = synthesize_urls_batch(t)
        # batch-local unique: the canonical URL recurs across docs
        # (mod-300 classes); dedup before the exchange, not after
        return pa.table({"url": canonicalize_urls(u["url"]).unique()})

    return frontier_expand(
        links.map_batches(tgt_partial, batch_format="pyarrow"),
        docs.map_batches(seen, batch_format="pyarrow"),
    )
