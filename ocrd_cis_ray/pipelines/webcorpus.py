"""End-to-end web-corpus extraction pipeline — the north_rule's
main-content-extraction tier as ONE composed, resumable job:

    HTML pages
      -> DOM-heuristic main-content extraction (stages/webextract)
      -> mojibake/Unicode repair (stages/textops.fix_text_batch)
      -> quality curation: Gopher A1.1 + A1.2 + exact-dedup canonical
         (stages/curation, ONE content-hash exchange)
      -> kept corpus joined back to its text (ONE doc_id exchange)
      -> write_resumable partitioned parquet + per-partition manifest

Restarting the job with the same inputs skips every committed
partition (fingerprint + range matched — state/manifest); the summary
carries the per-stage drop metrics, so the run is observable without
scanning the output.

The HTML synthesis stage stands in for fetched pages exactly as in q44
(deterministic, inversion-validated); a real deployment replaces that
one stage with an HTML reader.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def run_webcorpus(
    sf_dir: str,
    out_dir: str,
    *,
    n_partitions: int = 16,
    gopher_kwargs: dict | None = None,
) -> dict:
    import ray
    import ray.data as rd

    from ..stages.curation import curate_corpus
    from ..stages.textops import fix_text_batch
    from ..stages.webextract import extract_main_content, synthesize_html_batch
    from ..state.manifest import write_resumable

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    html = docs.map_batches(synthesize_html_batch, batch_format="pyarrow")
    # task-based content extraction -> (doc_id, content_text): the
    # parser build is ~1 µs, so tasks beat an actor pool (no process
    # spawn, scales with the session automatically)
    content = extract_main_content(html, mode="content")

    def repair(t: pa.Table) -> pa.Table:
        f = fix_text_batch(t, col="content_text")
        return pa.table({"doc_id": t["doc_id"], "text": f["clean_text"]})

    corpus = content.map_batches(repair, batch_format="pyarrow")

    # curation CARRIES the text through its one content-hash exchange,
    # so the kept corpus needs no join — documents move exactly once
    decisions = curate_corpus(
        corpus, gopher_kwargs=gopher_kwargs, carry=("text",)
    ).materialize()

    # per-stage metrics: a tiny value_counts reduce (4 rows per block)
    stage_counts = (
        decisions.map_batches(
            lambda df: df["drop_stage"].value_counts().rename_axis("stage").reset_index(name="n"),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("stage")["n"]
        .sum()
        .to_dict()
    )

    kept = decisions.map_batches(
        lambda df: df.loc[df["keep"] == 1, ["doc_id", "text"]], batch_format="pandas"
    )

    res = write_resumable(
        kept,
        out_dir,
        n_partitions=n_partitions,
        stage="webcorpus",
        input_fingerprint=f"{sf_dir}|gopher={sorted((gopher_kwargs or {}).items())}",
    )
    res["drop_stages"] = {k: int(v) for k, v in sorted(stage_counts.items())}
    return res
