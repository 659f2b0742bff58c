"""CLI entry point — the analog of the reference's 12 ocrd-cis-* Click
commands (setup.py:59-74; `-I/-O/-p` convention, SURVEY.md §2.10).

    python -m ocrd_cis_ray run --pipeline config.json -i IN_DIR -o OUT_DIR
    python -m ocrd_cis_ray stages                       # list registry
    python -m ocrd_cis_ray flagship --sf-dir DIR        # extract pipeline

This script OWNS its Ray session (guarded init + shutdown); library
code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(prog="ocrd_cis_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run a JSON-configured stage pipeline")
    runp.add_argument("--pipeline", required=True, help="JSON file: [{stage, params}, ...]")
    runp.add_argument("-i", "--input", required=True, help="input parquet path/dir")
    runp.add_argument("-o", "--output", required=True, help="output parquet dir")
    runp.add_argument("--num-cpus", type=int, default=8)

    sub.add_parser("stages", help="list registered stages")

    flag = sub.add_parser("flagship", help="run the flagship extraction pipeline")
    flag.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    flag.add_argument("-o", "--output", default="")
    flag.add_argument("--num-cpus", type=int, default=8)

    ing = sub.add_parser("ingest", help="resumable ingest of raw page texts into the corpus schema")
    ing.add_argument("-i", "--input", required=True, help="directory of UTF-8 page files")
    ing.add_argument("-o", "--output", required=True, help="partitioned parquet output dir")
    ing.add_argument("--partitions", type=int, default=8)
    ing.add_argument("--num-cpus", type=int, default=8)

    chain = sub.add_parser("ocr-chain", help="full OCR-over-media lifecycle (the aio super-pipeline analog)")
    chain.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    chain.add_argument("--num-cpus", type=int, default=8)
    chain.add_argument(
        "-o", "--output", default=None,
        help="optional corrected-corpus output dir (partitioned parquet + per-partition manifest; killed runs resume)",
    )

    cut = sub.add_parser("cut", help="export (line image, GT text) training pairs as resumable parquet (ocrd-cis-cutter analog)")
    cut.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    cut.add_argument("-o", "--output", required=True, help="output directory (partitioned parquet + manifest)")
    cut.add_argument("--line-height", type=int, default=48)
    cut.add_argument("--partitions", type=int, default=16)
    cut.add_argument("--num-cpus", type=int, default=8)

    web = sub.add_parser("webcorpus", help="end-to-end web extraction: HTML -> main content -> repair -> curation -> resumable corpus")
    web.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    web.add_argument("-o", "--output", required=True, help="output corpus dir (partitioned parquet + manifest)")
    web.add_argument("--partitions", type=int, default=16)
    web.add_argument("--min-stop-distinct", type=int, default=2)
    web.add_argument("--num-cpus", type=int, default=8)

    cur = sub.add_parser("curate", help="FineWeb-style curation: quality gates + exact dedup -> keep decisions")
    cur.add_argument("-i", "--input", required=True, help="documents parquet (doc_id, text)")
    cur.add_argument("-o", "--output", required=True, help="output parquet dir (decisions)")
    cur.add_argument("--min-stop-distinct", type=int, default=2)
    cur.add_argument("--num-cpus", type=int, default=8)

    rep = sub.add_parser("report", help="per-book/source evaluation report artifact (div/auswerter.py + div/eval.py rollup)")
    rep.add_argument("-i", "--input", required=True, help="wide aligned-lines parquet (book, GT, one column per OCR source)")
    rep.add_argument("-o", "--output", required=True, help="output report JSON path")
    rep.add_argument("--sources", default="OCR-1,OCR-2", help="comma-list of prediction columns")
    rep.add_argument("--gt-col", default="GT")
    rep.add_argument("--book-col", default="book")
    rep.add_argument("--num-cpus", type=int, default=8)

    trn = sub.add_parser("train", help="train the BIDILSTM+CTC recognizer on GT line rows (ocrd-cis-ocropy-train analog)")
    trn.add_argument("-i", "--input", required=True, help="parquet of line rows (pixels, gt_text)")
    trn.add_argument("--model", required=True, help="output model pickle path")
    trn.add_argument("--epochs", type=int, default=40)
    trn.add_argument("--nstates", type=int, default=40)
    trn.add_argument("--lr", type=float, default=0.01)
    trn.add_argument("--max-lines", type=int, default=512)
    trn.add_argument("--line-height", type=int, default=28)
    trn.add_argument("--num-cpus", type=int, default=8)

    args = ap.parse_args(argv)

    if args.cmd == "stages":
        from .registry import REGISTRY

        for name, st in sorted(REGISTRY.items()):
            print(f"{name:14s} defaults={st.defaults} — {st.description}")
        return 0

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        # `ray job submit` / cluster runs set RAY_ADDRESS (often "auto"):
        # attach to that cluster and let IT own resources; only a truly
        # local run pins num_cpus (the north_rule's submit path —
        # `ray job submit -- python -m ocrd_cis_ray <cmd> ...`)
        import os as _os

        addr = _os.environ.get("RAY_ADDRESS", "local")
        if addr in ("", "local"):
            ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
        else:
            ray.init(address=addr, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        import ray.data as rd

        if args.cmd == "run":
            with open(args.pipeline) as f:
                config = json.load(f)
            from .registry import build_pipeline

            ds = rd.read_parquet(args.input)
            out = build_pipeline(ds, config)
            out.write_parquet(args.output)
            print(json.dumps({"rows": out.count(), "output": args.output}))
        elif args.cmd == "ingest":
            from .sources.ingest import ingest_resumable

            res = ingest_resumable(args.input, args.output, n_partitions=args.partitions)
            print(json.dumps(res))
        elif args.cmd == "ocr-chain":
            from .pipelines.ocr_chain import run_ocr_chain

            out = run_ocr_chain(args.sf_dir, out_dir=args.output)
            print(out.to_json(orient="records"))
            if "write" in out.attrs:
                print(json.dumps(out.attrs["write"]))
        elif args.cmd == "cut":
            from .pipelines.cutter import cut_training_lines

            res = cut_training_lines(
                args.sf_dir,
                args.output,
                line_height=args.line_height,
                n_partitions=args.partitions,
            )
            print(json.dumps(res))
        elif args.cmd == "webcorpus":
            from .pipelines.webcorpus import run_webcorpus

            res = run_webcorpus(
                args.sf_dir,
                args.output,
                n_partitions=args.partitions,
                gopher_kwargs={"min_stop_distinct": args.min_stop_distinct},
            )
            print(json.dumps(res))
        elif args.cmd == "curate":
            from .stages.curation import curate_corpus

            out = curate_corpus(
                rd.read_parquet(args.input, columns=["doc_id", "text"]),
                gopher_kwargs={"min_stop_distinct": args.min_stop_distinct},
            ).materialize()  # one execution for write + both counts
            out.write_parquet(args.output)
            kept = out.map_batches(
                lambda df: df[df["keep"] == 1], batch_format="pandas"
            ).count()
            print(json.dumps({"rows": out.count(), "kept": kept, "output": args.output}))
        elif args.cmd == "report":
            from .stages.metrics import eval_rollup

            sources = tuple(s for s in args.sources.split(",") if s)
            rollup = eval_rollup(
                rd.read_parquet(
                    args.input,
                    columns=[args.book_col, args.gt_col, *sources],
                ),
                sources=sources,
                gt_col=args.gt_col,
                book_col=args.book_col,
            )
            report = {
                "sources": list(sources),
                "books": sorted(
                    b for b in rollup["book"].unique() if b != "__total__"
                ),
                "rows": rollup.to_dict(orient="records"),
            }
            with open(args.output, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
            print(json.dumps({"books": len(report["books"]), "rows": len(rollup), "output": args.output}))
        elif args.cmd == "train":
            from .stages.lstm import train_recognizer

            res = train_recognizer(
                rd.read_parquet(args.input),
                args.model,
                nstates=args.nstates,
                epochs=args.epochs,
                lr=args.lr,
                max_lines=args.max_lines,
                line_height=args.line_height,
            )
            print(json.dumps(res))
        elif args.cmd == "flagship":
            from .pipelines.flagship import extract_pipeline
            from .stages.extract import flatten_spans_batch

            ds = extract_pipeline(args.sf_dir)
            flat = ds.map_batches(flatten_spans_batch, batch_format="pyarrow")
            if args.output:
                flat.write_parquet(args.output)
                print(json.dumps({"rows": flat.count(), "output": args.output}))
            else:
                print(json.dumps({"rows": flat.count()}))
    finally:
        # only tear down a session this invocation created — under
        # pytest (or an embedding driver) the caller owns the session
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
