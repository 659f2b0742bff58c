"""Seeded workload inputs. The same seed gives byte-identical files.

The program under test receives only these files: a ``documents``
table (doc_id, text, lang, source, n_chars) in the ``documents.parquet``
layout the OCR chain reads, and the raw interleaved corpus the
extraction pipeline reads, written as multi-file parquet (the corpus
reader falls back to parquet when Lance is not installed).

``documents`` draws from the distribution measured on the repository's
``documents`` test tables (TESTDATA.md; sf0.001, sf0.01 and sf0.1, 500
to 5000 rows, the same figures at every scale):

- 10 to 99 words per document, uniform (median 54-56, 5th/95th
  percentile 14-16/94-95 words; 44 to 577 characters);
- each word uniform over the 30-word ``VOCAB``;
- 1 document in 20 is a near-duplicate: another document's text plus
  the word ``dup``;
- ``lang`` en 41 %, de/es/fr/zh 14-15 % each; ``source`` ``src{i % 20}``.

The page layout of the corpus follows the program's fixture rules
(FIXTURES.md F1: 1-4 regions of 1-8 lines, 1 document in 4 with an
image span), applied by ``corpus.synth_batch`` to these texts. The OCR
chain renders the first six 8-word lines of a text, so its pages hold 2
to 6 lines.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key line merge "
    "order part query row scan slow small sort spark stream table the value vector window"
).split()
LANGS = ("en", "de", "es", "fr", "zh")
LANG_P = (0.41, 0.14, 0.15, 0.15, 0.15)
DUP_FRAC = 0.05
SOURCES = 20


def documents(seed: int, n: int) -> pa.Table:
    """``n`` documents drawn from the measured ``documents`` distribution."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(10, 100, size=n)
    picks = rng.integers(0, len(VOCAB), size=int(lengths.sum()))
    vocab = np.asarray(VOCAB, dtype=object)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    texts = [" ".join(vocab[picks[bounds[i] : bounds[i + 1]]]) for i in range(n)]
    originals = list(texts)
    for i in np.flatnonzero(rng.random(n) < DUP_FRAC) if n > 1 else ():
        other = (i + 1 + int(rng.integers(0, n - 1))) % n
        texts[i] = originals[other] + " dup"
    langs = rng.choice(len(LANGS), size=n, p=LANG_P)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[k] for k in langs], pa.string()),
            "source": pa.array([f"src{i % SOURCES}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def write_documents(docs: pa.Table, sf_dir: str) -> str:
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(docs, os.path.join(sf_dir, "documents.parquet"))
    return sf_dir


def write_corpus(corpus: pa.Table, corpus_dir: str, files: int) -> str:
    """Row-slice ``corpus`` into ``files`` parquet files."""
    os.makedirs(corpus_dir, exist_ok=True)
    n = corpus.num_rows
    for i in range(files):
        lo, hi = i * n // files, (i + 1) * n // files
        pq.write_table(corpus.slice(lo, hi - lo), os.path.join(corpus_dir, f"part-{i:05d}.parquet"))
    return corpus_dir


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, names in os.walk(path) for f in names
    )
