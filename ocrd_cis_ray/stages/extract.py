"""Span extraction / normalization — the flagship per-record transform.

Reimplements the reference's hierarchy-flattening semantics as a single
``map_batches`` stage over the interleaved document table, computed with
Arrow kernels over the flattened span arrays (see extract_spans_batch):

- word spans are derived from each line by splitting on spaces
  (reference: ocrd_cis/ocropy/recognize.py:237 splits recognized line
  text into Word elements on spaces);
- region text is recomputed as the newline-join of its line texts
  (text-consistency projection, recognize.py:195-199);
- span text is NFKC-normalized (ocrolib/lstm.py:837-838); ASCII text is
  already NFKC, so only non-ASCII rows reach ``unicodedata``;
- offsets are reassigned as a strictly-increasing 0-based document-order
  index (reading order; the reference's ordered-children invariant);
- invalid spans (unknown or null kind, image span with no media_ref) are
  dropped with the reference's log-and-skip error policy
  (recognize.py:227-232: a bad element never fails the page); a null
  ``spans`` row becomes an empty page.

Input:  raw interleaved docs — ``(doc_id, spans)`` where region text may
        be empty and word spans absent.
Output: normalized docs, same schema; per-row invariant: span-sequence
        equality (kind, text, media_ref, order) against golden.

This stage is row-local (no shuffle); every row carries its whole page,
so sibling-span context is available without any exchange.
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..corpus import DOC_SCHEMA, SPAN_TYPE

VALID_KINDS = {"region", "line", "word", "glyph", "image", "separator", "table"}
# ``word`` spans are valid input but never kept: they are re-derived from lines
_KEPT_KINDS = pa.array(sorted(VALID_KINDS - {"word"}), pa.string())


def _span_field(flat: pa.StructArray, name: str) -> pa.Array:
    """One span field as ``string``. A null span struct nulls its fields
    (``struct_field`` merges the parent validity), so the kind mask drops
    it."""
    return pc.struct_field(flat, name).cast(pa.string())


def _nfkc(text: pa.Array) -> pa.Array:
    """NFKC over a string column. NFKC leaves ASCII unchanged, so only
    non-ASCII rows are normalized, one at a time with ``unicodedata`` (the
    interpreter's Unicode tables, not utf8proc's)."""
    non_ascii = pc.invert(pc.string_is_ascii(text))
    if not pc.any(non_ascii).as_py():
        return text
    fixed = [unicodedata.normalize("NFKC", s) for s in text.filter(non_ascii).to_pylist()]
    return pc.replace_with_mask(text, non_ascii, pa.array(fixed, pa.string()))


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def extract_spans_batch(batch: pa.Table) -> pa.Table:
    """map_batches UDF (pyarrow in/out): normalize one batch of documents.

    Runs over the flattened span arrays with Arrow compute and numpy
    index arithmetic; no Python loop over spans or documents:

    - one mask drops unknown/null kinds, ``word`` spans and images with
      no ``media_ref``;
    - NFKC runs only on non-ASCII text (ASCII fast path);
    - a line belongs to the last region before it in its document, and
      each region's text is the ``binary_join`` of its lines' list;
    - words are ``split_pattern(line, " ")`` (empty lines give none);
    - one ``take`` interleaves every kept span with its line's words, and
      the span offsets and list offsets come from per-document counts.

    A null ``spans`` row yields an empty span list (log-and-skip).
    """
    spans = batch["spans"].combine_chunks()
    if pa.types.is_null(spans.type) or pa.types.is_null(spans.type.value_type):
        # pandas inference types all-null / all-empty span columns as null
        spans = spans.cast(DOC_SCHEMA.field("spans").type)
    n_docs = len(spans)
    doc_lens = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
    flat = spans.flatten()
    span_doc = np.repeat(np.arange(n_docs), doc_lens)

    kind = _span_field(flat, "kind")
    text = _span_field(flat, "text").fill_null("")
    media = _span_field(flat, "media_ref").fill_null("")
    no_image_ref = pc.and_(pc.equal(kind, "image"), pc.equal(media, ""))
    keep = pc.and_(pc.is_in(kind, value_set=_KEPT_KINDS), pc.invert(pc.fill_null(no_image_ref, False)))
    keep_idx = np.flatnonzero(keep.to_numpy(zero_copy_only=False))
    kind = kind.take(keep_idx)
    text = _nfkc(text.take(keep_idx))
    media = media.take(keep_idx)
    doc = span_doc[keep_idx]
    n_kept = len(keep_idx)
    kept_start = _exclusive_cumsum(np.bincount(doc, minlength=n_docs))

    # region ownership: regions seen before each span, globally and at
    # its document's first kept span
    is_region = pc.equal(kind, "region").to_numpy(zero_copy_only=False)
    regions_upto = np.cumsum(is_region)
    regions_before_doc = _exclusive_cumsum(is_region)[kept_start[doc]]
    line_idx = np.flatnonzero(pc.equal(kind, "line").to_numpy(zero_copy_only=False))
    owned = regions_upto[line_idx] > regions_before_doc[line_idx]
    owner = regions_upto[line_idx[owned]] - 1
    line_text = text.take(line_idx)
    region_lines = pa.ListArray.from_arrays(
        pa.array(_exclusive_cumsum(np.bincount(owner, minlength=int(is_region.sum()))), pa.int32()),
        line_text.filter(pa.array(owned)),
    )
    text = pc.replace_with_mask(text, pa.array(is_region), pc.binary_join(region_lines, "\n"))

    # words of each line; an empty line splits to nothing
    words = pc.split_pattern(pc.if_else(pc.equal(line_text, ""), pa.scalar(None, pa.string()), line_text), " ")
    n_words = np.zeros(n_kept, dtype=np.int64)
    n_words[line_idx] = pc.fill_null(pc.list_value_length(words), 0).to_numpy()
    words = words.flatten()

    # output rows: each kept span, then its words; the complement of the
    # span positions holds the words in order
    out_start = _exclusive_cumsum(1 + n_words)
    total = int(out_start[-1])
    is_span_row = np.zeros(total, dtype=bool)
    is_span_row[out_start[:-1]] = True
    take = np.empty(total, dtype=np.int64)
    take[is_span_row] = np.arange(n_kept)
    take[~is_span_row] = np.arange(n_kept, n_kept + len(words))
    out_kind = pa.concat_arrays([kind, pa.repeat(pa.scalar("word"), len(words))]).take(take)
    out_text = pa.concat_arrays([text, words]).take(take)
    out_media = pa.concat_arrays([media, pa.repeat(pa.scalar(""), len(words))]).take(take)

    list_offsets = out_start[kept_start]
    offset = np.arange(total) - np.repeat(list_offsets[:-1], np.diff(list_offsets))
    struct = pa.StructArray.from_arrays(
        [out_kind, out_text, out_media, pa.array(offset.astype(np.int32))],
        fields=list(SPAN_TYPE),
    )
    return pa.Table.from_arrays(
        [
            batch["doc_id"].combine_chunks().cast(pa.string()),
            pa.ListArray.from_arrays(pa.array(list_offsets.astype(np.int32)), struct),
        ],
        schema=DOC_SCHEMA,
    )


def flatten_spans_batch(batch: pa.Table) -> pa.Table:
    """Explode documents to one row per span (doc_id, offset, kind, text,
    media_ref) — the long-form output used by metrics / oracle checks.

    Pure Arrow: list-flatten + parent_indices, no Python loop.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    parents = spans.value_parent_indices()
    doc_ids = batch["doc_id"].take(parents)
    return pa.table(
        {
            "doc_id": doc_ids,
            "offset": flat.field("offset"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )


def extract(ds, **map_kwargs):
    """Dataset-level wrapper: raw interleaved docs -> normalized docs."""
    return ds.map_batches(extract_spans_batch, batch_format="pyarrow", **map_kwargs)


def segment_text_batch(batch: pa.Table, *, words_per_line: int = 8) -> pa.Table:
    """Plain-text documents -> flat span rows: the text-side analog of
    line segmentation (reference: ocropy line segmentation produces
    TextLines, each then split to Words on spaces, recognize.py:237).

    Each document's words are grouped into lines of ``words_per_line``;
    output rows are (doc_id, offset:int32, kind, text, media_ref) with
    offsets assigned in reading order: line span first, then its word
    spans (offset(line k) = (W+1)*k since only the last line can be
    short). Deliberately SQL-expressible so the DuckDB oracle can check
    it exactly.
    """
    W = words_per_line
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    out_id, out_off, out_kind, out_text = [], [], [], []
    for did, text in zip(ids, texts):
        words = (text or "").split(" ")
        for k in range(0, len(words), W):
            chunk = words[k : k + W]
            ln = k // W
            out_id.append(did)
            out_off.append((W + 1) * ln)
            out_kind.append("line")
            out_text.append(" ".join(chunk))
            for j, w in enumerate(chunk):
                out_id.append(did)
                out_off.append((W + 1) * ln + 1 + j)
                out_kind.append("word")
                out_text.append(w)
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "offset": pa.array(out_off, pa.int32()),
            "kind": pa.array(out_kind, pa.string()),
            "text": pa.array(out_text, pa.string()),
            "media_ref": pa.array([""] * len(out_id), pa.string()),
        }
    )
