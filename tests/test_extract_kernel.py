"""Differential tests for the Arrow span-extraction kernel.

``_oracle`` is the per-span Python loop the kernel replaced, kept here as
the reference semantics. Hypothesis draws random span sequences and
batch layouts, and the kernel must be ``Table.equals`` to the oracle.
The golden fixtures in test_core_units.py stay the primary parity check.
"""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from ocrd_cis_ray.corpus import DOC_SCHEMA, _build_spans
from ocrd_cis_ray.stages.extract import VALID_KINDS, extract, extract_spans_batch
from ocrd_cis_ray.util import nfkc, split_words


def _oracle(batch: pa.Table) -> pa.Table:
    """Reference semantics: one Python pass over every document's spans."""
    doc_ids = batch["doc_id"].to_pylist()
    all_spans = batch["spans"].to_pylist()
    out_kinds, out_texts, out_media, out_offs = [], [], [], []
    for spans in all_spans:
        kinds: list[str] = []
        texts: list[str] = []
        media: list[str] = []
        region_start = -1  # index in output list of current region span
        region_lines: list[str] = []

        def close_region():
            nonlocal region_start
            if region_start >= 0:
                texts[region_start] = "\n".join(region_lines)
                region_start = -1
            region_lines.clear()

        # Settled: a null ``spans`` row is an empty page. The loop this
        # oracle comes from raised TypeError and failed the whole batch.
        for s in spans or []:
            # Settled: a null span is dropped like a span with a null kind.
            if s is None or s["kind"] not in VALID_KINDS:
                continue
            kind = s["kind"]
            text = nfkc(s["text"]) if s["text"] else ""
            mref = s["media_ref"] or ""
            if kind == "image" and not mref:
                continue
            if kind == "region":
                close_region()
                region_start = len(kinds)
                kinds.append("region")
                texts.append("")
                media.append(mref)
            elif kind == "line":
                region_lines.append(text)
                kinds.append("line")
                texts.append(text)
                media.append(mref)
                for w in split_words(text):
                    kinds.append("word")
                    texts.append(w)
                    media.append("")
            elif kind == "word":
                continue  # re-derived from lines above
            else:
                kinds.append(kind)
                texts.append(text)
                media.append(mref)
        close_region()
        out_kinds.append(kinds)
        out_texts.append(texts)
        out_media.append(media)
        out_offs.append(list(range(len(kinds))))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": _build_spans(out_kinds, out_texts, out_media, out_offs),
        }
    )


# ligature, long s, full-width forms, combining mark, no-break and
# ideographic spaces (NFKC turns them into " "), Roman numeral, eszett
_CHARS = st.sampled_from(list("ab  ") + ["ﬁ", "ſ", "Ａ", "ｂ", "é", " ", "　", "Ⅸ", "ß", "\n"])
_TEXT = st.one_of(st.none(), st.lists(_CHARS, max_size=8).map("".join))
_KIND = st.one_of(
    st.none(),
    st.sampled_from(["region", "line", "line", "line", "word", "image", "glyph", "separator", "table", "bogus", "", "Line"]),
)
_SPAN = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": _KIND,
            "text": _TEXT,
            "media_ref": st.sampled_from([None, "", "m/1", "pages/p2.png"]),
            "offset": st.integers(0, 40),
        }
    ),
    st.none(),
)
_DOCS = st.lists(st.one_of(st.none(), st.lists(_SPAN, max_size=14)), max_size=6)
_REORDERED = pa.struct(
    [("offset", pa.int64()), ("media_ref", pa.string()), ("text", pa.string()), ("kind", pa.string())]
)


def _table(docs, layout: str, cut: int) -> pa.Table:
    ids = [f"d{i}" for i in range(len(docs))]
    spans_type = pa.list_(_REORDERED) if layout == "reordered" else DOC_SCHEMA.field("spans").type
    tbl = pa.table({"doc_id": pa.array(ids, pa.string()), "spans": pa.array(docs, spans_type)})
    cut = min(cut, len(docs))
    if layout == "sliced":  # nonzero list offset
        return tbl.slice(cut)
    if layout == "chunked":  # two chunks, the second one sliced
        return pa.concat_tables([tbl.slice(0, cut), tbl.slice(cut)])
    if layout == "pandas":  # inferred struct: int64 offset, as after to_pandas
        return pa.Table.from_pandas(tbl.to_pandas())
    return tbl


@settings(max_examples=300, deadline=None)
@given(
    docs=_DOCS,
    layout=st.sampled_from(["plain", "sliced", "chunked", "pandas", "reordered"]),
    cut=st.integers(0, 6),
)
def test_kernel_equals_oracle(docs, layout, cut):
    batch = _table(docs, layout, cut)
    got = extract_spans_batch(batch)
    assert got.schema.equals(DOC_SCHEMA)
    assert got.equals(_oracle(batch))


def test_null_spans_row_yields_empty_list(ray_session):
    import ray.data as rd

    span = {"kind": "line", "text": "a b", "media_ref": "", "offset": 0}
    batch = pa.table(
        {"doc_id": ["d0", "d1", "d2"], "spans": pa.array([[span], None, []], DOC_SCHEMA.field("spans").type)}
    )
    out = extract_spans_batch(batch)
    assert out["spans"].to_pylist() == [
        [
            {"kind": "line", "text": "a b", "media_ref": "", "offset": 0},
            {"kind": "word", "text": "a", "media_ref": "", "offset": 1},
            {"kind": "word", "text": "b", "media_ref": "", "offset": 2},
        ],
        [],
        [],
    ]
    assert out["spans"].null_count == 0
    # the same row no longer fails the map_batches task
    rows = extract(rd.from_arrow(batch)).take_all()
    assert [len(r["spans"]) for r in sorted(rows, key=lambda r: r["doc_id"])] == [3, 0, 0]

