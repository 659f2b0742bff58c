"""PAGE-XML ingestion: PcGts trees → interleaved span rows.

The reference's real input format is PAGE-XML loaded via
``page_from_file`` and traversed Page → TextRegion → TextLine → Word →
TextEquiv/Unicode (ocrd_cis/align/cli.py:63-79,302-304). This module
reimplements that traversal with stdlib ElementTree as a vectorizable
batch parser over raw XML payloads, producing the engine's interleaved
document schema (doc_id, spans: list<struct<kind,text,media_ref,
offset>>):

- one ``region`` span per TextRegion, text = its TextEquiv Unicode if
  present else the newline-join of its lines (recognize.py:195-199
  region-text update semantics), media_ref = ``imageFilename#regionId``;
- one ``line`` span per TextLine (TextEquiv[0] Unicode, NFKC-normalized
  like the extract stage);
- ``word`` spans from explicit Word elements when present, else the
  line text split on spaces (recognize.py:237 fallback);
- region order honors Page/ReadingOrder/OrderedGroup/RegionRefIndexed
  when present (index attribute), else document order — the same
  ordering PAGE consumers apply before alignment.

Namespace-agnostic: PAGE content namespaces vary by schema year, so all
lookups use the ``{*}`` wildcard.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET

import pyarrow as pa

from ..corpus import _build_spans
from ..state.manifest import PartFormat, write_resumable
from ..util import nfkc


def _text_equiv(el) -> str | None:
    """First TextEquiv/Unicode of an element, or None."""
    te = el.find("{*}TextEquiv/{*}Unicode")
    if te is None:
        return None
    return te.text or ""


def _reading_order(page) -> dict[str, int]:
    """regionId -> index from ReadingOrder/OrderedGroup/RegionRefIndexed."""
    order: dict[str, int] = {}
    for rri in page.iterfind(".//{*}RegionRefIndexed"):
        ref = rri.get("regionRef")
        try:
            idx = int(rri.get("index", ""))
        except ValueError:
            continue
        if ref:
            order[ref] = idx
    return order


def parse_page_xml(doc_id: str, payload: bytes) -> tuple[list, list, list, list]:
    """One PcGts document -> parallel span lists (kind, text, media, off)."""
    root = ET.fromstring(payload)
    page = root.find("{*}Page")
    if page is None:
        raise ValueError(f"{doc_id}: no Page element")
    image = page.get("imageFilename", "") or ""
    regions = list(page.iterfind("{*}TextRegion"))
    ro = _reading_order(page)
    if ro:
        # stable: indexed regions in ReadingOrder position, the rest after
        regions.sort(
            key=lambda r: (0, ro[r.get("id")]) if r.get("id") in ro else (1, 0)
        )
    kinds: list[str] = []
    texts: list[str] = []
    media: list[str] = []

    for region in regions:
        rid = region.get("id", "")
        r_at = len(kinds)
        kinds.append("region")
        texts.append("")  # patched below
        media.append(f"{image}#{rid}" if image or rid else "")
        line_texts: list[str] = []
        for line in region.iterfind("{*}TextLine"):
            lid = line.get("id", "")
            raw = _text_equiv(line)
            if raw is None:
                # no line-level TextEquiv: join word texts (cli.py's
                # Word traversal is the fallback source of truth)
                words = [
                    _text_equiv(w) or "" for w in line.iterfind("{*}Word")
                ]
                raw = " ".join(w for w in words if w)
            ltext = nfkc(raw)
            if not ltext.strip():
                continue
            line_texts.append(ltext)
            kinds.append("line")
            texts.append(ltext)
            media.append(f"{image}#{lid}" if image or lid else "")
            word_els = list(line.iterfind("{*}Word"))
            if word_els:
                for w in word_els:
                    kinds.append("word")
                    texts.append(nfkc(_text_equiv(w) or ""))
                    media.append("")
            else:
                for w in ltext.split(" "):
                    kinds.append("word")
                    texts.append(w)
                    media.append("")
        r_text = _text_equiv(region)
        texts[r_at] = nfkc(r_text) if r_text is not None else "\n".join(line_texts)
    return kinds, texts, media, list(range(len(kinds)))


def parse_page_xml_batch(batch: pa.Table) -> pa.Table:
    """(bytes, path) rows -> interleaved (doc_id, spans) rows."""
    paths = batch["path"].to_pylist()
    payloads = batch["bytes"].to_pylist()
    doc_ids, kinds, texts, media, offs = [], [], [], [], []
    for path, payload in zip(paths, payloads):
        doc_id = os.path.splitext(os.path.basename(path))[0]
        try:
            k, t, m, o = parse_page_xml(doc_id, payload)
        except (ET.ParseError, ValueError):
            continue  # log-and-skip a malformed page, like the reference
        doc_ids.append(doc_id)
        kinds.append(k)
        texts.append(t)
        media.append(m)
        offs.append(o)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": _build_spans(kinds, texts, media, offs),
        }
    )


# ---------------------------------------------------------------------------
# PAGE-XML export (the inverse writer): span rows -> PcGts trees +
# METS registration. The reference serializes the mutated tree with
# to_xml and registers it in the workspace METS per output file group
# (ocrd_cis/ocropy/binarize.py:164-175, align/cli.py:44-55). Engine
# analog: one {doc_id}.xml per document row, range-partitioned
# directories committed through the per-partition manifest (resumable),
# plus a mets.xml file group index.

PAGE_NS = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2019-07-15"
METS_NS = "http://www.loc.gov/METS/"
XLINK_NS = "http://www.w3.org/1999/xlink"


def _ref_id(media_ref: str, fallback: str) -> tuple[str, str]:
    """media_ref 'image#id' -> (image, id); generated id when absent."""
    if media_ref and "#" in media_ref:
        image, _, rid = media_ref.partition("#")
        return image, rid or fallback
    return "", fallback


def spans_to_page_xml(
    doc_id: str,
    spans: list[dict],
    *,
    image_filename: str | None = None,
    line_alts: dict[int, list[tuple[str, float, str]]] | None = None,
) -> bytes:
    """Interleaved span rows -> serialized PcGts bytes (inverse of
    ``parse_page_xml``; round-trip span-sequence-equal for page-xml-
    sourced corpora).

    Structure: region spans open TextRegion elements (ids recovered
    from the ``image#id`` media_ref fragment when present), line spans
    nest TextLine + TextEquiv/Unicode, word spans nest Word elements;
    a ReadingOrder/OrderedGroup/RegionRefIndexed block pins the region
    order. ``line_alts`` maps a line span's offset to support OCR
    variants [(text, conf, source), ...] appended as TextEquiv
    index=i+1, dataType='other', dataTypeDetails=
    'ocrd-cis-line-alignment:<source>' — the reference's aligned
    TextEquiv output semantics (align/cli.py:96-108)."""
    ET.register_namespace("", PAGE_NS)
    root = ET.Element(f"{{{PAGE_NS}}}PcGts")
    image = image_filename
    region_ids: list[str] = []
    regions: list[tuple[ET.Element, dict]] = []
    cur_region = None
    cur_line = None
    n_line = 0
    for span in spans:
        kind = span["kind"]
        text = span.get("text") or ""
        mref = span.get("media_ref") or ""
        off = int(span.get("offset", len(region_ids)))
        if kind == "region":
            img, rid = _ref_id(mref, f"r{off:04d}")
            if image is None and img:
                image = img
            cur_region = ET.Element(f"{{{PAGE_NS}}}TextRegion", {"id": rid})
            cur_line = None
            region_ids.append(rid)
            regions.append((cur_region, {"text": text}))
        elif kind == "line":
            if cur_region is None:  # line without region: implicit region
                cur_region = ET.Element(
                    f"{{{PAGE_NS}}}TextRegion", {"id": f"r{off:04d}"}
                )
                region_ids.append(f"r{off:04d}")
                # empty region TextEquiv: the line's text must NOT be
                # duplicated at region level (re-ingest would fabricate
                # a region span the original sequence never had)
                regions.append((cur_region, {"text": ""}))
            img, lid = _ref_id(mref, f"l{off:04d}")
            if image is None and img:
                image = img
            cur_line = ET.SubElement(cur_region, f"{{{PAGE_NS}}}TextLine", {"id": lid})
            n_line += 1
            alts = (line_alts or {}).get(off, [])
            _add_text_equiv(cur_line, text, index=0 if alts else None)
            for i, (alt_text, alt_conf, alt_source) in enumerate(alts):
                te = _add_text_equiv(cur_line, alt_text, index=i + 1, conf=alt_conf)
                te.set("dataType", "other")
                te.set("dataTypeDetails", f"ocrd-cis-line-alignment:{alt_source}")
        elif kind == "word":
            if cur_line is None:
                continue  # word without a line has no PAGE slot
            w = ET.Element(f"{{{PAGE_NS}}}Word", {"id": f"w{off:04d}"})
            _add_text_equiv(w, text)
            # Words must precede the line's TextEquiv elements (PAGE
            # schema order); insert before the first TextEquiv
            tes = [i for i, ch in enumerate(cur_line) if ch.tag.endswith("TextEquiv")]
            cur_line.insert(tes[0] if tes else len(cur_line), w)
        # other span kinds (image/separator/table) have no text slot here
    page = ET.SubElement(
        root, f"{{{PAGE_NS}}}Page", {"imageFilename": image or f"{doc_id}.png"}
    )
    if len(region_ids) > 1:
        ro = ET.SubElement(page, f"{{{PAGE_NS}}}ReadingOrder")
        og = ET.SubElement(ro, f"{{{PAGE_NS}}}OrderedGroup", {"id": f"{doc_id}_order"})
        for i, rid in enumerate(region_ids):
            ET.SubElement(
                og,
                f"{{{PAGE_NS}}}RegionRefIndexed",
                {"regionRef": rid, "index": str(i)},
            )
    for el, meta in regions:
        page.append(el)
        _add_text_equiv(el, meta["text"])  # region TextEquiv last (schema order)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _add_text_equiv(el, text: str, *, index: int | None = None, conf: float | None = None):
    attrs = {}
    if index is not None:
        attrs["index"] = str(index)
    if conf is not None:
        attrs["conf"] = f"{conf:.4f}"
    te = ET.SubElement(el, f"{{{PAGE_NS}}}TextEquiv", attrs)
    u = ET.SubElement(te, f"{{{PAGE_NS}}}Unicode")
    u.text = text
    return te


def _write_mets(out_dir: str, file_group: str) -> int:
    """Scan committed partition dirs and (re)write mets.xml registering
    every page file under ``file_group`` — the workspace.add_file/METS
    analog. Atomic (tmp + rename); idempotent on resume."""
    ET.register_namespace("mets", METS_NS)
    ET.register_namespace("xlink", XLINK_NS)
    mets = ET.Element(f"{{{METS_NS}}}mets")
    filesec = ET.SubElement(mets, f"{{{METS_NS}}}fileSec")
    grp = ET.SubElement(filesec, f"{{{METS_NS}}}fileGrp", {"USE": file_group})
    n = 0
    for part in sorted(os.listdir(out_dir)):
        if not part.startswith("part="):
            continue
        pdir = os.path.join(out_dir, part)
        for name in sorted(os.listdir(pdir)):
            if not name.endswith(".xml"):
                continue
            doc = os.path.splitext(name)[0]
            f = ET.SubElement(
                grp,
                f"{{{METS_NS}}}file",
                {"ID": f"{file_group}_{doc}", "MIMETYPE": "application/vnd.prima.page+xml"},
            )
            ET.SubElement(
                f,
                f"{{{METS_NS}}}FLocat",
                {"LOCTYPE": "OTHER", f"{{{XLINK_NS}}}href": f"{part}/{name}"},
            )
            n += 1
    tmp = os.path.join(out_dir, ".tmp-mets.xml")
    ET.ElementTree(mets).write(tmp, encoding="utf-8", xml_declaration=True)
    os.replace(tmp, os.path.join(out_dir, "mets.xml"))
    return n


def _write_page_xml_part(t: pa.Table, directory: str) -> None:
    """One ``{doc_id}.xml`` per row: the doc_id is unique by schema, so
    a task retry overwrites its own files."""
    for did, spans in zip(t["doc_id"].to_pylist(), t["spans"].to_pylist()):
        did = str(did)
        with open(os.path.join(directory, f"{did}.xml"), "wb") as f:
            f.write(spans_to_page_xml(did, spans))


def _page_xml_dir_rows(directory: str) -> int:
    return len([f for f in os.listdir(directory) if f.endswith(".xml")])


PAGE_XML = PartFormat(_write_page_xml_part, _page_xml_dir_rows)


def write_page_xml_corpus(
    ds,
    out_dir: str,
    *,
    file_group: str = "OCR-D-OUT",
    n_partitions: int = 8,
    input_fingerprint: str = "",
) -> dict:
    """Resumable PAGE-XML corpus sink: one ``{doc_id}.xml`` per
    (doc_id, spans) row in range-partitioned ``part=NNNNN`` dirs, plus
    one mets.xml registering the file group. The rows go through the
    one resumable sink, ``state.manifest.write_resumable``, with the
    ``PAGE_XML`` part format; the bounds, committed-partition skip,
    .tmp sweep and rename + manifest commit are the sink's.

    Returns {"completed": k, "skipped": s, "rows": n, "mets_files": m}.
    """
    res = write_resumable(
        ds,
        out_dir,
        n_partitions=n_partitions,
        stage=f"page-xml:{file_group}",
        input_fingerprint=input_fingerprint,
        part_format=PAGE_XML,
    )
    res["mets_files"] = _write_mets(out_dir, file_group)
    return res
