"""Raw-file corpus ingestion → interleaved schema, resumable writes."""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest

from ocrd_cis_ray.sources.ingest import ingest_pages, ingest_resumable
from ocrd_cis_ray.stages.extract import extract_spans_batch


@pytest.fixture
def raw_dir(tmp_path):
    d = tmp_path / "raw"
    d.mkdir()
    for i in range(12):
        (d / f"doc{i:04d}.txt").write_text(f"first line of {i}\nsecond {i} here\n")
    return str(d)


def test_ingest_schema_and_invariant(ray_session, raw_dir):
    docs = ingest_pages(raw_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(docs) == 12
    spans = docs["spans"][0]
    kinds = [s["kind"] for s in spans]
    assert kinds[0] == "region" and "line" in kinds and "word" in kinds
    offs = [s["offset"] for s in spans]
    assert offs == list(range(len(offs)))
    # ingested docs already satisfy extraction normalization (idempotent)
    import pyarrow as pa

    tbl = pa.Table.from_pandas(docs[["doc_id", "spans"]])
    assert extract_spans_batch(tbl).to_pylist() == tbl.to_pylist()


def test_ingest_resumable_skips_done(ray_session, raw_dir, tmp_path):
    out = str(tmp_path / "ingested")
    r1 = ingest_resumable(raw_dir, out, n_partitions=4)
    assert r1["completed"] == 4 and r1["rows"] == 12
    # kill simulation: remove one partition + its manifest
    shutil.rmtree(os.path.join(out, "part=00001"))
    os.remove(os.path.join(out, "_manifest", "00001.json"))
    r2 = ingest_resumable(raw_dir, out, n_partitions=4)
    assert r2["completed"] == 1 and r2["skipped"] == 3
    n = sum(
        pq.read_metadata(f).num_rows for f in glob.glob(os.path.join(out, "part=*", "*.parquet"))
    )
    assert n == 12


def test_ingest_resumable_executions(ray_session, raw_dir, tmp_path, executed_plans):
    """Ingest goes through the one resumable sink: a first write reads
    and parses the directory once and writes every partition in one
    pass (one execution per partition before), and its bounds are the
    quantiles of the file names."""
    from ocrd_cis_ray.state.manifest import completed_partitions

    out = str(tmp_path / "ingested")
    r = ingest_resumable(raw_dir, out, n_partitions=4)
    assert r == {"completed": 4, "skipped": 0, "rows": 12}
    assert 0 < len(executed_plans) <= 2, executed_plans
    ranges = [(rec["lo"], rec["hi"]) for _, rec in sorted(completed_partitions(out).items())]
    assert ranges == [(None, "doc0003"), ("doc0003", "doc0006"), ("doc0006", "doc0009"), ("doc0009", None)]


def test_external_ocr_importer_unions_into_alignment(ray_session, tmp_path):
    """External .pred.txt lines import as a variant source with the
    alignment schema; misnamed files are skipped (importer.py parity)."""
    from ocrd_cis_ray.sources.external import import_external_lines

    d = tmp_path / "lines"
    d.mkdir()
    (d / "doc1__0.pred.txt").write_text("externer text hier\n")
    (d / "doc1__1.pred.txt").write_text("zweite zeile")
    (d / "doc2__0.pred.txt").write_text("anderes dokument")
    (d / "garbage.txt").write_text("ignored")  # wrong suffix
    (d / "nounderscore.pred.txt").write_text("ignored too")  # unparseable

    out = import_external_lines(str(d), source="CALAMARI", conf=0.66).to_pandas()
    out = out.sort_values(["doc_id", "line_no"]).reset_index(drop=True)
    assert list(out.columns) == ["doc_id", "source", "line_no", "text", "conf"]
    assert len(out) == 3
    assert (out["source"] == "CALAMARI").all()
    assert out.loc[0, "text"] == "externer text hier"
    assert out.loc[1, "line_no"] == 1
    import numpy as np
    assert np.allclose(out["conf"], 0.66)


def test_corpus_io_dispatch(ray_session, sf_dir, tmp_path):
    """read_corpus: parquet paths stream with column pruning; .lance
    paths demand the lance package (absent here -> clear error)."""
    import pytest

    from ocrd_cis_ray.sources.corpus_io import lance_available, read_corpus

    ds = read_corpus(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    assert ds.count() == 500
    assert ds.schema().names == ["doc_id"]
    if not lance_available():
        with pytest.raises(RuntimeError, match="lance"):
            read_corpus(str(tmp_path / "corpus.lance"))


def test_corpus_read_runs_one_whole_wave(ray_session, sf_dir, tmp_path, executed_plans):
    """A parquet corpus of 8 small files is read in one wave of one task
    per CPU (4 in this session), not one task per file; a caller's own
    block count wins."""
    from ocrd_cis_ray.pipelines.flagship import corpus_extract_pipeline, materialize_corpus
    from ocrd_cis_ray.sources.corpus_io import read_corpus

    corpus = materialize_corpus(sf_dir, str(tmp_path / "corpus"), files=8)
    del executed_plans[:]
    docs = corpus_extract_pipeline(corpus).materialize()
    assert len(executed_plans) == 1, executed_plans
    assert docs.num_blocks() == 4 and docs.count() == 500
    assert read_corpus(corpus, override_num_blocks=8).materialize().num_blocks() == 8


# ---------------------------------------------------------------------------
# PAGE-XML ingestion (reference align/cli.py:63-79,302-304 traversal)

_PAGE_NS = "http://schema.primaresearch.org/PAGE/gts/pagecontent/2019-07-15"


def _pcgts(body: str, ns: str = _PAGE_NS) -> str:
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<PcGts xmlns="{ns}">{body}</PcGts>'


@pytest.fixture
def page_xml_dir(tmp_path):
    """3-page golden corpus + 1 malformed file (skipped)."""
    d = tmp_path / "pagexml"
    d.mkdir()
    # p0: two regions listed out of order, ReadingOrder flips them;
    # explicit Word elements; region r2 has its own TextEquiv.
    (d / "p0000.xml").write_text(_pcgts(
        '<Page imageFilename="p0000.png">'
        '<ReadingOrder><OrderedGroup id="g">'
        '<RegionRefIndexed regionRef="r2" index="0"/>'
        '<RegionRefIndexed regionRef="r1" index="1"/>'
        '</OrderedGroup></ReadingOrder>'
        '<TextRegion id="r1"><TextLine id="l1">'
        '<Word id="w1"><TextEquiv><Unicode>zweite</Unicode></TextEquiv></Word>'
        '<Word id="w2"><TextEquiv><Unicode>region</Unicode></TextEquiv></Word>'
        '<TextEquiv><Unicode>zweite region</Unicode></TextEquiv>'
        '</TextLine></TextRegion>'
        '<TextRegion id="r2">'
        '<TextLine id="l2"><TextEquiv><Unicode>erste region</Unicode></TextEquiv></TextLine>'
        '<TextEquiv><Unicode>erste region</Unicode></TextEquiv>'
        '</TextRegion>'
        '</Page>'
    ))
    # p1: older namespace year, no Words (split fallback), no region
    # TextEquiv (line-join fallback), an empty line dropped.
    (d / "p0001.xml").write_text(_pcgts(
        '<Page imageFilename="p0001.png">'
        '<TextRegion id="ra">'
        '<TextLine id="la"><TextEquiv><Unicode>eine zeile</Unicode></TextEquiv></TextLine>'
        '<TextLine id="lb"><TextEquiv><Unicode>   </Unicode></TextEquiv></TextLine>'
        '<TextLine id="lc"><TextEquiv><Unicode>noch eine</Unicode></TextEquiv></TextLine>'
        '</TextRegion></Page>',
        ns="http://schema.primaresearch.org/PAGE/gts/pagecontent/2010-03-19",
    ))
    # p2: line with no TextEquiv -> word-join fallback; NFKC (ﬁ -> fi).
    (d / "p0002.xml").write_text(_pcgts(
        '<Page imageFilename="p0002.png">'
        '<TextRegion id="rx"><TextLine id="lx">'
        '<Word id="wx"><TextEquiv><Unicode>ﬁnal</Unicode></TextEquiv></Word>'
        '<Word id="wy"><TextEquiv><Unicode>wort</Unicode></TextEquiv></Word>'
        '</TextLine></TextRegion></Page>'
    ))
    (d / "broken.xml").write_text("<PcGts><Page>")  # malformed: skipped
    return str(d)


def test_page_xml_golden_span_sequence(ray_session, page_xml_dir):
    docs = (
        ingest_pages(page_xml_dir, format="page-xml")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(docs["doc_id"]) == ["p0000", "p0001", "p0002"]

    def seq(i):
        return [(s["kind"], s["text"]) for s in docs["spans"][i]]

    # p0: ReadingOrder puts r2 first; words come from Word elements
    assert seq(0) == [
        ("region", "erste region"), ("line", "erste region"),
        ("word", "erste"), ("word", "region"),
        ("region", "zweite region"), ("line", "zweite region"),
        ("word", "zweite"), ("word", "region"),
    ]
    # p0 media refs carry imageFilename#id
    m = [s["media_ref"] for s in docs["spans"][0]]
    assert m[0] == "p0000.png#r2" and m[1] == "p0000.png#l2" and m[2] == ""
    # p1: old namespace parses; empty line dropped; region text = line join
    assert seq(1) == [
        ("region", "eine zeile\nnoch eine"),
        ("line", "eine zeile"), ("word", "eine"), ("word", "zeile"),
        ("line", "noch eine"), ("word", "noch"), ("word", "eine"),
    ]
    # p2: line text joined from words, NFKC-normalized
    assert seq(2) == [
        ("region", "final wort"), ("line", "final wort"),
        ("word", "final"), ("word", "wort"),
    ]
    # offsets are the interleave invariant everywhere
    for i in range(3):
        offs = [s["offset"] for s in docs["spans"][i]]
        assert offs == list(range(len(offs)))


def test_page_xml_auto_dispatch_and_downstream(ray_session, page_xml_dir):
    """format='auto' sniffs .xml; output feeds extract unchanged."""
    import pyarrow as pa

    docs = ingest_pages(page_xml_dir).to_pandas()  # auto -> page-xml
    assert len(docs) == 3
    tbl = pa.Table.from_pandas(docs[["doc_id", "spans"]])
    assert extract_spans_batch(tbl).num_rows == 3


# ---------------------------------------------------------------------------
# PAGE-XML export (inverse writer + METS registration,
# reference binarize.py:164-175, align/cli.py:44-55)


def _span_seq(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def test_page_xml_round_trip(ray_session, page_xml_dir, tmp_path):
    """golden PAGE-XML -> ingest -> export -> re-ingest is span-sequence
    equal (kind, text, media_ref, order)."""
    from ocrd_cis_ray.sources.page_xml import write_page_xml_corpus

    docs = ingest_pages(page_xml_dir, format="page-xml")
    out = str(tmp_path / "export")
    stats = write_page_xml_corpus(docs, out, n_partitions=2)
    assert stats["rows"] == 3 and stats["mets_files"] == 3

    re_docs = (
        ingest_pages(out, format="page-xml").to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    orig = (
        ingest_pages(page_xml_dir, format="page-xml").to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert list(re_docs["doc_id"]) == list(orig["doc_id"])
    for i in range(len(orig)):
        assert _span_seq(re_docs["spans"][i]) == _span_seq(orig["spans"][i])

    # mets.xml registers every page file in the group
    import xml.etree.ElementTree as ET

    mets = ET.parse(f"{out}/mets.xml").getroot()
    grp = mets.find(".//{*}fileGrp")
    assert grp.get("USE") == "OCR-D-OUT"
    ids = sorted(f.get("ID") for f in grp.iterfind("{*}file"))
    assert ids == ["OCR-D-OUT_p0000", "OCR-D-OUT_p0001", "OCR-D-OUT_p0002"]


def test_page_xml_export_resume_skips_committed(ray_session, page_xml_dir, tmp_path):
    """Kill-one-partition resume: a rerun skips committed partitions."""
    import shutil

    from ocrd_cis_ray.sources.page_xml import write_page_xml_corpus

    docs = ingest_pages(page_xml_dir, format="page-xml")
    out = str(tmp_path / "export")
    first = write_page_xml_corpus(docs, out, n_partitions=2, input_fingerprint="v1")
    assert first["completed"] == 2
    # simulate a kill: destroy partition 1's output + manifest row
    shutil.rmtree(f"{out}/part=00001")
    import os

    os.remove(f"{out}/_manifest/00001.json")
    second = write_page_xml_corpus(docs, out, n_partitions=2, input_fingerprint="v1")
    assert second["skipped"] == 1 and second["completed"] == 1
    assert second["rows"] == 3 and second["mets_files"] == 3
    # the one sink records the bytes on disk for every part format
    from ocrd_cis_ray.state.manifest import completed_partitions

    for pid, rec in completed_partitions(out).items():
        xml = os.listdir(f"{out}/part={pid:05d}")
        assert rec["bytes"] == sum(os.path.getsize(f"{out}/part={pid:05d}/{f}") for f in xml) > 0


def test_spans_to_page_xml_indexed_text_equivs():
    """Aligned support OCRs land as TextEquiv index=i+1 with
    dataTypeDetails='ocrd-cis-line-alignment:SRC' (align/cli.py:96-108)."""
    import xml.etree.ElementTree as ET

    from ocrd_cis_ray.sources.page_xml import spans_to_page_xml

    spans = [
        {"kind": "region", "text": "hello world", "media_ref": "img.png#r1", "offset": 0},
        {"kind": "line", "text": "hello world", "media_ref": "img.png#l1", "offset": 1},
        {"kind": "word", "text": "hello", "media_ref": "", "offset": 2},
        {"kind": "word", "text": "world", "media_ref": "", "offset": 3},
    ]
    payload = spans_to_page_xml(
        "d1", spans, line_alts={1: [("hcllo world", 0.8, "OCR-2")]}
    )
    root = ET.fromstring(payload)
    line = root.find(".//{*}TextLine")
    tes = list(line.iterfind("{*}TextEquiv"))
    assert len(tes) == 2
    assert tes[0].get("index") == "0"
    assert tes[1].get("index") == "1"
    assert tes[1].get("conf") == "0.8000"
    assert tes[1].get("dataType") == "other"
    assert tes[1].get("dataTypeDetails") == "ocrd-cis-line-alignment:OCR-2"
    assert tes[1].find("{*}Unicode").text == "hcllo world"
    # words precede the TextEquivs in schema order
    kids = [ch.tag.split("}")[1] for ch in line]
    assert kids.index("Word") < kids.index("TextEquiv")


def test_spans_to_page_xml_implicit_region_no_text_duplication():
    """A bare line span (no preceding region) synthesizes an implicit
    TextRegion whose TextEquiv is EMPTY: re-parsing must not fabricate a
    region span duplicating the line's text."""
    from ocrd_cis_ray.sources.page_xml import parse_page_xml, spans_to_page_xml

    spans = [{"kind": "line", "text": "hello world", "media_ref": "", "offset": 0}]
    payload = spans_to_page_xml("d1", spans)
    kinds, texts, _, _ = parse_page_xml("d1", payload)
    by_kind = dict(zip(kinds, texts))
    assert by_kind["region"] == ""  # not "hello world"
    assert by_kind["line"] == "hello world"
