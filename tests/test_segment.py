"""Page segmentation (recursive XY cut): line detection, reading order,
and the full page → segment → recognize chain."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocrd_cis_ray.sources.media import encode_gray, render_line
from ocrd_cis_ray.stages.recognize import Recognizer, recognize_lines
from ocrd_cis_ray.stages.segment import segment_page, segment_pages


def stack_page(lines, gap=6, pad=12):
    imgs = [render_line(t) for t in lines]
    w = max(i.shape[1] for i in imgs) + 2 * pad
    rows = [np.full((pad, w), 255, np.uint8)]
    for im in imgs:
        row = np.full((im.shape[0], w), 255, np.uint8)
        row[:, pad : pad + im.shape[1]] = im
        rows.append(row)
        rows.append(np.full((gap, w), 255, np.uint8))
    rows.append(np.full((pad, w), 255, np.uint8))
    return np.vstack(rows)


def test_segment_single_column():
    page = stack_page(["first line here", "second line", "third one"])
    boxes = segment_page(page)
    assert len(boxes) == 3
    ys = [b[0] for b in boxes]
    assert ys == sorted(ys)  # top-to-bottom reading order


def test_segment_two_columns_reading_order():
    col1 = stack_page(["aaa bbb", "ccc ddd", "eee fff"])
    col2 = stack_page(["ggg hhh", "iii jjj"])
    h = max(col1.shape[0], col2.shape[0])
    gutter = 40
    page = np.full((h, col1.shape[1] + gutter + col2.shape[1]), 255, np.uint8)
    page[: col1.shape[0], : col1.shape[1]] = col1
    page[: col2.shape[0], col1.shape[1] + gutter :] = col2
    boxes = segment_page(page)
    assert len(boxes) == 5
    col_flags = [b[2] < col1.shape[1] for b in boxes]
    assert col_flags == [True] * 3 + [False] * 2  # RXYC: column 1 first


def test_segment_blank_page():
    assert segment_page(np.full((50, 80), 255, np.uint8)) == []


def test_segment_recognize_chain(ray_session):
    """page image → segmentation stage → recognition tasks recover the
    original line texts in reading order — the reference's
    segment→recognize flow end-to-end."""
    import ray.data as rd

    lines = ["hello world", "the quick fox", "final line"]
    page = stack_page(lines)
    tbl = pa.Table.from_pylist(
        [
            {
                "doc_id": "p0",
                "span_id": "page-0",
                "media_ref": "media/p0.bin",
                "features": "",
                "pixels": encode_gray(page),
            }
        ]
    )
    segs = segment_pages(rd.from_arrow(tbl))
    rec = recognize_lines(segs, batch_size=8).to_pandas()
    got = rec.sort_values("span_id")["text"].tolist()
    assert got == lines


def test_recognizer_accepts_trimmed_crop():
    img = render_line("crop test")
    fg = img < 128
    ys = np.flatnonzero(fg.any(axis=1))
    xs = np.flatnonzero(fg.any(axis=0))
    crop = img[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]
    text, conf, _, _ = Recognizer().recognize_line(crop)
    assert text == "crop test"


def touching_lines_page():
    """Two stacked lines joined by a descender-like stroke through the
    inter-line whitespace: every row between the line bodies has ink, so
    a projection cut sees no gap."""
    a = render_line("quick sphinx of quartz jumps")
    b = render_line("gravity keeps pygmy dogs up")
    w = max(a.shape[1], b.shape[1]) + 24
    rows = [np.full((12, w), 255, np.uint8)]
    for im in (a, b):
        row = np.full((im.shape[0], w), 255, np.uint8)
        row[:, 12 : 12 + im.shape[1]] = im
        rows.append(row)
        rows.append(np.full((2, w), 255, np.uint8))
    rows.append(np.full((10, w), 255, np.uint8))
    page = np.vstack(rows)
    fg = page < 128
    ink_rows = np.flatnonzero(fg.sum(axis=1))
    gaps = np.flatnonzero(np.diff(ink_rows) > 1)
    g = gaps[len(gaps) // 2]
    ys, ye = ink_rows[g], ink_rows[g + 1]
    col = np.flatnonzero(fg[ys])[3]
    page[ys : ye + 1, col : col + 2] = 0  # the touching stroke
    return page, (int(ink_rows[g]), int(ink_rows[g + 1]))


def test_seeds_split_touching_lines():
    """The gradient-seed finder separates lines whose ascender/descender
    touch — where the projection XY cut provably cannot (it returns ONE
    box because no zero-ink row exists between the lines)."""
    page, (base1, top2) = touching_lines_page()
    fg = page < 128
    assert not (np.diff(np.flatnonzero(fg.sum(axis=1))) > 1).any()  # no projection gap
    assert len(segment_page(page, method="xy")) == 1  # XY mis-segments
    boxes = segment_page(page, method="seeds")
    assert len(boxes) == 2
    (ay0, ay1, _, _), (by0, by1, _, _) = boxes
    assert ay0 < by0  # reading order
    assert ay0 <= base1 < ay1 + 8  # box 1 covers line 1's body
    assert by0 <= top2 + 8 and by1 > top2  # box 2 covers line 2's body


def test_seeds_standard_fixtures():
    """Seed finder agrees with XY on well-separated pages, and a blank
    page yields no lines."""
    page = stack_page(["first line here", "second line", "third one"])
    assert len(segment_page(page, method="seeds")) == 3
    assert segment_page(np.full((50, 80), 255, np.uint8), method="seeds") == []


def test_seeds_hmerge_rejoins_word_gaps():
    """Long intra-line whitespace must not split a line into several
    seed labels (hmerge_line_seeds semantics): one wide line with big
    word gaps comes back as ONE box spanning the full ink width."""
    img = render_line("a     b     c")
    pad = np.full((img.shape[0] + 24, img.shape[1] + 24), 255, np.uint8)
    pad[12 : 12 + img.shape[0], 12 : 12 + img.shape[1]] = img
    boxes = segment_page(pad, method="seeds")
    assert len(boxes) == 1
    fg = pad < 128
    xs = np.flatnonzero(fg.sum(axis=0))
    assert boxes[0][2] <= xs[0] + 2 and boxes[0][3] >= xs[-1] - 1


def test_colseps_and_fullpage_seeds_two_columns():
    """Whitespace column-separator detection: the gutter between two
    equal columns is found (not aligned word gaps — those are too
    narrow), fullpage seeds are interrupted at it, and hmerge never
    joins lines across it."""
    from ocrd_cis_ray.stages.segment import compute_colseps, estimate_scale

    col1 = stack_page(["aaa bbb", "ccc ddd", "eee fff"])
    col2 = stack_page(["ggg hhh", "iii jjj", "kkk lll"])
    h = max(col1.shape[0], col2.shape[0])
    gutter0 = col1.shape[1]
    page = np.full((h, col1.shape[1] + 40 + col2.shape[1]), 255, np.uint8)
    page[: col1.shape[0], : col1.shape[1]] = col1
    page[: col2.shape[0], col1.shape[1] + 40 :] = col2
    fg = page < 128
    seps = compute_colseps(fg, estimate_scale(fg))
    sep_x = np.flatnonzero(seps.any(axis=0))
    assert len(sep_x) > 0
    # the band must lie strictly inside the true ink gap: after the
    # last ink column of col1, before the first ink column of col2
    # (the band legitimately covers the WHOLE blank gap, which is
    # wider than the 40px array gap when lines end in whitespace)
    left_ink_end = np.flatnonzero(fg[:, :gutter0].any(axis=0)).max()
    right_ink_start = gutter0 + 40 + np.flatnonzero(fg[:, gutter0 + 40 :].any(axis=0)).min()
    assert sep_x.min() > left_ink_end and sep_x.max() < right_ink_start
    boxes = segment_page(page, method="seeds", fullpage=True, order="topological")
    assert len(boxes) == 6  # 3 + 3 lines, no cross-gutter merge
    left = [b for b in boxes if b[3] <= gutter0]
    right = [b for b in boxes if b[2] >= gutter0]
    assert len(left) == 3 and len(right) == 3


def test_lines_to_regions_grouping():
    """lines2regions semantics at box granularity: columns become
    separate regions (vertical cut first), stacked blocks separated by
    clearly-larger-than-leading gaps split, ordinary line spacing does
    NOT fragment a paragraph."""
    from ocrd_cis_ray.stages.segment import lines_to_regions

    # single paragraph: uniform leading -> one region
    para = segment_page(stack_page(["one line", "two line", "three line"]))
    assert lines_to_regions(para) == [0, 0, 0]

    # two stacked paragraphs with a 40px block gap -> two regions
    p1 = stack_page(["para one line a", "para one line b"])
    p2 = stack_page(["para two line a", "para two line b"])
    w = max(p1.shape[1], p2.shape[1])
    pg = np.full((p1.shape[0] + 40 + p2.shape[0], w), 255, np.uint8)
    pg[: p1.shape[0], : p1.shape[1]] = p1
    pg[p1.shape[0] + 40 :, : p2.shape[1]] = p2
    assert lines_to_regions(segment_page(pg)) == [0, 0, 1, 1]

    # two columns -> two regions (boxes given in column order)
    boxes = [(10, 20, 0, 50), (30, 40, 0, 50), (10, 20, 90, 140), (30, 40, 90, 140)]
    assert lines_to_regions(boxes) == [0, 0, 1, 1]


def test_segment_pages_emit_regions(ray_session):
    """The segmentation stage surfaces region_no when asked."""
    import ray.data as rd

    p1 = stack_page(["block one a", "block one b"])
    p2 = stack_page(["block two a", "block two b"])
    w = max(p1.shape[1], p2.shape[1])
    pg = np.full((p1.shape[0] + 40 + p2.shape[0], w), 255, np.uint8)
    pg[: p1.shape[0], : p1.shape[1]] = p1
    pg[p1.shape[0] + 40 :, : p2.shape[1]] = p2
    ds = rd.from_items(
        [{"doc_id": "d1", "span_id": "page-0", "media_ref": "m", "features": "", "pixels": encode_gray(pg)}]
    )
    rows = segment_pages(ds, emit_regions=True).take_all()
    assert [r["region_no"] for r in rows] == [0, 0, 1, 1]
    plain = segment_pages(ds).take_all()
    assert "region_no" not in plain[0]


# ---------------------------------------------------------------------------
# polygon outlines (masks2polygons semantics, reference segment.py:58-135)


def test_trace_contour_rectangle_compresses_to_corners():
    from ocrd_cis_ray.stages.segment import _compress_collinear, trace_outer_contour

    m = np.zeros((10, 12), bool)
    m[2:7, 3:9] = True
    poly = _compress_collinear(trace_outer_contour(m))
    # a filled rectangle's outline is exactly its 4 corners, clockwise
    # from the topmost-leftmost pixel, as (x, y) points
    assert poly == [(3, 2), (8, 2), (8, 6), (3, 6)]


def test_trace_contour_l_shape():
    from ocrd_cis_ray.stages.segment import _compress_collinear, trace_outer_contour

    m = np.zeros((10, 10), bool)
    m[1:8, 1:3] = True  # vertical bar
    m[6:8, 1:8] = True  # horizontal foot -> L shape, 6 corners
    poly = _compress_collinear(trace_outer_contour(m))
    # 8-connected Moore tracing cuts the inner corner diagonally:
    # (2,5) -> (3,6) instead of the right-angle (2,6)
    assert poly == [(1, 1), (2, 1), (2, 5), (3, 6), (7, 6), (7, 7), (1, 7)]


def test_masks_to_polygons_multi_part_and_filters():
    from ocrd_cis_ray.stages.segment import masks_to_polygons

    labels = np.zeros((12, 20), np.int32)
    labels[2:6, 2:8] = 1    # label 1, part A (24 px)
    labels[2:6, 12:18] = 1  # label 1, part B (24 px) -> right of A
    labels[8:11, 2:6] = 2   # label 2
    labels[8:9, 15:16] = 3  # label 3: single pixel -> <4 points, dropped
    fg = labels > 0
    polys, relab = masks_to_polygons(labels, fg)
    assert [lab for lab, _ in polys] == [1, 1, 2]
    # reading order: part A (left) before part B (right)
    assert polys[0][1][0] == (2, 2) and polys[1][1][0] == (12, 2)
    # result labels renumbered by emission index
    assert relab[3, 3] == 1 and relab[3, 14] == 2 and relab[9, 3] == 3
    assert relab[8, 15] == 0  # dropped part keeps no label
    # min_area drops the small label-2 part when it is <10% of total
    labels2 = np.zeros((30, 30), np.int32)
    labels2[1:21, 1:21] = 1   # 400 px
    labels2[25:27, 25:27] = 1  # 4 px, 1% of label total
    polys2, _ = masks_to_polygons(labels2, labels2 > 0, min_area=10)
    assert len(polys2) == 1


def test_segment_pages_emit_polygons(ray_session):
    import ray.data as rd

    pg = stack_page(["word one", "second line"])
    ds = rd.from_items(
        [{"doc_id": "d1", "span_id": "page-0", "media_ref": "m", "features": "", "pixels": encode_gray(pg)}]
    )
    rows = segment_pages(ds, emit_polygons=True).take_all()
    assert len(rows) == 2
    for r in rows:
        poly = r["polygon"]
        assert len(poly) >= 4
        xs = [p["x"] for p in poly]
        ys = [p["y"] for p in poly]
        # outline stays inside the line's box, absolute page coords
        assert min(xs) >= r["x0"] and max(xs) < r["x1"]
        assert min(ys) >= r["y0"] and max(ys) < r["y1"]
    plain = segment_pages(ds).take_all()
    assert "polygon" not in plain[0]


def test_recognizer_word_polygons_grid():
    rec = Recognizer()
    img = render_line("ab cd")
    text, conf, words, glyphs = rec.recognize_line(img)
    assert text == "ab cd"
    h = img.shape[0]
    # word 'ab' spans chars [0,2) -> x in [10, 26); 'cd' chars [3,5) -> [34, 50)
    assert words[0]["poly"] == [
        {"x": 10, "y": 0}, {"x": 26, "y": 0}, {"x": 26, "y": h}, {"x": 10, "y": h}
    ]
    assert words[1]["poly"] == [
        {"x": 34, "y": 0}, {"x": 50, "y": 0}, {"x": 50, "y": h}, {"x": 34, "y": h}
    ]
    # glyph poly = its grid cell
    assert glyphs[3]["poly"][0] == {"x": 34, "y": 0} and glyphs[3]["poly"][1] == {"x": 42, "y": 0}


# ---------------------------------------------------------------------------
# page-level resegment (reference resegment.py ccomps method)


def test_dist_labels_matches_bruteforce():
    from ocrd_cis_ray.stages.image_ops import dist_labels

    rng = np.random.RandomState(3)
    mask = rng.rand(18, 25) < 0.6
    got = dist_labels(mask)
    ys, xs = np.indices(mask.shape)
    bg = np.argwhere(~mask)
    for y in range(mask.shape[0]):
        for x in range(mask.shape[1]):
            if not mask[y, x]:
                assert got[y, x] == 0
                continue
            want = np.max(np.abs(bg - [y, x]), axis=1).min() if len(bg) else mask.shape[0] + mask.shape[1] + 2
            assert got[y, x] == want, (y, x, got[y, x], want)


def test_resegment_page_recovers_shifted_boxes():
    """Shifted coarse boxes snap back to the true line ink (the
    reference's polygonalization of bad/coarse segmentation,
    resegment.py:100-104): each accepted new region must cover its own
    line's foreground and none of its neighbour's."""
    from ocrd_cis_ray.stages.segment import resegment_page, segment_page

    page = stack_page(["first line here", "second line", "third one"], gap=14)
    true_boxes = segment_page(page)
    assert len(true_boxes) == 3
    # corrupt: shift each box DOWN by 6px (partially off its line)
    coarse = [(y0 + 6, y1 + 6, x0, x1) for (y0, y1, x0, x1) in true_boxes]
    results = resegment_page(page, coarse, threshold=0.8)
    fg = page < 128
    for (acc, poly, box), (ty0, ty1, tx0, tx1) in zip(results, true_boxes):
        assert acc, "shifted line was not resegmented"
        ny0, ny1, nx0, nx1 = box
        # the new box covers the true line's ink rows again
        assert ny0 <= ty0 + 1 and ny1 >= ty1 - 1
        # and carries (nearly) all of the true line's foreground
        m = np.zeros_like(fg)
        m[ny0:ny1, nx0:nx1] = True
        # ≥90%: tiny components (i-dots, punctuation) are gated out by
        # min_comp and may sit beyond spread reach — same as the
        # reference's `counts > 15/zoom` component filter
        line_fg = int(fg[ty0:ty1, tx0:tx1].sum())
        assert int((m & fg)[ty0:ty1, tx0:tx1].sum()) >= 0.9 * line_fg
        assert len(poly) >= 4


def test_resegment_page_keeps_unmatched_box():
    """A coarse box over blank background fails the fg-coverage gate and
    keeps its original coordinates (spread_dist threshold semantics,
    resegment.py:437-448)."""
    from ocrd_cis_ray.stages.segment import resegment_page

    page = np.full((60, 120), 255, np.uint8)
    img = render_line("hi")
    page[10 : 10 + img.shape[0], 10 : 10 + img.shape[1]] = img
    blank_box = (40, 55, 10, 110)
    results = resegment_page(page, [blank_box], threshold=0.8)
    acc, poly, box = results[0]
    assert not acc
    assert box == blank_box


def test_resegment_pages_stage(ray_session):
    """The Ray stage: page rows + coarse line boxes -> accepted line rows
    with polygons; rejected lines keep their box."""
    import ray.data as rd

    from ocrd_cis_ray.stages.segment import resegment_pages, segment_page

    page = stack_page(["alpha beta", "gamma delta"], gap=14)
    true_boxes = segment_page(page)
    coarse = [
        {"y0": y0 + 5, "y1": y1 + 5, "x0": x0, "x1": x1} for (y0, y1, x0, x1) in true_boxes
    ]
    rows = [
        {
            "doc_id": "d0",
            "span_id": "p0",
            "media_ref": "m0",
            "features": "binarized",
            "pixels": encode_gray(page),
            "lines": coarse,
        }
    ]
    out = resegment_pages(rd.from_arrow(pa.Table.from_pylist(rows))).to_pandas()
    assert len(out) == 2
    assert out["accepted"].all()
    assert (out["features"] == "binarized,resegmented").all()
    # polygons are non-degenerate and in absolute page coords
    for poly in out["polygon"]:
        assert len(poly) >= 4
        assert all(0 <= p["y"] < page.shape[0] and 0 <= p["x"] < page.shape[1] for p in poly)
