"""Real PDF 1.4 writer + text extractor — stdlib only (zlib).

The north-star rule names "PDF/layout parse" as part of main-content
extraction. `stages/layout.py` implements the geometric half (positioned
fragments -> reading order); this module implements the CONTAINER half:
writing a valid PDF 1.4 file (page tree, FlateDecode content streams,
cross-reference table, trailer) and extracting positioned text back out
of one with a real parser — object lexer, xref-independent object scan,
/Root -> /Pages -> /Kids page-tree walk, stream decompression, and a
content-stream interpreter covering the standard text operators
(BT/ET, Tf, Tm, Td, TD, TL, T*, Tj, TJ with kerning numbers, ' and ").

This mirrors how the PNG codec in `sources/media.py` and the JPEG codec
in `sources/jpeg.py` work: no PDF library ships in this environment, so
the codec is written from the published file-format spec (ISO 32000-1 /
PDF 1.4 reference) and the extractor is exercised end-to-end by an
oracle-checked distributed query (q83) plus round-trip unit tests.
Compressed rasters, embedded fonts and encrypted files are out of scope
(documented).

Coordinate convention: PDF user space is bottom-up; the layout module
(`stages/layout.py`) is top-down. The writer flips y (PAGE_H - y) on
the way in and the extraction pipeline flips it back, so fragments
round-trip into the SAME geometry `_reconstruct_doc` expects.
"""

from __future__ import annotations

import re
import zlib

PAGE_W = 360.0
PAGE_H = 200.0
FONT_SIZE = 10.0

_ESC = {ord("("): b"\\(", ord(")"): b"\\)", ord("\\"): b"\\\\",
        ord("\n"): b"\\n", ord("\r"): b"\\r", ord("\t"): b"\\t"}


def _pdf_string(s: str) -> bytes:
    """Literal PDF string: UTF-8 bytes with (, ), \\ and control bytes
    escaped (octal for non-printables outside the named escapes)."""
    out = bytearray(b"(")
    for b in s.encode("utf-8"):
        esc = _ESC.get(b)
        if esc is not None:
            out += esc
        elif 32 <= b < 127:
            out.append(b)
        else:
            out += b"\\%03o" % b
    out += b")"
    return bytes(out)


def encode_pdf(pages: list[list[dict]]) -> bytes:
    """Positioned fragments -> a valid single-font PDF 1.4 file.

    ``pages[p]`` is a list of ``{"x": float, "y": float, "text": str}``
    fragments in TOP-DOWN layout coordinates; each page becomes one
    FlateDecode-compressed content stream positioning every fragment
    with an absolute text matrix (``Tm``) and showing it with ``Tj``.
    Object layout: 1 Catalog, 2 Pages, 3 Font, then (page, contents)
    pairs; ends with a byte-accurate xref table and trailer."""
    objs: list[bytes] = []  # objs[i] = body of object i+1 (without N 0 obj wrapper)
    n_pages = len(pages)
    first_page_obj = 4
    kids = " ".join(f"{first_page_obj + 2 * p} 0 R" for p in range(n_pages))
    objs.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objs.append(
        f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode()
    )
    objs.append(
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica"
        b" /Encoding /WinAnsiEncoding >>"
    )
    for p, frags in enumerate(pages):
        content = bytearray(b"BT /F1 %.1f Tf\n" % FONT_SIZE)
        for f in frags:
            content += b"1 0 0 1 %.2f %.2f Tm " % (
                float(f["x"]),
                PAGE_H - float(f["y"]),
            )
            content += _pdf_string(str(f["text"])) + b" Tj\n"
        content += b"ET"
        stream = zlib.compress(bytes(content), 6)
        contents_obj = first_page_obj + 2 * p + 1
        objs.append(
            (
                f"<< /Type /Page /Parent 2 0 R"
                f" /MediaBox [0 0 {PAGE_W:g} {PAGE_H:g}]"
                f" /Resources << /Font << /F1 3 0 R >> >>"
                f" /Contents {contents_obj} 0 R >>"
            ).encode()
        )
        objs.append(
            b"<< /Length %d /Filter /FlateDecode >>\nstream\n" % len(stream)
            + stream
            + b"\nendstream"
        )

    buf = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0]  # object 0 = free-list head
    for i, body in enumerate(objs, start=1):
        offsets.append(len(buf))
        buf += b"%d 0 obj\n" % i + body + b"\nendobj\n"
    xref_at = len(buf)
    buf += b"xref\n0 %d\n" % (len(objs) + 1)
    buf += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        buf += b"%010d 00000 n \n" % off
    buf += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objs) + 1, xref_at)
    )
    return bytes(buf)


# ---------------------------------------------------------------------------
# parsing


class _Ref:
    __slots__ = ("num",)

    def __init__(self, num: int):
        self.num = num

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Ref({self.num})"


_TOKEN = re.compile(
    rb"<<|>>|\[|\]|/[^\s/<>\[\]()]*|\d+\s+\d+\s+R\b"
    rb"|[-+]?\d*\.?\d+|\(|true|false|null",
)


def _parse_string(data: bytes, i: int) -> tuple[str, int]:
    """Parse a literal string starting at the '(' at data[i]."""
    assert data[i : i + 1] == b"("
    i += 1
    out = bytearray()
    depth = 1
    n = len(data)
    while i < n:
        b = data[i]
        if b == 0x5C:  # backslash
            nxt = data[i + 1 : i + 2]
            if nxt in (b"n", b"r", b"t", b"b", b"f"):
                out += {b"n": b"\n", b"r": b"\r", b"t": b"\t",
                        b"b": b"\b", b"f": b"\f"}[nxt]
                i += 2
            elif nxt in (b"(", b")", b"\\"):
                out += nxt
                i += 2
            elif nxt and nxt in b"01234567":  # octal escape: 1-3 OCTAL digits
                j = i + 1
                while j < min(i + 4, n) and data[j] in b"01234567":
                    j += 1
                out.append(int(data[i + 1 : j], 8) & 0xFF)
                i = j
            elif nxt == b"\n":  # line continuation
                i += 2
            else:
                i += 1
        elif b == 0x28:  # (
            depth += 1
            out.append(b)
            i += 1
        elif b == 0x29:  # )
            depth -= 1
            if depth == 0:
                return out.decode("utf-8", "replace"), i + 1
            out.append(b)
            i += 1
        else:
            out.append(b)
            i += 1
    raise ValueError("unterminated PDF string")


def _parse_value(data: bytes, i: int):
    """Parse one PDF object value at data[i]; -> (value, next_index).
    Values: dict, array, name, number, ref, string, bool, null."""
    while i < len(data) and data[i] in b" \t\r\n":
        i += 1
    m = _TOKEN.match(data, i)
    if not m:
        if data[i : i + 1] == b"<":  # hex string
            j = data.index(b">", i)
            hexs = re.sub(rb"\s", b"", data[i + 1 : j])
            if len(hexs) % 2:
                hexs += b"0"
            return bytes.fromhex(hexs.decode()).decode("utf-8", "replace"), j + 1
        raise ValueError(f"cannot parse PDF value at byte {i}")
    tok = m.group(0)
    if tok == b"<<":
        d = {}
        i = m.end()
        while True:
            while i < len(data) and data[i] in b" \t\r\n":
                i += 1
            if data[i : i + 2] == b">>":
                return d, i + 2
            key, i = _parse_value(data, i)
            val, i = _parse_value(data, i)
            d[key] = val
    if tok == b"[":
        arr = []
        i = m.end()
        while True:
            while i < len(data) and data[i] in b" \t\r\n":
                i += 1
            if data[i : i + 1] == b"]":
                return arr, i + 1
            v, i = _parse_value(data, i)
            arr.append(v)
    if tok == b"(":
        return _parse_string(data, i)
    if tok.startswith(b"/"):
        return tok.decode("latin-1"), m.end()
    if tok.endswith(b"R") and tok[:1].isdigit():
        return _Ref(int(tok.split()[0])), m.end()
    if tok in (b"true", b"false"):
        return tok == b"true", m.end()
    if tok == b"null":
        return None, m.end()
    return (float(tok) if b"." in tok else int(tok)), m.end()


_OBJ_RE = re.compile(rb"(\d+)\s+\d+\s+obj\b")


def _object_header(data: bytes, m: re.Match) -> tuple[int, object, int | None]:
    """Parse one `N G obj` value starting at match ``m`` -> (num, value,
    stream-data start offset or None). Stream bytes are NOT consumed —
    the caller extracts them once every object value is known, so an
    indirect /Length can be resolved (see ``_object_stream``)."""
    num = int(m.group(1))
    val, i = _parse_value(data, m.end())
    j = i
    while j < len(data) and data[j] in b" \t\r\n":
        j += 1
    if data[j : j + 6] != b"stream":
        return num, val, None
    j += 6
    if data[j : j + 2] == b"\r\n":
        j += 2
    elif data[j : j + 1] == b"\n":
        j += 1
    return num, val, j


def _object_stream(data: bytes, j: int, val, resolve=None) -> bytes:
    """Extract the stream payload starting at ``j``. /Length given as an
    indirect reference is resolved through ``resolve`` (num -> value).
    Without a usable length, fall back to scanning for ``endstream`` —
    stripping exactly ONE trailing EOL (the spec's pre-endstream EOL;
    rstrip would eat payload bytes that happen to be 0x0a/0x0d) and,
    for FlateDecode streams, validating candidates by decompression so
    an ``endstream`` byte pattern INSIDE the compressed data does not
    truncate the payload."""
    length = val.get("/Length") if isinstance(val, dict) else None
    if isinstance(length, _Ref) and resolve is not None:
        length = resolve(length.num)
    if isinstance(length, int):
        return data[j : j + length]
    filt = val.get("/Filter") if isinstance(val, dict) else None
    flate = filt == "/FlateDecode" or (
        isinstance(filt, list) and filt[:1] == ["/FlateDecode"]
    )
    end = data.index(b"endstream", j)  # ValueError -> caller skips
    while True:
        s = data[j:end]
        if s.endswith(b"\r\n"):
            s = s[:-2]
        elif s.endswith(b"\n") or s.endswith(b"\r"):
            s = s[:-1]
        if not flate:
            return s
        try:
            zlib.decompress(s)
            return s
        except zlib.error:
            nxt = data.find(b"endstream", end + 9)
            if nxt < 0:
                return s  # no valid candidate; downstream skips the part
            end = nxt


_XREF_ENTRY = re.compile(rb"(\d{10}) (\d{5}) ([nf])")


def _objects_via_xref(data: bytes) -> dict[int, tuple[object, bytes | None]]:
    """Spec path: startxref -> xref table -> parse each in-use offset.
    Raises on any inconsistency (caller falls back to a raw scan)."""
    tail = data.rfind(b"startxref")
    if tail < 0:
        raise ValueError("no startxref")
    xref_at = int(data[tail + 9 :].split()[0])
    if not data.startswith(b"xref", xref_at):
        raise ValueError("startxref does not point at an xref table")
    # pass 1: parse every in-use object's VALUE (streams deferred so an
    # indirect /Length can be resolved against the full value map)
    headers: dict[int, tuple[object, int | None]] = {}
    # subsection header: "start count", then fixed 20-byte entries
    i = data.index(b"\n", xref_at) + 1
    while True:
        line = data[i : data.index(b"\n", i)]
        parts = line.split()
        if len(parts) != 2 or not parts[0].isdigit():
            break
        start, count = int(parts[0]), int(parts[1])
        i = data.index(b"\n", i) + 1
        for k in range(count):
            e = _XREF_ENTRY.match(data, i)
            if not e:
                raise ValueError("malformed xref entry")
            if e.group(3) == b"n":
                off = int(e.group(1))
                m = _OBJ_RE.match(data, off)
                if not m or int(m.group(1)) != start + k:
                    raise ValueError("xref offset does not land on its object")
                num, val, j = _object_header(data, m)
                headers[num] = (val, j)
            i += 20
    if not headers:
        raise ValueError("empty xref")

    def resolve(num: int):
        return headers.get(num, (None, None))[0]

    # pass 2: extract streams with the length references resolvable
    return {
        num: (val, None if j is None else _object_stream(data, j, val, resolve))
        for num, (val, j) in headers.items()
    }


def _scan_objects(data: bytes) -> dict[int, tuple[object, bytes | None]]:
    """num -> (value, stream bytes or None). Prefers the xref table
    (byte-exact offsets, immune to `N 0 obj` byte patterns occurring
    inside compressed streams); falls back to a tolerant full scan
    that SKIPS unparseable matches (xref-damaged files, the production
    extractor behavior)."""
    try:
        return _objects_via_xref(data)
    except (ValueError, IndexError):
        pass
    headers: dict[int, tuple[object, int | None]] = {}
    for m in _OBJ_RE.finditer(data):
        try:
            num, val, j = _object_header(data, m)
        except (ValueError, IndexError):
            continue  # spurious match inside stream bytes
        headers[num] = (val, j)

    def resolve(num: int):
        return headers.get(num, (None, None))[0]

    objs: dict[int, tuple[object, bytes | None]] = {}
    for num, (val, j) in headers.items():
        try:
            stream = None if j is None else _object_stream(data, j, val, resolve)
        except (ValueError, IndexError):
            stream = None
        objs[num] = (val, stream)
    return objs


def _deref(objs, v):
    return objs[v.num][0] if isinstance(v, _Ref) else v


def _page_order(objs: dict) -> list[int]:
    """Walk /Root -> /Pages -> /Kids (recursive) -> page object numbers
    in document order."""
    root = None
    for num, (val, _) in objs.items():
        if isinstance(val, dict) and val.get("/Type") == "/Catalog":
            root = val
            break
    if root is None:
        raise ValueError("no /Catalog in PDF")
    pages_ref = root["/Pages"]
    order: list[int] = []

    def walk(ref):
        node = _deref(objs, ref)
        if node.get("/Type") == "/Pages":
            for kid in node["/Kids"]:
                walk(kid)
        else:
            order.append(ref.num if isinstance(ref, _Ref) else -1)

    walk(pages_ref)
    return order


def _page_content(objs: dict, page_num: int) -> bytes:
    page, _ = objs[page_num]
    contents = page.get("/Contents")
    refs = contents if isinstance(contents, list) else [contents]
    parts = []
    for r in refs:
        val, stream = objs[r.num] if isinstance(r, _Ref) else (None, None)
        if stream is None:
            continue
        filt = val.get("/Filter") if isinstance(val, dict) else None
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        try:
            for f in filters:
                if f == "/FlateDecode":
                    stream = zlib.decompress(stream)
                else:
                    raise NotImplementedError(
                        f"PDF stream filter {f} not supported"
                    )
        except zlib.error:
            continue  # damaged/mis-framed stream: skip the part, keep the page
        parts.append(stream)
    return b"\n".join(parts)


_CONTENT_TOKEN = re.compile(
    rb"\(|<[0-9A-Fa-f\s]*>|\[|\]|/[^\s/<>\[\]()]*|[-+]?\d*\.?\d+"
    rb"|[A-Za-z'\"*]+"
)


def _interpret_content(content: bytes, page: int) -> list[dict]:
    """Content-stream text interpreter -> positioned fragments.

    Tracks the text line matrix origin (x, y) through Tm/Td/TD/T*/TL
    and emits one fragment per show op (Tj, TJ, ', \"). TJ kerning
    numbers displace x by -n/1000 * font size (the PDF spec rule);
    successive shows inside one TJ advance x by the widths implied by
    the kern numbers only (glyph advance widths need font metrics, so
    fragments from one TJ share a visual origin — adequate for
    layout-geometry extraction, which clusters by line anyway)."""
    frags: list[dict] = []
    stack: list[object] = []
    fsize = 12.0
    tlx = tly = 0.0  # text line origin
    x = y = 0.0
    leading = 0.0
    i = 0
    n = len(content)
    while i < n:
        c = content[i]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == 0x28:  # literal string
            s, i = _parse_string(content, i)
            _push(stack, s)
            continue
        m = _CONTENT_TOKEN.match(content, i)
        if not m:
            i += 1
            continue
        tok = m.group(0)
        i = m.end()
        if tok == b"[":
            # gather the TJ array inline
            arr: list[object] = []
            stack.append(("[", arr))
            continue
        if tok == b"]":
            continue
        if tok.startswith(b"<") and tok.endswith(b">"):
            hexs = re.sub(rb"\s", b"", tok[1:-1])
            if len(hexs) % 2:
                hexs += b"0"
            _push(stack, bytes.fromhex(hexs.decode()).decode("utf-8", "replace"))
            continue
        if tok.startswith(b"/"):
            _push(stack, tok.decode("latin-1"))
            continue
        if re.fullmatch(rb"[-+]?\d*\.?\d+", tok):
            _push(stack, float(tok))
            continue
        op = tok.decode("latin-1")
        if op == "BT":
            tlx = tly = x = y = 0.0
            stack.clear()
        elif op == "ET":
            stack.clear()
        elif op == "Tf":
            if stack:
                fsize = float(stack[-1])
            stack.clear()
        elif op == "TL":
            if stack:
                leading = float(stack[-1])
            stack.clear()
        elif op == "Tm":
            if len(stack) >= 6:
                tlx, tly = float(stack[-2]), float(stack[-1])
                x, y = tlx, tly
            stack.clear()
        elif op in ("Td", "TD"):
            if len(stack) >= 2:
                if op == "TD":
                    leading = -float(stack[-1])
                tlx += float(stack[-2])
                tly += float(stack[-1])
                x, y = tlx, tly
            stack.clear()
        elif op == "T*":
            tly -= leading
            x, y = tlx, tly
            stack.clear()
        elif op in ("Tj", "'", '"'):
            if op in ("'", '"'):
                tly -= leading
                x, y = tlx, tly
            if stack and isinstance(stack[-1], str):
                frags.append({"page": page, "x": x, "y": PAGE_H - y,
                              "text": stack[-1]})
            stack.clear()
        elif op == "TJ":
            arr = None
            for s in reversed(stack):
                if isinstance(s, tuple) and s[0] == "[":
                    arr = s[1]
                    break
            if arr is not None:
                fx = x
                for el in arr:
                    if isinstance(el, str):
                        frags.append(
                            {"page": page, "x": fx, "y": PAGE_H - y, "text": el}
                        )
                    else:
                        fx -= float(el) / 1000.0 * fsize
            stack.clear()
        else:
            # non-text operator (graphics, color, ...) — consume operands
            stack.clear()
    return frags


def _push(stack: list, v) -> None:
    """Append v, routing into an open TJ array if one is on the stack."""
    if stack and isinstance(stack[-1], tuple) and stack[-1][0] == "[":
        stack[-1][1].append(v)
    else:
        stack.append(v)


def parse_pdf(payload: bytes) -> list[dict]:
    """PDF bytes -> positioned fragments (page, x, y-topdown, text), in
    page order. Real parse: object scan, catalog/page-tree walk,
    FlateDecode, content-stream interpretation."""
    if not payload.startswith(b"%PDF-"):
        raise ValueError("not a PDF payload")
    objs = _scan_objects(payload)
    frags: list[dict] = []
    for p, num in enumerate(_page_order(objs)):
        frags.extend(_interpret_content(_page_content(objs, num), p))
    return frags
