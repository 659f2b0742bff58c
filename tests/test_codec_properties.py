"""Property-based tests (hypothesis) for the container codecs.

The PDF writer and parser, the URL canonicalizer and the href resolver
all process adversarial string content; fuzzing the round trips catches
escaping and framing bugs the example-based tests miss."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

# printable-ish unicode incl. specials the codecs must escape; excludes
# lone surrogates (not encodable)
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_TEXT, min_size=1, max_size=6))
def test_pdf_fragment_text_round_trips(texts):
    from ocrd_cis_ray.sources.pdf import encode_pdf, parse_pdf

    frags = [
        {"x": round(5.0 + 3.25 * i, 2), "y": round(10.0 + 7.5 * i, 2), "text": t}
        for i, t in enumerate(texts)
    ]
    out = parse_pdf(encode_pdf([frags]))
    assert [f["text"] for f in out] == texts
    # positions survive to the writer's 2-decimal precision
    for got, want in zip(out, frags):
        assert abs(got["x"] - want["x"]) < 0.005
        assert abs(got["y"] - want["y"]) < 0.005


_HOST = st.from_regex(r"[a-z][a-z0-9-]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True)
_PATHSEG = st.from_regex(r"[A-Za-z0-9._~-]{0,8}", fullmatch=True)


@settings(max_examples=80, deadline=None)
@given(
    scheme=st.sampled_from(["http", "https", "HTTP", "Https"]),
    www=st.booleans(),
    host=_HOST,
    port=st.sampled_from(["", ":80", ":443", ":8080"]),
    segs=st.lists(_PATHSEG, max_size=4),
    extra_slash=st.booleans(),
    params=st.lists(
        st.tuples(
            st.sampled_from(["id", "q", "utm_source", "utm_x", "page"]),
            st.from_regex(r"[A-Za-z0-9]{0,6}", fullmatch=True),
        ),
        max_size=4,
    ),
    frag=st.sampled_from(["", "#top", "#a-b"]),
)
def test_url_canonicalization_is_idempotent(
    scheme, www, host, port, segs, extra_slash, params, frag
):
    import pyarrow as pa

    from ocrd_cis_ray.stages.urlfilter import canonicalize_urls

    path = "/" + "/".join(segs)
    if extra_slash:
        path = path.replace("/", "//", 1)
    query = "&".join(f"{k}={v}" for k, v in params)
    url = f"{scheme}://{'www.' if www else ''}{host}{port}{path}"
    if query:
        url += f"?{query}"
    url += frag
    once = canonicalize_urls(pa.array([url])).to_pylist()[0]
    twice = canonicalize_urls(pa.array([once])).to_pylist()[0]
    assert twice == once
    # canonical form never carries fragments or tracking params
    assert "#" not in once and "utm_" not in once


# ---------------------------------------------------------------------------
# href resolution vs the stdlib RFC 3986 reference


_SEG = st.text(alphabet="abxy19._-", min_size=1, max_size=4)


@st.composite
def _bases(draw):
    host = draw(st.sampled_from(["h.com", "a.b.org", "x1.net"]))
    port = draw(st.sampled_from(["", ":8080"]))
    segs = draw(st.lists(_SEG, min_size=0, max_size=3))
    path = "/" + "/".join(segs) if segs else "/p"
    q = draw(st.sampled_from(["", "?id=7", "?a=1&b=2"]))
    return f"https://{host}{port}{path}{q}"


@st.composite
def _hrefs(draw):
    kind = draw(st.integers(0, 6))
    segs = draw(st.lists(st.sampled_from(["a", "b2", ".", ".."]),
                         min_size=0, max_size=4))
    rel = "/".join(segs)
    frag = draw(st.sampled_from(["", "#f", "#s-2"]))
    q = draw(st.sampled_from(["", "?x=1"]))
    if kind == 0:
        return f"http://other.net/{rel}{q}{frag}"
    if kind == 1:
        return f"//cdn.com/{rel}{q}{frag}"
    if kind == 2:
        return f"/{rel}{q}{frag}"
    if kind == 3:
        return f"{rel}{q}{frag}"
    if kind == 4:
        return f"?z=9{frag}"
    if kind == 5:
        return frag or "#x"
    return "mailto:a@b.c"


@settings(max_examples=300, deadline=None)
@given(base=_bases(), href=_hrefs())
def test_resolve_href_matches_stdlib_urljoin(base, href):
    """resolve_href == urllib.parse.urljoin with the fragment dropped
    (WAT targets are fragment-free) — the stdlib implements RFC 3986
    §5 exactly, so any divergence is a resolver bug."""
    from urllib.parse import urldefrag, urljoin

    from ocrd_cis_ray.stages.weblinks import resolve_href

    want = urldefrag(urljoin(base, href)).url
    assert resolve_href(base, href) == want


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 12)),  # (units, max cost)
        min_size=0,
        max_size=12,
    ),
    st.integers(2, 40),
)
def test_window_offsets_equals_sequential_scan(doc_shapes, window):
    """window_offsets (vectorized per-doc prefix sum with resets) ==
    the obvious sequential scan, for arbitrary doc/unit/cost shapes."""
    import numpy as np

    from ocrd_cis_ray.stages.multimodal import window_offsets

    doc_idx, costs = [], []
    for d, (units, maxc) in enumerate(doc_shapes):
        for u in range(units):
            doc_idx.append(d)
            costs.append((u * 7 + d) % maxc + 1)
    doc_idx = np.asarray(doc_idx, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.int64)
    got = window_offsets(doc_idx, costs, window).tolist()
    ref, off, prev = [], 0, None
    for d, c in zip(doc_idx, costs):
        if d != prev:
            off, prev = 0, d
        ref.append(off // window)
        off += c
    assert got == ref


@given(
    n_keys=st.integers(1, 20),
    hot_mass=st.integers(0, 3000),
    n_blocks=st.integers(1, 6),
    salts=st.integers(2, 32),
)
@settings(max_examples=15, deadline=None)
def test_salted_groupby_matches_brute(n_keys, hot_mass, n_blocks, salts):
    """salted_groupby(partial=count/sum, merge=sum) equals the brute
    groupby for ANY key distribution, block layout and salt count."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocrd_cis_ray.shuffle import salted_groupby

    rng = np.random.default_rng(n_keys * 1000 + hot_mass + salts)
    keys = [f"k{i}" for i in rng.integers(0, n_keys, 200)] + ["hot"] * hot_mass
    df = pd.DataFrame({"key": keys, "v": rng.integers(0, 100, len(keys))})

    def partial_fn(g):
        return pd.DataFrame({"key": [g["key"].iloc[0]], "n": [len(g)], "s": [int(g["v"].sum())]})

    def merge_fn(g):
        return pd.DataFrame({"key": [g["key"].iloc[0]], "n": [int(g["n"].sum())], "s": [int(g["s"].sum())]})

    got = (
        salted_groupby(rd.from_pandas(df).repartition(n_blocks), "key", partial_fn, merge_fn, salts=salts)
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("key", as_index=False)
        .agg(n=("v", "size"), s=("v", "sum"))
        .astype({"n": "int64", "s": "int64"})
        .sort_values("key")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["key", "n", "s"]], want)
