"""Stage registry + JSON-configured pipeline assembly — the engine's
user-extension surface.

Mirrors the reference's processor convention (SURVEY.md §2.10): each
OCR-D tool is a CLI entry point with a JSON-schema'd parameter block in
ocrd-tool.json, chained into workflows by naming file groups
(README.md:459-482). Here each registered Stage declares its name,
parameter defaults, required input features and produced feature tag;
``build_pipeline`` folds a JSON config list over a Dataset:

    config = [
        {"stage": "binarize", "params": {"method": "global"}},
        {"stage": "denoise",  "params": {"minsize": 2}},
        {"stage": "deskew"},
        {"stage": "dewarp"},
    ]
    out = build_pipeline(ds, config)

Third-party stages register with ``@register_stage`` — the analog of
adding an entry point + ocrd-tool.json block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Stage:
    name: str
    build: Callable  # (ds, **params) -> ds
    defaults: dict[str, Any] = field(default_factory=dict)
    allowed_params: frozenset = frozenset()  # full accepted set (≥ defaults)
    requires_features: str = ""  # comma-list that must be present on input
    produces_feature: str = ""  # lineage tag appended by the stage
    description: str = ""
    eager: bool = False  # build() internally CONSUMES its input


REGISTRY: dict[str, Stage] = {}


def register_stage(name: str, *, defaults=None, allowed=None, requires_features="", produces_feature="", description="", eager=False):
    """``allowed`` declares the full accepted parameter set when it is
    wider than ``defaults`` (stages whose optional params have no
    default value). Validation is unconditional — a stage with no
    declared params accepts none. ``eager=True`` marks a stage whose
    build function internally EXECUTES its input (driver-side
    reductions: quantile CDFs, mixture token sums, PQ codebook
    training); ``build_pipeline`` defers such stages behind a
    ``LazyPipeline`` so composing a config never runs data — execution
    happens when the caller consumes the result."""

    def deco(fn):
        d = dict(defaults or {})
        REGISTRY[name] = Stage(
            name=name,
            build=fn,
            defaults=d,
            allowed_params=frozenset(d) | frozenset(allowed or ()),
            requires_features=requires_features,
            produces_feature=produces_feature,
            description=description,
            eager=eager,
        )
        return fn

    return deco


# Dataset -> Dataset methods that stay deferred when called on a
# LazyPipeline; anything else forces the pending chain and delegates.
_TRANSFORM_METHODS = frozenset(
    {
        "map_batches", "map", "flat_map", "filter", "select_columns",
        "drop_columns", "rename_columns", "add_column", "limit",
        "repartition", "sort", "random_shuffle", "randomize_block_order",
        "union", "zip",
    }
)


class LazyPipeline:
    """A deferred Dataset: wraps a zero-arg thunk that produces the
    real ``ray.data.Dataset`` on first consumption.

    Ray Data plans are lazy, but a stage whose BUILD function performs
    a driver-side reduction (``grouped_ntile``'s CDF collect,
    ``mixture_sample``'s token aggregate, PQ codebook training)
    executes its input the moment the pipeline is COMPOSED — so a
    config like gate_chain -> quantile_tiers would run the gate chain
    at build time, before the user ever consumes. ``build_pipeline``
    wraps such stages in this proxy: transform methods
    (``map_batches`` etc.) stack further deferred calls, so downstream
    lazy stages compose without forcing; any other attribute access
    (take/to_pandas/write_parquet/schema/stats/...) forces the chain
    once, caches the realized Dataset, and delegates. The net effect
    is the plan-stage contract the rest of Ray Data has: composition
    is free, execution happens at consumption."""

    def __init__(self, thunk: Callable[[], Any]):
        self._thunk = thunk
        self._forced = None

    def force(self):
        """Realize the deferred chain into a concrete Dataset."""
        if self._forced is None:
            ds = self._thunk()
            self._forced = ds.force() if isinstance(ds, LazyPipeline) else ds
        return self._forced

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _TRANSFORM_METHODS:
            def deferred(*args, **kwargs):
                return LazyPipeline(lambda: getattr(self.force(), name)(*args, **kwargs))

            return deferred
        if name == "groupby":
            # groupby returns GroupedData, whose consumers (map_groups /
            # aggregate) return Datasets — defer through a grouped proxy
            # so shuffle-based stages compose without forcing the chain
            def deferred_groupby(*args, **kwargs):
                return _LazyGrouped(self, args, kwargs)

            return deferred_groupby
        return getattr(self.force(), name)

    def __repr__(self) -> str:
        state = "realized" if self._forced is not None else "deferred"
        return f"LazyPipeline<{state}>"


class _LazyGrouped:
    """Deferred ``GroupedData``: stacks the groupby plus its consuming
    call (map_groups/aggregate/...) into the LazyPipeline thunk chain."""

    def __init__(self, parent: "LazyPipeline", args, kwargs):
        self._parent = parent
        self._args = args
        self._kwargs = kwargs

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def deferred(*a, **k):
            return LazyPipeline(
                lambda: getattr(
                    self._parent.force().groupby(*self._args, **self._kwargs), name
                )(*a, **k)
            )

        return deferred


def build_pipeline(ds, config: list[dict]):
    """Fold a JSON stage-config list over a Dataset (lazy — nothing
    executes until the caller consumes, even for stages whose build
    performs driver-side reductions: those are deferred behind
    ``LazyPipeline``). Unknown stage or parameter → ValueError up
    front (the reference validates tool JSON before running),
    regardless of whether the stage declares defaults."""
    for step in config:
        name = step.get("stage")
        if name not in REGISTRY:
            raise ValueError(f"unknown stage '{name}'; known: {sorted(REGISTRY)}")
        stage = REGISTRY[name]
        params = dict(stage.defaults)
        extra = step.get("params", {})
        unknown = set(extra) - stage.allowed_params
        if unknown:
            raise ValueError(f"stage '{name}': unknown params {sorted(unknown)}")
        params.update(extra)
        if stage.eager:
            ds = LazyPipeline(
                lambda ds=ds, stage=stage, params=params: stage.build(
                    ds.force() if isinstance(ds, LazyPipeline) else ds, **params
                )
            )
        else:
            ds = stage.build(ds, **params)
    return ds


# ---------------------------------------------------------------------------
# built-in registrations


@register_stage(
    "binarize",
    defaults={"method": "global"},
    produces_feature="binarized",
    description="Otsu / nlbin binarization (ocropy/common.py:204-247 semantics)",
)
def _binarize(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "binarize", **p)


@register_stage(
    "denoise",
    defaults={"minsize": 4},
    produces_feature="despeckled",
    description="connected-component despeckle (common.py:1153-1169)",
)
def _denoise(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "denoise", **p)


@register_stage(
    "deskew",
    defaults={"maxskew": 5.0, "steps": 8},
    produces_feature="deskewed",
    description="projection-profile deskew (common.py:93-169)",
)
def _deskew(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "deskew", **p)


@register_stage(
    "dewarp",
    defaults={"target_h": 24},
    produces_feature="dewarped",
    description="centerline dewarp (lineest.py:60-87)",
)
def _dewarp(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "dewarp", **p)


@register_stage(
    "clip",
    defaults={"margin": 3},
    requires_features="binarized",
    produces_feature="clipped",
    description="remove sibling-line intruders not reaching the core box (clip.py:218-267)",
)
def _clip(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "clip", **p)


@register_stage(
    "borderclean",
    defaults={"margin": 4},
    produces_feature="cleaned",
    description="remove components confined to the margins (common.py:251-297)",
)
def _borderclean(ds, **p):
    from .stages.image_ops import media_op

    return media_op(ds, "borderclean", **p)


@register_stage(
    "segment",
    defaults={},
    allowed=("min_line_gap", "min_col_gap", "min_line_h", "order", "remove_separators"),
    description="recursive XY-cut page segmentation into line rows",
)
def _segment(ds, **p):
    from .stages.segment import segment_pages

    return segment_pages(ds, **p)


@register_stage(
    "resegment",
    defaults={"min_line_h": 4},
    produces_feature="resegmented",
    description="line box re-estimation against a fresh segmentation (resegment.py:57)",
)
def _resegment(ds, **p):
    from .stages.segment import resegment_rows

    return resegment_rows(ds, **p)


@register_stage(
    "recognize",
    defaults={"batch_size": 64},
    allowed=("model_path",),
    description="line recognition as tasks, model built once per worker (recognize.py semantics)",
)
def _recognize(ds, **p):
    from .stages.recognize import recognize_lines

    return recognize_lines(ds, **p)


@register_stage(
    "extract",
    defaults={},
    description="span extraction/normalization over interleaved docs",
)
def _extract(ds, **p):
    from .stages.extract import extract

    return extract(ds, **p)


@register_stage(
    "dedup_exact",
    defaults={"column": "text", "key": "doc_id"},
    description="exact dedup by content hash, min-key winner",
)
def _dedup_exact(ds, **p):
    from .stages.dedup import dedup_exact

    return dedup_exact(ds, **p)


@register_stage(
    "urlfilter",
    defaults={"blocked_domains": []},
    description="URL canonicalize + domain blocklist + canonical-URL dedup flags",
)
def _urlfilter(ds, **p):
    from .stages.urlfilter import filter_urls

    return filter_urls(ds, p["blocked_domains"])


@register_stage(
    "quality_score",
    defaults={"d": 256, "label_col": "lang", "label_value": "en",
              "ridge": 1.0, "threshold": 0.5},
    description="train + apply the closed-form linear quality classifier",
)
def _quality_score(ds, **p):
    from .stages.quality_clf import quality_pipeline

    return quality_pipeline(ds, **p)


@register_stage(
    "pagerank",
    defaults={"iters": 2, "strategy": "auto"},
    description="exact fixed-point PageRank over an edge dataset (src, dst, outdeg); nodes = distinct endpoints",
)
def _pagerank(ds, **p):
    """Stage form: input is the EDGE dataset; the node set is derived
    as the distinct endpoints (one bucketed exchange). Isolated nodes
    (no edges at all) aren't representable in this form — use
    ``stages.linkgraph.pagerank(edges, nodes)`` directly to rank them."""
    import pandas as pd

    from .shuffle import bucketed_groupby
    from .stages.linkgraph import pagerank

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([df["src"], df["dst"]]).unique()}
        )

    partial = ds.map_batches(endpoints, batch_format="pandas")
    nodes = bucketed_groupby(
        partial, "node", lambda df: df.drop_duplicates("node"), whole_bucket=True
    )
    return pagerank(ds, nodes, **p)


@register_stage(
    "extract_links",
    description="WAT-tier outlink/anchor extraction: (doc_id, url, html) -> one row per link in document order",
)
def _extract_links(ds, **p):
    from .stages.weblinks import extract_links

    return extract_links(ds, **p)


@register_stage(
    "robots_gate",
    defaults={"robots_map": {}, "agent": "ccbot", "url_column": "url"},
    description="RFC 9309 robots.txt gate: broadcast per-host rules, longest-match/allow-wins-ties, adds (domain, path, allowed, rule)",
)
def _robots_gate(ds, **p):
    from .stages.robots import apply_robots

    robots_map = p.pop("robots_map")
    return apply_robots(ds, robots_map, **p)


@register_stage(
    "quantile_tiers",
    defaults={"n_tiles": 3, "group": "lang", "score_col": "score", "id_col": "doc_id"},
    allowed=("snapshot",),
    description="exact per-group NTILE(k) quantile tiers (CCNet head/middle/tail) without a global sort; deferred to consumption (LazyPipeline) — the CDF/tie passes read one pinned tuple-weight snapshot",
    eager=True,
)
def _quantile_tiers(ds, **p):
    from .stages.sampling import grouped_ntile

    return grouped_ntile(ds, **p)


@register_stage(
    "interleaved_windows",
    defaults={"window_tokens": 32, "line_words": 8, "media_every": 3, "media_cost": 4},
    description="context-length sharding of interleaved text+media unit streams into fixed token windows (zero-shuffle)",
)
def _interleaved_windows(ds, **p):
    from .stages.multimodal import window_interleaved_docs

    return window_interleaved_docs(ds, **p)


@register_stage(
    "mixture_sample",
    defaults={"weights": None, "budget_fraction": 0.5},
    description="Pile/Dolma-style mixture balancing: per-source token budget -> deterministic hash-filter keep rates; deferred to consumption (LazyPipeline)",
    eager=True,
)
def _mixture_sample(ds, **p):
    from .stages.sampling import mixture_sample

    return mixture_sample(ds, **p)


@register_stage(
    "gate_chain",
    defaults={"blocked_domains": [], "robots_map": None, "agent": "ccbot"},
    description="fused crawl-compliance gate chain: robots -> URL blocklist/dedup -> Gopher -> repetition -> content dedup, audit-mode flags + first-failing drop_stage",
)
def _gate_chain(ds, **p):
    from .stages.curation import gate_chain

    return gate_chain(ds, **p)


@register_stage(
    "pq_encode",
    defaults={"m": 16, "ksub": 64, "sample_size": 2048, "seed": 42},
    allowed=("vec_col", "id_col"),
    description="product-quantization code table: (id, m uint8 codes) — 16x embedding compression, codebooks trained on a bounded randomized sample; deferred to consumption (LazyPipeline)",
    eager=True,
)
def _pq_encode(ds, **p):
    import pandas as pd

    from .stages.similarity import PQCodebooks, _as_matrix, pq_encode

    sample_size = p.pop("sample_size")
    seed = p.pop("seed")
    m, ksub = p.pop("m"), p.pop("ksub")
    vec_col = p.get("vec_col", "embedding")
    # randomized sample (seeded) so codebooks train across the keyspace
    # even on a sorted corpus — see similarity._train_sample
    rows = ds.randomize_block_order(seed=seed).take(sample_size)
    if not rows:
        raise ValueError("pq_encode: empty input — no rows to train codebooks on")
    sample = _as_matrix(pd.DataFrame(rows)[vec_col])
    books = PQCodebooks(sample, m=m, ksub=ksub, seed=seed)
    return pq_encode(ds, books, **p)


@register_stage(
    "quantile_sketch",
    defaults={"ps": (0.5, 0.9, 0.99), "group": "lang", "score_col": "score", "k": 200},
    description="per-group approximate percentiles via mergeable KLL partials — the unbounded-cardinality scale path beside the exact (LIMIT-bounded) grouped_percentiles; terminal reduction, deferred to consumption",
    eager=True,
)
def _quantile_sketch(ds, **p):
    import ray.data as rd

    from .stages.sketch import grouped_quantile_sketch

    return rd.from_pandas(grouped_quantile_sketch(ds, **p))


@register_stage(
    "externalize_media",
    defaults={"payload_col": "pixels", "ref_col": "media_ref"},
    allowed=("root", "payload_col", "ref_col"),
    produces_feature="externalized",
    description="write inline media payloads to a content-addressed sidecar store and carry only cas:// refs — exchanges downstream move O(refs), not O(pixels) (state/mediastore.py)",
)
def _externalize_media(ds, root, **p):
    from .state.mediastore import externalize_media

    return externalize_media(ds, root, **p)


@register_stage(
    "fetch_media",
    defaults={"ref_col": "media_ref", "payload_col": "pixels", "batch_size": 64},
    allowed=("root", "ref_col", "payload_col", "batch_size"),
    produces_feature="hydrated",
    description="lazy sidecar fetch: re-attach payloads from the content-addressed store inside the consuming stage, batch-deduplicated per distinct ref",
)
def _fetch_media(ds, root, **p):
    from .state.mediastore import fetch_media

    return fetch_media(ds, root, **p)


@register_stage(
    "grouped_percentiles",
    defaults={"ps": (0.5, 0.9, 0.99), "group": "lang", "score_col": "score"},
    description="exact per-group percentiles from one CDF exchange (no sort) — corpus profiling; terminal reduction, deferred to consumption (LazyPipeline), yielding the tiny per-group summary as a new Dataset",
    eager=True,
)
def _grouped_percentiles(ds, **p):
    """Profiling is a reduction: when CONSUMED (build_pipeline defers
    this stage) it executes its input and re-enters the pipeline as a
    from_pandas Dataset of one row per group — groups-count-sized, so
    the re-entry frame is tiny — keeping the (ds -> ds) contract."""
    import ray.data as rd

    from .stages.sampling import grouped_percentiles

    return rd.from_pandas(grouped_percentiles(ds, **p))
