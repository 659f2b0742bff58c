"""Content-addressed media sidecar (state/mediastore.py): store
semantics and exchange weight."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ocrd_cis_ray.state.mediastore import (
    MediaStore,
    content_ref,
    externalize_media,
    fetch_media,
)


def test_store_roundtrip_and_idempotent_put(tmp_path):
    store = MediaStore(str(tmp_path / "cas"))
    payload = b"\x00\x01" * 500
    ref = store.put(payload)
    assert ref == content_ref(payload)
    assert ref.startswith("cas://") and ref.endswith("/1000")
    assert store.get(ref) == payload
    # second put of identical content: same ref, still one blob
    assert store.put(payload) == ref
    assert store.n_blobs() == 1
    # distinct content gets a distinct blob
    ref2 = store.put(b"other")
    assert ref2 != ref
    assert store.n_blobs() == 2


def test_content_dedup_across_rows(tmp_path):
    """1000 rows referencing 3 distinct payloads store exactly 3 blobs."""
    import ray.data as rd

    root = str(tmp_path / "cas")
    payloads = [bytes([i % 3]) * 2048 for i in range(1000)]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([f"d{i}" for i in range(1000)]),
                "pixels": pa.array(payloads, pa.large_binary()),
            }
        )
    )
    ext = externalize_media(ds, root).materialize()
    assert MediaStore(root).n_blobs() == 3
    # round-trip: fetch re-attaches byte-identical payloads
    back = fetch_media(ext, root).to_pandas().sort_values("doc_id", key=lambda s: s.str[1:].astype(int))
    assert list(back["pixels"]) == payloads


def test_exchange_moves_refs_not_pixels(tmp_path):
    """THE scale property: a shuffle over externalized media rows moves
    O(refs) bytes, not O(pixels). Compare realized block bytes of the
    same repartition(shuffle) exchange inline vs sidecar."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 200
    payloads = [rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes() for _ in range(n)]
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(n)]),
            "pixels": pa.array(payloads, pa.large_binary()),
        }
    )

    def exchanged_bytes(ds) -> int:
        out = ds.repartition(8, shuffle=True).materialize()
        return sum(
            b["b"]
            for b in out.map_batches(
                lambda tt: pa.table({"b": pa.array([tt.nbytes], pa.int64())}),
                batch_size=None,
                batch_format="pyarrow",
            ).take_all()
        )

    inline_bytes = exchanged_bytes(rd.from_arrow(t))
    side = externalize_media(rd.from_arrow(t), str(tmp_path / "cas")).materialize()
    sidecar_bytes = exchanged_bytes(side)
    assert inline_bytes > n * 50_000  # inline really moves the pixels
    assert sidecar_bytes < inline_bytes / 100  # refs are ~50 bytes/row


def test_fetch_dedups_within_batch(tmp_path, monkeypatch):
    """Distinct refs fetch once per batch even when many rows share one."""
    store = MediaStore(str(tmp_path / "cas"))
    ref = store.put(b"shared-payload")
    reads = []
    orig = MediaStore.get

    def counting_get(self, r):
        reads.append(r)
        return orig(self, r)

    monkeypatch.setattr(MediaStore, "get", counting_get)
    blobs = store.get_many([ref] * 50)
    assert blobs[ref] == b"shared-payload"
    assert len(reads) == 1


def test_truncated_blob_raises(tmp_path):
    store = MediaStore(str(tmp_path / "cas"))
    ref = store.put(b"x" * 100)
    h = ref[len("cas://") :].split("/")[0]
    with open(store._path(h), "wb") as f:
        f.write(b"x" * 40)
    with pytest.raises(IOError, match="truncated"):
        store.get(ref)


def test_registry_stages_compose(tmp_path, ray_session):
    import ray.data as rd

    from ocrd_cis_ray.registry import build_pipeline

    root = str(tmp_path / "cas")
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["a", "b"]),
                "pixels": pa.array([b"p1", b"p2"], pa.large_binary()),
            }
        )
    )
    out = build_pipeline(
        ds,
        [
            {"stage": "externalize_media", "params": {"root": root}},
            {"stage": "fetch_media", "params": {"root": root}},
        ],
    )
    df = out.to_pandas().sort_values("doc_id")
    assert list(df["pixels"]) == [b"p1", b"p2"]
    assert all(r.startswith("cas://") for r in df["media_ref"])


def test_sweep_reclaims_orphans(tmp_path, ray_session):
    """Mark-and-sweep GC: blobs whose refs no longer appear in the
    dataset are reclaimed; live ones survive byte-identical."""
    import ray.data as rd

    from ocrd_cis_ray.state.mediastore import live_refs_of

    root = str(tmp_path / "cas")
    store = MediaStore(root)
    live_payloads = [bytes([i]) * 100 for i in range(5)]
    refs = [store.put(p) for p in live_payloads]
    orphans = [store.put(bytes([100 + i]) * 200) for i in range(3)]
    assert store.n_blobs() == 8

    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([str(i) for i in range(5)]), "media_ref": pa.array(refs)})
    ).repartition(2)
    live = live_refs_of(ds)
    assert live == set(refs)

    dry = store.sweep(live, dry_run=True)
    assert dry == {"kept": 5, "deleted": 3, "bytes_freed": 600}
    assert store.n_blobs() == 8  # dry run deletes nothing
    stats = store.sweep(live)
    assert stats["deleted"] == 3 and store.n_blobs() == 5
    for r, p in zip(refs, live_payloads):
        assert store.get(r) == p
    for r in orphans:
        with pytest.raises(FileNotFoundError):
            store.get(r)


def test_live_refs_ceiling(tmp_path, ray_session):
    import ray.data as rd

    from ocrd_cis_ray.state.mediastore import content_ref, live_refs_of

    refs = [content_ref(bytes([i % 251]) * (1 + i % 7)) for i in range(40)]
    ds = rd.from_arrow(pa.table({"media_ref": pa.array(refs)}))
    with pytest.raises(ValueError, match="distinct refs"):
        live_refs_of(ds, ceiling=10)
