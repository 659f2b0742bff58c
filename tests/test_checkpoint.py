"""Resumable per-partition checkpoint manifests: a killed run must
resume without recomputing completed partitions (north_rule)."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocrd_cis_ray.state import manifest
from ocrd_cis_ray.state.manifest import (
    commit_partition,
    completed_partitions,
    partition_dir,
)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "stage_out")


def test_write_resumable_invalidates_on_changed_inputs_or_bounds(ray_session, out_dir):
    """A committed partition is reused ONLY when fingerprint AND key
    range match; changed inputs or re-derived bounds recompute instead
    of silently serving stale rows."""
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    def write(ids, fp):
        t = pa.table({"doc_id": ids, "text": ["x"] * len(ids)})
        return write_resumable(rd.from_arrow(t), out_dir, n_partitions=4, stage="x", input_fingerprint=fp)

    def ranges():
        return [(rec["lo"], rec["hi"]) for _, rec in sorted(completed_partitions(out_dir).items())]

    even = list(range(0, 80, 2))
    assert write(even, "fpA") == {"completed": 4, "skipped": 0, "rows": 40}
    assert ranges() == [(None, 20), (20, 40), (40, 60), (60, None)]

    # same fingerprint + same bounds -> all skipped
    assert write(even, "fpA") == {"completed": 0, "skipped": 4, "rows": 40}

    # changed fingerprint -> full recompute
    assert write(even, "fpB") == {"completed": 4, "skipped": 0, "rows": 40}

    # 40 -> 41 moves the bound between partitions 1 and 2: only the two
    # partitions next to it recompute
    moved = [41 if i == 40 else i for i in even]
    kept = {p: completed_partitions(out_dir)[p] for p in (0, 3)}
    assert write(moved, "fpB") == {"completed": 2, "skipped": 2, "rows": 40}
    assert ranges() == [(None, 20), (20, 41), (41, 60), (60, None)]
    assert {p: completed_partitions(out_dir)[p] for p in (0, 3)} == kept
    assert sorted(_part_doc_ids(out_dir)) == moved


def test_ingest_fingerprint_tracks_listing(tmp_path):
    from ocrd_cis_ray.state.manifest import path_fingerprint

    d = tmp_path / "in"
    d.mkdir()
    (d / "a.txt").write_text("one")
    fp1 = path_fingerprint(str(d))
    assert fp1 == path_fingerprint(str(d))  # stable
    (d / "b.txt").write_text("two")
    fp2 = path_fingerprint(str(d))
    assert fp2 != fp1  # new file changes it
    os.utime(d / "a.txt", ns=(1, 1))
    assert path_fingerprint(str(d)) != fp2  # touch changes it


def test_torn_manifest_ignored(out_dir):
    os.makedirs(os.path.join(out_dir, "_manifest"))
    with open(os.path.join(out_dir, "_manifest", "00000.json"), "w") as f:
        f.write('{"partition": 0, "status": "do')  # torn write
    assert completed_partitions(out_dir) == {}
    commit_partition(out_dir, 1, {"rows": 5})
    done = completed_partitions(out_dir)
    assert list(done) == [1] and done[1]["rows"] == 5


def test_write_resumable_generic_dataset(ray_session, sf_dir, tmp_path):
    """write_resumable: any Dataset checkpoints per key range; a killed
    run resumes recomputing only the missing partition."""
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    out = str(tmp_path / "sink")

    def make():
        return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    r1 = write_resumable(make(), out, n_partitions=4, stage="extract", input_fingerprint="fpX")
    assert r1["completed"] >= 3 and r1["rows"] == 500

    # simulate a kill: drop one committed partition + its manifest
    victim = sorted(os.listdir(os.path.join(out, "_manifest")))[1]
    pid = int(victim.split(".")[0])
    shutil.rmtree(partition_dir(out, pid))
    os.remove(os.path.join(out, "_manifest", victim))

    r2 = write_resumable(make(), out, n_partitions=4, stage="extract", input_fingerprint="fpX")
    assert r2["completed"] == 1 and r2["skipped"] == r1["completed"] - 1
    assert r2["rows"] == 500

    # disjoint union of partition outputs == input
    n = 0
    for name in os.listdir(out):
        if name.startswith("part="):
            for f in os.listdir(os.path.join(out, name)):
                if f.endswith(".parquet"):
                    n += pq.read_metadata(os.path.join(out, name, f)).num_rows
    assert n == 500


def test_write_resumable_tolerates_schemaless_empty_blocks(ray_session, tmp_path):
    """Ray's map_groups emits schema-less EMPTY pandas blocks for empty
    sort partitions; the sink must survive them (mixed with real
    blocks) and a dataset whose blocks are ALL empty must return a
    zero-row result instead of raising (seen live: webcorpus with
    default gopher thresholds drops every doc)."""
    import pandas as pd
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    base = rd.from_pandas(
        pd.DataFrame({"doc_id": range(40), "grp": [i % 4 for i in range(40)],
                      "text": ["x"] * 40})
    ).repartition(8)

    def keep_some(g: pd.DataFrame) -> pd.DataFrame:
        # two of four groups vanish -> empty output partitions
        return g[["doc_id", "text"]] if int(g["grp"].iloc[0]) < 2 else g.iloc[0:0][["doc_id", "text"]]

    mixed = base.groupby("grp").map_groups(keep_some, batch_format="pandas")
    out1 = str(tmp_path / "mixed")
    r = write_resumable(mixed, out1, n_partitions=4, stage="s", input_fingerprint="f")
    assert r["rows"] == 20

    def keep_none(g: pd.DataFrame) -> pd.DataFrame:
        return g.iloc[0:0][["doc_id", "text"]]

    empty = base.groupby("grp").map_groups(keep_none, batch_format="pandas")
    out2 = str(tmp_path / "empty")
    r = write_resumable(empty, out2, n_partitions=4, stage="s", input_fingerprint="f")
    assert r == {"completed": 0, "skipped": 0, "rows": 0}


def _part_doc_ids(out: str) -> list:
    ids: list = []
    for name in os.listdir(out):
        if name.startswith("part="):
            for f in os.listdir(os.path.join(out, name)):
                ids += pq.read_table(os.path.join(out, name, f), columns=["doc_id"])["doc_id"].to_pylist()
    return ids


def test_write_resumable_empty_rerun_unpublishes_stale_output(ray_session, tmp_path):
    """A rerun whose input is empty must not leave the partitions of an
    earlier run with other inputs published."""
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    out = str(tmp_path / "sink")
    t = pa.table({"doc_id": list(range(40)), "text": ["x"] * 40})
    r = write_resumable(rd.from_arrow(t), out, n_partitions=4, stage="s", input_fingerprint="A")
    assert r["completed"] == 4 and r["rows"] == 40
    os.makedirs(os.path.join(out, ".tmp-left-by-a-kill"))

    r = write_resumable(rd.from_arrow(t.slice(0, 0)), out, n_partitions=4, stage="s", input_fingerprint="B")
    assert r == {"completed": 0, "skipped": 0, "rows": 0}
    assert completed_partitions(out) == {}
    assert [n for n in os.listdir(out) if n != "_manifest"] == []
    assert os.listdir(os.path.join(out, "_manifest")) == []


def test_write_resumable_bounds_independent_of_block_order(ray_session, tmp_path, monkeypatch):
    """With more rows than SAMPLE_LIMIT the partition bounds must not
    depend on the order of the blocks: a rerun over the same rows in
    other blocks order skips every partition."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    ids = np.random.default_rng(3).permutation(500)
    blocks = [pa.table({"doc_id": ids[i : i + 50], "text": ["x"] * 50}) for i in range(0, 500, 50)]
    out = str(tmp_path / "sink")
    monkeypatch.setattr(manifest, "SAMPLE_LIMIT", 50)
    kw = dict(n_partitions=4, stage="s", input_fingerprint="f")
    r1 = write_resumable(rd.from_arrow(blocks), out, **kw)
    assert r1["completed"] == 4 and r1["rows"] == 500
    r2 = write_resumable(rd.from_arrow(blocks[::-1]), out, **kw)
    assert r2 == {"completed": 0, "skipped": 4, "rows": 500}
    assert sorted(_part_doc_ids(out)) == list(range(500))


def test_write_resumable_bounds_independent_of_block_split(ray_session, tmp_path, monkeypatch):
    """With more rows than SAMPLE_LIMIT the partition bounds must not
    depend on where the blocks split: the same rows in blocks of 50,
    167 and 63 rows commit the same (lo, hi) manifests."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    t = pa.table({"doc_id": np.random.default_rng(3).permutation(500), "text": ["x"] * 500})
    monkeypatch.setattr(manifest, "SAMPLE_LIMIT", 50)
    kw = dict(n_partitions=4, stage="s", input_fingerprint="f")
    ranges = []
    for size in (50, 167, 63):
        out = str(tmp_path / f"sink{size}")
        r = write_resumable(rd.from_arrow([t.slice(i, size) for i in range(0, 500, size)]), out, **kw)
        assert r["rows"] == 500
        assert sorted(_part_doc_ids(out)) == list(range(500))
        ranges.append([(rec["lo"], rec["hi"]) for _, rec in sorted(completed_partitions(out).items())])
    assert len(ranges[0]) > 1 and ranges[1] == ranges[0] and ranges[2] == ranges[0]


def test_write_resumable_keeps_rows_when_the_key_sample_is_empty(ray_session, tmp_path, monkeypatch):
    """Past SAMPLE_LIMIT the hash sample can keep no key at all; the
    rows then go to one unbounded partition instead of being dropped."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    ids = np.arange(100)
    # stride 2: keys whose hash is at or above 2**63 are left out
    ids = ids[pd.util.hash_array(ids, categorize=False) >= np.uint64(2**63)][:2]
    out = str(tmp_path / "sink")
    monkeypatch.setattr(manifest, "SAMPLE_LIMIT", 1)
    r = write_resumable(rd.from_arrow(pa.table({"doc_id": ids, "text": ["x"] * 2})), out,
                        n_partitions=4, stage="s", input_fingerprint="f")
    assert r == {"completed": 1, "skipped": 0, "rows": 2}
    assert sorted(_part_doc_ids(out)) == sorted(ids.tolist())
    assert [(rec["lo"], rec["hi"]) for rec in completed_partitions(out).values()] == [(None, None)]


def test_write_resumable_executions(ray_session, tmp_path, executed_plans):
    """A first write runs the upstream once plus the write pass; a
    resume over a fully committed dir runs the upstream alone. The
    key sample reads the materialized blocks on the driver, so no
    execution probes a schema (LimitOperator)."""
    import pyarrow as pa
    import ray.data as rd

    from ocrd_cis_ray.state.manifest import write_resumable

    t = pa.table({"doc_id": list(range(40)), "text": ["x"] * 40})
    out = str(tmp_path / "sink")

    def upstream():
        return rd.from_arrow([t.slice(i, 10) for i in range(0, 40, 10)]).map_batches(
            lambda b: b, batch_format="pyarrow"
        )

    r = write_resumable(upstream(), out, n_partitions=4, stage="s", input_fingerprint="f")
    assert r == {"completed": 4, "skipped": 0, "rows": 40}
    assert 0 < len(executed_plans) <= 2, executed_plans
    assert not [p for p in executed_plans if "LimitOperator" in p], executed_plans
    del executed_plans[:]
    r = write_resumable(upstream(), out, n_partitions=4, stage="s", input_fingerprint="f")
    assert r == {"completed": 0, "skipped": 4, "rows": 40}
    assert len(executed_plans) == 1, executed_plans
    assert "LimitOperator" not in executed_plans[0], executed_plans


def test_write_resumable_kill_at_every_partition_boundary(ray_session, tmp_path, monkeypatch):
    """A kill after k of n commits: the rerun writes exactly the n - k
    missing partitions, skips the k committed ones, and publishes every
    input row once with no .tmp-* dir left."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({"doc_id": list(range(40)), "text": ["x"] * 40})
    blocks = [t.slice(i, 10) for i in range(0, 40, 10)]
    n = 4
    real_commit = manifest.commit_partition
    for k in range(n):
        out = str(tmp_path / f"sink{k}")
        commits = []

        def dying_commit(out_dir, partition, rec, k=k, commits=commits):
            if len(commits) == k:
                raise RuntimeError("killed")
            commits.append(partition)
            real_commit(out_dir, partition, rec)

        monkeypatch.setattr(manifest, "commit_partition", dying_commit)
        with pytest.raises(RuntimeError, match="killed"):
            manifest.write_resumable(rd.from_arrow(blocks), out, n_partitions=n, stage="s", input_fingerprint="f")
        monkeypatch.setattr(manifest, "commit_partition", real_commit)

        r = manifest.write_resumable(rd.from_arrow(blocks), out, n_partitions=n, stage="s", input_fingerprint="f")
        assert r == {"completed": n - k, "skipped": k, "rows": 40}
        assert sorted(_part_doc_ids(out)) == list(range(40))
        assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]


def test_parquet_part_writer_is_retry_safe(tmp_path):
    """The parquet part writer names a file by its content: writing the
    same batch twice, as a task retry does, leaves the same file set,
    and two distinct batches with identical non-unique key sequences
    leave two files."""
    d = str(tmp_path)
    a = pa.table({"doc_id": ["d1", "d1", "d2"], "text": ["a", "b", "c"]})
    manifest.PARQUET.write(a, d)
    first = sorted(os.listdir(d))
    manifest.PARQUET.write(a, d)
    assert sorted(os.listdir(d)) == first and len(first) == 1
    b = pa.table({"doc_id": ["d1", "d1", "d2"], "text": ["x", "y", "z"]})
    manifest.PARQUET.write(b, d)
    assert len(os.listdir(d)) == 2
    assert manifest.PARQUET.count_rows(d) == 6
    rows = pa.concat_tables(pq.read_table(os.path.join(d, f)) for f in sorted(os.listdir(d)))
    assert sorted(rows["text"].to_pylist()) == ["a", "b", "c", "x", "y", "z"]
