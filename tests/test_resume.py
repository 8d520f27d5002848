"""Checkpoint/resume: the idempotence contract (SURVEY.md §3.3).

Kill-and-rerun semantics: a completed stage is restored from its
manifest (not recomputed); manifests are byte-identical across reruns;
a stale fingerprint forces recompute."""

from __future__ import annotations

import json

import pytest


@pytest.mark.usefixtures("ray_session")
def test_stage_checkpoint_restore_and_manifest(tmp_path, tiny_corpus):
    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    ckpt = tmp_path / "ckpt"
    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    res1 = run_linkage(str(tiny_corpus / "files"), cfg)
    n1 = res1.clusters.count()
    assert not res1.stats["features"]["restored"]
    manifests1 = {
        p.parent.name: p.read_bytes() for p in ckpt.glob("*/manifest.json")
    }
    assert set(manifests1) == {"features", "scored", "components", "clusters"}
    for name, raw in manifests1.items():
        m = json.loads(raw)
        assert m["row_count"] == sum(part["rows"] for part in m["partitions"])
        assert all(part["done"] for part in m["partitions"])

    # second run: every stage restored, manifests untouched (byte-identical)
    res2 = run_linkage(str(tiny_corpus / "files"), cfg)
    assert res2.clusters.count() == n1
    for name in manifests1:
        assert res2.stats[name]["restored"], name
    manifests2 = {p.parent.name: p.read_bytes() for p in ckpt.glob("*/manifest.json")}
    assert manifests1 == manifests2


@pytest.mark.usefixtures("ray_session")
def test_torn_stage_is_recomputed(tmp_path, tiny_corpus):
    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    ckpt = tmp_path / "ckpt"
    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    first = run_linkage(str(tiny_corpus / "files"), cfg)
    # simulate a crash mid-stage: manifest missing, partial temp data present
    import shutil

    stage = ckpt / "scored"
    (stage / "manifest.json").unlink()
    shutil.move(str(stage / "data"), str(stage / ".tmp-data"))
    res = run_linkage(str(tiny_corpus / "files"), cfg)
    assert not res.stats["scored"]["restored"]       # recomputed
    assert res.stats["features"]["restored"]         # earlier stages untouched
    assert (stage / "manifest.json").exists()
    # the band counts come from the rebuilt scored stage, kept in its manifest
    assert res.stats["blocking_bands"] == first.stats["blocking_bands"]
    counts = json.loads((stage / "manifest.json").read_text())["counts"]
    assert counts == first.stats["blocking_bands"]


@pytest.mark.usefixtures("ray_session")
def test_partitioned_stage_resumes_at_first_missing_partition(tmp_path, tiny_corpus):
    """Kill-mid-stage: completed feature partitions survive a torn run
    untouched (byte-identical mtimes); only the missing remainder is
    recomputed (SURVEY.md §3.3; reference per-shard idempotence,
    all_langs_no_slurm.sh:47-110)."""
    import json as _json
    import shutil

    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    ckpt = tmp_path / "ckpt"
    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    res1 = run_linkage(str(tiny_corpus / "files"), cfg)
    n1 = res1.clusters.count()
    feat = ckpt / "features"
    parts = sorted(p for p in (feat / "data").iterdir() if p.name.startswith("part-"))
    assert len(parts) >= 2, "tiny corpus should shard into multiple partitions"
    assert res1.stats["features"]["partitions_built"] == len(parts)

    # simulate a crash mid-featurize: manifest not yet written, the last
    # partition's rename+journal commit never happened
    (feat / "manifest.json").unlink()
    journal = feat / "journal.jsonl"
    lines = journal.read_text().splitlines()
    last = _json.loads(lines[-1])
    shutil.rmtree(feat / "data" / last["part"])
    journal.write_text("\n".join(lines[:-1]) + "\n")
    kept_mtimes = {
        str(f): f.stat().st_mtime_ns
        for p in parts[:-1]
        for f in p.rglob("*.parquet")
    }

    # downstream stages must also rebuild (their input stage was torn) —
    # drop them so the comparison below is a full fresh derivation
    for name in ("scored", "components", "clusters"):
        shutil.rmtree(ckpt / name, ignore_errors=True)

    res2 = run_linkage(str(tiny_corpus / "files"), cfg)
    assert not res2.stats["features"]["restored"]
    assert res2.stats["features"]["partitions_restored"] == len(parts) - 1
    assert res2.stats["features"]["partitions_built"] == 1
    assert res2.stats["features"]["rows"] == res1.stats["features"]["rows"]
    assert res2.clusters.count() == n1
    # completed partitions were NOT rewritten
    for path, mtime in kept_mtimes.items():
        import pathlib

        assert pathlib.Path(path).stat().st_mtime_ns == mtime, path


@pytest.mark.usefixtures("ray_session")
def test_empty_stage_keeps_its_schema(tmp_path):
    """A zero-row stage commits one schema-only file, so it restores with
    its columns: committed directly (start_commit, as
    save_result_checkpoint does) and built then restored through
    StageCheckpointer.through."""
    import pyarrow as pa
    import ray
    import ray.data

    from mel_ray.state.manifest import StageCheckpointer, stage_blocks, start_commit

    cols = {"id_a": pa.int64(), "id_b": pa.int64(), "score": pa.float64(), "accepted": pa.bool_()}
    empty = pa.schema(cols).empty_table()
    scored = ray.data.from_arrow_refs([ray.put(empty), ray.put(empty)])

    manifest = start_commit(tmp_path / "direct" / "scored", scored)("fp")
    assert manifest["row_count"] == 0
    assert [p["rows"] for p in manifest["partitions"]] == [0]
    back = ray.data.from_arrow_refs(stage_blocks(tmp_path / "direct" / "scored" / "data"))
    assert back.count() == 0
    assert back.schema().names == list(cols)

    ckpt = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    built = ckpt.through("scored", lambda: scored)
    restored = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    again = restored.through("scored", lambda: pytest.fail("a committed stage is rebuilt"))
    assert not ckpt.stats["scored"]["restored"] and restored.stats["scored"]["restored"]
    for ds in (built, again):
        assert ds.count() == 0
        assert [(f.name, f.type) for f in pa.schema(ds.schema().base_schema)] == list(cols.items())


@pytest.mark.usefixtures("ray_session")
def test_stage_wall_covers_the_builder(tmp_path):
    """A checkpointed stage's wall_sec times the builder call and the
    write, in its manifest and in the run stats."""
    import time

    import pyarrow as pa
    import ray.data

    from mel_ray.state.manifest import StageCheckpointer

    def slow_builder():
        time.sleep(0.5)
        return ray.data.from_arrow(pa.table({"x": [1, 2, 3]}))

    ckpt = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    assert ckpt.through("slow", slow_builder).count() == 3
    manifest = json.loads((tmp_path / "ck" / "slow" / "manifest.json").read_text())
    assert manifest["wall_sec"] >= 0.5
    assert ckpt.stats["slow"]["wall_sec"] == manifest["wall_sec"]


@pytest.mark.usefixtures("ray_session")
def test_validate_output_tree_equality(tmp_path):
    """tools/validate_output.py: two trees with the same rows in a
    different row order AND different partitioning compare equal; a
    single mutated value (or dtype) is caught.  (Reference analogue:
    validate_tokens.py's sorted-multiset dir comparison.)"""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mel_ray.state import validate as V

    rng = np.random.RandomState(5)
    n = 1000
    ids = np.arange(n, dtype=np.int64)
    vals = rng.randn(n)
    names = pa.array([f"row-{i}" for i in range(n)])
    blobs = pa.array([bytes([i % 251]) * (i % 7 + 1) for i in range(n)], pa.binary())
    tbl = pa.table({"id": pa.array(ids), "val": pa.array(vals), "name": names, "blob": blobs})

    a = tmp_path / "tree_a"
    b = tmp_path / "tree_b"
    a.mkdir(); b.mkdir()
    # tree A: two partitions split at 400
    pq.write_table(tbl.slice(0, 400), a / "part-0.parquet")
    pq.write_table(tbl.slice(400), a / "part-1.parquet")
    # tree B: same rows shuffled, three different partitions
    perm = rng.permutation(n)
    shuf = tbl.take(pa.array(perm))
    pq.write_table(shuf.slice(0, 123), b / "p0.parquet")
    pq.write_table(shuf.slice(123, 500), b / "p1.parquet")
    pq.write_table(shuf.slice(623), b / "p2.parquet")

    rep = V.validate_trees(str(a), str(b))
    assert rep["multiset_match"] and rep["schema_match"]

    # one mutated float value in one partition -> caught
    c = tmp_path / "tree_c"
    c.mkdir()
    vals2 = vals.copy(); vals2[777] += 1e-9
    tbl2 = pa.table({"id": pa.array(ids), "val": pa.array(vals2), "name": names, "blob": blobs})
    pq.write_table(tbl2, c / "all.parquet")
    rep2 = V.validate_trees(str(a), str(c))
    assert rep2["count_match"] and not rep2["multiset_match"]

    # same values, different dtype -> schema mismatch (driver semantics)
    d = tmp_path / "tree_d"
    d.mkdir()
    tbl3 = pa.table(
        {"id": pa.array(ids.astype(np.int32)), "val": pa.array(vals), "name": names, "blob": blobs}
    )
    pq.write_table(tbl3, d / "all.parquet")
    rep3 = V.validate_trees(str(a), str(d))
    assert not rep3["schema_match"] and not rep3["multiset_match"]

    # swapped values across columns of the same type -> caught (name salt)
    e = tmp_path / "tree_e"
    e.mkdir()
    tbl4 = pa.table({"id": pa.array(ids), "val": pa.array(vals), "name": blobs.cast(pa.string()) if False else names, "blob": blobs})
    # swap two STRING-hashable columns: rename name<->blob values
    tbl4 = pa.table({"id": pa.array(ids), "val": pa.array(vals),
                     "name": pa.array([b.as_py().decode("latin1") for b in blobs]),
                     "blob": pa.array([s.as_py().encode() for s in names], pa.binary())})
    pq.write_table(tbl4, e / "all.parquet")
    rep4 = V.validate_trees(str(a), str(e))
    assert rep4["schema_match"] and not rep4["multiset_match"]
