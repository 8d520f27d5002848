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


def _assert_resumes_at_first_missing_part(corpus, ckpt) -> None:
    """Kill-mid-stage: completed feature parts survive a torn run
    untouched (byte-identical mtimes); only the missing remainder is
    recomputed (SURVEY.md §3.3; reference per-shard idempotence,
    all_langs_no_slurm.sh:47-110)."""
    import json as _json
    import pathlib
    import shutil

    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage
    from mel_ray.util import shuffle_partitions

    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    res1 = run_linkage(corpus, cfg)
    n1 = res1.clusters.count()
    feat = ckpt / "features"
    parts = sorted(p for p in (feat / "data").iterdir() if p.name.startswith("part-"))
    # one part per input share
    assert len(parts) == shuffle_partitions()
    assert res1.stats["features"]["partitions_built"] == len(parts)

    # simulate a crash mid-featurize: manifest not yet written, the last
    # part's rename+journal commit never happened
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

    res2 = run_linkage(corpus, cfg)
    assert not res2.stats["features"]["restored"]
    assert res2.stats["features"]["partitions_restored"] == len(parts) - 1
    assert res2.stats["features"]["partitions_built"] == 1
    assert res2.stats["features"]["rows"] == res1.stats["features"]["rows"]
    assert res2.clusters.count() == n1
    # completed parts were NOT rewritten
    for path, mtime in kept_mtimes.items():
        assert pathlib.Path(path).stat().st_mtime_ns == mtime, path


@pytest.mark.usefixtures("ray_session")
def test_partitioned_stage_resumes_at_first_missing_partition(tmp_path, tiny_corpus):
    """A several-file input resumes at its first missing features part."""
    _assert_resumes_at_first_missing_part(str(tiny_corpus / "files"), tmp_path / "ckpt")


@pytest.mark.usefixtures("ray_session")
def test_one_file_input_resumes_at_first_missing_part(tmp_path, tiny_corpus):
    """A one-file input is split into row-range shares, and its features
    stage resumes at its first missing share like a several-file one."""
    import pyarrow.parquet as pq

    one = tmp_path / "one.parquet"
    pq.write_table(pq.read_table(tiny_corpus / "files"), one)
    _assert_resumes_at_first_missing_part(str(one), tmp_path / "ckpt")


def _cluster_table(res):
    cols = ["record_id", "cluster_id"]
    return res.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)


def _assert_features_built_afresh(res, ckpt, want) -> None:
    """``res`` rebuilt every features part of the current share plan from
    its own input, and links to the clusters of ``want`` (a run of the
    same input): no part of another plan or input was reused."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from mel_ray.pipelines.linkage import shuffle_partitions

    p = shuffle_partitions()
    data = ckpt / "features" / "data"
    assert res.stats["features"]["partitions_built"] == p
    assert res.stats["features"]["partitions_restored"] == 0
    assert sorted(d.name for d in data.iterdir()) == [f"part-{i:05d}" for i in range(p)]
    ids = pq.read_table(data, columns=["record_id"]).column("record_id")
    assert len(ids) == want.stats["features"]["rows"] == res.stats["features"]["rows"]
    assert pc.count_distinct(ids).as_py() == len(ids)
    assert len(_cluster_table(want)) > 0 and _cluster_table(res).equals(_cluster_table(want))


def _tear_features_after(monkeypatch, k: int) -> None:
    """Make the features stage of the next run commit its parts 0..k-1
    and then fail, the writes of its other parts done but uncommitted."""
    import mel_ray.state.manifest as M

    write = M._write_blocks

    def torn_after_k(out_dir, blocks):
        wait = write(out_dir, blocks)
        if out_dir.parent.parent.name != "features" or int(out_dir.name[-5:]) < k:
            return wait
        wait()

        def tear():
            raise RuntimeError("torn")

        return tear

    monkeypatch.setattr(M, "_write_blocks", torn_after_k)


@pytest.mark.usefixtures("ray_session")
def test_resume_under_another_share_plan_rebuilds_parts(tmp_path, tiny_corpus, monkeypatch):
    """A features stage torn under one shuffle_partitions() and resumed
    under another keeps none of its parts, since their shares differ: it
    rebuilds every part of the new plan, leaves no part of the old one,
    and links to the same clusters.  Torn again and resumed under the
    first plan, it reuses none of the first plan's records either: their
    part dirs now hold the other plan's shares."""
    import shutil

    import mel_ray.pipelines.linkage as L
    from mel_ray.config import LinkageConfig

    ckpt = tmp_path / "ckpt"
    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    corpus = str(tiny_corpus / "files")

    def tear_manifests():
        (ckpt / "features" / "manifest.json").unlink()
        for name in ("scored", "components", "clusters"):
            shutil.rmtree(ckpt / name)

    first = L.run_linkage(corpus, cfg)
    tear_manifests()
    with monkeypatch.context() as m:
        p = L.shuffle_partitions() // 2
        m.setattr(L, "shuffle_partitions", lambda: p)
        _assert_features_built_afresh(L.run_linkage(corpus, cfg), ckpt, first)
    tear_manifests()
    _assert_features_built_afresh(L.run_linkage(corpus, cfg), ckpt, first)


@pytest.mark.usefixtures("ray_session")
def test_torn_switches_of_plan_and_input_reuse_no_stale_part(tmp_path, tiny_corpus, monkeypatch):
    """Runs torn mid-features into one checkpoint dir, under P then P/2
    shares (the same input), or over input F then G, leave no journal
    record that a later run of the first plan or input could take for a
    part dir the other one rewrote."""
    import pyarrow.parquet as pq

    import mel_ray.pipelines.linkage as L
    from mel_ray.config import LinkageConfig

    f = str(tiny_corpus / "files")
    g = tmp_path / "g.parquet"
    pq.write_table(pq.read_table(f).slice(0, 500), g)
    want = L.run_linkage(f, LinkageConfig())
    for switch in ("plan", "input"):
        ckpt = tmp_path / switch
        cfg = LinkageConfig(checkpoint_dir=str(ckpt))
        with monkeypatch.context() as m:
            _tear_features_after(m, 3)
            with pytest.raises(RuntimeError, match="torn"):
                L.run_linkage(f, cfg)
        with monkeypatch.context() as m:
            if switch == "plan":
                p = L.shuffle_partitions() // 2
                m.setattr(L, "shuffle_partitions", lambda: p)
            _tear_features_after(m, 2)
            with pytest.raises(RuntimeError, match="torn"):
                L.run_linkage(f if switch == "plan" else str(g), cfg)
        journal = (ckpt / "features" / "journal.jsonl").read_text().splitlines()
        assert [json.loads(line)["pid"] for line in journal] == [0, 1]
        _assert_features_built_afresh(L.run_linkage(f, cfg), ckpt, want)


@pytest.mark.usefixtures("ray_session")
def test_scored_part_without_manifest_reports_its_band_counts(tmp_path, tiny_corpus):
    """A scored stage torn after its part was journaled but before its
    manifest was written is restored from the journal, and reports the
    band counts its journal recorded: the first run's."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    # a run of 100 exact copies salts every band
    t = pq.read_table(tiny_corpus / "files")
    copies = t.slice(0, 100).take(pa.array([0] * 100))
    copies = copies.set_column(
        copies.schema.get_field_index("path"),
        "path",
        pa.array([f"vendor{i:03d}/copied.py" for i in range(100)]),
    )
    corpus = tmp_path / "planted.parquet"
    pq.write_table(pa.concat_tables([t, copies]), corpus)
    ckpt = tmp_path / "ckpt"
    cfg = LinkageConfig(checkpoint_dir=str(ckpt))
    first = run_linkage(str(corpus), cfg)
    assert first.stats["blocking_bands"]["salted_bands"] >= cfg.blocking.num_bands

    (ckpt / "scored" / "manifest.json").unlink()
    res = run_linkage(str(corpus), cfg)
    assert res.stats["scored"]["restored"]
    assert res.stats["scored"]["partitions_restored"] == 1
    assert res.stats["blocking_bands"] == first.stats["blocking_bands"]
    manifest = json.loads((ckpt / "scored" / "manifest.json").read_text())
    assert manifest["counts"] == first.stats["blocking_bands"]
    assert res.scored_pairs.count() == first.scored_pairs.count()


@pytest.mark.usefixtures("ray_session")
def test_fresh_checkpointed_build_reads_no_stage_back(tmp_path, tiny_corpus, monkeypatch):
    """A fresh checkpointed build returns the blocks it built: it reads
    none of the stages it commits back from disk.  A rerun restores
    them, equal."""
    import mel_ray.state.manifest as M
    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    def refuse(data_dir):
        raise AssertionError(f"{data_dir} read back during a fresh build")

    cfg = LinkageConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    monkeypatch.setattr(M, "stage_blocks", refuse)
    built = run_linkage(str(tiny_corpus / "files"), cfg)
    monkeypatch.undo()
    restored = run_linkage(str(tiny_corpus / "files"), cfg)
    stages = ("features", "scored", "components", "clusters")
    assert not any(built.stats[s]["restored"] for s in stages)
    assert all(restored.stats[s]["restored"] for s in stages)
    cols = ["record_id", "cluster_id"]
    want = built.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    got = restored.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    assert len(want) > 0 and got.equals(want)


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
    scored = [ray.put(empty), ray.put(empty)]

    manifest = start_commit(tmp_path / "direct" / "scored", scored)("fp")
    assert manifest["row_count"] == 0
    assert [p["rows"] for p in manifest["partitions"]] == [0]
    back = ray.data.from_arrow_refs(stage_blocks(tmp_path / "direct" / "scored" / "data"))
    assert back.count() == 0
    assert back.schema().names == list(cols)

    ckpt = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    built = ckpt.through("scored", lambda _: scored)
    restored = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    again = restored.through("scored", lambda _: pytest.fail("a committed stage is rebuilt"))
    assert not ckpt.stats["scored"]["restored"] and restored.stats["scored"]["restored"]
    for refs in (built, again):
        tables = ray.get(refs)
        assert tables and not any(t.num_rows for t in tables)
        assert all([(f.name, f.type) for f in t.schema] == list(cols.items()) for t in tables)


@pytest.mark.usefixtures("ray_session")
def test_stage_wall_covers_the_builder(tmp_path):
    """A checkpointed stage's wall_sec times the builder call and the
    write, in its manifest and in the run stats."""
    import time

    import pyarrow as pa
    import ray

    from mel_ray.state.manifest import StageCheckpointer

    def slow_builder(_part):
        time.sleep(0.5)
        return [ray.put(pa.table({"x": [1, 2, 3]}))]

    ckpt = StageCheckpointer(str(tmp_path / "ck"), fingerprint_inputs=["no-input"])
    assert sum(t.num_rows for t in ray.get(ckpt.through("slow", slow_builder))) == 3
    manifest = json.loads((tmp_path / "ck" / "slow" / "manifest.json").read_text())
    assert manifest["wall_sec"] >= 0.5
    assert ckpt.stats["slow"]["wall_sec"] == manifest["wall_sec"]


@pytest.mark.usefixtures("ray_session")
def test_input_rewritten_in_place_at_same_size_rebuilds(tmp_path, tiny_corpus):
    """An input file rewritten in place at the same size rebuilds its
    stages: the input fingerprint keys each file on its mtime as well as
    its path and size.  The file is uncompressed Parquet without
    dictionary pages or statistics, so a same-length edit of one row's
    content leaves every other byte where it was."""
    import hashlib
    from pathlib import Path

    import pyarrow.parquet as pq

    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import run_linkage

    t = pq.read_table(sorted(Path(tiny_corpus / "files").rglob("*.parquet"))[0])
    src = tmp_path / "in" / "part-0.parquet"
    src.parent.mkdir()
    pq.write_table(t, src, compression="none", use_dictionary=False, write_statistics=False)
    raw = src.read_bytes()
    row = next(i for i, c in enumerate(t["content"].to_pylist()) if raw.count(c.encode()) == 1)
    old = t["content"][row].as_py().encode()
    new = old[:-1] + (b"x" if old[-1:] != b"x" else b"y")
    old_sha, new_sha = hashlib.sha256(old).hexdigest(), hashlib.sha256(new).hexdigest()
    cfg = LinkageConfig(checkpoint_dir=str(tmp_path / "ck"))

    def shas(res) -> set:
        return set(res.features.to_pandas()["sha256"])

    first = run_linkage(str(src.parent), cfg)
    assert old_sha in shas(first) and new_sha not in shas(first)
    size = src.stat().st_size
    with open(src, "r+b") as f:
        f.seek(raw.index(old))
        f.write(new)
    assert src.stat().st_size == size
    assert pq.read_table(src)["content"][row].as_py().encode() == new
    again = run_linkage(str(src.parent), cfg)
    assert not again.stats["features"]["restored"]
    assert new_sha in shas(again) and old_sha not in shas(again)


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
