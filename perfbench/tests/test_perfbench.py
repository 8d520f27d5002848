"""Tests of the benchmark itself: output schema, seeded inputs, checks, smoke runs.

    python3 -m pytest perfbench/tests -q

The smoke runs start Ray with 4 CPUs on shrunken workloads and take about
a minute and a half in all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import bench, checks, workloads  # noqa: E402
from perfbench.procstat import RayProcs  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Workloads shrunk to a few hundred rows."""
    monkeypatch.setattr(workloads, "FULL_ROWS", 1200)
    monkeypatch.setattr(workloads, "VENDORED_BASE_ROWS", 800)
    monkeypatch.setattr(workloads, "VENDORED_ENTITIES", 3)
    monkeypatch.setattr(workloads, "VENDORED_COPIES", (66, 70))
    monkeypatch.setattr(workloads, "DELTA_ROWS", 1200)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(small, tmp_path, workload):
    a, hit_a = workloads.load_or_generate(workload, 7, tmp_path / "a")
    b, hit_b = workloads.load_or_generate(workload, 7, tmp_path / "b")
    c, _ = workloads.load_or_generate(workload, 8, tmp_path / "c")
    assert not hit_a and not hit_b
    assert a.digest == b.digest and a.rows == b.rows
    assert pq.read_table(a.labeled_pairs).equals(pq.read_table(b.labeled_pairs))
    assert a.digest != c.digest
    _, hit = workloads.load_or_generate(workload, 7, tmp_path / "a")
    assert hit


def test_stale_cache_fails_loudly(small, tmp_path):
    inputs, _ = workloads.load_or_generate("full_link", 3, tmp_path)
    shard = sorted(inputs.corpus.glob("*.parquet"))[0]
    t = pq.read_table(shard)
    pq.write_table(t.slice(1), shard)
    with pytest.raises(workloads.StaleCache):
        workloads.load_or_generate("full_link", 3, tmp_path)


@pytest.fixture
def clean_output(small, tmp_path):
    """A correct cluster table and pair set for a small corpus: pairs of
    consecutive records form the clusters."""
    from mel_ray.functions.hashing import sha256_hex
    from mel_ray.stages.ingest import record_fingerprint

    inputs, _ = workloads.load_or_generate("full_link", 5, tmp_path)
    t = pq.read_table(inputs.corpus)
    rid = record_fingerprint(t["repo"], t["path"], t["commit"])
    order = np.argsort(rid)
    rid = rid[order]
    cid = rid[(np.arange(len(rid)) // 2) * 2]
    clusters = pa.table(
        {
            "record_id": pa.array(rid),
            "cluster_id": pa.array(cid),
            "repo": t["repo"].take(pa.array(order)),
            "path": t["path"].take(pa.array(order)),
            "sha256": sha256_hex(t["content"]).take(pa.array(order)),
        }
    )
    return checks.Truth.of(inputs.corpus), clusters, rid[0::2][:-1], rid[1::2][: len(rid[0::2]) - 1]


def test_checks_accept_a_correct_output(clean_output):
    truth, clusters, a, b = clean_output
    assert checks.check_clusters(clusters, truth) == []
    assert checks.check_pairs(a, b, clusters["record_id"].to_numpy()) == []


def test_checks_reject_corrupted_outputs(clean_output):
    truth, clusters, a, b = clean_output
    ids = clusters["record_id"].to_numpy()

    dropped = clusters.slice(1)
    assert checks.check_clusters(dropped, truth)

    sha = clusters["sha256"].to_pylist()
    sha[3] = "0" * 64
    wrong_sha = clusters.set_column(4, "sha256", pa.array(sha))
    assert checks.check_clusters(wrong_sha, truth)

    cid = clusters["cluster_id"].to_numpy().copy()
    cid[0:2] = ids[1]  # label the cluster by its larger member
    assert checks.check_clusters(clusters.set_column(1, "cluster_id", pa.array(cid)), truth)

    assert checks.check_pairs(b, a, ids)  # id_a > id_b
    assert checks.check_pairs(np.append(a, a[0]), np.append(b, b[0]), ids)  # repeated pair
    assert checks.check_pairs(a, b, ids[1:])  # unknown record


def test_pair_quality_and_mismatch_counts():
    ids = np.array([1, 2, 3, 4])
    labeled = pa.table(
        {"id_a": [1, 1, 3], "id_b": [2, 3, 4], "is_match": [True, False, True]}
    )
    q = checks.pair_quality(labeled, ids, np.array([1, 1, 3, 4]))
    assert q == {"pair_precision": 1.0, "pair_recall": 0.5, "pair_f1": pytest.approx(2 / 3)}
    # records missing from the cluster table are singletons, never matched
    q = checks.pair_quality(labeled, ids[:1], np.array([1]))
    assert q["pair_recall"] == 0.0
    ref = pa.table({"record_id": ids, "cluster_id": np.array([1, 1, 3, 3])})
    got = pa.table({"record_id": ids, "cluster_id": np.array([1, 1, 3, 4])})
    assert checks.mismatched_records(got, ref) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(small, tmp_path, workload):
    args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=1)
    result = bench.run(args, state=tmp_path)
    assert result["correct"], result["report"]["problems"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == bench.PER_LAYER
    e2e = result["report"]["end_to_end"]
    assert set(e2e) == set(bench.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    assert layers["trace.coverage"] >= 0.9
    spans = json.loads((tmp_path / ".bench_out" / f"spans-{workload}-1.json").read_text())
    assert {"trace_id", "name", "start", "end", "parent"} <= set(spans[0])
    if workload == "vendored_dups":
        assert layers["candidates.salted_bands"] > 0
    if workload == "delta_link":
        assert layers["incremental.delta_rows"] == 60
        assert "exact_mismatch_records" in result["report"]["quality"]
        assert result["report"]["comparisons"]["from_scratch_wall_s"] > 0


@pytest.mark.parametrize("workload", ["full_link", "vendored_dups"])
def test_traced_iteration_matches_run_linkage(small, tmp_path, workload):
    """The traced iteration restates run_linkage's streaming plan stage by
    stage; it must produce the same cluster table and scored pairs."""
    import ray

    inputs, _ = workloads.load_or_generate(workload, 2, tmp_path / "cache")
    bench.start_ray(tmp_path / "ray")
    try:
        with RayProcs() as procs:
            wl = bench.Workload(inputs, tmp_path / "work", procs, Tracer(procs.cpu_s))
            wl.setup(0)
            plain, traced = wl.run(traced=False), wl.run(traced=True)
    finally:
        ray.shutdown()

    def pairs(t: pa.Table) -> set:
        return set(zip(*(t[c].to_pylist() for c in ("id_a", "id_b", "accepted"))))

    assert plain.clusters.sort_by("record_id").to_pydict() == traced.clusters.sort_by(
        "record_id"
    ).to_pydict()
    assert len(plain.scored) == len(traced.scored)
    assert pairs(plain.scored) == pairs(traced.scored)
