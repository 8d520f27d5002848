"""Correctness checks and linkage quality, computed outside the program.

The checks take plain Arrow tables and NumPy arrays so that the tests can
hand them deliberately corrupted outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Truth:
    """What the benchmark knows about its input, independent of mel_ray."""

    rows: int
    keys: list[tuple[str, str, str]]  # sorted (repo, path, sha256(content))

    @classmethod
    def of(cls, corpus: Path) -> "Truth":
        t = pq.read_table(corpus, columns=["repo", "path", "content"])
        keys = sorted(
            (repo, path, hashlib.sha256(content.encode()).hexdigest())
            for repo, path, content in zip(
                t["repo"].to_pylist(), t["path"].to_pylist(), t["content"].to_pylist()
            )
        )
        return cls(len(keys), keys)


def check_clusters(clusters: pa.Table, truth: Truth) -> list[str]:
    """Problems with a cluster table (record_id, cluster_id, repo, path, sha256)."""
    problems = []
    rid = clusters["record_id"].to_numpy()
    cid = clusters["cluster_id"].to_numpy()
    if len(rid) != truth.rows:
        problems.append(f"cluster table has {len(rid)} rows for {truth.rows} input records")
    if len(np.unique(rid)) != len(rid):
        problems.append("cluster table repeats a record_id")
    keys = sorted(
        zip(
            clusters["repo"].to_pylist(),
            clusters["path"].to_pylist(),
            clusters["sha256"].to_pylist(),
        )
    )
    if keys != truth.keys:
        problems.append("cluster table (repo, path, sha256) differs from the input content")
    if len(rid):
        order = np.lexsort((rid, cid))
        c_sorted, r_sorted = cid[order], rid[order]
        first = np.concatenate([[True], c_sorted[1:] != c_sorted[:-1]])
        cluster_min = np.maximum.accumulate(np.where(first, np.arange(len(order)), 0))
        if not np.array_equal(c_sorted, r_sorted[cluster_min]):
            problems.append("a cluster_id is not the minimum record_id of its cluster")
    return problems


def check_pairs(id_a: np.ndarray, id_b: np.ndarray, record_ids: np.ndarray) -> list[str]:
    """Problems with the scored pair set: ordered, unique, known records."""
    problems = []
    if (id_a >= id_b).any():
        problems.append(f"{int((id_a >= id_b).sum())} scored pairs have id_a >= id_b")
    order = np.lexsort((id_b, id_a))
    a, b = id_a[order], id_b[order]
    if ((a[1:] == a[:-1]) & (b[1:] == b[:-1])).any():
        problems.append("scored pairs repeat a pair")
    known = np.isin(id_a, record_ids) & np.isin(id_b, record_ids)
    if not known.all():
        problems.append(f"{int((~known).sum())} scored pairs name unknown records")
    return problems


def _cluster_of(record_ids: np.ndarray, cluster_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    order = np.argsort(record_ids)
    rs = record_ids[order]
    pos = np.clip(np.searchsorted(rs, ids), 0, len(rs) - 1)
    found = rs[pos] == ids
    # a record missing from the table is its own singleton, labelled apart
    # from every real cluster_id (those are non-negative record ids)
    return np.where(found, cluster_ids[order][pos], -1 - ids)


def pair_quality(labeled: pa.Table, record_ids: np.ndarray, cluster_ids: np.ndarray) -> dict:
    """Pairwise precision / recall / F1 of the clustering on labeled pairs."""
    a = labeled["id_a"].to_numpy()
    b = labeled["id_b"].to_numpy()
    gold = labeled["is_match"].to_numpy(zero_copy_only=False)
    pred = _cluster_of(record_ids, cluster_ids, a) == _cluster_of(record_ids, cluster_ids, b)
    tp = int((pred & gold).sum())
    fp = int((pred & ~gold).sum())
    fn = int((~pred & gold).sum())
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    f1 = 2 * precision * recall / max(precision + recall, 1e-12)
    return {"pair_precision": precision, "pair_recall": recall, "pair_f1": f1}


def mismatched_records(clusters: pa.Table, reference: pa.Table) -> int:
    """Records whose cluster differs from the reference partition.

    Both tables label a cluster by its minimum record_id, so two equal
    partitions give equal labels record by record."""
    ref_ids = reference["record_id"].to_numpy()
    ref_cid = reference["cluster_id"].to_numpy()
    rid = clusters["record_id"].to_numpy()
    cid = clusters["cluster_id"].to_numpy()
    return int((_cluster_of(ref_ids, ref_cid, rid) != cid).sum())
