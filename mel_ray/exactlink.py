"""Exact-key (inverted-index) record linkage over the corpus — the
SQL-checkable counterpart of the MinHash-LSH flagship.

Classic "standard blocking" entity resolution: block on consecutive
2-line shingles with bounded document frequency, verify candidates by
EXACT shingle-set Jaccard, and cluster accepted pairs by connected
components.  Every stage is deterministic and ANSI-SQL-expressible, so
the driver hash-checks the whole linkage shape (blocking -> scoring ->
transitive clustering) end-to-end — the oracle-vs-optimized discipline
the reference applies to its searchers
(``models/searchers/simplified_brute_force_searcher.py:1-20``); the LSH
flagship (pipelines/linkage.py) remains the 100-TB path for blocking.

Scale notes: the shingle table is grouped by a HASH BUCKET of the
shingle (one sort-shuffle over fixed buckets), and each bucket's runs of
equal shingles go through the LSH blocking's pair emitter
(stages/blocking.py ``emit_run_pairs``, runs above DF_MAX dropped and
none salted or capped), candidate pairs are deduped by the shared
pair-bucket shuffle, and the exact-Jaccard verification is two
partitioned hash joins (pairs ⋈ shingles ⋈ shingles) plus a pair-keyed
count — all shapes that survive 10^12 rows.  Shingles travel as strings
here so the DuckDB oracle can group on the very same key; at 100 TB the
shingle key would be a 128-bit hash (functions/hashing.py), the only
substitution.  Per-record counts and the record_id->uid map are
broadcast because they are record-cardinality (tiny next to the shingle
and pair tables); past broadcast scale they become two more keyed joins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count

from .functions.hashing import U64, hash_strings64
from .util import auto_join_partitions, round_half_away, shuffle_partitions

DF_MAX = 10
THRESHOLD = 0.45
SEP_FIELD = "\x01"   # uid = repo \x01 path \x01 commit
SEP_SHINGLE = "\x03"  # 2-line shingle = line_i \x03 line_{i+1}


def _shingle_batch(batch: pa.Table) -> pa.Table:
    """files batch -> DISTINCT (record_id, uid, s) where s ranges over
    the record's consecutive 2-line shingles of normalized non-empty
    lines.  Records live entirely inside one input row, so per-batch
    distinct == global distinct."""
    from .functions.shingles import normalize_lines
    from .stages.ingest import record_fingerprint

    uid = pc.binary_join_element_wise(
        batch["repo"], batch["path"], batch["commit"], SEP_FIELD
    )
    if isinstance(uid, pa.ChunkedArray):
        uid = uid.combine_chunks()
    rid = record_fingerprint(batch["repo"], batch["path"], batch["commit"])

    norm = normalize_lines(batch["content"])
    lines = pc.split_pattern(norm, pattern="\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = lines.flatten()
    offs = np.asarray(lines.offsets)
    counts = np.diff(offs)
    row_of = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    row_of = row_of[keep]
    # consecutive pairs within the same row
    adj = np.flatnonzero(row_of[:-1] == row_of[1:])
    if len(adj) == 0:
        return pa.table(
            {
                "record_id": pa.array([], pa.int64()),
                "uid": pa.array([], pa.string()),
                "s": pa.array([], pa.string()),
            }
        )
    left = flat.take(pa.array(adj))
    right = flat.take(pa.array(adj + 1))
    s = pc.binary_join_element_wise(left, right, SEP_SHINGLE)
    rows = row_of[adj]
    out = pa.table(
        {
            "record_id": pa.array(rid[rows]),
            "uid": uid.take(pa.array(rows)),
            "s": s,
        }
    )
    return out.group_by(["record_id", "uid", "s"]).aggregate([])


def _emit_blocked_pairs(group: pa.Table) -> pa.Table:
    """One shingle-hash bucket -> candidate pairs from shingles with
    global df in [2, DF_MAX]: the runs of equal shingles, over
    dictionary codes (no string sorts), through the LSH blocking's run
    emitter with runs above DF_MAX dropped."""
    from .config import BlockingConfig
    from .stages.blocking import emit_run_pairs

    s = group["s"]
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    codes = s.dictionary_encode().indices.to_numpy()
    cfg = BlockingConfig(salt_limit=DF_MAX, stopband_limit=DF_MAX)
    a, b, _ = emit_run_pairs(codes, group["record_id"].to_numpy(), cfg)
    return pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})


def _assemble_record_side(*parts):
    """(worker task) per-record shingle counts + uid map, sorted by
    record_id for searchsorted probes.  Input blocks: (record_id, n) and
    (record_id, uid) concatenated by column presence."""
    count_tbls = [p for p in parts if "n" in p.schema.names and len(p)]
    uid_tbls = [p for p in parts if "uid" in p.schema.names and len(p)]
    ct = pa.concat_tables(count_tbls).combine_chunks()
    ut = pa.concat_tables(uid_tbls).combine_chunks()
    cid = ct["record_id"].to_numpy()
    corder = np.argsort(cid, kind="stable")
    uidr = ut["record_id"].to_numpy()
    uorder = np.argsort(uidr, kind="stable")
    return (
        cid[corder],
        ct["n"].to_numpy()[corder],
        uidr[uorder],
        ut["uid"].combine_chunks().take(pa.array(uorder)),
    )


class _ExactResult:
    def __init__(self, scored, records, join_parts):
        self.scored = scored          # id_a, id_b (rid), uid_a, uid_b, jaccard, accepted
        self.records = records        # record_id, uid (all records)
        self.join_parts = join_parts


_CACHE: dict[str, _ExactResult] = {}


def _run(sf_dir: str) -> _ExactResult:
    from .stages.blocking import dedup_pairs
    from .stages.scoring import JOIN_AGG_ARGS
    from .synth import ensure_corpus

    key = str(sf_dir)
    if key in _CACHE:
        return _CACHE[key]
    corpus = ensure_corpus(sf_dir)
    from .util import read_parquet_clean

    files = read_parquet_clean(
        str(corpus / "files"), columns=["repo", "path", "commit", "content"]
    )
    sh = files.map_batches(
        _shingle_batch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    num_buckets = shuffle_partitions()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = hash_strings64(t["s"])
        return pa.table(
            {
                "record_id": t["record_id"],
                "s": t["s"],
                "bucket": pa.array((h % U64(num_buckets)).astype(np.int32)),
            }
        )

    raw_pairs = (
        sh.map_batches(add_bucket, batch_format="pyarrow")
        .repartition(num_buckets)
        .groupby("bucket")
        .map_groups(_emit_blocked_pairs, batch_format="pyarrow")
    )
    pairs = dedup_pairs(raw_pairs, num_buckets).materialize()

    join_parts = auto_join_partitions(None)
    sa = sh.map_batches(
        lambda t: t.select(["record_id", "s"]).rename_columns(["id_a", "s"]),
        batch_format="pyarrow",
    )
    sb = sh.map_batches(
        lambda t: t.select(["record_id", "s"]).rename_columns(["id_b", "s"]),
        batch_format="pyarrow",
    )
    j1 = pairs.join(
        sa,
        join_type="inner",
        num_partitions=join_parts,
        on=("id_a",),
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )
    j2 = j1.join(
        sb,
        join_type="inner",
        num_partitions=join_parts,
        on=("id_b", "s"),
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )
    inter = j2.groupby(["id_a", "id_b"]).aggregate(Count(alias_name="m"))

    # record-cardinality side tables: shingle counts + uid map (broadcast;
    # see module docstring for the past-broadcast substitution)
    nsh = sh.groupby("record_id").aggregate(Count(alias_name="n"))
    records = files.map_batches(
        lambda t: _records_batch(t), batch_format="pyarrow"
    ).materialize()
    side_ref = ray.remote(num_cpus=0.25)(_assemble_record_side).remote(
        *nsh.materialize().to_arrow_refs(), *records.to_arrow_refs()
    )

    class Score:
        def __init__(self, ref):
            self.cid, self.n, self.uid_ids, self.uids = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            a = t["id_a"].to_numpy()
            b = t["id_b"].to_numpy()
            m = t["m"].to_numpy().astype(np.float64)
            na = self.n[np.searchsorted(self.cid, a)].astype(np.float64)
            nb = self.n[np.searchsorted(self.cid, b)].astype(np.float64)
            j = m / (na + nb - m)
            ua = self.uids.take(pa.array(np.searchsorted(self.uid_ids, a)))
            ub = self.uids.take(pa.array(np.searchsorted(self.uid_ids, b)))
            ua_np = np.asarray(ua.to_pylist(), dtype=object)
            ub_np = np.asarray(ub.to_pylist(), dtype=object)
            swap = ua_np > ub_np
            lo = np.where(swap, ub_np, ua_np)
            hi = np.where(swap, ua_np, ub_np)
            return pa.table(
                {
                    "id_a": pa.array(a),
                    "id_b": pa.array(b),
                    "uid_a": pa.array(lo.tolist(), pa.string()),
                    "uid_b": pa.array(hi.tolist(), pa.string()),
                    "jaccard": pa.array(round_half_away(j, 4)),
                    "accepted": pa.array(j >= THRESHOLD),
                }
            )

    from .util import cluster_cpus

    scored = inter.map_batches(
        Score,
        fn_constructor_args=(side_ref,),
        batch_format="pyarrow",
        concurrency=max(2, cluster_cpus() // 4),
        num_cpus=0.5,
    ).materialize()
    res = _ExactResult(scored, records, join_parts)
    _CACHE[key] = res
    return res


def _records_batch(t: pa.Table) -> pa.Table:
    from .stages.ingest import record_fingerprint

    uid = pc.binary_join_element_wise(t["repo"], t["path"], t["commit"], SEP_FIELD)
    if isinstance(uid, pa.ChunkedArray):
        uid = uid.combine_chunks()
    rid = record_fingerprint(t["repo"], t["path"], t["commit"])
    return pa.table({"record_id": pa.array(rid), "uid": uid})


def linkage_exact_pairs(sf_dir: str):
    """Driver query: scored candidate pairs (uid_a < uid_b, exact
    shingle-Jaccard, accept bit) — hash-checked against the DuckDB
    formulation of the same blocking + verification."""
    res = _run(sf_dir)
    return res.scored.map_batches(
        lambda t: pa.table(
            {
                "id_a": t["uid_a"],
                "id_b": t["uid_b"],
                "jaccard": t["jaccard"],
                "accepted": t["accepted"],
            }
        ),
        batch_format="pyarrow",
    )


def linkage_exact_clusters(sf_dir: str):
    """Driver query: every record with its connected-component cluster
    id (= lexicographic MIN uid of the component; singletons map to
    themselves) — transitive closure hash-checked against a recursive
    CTE."""
    from .config import ClusteringConfig
    from .stages.clustering import assign_clusters, connected_components

    res = _run(sf_dir)
    edges = res.scored.map_batches(
        lambda t: t.filter(pc.equal(t["accepted"], True))
        .select(["id_a", "id_b"])
        .rename_columns(["u", "v"]),
        batch_format="pyarrow",
    )
    comp = connected_components(edges, ClusteringConfig())
    clusters = assign_clusters(res.records, comp, res.join_parts)
    # cluster representative = min uid per component (groupby — the
    # per-key shape that scales), broadcast back over the members
    rep = clusters.groupby("cluster_id").min("uid")

    def _assemble_rep(*parts):
        parts = [p for p in parts if len(p)]
        t = pa.concat_tables(parts).combine_chunks()
        cids = t["cluster_id"].to_numpy()
        order = np.argsort(cids, kind="stable")
        return cids[order], t["min(uid)"].combine_chunks().take(pa.array(order))

    rep_ref = ray.remote(num_cpus=0.25)(_assemble_rep).remote(
        *rep.materialize().to_arrow_refs()
    )

    class Label:
        def __init__(self, ref):
            self.cids, self.reps = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            pos = np.searchsorted(self.cids, t["cluster_id"].to_numpy())
            return pa.table(
                {
                    "uid": t["uid"],
                    "cluster_id": self.reps.take(pa.array(pos)),
                }
            )

    from .util import cluster_cpus

    return clusters.map_batches(
        Label,
        fn_constructor_args=(rep_ref,),
        batch_format="pyarrow",
        concurrency=max(2, cluster_cpus() // 4),
        num_cpus=0.5,
    )
