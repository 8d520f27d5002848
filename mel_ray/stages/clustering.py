"""Distributed transitive clustering: connected components over accepted
pairs via alternating large-star / small-star contraction.

The reference never forms transitive clusters (recall@k needs none —
SURVEY.md §4); the north rule requires them.  Algorithm: Kiveris et al.,
"Connected Components in MapReduce and Beyond" (cf. PAPERS.md "BTS:
Load-Balanced Distributed Union-Find", ICDE 2024): alternate

    large-star: every neighbor v > u links to min(N(u) ∪ {u})
    small-star: every neighbor v <= u links to min(N(u) ∪ {u})

until the edge multiset is stable; converges in O(log n) rounds, each
round = ONE bucketed groupby shuffle (no joins): edges are emitted in
both directions, grouped by ``bucket = hash(u) % B``, and each bucket is
processed as sorted NumPy runs — per-node Python never happens.

Convergence is detected with a cheap order-insensitive aggregate
(count + xor-of-pair-hashes), not a driver-side collect.  At
convergence every edge is (root, member); singleton records keep their
own id as ``cluster_id = min(record_id)`` of the component — the
deterministic "first wins" rule (SURVEY.md §7.4 item 2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import AggregateFn

from ..config import ClusteringConfig
from ..functions.hashing import U64, hash_pairs64, splitmix64


def _star_round(edges: "ray.data.Dataset", cfg: ClusteringConfig, large: bool) -> "ray.data.Dataset":
    num_buckets = cfg.num_buckets

    def expand(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        bucket = (splitmix64(src.view(U64)) % U64(num_buckets)).astype(np.int32)
        return pa.table({"u": pa.array(src), "v": pa.array(dst), "bucket": pa.array(bucket)})

    def contract(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy()
        v = group["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        change = np.flatnonzero(np.diff(u) != 0) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(u)]])
        run_of = np.repeat(np.arange(len(starts)), ends - starts)
        if large:
            # large-star(u): link every neighbor v > u to m = min(N(u) ∪ {u})
            m = np.minimum(v[starts], u[starts])  # v sorted: v[starts] = min
            mm = m[run_of]
            mask = v > u
            a = np.minimum(mm[mask], v[mask])
            b = np.maximum(mm[mask], v[mask])
        else:
            # small-star(u): with S = {v ∈ N(u): v < u} ∪ {u} and m = min(S),
            # link every member of S \ {m} to m (u itself included — dropping
            # u's link would disconnect the component)
            m_run = v[starts]  # smallest neighbor
            has_small = m_run < u[starts]
            mm = m_run[run_of]
            mask = (v < u) & (v != mm)
            a1, b1 = mm[mask], v[mask]
            a2, b2 = m_run[has_small], u[starts][has_small]
            a = np.concatenate([np.minimum(a1, b1), a2])
            b = np.concatenate([np.maximum(a1, b1), b2])
        keep = a != b
        a, b = a[keep], b[keep]
        # local dedup to shrink the shuffle
        key = hash_pairs64(a, b)
        order = np.argsort(key, kind="stable")
        a, b, key = a[order], b[order], key[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = np.diff(key.view(np.int64)) != 0
        # Arrow out: a pandas return would attach pandas schema metadata,
        # making block schemas unhashable (log spam + no schema dedup)
        return pa.table({"u": pa.array(a[first]), "v": pa.array(b[first])})

    return (
        edges.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(contract, batch_format="pyarrow")
    )


def _edge_xor(edges: "ray.data.Dataset") -> int:
    """xor of pair hashes — order-insensitive multiset id (one execution)."""

    def to_hash(batch: pa.Table) -> pa.Table:
        h = hash_pairs64(batch["u"].to_numpy(), batch["v"].to_numpy())
        return pa.table({"h": pa.array(h.view(np.int64))})

    hashed = edges.map_batches(to_hash, batch_format="pyarrow")
    xor_agg = AggregateFn(
        init=lambda k: 0,
        accumulate_block=lambda acc, blk: acc
        ^ int(np.bitwise_xor.reduce(blk.column("h").to_numpy(), initial=0)),
        merge=lambda a, b: a ^ b,
        name="xor",
    )
    return int(hashed.aggregate(xor_agg)["xor"])


def local_union_find(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized NumPy union-find (hooking + pointer jumping).

    Returns (node_ids, component_min_label) for every node that appears
    in an edge.  O(E log N) NumPy ops, no per-edge Python.
    """
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u) :]
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        pu, pv = parent[ui], parent[vi]
        lo = np.minimum(pu, pv)
        hi = np.maximum(pu, pv)
        need = parent[hi] > lo
        if not need.any():
            break
        np.minimum.at(parent, hi[need], lo[need])
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
    # node index order == sorted node id order, so parent indices map to min ids
    return nodes, nodes[parent]


def _solve_small(*parts: pa.Table) -> pa.Table:
    """(worker task) every edge block -> labels of the nodes they touch."""
    parts = [t for t in parts if len(t)]  # skip schema-less empty blocks
    u = np.concatenate([t["u"].to_numpy() for t in parts])
    v = np.concatenate([t["v"].to_numpy() for t in parts])
    nodes, labels = local_union_find(u, v)
    return pa.table({"record_id": pa.array(nodes), "cluster_id": pa.array(labels)})


def connected_components(
    edges: "ray.data.Dataset", cfg: ClusteringConfig
) -> "ray.data.Dataset":
    """edges(u, v) -> labels(record_id, cluster_id) for all nodes with edges.

    Two physical strategies behind one semantic:

    * small edge sets (<= ``cfg.small_graph_limit``): one Ray task runs
      the vectorized union-find over the edge blocks — no shuffle;
    * large edge sets: alternating star contraction, one bucketed
      groupby per half-round, each round materialized (the edge set is
      orders of magnitude smaller than the corpus).  Convergence =
      unchanged (count, xor) multiset fingerprint; the xor aggregate is
      skipped whenever the (free, metadata-only) count already differs.
    """
    # one execution of the (lazy) edge input: count() and the solve below
    # would otherwise each run it, and an incremental run's label edges
    # read the base cluster table
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_items([]).map_batches(
            lambda b: pa.table(
                {"record_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    if n_edges <= cfg.small_graph_limit:
        # one whole-CPU task over the edge blocks: no repartition exchange
        return ray.data.from_arrow_refs([ray.remote(_solve_small).remote(*edges.to_arrow_refs())])

    cur = edges
    prev: tuple[int, int] | None = None
    for _ in range(cfg.max_rounds):
        cur = _star_round(cur, cfg, large=True).materialize()
        cur = _star_round(cur, cfg, large=False).materialize()
        cnt = cur.count()  # metadata-only on materialized data
        if prev is not None and cnt == prev[0]:
            x = _edge_xor(cur)
            if x == prev[1]:
                break
            prev = (cnt, x)
        else:
            prev = (cnt, None)  # xor filled lazily once counts plateau

    def to_labels(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        root = np.minimum(u, v)
        member = np.maximum(u, v)
        return pa.table({"record_id": pa.array(member), "cluster_id": pa.array(root)})

    labels = cur.map_batches(to_labels, batch_format="pyarrow")
    # a member may appear with several roots only pre-convergence; min() is
    # both the fixpoint and the deterministic tie-break
    return labels.groupby("record_id").min("cluster_id").map_batches(
        lambda t: t.rename_columns(["record_id", "cluster_id"]), batch_format="pyarrow"
    )


# worker-process-local cache for a broadcast object (single entry; a new
# ref replaces the previous run's pins) — same pattern as
# scoring._VIEWS_CACHE: every task of one stage reuses the value its
# worker already fetched instead of re-entering plasma per batch.
_BROADCAST_CACHE: dict = {}


def cached_get(ref):
    key = ref.hex()
    hit = _BROADCAST_CACHE.get(key)
    if hit is None:
        hit = ray.get(ref)
        _BROADCAST_CACHE.clear()
        _BROADCAST_CACHE[key] = hit
    return hit


def _assemble_labels(*parts: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(worker task) label blocks -> sorted lookup arrays (ids, cluster ids)."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t = pa.concat_tables(list(parts)).combine_chunks()
    ids = t["record_id"].to_numpy()
    order = np.argsort(ids, kind="stable")
    return ids[order], t["cluster_id"].to_numpy()[order]


def _assign_block(
    labels: tuple[np.ndarray, np.ndarray], batch: pa.Table, columns: list[str] | None
) -> pa.Table:
    """(worker task) one record block [its ``columns``] + ``cluster_id``:
    the record's component label, or its own id for a singleton."""
    if columns is not None:
        batch = batch.select(columns)
    ids, cids = labels
    rid = batch["record_id"].to_numpy()
    cid = rid
    if len(ids):
        pos = np.minimum(np.searchsorted(ids, rid), len(ids) - 1)
        cid = np.where(ids[pos] == rid, cids[pos], rid)
    return batch.append_column("cluster_id", pa.array(cid.astype(np.int64)))


def assign_clusters(
    records: "ray.data.Dataset",
    component_labels: "ray.data.Dataset",
    num_partitions: int,
    broadcast_limit_rows: int = 20_000_000,
    columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """All records [their ``columns``] ⋈ component labels (left outer);
    singletons get their own id.

    The label table only holds non-singleton nodes (≪ corpus), so the
    default strategy is a broadcast map-side join: one task assembles
    the sorted label arrays, then one plain task per record block
    selects its columns and looks its ids up (:func:`_assign_block`;
    the label ref is a task argument, read zero-copy from the object
    store), with no shuffle and no Ray Data execution.  A partitioned
    left-outer ``Dataset.join`` takes over past the broadcast
    threshold."""
    n = component_labels.count()
    if n <= broadcast_limit_rows:
        # whole-CPU tasks on the warm pool; an assign task waiting on
        # the labels takes no CPU until they are ready (rule:
        # blocking.py band_major_pairs)
        labels = ray.remote(_assemble_labels).remote(*component_labels.to_arrow_refs())
        assign = ray.remote(_assign_block)
        return ray.data.from_arrow_refs(
            [assign.remote(labels, b, columns) for b in records.to_arrow_refs()]
        )

    if columns is not None:
        records = records.select_columns(columns)
    from .scoring import JOIN_AGG_ARGS

    joined = records.join(
        component_labels,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("record_id",),
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )

    def fill(batch: pa.Table) -> pa.Table:
        cid = batch["cluster_id"]
        rid = batch["record_id"]
        filled = pa.compute.coalesce(cid, rid)
        i = batch.schema.get_field_index("cluster_id")
        return batch.set_column(i, "cluster_id", pa.compute.cast(filled, pa.int64()))

    return joined.map_batches(fill, batch_format="pyarrow")
