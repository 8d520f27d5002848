"""Similarity-search operators over the ``embeddings`` table.

Recast of the reference's searcher family (T5:
``src/models/searchers/*.py``): brute-force batched matmul top-k as the
exact baseline, a bucket-PARTITIONED LSH variant as the scale path (the
ScaNN-partitioned analogue, ``scann_searcher.py:6-49``), block-pair
exact near-dup detection, and grouped centroids (A6
``combine_embs_by_qid``).

Scale posture (round-2 rework): no operator materializes the embedding
table on the driver.  The index is built by ``map_batches`` tasks and
travels as materialized Arrow blocks in the object store; searchers
assemble from block refs (brute force — the documented exact-baseline
cost of one worker holding the matrix), search within their hash bucket
(LSH — state partitioned by ``groupby(bucket)``), or fetch exactly two
blocks per task (near-dupes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .util import read_parquet_clean, round_half_away

def _unit_features(sf_dir: str, max_per_label: int | None = None) -> "ray.data.Dataset":
    """embeddings -> (vec_id, unit) with unit = L2-normalized float64
    vector as a fixed-width binary blob (Acero-joinable, zero-copy
    decodable) — built distributed, one batch at a time.

    ``max_per_label`` composes the per-key index cap (T6) into the
    source, exactly as the IVF builds do."""
    from .stages.blocking import _binary_rows

    ds = _capped_embeddings(sf_dir, max_per_label, with_label=False)

    def f(t: pa.Table) -> pa.Table:
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return pa.table(
            {
                "vec_id": pa.compute.cast(t["vec_id"], pa.int64()),
                "unit": _binary_rows(np.ascontiguousarray(unit)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _query_ids(sf_dir: str, num_queries: int) -> "ray.data.Dataset":
    """first ``num_queries`` vec_ids (ORDER BY vec_id LIMIT n), as a
    small Dataset split into 2 blocks so a concurrency-2 pool fills."""
    return (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
        .sort("vec_id")
        .limit(num_queries)
        .map_batches(
            lambda t: pa.table({"query_id": pa.compute.cast(t["vec_id"], pa.int64())}),
            batch_format="pyarrow",
        )
        .repartition(2)
    )


def knn_bruteforce(
    sf_dir: str, k: int = 5, num_queries: int = 20, max_per_label: int | None = None
):
    """exact top-k cosine neighbors of the first ``num_queries`` vectors
    (by vec_id), self excluded; ties -> lower vec_id.

    The index is built DISTRIBUTED (``_unit_features`` map_batches,
    materialized to object-store blocks); each searcher actor assembles
    the matrix from the block refs in ``__init__`` — the exact-baseline
    cost is one worker holding the full matrix, never the driver.
    ``BruteForceSearcher.find`` recast (brute_force_searcher.py:28-36).
    ``max_per_label`` = exact search over the per-label-capped index
    (T6 composed with the exact baseline — SQL-checkable, unlike the
    IVF-capped variant whose probe set is the approximation)."""
    from .stages.blocking import binary_matrix

    index_ds = _unit_features(sf_dir, max_per_label).materialize()
    index_refs = index_ds.to_arrow_refs()
    if max_per_label is None:
        queries = _query_ids(sf_dir, num_queries)
    else:
        # query set = first n ids OF THE CAPPED INDEX (a capped-out id
        # would have no row in the searcher's matrix)
        queries = (
            index_ds.sort("vec_id")
            .limit(num_queries)
            .map_batches(
                lambda t: pa.table(
                    {"query_id": pa.compute.cast(t["vec_id"], pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(2)
        )

    class Searcher:
        def __init__(self, refs):
            tables = [t for t in ray.get(list(refs)) if len(t)]
            t = pa.concat_tables(tables).combine_chunks()
            ids = t["vec_id"].to_numpy()
            order = np.argsort(ids, kind="stable")
            self.ids = ids[order]
            self.unit = np.ascontiguousarray(binary_matrix(t["unit"], np.float64)[order])

        def __call__(self, t: pa.Table) -> pa.Table:
            from .functions.embed import topk_cosine

            q = t["query_id"].to_numpy()
            qi = np.searchsorted(self.ids, q)
            idx, sims = topk_cosine(self.unit[qi], self.unit, k + 1)
            # drop each query's self-match and keep its first k survivors,
            # fully vectorized: a stable argsort on the keep-mask floats
            # True-columns to the front without reordering them (the
            # masked-lexsort idiom of _partitioned_search)
            kk = min(k, max(idx.shape[1] - 1, 0))
            mask = idx != qi[:, None]
            front = np.argsort(~mask, axis=1, kind="stable")[:, :kk]
            nbr = np.take_along_axis(idx, front, axis=1)
            sim = np.take_along_axis(sims, front, axis=1)
            valid = np.take_along_axis(mask, front, axis=1).ravel()
            out_q = np.repeat(self.ids[qi], kk)[valid]
            out_n = self.ids[nbr.ravel()[valid]]
            out_s = sim.ravel()[valid]
            return pa.table(
                {
                    "query_id": pa.array(out_q.astype(np.int64)),
                    "neighbor_id": pa.array(out_n.astype(np.int64)),
                    "cos_sim": pa.array(round_half_away(out_s, 4)),
                }
            )

    return queries.map_batches(
        Searcher, fn_constructor_args=(index_refs,), batch_format="pyarrow",
        concurrency=2, num_cpus=0.5,
    )


def _query_vectors(sf_dir: str, num_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """first-n query ids + unit vectors (the genuinely small side)."""
    q_tbl = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .sort("vec_id")
        .limit(num_queries)
        .to_pandas()
    )
    q_ids = q_tbl.vec_id.to_numpy(dtype=np.int64)
    q_mat = np.stack(q_tbl.embedding.to_numpy()).astype(np.float64)
    q_unit = q_mat / np.maximum(np.linalg.norm(q_mat, axis=1, keepdims=True), 1e-12)
    return q_ids, q_unit


def _partitioned_search(
    index: "ray.data.Dataset", q_ref, k: int, with_label: bool = False, decode=None
) -> "ray.data.Dataset":
    """Shared partitioned-ANN core: the index Dataset carries a ``cell``
    column; search runs inside ``groupby(cell).map_groups`` so no worker
    ever holds more than its partition (ScaNN-partitioned-search
    semantics, scann_searcher.py:6-49).  ``q_ref`` broadcasts
    (query_ids, query_units, {cell -> query indices probing it}); the
    per-cell top-k candidates are merged by a final ``groupby(query_id)``
    top-k (equal to top-k over the union of probed cells).

    ``with_label=True`` rides the index's ``label`` column through to the
    output (needed by the retrieve-until-k-unique-entities mode, T8)."""
    from .stages.blocking import binary_matrix

    def _empty() -> pa.Table:
        cols = {
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "cos_sim": pa.array([], pa.float64()),
        }
        if with_label:
            cols["label"] = pa.array([], pa.int64())
        return pa.table(cols)

    def search_cell(group: pa.Table) -> pa.Table:
        ids_q, unit_q, probes_by_cell = ray.get(q_ref)
        cell = int(group["cell"][0].as_py())
        probing = probes_by_cell.get(cell)
        if probing is None:
            return _empty()
        mem_ids = group["vec_id"].to_numpy()
        mem_labels = group["label"].to_numpy() if with_label else None
        # decode hook: quantized indexes store codes, not floats — the
        # cell decodes ONLY its own members on the fly (asymmetric search)
        mem_unit = decode(group) if decode else binary_matrix(group["unit"], np.float64)
        sims = mem_unit @ unit_q[probing].T  # (members, nq)
        out_q, out_n, out_s, out_l = [], [], [], []
        for col, qi in enumerate(probing):
            s = sims[:, col]
            mask = mem_ids != ids_q[qi]  # exclude self
            cand_ids, cand_s = mem_ids[mask], s[mask]
            if len(cand_ids) == 0:
                continue
            top = np.lexsort((cand_ids, -cand_s))[:k]
            out_q.extend([ids_q[qi]] * len(top))
            out_n.extend(cand_ids[top].tolist())
            out_s.extend(cand_s[top].tolist())
            if with_label:
                out_l.extend(mem_labels[mask][top].tolist())
        if not out_q:
            return _empty()
        cols = {
            "query_id": pa.array(np.asarray(out_q, np.int64)),
            "neighbor_id": pa.array(np.asarray(out_n, np.int64)),
            "cos_sim": pa.array(np.asarray(out_s, np.float64)),
        }
        if with_label:
            cols["label"] = pa.array(np.asarray(out_l, np.int64))
        return pa.table(cols)

    cands = index.groupby("cell").map_groups(search_cell, batch_format="pyarrow")

    def merge_topk(group: pa.Table) -> pa.Table:
        s = group["cos_sim"].to_numpy()
        nid = group["neighbor_id"].to_numpy()
        top = np.lexsort((nid, -s))[:k]
        cols = {
            "query_id": pa.array(group["query_id"].to_numpy()[top]),
            "neighbor_id": pa.array(nid[top]),
            "cos_sim": pa.array(round_half_away(s[top], 4)),
        }
        if with_label:
            cols["label"] = pa.array(group["label"].to_numpy()[top])
        return pa.table(cols)

    return cands.groupby("query_id").map_groups(merge_topk, batch_format="pyarrow")


def knn_lsh(sf_dir: str, k: int = 5, num_queries: int = 20, num_planes: int = 4):
    """LSH-bucketed approximate top-k: random-hyperplane sign buckets +
    multi-probe (flip one plane), partitioned via the shared
    ``groupby(cell)`` search core.  Only the query vectors are
    broadcast; recall vs the brute-force oracle is asserted in tests."""
    from .stages.blocking import _binary_rows

    def bucketize(t: pa.Table) -> pa.Table:
        unit_t = _unit_features_batch(t)
        unit = unit_t["unit_mat"]
        rng = np.random.RandomState(1234)
        planes = rng.randn(unit.shape[1], num_planes)
        codes = (unit @ planes > 0).astype(np.uint32)
        cell = np.zeros(len(unit), dtype=np.int32)
        for b in range(num_planes):
            cell |= (codes[:, b] << b).astype(np.int32)
        return pa.table(
            {
                "vec_id": unit_t["vec_id"],
                "cell": pa.array(cell),
                "unit": _binary_rows(np.ascontiguousarray(unit)),
            }
        )

    index = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(bucketize, batch_format="pyarrow")

    q_ids, q_unit = _query_vectors(sf_dir, num_queries)
    rng = np.random.RandomState(1234)
    planes = rng.randn(q_unit.shape[1], num_planes)
    codes = (q_unit @ planes > 0).astype(np.uint32)
    q_cell = np.zeros(len(q_ids), dtype=np.int64)
    for b in range(num_planes):
        q_cell |= (codes[:, b].astype(np.int64) << b)
    probe_map: dict[int, list[int]] = {}
    for qi, b in enumerate(q_cell):
        for pb in [int(b)] + [int(b) ^ (1 << f) for f in range(num_planes)]:
            probe_map.setdefault(pb, []).append(qi)
    q_ref = ray.put((q_ids, q_unit, {b: np.asarray(v) for b, v in probe_map.items()}))
    return _partitioned_search(index, q_ref, k)


def _capped_embeddings(sf_dir: str, max_per_label: int | None, with_label: bool):
    """embeddings source with the reference's per-key cap composed in
    (T6 ``filter_based_on_max_per_qid``, index/index.py:102-120): keep
    the ``max_per_label`` lowest vec_ids per label so a skewed label
    cannot flood an IVF cell.

    The cap is decided on the NARROW (vec_id, label) projection: a
    per-batch combiner pre-cap (each batch keeps at most
    ``max_per_label`` ids per label, so a hot label contributes
    O(cap x num_blocks) rows to the exchange, never its full run),
    then one small sort-shuffle finishes the global cap.  The kept id
    set — at most ``num_labels * cap`` int64s — is assembled sorted by
    a worker task and broadcast; the wide embedding column is filtered
    map-side by binary search and never enters a shuffle.  (An Acero
    ``Dataset.join`` cannot carry a ``list<float>`` non-key column; if
    the kept-id set ever outgrows worker memory, encode the vector as
    fixed-width binary — ``_binary_rows`` — and join partitioned.)"""
    cols = ["vec_id", "embedding"] + (["label"] if with_label else [])
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=cols)
    if max_per_label is None:
        return ds

    narrow = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )

    def local_cap(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy()
        vid = t["vec_id"].to_numpy()
        order = np.lexsort((vid, lab))
        lab_s = lab[order]
        run_start = np.zeros(len(lab_s), dtype=bool)
        if len(lab_s):
            run_start[0] = True
            run_start[1:] = lab_s[1:] != lab_s[:-1]
        starts = np.flatnonzero(run_start)
        rank = np.arange(len(lab_s)) - np.repeat(starts, np.diff(np.append(starts, len(lab_s))))
        keep = order[rank < max_per_label]
        return pa.table({"vec_id": pa.array(vid[keep]), "label": pa.array(lab[keep])})

    def head(g: pa.Table) -> pa.Table:
        order = np.argsort(g["vec_id"].to_numpy(), kind="stable")[:max_per_label]
        return pa.table({"vec_id": g["vec_id"].take(pa.array(order))})

    keep = (
        narrow.map_batches(local_cap, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .map_groups(head, batch_format="pyarrow")
    )

    def _assemble(*parts) -> np.ndarray:
        # empty groups can surface as zero-column blocks: keep only
        # conforming non-empty tables before the concat
        parts = [p for p in parts if len(p) and "vec_id" in p.schema.names]
        if not parts:
            return np.empty(0, dtype=np.int64)
        ids = pa.concat_tables(parts)["vec_id"].to_numpy()
        return np.sort(ids)

    ref = ray.remote(num_cpus=0.25)(_assemble).remote(*keep.to_arrow_refs())

    class KeepFilter:
        def __init__(self, ref):
            self.ids = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            vid = t["vec_id"].to_numpy()
            pos = np.searchsorted(self.ids, vid)
            pos = np.minimum(pos, max(len(self.ids) - 1, 0))
            hit = self.ids[pos] == vid if len(self.ids) else np.zeros(len(vid), bool)
            return t.filter(pa.array(hit))

    from .util import auto_pool_size

    return ds.map_batches(
        KeepFilter,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        concurrency=auto_pool_size(None),
        num_cpus=0.5,
    )


def _ivf_index(
    sf_dir: str,
    num_cells: int,
    with_label: bool = False,
    max_per_label: int | None = None,
):
    """IVF index build shared by :func:`knn_ivf` / :func:`knn_k_unique`:
    deterministic coarse quantizer (first ``num_cells`` vectors as
    centroids), one broadcast matmul per batch to assign cells.
    Returns ``(index_dataset, centroids)``; the index optionally carries
    the ``label`` column (cast int64) for label-aware retrieval."""
    from .stages.blocking import _binary_rows

    c_ids, centroids = _query_vectors(sf_dir, num_cells)  # deterministic seeds
    c_ref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        unit_t = _unit_features_batch(t)
        unit = unit_t["unit_mat"]
        cell = np.argmax(unit @ cents.T, axis=1).astype(np.int32)
        cols = {
            "vec_id": unit_t["vec_id"],
            "cell": pa.array(cell),
            "unit": _binary_rows(np.ascontiguousarray(unit)),
        }
        if with_label:
            cols["label"] = pa.compute.cast(t["label"], pa.int64())
        return pa.table(cols)

    index = _capped_embeddings(sf_dir, max_per_label, with_label).map_batches(
        assign, batch_format="pyarrow"
    )
    return index, centroids


def _probe_ref(q_ids, q_unit, centroids, nprobe: int, pending=None):
    """Broadcast payload for `_partitioned_search`: each (pending) query
    probes its ``nprobe`` nearest-centroid cells."""
    sims = q_unit @ centroids.T  # (nq, C)
    probe_cells = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]
    qis = range(len(q_ids)) if pending is None else pending
    probe_map: dict[int, list[int]] = {}
    for qi in qis:
        for c in probe_cells[qi]:
            probe_map.setdefault(int(c), []).append(qi)
    return ray.put((q_ids, q_unit, {b: np.asarray(v) for b, v in probe_map.items()}))


def knn_ivf(
    sf_dir: str,
    k: int = 5,
    num_queries: int = 20,
    num_cells: int = 16,
    nprobe: int = 4,
    max_per_label: int | None = None,
):
    """IVF-partitioned approximate top-k (the FAISS-IVF / ScaNN-tree
    analogue, T5 searcher family): a deterministic coarse quantizer — the
    first ``num_cells`` vectors as centroids — assigns every vector to
    its nearest-centroid cell with one broadcast matmul; each query
    probes its ``nprobe`` nearest cells via the shared ``groupby(cell)``
    search core.  Data-adaptive cells follow density (unlike LSH's
    oblivious hyperplanes), the classic recall-per-probe win.

    ``max_per_label`` composes the reference's per-key index cap (T6,
    index/index.py:102-120) into the build so one hot label cannot
    flood a cell."""
    index, centroids = _ivf_index(sf_dir, num_cells, max_per_label=max_per_label)
    q_ids, q_unit = _query_vectors(sf_dir, num_queries)
    q_ref = _probe_ref(q_ids, q_unit, centroids, nprobe)
    return _partitioned_search(index, q_ref, k)


def knn_k_unique(
    sf_dir: str,
    k: int = 3,
    num_queries: int = 20,
    num_cells: int = 4,
    nprobe: int = 4,
    max_rounds: int = 8,
):
    """Retrieve-until-k-UNIQUE-labels — the reference T8 "multiple" mode
    (recall_calculator.py:79-98): per round, every still-unsatisfied
    query retrieves its global top-r (r doubling per round, starting at
    k) through the partitioned search core with the index's ``label``
    riding along; scanning a query's top-r in (cos_sim desc,
    neighbor_id) order, the first occurrence of each distinct label is
    kept.  A query is satisfied when k distinct labels appear inside its
    top-r, or when fewer than r rows came back (every candidate in its
    probed cells has been seen, so the partial label set is complete).
    Unsatisfied queries re-probe with doubled r — the reference's
    doubling loop; driver state is only the query set and its top-r
    rows (the genuinely small side).

    Output: one row per (query, distinct label) with that label's best
    neighbor, ``unique_rank`` 1..k by first appearance."""
    import pandas as pd

    index, centroids = _ivf_index(sf_dir, num_cells, with_label=True)
    index = index.materialize()  # reused across doubling rounds
    q_ids, q_unit = _query_vectors(sf_dir, num_queries)

    pending = list(range(len(q_ids)))
    done: list[pd.DataFrame] = []
    r = max(k, 2)
    for _ in range(max_rounds):
        q_ref = _probe_ref(q_ids, q_unit, centroids, nprobe, pending)
        res = _partitioned_search(index, q_ref, r, with_label=True).to_pandas()
        still: list[int] = []
        for qi in pending:
            rows = res[res.query_id == q_ids[qi]].sort_values(
                ["cos_sim", "neighbor_id"], ascending=[False, True], kind="stable"
            )
            first = rows.drop_duplicates("label", keep="first")
            if len(first) >= k or len(rows) < r:
                got = first.head(k).reset_index(drop=True)
                got["unique_rank"] = np.arange(1, len(got) + 1, dtype=np.int64)
                done.append(got)
            else:
                still.append(qi)
        pending = still
        if not pending:
            break
        r *= 2
    if pending:  # max_rounds exhausted: emit what those queries have
        q_ref = _probe_ref(q_ids, q_unit, centroids, nprobe, pending)
        res = _partitioned_search(index, q_ref, r, with_label=True).to_pandas()
        for qi in pending:
            rows = res[res.query_id == q_ids[qi]].sort_values(
                ["cos_sim", "neighbor_id"], ascending=[False, True], kind="stable"
            )
            got = rows.drop_duplicates("label", keep="first").head(k).reset_index(drop=True)
            got["unique_rank"] = np.arange(1, len(got) + 1, dtype=np.int64)
            done.append(got)
    out = (
        pd.concat(done, ignore_index=True)
        .sort_values(["query_id", "unique_rank"], kind="stable")
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(
        out[["query_id", "label", "neighbor_id", "cos_sim", "unique_rank"]],
        preserve_index=False,
    )


def _unit_features_batch(t: pa.Table) -> dict:
    """batch helper: raw embedding list column -> float64 unit matrix."""
    mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    return {"vec_id": pa.compute.cast(t["vec_id"], pa.int64()), "unit_mat": unit}


def emb_near_dupes(sf_dir: str, threshold: float = 0.4):
    """all pairs with cosine >= threshold (vec_id_a < vec_id_b) —
    embedding-cosine near-dup detection, EXACT.

    Distributed as a block-pair sweep: the unit matrix is materialized
    as B object-store blocks; one task per unordered block pair (i <= j)
    fetches exactly two blocks and scores them with one matmul —
    O(N^2/B^2) work and 2 blocks of memory per task, nothing on the
    driver.  (The round-1 version broadcast the full driver-collected
    matrix.)  For an approximate pre-filtered variant at extreme scale,
    compose the LSH banding of ``knn_lsh`` in front."""
    from .stages.blocking import binary_matrix

    blocks = _unit_features(sf_dir).materialize().to_arrow_refs()
    nb = len(blocks)
    bi, bj = np.triu_indices(nb)
    tasks = ray.data.from_arrow(
        pa.table({"bi": pa.array(bi.astype(np.int64)), "bj": pa.array(bj.astype(np.int64))})
    ).repartition(max(2, min(len(bi), 16)))

    class BlockPair:
        def __init__(self, refs):
            self.refs = list(refs)
            # cache holds ONLY the current pair's blocks (evicted between
            # pairs) so actor memory stays at the documented 2-block bound
            # instead of converging to the whole matrix over many tasks
            self.cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def _block(self, i: int):
            if i not in self.cache:
                t = ray.get(self.refs[i])
                self.cache[i] = (
                    t["vec_id"].to_numpy().astype(np.int64),
                    np.ascontiguousarray(binary_matrix(t["unit"], np.float64)),
                )
            return self.cache[i]

        def __call__(self, t: pa.Table) -> pa.Table:
            out_a, out_b, out_s = [], [], []
            for i, j in zip(t["bi"].to_numpy(), t["bj"].to_numpy()):
                i, j = int(i), int(j)
                for k in [k for k in self.cache if k not in (i, j)]:
                    del self.cache[k]
                ids_i, unit_i = self._block(i)
                ids_j, unit_j = self._block(j)
                if len(ids_i) == 0 or len(ids_j) == 0:
                    continue
                sims = unit_i @ unit_j.T
                r, c = np.nonzero(sims >= threshold)
                if i == j:
                    keep = r < c
                    r, c = r[keep], c[keep]
                a, b, s = ids_i[r], ids_j[c], sims[r, c]
                lo = np.minimum(a, b)
                hi = np.maximum(a, b)
                keep = lo != hi
                out_a.append(lo[keep])
                out_b.append(hi[keep])
                out_s.append(s[keep])
            if not out_a:
                return pa.table(
                    {
                        "vec_id_a": pa.array([], pa.int64()),
                        "vec_id_b": pa.array([], pa.int64()),
                        "cos_sim": pa.array([], pa.float64()),
                    }
                )
            return pa.table(
                {
                    "vec_id_a": pa.array(np.concatenate(out_a)),
                    "vec_id_b": pa.array(np.concatenate(out_b)),
                    "cos_sim": pa.array(round_half_away(np.concatenate(out_s), 4)),
                }
            )

    return tasks.map_batches(
        BlockPair, fn_constructor_args=(blocks,), batch_format="pyarrow",
        batch_size=4, concurrency=2, num_cpus=0.5,
    )


def emb_near_dupes_lsh(
    sf_dir: str,
    threshold: float = 0.4,
    num_planes: int = 3,
    num_bands: int = 8,
):
    """Approximate-recall embedding near-dup pairs: the 100-TB path for
    :func:`emb_near_dupes`.  ``num_bands`` independent random-hyperplane
    codes of ``num_planes`` bits each band the vectors (a pair is a
    candidate if ANY band matches — the MinHash-banding composition over
    sign hashes); candidates flow through the flagship's salted pair
    emitter + dedup, then exact cosine verification arrives BY JOIN of
    the unit vectors — soundness is exact, recall is the documented
    banding probability (~(1-(1-p^r)^b)).  No all-pairs matmul, no
    driver state."""
    from .functions.hashing import U64, splitmix64
    from .stages.blocking import _binary_rows, binary_matrix, bucket_pairs
    from .stages.scoring import JOIN_AGG_ARGS, _rename
    from .util import auto_join_partitions

    num_buckets = 64

    units = _unit_features(sf_dir).materialize()

    def band_rows(t: pa.Table) -> pa.Table:
        unit = binary_matrix(t["unit"], np.float64)
        ids = t["vec_id"].to_numpy()
        rng = np.random.RandomState(97)
        keys = []
        for band in range(num_bands):
            planes = rng.randn(unit.shape[1], num_planes)
            codes = (unit @ planes > 0).astype(np.uint64)
            cell = np.zeros(len(ids), dtype=np.uint64)
            for b in range(num_planes):
                cell |= codes[:, b] << np.uint64(b)
            with np.errstate(over="ignore"):
                keys.append(splitmix64(cell ^ splitmix64(np.full_like(cell, band + 11))))
        key = np.concatenate(keys)
        rid = np.tile(ids, num_bands)
        return pa.table(
            {
                "record_id": pa.array(rid),
                "band_hash": pa.array(key.view(np.int64)),
                "bucket": pa.array((key % U64(num_buckets)).astype(np.int32)),
            }
        )

    from .config import BlockingConfig

    cfg = BlockingConfig(num_buckets=num_buckets)

    cands = bucket_pairs(units.map_batches(band_rows, batch_format="pyarrow"), cfg)

    nparts = auto_join_partitions(None, units.count())
    ua = _rename(units, {"vec_id": "id_a", "unit": "unit_a"}, ["vec_id", "unit"])
    ub = _rename(units, {"vec_id": "id_b", "unit": "unit_b"}, ["vec_id", "unit"])
    j = cands.join(ua, join_type="inner", num_partitions=nparts, on=("id_a",),
                   aggregator_ray_remote_args=JOIN_AGG_ARGS)
    j = j.join(ub, join_type="inner", num_partitions=nparts, on=("id_b",),
               aggregator_ray_remote_args=JOIN_AGG_ARGS)

    def verify(t: pa.Table) -> pa.Table:
        a = binary_matrix(t["unit_a"], np.float64)
        b = binary_matrix(t["unit_b"], np.float64)
        cos = np.einsum("ij,ij->i", a, b)
        keep = cos >= threshold
        return pa.table(
            {
                "vec_id_a": pa.array(t["id_a"].to_numpy()[keep]),
                "vec_id_b": pa.array(t["id_b"].to_numpy()[keep]),
                "cos_sim": pa.array(round_half_away(cos[keep], 4)),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


def knn_quantized(sf_dir: str, k: int = 5, num_queries: int = 20):
    """Brute-force top-k over an INT8-QUANTIZED index — the ScaNN
    asymmetric-hashing / quantization analogue (T5,
    ``scann_searcher.py:6-49``'s ``quantize`` option): each vector is
    stored as symmetric int8 (scale = max|x|/127), an 8x memory
    reduction over the float64 index at rest; search decodes tiles on
    the fly and rescales, queries stay full precision (asymmetric).
    Recall vs the exact searcher is asserted in tests; at 100 TB this
    is what lets a shard's index fit a worker's heap."""
    from .stages.blocking import _binary_rows, binary_matrix

    def quantize(t: pa.Table) -> pa.Table:
        unit_t = _unit_features_batch(t)
        unit = unit_t["unit_mat"]
        scale = np.maximum(np.abs(unit).max(axis=1), 1e-12) / 127.0
        q = np.clip(np.round(unit / scale[:, None]), -127, 127).astype(np.int8)
        return pa.table(
            {
                "vec_id": unit_t["vec_id"],
                "scale": pa.array(scale),
                "qvec": _binary_rows(np.ascontiguousarray(q.view(np.uint8))),
            }
        )

    index_refs = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(quantize, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )
    queries = _query_ids(sf_dir, num_queries)
    q_ids, q_unit = _query_vectors(sf_dir, num_queries)
    q_ref = ray.put((q_ids, q_unit))

    class QuantSearcher:
        def __init__(self, refs, qref):
            tables = [t for t in ray.get(list(refs)) if len(t)]
            t = pa.concat_tables(tables).combine_chunks()
            ids = t["vec_id"].to_numpy()
            order = np.argsort(ids, kind="stable")
            self.ids = ids[order]
            self.scale = t["scale"].to_numpy()[order]
            self.q8 = np.ascontiguousarray(
                binary_matrix(t["qvec"], np.uint8).view(np.int8)[order]
            )
            qi, qu = ray.get(qref)
            self.q_pos = {int(v): i for i, v in enumerate(qi)}
            self.q_unit = qu

        def __call__(self, t: pa.Table) -> pa.Table:
            out_q, out_n, out_s = [], [], []
            for x in t["query_id"].to_numpy():
                qv = self.q_unit[self.q_pos[int(x)]]
                # asymmetric: full-precision query x on-the-fly-decoded tiles
                sims = np.empty(len(self.ids))
                tile = 8192
                for s0 in range(0, len(self.ids), tile):
                    blk = self.q8[s0 : s0 + tile].astype(np.float64)
                    blk *= self.scale[s0 : s0 + tile, None]
                    sims[s0 : s0 + tile] = blk @ qv
                mask = self.ids != x
                cand_ids, cand_s = self.ids[mask], sims[mask]
                top = np.lexsort((cand_ids, -cand_s))[:k]
                out_q.extend([int(x)] * len(top))
                out_n.extend(cand_ids[top].tolist())
                out_s.extend(cand_s[top].tolist())
            return pa.table(
                {
                    "query_id": pa.array(np.asarray(out_q, np.int64)),
                    "neighbor_id": pa.array(np.asarray(out_n, np.int64)),
                    "cos_sim": pa.array(round_half_away(np.asarray(out_s, np.float64), 4)),
                }
            )

    return queries.map_batches(
        QuantSearcher, fn_constructor_args=(index_refs, q_ref),
        batch_format="pyarrow", concurrency=2, num_cpus=0.5,
    )


def knn_ivf_quantized(
    sf_dir: str, k: int = 5, num_queries: int = 20, num_cells: int = 16, nprobe: int = 4
):
    """IVF partitioning × int8 asymmetric quantization — ScaNN's actual
    two-level architecture (tree + AH, scann_searcher.py:6-49) and the
    documented scale path for :func:`knn_quantized`, whose docstring
    concedes its flat scan: here the index is BOTH 8× smaller at rest
    AND partitioned, so a worker holds one cell's codes and each query
    scans only its ``nprobe`` nearest cells.  Cell assignment happens on
    the full-precision vector BEFORE quantization (assignment error
    would compound recall loss); queries stay full precision and each
    cell decodes only its own members on the fly."""
    from .stages.blocking import _binary_rows, binary_matrix

    c_ids, centroids = _query_vectors(sf_dir, num_cells)
    c_ref = ray.put(centroids)

    def assign_quantize(t: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        unit_t = _unit_features_batch(t)
        unit = unit_t["unit_mat"]
        cell = np.argmax(unit @ cents.T, axis=1).astype(np.int32)
        scale = np.maximum(np.abs(unit).max(axis=1), 1e-12) / 127.0
        q = np.clip(np.round(unit / scale[:, None]), -127, 127).astype(np.int8)
        return pa.table(
            {
                "vec_id": unit_t["vec_id"],
                "cell": pa.array(cell),
                "scale": pa.array(scale),
                "unit": _binary_rows(np.ascontiguousarray(q.view(np.uint8))),
            }
        )

    index = _capped_embeddings(sf_dir, None, False).map_batches(
        assign_quantize, batch_format="pyarrow"
    )
    q_ids, q_unit = _query_vectors(sf_dir, num_queries)
    q_ref = _probe_ref(q_ids, q_unit, centroids, nprobe)

    def decode(group: pa.Table) -> np.ndarray:
        mat = binary_matrix(group["unit"], np.uint8).view(np.int8).astype(np.float64)
        mat *= group["scale"].to_numpy()[:, None]
        return mat

    return _partitioned_search(index, q_ref, k, decode=decode)


def emb_centroids(sf_dir: str):
    """per-label mean embedding, exploded to (label, dim_i, avg_val) —
    the grouped vector reduce of A6 ``combine_embs_by_qid``
    (combine_embs.py:9-43), partial sums per batch then one small
    groupby."""
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        labels = t["label"].to_numpy()
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]))
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv)
        dim = mat.shape[1]
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dim).astype(np.int64)),
                "dim_i": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64), len(uniq))),
                "s": pa.array(sums.reshape(-1)),
                "c": pa.array(np.repeat(counts, dim).astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim_i"])
        .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        avg = pc.round(
            pc.divide(t["s"], pc.cast(t["c"], pa.float64())),
            ndigits=4,
            round_mode="half_towards_infinity",
        )
        return pa.table({"label": t["label"], "dim_i": t["dim_i"], "avg_val": avg})

    return agg.map_batches(finalize, batch_format="pyarrow")


def knn_rerank(sf_dir: str, k: int = 10, m: int = 50, num_queries: int = 20):
    """two-stage retrieve-then-rerank: a cheap inner-product retrieval
    picks ``m`` candidates per query, an exact-cosine scorer reranks
    them and keeps the top ``k`` (ties -> lower vec_id at both stages).

    The reference's reranking dataflow recast (keyed gather of candidate
    payloads behind a retrieval stage, src/reranking/binary/
    create_dataset.py:86-114): at 100 TB stage 1 is the partitioned ANN
    family above and stage 2 touches only ``num_queries x m`` rows — the
    rerank never sees the corpus.  Here stage 1 is the exact IP baseline
    so the whole cascade stays SQL-checkable (oracle ranks with the same
    score + vec_id tie-break at both cuts)."""
    from .stages.blocking import binary_matrix, _binary_rows

    ds = _capped_embeddings(sf_dir, None, with_label=False)

    def raw(t: pa.Table) -> pa.Table:
        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        return pa.table(
            {
                "vec_id": pa.compute.cast(t["vec_id"], pa.int64()),
                "raw": _binary_rows(np.ascontiguousarray(mat)),
            }
        )

    index_refs = (
        ds.map_batches(raw, batch_format="pyarrow").materialize().to_arrow_refs()
    )
    queries = _query_ids(sf_dir, num_queries)

    class Reranker:
        def __init__(self, refs):
            tables = [t for t in ray.get(list(refs)) if len(t)]
            t = pa.concat_tables(tables).combine_chunks()
            ids = t["vec_id"].to_numpy()
            order = np.argsort(ids, kind="stable")
            self.ids = ids[order]
            self.raw = np.ascontiguousarray(binary_matrix(t["raw"], np.float64)[order])
            norms = np.maximum(np.linalg.norm(self.raw, axis=1, keepdims=True), 1e-12)
            self.unit = self.raw / norms

        def __call__(self, t: pa.Table) -> pa.Table:
            q = t["query_id"].to_numpy()
            qi = np.searchsorted(self.ids, q)
            # stage 1: inner-product retrieval, self excluded; stable
            # argsort over sorted ids => ties break to the lower vec_id
            ip = self.raw[qi] @ self.raw.T
            ip[np.arange(len(qi)), qi] = -np.inf
            mm = min(m, max(self.raw.shape[0] - 1, 0))
            cand = np.argsort(-ip, axis=1, kind="stable")[:, :mm]
            # stage 2: exact cosine over the m survivors only; ties ->
            # lower vec_id (lexsort per query row — m is tiny)
            cos = np.einsum("qd,qmd->qm", self.unit[qi], self.unit[cand])
            kk = min(k, mm)
            front = np.stack(
                [np.lexsort((self.ids[cand[r]], -cos[r]))[:kk] for r in range(len(qi))]
            ) if len(qi) else np.empty((0, kk), dtype=np.int64)
            nbr = np.take_along_axis(cand, front, axis=1)
            sim = np.take_along_axis(cos, front, axis=1)
            return pa.table(
                {
                    "query_id": pa.array(np.repeat(self.ids[qi], kk).astype(np.int64)),
                    "neighbor_id": pa.array(self.ids[nbr.ravel()].astype(np.int64)),
                    "cos_sim": pa.array(round_half_away(sim.ravel(), 4)),
                }
            )

    return queries.map_batches(
        Reranker, fn_constructor_args=(index_refs,), batch_format="pyarrow",
        concurrency=2, num_cpus=0.5,
    )


def semantic_dedup(
    sf_dir: str,
    num_clusters: int = 32,
    threshold: float = 0.60,
    iters: int = 3,
    salt_limit: int = 16384,
    sweep_tile: int = 2048,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means over
    L2-normalized embeddings, then an exact cosine sweep INSIDE each
    cluster — a row is dropped iff some lower-vec_id row in the same
    cluster has cosine >= ``threshold``.  Returns every row as
    (vec_id, cluster, kept).

    Ray-Data shape: each k-means iteration is one ``map_batches`` pass
    emitting per-cluster partial sums (k x d floats per batch — tiny),
    reduced by a ``groupby("cluster").map_groups`` that sums the
    partials in batch-key order (deterministic regardless of shuffle
    arrival), so only the k reduced centroid rows ever reach the
    driver — NOT the per-block partials (at 100 TB that would be ~1e6
    driver-folded rows per iteration).  Centroids are ROUNDED to 6 dp
    each round so the result is independent of partial-sum grouping.

    The final sweep is a ``groupby(cluster).map_groups`` — no worker
    ever holds more than its cluster.  Inside the sweep the similarity
    matrix is computed in ``sweep_tile``-sized tiles (never the full
    n² matrix: peak extra memory is tile² floats), and a cluster
    larger than ``salt_limit`` is SALTED into
    ceil(n/salt_limit) deterministic sub-groups by
    splitmix64(vec_id) — the same mitigation as the LSH mega-bands
    (stages/blocking.py salted runs).  Salting is a semantic cap
    (cross-sub-group duplicates are missed), so it is never silent:
    each salted cluster logs a warning with its size and sub-group
    count.  Deterministic: centroids init from the ``num_clusters``
    lowest vec_ids, assignment ties -> lowest cluster index."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def to_unit(t: pa.Table) -> pa.Table:
        from .stages.blocking import _binary_rows

        mat = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return pa.table(
            {
                "vec_id": pa.compute.cast(t["vec_id"], pa.int64()),
                "unit": _binary_rows(np.ascontiguousarray(unit)),
            }
        )

    unit_ds = ds.map_batches(to_unit, batch_format="pyarrow").materialize()

    from .stages.blocking import binary_matrix, _binary_rows

    # deterministic init: unit vectors of the k lowest vec_ids
    k = num_clusters
    init_tbl = pa.concat_tables(
        [t for t in ray.get(unit_ds.sort("vec_id").limit(k).to_arrow_refs()) if len(t)]
    ).combine_chunks()
    centroids = binary_matrix(init_tbl["unit"], np.float64)

    def reduce_cluster(g: pa.Table) -> pa.Table:
        # sum partials in batch-key order: deterministic no matter how
        # the shuffle delivered them (float addition is not associative
        # at the last bit; sorted order pins the fold)
        order = np.argsort(g["part_key"].to_numpy(), kind="stable")
        s = np.zeros_like(np.frombuffer(g["s"][0].as_py(), dtype=np.float64))
        for i in order:
            s += np.frombuffer(g["s"][int(i)].as_py(), dtype=np.float64)
        return pa.table(
            {
                "cluster": pa.array([g["cluster"][0].as_py()], pa.int64()),
                "s": _binary_rows(s[None, :]),
                "n": pa.array([int(pa.compute.sum(g["n"]).as_py())], pa.int64()),
            }
        )

    for _ in range(iters):
        cref = ray.put(centroids)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            u = binary_matrix(t["unit"], np.float64)
            assign = np.argmax(u @ c.T, axis=1)
            sums = np.zeros((len(c), u.shape[1]), dtype=np.float64)
            np.add.at(sums, assign, u)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            # batch identity for a deterministic reduce order: the
            # lowest vec_id in the batch (batches partition the ids,
            # so it is unique per batch)
            pk = int(t["vec_id"][0].as_py()) if len(t) else -1
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(c), dtype=np.int64)),
                    "part_key": pa.array(np.full(len(c), pk, dtype=np.int64)),
                    "s": _binary_rows(sums),
                    "n": pa.array(counts),
                }
            )

        # distributed vector-sum: k rows come back, one per centroid —
        # bounded by num_clusters, not by block count
        reduced = (
            unit_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("cluster")
            .map_groups(reduce_cluster, batch_format="pyarrow")
            .take_all()
        )
        sums = np.zeros_like(centroids)
        counts = np.zeros(k, dtype=np.int64)
        for row in reduced:
            sums[row["cluster"]] = np.frombuffer(row["s"], dtype=np.float64)
            counts[row["cluster"]] = row["n"]
        nz = counts > 0
        centroids = centroids.copy()
        centroids[nz] = sums[nz] / counts[nz, None]
        norms = np.maximum(np.linalg.norm(centroids, axis=1, keepdims=True), 1e-12)
        centroids = np.round(centroids / norms, 6)  # order-independence

    cref = ray.put(centroids)

    def assign_final(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        u = binary_matrix(t["unit"], np.float64)
        assign = np.argmax(u @ c.T, axis=1)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "cluster": pa.array(assign.astype(np.int64)),
                "unit": t["unit"],
            }
        )

    assigned = unit_ds.map_batches(assign_final, batch_format="pyarrow")

    def _tiled_dup(ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """exact lower-id duplicate flags, never materializing more
        than a sweep_tile x sweep_tile similarity tile.  ``ids`` must
        be sorted ascending; compares against ALL lower rows (dropped
        rows still shadow later ones, per the SemDeDup spec)."""
        n = len(ids)
        dup = np.zeros(n, dtype=bool)
        for i0 in range(0, n, sweep_tile):
            i1 = min(i0 + sweep_tile, n)
            blk = u[i0:i1]
            # strictly-lower full tiles
            for j0 in range(0, i0, sweep_tile):
                j1 = min(j0 + sweep_tile, i0)
                hit = (u[j0:j1] @ blk.T) >= threshold
                dup[i0:i1] |= hit.any(axis=0)
            # diagonal tile: only j < i pairs count
            sim = blk @ blk.T
            dup[i0:i1] |= np.triu(sim >= threshold, k=1).any(axis=0)
        return dup

    def sweep(g: pa.Table) -> pa.Table:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order].astype(np.int64)
        u = binary_matrix(g["unit"], np.float64)[order]
        n = len(ids)
        if n > salt_limit:
            # mega-cluster: deterministic salt into sub-groups (same
            # mitigation as blocking.py's salted LSH runs).  Semantic
            # cap — cross-sub-group dups are missed — so never silent.
            from .functions.hashing import splitmix64

            n_sub = int(np.ceil(n / salt_limit))
            import logging

            logging.getLogger(__name__).warning(
                "semantic_dedup: cluster %s has %d rows > salt_limit=%d; "
                "salted into %d sub-groups (cross-sub-group duplicates "
                "are not detected)",
                g["cluster"][0].as_py(), n, salt_limit, n_sub,
            )
            sub = (
                splitmix64(ids.view(np.uint64)) % np.uint64(n_sub)
            ).astype(np.int64)
            dup = np.zeros(n, dtype=bool)
            for s in range(n_sub):
                m = sub == s
                dup[m] = _tiled_dup(ids[m], u[m])
        else:
            dup = _tiled_dup(ids, u)
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "cluster": pa.array(
                    np.full(n, g["cluster"][0].as_py(), dtype=np.int64)
                ),
                "kept": pa.array(~dup),
            }
        )

    return assigned.groupby("cluster").map_groups(sweep, batch_format="pyarrow")


def knn_ivf_pq(
    sf_dir: str,
    k: int = 5,
    num_queries: int = 20,
    num_cells: int = 16,
    nprobe: int = 4,
    m_sub: int = 8,
    n_codes: int = 256,
    train_rows: int = 1024,
    train_iters: int = 4,
):
    """IVF x PRODUCT quantization (Jegou et al. 2011: PQ codes +
    asymmetric-distance search) — the third compression point in the
    searcher family after flat int8 (:func:`knn_quantized`) and IVF x
    int8 (:func:`knn_ivf_quantized`): each vector is ``m_sub`` uint8
    codebook indices (64-d float32 -> 8 bytes, 32x smaller at rest).

    Codebooks are trained ONCE on a bounded deterministic sample (the
    first ``train_rows`` unit vectors by vec_id — driver-sized by
    construction, the classic train-on-sample PQ recipe), per-subspace
    k-means seeded from the first ``n_codes`` sample rows with centroids
    rounded to 6 dp per round (order-independence, as in
    :func:`semantic_dedup`).  Cell assignment uses the full-precision
    vector BEFORE coding; queries stay full precision and each probed
    cell reconstructs only its own members through the shared search
    core's decode hook (ADC: full-precision query x reconstructed db)."""
    from .stages.blocking import _binary_rows, binary_matrix

    c_ids, centroids = _query_vectors(sf_dir, num_cells)
    s_ids, sample = _query_vectors(sf_dir, train_rows)
    d = sample.shape[1]
    if d % m_sub:
        raise ValueError(f"dim {d} not divisible by m_sub {m_sub}")
    sub_d = d // m_sub
    books = np.zeros((m_sub, n_codes, sub_d), dtype=np.float64)
    for j in range(m_sub):
        x = sample[:, j * sub_d : (j + 1) * sub_d]
        cb = x[:n_codes].copy()
        for _ in range(train_iters):
            dist = ((x[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(dist, axis=1)
            for ci in range(n_codes):
                members = x[assign == ci]
                if len(members):
                    cb[ci] = members.mean(axis=0)
            cb = np.round(cb, 6)
        books[j] = cb
    model_ref = ray.put((centroids, books))

    def assign_encode(t: pa.Table) -> pa.Table:
        cents, bks = ray.get(model_ref)
        unit_t = _unit_features_batch(t)
        unit = unit_t["unit_mat"]
        cell = np.argmax(unit @ cents.T, axis=1).astype(np.int32)
        codes = np.empty((len(unit), m_sub), dtype=np.uint8)
        for j in range(m_sub):
            x = unit[:, j * sub_d : (j + 1) * sub_d]
            dist = ((x[:, None, :] - bks[j][None, :, :]) ** 2).sum(axis=2)
            codes[:, j] = np.argmin(dist, axis=1).astype(np.uint8)
        return pa.table(
            {
                "vec_id": unit_t["vec_id"],
                "cell": pa.array(cell),
                "unit": _binary_rows(np.ascontiguousarray(codes)),
            }
        )

    index = _capped_embeddings(sf_dir, None, False).map_batches(
        assign_encode, batch_format="pyarrow"
    )
    q_ids, q_unit = _query_vectors(sf_dir, num_queries)
    q_ref = _probe_ref(q_ids, q_unit, centroids, nprobe)

    def decode(group: pa.Table) -> np.ndarray:
        _, bks = ray.get(model_ref)
        codes = binary_matrix(group["unit"], np.uint8)
        return np.concatenate(
            [bks[j][codes[:, j]] for j in range(m_sub)], axis=1
        )

    return _partitioned_search(index, q_ref, k, decode=decode)
