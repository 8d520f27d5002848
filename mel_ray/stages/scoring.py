"""Pairwise scoring: a two-phase cascade over candidate pairs.

Recast of the reference's retrieval scoring — bi-encoder embed +
dot-product search (``src/utils/embeddings.py:55-175``,
``src/models/searchers/brute_force_searcher.py:28-36``) — as *pairwise*
scoring inside LSH blocks, structured as a cascade so the expensive
features only travel for plausible pairs:

1. **verify**: join the compact uint32 MinHash signatures (512 B/side)
   onto candidate pairs, estimate Jaccard from slot agreement, and drop
   pairs below the accept threshold — this kills the hot-band
   (license/boilerplate) collisions, which dominate the candidate set;
2. **score**: join embeddings + path/repo strings onto the survivors
   only, then an actor-pool scorer computes cosine and
   Jaro-Winkler/Levenshtein similarities and the final accept bit.

All joins are hash-shuffle ``Dataset.join`` on ``record_id`` with
fractional-CPU aggregators (several join stages + an actor pool must
coexist on one node without starving).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import BlockingConfig, ScoringConfig
from ..functions.strsim import jaro_winkler, levenshtein_ratio

# Shuffle-join aggregator actors stay fractional so several join stages
# plus an actor pool fit a small node (each Dataset.join spawns
# num_partitions of them); helper TASKS take whole CPUs (see
# _collect_feature_shards).
JOIN_AGG_ARGS = {"num_cpus": 0.25}


def combine_scores(w, est_j, cos, path_jw, repo_jw) -> np.ndarray:
    """Weighted score combination with checkpointable weights (S11).
    ``float(w[i])`` turns each float64 weight back into a Python float,
    so the default weights reproduce the original literal-constant
    expression bit-exactly."""
    return (
        float(w[0]) * est_j
        + float(w[1]) * np.maximum(cos, 0)
        + float(w[2]) * path_jw
        + float(w[3]) * repo_jw
    ).astype(np.float32)


def score_kernel(
    cfg: ScoringConfig, w, id_a, id_b, est_j, emb_a, emb_b, path_a, path_b, repo_a, repo_b
) -> pa.Table:
    """The scorer's math over gathered pair features, shared by the
    partitioned :class:`PairScorer` and the broadcast path: cosine,
    Jaro-Winkler/Levenshtein similarities, the weighted score and the
    accept bit."""
    # f32-accumulating einsum over the f16 rows: bit-identical to
    # astype(f32)+dot (einsum casts per buffered chunk) without
    # materializing two full-width f32 copies of the batch
    cos = np.einsum("ij,ij->i", emb_a, emb_b, dtype=np.float32)
    path_jw = jaro_winkler(path_a, path_b)
    repo_jw = jaro_winkler(repo_a, repo_b)
    return pa.table({
        "id_a": id_a,
        "id_b": id_b,
        "est_jaccard": est_j.astype(np.float32),
        "cosine": cos,
        "path_jw": path_jw,
        "path_lev": levenshtein_ratio(path_a, path_b, max_len=64),
        "repo_jw": repo_jw,
        "score": combine_scores(w, est_j, cos, path_jw, repo_jw),
        "accepted": (est_j >= cfg.jaccard_accept) & (cos >= cfg.cosine_accept),
    })


def _gpu_args(scoring: ScoringConfig) -> dict:
    """map_batches kwargs for a GPU-backed scorer pool; empty at
    num_gpus=0 so the CPU-only plan is byte-identical to before."""
    return {"num_gpus": scoring.num_gpus} if scoring.num_gpus else {}


def _rename(ds: "ray.data.Dataset", mapping: dict[str, str], keep: list[str]) -> "ray.data.Dataset":
    def f(t: pa.Table) -> pa.Table:
        t = t.select(keep)
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _join(left, right, on, num_partitions, how="inner"):
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions,
        on=(on,),
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )


def verify_candidates(
    pairs: "ray.data.Dataset",
    features: "ray.data.Dataset",
    scoring: ScoringConfig,
    num_partitions: int,
) -> "ray.data.Dataset":
    """pairs ⋈ sig x2 -> est_jaccard filter (phase 1 of the cascade)."""
    sa = _rename(features, {"record_id": "id_a", "sig": "sig_a"}, ["record_id", "sig"])
    sb = _rename(features, {"record_id": "id_b", "sig": "sig_b"}, ["record_id", "sig"])
    j = _join(pairs, sa, "id_a", num_partitions)
    j = _join(j, sb, "id_b", num_partitions)

    thresh = scoring.jaccard_accept

    def estimate(t: pa.Table) -> pa.Table:
        from ..functions.minhash import estimate_jaccard
        from .blocking import binary_matrix

        sig_a = binary_matrix(t["sig_a"], np.uint32)
        sig_b = binary_matrix(t["sig_b"], np.uint32)
        est = estimate_jaccard(sig_a, sig_b)  # empty-signature pairs -> 0
        keep = est >= thresh
        return pa.table(
            {
                "id_a": pa.array(t["id_a"].to_numpy()[keep]),
                "id_b": pa.array(t["id_b"].to_numpy()[keep]),
                "est_jaccard": pa.array(est[keep]),
            }
        )

    return j.map_batches(estimate, batch_format="pyarrow", zero_copy_batch=True)


def attach_features(
    verified: "ray.data.Dataset",
    features: "ray.data.Dataset",
    num_partitions: int,
) -> "ray.data.Dataset":
    """survivors ⋈ (repo, path, emb) x2 (phase 2 of the cascade)."""
    fa = _rename(
        features,
        {"record_id": "id_a", "repo": "repo_a", "path": "path_a", "emb": "emb_a"},
        ["record_id", "repo", "path", "emb"],
    )
    fb = _rename(
        features,
        {"record_id": "id_b", "repo": "repo_b", "path": "path_b", "emb": "emb_b"},
        ["record_id", "repo", "path", "emb"],
    )
    j = _join(verified, fa, "id_a", num_partitions)
    return _join(j, fb, "id_b", num_partitions)


class PairScorer:
    """Actor-pool pair scorer (stateful stage, reference pattern T1:
    model/state loaded once per actor in ``__init__``, work per batch in
    ``__call__`` — ``map_batches(PairScorer, concurrency=N)``)."""

    def __init__(self, scoring: ScoringConfig, blocking: BlockingConfig):
        from ..state.model_ckpt import scorer_weights

        self.cfg = scoring
        self.w = scorer_weights(scoring)  # model state, loaded once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .blocking import binary_matrix

        return score_kernel(
            self.cfg,
            self.w,
            batch["id_a"],
            batch["id_b"],
            batch["est_jaccard"].to_numpy(),
            binary_matrix(batch["emb_a"], np.float16),
            binary_matrix(batch["emb_b"], np.float16),
            *(batch[c].combine_chunks() for c in ("path_a", "path_b", "repo_a", "repo_b")),
        )


def score_pairs(
    pairs: "ray.data.Dataset",
    features: "ray.data.Dataset",
    scoring: ScoringConfig,
    blocking: BlockingConfig,
    num_partitions: int,
) -> "ray.data.Dataset":
    """The full cascade: verify -> attach -> actor-pool scorer."""
    from ..util import auto_pool_size

    verified = verify_candidates(pairs, features, scoring, num_partitions).materialize()
    enriched = attach_features(verified, features, num_partitions)
    return enriched.map_batches(
        PairScorer,
        fn_constructor_args=(scoring, blocking),
        batch_format="pyarrow",
        batch_size=scoring.batch_size,
        concurrency=auto_pool_size(scoring.concurrency),
        num_cpus=1,
        **_gpu_args(scoring),
    )


# ---------------------------------------------------------------------------
# Broadcast fast path: when the feature table fits comfortably in the object
# store (<= ScoringConfig.broadcast_limit_rows), ship it ONCE via ray.put and
# score pairs with zero shuffle — the map-side join the reference uses for its
# qid-remap table (src/utils/qids_remap.py:35-55) and Spark's
# autoBroadcastJoinThreshold strategy.  Above the threshold the partitioned
# Dataset.join cascade above is used instead (the 10^12-row scale path).
# ---------------------------------------------------------------------------


_FEATURE_COLS = ["record_id", "sig", "emb", "repo", "path"]


def _split_feature_block(bounds: list[int], t: pa.Table):
    """(worker task) sort ONE feature block by record_id and cut it at
    the shard range bounds — ``num_returns=len(bounds)-1`` presorted
    slices.  One task per block, so splitting is block-parallel and
    each feature byte is touched exactly once here (the earlier layout
    had every shard task rescanning ALL blocks — S-fold read
    amplification that showed up as ~12 s of hidden assembly CPU in the
    round-5 8-cpu profile)."""
    t = t.select(_FEATURE_COLS).combine_chunks()
    rid = t["record_id"].to_numpy()
    order = np.argsort(rid, kind="stable")
    t = t.take(pa.array(order)).combine_chunks()
    rid = rid[order]
    cuts = np.searchsorted(rid, bounds[1:-1])
    out, prev = [], 0
    for c in list(cuts) + [len(rid)]:
        out.append(t.slice(prev, c - prev))
        prev = int(c)
    return tuple(out)


def _merge_shard(*slices: pa.Table) -> pa.Table:
    """(worker task) same-range presorted slices -> one sorted shard
    (concat + one argsort over ~1/S of the rows)."""
    parts = [s for s in slices if len(s)]
    if not parts:
        return slices[0]  # empty, keeps the schema
    t = pa.concat_tables(parts).combine_chunks()
    order = pa.array(np.argsort(t["record_id"].to_numpy(), kind="stable"))
    return t.take(order).combine_chunks()


def _collect_feature_shards(features: "ray.data.Dataset") -> list:
    """Broadcast-table shard refs WITHOUT driver materialization: the
    feature blocks flow from the object store through block-parallel
    split tasks into S range-merge TASKS whose return values are the
    broadcast objects — the driver only ever holds refs (the qid-remap
    table pattern at honest scale).  record_id is a uniform 63-bit
    fingerprint (ingest.py), so equal-width ranges are balanced without
    a quantile pass."""
    from ..util import cluster_cpus

    refs = features.to_arrow_refs()
    n_shards = max(2, min(16, cluster_cpus() // 2))
    span = 1 << 63
    bounds = [span * i // n_shards for i in range(n_shards + 1)]
    # whole-CPU tasks: they queue behind Ray Data tasks on the warm
    # worker pool (a fractional request makes the raylet start extra
    # workers for them).  The score tasks that ray.get these shards give
    # up their CPU while blocked, so this cannot deadlock; only actor
    # pools whose constructors wait on an object ref need fractional
    # helpers (see JOIN_AGG_ARGS)
    split = ray.remote(num_returns=n_shards)(_split_feature_block)
    merge = ray.remote(_merge_shard)
    slice_refs = [split.remote(bounds, r) for r in refs]
    return [merge.remote(*[sl[s] for sl in slice_refs]) for s in range(n_shards)]


class _BroadcastShardViews:
    """Zero-copy scorer state over plasma-resident shard tables: per pair
    batch, searchsorted id lookup + the same kernels as PairScorer.

    The table arrives as range-sharded sorted single-chunk blocks (the
    merge tasks ``combine_chunks``); sig/emb are kept as per-shard numpy
    VIEWS over the plasma-backed Arrow buffers (zero-copy — every worker
    on a node shares ONE copy of the payload) and gathered per batch
    with segmented fancy indexing.  Round-5 profile note: gathering
    through ``pc.take`` on a chunked array instead cost the scorer a
    35% UDF-over-CPU stall; numpy fancy indexing on the mapped views
    removed it."""

    def __init__(self, shards: list, scoring: ScoringConfig):
        from .blocking import binary_matrix

        from ..state.model_ckpt import scorer_weights

        if shards:
            # shards are consecutive sorted record_id ranges: their
            # concatenation is globally sorted
            self.ids = np.concatenate([t["record_id"].to_numpy() for t in shards])
            self.bounds = np.cumsum([0] + [len(t) for t in shards])
            # binary_matrix handles chunk normalization itself; its
            # single-chunk fast path keeps these true VIEWS over the
            # plasma buffers (an explicit combine_chunks() here would
            # copy 0.7 GB per worker — see binary_matrix's docstring)
            self.sigs = [binary_matrix(t["sig"], np.uint32) for t in shards]
            self.embs = [binary_matrix(t["emb"], np.float16) for t in shards]
            # FLAT single-chunk string columns: pc.take on a ChunkedArray
            # pays a fixed ~30 ms per CALL in pyarrow 16 (regardless of
            # index count — measured 36 ms vs 0.25 ms flat for a 3.6k-row
            # take), and the scorer takes 4 small slices per pair batch,
            # which made chunked takes ~47% of the whole kernel at sf0.3.
            # The concat is one memcpy (~40 ms / 1.8M strings), paid once
            # per worker via _VIEWS_CACHE.
            flat = lambda c: pa.concat_arrays(  # noqa: E731
                [ch for t in shards for ch in t[c].chunks]
            )
            self.repo = flat("repo")
            self.path = flat("path")
        else:
            self.ids = np.empty(0, dtype=np.int64)
            self.bounds = np.zeros(1, dtype=np.int64)
            self.sigs = [np.empty((0, 1), dtype=np.uint32)]
            self.embs = [np.empty((0, 1), dtype=np.float16)]
            self.repo = self.path = pa.array([], pa.string())
        self.cfg = scoring
        self.w = scorer_weights(scoring)  # model state, loaded once per actor

    def _gather(self, mats: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
        """Segmented gather across the shard views: one fancy-index per
        touched shard (<= 16), output rows in input order."""
        out = np.empty((len(idx), mats[0].shape[1]), dtype=mats[0].dtype)
        shard = np.searchsorted(self.bounds[1:], idx, side="right")
        for s in np.unique(shard):
            m = shard == s
            out[m] = mats[s][idx[m] - self.bounds[s]]
        return out

    def score(self, batch: pa.Table) -> pa.Table:
        from ..functions.minhash import estimate_jaccard

        a = batch["id_a"].to_numpy()
        b = batch["id_b"].to_numpy()
        ia = np.searchsorted(self.ids, a)
        ib = np.searchsorted(self.ids, b)
        est_j = estimate_jaccard(self._gather(self.sigs, ia), self._gather(self.sigs, ib))
        keep = est_j >= self.cfg.jaccard_accept
        ia, ib = ia[keep], ib[keep]
        take_a, take_b = pa.array(ia), pa.array(ib)
        return score_kernel(
            self.cfg,
            self.w,
            pa.array(a[keep]),
            pa.array(b[keep]),
            est_j[keep],
            self._gather(self.embs, ia),
            self._gather(self.embs, ib),
            pc.take(self.path, take_a),
            pc.take(self.path, take_b),
            pc.take(self.repo, take_a),
            pc.take(self.repo, take_b),
        )


# worker-process-local scorer-state cache (single entry: replacing on a
# new broadcast epoch releases the previous run's plasma pins).  Keyed by
# the shard refs + scoring config, so every TASK of one stage reuses the
# views its worker already built — state rebuild from plasma is zero-copy
# (~10 ms), which is what makes a stateless-TASK scorer viable at all.
_VIEWS_CACHE: dict[tuple, _BroadcastShardViews] = {}


def _broadcast_views(shard_refs, scoring: ScoringConfig) -> _BroadcastShardViews:
    key = (tuple(r.hex() for r in shard_refs), repr(scoring))
    views = _VIEWS_CACHE.get(key)
    if views is None:
        shards = [t for t in ray.get(list(shard_refs)) if len(t)]
        views = _BroadcastShardViews(shards, scoring)
        _VIEWS_CACHE.clear()
        _VIEWS_CACHE[key] = views
    return views


def score_pairs_broadcast(
    pairs: "ray.data.Dataset",
    features: "ray.data.Dataset",
    scoring: ScoringConfig,
    fan_out: bool = True,
) -> "ray.data.Dataset":
    from ..util import cluster_cpus

    shard_refs = _collect_feature_shards(features)
    # STATELESS TASKS, not an actor pool.  Round-5 profile (sf0.1): the
    # scorer's real compute is ~17 CPU-seconds, but the actor-pool form
    # spent 10-16 s of WALL at every cpu count — fresh actor processes
    # (full interpreter + import chain per actor, per stage) plus
    # per-actor state builds dominated, and the pool's reservations
    # needed deadlock-avoidance tuning (0.5-cpu actors, autoscaling
    # floor).  Tasks run on the prestarted, already-warm Ray workers,
    # schedule at whatever parallelism the cluster has free, and rebuild
    # the scorer state at most ONCE per worker process via the
    # _VIEWS_CACHE (zero-copy views over the plasma shards, ~10 ms).
    # measured stage wall at sf0.1: 8 cpu 10-16 s (pool) -> ~3 s (tasks).
    # ``fan_out`` (checkpointed path): the pairs arrive as ~num_buckets
    # SKEWED blocks, so a straggler block sets the stage tail — fan out
    # to ~3x cluster_cpus tasks (measured: 894ms-3.2s per block before,
    # ~1 s stage tail saved).  The streaming path skips that repartition
    # (an AllToAll BARRIER): it already streams HASH-BALANCED pair
    # blocks straight from the dedup groupby into the first score tasks
    # while later buckets are still sorting.
    if fan_out:
        pairs = pairs.repartition(max(2, cluster_cpus()) * 3)

    def _score(batch: pa.Table) -> pa.Table:
        return _broadcast_views(shard_refs, scoring).score(batch)

    return pairs.map_batches(
        _score,
        batch_format="pyarrow",
        batch_size=scoring.batch_size * 4,
        zero_copy_batch=True,
        **_gpu_args(scoring),
    )


def score_pairs_auto(
    pairs: "ray.data.Dataset",
    features: "ray.data.Dataset",
    scoring: ScoringConfig,
    blocking: BlockingConfig,
    num_partitions: int,
    fan_out: bool = True,
) -> "ray.data.Dataset":
    """Join-strategy selection: broadcast when the feature side is small
    (features is materialized by the stage checkpointer, so count() is a
    metadata read), partitioned cascade otherwise."""
    n = features.count()
    if n <= scoring.broadcast_limit_rows:
        return score_pairs_broadcast(pairs, features, scoring, fan_out=fan_out)
    return score_pairs(pairs, features, scoring, blocking, num_partitions)
