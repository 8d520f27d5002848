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
coexist on one node without starving).  That is the partitioned plan,
above ``ScoringConfig.broadcast_limit_rows`` feature rows; at or under
it the same cascade runs without a join, over zero-copy views of the
materialized feature blocks (the broadcast section below).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import BlockingConfig, ScoringConfig
from ..functions.strsim import jaro_winkler, levenshtein_ratio

# Shuffle-join aggregator actors stay fractional so several join stages
# plus an actor pool fit a small node (each Dataset.join spawns
# num_partitions of them); helper TASKS take whole CPUs (see
# blocking.band_major_pairs).
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

    # Ray's hash-shuffle join cannot key an input without rows (an empty
    # pair set leaves the bucketed dedup groupby as zero-column blocks,
    # and even a typed empty block fails), so no pair, or no verified
    # pair, short-circuits to a typed empty scored table
    pairs = pairs.materialize()
    verified = (
        verify_candidates(pairs, features, scoring, num_partitions).materialize()
        if pairs.count()
        else pairs
    )
    if not verified.count():
        none = np.empty(0, dtype=np.int64)
        return ray.data.from_arrow(_BlockViews([], scoring).score(none, none))
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
# store (<= ScoringConfig.broadcast_limit_rows), the scorer reads it where it
# already is — the materialized feature blocks in plasma, through per-worker
# views (_BlockViews) — and scores pairs with zero shuffle: the map-side join
# the reference uses for its qid-remap table (src/utils/qids_remap.py:35-55)
# and Spark's autoBroadcastJoinThreshold strategy.  The linkage plan runs
# it inside the band-major id-range tasks on the ranks of their pairs
# (broadcast_scorer as blocking.band_major_pairs' ``finish``, with the
# plan's record index); above the threshold it runs the partitioned
# Dataset.join cascade above (the 10^12-row scale path).
# score_pairs_auto scores a pair dataset of record ids through the same
# views; only perfbench's traced mode calls it.
# ---------------------------------------------------------------------------


def _matrix_chunks(col: pa.ChunkedArray, dtype) -> tuple[list[np.ndarray], np.ndarray]:
    """Binary column -> zero-copy (N_k, W) views of its non-empty chunks
    (blocking.binary_matrix, one per chunk, so nothing is combined) and
    the row each view starts at."""
    from .blocking import binary_matrix

    mats = [binary_matrix(c, dtype) for c in col.chunks if len(c)]
    return mats, np.cumsum([0] + [len(m) for m in mats])


class _BlockViews:
    """Zero-copy scorer state over the materialized feature blocks: per
    batch of pairs given as record ranks, ``order[rank]`` row lookup +
    the same kernels as PairScorer.

    ``index`` is the ``(order, sorted_ids)`` of blocking.record_index
    over the same blocks: the band-major plan passes the one its index
    task built, and pairs of record ids (:func:`score_pairs_auto`) are
    ranked against an index built here (:meth:`ranks`).  sig/emb are
    numpy VIEWS over the plasma-backed Arrow buffers, one per chunk, so
    one per block for the blocks of pipelines/linkage.py
    ``featurize_blocks`` (every worker on a node shares ONE copy of the
    payload; combining chunks would copy the table per worker, see
    blocking.binary_matrix), gathered with segmented fancy indexing.
    Round-5 profile note: gathering through ``pc.take`` on a chunked
    array instead cost the scorer a 35% UDF-over-CPU stall; numpy fancy
    indexing on the mapped views removed it."""

    def __init__(self, blocks: list, scoring: ScoringConfig, index=None):
        from ..state.model_ckpt import scorer_weights
        from .blocking import record_index

        blocks = [t for t in blocks if len(t)]
        self.order, self.ids = index or record_index(*blocks)[1:]
        if blocks:
            col = lambda c: pa.chunked_array([ch for t in blocks for ch in t[c].chunks])  # noqa: E731
            self.sigs = _matrix_chunks(col("sig"), np.uint32)
            self.embs = _matrix_chunks(col("emb"), np.float16)
            # FLAT single-chunk string columns: pc.take on a ChunkedArray
            # pays a fixed ~30 ms per CALL in pyarrow 16 (regardless of
            # index count — measured 36 ms vs 0.25 ms flat for a 3.6k-row
            # take), and the scorer takes 4 small slices per pair batch,
            # which made chunked takes ~47% of the whole kernel at sf0.3.
            # The concat is one memcpy (~40 ms / 1.8M strings), paid once
            # per worker via _VIEWS_CACHE.
            self.repo = col("repo").combine_chunks()
            self.path = col("path").combine_chunks()
        else:
            self.sigs = [np.empty((0, 1), dtype=np.uint32)], np.zeros(1, dtype=np.int64)
            self.embs = [np.empty((0, 1), dtype=np.float16)], np.zeros(1, dtype=np.int64)
            self.repo = self.path = pa.array([], pa.string())
        self.cfg = scoring
        self.w = scorer_weights(scoring)  # model state, loaded once per worker

    def ranks(self, ids: np.ndarray) -> np.ndarray:
        """record ids -> their ranks in the index."""
        return np.searchsorted(self.ids, ids)

    @staticmethod
    def _gather(views: tuple[list[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
        """Segmented gather across the chunk views: rows grouped by chunk
        with one stable argsort, then one fancy-index per touched chunk;
        output rows in input order."""
        mats, bounds = views
        out = np.empty((len(rows), mats[0].shape[1]), dtype=mats[0].dtype)
        chunk = np.searchsorted(bounds[1:], rows, side="right")
        by_chunk = np.argsort(chunk, kind="stable")
        cuts = np.searchsorted(chunk[by_chunk], np.arange(len(mats) + 1))
        for k in np.flatnonzero(np.diff(cuts)):
            sel = by_chunk[cuts[k] : cuts[k + 1]]
            out[sel] = mats[k][rows[sel] - bounds[k]]
        return out

    def score(self, rank_a: np.ndarray, rank_b: np.ndarray) -> pa.Table:
        """pairs as record ranks -> scored pairs (with their record ids)."""
        from ..functions.minhash import estimate_jaccard

        ra, rb = self.order[rank_a], self.order[rank_b]
        est_j = estimate_jaccard(self._gather(self.sigs, ra), self._gather(self.sigs, rb))
        keep = est_j >= self.cfg.jaccard_accept
        ra, rb = ra[keep], rb[keep]
        take_a, take_b = pa.array(ra), pa.array(rb)
        return score_kernel(
            self.cfg,
            self.w,
            pa.array(self.ids[rank_a[keep]]),
            pa.array(self.ids[rank_b[keep]]),
            est_j[keep],
            self._gather(self.embs, ra),
            self._gather(self.embs, rb),
            pc.take(self.path, take_a),
            pc.take(self.path, take_b),
            pc.take(self.repo, take_a),
            pc.take(self.repo, take_b),
        )


# worker-process-local scorer-state cache (single entry: replacing on a
# new broadcast epoch releases the previous run's plasma pins).  Keyed by
# the feature block refs + scoring config, so every TASK of one stage
# reuses the views its worker already built — state rebuild from plasma
# is zero-copy (plus one argsort of the ids when no index is given),
# which is what makes a stateless-TASK scorer viable at all.
_VIEWS_CACHE: dict[tuple, _BlockViews] = {}


def _block_views(block_refs: tuple, scoring: ScoringConfig, index=None) -> _BlockViews:
    key = (tuple(r.hex() for r in block_refs), repr(scoring))
    views = _VIEWS_CACHE.get(key)
    if views is None:
        views = _BlockViews(ray.get(list(block_refs)), scoring, index)
        _VIEWS_CACHE.clear()
        _VIEWS_CACHE[key] = views
    return views


def _score_sliced(views: _BlockViews, rank_a: np.ndarray, rank_b: np.ndarray) -> pa.Table:
    """Ranked pairs -> scored pairs, in slices of ``4 * batch_size``
    pairs, which bound the gathered sig/emb rows whatever the number of
    pairs."""
    step = views.cfg.batch_size * 4
    if len(rank_a) <= step:
        return views.score(rank_a, rank_b)
    return pa.concat_tables(
        [
            views.score(rank_a[s : s + step], rank_b[s : s + step])
            for s in range(0, len(rank_a), step)
        ]
    )


def _score_ranks(
    block_refs: tuple, scoring: ScoringConfig, ranks: tuple, index: tuple
) -> pa.Table:
    """(worker) ``(rank_a, rank_b)`` under ``index`` -> scored pairs."""
    return _score_sliced(_block_views(block_refs, scoring, index), *ranks)


def _score_ids(block_refs: tuple, scoring: ScoringConfig, pairs: pa.Table) -> pa.Table:
    """(worker) pairs of record ids -> scored pairs."""
    views = _block_views(block_refs, scoring)
    return _score_sliced(
        views, views.ranks(pairs["id_a"].to_numpy()), views.ranks(pairs["id_b"].to_numpy())
    )


def broadcast_scorer(features: "ray.data.Dataset", scoring: ScoringConfig):
    """``finish`` of blocking.band_major_pairs: ``(rank_a, rank_b)``
    under the plan's ``(order, sorted_ids)`` record index -> scored
    pairs, over views of ``features``' materialized blocks (the blocks
    the index was built from, in the same order).

    STATELESS TASKS, not an actor pool.  Round-5 profile (sf0.1): the
    actor-pool form spent 10-16 s of WALL at every cpu count on fresh
    actor processes and per-actor state builds; tasks run on the
    prestarted, already-warm Ray workers and rebuild the scorer state at
    most ONCE per worker process (_VIEWS_CACHE), from the index the plan
    already built.  One task per id range: bundling ranges up to a batch
    size left a stage of a few large tasks on 2-3 of 4 cores."""
    return functools.partial(_score_ranks, tuple(features.to_arrow_refs()), scoring)


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
    metadata read), partitioned cascade otherwise.  The broadcast branch
    scores each pair block in one task over the same views as
    :func:`broadcast_scorer`, ranking its record ids there; ``fan_out``
    repartitions the pairs to ~3x cluster_cpus blocks first (an
    AllToAll barrier), for pair blocks read back from a committed
    stage."""
    from ..util import cluster_cpus

    if features.count() > scoring.broadcast_limit_rows:
        return score_pairs(pairs, features, scoring, blocking, num_partitions)
    if fan_out:
        pairs = pairs.repartition(max(2, cluster_cpus()) * 3)
    return pairs.map_batches(
        functools.partial(_score_ids, tuple(features.to_arrow_refs()), scoring),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
        **_gpu_args(scoring),
    )
