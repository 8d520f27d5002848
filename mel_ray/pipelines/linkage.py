"""The flagship end-to-end record-linkage pipeline (SURVEY.md §7.0).

    read_parquet(repo, path, commit, lang, content)
      -> ingest      (sha256, record_id, repo canonicalization)  [stateless tasks]
      -> featurize   (minhash sig, hashed-ngram embedding)       [stateless tasks]
      -> blocking    (band expansion -> bucketed groupby pairs)  [hash shuffle]
      -> attach      (pairs ⋈ features x2)                      [shuffle join]
      -> scoring     (actor pool: est-jaccard, cosine, JW/Lev)   [actor pool]
      -> clustering  (star-contraction connected components)     [k x groupby]
      -> clusters.parquet / metrics                              [write]

Every stage streams; only the candidate-edge set (orders of magnitude
smaller than the corpus) is ever materialized, for the CC iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pyarrow as pa

import ray.data

from ..config import LinkageConfig
from ..stages import blocking as B
from ..stages import clustering as C
from ..stages import ingest as I
from ..stages import scoring as S
from ..state.manifest import StageCheckpointer


def _input_shard_groups(corpus_path: str, max_partitions: int = 16) -> list[list[str]] | None:
    """Group the input's parquet shards into <= max_partitions resume
    units (one unit = one committed partition; grouping amortizes
    per-pipeline scheduling overhead when the input has many shards)."""
    from pathlib import Path

    if isinstance(corpus_path, (list, tuple)):
        shards = sorted(str(f) for f in corpus_path)
    else:
        p = Path(corpus_path)
        if not p.is_dir():
            return None
        shards = sorted(str(f) for f in p.rglob("*.parquet"))
    if len(shards) < 2:
        return None
    n = min(max_partitions, len(shards))
    per = (len(shards) + n - 1) // n
    return [shards[i : i + per] for i in range(0, len(shards), per)]


@dataclass
class LinkageResult:
    clusters: "ray.data.Dataset"          # record_id, cluster_id, repo, path, sha256
    scored_pairs: "ray.data.Dataset"      # id_a, id_b, features..., accepted
    stats: dict[str, Any]
    # materialized feature table (record_id, sig, emb, repo, path, sha256)
    # — carried so run_linkage_incremental can link a delta batch against
    # this result without re-featurizing the base corpus
    features: "ray.data.Dataset | None" = None


def run_linkage(
    corpus_path: str,
    cfg: LinkageConfig | None = None,
    renames: dict[str, str] | None = None,
) -> LinkageResult:
    cfg = cfg or LinkageConfig()
    from ..util import auto_join_partitions, shuffle_partitions

    # Push-based (pipelined, merge-factor) sort shuffle for the two
    # band/bucket exchanges: the stage profile (BENCH/BASELINE.md,
    # round-5 session 2) showed the plain sort's barrier bubbles leave
    # ~half the cores idle at >=8 CPUs while stage CPU stays constant;
    # push-based reads 5-8% faster end-to-end at 8/32 CPUs and is
    # neutral at 2 (measured A/B, same windows, outputs identical —
    # both shuffles are semantics-preserving physical plans).
    ray.data.DataContext.get_current().use_push_based_shuffle = True

    join_parts = auto_join_partitions(cfg.join_partitions)
    ckpt = StageCheckpointer(
        cfg.checkpoint_dir,
        fingerprint_inputs=[corpus_path],
        config_token=repr((cfg.blocking, cfg.scoring, cfg.clustering, renames)),
    )

    # no checkpoint dir -> STREAMING plan: pairs flow straight from the
    # band groupby into the scorer (no pair-stage materialization, no
    # coalescing repartitions — the read is sized to shuffle-ready
    # blocks instead, and band accounting goes to a keyed sink actor).
    # Each avoided barrier/AllToAll is fixed wall-clock that does not
    # shrink with cluster size (round-5 profile: ~12 s of exchange
    # coordination in the pair stage at EVERY cpu count).
    streaming = cfg.checkpoint_dir is None
    records = I.ingest(
        I.read_corpus(
            corpus_path,
            override_num_blocks=shuffle_partitions() if streaming else None,
        ),
        renames=renames,
    )

    def _featurize(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        # batch_size bounds the kernel's transient working set (~15 uint64
        # temporaries per content byte): small batches keep each worker's
        # arrays inside its warm malloc pool / cache instead of faulting
        # fresh pages every call — first-touch is ~100 MB/s on
        # cgroup-limited hosts, so page faults, not compute, dominate big
        # batches.  Measured at sf0.1/32cpu: 128 ≈ 64 < 256 ≈ 512 < 1024
        # (~2x stage win for 128 vs 1024, consistent across samples).
        return ds.map_batches(
            lambda b: B.featurize_batch(
                b, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram
            ),
            batch_format="pyarrow",
            batch_size=128,
            zero_copy_batch=True,
        )

    shard_groups = _input_shard_groups(corpus_path) if cfg.checkpoint_dir else None
    if shard_groups and len(shard_groups) > 1:
        # per-partition resume: each input-shard group is an independently
        # committed partition (record ids are content fingerprints, so a
        # partition-wise rebuild is byte-equivalent to the fused stage)
        features = ckpt.through_partitioned(
            "features",
            shard_groups,
            lambda files: _featurize(I.ingest(I.read_corpus(files), renames=renames)),
        )
    else:
        features = ckpt.through("features", lambda: _featurize(records))

    if streaming:
        from ..state.accounting import new_stats_sink

        sink = new_stats_sink()  # this run's token on the session sink
        pairs = B.candidate_pairs(
            features, cfg.blocking, stats_sink=sink, coalesce=False
        )
    else:
        pairs_full = ckpt.through(
            "pairs", lambda: B.candidate_pairs(features, cfg.blocking, keep_stats=True)
        )
        # band accounting (no-silent-caps): the stats rows rode through
        # the pair shuffle; summing them over the materialized stage is
        # cheap, and the accounting rides the checkpoint Parquet itself
        ckpt.stats["blocking_bands"] = B.extract_band_stats(pairs_full)
        pairs = B.strip_band_stats(pairs_full)

    scored = ckpt.through(
        "scored",
        lambda: S.score_pairs_auto(
            pairs, features, cfg.scoring, cfg.blocking, join_parts, fan_out=not streaming
        ),
    )
    if streaming:
        # scored is materialized, so every emit task has run and (via the
        # in-task ray.get) recorded its bucket's counts — totals are final
        totals = ray.get(sink.totals.remote("blocking"))
        ray.get(sink.drop.remote())
        ckpt.stats["blocking_bands"] = {
            k: totals.get(k, 0)
            for k in ("dropped_bands", "salted_bands", "capped_groups")
        }

    edges = scored.map_batches(
        lambda t: t.filter(pa.compute.equal(t["accepted"], True))
        .select(["id_a", "id_b"])
        .rename_columns(["u", "v"]),
        batch_format="pyarrow",
    )
    comp = ckpt.through("components", lambda: C.connected_components(edges, cfg.clustering))

    # derive the slim id table from the MATERIALIZED features — `records`
    # is lazy, so selecting from it here would re-execute the entire
    # ingest scan (read + sha256 + remap) inside the clusters stage
    slim = features.map_batches(
        lambda t: t.select(["record_id", "repo", "path", "sha256"]), batch_format="pyarrow"
    )
    clusters = ckpt.through(
        "clusters",
        lambda: C.assign_clusters(
            slim,
            comp,
            join_parts,
            broadcast_limit_rows=cfg.clustering.assign_broadcast_limit_rows,
        ),
    )
    return LinkageResult(
        clusters=clusters, scored_pairs=scored, stats=ckpt.stats, features=features
    )


def run_linkage_incremental(
    base: LinkageResult,
    new_corpus_path: str,
    cfg: LinkageConfig | None = None,
    renames: dict[str, str] | None = None,
) -> LinkageResult:
    """Link a DELTA batch of records against an existing linkage result
    without re-featurizing or re-scoring the base corpus — the daily-
    ingest operation of a standing 100-TB deduplication pipeline (the
    reference's analogue is the per-round index refresh of its
    finetuning loop, ``all_langs_no_slurm.sh``: new data joins a
    standing KB embedding index, never a from-scratch rebuild).

    EXACT-EQUALITY contract (pinned by ``tests/test_linkage.py``): the
    output cluster table is IDENTICAL to running :func:`run_linkage` on
    base ∪ delta from scratch.  Why this holds:

    * candidate generation runs the UNCHANGED band expansion + bucket
      emission over base ∪ delta features, so stopband drops, salting
      and per-run caps see the same run lengths and make the same
      decisions as a full run; pairs are then filtered to those
      touching ≥1 delta record — exactly the full run's pair set minus
      base-base pairs;
    * base-base connectivity is already summarized by the base cluster
      labels: ``components(closure(E_bb) ∪ E_new) = components(E_bb ∪
      E_new)``, so feeding (record_id, cluster_id) label edges plus the
      newly accepted pairs to the SAME connected-components stage
      reproduces the full run's components, and the min-record-id label
      convention makes the labels themselves identical.

    Scale shape: the delta is featurized and scored (delta×base and
    delta×delta pairs only — the quadratic base×base scoring never
    re-runs); the one full-corpus cost is the band-key exchange over
    base ∪ delta band rows (linear, same partitioning as the flagship).
    Base features ride ``LinkageResult.features`` (or a checkpoint's
    features stage) — content bytes of the base corpus are never
    re-read."""
    cfg = cfg or LinkageConfig()
    from ..stages.blocking import dedup_pairs, expand_bands_batch, _emit_pairs_for_bucket
    from ..util import auto_join_partitions, shuffle_partitions

    if base.features is None:
        raise ValueError(
            "base LinkageResult carries no feature table; run run_linkage() "
            "(which materializes features) or restore it from a checkpoint"
        )
    ray.data.DataContext.get_current().use_push_based_shuffle = True
    join_parts = auto_join_partitions(cfg.join_partitions)

    new_features = I.ingest(I.read_corpus(new_corpus_path), renames=renames).map_batches(
        lambda b: B.featurize_batch(
            b, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram
        ),
        batch_format="pyarrow",
        batch_size=128,
        zero_copy_batch=True,
    ).materialize()
    all_features = base.features.union(new_features).materialize()

    # broadcast the sorted delta-id array (worker assembly task; the
    # driver only holds the ref — same discipline as assign_clusters)
    def _assemble_ids(*parts):
        # an empty delta materializes as schema-less row-less blocks
        ids = [t["record_id"].to_numpy(zero_copy_only=False) for t in parts if len(t)]
        return np.sort(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)

    ids_ref = ray.remote(_assemble_ids).remote(
        *new_features.to_arrow_refs()
    )

    # same pair semantics as candidate_pairs (granularity rule included),
    # with a touching-delta filter BEFORE the dedup exchange so base-base
    # pairs never enter the second shuffle
    n_buckets = min(cfg.blocking.num_buckets, 8 * shuffle_partitions())
    bands = all_features.map_batches(
        lambda b: expand_bands_batch(b, cfg.blocking, num_buckets=n_buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).repartition(shuffle_partitions())
    grouped = bands.groupby("bucket").map_groups(
        lambda g: _emit_pairs_for_bucket(g, cfg.blocking),
        batch_format="pyarrow",
    )

    def touch_filter(t: pa.Table) -> pa.Table:
        t = t.filter(
            pa.compute.not_equal(t["id_a"], pa.scalar(-1, pa.int64()))
        ).select(["id_a", "id_b"])
        ids = C.cached_get(ids_ref)
        if not len(ids):
            return t.slice(0, 0)
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)

        def isin(x):
            return ids[np.minimum(np.searchsorted(ids, x), len(ids) - 1)] == x

        return t.filter(pa.array(isin(a) | isin(b)))

    pairs = dedup_pairs(
        grouped.map_batches(touch_filter, batch_format="pyarrow"),
        cfg.blocking.num_buckets,
        coalesce=False,
    )
    scored = S.score_pairs_auto(
        pairs, all_features, cfg.scoring, cfg.blocking, join_parts, fan_out=False
    ).materialize()

    new_edges = scored.map_batches(
        lambda t: t.filter(pa.compute.equal(t["accepted"], True))
        .select(["id_a", "id_b"])
        .rename_columns(["u", "v"]),
        batch_format="pyarrow",
    )
    # base connectivity as label edges (singletons need no edge: their
    # record_id == cluster_id rows are dropped, they re-singleton via
    # assign_clusters)
    def _label_edges(t: pa.Table) -> pa.Table:
        e = t.select(["cluster_id", "record_id"]).rename_columns(["u", "v"])
        return e.filter(pa.compute.not_equal(e["u"], e["v"]))

    base_edges = base.clusters.map_batches(_label_edges, batch_format="pyarrow")
    comp = C.connected_components(new_edges.union(base_edges), cfg.clustering)
    slim = all_features.map_batches(
        lambda t: t.select(["record_id", "repo", "path", "sha256"]),
        batch_format="pyarrow",
    )
    clusters = C.assign_clusters(
        slim,
        comp,
        join_parts,
        broadcast_limit_rows=cfg.clustering.assign_broadcast_limit_rows,
    )
    return LinkageResult(
        clusters=clusters,
        scored_pairs=scored,
        stats={"incremental": True, "new_rows": new_features.count()},
        features=all_features,
    )


def cluster_representatives(
    clusters: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """One canonical representative per cluster: the min record_id
    (the reference's "pick canonical page per entity" — J8/A4,
    ``multilingual_dataset/creator.py:94-132``)."""
    return (
        clusters.groupby("cluster_id")
        .min("record_id")
        .map_batches(
            lambda t: t.rename_columns(["cluster_id", "representative_id"]),
            batch_format="pyarrow",
        )
    )


def cluster_sizes(clusters: "ray.data.Dataset") -> "ray.data.Dataset":
    return clusters.groupby("cluster_id").count()


def load_result_from_checkpoint(checkpoint_dir: str) -> LinkageResult:
    """Rehydrate a :class:`LinkageResult` from a checkpointed run's stage
    Parquet (state/manifest.py layout: ``<dir>/<stage>/data``) — the
    disk-backed base a standing ingest pipeline hands to
    :func:`run_linkage_incremental` after a restart.  Only the stages
    incremental needs are required (``features`` + ``clusters``);
    ``scored`` rides along when present."""
    from pathlib import Path

    from ..util import read_parquet_clean

    root = Path(checkpoint_dir)
    need = {}
    for stage in ("features", "clusters"):
        data = root / stage / "data"
        if not (root / stage / "manifest.json").exists() or not data.is_dir():
            raise FileNotFoundError(
                f"checkpoint at {checkpoint_dir} has no committed '{stage}' stage"
            )
        need[stage] = read_parquet_clean(str(data))
    scored_dir = root / "scored" / "data"
    scored = read_parquet_clean(str(scored_dir)) if scored_dir.is_dir() else None
    return LinkageResult(
        clusters=need["clusters"],
        scored_pairs=scored,
        stats={"restored_from": str(root)},
        features=need["features"],
    )


def save_result_checkpoint(res: LinkageResult, checkpoint_dir: str) -> dict:
    """Commit a (possibly incrementally-merged) result as a NEW base
    checkpoint that :func:`load_result_from_checkpoint` can restore —
    the write-back half of the daily-ingest loop: base ⊕ delta₁ is
    committed, then delta₂ links against it, and so on (chaining is
    exact: see the two-delta associativity test in tests/test_linkage.py).

    Same atomic layout as StageCheckpointer.through: data lands in a
    temp dir, one rename per stage is the commit point, manifest last.
    The fingerprint records the result's provenance dict rather than an
    input path list (an incremental base has no single input dir)."""
    import hashlib
    import json
    import os
    import shutil
    import time
    from pathlib import Path

    import pyarrow.parquet as pq

    root = Path(checkpoint_dir)
    root.mkdir(parents=True, exist_ok=True)
    fingerprint = hashlib.sha256(
        repr(sorted(res.stats.items(), key=lambda kv: kv[0])).encode()
    ).hexdigest()[:16]
    out: dict = {}
    stages = {"features": res.features, "clusters": res.clusters}
    if res.scored_pairs is not None:
        stages["scored"] = res.scored_pairs
    for name, ds in stages.items():
        if ds is None:
            raise ValueError(f"result carries no '{name}' dataset")
        stage_dir = root / name
        data_dir = stage_dir / "data"
        tmp = stage_dir / ".tmp-data"
        shutil.rmtree(stage_dir, ignore_errors=True)
        tmp.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        ds.write_parquet(str(tmp))
        partitions, total = [], 0
        for f in sorted(tmp.glob("*.parquet")):
            rows = pq.read_metadata(f).num_rows
            partitions.append({"file": f.name, "rows": rows, "done": True})
            total += rows
        os.rename(tmp, data_dir)
        (stage_dir / "manifest.json").write_text(
            json.dumps(
                {
                    "stage": name,
                    "input_fingerprint": fingerprint,
                    "row_count": total,
                    "partitions": partitions,
                    "wall_sec": round(time.time() - t0, 3),
                },
                indent=1,
                sort_keys=True,
            )
        )
        out[name] = total
    return out
