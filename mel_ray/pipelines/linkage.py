"""The flagship end-to-end record-linkage pipeline (SURVEY.md §7.0).

    parquet(repo, path, commit, lang, content)
      -> ingest      (sha256, record_id, repo canonicalization)  [P plain tasks,
      -> featurize   (minhash sig, hashed-ngram embedding)        read included]
      -> blocking    (band keys -> band runs -> unique pairs)    [see below]
      -> scoring     (est-jaccard, cosine, JW/Lev, accept bit)   [see below]
      -> edges       (accepted pairs as (u, v))                  [1 task per block]
      -> clustering  (connected components)                      [1 task or k x groupby]
      -> assign      (records ⋈ component labels)                [1 task per block or join]
      -> checkpoint stages                                       [1 write task per block]

Read, ingest and featurize are P = ``shuffle_partitions()`` plain tasks,
one per input share (:func:`share_featurizer`): each reads about 1/P of
the rows and returns one feature block with one chunk per column.

One threshold picks the blocking and scoring plans: the feature row
count against ``ScoringConfig.broadcast_limit_rows``.  At or under it,
blocking is band-major (band-range tasks over the feature blocks,
then id-range unique tasks: no exchange) and each id-range task
scores the pairs it uniques over zero-copy views of those same feature
blocks (stateless tasks, no join), so candidates and scoring are one
task graph.  Above it, blocking is bucketed (band groupby then
pair-dedup groupby, two push-based sort exchanges) and scoring is the
partitioned ``Dataset.join`` cascade with an actor-pool scorer.
``res.stats["plan"]`` records the choice.

Block refs between stages, a Dataset at the API edge: stages hand each
other plain lists of block refs, and a Dataset is built only where a Ray
Data operator runs (the bucketed plan, the partitioned scorer and assign
joins, star contraction) and when a caller first reads a
:class:`LinkageResult` field.  At the block counts of a linkage run a
Dataset costs more to build than the work it holds, so the band-major
plan runs no Ray Data execution from the features to the committed
checkpoint: every step above is whole-CPU plain tasks.

The stages are ``features``, ``scored``, ``components`` and
``clusters``, built by the same tasks with or without a checkpoint dir
(see :func:`_link`): without one they stay in the object store; a
checkpoint dir adds the commits, one per input share for ``features``
and one for each other stage, and a rerun restores what they committed
(state/manifest.py ``StageCheckpointer.through``).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.context import ShuffleStrategy

from ..config import LinkageConfig
from ..stages import blocking as B
from ..stages import clustering as C
from ..stages import ingest as I
from ..stages import scoring as S
from ..state.manifest import StageCheckpointer
from ..util import num_rows, shuffle_partitions


def _featurize_share(
    pieces: list, schema: "pa.Schema | None", cfg: LinkageConfig, renames: dict[str, str] | None
) -> pa.Table:
    """(worker task) one input share -> its feature block: read, ingest
    and featurize, with one chunk per column."""
    records = I.ingest_batch(I.read_pieces(pieces, schema, I.CORPUS_COLUMNS), renames)
    return B.featurize_batch(records, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram)


def share_featurizer(corpus_path, cfg: LinkageConfig, renames: dict[str, str] | None = None):
    """-> ``build(pieces)``, which submits the plain task that reads,
    ingests and featurizes one share of
    :func:`~mel_ray.stages.ingest.split_input` -> [its feature block
    ref], one block with one chunk per column.

    Plain whole-CPU tasks on the warm worker pool, not a Ray Data read
    and map: Ray Data's backpressure budgets each map task at
    ``target_max_block_size`` until the first one reports its real
    output, so under a small object store it ran the first task alone
    and then left cores idle between waves, and a read split into more
    blocks than files never fuses with the map.  The input is read with
    the schema ``read_parquet_clean`` sniffs, so no block carries pandas
    metadata and every column has one type."""
    from ..util import sniff_clean_schema

    schema = sniff_clean_schema(corpus_path, I.CORPUS_COLUMNS)
    task = ray.remote(_featurize_share)
    return lambda pieces: [task.remote(pieces, schema, cfg, renames)]


def featurize_blocks(corpus_path, cfg: LinkageConfig, renames: dict[str, str] | None = None) -> list:
    """Parquet input -> the refs of its P = ``shuffle_partitions()``
    feature blocks, one per input share (:func:`share_featurizer`)."""
    build = share_featurizer(corpus_path, cfg, renames)
    return [b for pieces in I.split_input(corpus_path, shuffle_partitions()) for b in build(pieces)]


# a Dataset handed out by a LinkageResult field -> the refs it wraps, so a
# wrap set back on a result (dataclasses.replace) still yields its refs
_WRAPS: "weakref.WeakKeyDictionary[ray.data.Dataset, list]" = weakref.WeakKeyDictionary()


class _Blocks:
    """A :class:`LinkageResult` field: block refs (or a Dataset that a
    caller set), wrapped in a Dataset once, when first read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, res, owner=None):
        if res is None:
            return None  # the field's default
        value = res.__dict__[self.name]
        if not isinstance(value, list):
            return value
        wrap = res.__dict__[self.name] = ray.data.from_arrow_refs(value)
        _WRAPS[wrap] = value
        return wrap

    def __set__(self, res, value):
        res.__dict__[self.name] = value


@dataclass
class LinkageResult:
    clusters: "ray.data.Dataset" = _Blocks()  # record_id, cluster_id, repo, path, sha256
    scored_pairs: "ray.data.Dataset" = _Blocks()  # id_a, id_b, features..., accepted
    stats: dict[str, Any] = field(default_factory=dict)
    # the feature table (record_id, sig, emb, repo, path, sha256) —
    # carried so run_linkage_incremental can link a delta batch against
    # this result without re-featurizing the base corpus
    features: "ray.data.Dataset | None" = _Blocks()
    # feature_token() of the config that built `features`; None for a
    # checkpoint committed without one
    feature_token: str | None = None

    def blocks(self, name: str) -> list | None:
        """The block refs of the field ``name``, read without a wrap."""
        value = self.__dict__[name]
        if isinstance(value, ray.data.Dataset):
            return _WRAPS[value] if value in _WRAPS else value.to_arrow_refs()
        return value


def feature_token(cfg: LinkageConfig) -> str:
    """Token of the config that decides a record's features and band
    runs (``blocking``, ``embed_dim``, ``embed_kgram``): features built
    under different tokens must not be linked together."""
    import hashlib

    key = repr((cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def run_linkage(
    corpus_path: str,
    cfg: LinkageConfig | None = None,
    renames: dict[str, str] | None = None,
) -> LinkageResult:
    cfg = cfg or LinkageConfig()
    ckpt = StageCheckpointer(
        cfg.checkpoint_dir,
        fingerprint_inputs=[corpus_path],
        config_token=repr((cfg.blocking, cfg.scoring, cfg.clustering, renames)),
        meta={"feature_token": feature_token(cfg)},
    )
    # one part per input share, streamed or checkpointed: a torn
    # checkpointed run resumes at its first missing share (record ids are
    # content fingerprints, so a part-wise rebuild equals the whole stage)
    features = ckpt.through(
        "features",
        share_featurizer(corpus_path, cfg, renames),
        parts=I.split_input(corpus_path, shuffle_partitions()),
    )
    return _link(ckpt, features, ckpt.stats["features"]["rows"], cfg)


def _link(
    ckpt: StageCheckpointer,
    features: list,
    rows: int,
    cfg: LinkageConfig,
    pair_filter=None,
    extra_edges: list = (),
) -> LinkageResult:
    """features -> scored pairs -> components -> clusters: the one plan
    behind :func:`run_linkage` and :func:`run_linkage_incremental`, with
    or without a checkpoint dir, over the refs of the ``rows``-row
    feature table: the P share blocks of :func:`share_featurizer`, a
    committed features stage read back, or base ∪ delta blocks.

    The threshold of the module docstring picks how ``scored`` is built.
    Under it, each band-major id-range task uniques its pairs and scores
    them by record rank (``finish`` =
    :func:`~mel_ray.stages.scoring.broadcast_scorer`),
    so the end of those tasks is the stage's only barrier: each avoided
    barrier/AllToAll is fixed wall-clock that does not shrink with
    cluster size (round-5 profile: ~12 s of exchange coordination in the
    pair stage at EVERY cpu count).  Above it, the bucketed
    :func:`~mel_ray.stages.blocking.candidate_pairs` feed
    :func:`~mel_ray.stages.scoring.score_pairs`.  Band accounting goes to
    the session's stats sink and is kept with ``scored`` (in its manifest
    when committed), so a restored run still reports it.

    The tail is plain tasks over block refs: one per scored block keeps
    its accepted pairs as (u, v) edges, and connected components and
    the broadcast assign follow (stages/clustering.py).
    ``pair_filter`` goes to the blocking plan; ``extra_edges`` (refs to
    (u, v) blocks) join the accepted pairs before connected components."""
    from ..state.accounting import new_stats_sink
    from ..util import auto_join_partitions

    # Push-based (pipelined, merge-factor) sort shuffle for the
    # bucketed plan's band/bucket exchanges and for clustering's
    # groupbys, the only plans that shuffle: the stage profile
    # (BENCH/BASELINE.md, round-5 session 2) showed the plain sort's
    # barrier bubbles leave ~half the cores idle at >=8 CPUs while stage
    # CPU stays constant; push-based reads 5-8% faster end-to-end at 8/32
    # CPUs and is neutral at 2 (measured A/B, same windows, outputs
    # identical — both shuffles are semantics-preserving physical plans).
    ray.data.DataContext.get_current().shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    join_parts = auto_join_partitions(cfg.join_partitions)
    sink = new_stats_sink()  # this run's token on the session sink
    broadcast = rows <= cfg.scoring.broadcast_limit_rows
    ckpt.stats["plan"] = {
        "blocking": "band_major" if broadcast else "bucketed",
        "scoring": "broadcast" if broadcast else "partitioned",
    }

    def build(_part) -> list:  # scored is one part
        if broadcast:
            B.check_pair_key_space(rows)
            return B.band_major_pairs(
                features,
                cfg.blocking,
                stats_sink=sink,
                pair_filter=pair_filter,
                finish=S.broadcast_scorer(features, cfg.scoring),
            )
        # built and restored features come in shuffle_partitions()
        # blocks; base ∪ delta features do not, so they coalesce
        ds = ray.data.from_arrow_refs(features)
        pairs = B.candidate_pairs(
            ds,
            cfg.blocking,
            stats_sink=sink,
            coalesce=len(features) != shuffle_partitions(),
            pair_filter=pair_filter,
        )
        scored = S.score_pairs(pairs, ds, cfg.scoring, cfg.blocking, join_parts)
        return scored.materialize().to_arrow_refs()

    # the counts are read once scored is built, so every emit task has
    # run and recorded them (bucketed: the in-task ray.get; band-major:
    # the sink ran this process's puts before this totals call)
    scored = ckpt.through("scored", build, counts=lambda: B.band_totals(sink))
    ckpt.stats["blocking_bands"] = ckpt.counts["scored"]
    ray.get(sink.drop.remote())

    accepted = ray.remote(_accepted_edges)
    edges = [accepted.remote(b) for b in scored] + list(extra_edges)
    comp = ckpt.through("components", lambda _: C.component_blocks(edges, cfg.clustering))
    clusters = ckpt.through(
        "clusters",
        lambda _: C.assign_blocks(
            features,
            comp,
            ckpt.stats["components"]["rows"],
            join_parts,
            broadcast_limit_rows=cfg.clustering.assign_broadcast_limit_rows,
            columns=["record_id", "repo", "path", "sha256"],
        ),
    )
    return LinkageResult(
        clusters=clusters,
        scored_pairs=scored,
        stats=ckpt.stats,
        features=features,
        feature_token=feature_token(cfg),
    )


def _delta_ids(*parts: pa.Table) -> tuple[int, np.ndarray]:
    """(worker task) delta feature blocks -> (row count, sorted record ids)."""
    ids = np.concatenate([np.empty(0, np.int64), *(t["record_id"].to_numpy() for t in parts)])
    return len(ids), np.sort(ids)


def _accepted_edges(t: pa.Table) -> pa.Table:
    """(worker task) scored pairs -> the accepted ones as (u, v) edges."""
    e = t.filter(pa.compute.equal(t["accepted"], True)).select(["id_a", "id_b"])
    return e.rename_columns(["u", "v"])


def _label_edges(t: pa.Table) -> pa.Table:
    """(worker task) clusters -> (cluster_id, record_id) edges; singletons
    need none (assign_clusters re-singletons them)."""
    e = t.select(["cluster_id", "record_id"]).rename_columns(["u", "v"])
    return e.filter(pa.compute.not_equal(e["u"], e["v"]))


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
      decisions as a full run (and the band accounting equals the full
      run's); pairs are then filtered to those touching ≥1 delta
      record — exactly the full run's pair set minus base-base pairs;
    * base-base connectivity is already summarized by the base cluster
      labels: ``components(closure(E_bb) ∪ E_new) = components(E_bb ∪
      E_new)``, so feeding (record_id, cluster_id) label edges plus the
      newly accepted pairs to the SAME connected-components stage
      reproduces the full run's components, and the min-record-id label
      convention makes the labels themselves identical.

    PRECONDITION: the base labels hold the base-only run's base-base
    pairs, which equal the combined run's only when no band run changed
    its emission because delta records joined it.  A base-only run is
    never longer than its combined run, so this holds whenever the
    combined run salted, dropped and capped no band at all.  ``stats
    ["exact"]`` reports exactly that (conservative: a salted run made of
    delta records only also makes it False); when it is False the output
    may differ from a from-scratch run.  ``base`` must have been featurized
    under ``cfg`` (same :func:`feature_token`), else ``ValueError``.

    Scale shape: the delta is featurized and scored (delta×base and
    delta×delta pairs only — the quadratic base×base scoring never
    re-runs); the one full-corpus cost is band emission over base ∪
    delta: band-range tasks over the feature blocks at or under
    ``broadcast_limit_rows`` feature rows, the band-key exchange above
    it (linear either way, the same plans as the flagship).
    Base features ride ``LinkageResult.features`` (or a checkpoint's
    features stage) — content bytes of the base corpus are never
    re-read."""
    cfg = cfg or LinkageConfig()
    if base.blocks("features") is None:
        raise ValueError(
            "base LinkageResult carries no feature table; run run_linkage() "
            "(which carries features) or restore it from a checkpoint"
        )
    if base.feature_token != feature_token(cfg):
        raise ValueError(
            f"base features were built under feature config token "
            f"{base.feature_token!r}, this run's is {feature_token(cfg)!r}: link "
            "the delta with the base's config, or re-link base ∪ delta from scratch"
        )
    new_blocks = featurize_blocks(new_corpus_path, cfg, renames)
    # broadcast the sorted delta-id array (worker assembly task; the
    # driver only holds the ref — same discipline as assign_clusters)
    # and take the delta's row count from the same task
    rows_ref, ids_ref = ray.remote(num_returns=2)(_delta_ids).remote(*new_blocks)
    new_rows = ray.get(rows_ref)
    # base ∪ delta is the two block lists side by side (no union execution)
    blocks = list(base.blocks("features"))
    if new_rows:
        blocks += new_blocks

        def touch(t: pa.Table) -> pa.Table:
            # keep the pairs touching the delta, before the dedup exchange
            ids = ray.get(ids_ref)

            def isin(x):
                return ids[np.minimum(np.searchsorted(ids, x), len(ids) - 1)] == x

            return t.filter(pa.array(isin(t["id_a"].to_numpy()) | isin(t["id_b"].to_numpy())))
    else:
        # a zero-row delta adds no block, and no pair touches it
        touch = lambda t: t.slice(0, 0)  # noqa: E731

    label = ray.remote(_label_edges)
    res = _link(
        StageCheckpointer(None),
        blocks,
        num_rows(blocks),
        cfg,
        pair_filter=touch,
        extra_edges=[label.remote(b) for b in base.blocks("clusters")],
    )
    res.stats.update(
        incremental=True, new_rows=new_rows, exact=not any(res.stats["blocking_bands"].values())
    )
    return res


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


def load_result_from_checkpoint(checkpoint_dir: str) -> LinkageResult:
    """Rehydrate a :class:`LinkageResult` from a checkpointed run's stage
    Parquet (state/manifest.py layout: ``<dir>/<stage>/data``) — the
    disk-backed base a standing ingest pipeline hands to
    :func:`run_linkage_incremental` after a restart.  Only the stages
    incremental needs are required (``features`` + ``clusters``);
    ``scored`` rides along when present.  Every stage's read tasks
    (state.manifest.stage_blocks) are submitted before any is waited on,
    and the result holds their refs.  Assign writes one row per feature
    row, so a checkpoint whose ``features`` and ``clusters`` manifests
    count different rows mixes two commits: ``ValueError``."""
    from pathlib import Path

    from ..state.manifest import stage_blocks

    root = Path(checkpoint_dir)
    manifests = {}
    for stage in ("features", "clusters", "scored"):
        if (root / stage / "manifest.json").exists() and (root / stage / "data").is_dir():
            manifests[stage] = json.loads((root / stage / "manifest.json").read_text())
        elif stage != "scored":
            raise FileNotFoundError(
                f"checkpoint at {checkpoint_dir} has no committed '{stage}' stage"
            )
    rows = {stage: manifests[stage]["row_count"] for stage in ("features", "clusters")}
    if rows["features"] != rows["clusters"]:
        raise ValueError(
            f"checkpoint at {checkpoint_dir} mixes two commits: its features stage "
            f"holds {rows['features']} rows and its clusters stage {rows['clusters']}"
        )
    blocks = {stage: stage_blocks(root / stage / "data") for stage in manifests}
    return LinkageResult(
        clusters=blocks["clusters"],
        scored_pairs=blocks.get("scored"),
        stats={"restored_from": str(root)},
        features=blocks["features"],
        feature_token=manifests["features"].get("feature_token"),
    )


def save_result_checkpoint(res: LinkageResult, checkpoint_dir: str) -> dict:
    """Commit a (possibly incrementally-merged) result as a NEW base
    checkpoint that :func:`load_result_from_checkpoint` can restore —
    the write-back half of the daily-ingest loop: base ⊕ delta₁ is
    committed, then delta₂ links against it, and so on (chaining is
    exact: see the two-delta associativity test in tests/test_linkage.py).

    Every stage is committed (state.manifest.start_commit: one write
    task per block, all stages' writes in one wave) under a temp root
    inside ``checkpoint_dir``, and the stages are swapped in only once
    all writes have finished, so a crash mid-write leaves the previous
    checkpoint whole.  The stages are the result's block refs, not
    wrapped.  A restored result is already in the object store
    (restores are not lazy), so it may be committed over the checkpoint
    it came from (restore -> incremental -> commit in place).  Each
    manifest records the result's feature token, which
    :func:`run_linkage_incremental` checks on the restored base.  The
    fingerprint records the result's provenance dict rather than an
    input path list (an incremental base has no single input dir)."""
    import hashlib
    import os
    import shutil
    import tempfile
    from pathlib import Path

    from ..state.manifest import start_commit

    stages = {"features": res.blocks("features"), "clusters": res.blocks("clusters")}
    if (scored := res.blocks("scored_pairs")) is not None:
        stages["scored"] = scored
    for name, blocks in stages.items():
        if blocks is None:
            raise ValueError(f"result carries no '{name}' dataset")
    fingerprint = hashlib.sha256(
        repr(sorted(res.stats.items(), key=lambda kv: kv[0])).encode()
    ).hexdigest()[:16]
    root = Path(checkpoint_dir)
    root.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".commit-", dir=root))
    try:
        finish = {name: start_commit(staging / name, blocks) for name, blocks in stages.items()}
        out = {
            name: f(fingerprint, meta={"feature_token": res.feature_token})["row_count"]
            for name, f in finish.items()
        }
        for name in stages:
            if (root / name).exists():
                os.rename(root / name, staging / f"{name}.old")
            os.rename(staging / name, root / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out
