"""Pipeline configuration (dataclasses; the gin-config analogue,
reference ``configs/general.gin`` / ``run_action_gin.py:104-119``)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BlockingConfig:
    num_hashes: int = 128          # MinHash signature width K
    num_bands: int = 32            # b bands of r = K/b rows (s-curve ~0.42)
    num_buckets: int = 512         # UPPER BOUND on shuffle buckets for the
                                   # bucketed plan's band groupby.  Purely a
                                   # parallelism / balance knob (pair
                                   # emission is per band-run, not per
                                   # bucket); the actual exchange key
                                   # granularity is min(num_buckets,
                                   # 8 * shuffle_partitions()) — about 8
                                   # map_groups calls per partition
                                   # (round-5: 512 per-group calls dominated
                                   # the emit phase), with balance preserved
                                   # because per-run size is capped by
                                   # stopband_limit
    salt_limit: int = 64           # band size above which members are salted
    stopband_limit: int = 4096     # band size above which the band is dropped
                                   # (the "Paris"-alias cap analogue,
                                   # reference README.md:117-119)
    max_pairs_per_group: int = 200_000  # pair cap per plain band run (star pairs
                                   # above it); salted sub-groups are uncapped
    # M8/M9 content-window cap: when set, only the first N codepoints of
    # each record feed shingling/embedding — bounds per-record work by
    # construction (the reference's char-window truncation before
    # tokenization, cutting.py:30-48).  None = whole content (default:
    # synthetic-corpus rows are already bounded).
    content_window: int | None = None


@dataclass(frozen=True)
class ScoringConfig:
    embed_dim: int = 256
    embed_kgram: int = 4
    # accept rule: est_jaccard >= jaccard_accept AND cosine >= cosine_accept
    jaccard_accept: float = 0.45
    cosine_accept: float = 0.60
    batch_size: int = 8192
    concurrency: int | None = None  # scorer actor-pool size; None = cpus//4
    # GPUs reserved per scorer actor (T1: the reference's embedder runs a
    # real transformer on GPU, utils/embeddings.py:55-123; this sandbox is
    # CPU-only so the default is 0.0 = no change, but the actor-pool stage
    # is configuration-complete for a GPU-backed scorer/embedder swap).
    # To host an ACTUAL model in an actor pool, use the encoder plug
    # point: state/encoder.EncoderSpec(factory=<dotted path>, pooling,
    # dim) + stages/embed.embed_documents — the ModelBuilder/pooling-
    # wrapper surface (model_builder.py:23-69, pooling_wrappers.py:5-50).
    num_gpus: float = 0.0
    # Path to a model checkpoint written by state/model_ckpt.py
    # (save_model_checkpoint).  When set, scorer actors load their
    # score-combination weights from it once per actor in __init__
    # (S11/T2: the torch.save state_dict load recast); None = built-in
    # defaults, bit-identical to the unparameterized formula.
    model_checkpoint: str | None = None
    # Feature tables at or below this many rows take band-major blocking,
    # and the scorer reads views of the materialized feature blocks —
    # zero shuffle; the Spark autoBroadcastJoinThreshold idea.  Above
    # it, bucketed blocking and hash-shuffle Dataset.joins partition both
    # sides — the 10^12-row scale path.  ~2M rows ≈ 2 GB of sig+emb.
    broadcast_limit_rows: int = 2_000_000


@dataclass(frozen=True)
class ClusteringConfig:
    num_buckets: int = 64
    max_rounds: int = 16           # >= log2(max cluster diameter); star
                                   # contraction converges in O(log n)
    # Edge sets at or below this size are solved by a single-task NumPy
    # union-find (one Ray task, vectorized pointer jumping) — the
    # distributed star contraction runs above it.  The accepted-pair set
    # is orders of magnitude smaller than the corpus, so even 100 TB
    # inputs may fit; raise/lower to taste, 0 forces the distributed path.
    small_graph_limit: int = 5_000_000
    # Component-label tables at or below this many rows are broadcast
    # into the cluster-assign stage (searchsorted map-side join); above
    # it a partitioned left-outer Dataset.join runs.  0 forces the
    # partitioned path (exercised by tests/test_linkage.py).
    assign_broadcast_limit_rows: int = 20_000_000


@dataclass(frozen=True)
class LinkageConfig:
    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    join_partitions: int | None = None  # hash-shuffle join partitions; None = cpus//2
    checkpoint_dir: str | None = None  # stage checkpoints + manifests when set
