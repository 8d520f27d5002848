"""Text-analysis and deduplication operators over the ``documents`` table
(the training-data-pipeline operator family: language ID, quality
scoring, token counting, fingerprinting, exact/near dedup).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .util import read_parquet_clean
from ray.data.aggregate import Count, Sum as RSum

from .config import BlockingConfig, ScoringConfig
from .functions import textstats as TS
from .functions.hashing import U64, splitmix64
from .functions.minhash import minhash_signature
from .functions.shingles import word_ngram_hashes
from .functions.simhash import simhash64
from .stages.blocking import _binary_rows, bucket_pairs
from .util import round_half_away


def _docs(sf_dir: str, columns=None):
    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def doc_exact_dedup(sf_dir: str):
    """first (min doc_id) per distinct text — exact dedup made
    deterministic under a shuffle (T3 ``OnlyOnceDataset`` recast,
    only_once_dataset.py:8-23: per-worker set -> grouped min)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def hash_batch(t: pa.Table) -> pa.Table:
        from .functions.hashing import sha256_hex

        return pa.table({"doc_id": t["doc_id"], "text_sha": sha256_hex(t["text"])})

    return (
        ds.map_batches(hash_batch, batch_format="pyarrow")
        .groupby("text_sha")
        .min("doc_id")
        .map_batches(
            lambda t: t.rename_columns(["text_sha", "doc_id"]).select(["doc_id", "text_sha"]),
            batch_format="pyarrow",
        )
    )


def doc_token_count(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "n_tokens": pc.cast(TS.token_count(t["text"]), pa.int64())}
        ),
        batch_format="pyarrow",
    )


def token_pack(sf_dir: str, budget: int = 4096):
    """Pack documents (in doc_id order) into fixed token-budget training
    batches: ``batch_id = tokens_before_this_doc // budget``.

    The running token count is a DISTRIBUTED PREFIX SCAN — the one
    dataflow shape Ray Data's Dataset API lacks natively — done the
    scale-correct way: per-block token sums (k integers to the driver,
    k = #blocks), exclusive per-block offsets, then one remote task per
    block adds ``offset + local cumsum``.  No worker holds more than
    its block; the driver holds k integers.  Covers the epoch-packing
    contract of the reference's tensor writer (S10-adjacent,
    ``finetunings/generate_epochs/datasets.py``) as a first-class query
    with a window-function SQL oracle.

    Relies on ``to_arrow_refs()`` returning blocks in global sorted
    order (the same contract ``sorted_neighborhood_pairs`` uses); the
    monotonicity assertion pins it at runtime."""
    import ray

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pc.cast(t["doc_id"], pa.int64()),
                    "n_tokens": pc.cast(TS.token_count(t["text"]), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort("doc_id")
    )
    refs = ds.materialize().to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def block_meta(tbl: pa.Table):
        ids = tbl["doc_id"].to_numpy()
        if len(ids) == 0:
            return None, None, 0
        return int(ids[0]), int(ids[-1]), int(tbl["n_tokens"].to_numpy().sum())

    metas = ray.get([block_meta.remote(r) for r in refs])
    nonempty = [m for m in metas if m[0] is not None]
    assert all(
        a[1] <= b[0] for a, b in zip(nonempty, nonempty[1:])
    ), "sorted Dataset blocks arrived out of global order"
    sums = np.array([m[2] for m in metas], dtype=np.int64)
    offsets = np.cumsum(sums) - sums  # exclusive prefix per block

    @ray.remote(num_cpus=0.25)
    def assign(tbl: pa.Table, off: int) -> pa.Table:
        toks = tbl["n_tokens"].to_numpy()
        before = off + np.cumsum(toks) - toks
        return pa.table(
            {
                "doc_id": tbl["doc_id"],
                "n_tokens": tbl["n_tokens"],
                "batch_id": pa.array(before // budget),
            }
        )

    out_refs = [assign.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def doc_bpe_token_count(sf_dir: str):
    """BPE-ish pre-token count per doc (M6/M7 tokenizer-stage analogue:
    the per-document token budget a training pipeline bins by; both
    engines run the same RE2 pattern)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bpe_tokens": pc.cast(TS.bpe_token_count(t["text"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def doc_quality(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        stats = TS.quality_stats(t["text"])
        cols = {"doc_id": t["doc_id"]}
        for k, v in stats.items():
            cols[k] = pc.cast(v, pa.int64()) if k in ("n_chars", "n_words") else v
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


def doc_lang_id(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "pred_lang": TS.lang_id(t["text"])}),
        batch_format="pyarrow",
    )


def doc_md5_fingerprint(sf_dir: str):
    """whole-document fingerprint (md5 hex) — the cheap exact-identity
    fingerprint; SQL-mirrored with DuckDB's md5()."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        from .functions.hashing import string_array_buffers

        data, offsets = string_array_buffers(
            t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
        )
        mv = memoryview(data)
        out = [hashlib.md5(mv[offsets[i] : offsets[i + 1]]).hexdigest() for i in range(len(t))]
        return pa.table({"doc_id": t["doc_id"], "fp_md5": pa.array(out, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_winnow_fingerprint(sf_dir: str):
    """rolling-hash winnowing fingerprint (F7 recast of the reference's
    polynomial rolling hash, only_once_dataset.py:60-85); hex string."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        fp = TS.winnow_fingerprint(t["text"]).to_numpy(zero_copy_only=False)
        hexes = [f"{int(v):016x}" for v in fp]
        return pa.table({"doc_id": t["doc_id"], "fp_winnow": pa.array(hexes, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_simhash(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        v, off = word_ngram_hashes(t["text"], n=2)
        sh = simhash64(v, off)
        hexes = [f"{int(x):016x}" for x in sh]
        return pa.table({"doc_id": t["doc_id"], "simhash": pa.array(hexes, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def _doc_features(sf_dir: str, ngram: int, cfg: BlockingConfig):
    """documents -> (record_id, sig) compact MinHash feature table.

    Same wire shape as the flagship blocking features (uint32-truncated
    signature as a fixed-width binary blob — Acero-joinable), so the
    standalone doc near-dup ops can reuse ``candidate_pairs`` and the
    ``verify_candidates`` join cascade verbatim.  Materialized by the
    caller so banding and the two verify joins share one computation.
    """
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        v, off = word_ngram_hashes(t["text"], n=ngram)
        sig = minhash_signature(v, off, cfg.num_hashes)
        sig32 = (sig & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        return pa.table(
            {
                "record_id": pc.cast(t["doc_id"], pa.int64()),
                "sig": _binary_rows(np.ascontiguousarray(sig32)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def doc_minhash_lsh_pairs(sf_dir: str, ngram: int = 2, threshold: float = 0.5):
    """MinHash-LSH near-duplicate doc pairs with signature-verified
    Jaccard >= threshold (doc_id_a < doc_id_b).

    The flagship composition end to end (D6): banded candidates via
    ``candidate_pairs`` (salting + stopbands included), then the
    ``verify_candidates`` signature JOIN cascade — signatures arrive at
    the verifier by hash join on the pair ids, never via a driver-side
    collect, so the op holds at corpus scale (the round-1 version
    broadcast the whole signature matrix)."""
    from .stages.blocking import candidate_pairs
    from .stages.scoring import verify_candidates
    from .util import auto_join_partitions

    cfg = BlockingConfig()
    feats = _doc_features(sf_dir, ngram, cfg).materialize()
    pairs = candidate_pairs(feats, cfg)
    verified = verify_candidates(
        pairs,
        feats,
        ScoringConfig(jaccard_accept=threshold),
        auto_join_partitions(None, feats.count()),
    )

    def fin(t: pa.Table) -> pa.Table:
        est = round_half_away(t["est_jaccard"].to_numpy().astype(np.float64), 4)
        return pa.table(
            {
                "doc_id_a": t["id_a"],
                "doc_id_b": t["id_b"],
                "est_jaccard": pa.array(est),
            }
        )

    return verified.map_batches(fin, batch_format="pyarrow")


def doc_hash_split(sf_dir: str, m: int = 4, r: int = 1):
    """S12 ``move_tokens`` recast (gathers.py:13-54, F8 filename-hash
    predicate): deterministic hash-mod shard selection — keep rows whose
    ``md5(key) % m == r``.  Mirrored exactly by DuckDB's md5 + hex cast."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        from .functions.hashing import string_array_buffers

        # id -> decimal string via one vectorized Arrow cast; only the
        # md5 call itself is per-row (required: the oracle is DuckDB's
        # md5(CAST(doc_id AS VARCHAR)), and md5 has no batch form)
        s = pa.compute.cast(t["doc_id"], pa.string())
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        data, offsets = string_array_buffers(s)
        mv = memoryview(data)
        md5 = hashlib.md5
        h = np.fromiter(
            (
                int.from_bytes(md5(mv[offsets[i] : offsets[i + 1]]).digest()[:4], "big")
                for i in range(len(t))
            ),
            dtype=np.uint64,
            count=len(t),
        )
        return t.filter(pa.array((h % m) == r))

    return ds.map_batches(f, batch_format="pyarrow")


def doc_shuffled_cap(sf_dir: str, n: int = 100):
    """O9 cap + random top-up (gathers.py:30-54): global shuffle then
    limit — a uniform random sample of n rows, streaming.  No SQL oracle
    (row membership is seed-dependent); tests assert count + subset."""
    return _docs(sf_dir, ["doc_id", "n_chars"]).random_shuffle(seed=7).limit(n)


def doc_global_shuffle(sf_dir: str):
    """O5 global shuffle — the reference's ``Mixer`` approximates it with
    repeated buffered local shuffles (``multilingual_dataset/mixer.py:13-100``);
    Ray Data's ``random_shuffle`` is the exact distributed shuffle in one
    call.  The oracle is the Mixer's own test invariant (multiset
    conservation, ``tests/multilingual_dataset/test_mixer.py:34-66``):
    the driver's hash compare is order-insensitive, so an identity
    SELECT passes iff the shuffle preserved the row multiset exactly."""
    ds = _docs(sf_dir, ["doc_id", "n_chars"])
    return ds.random_shuffle(seed=42)


def doc_quality_filter(
    sf_dir: str, min_words: int = 5, min_alpha: float = 0.5, max_digit: float = 0.3
):
    """C4-style quality gate: keep documents passing word-count and
    character-class-ratio thresholds (the cleaning pass an LLM data
    pipeline runs before training).  Threshold comparisons are on the
    UNROUNDED ratios — both engines divide the same integers, so the
    boundary is bit-identical; displayed ratios use oracle rounding."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        n_chars = pc.utf8_length(t["text"])
        n_words = pc.count_substring_regex(t["text"], TS.TOKEN_RE)
        n_alpha = pc.count_substring_regex(t["text"], r"[A-Za-z]")
        n_digit = pc.count_substring_regex(t["text"], r"[0-9]")
        denom = pc.cast(pc.max_element_wise(n_chars, pa.scalar(1, n_chars.type)), pa.float64())
        alpha = pc.divide(pc.cast(n_alpha, pa.float64()), denom)
        digit = pc.divide(pc.cast(n_digit, pa.float64()), denom)
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(n_words, pa.scalar(min_words, n_words.type)),
                pc.greater_equal(alpha, pa.scalar(min_alpha)),
            ),
            pc.less_equal(digit, pa.scalar(max_digit)),
        )
        rnd = lambda x: pc.round(x, ndigits=4, round_mode="half_towards_infinity")
        out = pa.table(
            {
                "doc_id": t["doc_id"],
                "n_words": pc.cast(n_words, pa.int64()),
                "alpha_ratio": rnd(alpha),
                "digit_ratio": rnd(digit),
            }
        )
        return out.filter(keep)

    return ds.map_batches(f, batch_format="pyarrow")


def doc_dedup_keep(sf_dir: str, threshold: float = 0.7):
    """End-to-end near-dup REMOVAL: MinHash-LSH pairs at est-Jaccard >=
    threshold -> connected components -> keep the min doc_id of each
    component (plus all untouched docs) — the T3 "first wins" rule made
    deterministic, composed from the flagship's own blocking +
    clustering stages.  Returns the surviving (doc_id, text_sha) set an
    LLM pipeline would train on."""
    from .config import ClusteringConfig
    from .stages.clustering import connected_components
    from .stages.scoring import JOIN_AGG_ARGS
    from .util import auto_join_partitions

    pairs = doc_minhash_lsh_pairs(sf_dir, threshold=threshold)
    edges = pairs.map_batches(
        lambda t: pa.table({"u": t["doc_id_a"], "v": t["doc_id_b"]}),
        batch_format="pyarrow",
    ).materialize()  # consumed twice: the count below and connected_components

    def hash_batch(t: pa.Table) -> pa.Table:
        from .functions.hashing import sha256_hex

        return pa.table({"doc_id": t["doc_id"], "text_sha": sha256_hex(t["text"])})

    hashed = _docs(sf_dir, ["doc_id", "text"]).map_batches(hash_batch, batch_format="pyarrow")
    if edges.count() == 0:  # no near-dupes anywhere: everything survives
        return hashed
    comp = connected_components(edges, ClusteringConfig())

    # non-representative members (record_id != component min) are removed
    def to_removed(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.not_equal(t["record_id"], t["cluster_id"]))
        return pa.table(
            {
                "doc_id": kept["record_id"],
                "is_removed": pa.array(np.ones(len(kept), dtype=bool)),
            }
        )

    removed = comp.map_batches(to_removed, batch_format="pyarrow")
    # anti-join by left-outer + null filter: scale-honest (the removed
    # side can be a large fraction of the corpus, so no broadcast)
    joined = hashed.join(
        removed,
        join_type="left_outer",
        num_partitions=auto_join_partitions(None),
        on=("doc_id",),
        aggregator_ray_remote_args=JOIN_AGG_ARGS,
    )
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t["is_removed"])).select(["doc_id", "text_sha"]),
        batch_format="pyarrow",
    )


def doc_heavy_hitter_words(sf_dir: str, k: int = 100):
    """Exact corpus-wide heavy hitters (words with count*k > N) via a
    two-phase distributed sketch — the A9 streaming frequency counter at
    scale, without ever shuffling the full word stream:

    1. **candidates**: per batch, emit words that are locally heavy
       (count_b * k > n_b).  Pigeonhole guarantees any globally heavy
       word is locally heavy in >= 1 batch, so the union (<= k words per
       batch, collected + broadcast) is a SUPERSET of the answer;
    2. **verify**: a second pass counts ONLY the candidate words
       (broadcast ``is_in`` semi-join, partial counts per batch, small
       groupby) and filters by the exact global threshold.

    The output is therefore exact and SQL-checkable, while the wide
    word stream (N tokens) never enters a shuffle — only <= k
    candidates per batch do."""
    import ray as _ray
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def word_lists(t: pa.Table):
        return pc.split_pattern_regex(
            pc.replace_substring_regex(t["text"], pattern=r"[^A-Za-z0-9]+", replacement=" "),
            pattern=" ",
        )

    def local_counts(t: pa.Table) -> pa.Table:
        lists = word_lists(t)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        words = pc.drop_null(flat)
        words = words.filter(pc.greater(pc.utf8_length(words), 0))
        vc = words.value_counts()
        w = vc.field("values")
        c = vc.field("counts").to_numpy()
        n_b = int(c.sum())
        keep = c * k > n_b
        return pa.table(
            {
                "word": w.filter(pa.array(keep)),
                "n_local": pa.array(c[keep]),
                "n_batch": pa.array(np.full(int(keep.sum()), n_b, dtype=np.int64)),
            }
        )

    phase1 = ds.map_batches(local_counts, batch_format="pyarrow").materialize()
    # total word count N: its own cheap scalar aggregate
    counts_only = ds.map_batches(
        lambda t: pa.table(
            {"n": pc.cast(pa.array([pc.sum(TS.token_count(t["text"])).as_py() or 0]), pa.int64())}
        ),
        batch_format="pyarrow",
    )
    n_total = int(counts_only.aggregate(Sum("n"))["sum(n)"] or 0)
    # candidate set: bounded by <= k words per batch — a genuine small
    # side, assembled worker-side and broadcast by ref (never collected
    # on the driver)
    from .util import unique_column_ref

    cand_ref = unique_column_ref(phase1, "word")

    def verify_counts(t: pa.Table) -> pa.Table:
        cand_set = _ray.get(cand_ref)
        lists = word_lists(t)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.drop_null(lists.flatten())
        flat = flat.filter(pc.is_in(flat, value_set=cand_set))
        vc = flat.value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "n_occurrences": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(verify_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n_occurrences", alias_name="n_occurrences"))
    )
    return agg.map_batches(
        lambda t: t.filter(
            pc.greater(pc.multiply(t["n_occurrences"], pa.scalar(k, pa.int64())),
                       pa.scalar(n_total, pa.int64()))
        ).select(["word", "n_occurrences"]),
        batch_format="pyarrow",
    )


def doc_length_histogram(sf_dir: str):
    """document length histogram in 100-char buckets (quality telemetry,
    StatisticsLogger analogue A9/T9)."""
    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        bucket = pc.multiply(
            pc.cast(pc.floor(pc.divide(pc.cast(t["n_chars"], pa.float64()), 100.0)), pa.int64()),
            pa.scalar(100, pa.int64()),
        )
        return pa.table({"len_bucket": bucket})

    return ds.map_batches(f, batch_format="pyarrow").groupby("len_bucket").aggregate(
        Count(alias_name="n_docs")
    )


def doc_simhash_pairs(sf_dir: str, max_hamming: int = 8):
    """SimHash near-dup pairs: Hamming(simhash_a, simhash_b) <= K.

    Distributed by the pigeonhole block trick (Charikar simhash +
    Manku-et-al chunk blocking): the 64-bit fingerprint is split into
    ``K + 1`` chunks, so any pair within Hamming distance K leaves at
    least one chunk untouched and must agree exactly on it — grouping by
    (chunk_id, chunk_value) is therefore a COMPLETE candidate set for
    the advertised K (the round-1 4-chunk version silently missed
    distances 4-8).  Completeness requires the pair emitter to run
    UNSALTED and UNCAPPED here (salting pairs only within a salt
    subgroup; stopbands drop runs outright), so this op uses a
    BlockingConfig with those limits disabled: chunk-value runs grow
    ~N/2^w for w-bit chunks (w ≈ 64/(K+1)), making the per-run pair
    work quadratic in N/2^w.  That is the honest price of an exact
    Hamming<=K contract at K=8; at corpus scale choose a smaller K
    (wider chunks) or the capped-but-lossy MinHash path
    (:func:`doc_minhash_lsh_pairs`).
    """
    _no_limit = 1 << 31
    cfg = BlockingConfig(
        salt_limit=_no_limit,
        stopband_limit=_no_limit,
        max_pairs_per_group=1 << 62,
    )
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fingerprints(t: pa.Table) -> pa.Table:
        v, off = word_ngram_hashes(t["text"], n=2)
        sh = simhash64(v, off)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "simhash": pa.array(sh.view(np.int64)),
            }
        )

    fps = ds.map_batches(fingerprints, batch_format="pyarrow").materialize()

    n_chunks = max_hamming + 1
    base, rem = divmod(64, n_chunks)
    widths = [base + 1] * rem + [base] * (n_chunks - rem)

    def expand(t: pa.Table) -> pa.Table:
        sh = t["simhash"].to_numpy().view(np.uint64)
        did = t["doc_id"].to_numpy()
        keys = []
        shift = 0
        with np.errstate(over="ignore"):
            for c, w in enumerate(widths):
                val = (sh >> np.uint64(shift)) & np.uint64((1 << w) - 1)
                shift += w
                # mix chunk index into the key so identical values in
                # different chunk positions land in different bands
                keys.append(splitmix64(val ^ splitmix64(np.full_like(val, c))))
        key = np.concatenate(keys)
        rid = np.tile(did, n_chunks)
        return pa.table(
            {
                "record_id": pa.array(rid),
                "band_hash": pa.array(key.view(np.int64)),
                "bucket": pa.array((key % U64(cfg.num_buckets)).astype(np.int32)),
            }
        )

    cands = bucket_pairs(fps.map_batches(expand, batch_format="pyarrow"), cfg)

    # exact verify: fingerprints arrive by hash join (8 B/row), scale-safe
    from .stages.scoring import JOIN_AGG_ARGS, _rename
    from .util import auto_join_partitions

    nparts = auto_join_partitions(None, fps.count())
    fa = _rename(fps, {"doc_id": "id_a", "simhash": "fp_a"}, ["doc_id", "simhash"])
    fb = _rename(fps, {"doc_id": "id_b", "simhash": "fp_b"}, ["doc_id", "simhash"])
    j = cands.join(fa, join_type="inner", num_partitions=nparts, on=("id_a",),
                   aggregator_ray_remote_args=JOIN_AGG_ARGS)
    j = j.join(fb, join_type="inner", num_partitions=nparts, on=("id_b",),
               aggregator_ray_remote_args=JOIN_AGG_ARGS)

    def verify(t: pa.Table) -> pa.Table:
        from .functions.simhash import hamming64

        d = hamming64(t["fp_a"].to_numpy().view(np.uint64), t["fp_b"].to_numpy().view(np.uint64))
        keep = d <= max_hamming
        return pa.table(
            {
                "doc_id_a": pa.array(t["id_a"].to_numpy()[keep]),
                "doc_id_b": pa.array(t["id_b"].to_numpy()[keep]),
                "hamming": pa.array(d[keep].astype(np.int64)),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


def _ragged_unique(values: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique each row of a ragged uint64 array, fully vectorized
    (one global lexsort, no per-row Python)."""
    n = len(offsets) - 1
    counts = (offsets[1:] - offsets[:-1]).astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((values, row_of))
    v, r = values[order], row_of[order]
    keep = np.ones(len(v), dtype=bool)
    if len(v) > 1:
        keep[1:] = (np.diff(r) != 0) | (v[1:] != v[:-1])
    v, r = v[keep], r[keep]
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=n), out=out_off[1:])
    return v, out_off


def _ragged_binary(values: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Ragged uint64 rows -> variable-width binary column (Acero-joinable)."""
    n = len(offsets) - 1
    byte_offsets = offsets.astype(np.int64) * 8
    if len(byte_offsets) and byte_offsets[-1] >= 2**31:
        # pa.binary() carries int32 offsets; a batch this large would
        # silently wrap.  Batches are block-sized, so this fires only on
        # a misconfigured block size — fail loudly instead of corrupting.
        raise ValueError(
            f"ragged binary batch of {byte_offsets[-1]} bytes overflows int32 "
            "offsets; reduce the block/batch size for this stage"
        )
    data = pa.py_buffer(np.ascontiguousarray(values.astype(np.uint64)).tobytes())
    off32 = pa.py_buffer(byte_offsets.astype(np.int32).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, off32, data])


def _ragged_from_binary(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    buffers = col.buffers()
    off = np.frombuffer(buffers[1], dtype=np.int32)[col.offset : col.offset + len(col) + 1]
    start = off[0]
    values = np.frombuffer(buffers[2], dtype=np.uint64, offset=int(start),
                           count=int((off[-1] - start)) // 8)
    return values, ((off - start) // 8).astype(np.int64)


def doc_ngram_jaccard_pairs(sf_dir: str, n: int = 2, threshold: float = 0.3):
    """EXACT word-n-gram Jaccard near-dup pairs (doc_id_a < doc_id_b,
    jaccard rounded 4): LSH banding proposes candidates (signature
    pre-filter at est >= 0.15 kills band noise cheaply), then the exact
    verifier JOINS each side's sorted-unique gram set (binary-encoded
    ragged uint64) onto the pairs and intersects with one global
    sort+bincount per batch — co-partitioned state, vectorized, no
    driver-held set dictionary, no per-pair Python loop."""
    from .stages.blocking import candidate_pairs
    from .stages.scoring import JOIN_AGG_ARGS, _rename, verify_candidates
    from .util import auto_join_partitions

    cfg = BlockingConfig()
    feats = _doc_features(sf_dir, n, cfg).materialize()
    cands = candidate_pairs(feats, cfg)
    nparts = auto_join_partitions(None, feats.count())
    pairs = verify_candidates(cands, feats, ScoringConfig(jaccard_accept=0.15), nparts)

    def gram_sets(t: pa.Table) -> pa.Table:
        v, off = word_ngram_hashes(t["text"], n=n)
        uv, uoff = _ragged_unique(v, off)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "grams": _ragged_binary(uv, uoff),
            }
        )

    grams = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gram_sets, batch_format="pyarrow"
    ).materialize()
    ga = _rename(grams, {"doc_id": "id_a", "grams": "grams_a"}, ["doc_id", "grams"])
    gb = _rename(grams, {"doc_id": "id_b", "grams": "grams_b"}, ["doc_id", "grams"])
    j = pairs.join(ga, join_type="inner", num_partitions=nparts, on=("id_a",),
                   aggregator_ray_remote_args=JOIN_AGG_ARGS)
    j = j.join(gb, join_type="inner", num_partitions=nparts, on=("id_b",),
               aggregator_ray_remote_args=JOIN_AGG_ARGS)

    def exact(t: pa.Table) -> pa.Table:
        va, offa = _ragged_from_binary(t["grams_a"])
        vb, offb = _ragged_from_binary(t["grams_b"])
        p = len(t)
        la = (offa[1:] - offa[:-1]).astype(np.int64)
        lb = (offb[1:] - offb[:-1]).astype(np.int64)
        pid = np.concatenate(
            [np.repeat(np.arange(p, dtype=np.int64), la),
             np.repeat(np.arange(p, dtype=np.int64), lb)]
        )
        vals = np.concatenate([va, vb])
        order = np.lexsort((vals, pid))
        v, q = vals[order], pid[order]
        # each side is unique within itself -> adjacent dups are cross-side
        dup = np.zeros(len(v), dtype=bool)
        if len(v) > 1:
            dup[1:] = (np.diff(q) == 0) & (v[1:] == v[:-1])
        inter = np.bincount(q[dup], minlength=p)
        union = np.maximum(la + lb - inter, 1)
        jac = inter / union
        keep = jac >= threshold
        return pa.table(
            {
                "doc_id_a": pa.array(t["id_a"].to_numpy()[keep]),
                "doc_id_b": pa.array(t["id_b"].to_numpy()[keep]),
                "jaccard": pa.array(round_half_away(jac[keep], 4)),
            }
        )

    return j.map_batches(exact, batch_format="pyarrow")


def doc_mask_stopwords(sf_dir: str, replacement: str = "<MASK>"):
    """M10 standalone text masking: replace English stopword tokens with
    a mask token and count the replacements — the content-redaction /
    PII-masking stage shape, as one vectorized RE2 kernel per batch
    (shared regex dialect with the DuckDB oracle, like doc_quality)."""
    pat = r"\b(the|and|of|to|in|a)\b"
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        text = t["text"]
        masked = pa.compute.replace_substring_regex(
            text, pattern=pat, replacement=replacement
        )
        n = pa.compute.count_substring_regex(text, pattern=pat)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "masked_text": masked,
                "n_masked": pa.compute.cast(n, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def doc_tfidf_top_terms(sf_dir: str, topk: int = 3):
    """Per-document top-k terms by TF-IDF (``tf · ln(N/df)``) — the
    classic corpus-statistics op a training-data pipeline runs before
    term-based filtering or keyword extraction.

    Scale plan (three narrow exchanges, the wide text never shuffles):

    1. **tf** is exact PER BATCH with no shuffle at all — a document
       never spans batches, so per-batch (doc, word) Arrow group-counts
       are final term frequencies;
    2. **df** sums per-batch (word, n_docs) partials through one
       vocabulary-sized groupby ((doc, word) is unique globally, so
       rows-per-word partials add up to distinct-doc counts);
    3. df is attached back BY JOIN on ``word`` (the generic path — a
       broadcast lookup only works while the vocabulary fits in one
       heap, which a 100 TB corpus's does not), then one doc-keyed
       ``map_groups`` picks top-k per doc (groups are per-document,
       bounded by doc length).

    Ranking is on the UNROUNDED score with a (score desc, term asc)
    tie-break shared with the SQL oracle; only the emitted score is
    rounded.  Tokenization shares ``TOKEN_RE`` with every other text
    op."""
    from .util import auto_join_partitions, round_half_away

    ds = _docs(sf_dir, ["doc_id", "text"])

    def tf_counts(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.replace_substring_regex(
                t["text"], pattern=r"[^A-Za-z0-9]+", replacement=" "
            ),
            pattern=" ",
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        # list_value_length (not offsets-diff): correct for zero-copy
        # sliced batches, where .offsets still addresses the parent block
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), lens)
        mask = pc.and_(pc.is_valid(flat), pc.greater(pc.utf8_length(flat), 0))
        keep = mask.to_numpy(zero_copy_only=False)
        pairs = pa.table({"doc_id": pa.array(doc_ids[keep]), "word": flat.filter(mask)})
        g = pairs.group_by(["doc_id", "word"]).aggregate([([], "count_all")])
        return g.rename_columns(["doc_id", "word", "tf"])

    tf = ds.map_batches(tf_counts, batch_format="pyarrow").materialize()
    n_docs = ds.count()

    def df_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("word").aggregate([([], "count_all")])
        return g.rename_columns(["word", "n"])

    df = (
        tf.map_batches(df_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(RSum("n", alias_name="df"))
    )
    joined = tf.join(
        df,
        join_type="inner",
        num_partitions=auto_join_partitions(None, tf.count()),
        on=("word",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def score(t: pa.Table) -> pa.Table:
        s = t["tf"].to_numpy(zero_copy_only=False) * np.log(
            float(n_docs) / t["df"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {"doc_id": t["doc_id"], "term": t["word"], "s": pa.array(s)}
        )

    def top(g: pa.Table) -> pa.Table:
        s = g["s"].to_numpy(zero_copy_only=False)
        terms = g["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, -s))[:topk]
        return pa.table(
            {
                "doc_id": g["doc_id"].take(pa.array(order)),
                "term": g["term"].take(pa.array(order)),
                "tfidf": pa.array(round_half_away(s[order], 4)),
            }
        )

    return (
        joined.map_batches(score, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(top, batch_format="pyarrow")
    )


def doc_quality_pct_filter(sf_dir: str, pct: float = 0.2):
    """Percentile-relative quality gate: keep documents whose rounded
    alpha ratio is >= the corpus-wide ``pct`` quantile — the adaptive
    variant of ``doc_quality_filter``'s fixed thresholds (data-quality
    pipelines prefer "drop the worst X%" to absolute cutoffs because
    the score distribution drifts with the crawl mix).

    One text scan total: the scan emits (doc_id, alpha4) where alpha4
    is rounded to 4 decimals — a BOUNDED domain of <= 10,001 values —
    so the exact threshold comes from a value-count histogram whose
    shuffle payload is domain-sized, row-count-independent (the
    ``grouped_quantile`` plan, global).  The tiny histogram is pulled
    to the driver (<= 10k rows, the same small-side contract as
    ``broadcast_join``) to interpolate the DuckDB-``quantile_cont``
    threshold; the filter then streams over the cached score table
    without re-reading text."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def scores(t: pa.Table) -> pa.Table:
        n_alpha = pc.count_substring_regex(t["text"], r"[A-Za-z]")
        n_chars = pc.utf8_length(t["text"])
        denom = pc.cast(
            pc.max_element_wise(n_chars, pa.scalar(1, n_chars.type)),
            pa.float64(),
        )
        alpha = pc.divide(pc.cast(n_alpha, pa.float64()), denom)
        alpha4 = pc.round(alpha, ndigits=4, round_mode="half_towards_infinity")
        return pa.table({"doc_id": t["doc_id"], "alpha4": alpha4})

    sc = ds.map_batches(scores, batch_format="pyarrow").materialize()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("alpha4").aggregate([([], "count_all")])
        return g.rename_columns(["alpha4", "n"])

    hist = (
        sc.map_batches(partial, batch_format="pyarrow")
        .groupby("alpha4")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("alpha4")
    )
    vals = hist["alpha4"].to_numpy(np.float64)
    cum = hist["n"].to_numpy(np.int64).cumsum()
    n = int(cum[-1])
    pos = pct * (n - 1)
    lo_i, hi_i = int(np.floor(pos)), int(np.ceil(pos))
    v_lo = vals[np.searchsorted(cum, lo_i, side="right")]
    v_hi = vals[np.searchsorted(cum, hi_i, side="right")]
    thr = float(v_lo + (pos - lo_i) * (v_hi - v_lo))

    return sc.map_batches(
        lambda t: t.filter(pc.greater_equal(t["alpha4"], pa.scalar(thr))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_dup_ngram_fraction(sf_dir: str, n: int = 5):
    """Gopher-style within-document repetition signal: per doc the
    fraction of word ``n``-gram occurrences that repeat an n-gram seen
    earlier in the SAME document (``1 - distinct/total``; 0.0 when the
    doc has fewer than ``n`` words), plus the n-gram count.

    Fully per-doc and shuffle-free: one ``map_batches`` pass.  Exact
    distinctness without materializing gram strings — words are
    batch-locally dictionary-encoded and grams compared as int tuples
    via one lexsort + run detection over the whole batch (the
    ``_emit_pairs_for_bucket`` idiom).  Tokenization shares ``TOKEN_RE``
    with every other text op."""
    from .util import round_half_away

    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.replace_substring_regex(
                t["text"], pattern=r"[^A-Za-z0-9]+", replacement=" "
            ),
            pattern=" ",
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(t), dtype=np.int64), lens)
        valid = pc.and_(pc.is_valid(flat), pc.greater(pc.utf8_length(flat), 0))
        keep = valid.to_numpy(zero_copy_only=False)
        words = flat.filter(valid)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        codes = words.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        codes = codes.astype(np.int64, copy=False)
        docs = doc_idx[keep]  # non-decreasing: flatten order groups by row

        n_rows = len(t)
        total = np.zeros(n_rows, dtype=np.int64)
        distinct = np.zeros(n_rows, dtype=np.int64)
        if len(codes) >= n:
            grams = np.lib.stride_tricks.sliding_window_view(codes, n)
            starts = docs[: len(codes) - n + 1] == docs[n - 1 :]
            grams = grams[starts]
            gdoc = docs[: len(codes) - n + 1][starts]
            total = np.bincount(gdoc, minlength=n_rows)
            if len(grams):
                order = np.lexsort(tuple(grams[:, j] for j in range(n - 1, -1, -1)) + (gdoc,))
                gs, ds_ = grams[order], gdoc[order]
                new = np.ones(len(gs), dtype=bool)
                new[1:] = (ds_[1:] != ds_[:-1]) | np.any(gs[1:] != gs[:-1], axis=1)
                distinct = np.bincount(ds_[new], minlength=n_rows)
        frac = np.zeros(n_rows, dtype=np.float64)
        nz = total > 0
        frac[nz] = 1.0 - distinct[nz] / total[nz]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": pa.array(total.astype(np.int64)),
                "dup_frac": pa.array(round_half_away(frac, 6)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# --- PMI collocations (corpus-level bigram association) ---------------------
def doc_pmi_bigrams(sf_dir: str, min_pairs: int = 5):
    """Corpus-wide PMI collocations: for every adjacent word pair seen
    at least ``min_pairs`` times, ``ln((c_xy/M) / ((c_x/N)(c_y/N)))``
    over unigram/bigram token totals — the association statistic a
    training-data pipeline uses to mine multi-word terms (same
    count-then-join dataflow as :func:`doc_tfidf_top_terms`'s df
    attachment; tokenization shares ``TOKEN_RE`` with every text op).

    Scale shape: ONE text scan emits per-batch partial counts for
    unigrams, bigrams AND the two grand totals (ridden as reserved
    empty-string keys, so N and M need no second scan); the shuffle is
    vocab-sized.  Rare bigrams are dropped right after the combine —
    BEFORE the materialize — so the held set is bounded by the frequent-
    bigram vocabulary, and unigram counts are attached BY JOIN (like the
    tf-idf df table, a 100-TB vocabulary never transits the driver)."""
    from .util import auto_join_partitions

    ds = _docs(sf_dir, ["text"])

    def partials(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.replace_substring_regex(
                t["text"], pattern=r"[^A-Za-z0-9]+", replacement=" "
            ),
            pattern=" ",
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        docix = np.repeat(np.arange(len(t), dtype=np.int64), lens)
        mask = pc.and_(pc.is_valid(flat), pc.greater(pc.utf8_length(flat), 0))
        keep = mask.to_numpy(zero_copy_only=False)
        words = flat.filter(mask).to_numpy(zero_copy_only=False)
        docix = docix[keep]
        adj = docix[1:] == docix[:-1]
        w1 = words[:-1][adj]
        w2 = words[1:][adj]
        # explicit string type: pa.array on an EMPTY object ndarray infers
        # null type, which breaks pa.concat_tables schema unification on
        # batches of short/empty documents
        tables = [
            pa.table(
                {
                    "w1": pa.array(words, pa.string()),
                    "w2": pa.array(np.full(len(words), "", dtype=object), pa.string()),
                }
            ),
            pa.table({"w1": pa.array(w1, pa.string()), "w2": pa.array(w2, pa.string())}),
        ]
        both = pa.concat_tables(tables)
        g = both.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        g = g.rename_columns(["w1", "w2", "cnt"])
        # grand totals ride the shuffle as reserved keys ('' is not a word)
        totals = pa.table(
            {
                "w1": pa.array(["", ""]),
                "w2": pa.array(["", "*"]),
                "cnt": pa.array([len(words), int(adj.sum())], pa.int64()),
            }
        )
        return pa.concat_tables([g.set_column(2, "cnt", pc.cast(g["cnt"], pa.int64())), totals])

    counts = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(RSum("cnt", alias_name="cnt"))
    )

    def prune(t: pa.Table) -> pa.Table:
        is_uni = pc.equal(t["w2"], pa.scalar(""))
        is_total = pc.equal(t["w1"], pa.scalar(""))
        frequent = pc.greater_equal(t["cnt"], pa.scalar(min_pairs, pa.int64()))
        return t.filter(pc.or_(pc.or_(is_uni, is_total), frequent))

    from .util import drop_schemaless_blocks

    # drop the groupby's zero-column empty blocks up front (they pass
    # through map_batches untouched and break the unigram-attach joins
    # on near-empty corpora — see drop_schemaless_blocks)
    kept = drop_schemaless_blocks(
        counts.map_batches(prune, batch_format="pyarrow")
    )

    tot = {
        r["w2"]: r["cnt"]
        for r in kept.map_batches(
            lambda t: t.filter(pc.equal(t["w1"], pa.scalar(""))),
            batch_format="pyarrow",
        ).take(4)
    }
    n_tokens, n_bigrams = float(tot.get("", 0)), float(tot.get("*", 0))
    if n_bigrams == 0:
        # empty / token-free corpus: return an empty typed table instead of
        # a KeyError (the reserved-key totals rows never materialized)
        return ray.data.from_arrow(
            pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "n_pairs": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        )

    def split_uni(name_w: str, name_c: str):
        def f(t: pa.Table) -> pa.Table:
            m = pc.and_(pc.equal(t["w2"], pa.scalar("")), pc.not_equal(t["w1"], pa.scalar("")))
            u = t.filter(m)
            return pa.table({name_w: u["w1"], name_c: u["cnt"]})

        return f

    def split_big(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.not_equal(t["w2"], pa.scalar("")), pc.not_equal(t["w1"], pa.scalar("")))
        m = pc.and_(m, pc.not_equal(t["w2"], pa.scalar("*")))
        b = t.filter(m)
        return pa.table({"w1": b["w1"], "w2": b["w2"], "n_pairs": b["cnt"]})

    uni_a = kept.map_batches(split_uni("wa", "c1"), batch_format="pyarrow")
    uni_b = kept.map_batches(split_uni("wb", "c2"), batch_format="pyarrow")
    big = kept.map_batches(split_big, batch_format="pyarrow")

    # Ray 2.49's hash join emits schema-less shards for zero-row input
    # blocks, so a join partition fed only by them dies (FieldRef no
    # match).  At scale the vocab-sized sides occupy every partition;
    # on a tiny corpus force a single partition (where empty typed
    # blocks are handled) and short-circuit when no bigram is frequent.
    if kept.count() < 50_000:
        if big.count() == 0:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "w1": pa.array([], pa.string()),
                        "w2": pa.array([], pa.string()),
                        "n_pairs": pa.array([], pa.int64()),
                        "pmi": pa.array([], pa.float64()),
                    }
                )
            )
        nparts = 1
    else:
        nparts = auto_join_partitions(None)
    j = big.join(
        uni_a,
        join_type="inner",
        num_partitions=nparts,
        on=("w1",),
        right_on=("wa",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    ).join(
        uni_b,
        join_type="inner",
        num_partitions=nparts,
        on=("w2",),
        right_on=("wb",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def pmi(t: pa.Table) -> pa.Table:
        cxy = pc.cast(t["n_pairs"], pa.float64())
        cx = pc.cast(t["c1"], pa.float64())
        cy = pc.cast(t["c2"], pa.float64())
        # same float64 expression tree as the oracle SQL
        val = pc.ln(
            pc.divide(
                pc.divide(cxy, pa.scalar(n_bigrams)),
                pc.multiply(
                    pc.divide(cx, pa.scalar(n_tokens)),
                    pc.divide(cy, pa.scalar(n_tokens)),
                ),
            )
        )
        out = pa.table(
            {
                "w1": t["w1"],
                "w2": t["w2"],
                "n_pairs": t["n_pairs"],
                "pmi": pc.round(val, ndigits=6, round_mode="half_towards_infinity"),
            }
        )
        return out

    return j.map_batches(pmi, batch_format="pyarrow")


# --- benchmark decontamination (broadcast n-gram semi-join) -----------------
def doc_decontaminate(sf_dir: str, mod: int = 97):
    """Benchmark decontamination: flag every training document whose
    word 3-grams overlap a held-out evaluation set (here the docs with
    ``doc_id % mod == 0`` stand in for the benchmark) and count the
    overlapping trigram instances — the standard pre-training hygiene
    pass (GPT-3/PaLM-style 13-gram decontamination, shrunk to trigrams
    so the oracle SQL stays tractable at test scale).

    Scale shape: the benchmark side is small BY DEFINITION (an eval
    suite), so its distinct trigrams are built once, ``ray.put`` once,
    and fetched once per actor (``__init__``) — the broadcast-semi-join
    pattern (qids_remap.py:35-55); the 100-TB training corpus streams
    through one scan with a vectorized ``pc.is_in`` probe and never
    shuffles.  Trigram text (not a hash) is probed so membership is
    exact and SQL-mirrorable."""

    def _trigrams(t: pa.Table):
        """(trigram StringArray, per-trigram doc row index) for a batch."""
        lists = pc.split_pattern_regex(
            pc.replace_substring_regex(
                t["text"], pattern=r"[^A-Za-z0-9]+", replacement=" "
            ),
            pattern=" ",
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        docix = np.repeat(np.arange(len(t), dtype=np.int64), lens)
        mask = pc.and_(pc.is_valid(flat), pc.greater(pc.utf8_length(flat), 0))
        keep = mask.to_numpy(zero_copy_only=False)
        words = flat.filter(mask)
        docix = docix[keep]
        n = len(words)
        if n < 3:
            return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
        same_doc = docix[2:] == docix[:-2]
        tri = pc.binary_join_element_wise(
            words.slice(0, n - 2), words.slice(1, n - 2), words.slice(2, n - 2), " "
        )
        sel = pa.array(same_doc)
        return tri.filter(sel), docix[:-2][same_doc]

    def _mod(col):
        return pc.subtract(col, pc.multiply(pc.divide(col, pa.scalar(mod)), pa.scalar(mod)))

    bench = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.equal(_mod(t["doc_id"]), pa.scalar(0))),
        batch_format="pyarrow",
    )

    def bench_partial(t: pa.Table) -> pa.Table:
        tri, _ = _trigrams(t)
        return pa.table({"g": pc.unique(tri)})

    bench_grams = np.unique(
        np.concatenate(
            [
                b["g"].to_numpy(zero_copy_only=False)
                for b in bench.map_batches(bench_partial, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
            ]
            or [np.empty(0, dtype=object)]
        )
    )
    grams_ref = ray.put(pa.array(bench_grams, pa.string()))

    probe = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.not_equal(_mod(t["doc_id"]), pa.scalar(0))),
        batch_format="pyarrow",
    )

    class Probe:
        def __init__(self, ref):
            self.grams = ray.get(ref)  # once per actor

        def __call__(self, t: pa.Table) -> pa.Table:
            tri, docix = _trigrams(t)
            if len(tri) == 0:
                return pa.table(
                    {"doc_id": pa.array([], pa.int64()), "n_hits": pa.array([], pa.int64())}
                )
            hit = pc.is_in(tri, value_set=self.grams).to_numpy(zero_copy_only=False)
            counts = np.bincount(docix[hit], minlength=len(t))
            rows = np.flatnonzero(counts > 0)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)[rows]
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_hits": pa.array(counts[rows].astype(np.int64)),
                }
            )

    return probe.map_batches(
        Probe, fn_constructor_args=(grams_ref,), batch_format="pyarrow", concurrency=2
    )
