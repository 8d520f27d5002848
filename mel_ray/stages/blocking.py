"""Blocking stage: MinHash-LSH band keys -> candidate pairs.

Candidate-generation recast of the reference's alias table / OLPEAT
(``src/baselines/string_alias_tables/all_languages.py:93-115``,
``src/baselines/olpeat/find_recall.py:76-91``): where the reference
groups by exact mention-string / token-array keys, we group by LSH band
keys so *near*-duplicate content collides (SURVEY.md §2.7 D6 — the
architectural pivot).

Dataflow::

    input share --1 plain task: read, ingest, featurize_batch--> 1 feature block
        (record_id, repo, path, sha256, sig, emb; one chunk per column)

P = ``shuffle_partitions()`` such tasks build the feature table
(pipelines/linkage.py ``featurize_blocks``; :func:`featurize` runs the
same kernel as a Ray Data map), then one of two plans, picked by the
scorer's own threshold (feature rows <=
``ScoringConfig.broadcast_limit_rows``, pipelines/linkage.py ``_link``):

* band-major (:func:`band_major_pairs`, under the limit)::

    feature blocks --1 index task--> (ranks, order, sorted_ids)
    feature blocks + index --G band-range tasks--> G x P pair-key slices
    P slices of one range --1 id-range task--> unique pairs [-> scored]

  The index task (:func:`record_index`) gives every record its dense
  rank among the sorted ``record_id`` s, and a pair travels as one
  int64 key ``rank_a * n + rank_b`` (:func:`check_pair_key_space`).  Rank
  order is id order, so a key sort is the ``(id_a, id_b)`` sort.  Each
  band-range task reads every feature block and owns a contiguous band
  range; it emits the pair keys of its bands, uniques them with one
  sort and cuts them at the P pair-count quantiles of ``id_a``
  (:func:`id_range_bounds`).  Each id-range task uniques its range's
  keys and, in the linkage plan, scores their ranks too (``finish``:
  the broadcast scorer over views of the same feature blocks, which
  finds a rank's row as ``order[rank]``, stages/scoring.py).  No Ray
  Data exchange, and the only barrier is the end of the P id-range
  tasks.
* bucketed (:func:`candidate_pairs`, above it)::

    features --map_batches--> bands (record_id, band_hash, bucket)
    bands --groupby(bucket).map_groups--> candidate pairs (id_a < id_b)
    pairs --groupby(pair bucket).map_groups--> unique pairs

  Its only wide ops are these two bucketed ``groupby`` shuffles over a
  fixed, small number of buckets.

Either way a band run is whole inside one emit call, so both plans run
the same emit kernel over the same runs and give the same pairs and the
same band accounting.  Inside a call everything is NumPy run-detection
over sorted arrays — no per-band Python, no per-row Python.

Skew handling (north rule: "salted band keys to defuse skew"):

* band runs larger than ``salt_limit`` are split into
  ``ceil(size/salt_limit)`` deterministic sub-groups by a salt hash of
  ``record_id`` — pair generation is quadratic per band, so hot bands
  (license/boilerplate content) must be bounded;
* runs larger than ``stopband_limit`` are dropped entirely, the
  stop-"word" cap analogue of the reference's per-token-array top-R cap
  (README.md:117-119).  Every drop, salted run and capped run is
  counted, and the counts go out of band to the run's stats sink
  (state/accounting.py), never into the pair rows.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray.data

from ..config import BlockingConfig, LinkageConfig
from ..functions.embed import embed_strings
from ..functions.hashing import U64, splitmix64
from ..functions.minhash import band_keys, empty_signature_mask, minhash_signature
from ..functions.shingles import line_shingles


def featurize_batch(batch: pa.Table, cfg: BlockingConfig, embed_dim: int, embed_k: int) -> pa.Table:
    """records -> per-record blocking/scoring features (one row per row).

    The kernels run over 128-row slices of the batch and write into one
    ``(rows, num_hashes)`` and one ``(rows, embed_dim)`` matrix, so a
    batch of any size gives one contiguous ``sig`` and ``emb`` column,
    byte-equal to featurizing its slices one at a time."""
    content = batch["content"]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if cfg.content_window is not None:
        # M8/M9: bound per-record shingle/embed work by construction
        content = pa.compute.utf8_slice_codeunits(content, 0, cfg.content_window)
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
    # sig/emb travel as fixed-width binary blobs: joinable by Acero
    # (list payloads are not), decoded zero-copy with np.frombuffer.
    # Compact encodings keep the pair-join shuffle small: minhash slots
    # truncated to uint32 (slot-equality comparisons are unaffected at
    # 2^-32 collision rate), embeddings as float16 (cosine is computed
    # in float32 after upcast — the reference stores fp16 embeddings
    # too, src/utils/embeddings.py:108-111).
    sig = np.empty((len(content), cfg.num_hashes), dtype=np.uint32)
    emb = np.empty((len(content), embed_dim), dtype=np.float16)
    # The slice bounds the kernels' transient working set: about 25 bytes
    # per content byte (embed holds three uint64 arrays over every byte),
    # a tracemalloc peak of 5.1 MB median / 7.3 MB max per 128-row
    # full_link slice.  Small slices keep each worker's arrays in its
    # warm malloc pool instead of faulting fresh pages every call
    # (first-touch is ~100 MB/s on cgroup-limited hosts).  Measured on
    # perfbench full_link, 4 CPUs, alternating runs, as the batch size of
    # the featurize map that preceded the slicing: 256 read
    # featurize.cpu_s 2.25-2.42 s against 1.94-2.16 s for 128 (traced,
    # seeds 601-603) and untraced cpu_s 6.20 against 5.96 s, peak_rss_mb
    # 2,906 against 2,817 (medians, seeds 601-605), so 128 stays.
    step = 128
    for s in range(0, len(content), step):
        part = content.slice(s, step)
        values, offsets = line_shingles(part)
        sig[s : s + len(part)] = minhash_signature(values, offsets, cfg.num_hashes) & U64(0xFFFFFFFF)
        emb[s : s + len(part)] = embed_strings(part, dim=embed_dim, k=embed_k)
    return pa.table(
        {
            "record_id": batch["record_id"],
            "repo": batch["repo"],
            "path": batch["path"],
            # sha256 rides the features table (64B/row next to 1KB of
            # sig+emb) so the cluster-assign stage reads it from the
            # MATERIALIZED features instead of re-executing the whole
            # ingest scan; every downstream join projects it away.
            "sha256": batch["sha256"],
            "sig": _binary_rows(sig),
            "emb": _binary_rows(emb),
        }
    )


def featurize(ds: "ray.data.Dataset", cfg: LinkageConfig) -> "ray.data.Dataset":
    """records -> features: :func:`featurize_batch` over each block of
    the dataset (the linkage pipeline builds its features with plain
    tasks instead, pipelines/linkage.py ``featurize_blocks``)."""
    return ds.map_batches(
        lambda b: featurize_batch(b, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def _binary_rows(mat: np.ndarray) -> pa.Array:
    """(N, W)-matrix -> binary array of N rows of W*itemsize bytes, zero-copy."""
    n, _ = mat.shape
    row_bytes = mat.dtype.itemsize * mat.shape[1]
    data = pa.py_buffer(mat.tobytes())
    offsets = pa.py_buffer(np.arange(0, (n + 1) * row_bytes, row_bytes, dtype=np.int32).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, offsets, data])


def binary_matrix(col: pa.Array | pa.ChunkedArray, dtype) -> np.ndarray:
    """Inverse of :func:`_binary_rows`: binary column -> (N, W) ndarray view.

    Single-chunk ChunkedArrays take ``chunk(0)`` — pyarrow 16's
    ``combine_chunks()`` COPIES even when there is only one chunk
    (measured 0.2 s / 256 MB solo, and the copy's first-touch page
    faults collapse ~20x under concurrent workers building broadcast
    views on this cgroup-limited host: 0.65 s -> 8-19 s per worker).
    The fast path keeps the returned ndarray a true zero-copy view
    over the (plasma-shared) Arrow buffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    buffers = col.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int32)[col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(buffers[2], dtype=dtype)
    itemsize = np.dtype(dtype).itemsize
    width = (offsets[1] - offsets[0]) // itemsize if len(col) else 0
    start = offsets[0] // itemsize
    return data[start : start + len(col) * width].reshape(len(col), width)


def expand_bands_batch(
    batch: pa.Table, cfg: BlockingConfig, num_buckets: int | None = None
) -> pa.Table:
    """features -> b band rows per record (the flat_map row expansion,
    analogue of DaMuELLinkProcessor's entity->links expansion,
    reference ``loaders/damuel.py:74-116``) of the bucketed plan; the
    band-major plan folds each task's bands in :func:`_band_range_pairs`.

    Shingle-less records (all-sentinel signatures) are dropped before
    banding: their signatures are identical across rows, so they would
    otherwise collide in every band and verify at est_jaccard=1.0
    despite true Jaccard 0.

    ``num_buckets`` (default ``cfg.num_buckets``) is the exchange key
    granularity: the downstream ``map_groups`` makes one emit call, and
    one accounting round trip, per bucket.  :func:`candidate_pairs`
    passes ``min(cfg.num_buckets, 8 * shuffle_partitions())``, so each
    shuffle partition gets about 8 calls instead of 64 (512 per-group
    calls, each paying slice + table construction + an accounting round
    trip, were measured as the emit phase's dominant cost at 8 CPUs).
    The emit kernel batches all band runs in a group, so bucket
    granularity is purely a balance knob, and per-run size is already
    bounded by ``stopband_limit``."""
    sig32 = binary_matrix(batch["sig"], np.uint32)
    nonempty = ~empty_signature_mask(sig32)
    if not nonempty.all():
        sig32 = sig32[nonempty]
        batch = batch.filter(pa.array(nonempty))
    band_id, band_hash = band_keys(sig32.astype(np.uint64), cfg.num_bands)
    rid = np.repeat(batch["record_id"].to_numpy(), cfg.num_bands)
    bucket = (band_hash % U64(num_buckets or cfg.num_buckets)).astype(np.int32)
    return pa.table(
        {
            "record_id": pa.array(rid),
            "band_hash": pa.array(band_hash.view(np.int64)),
            "bucket": pa.array(bucket),
        }
    )


BAND_COUNTS = ("dropped_bands", "salted_bands", "capped_groups")


def _emit_pairs_for_bucket(
    group: pa.Table, cfg: BlockingConfig, ids: np.ndarray | None = None
) -> tuple[pa.Table, dict]:
    """Vectorized pair emission for all band runs inside one bucket ->
    (pairs ``id_a < id_b``, band counts keyed by :data:`BAND_COUNTS`).

    With ``ids`` (the sorted record ids of :func:`record_index`), the
    ``record_id`` column holds dense ranks into ``ids`` and the pairs
    come out as ranks: rank order is id order, so runs, caps and
    stopbands are the same, and salt sub-groups hash the real
    ``ids[rank]``, so the pairs are the id-space pairs mapped to ranks.

    Arrow-native in AND out: returning a pandas frame would re-attach
    pandas schema metadata to the block, which makes the schema
    unhashable and defeats Ray's schema dedup in every downstream
    reduce (the "Failed to hash the schemas" log spam)."""
    bh = group["band_hash"].to_numpy()
    rid = group["record_id"].to_numpy()
    order = np.lexsort((rid, bh))
    bh, rid = bh[order], rid[order]
    # dedup (band, record) duplicates, then find run boundaries per band hash
    keep = np.ones(len(bh), dtype=bool)
    keep[1:] = (np.diff(bh) != 0) | (np.diff(rid) != 0)
    bh, rid = bh[keep], rid[keep]
    change = np.flatnonzero(np.diff(bh) != 0) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(bh)]])
    lens = ends - starts

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    n_capped_groups = 0

    # stopbands: drop mega-runs entirely
    live = lens >= 2
    drop = lens > cfg.stopband_limit
    n_dropped_bands = int(drop.sum())
    live &= ~drop

    # salted runs: deterministically split members into sub-groups
    salted = live & (lens > cfg.salt_limit)
    n_salted_bands = int(salted.sum())
    for idx in np.flatnonzero(salted):
        s, e = starts[idx], ends[idx]
        members = rid[s:e]
        k = int(np.ceil((e - s) / cfg.salt_limit))
        salt = members if ids is None else ids[members]
        sub = (splitmix64(salt.view(U64)) % U64(k)).astype(np.int64)
        for g in range(k):
            mem = np.sort(members[sub == g])
            if len(mem) >= 2:
                iu, ju = np.triu_indices(len(mem), k=1)
                out_a.append(mem[iu])
                out_b.append(mem[ju])

    # normal runs, grouped by run length for fully vectorized emission
    normal = live & ~salted
    for L in np.unique(lens[normal]):
        idxs = np.flatnonzero(normal & (lens == L))
        per_run = int(L) * (int(L) - 1) // 2
        if per_run > cfg.max_pairs_per_group:
            # hard per-RUN cap: emit star pairs to the min member only.
            # This is a SEMANTIC change (a different pair set), so it is
            # counted in the stats like drops/salting — no silent caps.
            # The cap is a property of the RUN alone, never of how many
            # runs share a shuffle partition: the pair set must be
            # invariant to exchange-key granularity.
            n_capped_groups += len(idxs)
            mem = rid[starts[idxs][:, None] + np.arange(L)[None, :]]
            mem = np.sort(mem, axis=1)
            out_a.append(np.repeat(mem[:, 0], L - 1))
            out_b.append(mem[:, 1:].reshape(-1))
            continue
        # memory guard (NOT semantic): emit the length class in chunks so
        # one gather never materializes more than ~max_pairs_per_group
        # pairs at once
        iu, ju = np.triu_indices(L, k=1)
        chunk = max(1, cfg.max_pairs_per_group // max(per_run, 1))
        for s in range(0, len(idxs), chunk):
            part = idxs[s : s + chunk]
            # gather members matrix (num_runs, L), sort rows for canonical pairs
            mem = rid[starts[part][:, None] + np.arange(L)[None, :]]
            mem = np.sort(mem, axis=1)
            out_a.append(mem[:, iu].reshape(-1))
            out_b.append(mem[:, ju].reshape(-1))

    empty = np.empty(0, dtype=np.int64)
    pairs = pa.table(
        {
            "id_a": pa.array(np.concatenate(out_a) if out_a else empty),
            "id_b": pa.array(np.concatenate(out_b) if out_b else empty),
        }
    )
    counts = dict(zip(BAND_COUNTS, (n_dropped_bands, n_salted_bands, n_capped_groups)))
    return pairs, counts


def band_totals(stats_sink) -> dict:
    """A run's band accounting summed over its buckets, zero-filled.  Read
    it once the stage that consumes the pairs has finished."""
    totals = ray.get(stats_sink.totals.remote("blocking"))
    return {k: totals.get(k, 0) for k in BAND_COUNTS}


def bucket_pairs(
    bands: "ray.data.Dataset",
    cfg: BlockingConfig,
    stats_sink=None,
    pair_filter=None,
    coalesce: bool = True,
) -> "ray.data.Dataset":
    """band rows (record_id, band_hash, bucket) -> globally-unique pairs:
    groupby(bucket) -> emit -> ``pair_filter`` -> dedup.

    Band accounting (the no-silent-caps contract for stopband drops,
    salting and caps) goes to ``stats_sink`` (state/accounting.py), keyed
    by bucket; the pairs hold only ``id_a``, ``id_b``, so they stream
    straight into the scorer.  ``pair_filter`` (pa.Table -> pa.Table)
    drops pairs before the dedup exchange.

    ``coalesce=False`` skips the pre-shuffle repartition when the caller
    already sized the blocks to ``shuffle_partitions()`` (e.g. the
    feature blocks of pipelines/linkage.py ``featurize_blocks``) — each
    repartition is a full AllToAll barrier, and the round-5 profile
    showed the pair stage dominated by exchange coordination, not CPU."""
    from ..util import shuffle_partitions

    def emit(group: pa.Table) -> pa.Table:
        pairs, counts = _emit_pairs_for_bucket(group, cfg)
        if stats_sink is not None and len(group):
            # the ray.get makes "this emit task finished" imply "its
            # counts are recorded", so totals read after the consuming
            # stage materializes are race-free; keyed overwrite makes
            # task retries idempotent
            ray.get(stats_sink.put.remote("blocking", int(group["bucket"][0].as_py()), counts))
        return pairs

    # coalesce the band fragments before the sort shuffle: the groupby
    # exchanges num_blocks x num_partitions objects, so a fragmented
    # input makes coordination dominate (see shuffle_partitions)
    if coalesce:
        bands = bands.repartition(shuffle_partitions())
    pairs = bands.groupby("bucket").map_groups(emit, batch_format="pyarrow")
    if pair_filter is not None:
        pairs = pairs.map_batches(pair_filter, batch_format="pyarrow")
    # the band groupby already left shuffle_partitions() blocks
    return dedup_pairs(pairs, cfg.num_buckets, coalesce=False)


def candidate_pairs(
    features: "ray.data.Dataset",
    cfg: BlockingConfig,
    stats_sink=None,
    coalesce: bool = True,
    pair_filter=None,
) -> "ray.data.Dataset":
    """features -> globally-unique candidate pairs (id_a < id_b): band
    expansion, then :func:`bucket_pairs` (see there for the arguments)."""
    from ..util import shuffle_partitions

    # exchange-key granularity: ~8 buckets per shuffle partition — coarse
    # enough that per-group overhead (map_groups slicing, table
    # construction, one accounting record) stays negligible, fine enough
    # that each group's lexsort stays cache-sized (round-5 microbench on
    # 19.2M band rows: 16 groups = 5.7s lexsort, 128 = 3.8s, 512 = 3.0s,
    # but 512 groups pay ~2x their sort savings back in per-group calls)
    n_buckets = min(cfg.num_buckets, 8 * shuffle_partitions())
    bands = features.map_batches(
        lambda b: expand_bands_batch(b, cfg, num_buckets=n_buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return bucket_pairs(bands, cfg, stats_sink, pair_filter, coalesce)


def dedup_pairs(
    pairs: "ray.data.Dataset",
    num_buckets: int,
    coalesce: bool = True,
) -> "ray.data.Dataset":
    """Global pair dedup (multi-band duplicates; D2 analogue —
    ``OnlyOnceDataset``, reference ``only_once_dataset.py:8-23`` — made
    deterministic under a shuffle: bucket by pair hash, unique within).

    ``coalesce=False`` skips the pre-shuffle repartition when the input
    block count already matches ``shuffle_partitions()`` (e.g. pair
    blocks straight out of the band groupby) — a no-op repartition is
    still a full AllToAll barrier."""

    from ..util import shuffle_partitions

    # same granularity rule as the band exchange (see candidate_pairs)
    n_buckets = min(num_buckets, 8 * shuffle_partitions())

    def add_bucket(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import hash_pairs64

        batch = batch.select(["id_a", "id_b"])
        h = hash_pairs64(batch["id_a"].to_numpy(), batch["id_b"].to_numpy())
        return batch.append_column(
            "bucket", pa.array((h % U64(n_buckets)).astype(np.int32))
        )

    bucketed = pairs.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
    if coalesce:
        bucketed = bucketed.repartition(shuffle_partitions())
    return bucketed.groupby("bucket").map_groups(unique_pairs, batch_format="pyarrow")


def unique_pairs(*parts: pa.Table) -> pa.Table:
    """Pair tables -> their distinct (id_a, id_b), sorted by (id_a, id_b):
    the bucketed plan's dedup exchange (the band-major plan uniques
    packed rank keys instead, :func:`band_major_pairs`)."""
    t = pa.concat_tables(parts)
    a = t["id_a"].to_numpy()
    b = t["id_b"].to_numpy()
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (np.diff(a) != 0) | (np.diff(b) != 0)
    return pa.table({"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep])})


def record_index(*blocks: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(worker task) feature blocks -> ``(ranks, order, sorted_ids)``:
    ``sorted_ids`` are the distinct record ids in ascending order, a
    record's dense rank is its position there, ``ranks`` gives the rank
    of every row of the concatenated blocks and ``order[rank]`` the
    first such row (rows are numbered across the blocks in order,
    empty blocks included, as they hold no row)."""
    ids = np.concatenate([np.empty(0, np.int64), *(t["record_id"].to_numpy() for t in blocks)])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.cumsum(first) - 1
    return ranks, order[first], ids[first]


def check_pair_key_space(n_rows: int) -> None:
    """``ValueError`` unless the band-major plan's pair keys ``rank_a *
    n + rank_b`` over ``n = n_rows`` records fit int64."""
    if n_rows * n_rows > np.iinfo(np.int64).max:
        raise ValueError(
            f"{n_rows} feature rows overflow the band-major plan's int64 pair keys "
            "(rows * rows must stay below 2**63): lower ScoringConfig."
            "broadcast_limit_rows so that this many rows take the bucketed plan"
        )


def _decode(keys: np.ndarray, sorted_ids: np.ndarray) -> pa.Table:
    """pair keys -> (id_a, id_b)."""
    ra, rb = np.divmod(keys, len(sorted_ids))
    return pa.table({"id_a": sorted_ids[ra], "id_b": sorted_ids[rb]})


def _band_range_pairs(
    bands: tuple[int, int],
    cfg: BlockingConfig,
    n_ranges: int,
    pair_filter,
    ranks: np.ndarray,
    sorted_ids: np.ndarray,
    *blocks: pa.Table,
) -> tuple:
    """(worker task) every feature block -> the pairs of the bands
    ``[lo, hi)``: (band counts, then ``n_ranges`` slices of the sorted,
    locally unique pair keys, cut at :func:`id_range_bounds`).

    Every run of these bands is whole here, so the unchanged
    :func:`_emit_pairs_for_bucket`, on ranks, makes the bucketed plan's
    stopband, salt and cap decisions and counts.  Shingle-less records
    are dropped as :func:`expand_bands_batch` drops them.  ``pair_filter``
    sees the unique pairs as ``id_a``, ``id_b`` with their ``key``."""
    lo, hi = bands
    n = len(sorted_ids)
    rows, hashes = [np.empty(0, np.int64)], [np.empty(0, U64)]
    start = 0
    for t in blocks:
        if not len(t):
            continue
        sig32 = binary_matrix(t["sig"], np.uint32)  # zero-copy view
        keep = ~empty_signature_mask(sig32)
        _, bh = band_keys(sig32, cfg.num_bands, lo, hi)
        rows.append(np.repeat(ranks[start : start + len(t)][keep], hi - lo))
        hashes.append(bh.reshape(len(t), hi - lo)[keep].reshape(-1))
        start += len(t)
    group = pa.table(
        {"record_id": np.concatenate(rows), "band_hash": np.concatenate(hashes).view(np.int64)}
    )
    pairs, counts = _emit_pairs_for_bucket(group, cfg, ids=sorted_ids)
    keys = np.unique(pairs["id_a"].to_numpy() * n + pairs["id_b"].to_numpy())
    if pair_filter is not None:
        keys = pair_filter(_decode(keys, sorted_ids).append_column("key", pa.array(keys)))
        keys = keys["key"].to_numpy()
    bounds = np.searchsorted(sorted_ids, id_range_bounds(n_ranges)) * n
    cuts = [0, *np.searchsorted(keys, bounds).tolist(), len(keys)]
    return (counts, *[keys[s:e] for s, e in zip(cuts[:-1], cuts[1:])])


def id_range_bounds(n_ranges: int) -> list[int]:
    """The ``n_ranges - 1`` inner ``id_a`` cuts that give each range
    about the same number of pairs, with no pass over the pairs.

    record_id is a uniform 63-bit fingerprint (ingest.py), and ``id_a``
    is the smaller of two of them: its density on ``[0, 2**63)`` falls
    as 2(1 - x), so equal-width ranges hold very unequal pair counts
    (the first of 8 about 15x the last).  The i-th quantile of that
    distribution is ``1 - sqrt(1 - i/P)``."""
    return [int((1 << 63) * (1 - math.sqrt(1 - i / n_ranges))) for i in range(1, n_ranges)]


def _unique_range(
    finish, order: np.ndarray, sorted_ids: np.ndarray, *parts: np.ndarray
) -> pa.Table:
    """(worker task) one ``id_a`` range's pair-key slices -> its unique
    pairs as (id_a, id_b), or ``finish((rank_a, rank_b), (order,
    sorted_ids))`` when ``finish`` is given."""
    keys = np.unique(np.concatenate([np.empty(0, np.int64), *parts]))
    if finish is None:
        return _decode(keys, sorted_ids)
    return finish(np.divmod(keys, len(sorted_ids)), (order, sorted_ids))


def band_major_pairs(
    blocks: list,
    cfg: BlockingConfig,
    stats_sink=None,
    pair_filter=None,
    finish=None,
) -> list:
    """feature block refs -> globally-unique candidate pair block refs
    (id_a < id_b) with no Ray Data exchange: the plan for a feature
    table small enough to broadcast (the scorer's
    ``broadcast_limit_rows``; Spark's broadcast join and the reference's
    qid-remap table are the same idiom).

    One task ranks the records (:func:`record_index`).  G =
    ``min(num_bands, shuffle_partitions())`` tasks each read every
    feature block from the object store and own a contiguous band range
    (:func:`_band_range_pairs`); their pair keys are unique locally and
    cut into P = ``shuffle_partitions()`` disjoint ``id_a`` ranges of
    about equal pair counts, so P tasks, one per range, make the pairs
    globally unique: duplicate pairs are never shuffled.  Pairs and band
    accounting equal :func:`candidate_pairs`'s; ``stats_sink`` and
    ``pair_filter`` mean the same as in :func:`bucket_pairs` (counts are
    keyed by each task's first band).  ``finish((rank_a, rank_b),
    (order, sorted_ids)) -> pa.Table``, when given, runs inside each
    id-range task on the ranks of its unique pairs (ascending), and the
    P blocks are its outputs: the linkage plan scores the pairs there.
    The caller checks :func:`check_pair_key_space`."""
    from ..util import shuffle_partitions

    n_tasks, n_ranges = min(cfg.num_bands, shuffle_partitions()), shuffle_partitions()
    # whole-CPU tasks: they queue on the warm worker pool (a fractional
    # request makes the raylet start extra workers for them); a task
    # blocked in ray.get gives its CPU back, so they cannot deadlock
    ranks, order, sorted_ids = ray.remote(num_returns=3)(record_index).remote(*blocks)
    emit = ray.remote(num_returns=n_ranges + 1)(_band_range_pairs)
    unique = ray.remote(_unique_range)
    slices = []
    for g in range(n_tasks):
        lo, hi = cfg.num_bands * g // n_tasks, cfg.num_bands * (g + 1) // n_tasks
        counts, *parts = emit.remote(
            (lo, hi), cfg, n_ranges, pair_filter, ranks, sorted_ids, *blocks
        )
        if stats_sink is not None:
            # this process hands the counts ref on, so no task waits on
            # the sink; the sink runs one caller's calls in submission
            # order, so a later totals call from here sees this entry
            stats_sink.put.remote("blocking", lo, counts)
        slices.append(parts)
    return [
        unique.remote(finish, order, sorted_ids, *[s[r] for s in slices])
        for r in range(n_ranges)
    ]
