"""Edit-distance similarity self-join (string-similarity join family).

PassJoin-style partition blocking (Li/Deng/Feng, PVLDB 2011 — see
PAPERS.md): a string of length ``l`` is cut into ``d+1`` contiguous
segments; if ``lev(s, t) <= d`` then the optimal alignment spends at
most ``d`` edits across ``d+1`` segments of ``t``, so **at least one
segment of ``t`` appears in ``s`` verbatim**, at a start-position shift
``x`` bounded by the edits it must "pay" on each side:
``|x| + |Δ - x| <= d`` with ``Δ = len(s) - len(t)`` — i.e.
``x ∈ [ceil((Δ-d)/2), floor((Δ+d)/2)]``.  That pigeonhole makes the
segment keys a *provably complete* blocking scheme: groupby the keys,
verify candidates with the exact bit-parallel Myers kernel, and the
join equals the quadratic ``lev(a, b) <= d`` self-join byte-for-byte
(oracle-checked vs DuckDB ``levenshtein`` — tests/test_fuzzyjoin.py).

Reference tie-in: this is the same candidates→verify cascade as the
flagship's MinHash-LSH blocking (stages/blocking.py), instantiated for
the *edit-distance* predicate the reference applies to mention strings
(string alias tables match mention text exactly,
``src/baselines/string_alias_tables``; this operator is the bounded-
typo generalization a linkage user reaches for next).

Scale notes (100 TB):

* candidate generation is a ``map_batches`` over the corpus — per
  batch, rows are grouped by string length and every (partner-length,
  segment, shift) combo is ONE vectorized slice of the padded byte
  matrix (no per-row Python in the emit loop beyond the tiny
  ``lengths × (d+1) × (2d+1)`` combo grid);
* the shuffle groups by a 64-bit segment hash — an equality-key
  exchange, same partitioning story as the LSH band groupby.  Hot keys
  (a shared path prefix that IS a whole segment) are the known
  PassJoin skew; the bounded run emitter of stages/blocking.py
  (``emit_run_pairs``) is the mitigation when a corpus needs it (not
  applied here: capping changes results, and the no-silent-caps rule
  wins at test scale);
* verify is the Myers uint64 kernel — exact, ~12 vector ops per text
  char for a whole candidate batch;
* pairs are deduplicated by a (path_a, path_b) groupby, never on the
  driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Min

from .functions.hashing import U64, splitmix64
from .functions.strsim import _dp_dist, _dp_dist_myers, _pad_matrix

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _segment_partition(l: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets + widths cutting a length-``l`` string into ``d+1``
    contiguous segments, longer segments first (any fixed scheme works;
    emit and probe must agree)."""
    k = d + 1
    w, m = divmod(l, k)
    widths = np.array([w + 1] * m + [w] * (k - m), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(widths[:-1])])
    return starts, widths


def _seg_hash(mat: np.ndarray, partner_len: int, seg_idx: int) -> np.ndarray:
    """FNV-1a over each row of a (rows, w) byte matrix, salted with the
    (partner-length, segment-index) identity the key is scoped to.
    Collisions only ADD candidates (verify is exact); equal segments
    always collide by construction."""
    h = np.full(mat.shape[0], _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in range(mat.shape[1]):
            h ^= mat[:, c].astype(np.uint64)
            h *= _FNV_PRIME
        salt = np.uint64(partner_len * 131071 + seg_idx + 1)
        return splitmix64(h ^ salt)


def _emit_keys(batch: pa.Table, col: str, d: int) -> pa.Table:
    """Candidate-key emission: every row emits its own segments as
    *index* keys and, for every admissible partner length
    ``l ∈ [len-d, len]`` and shift ``x`` in the pigeonhole window, the
    matching substring as a *probe* key.  A pair (s, t) with
    ``lev <= d`` and ``len(s) >= len(t)`` is guaranteed to co-locate
    under key ``(len(t), i, segment_i(t))`` for some segment ``i``."""
    arr = batch[col]
    mat, lens = _pad_matrix(arr, 128)
    out_key: list[np.ndarray] = []
    out_side: list[np.ndarray] = []
    out_rows: list[np.ndarray] = []

    def emit(rows: np.ndarray, key: np.ndarray, side: int) -> None:
        out_key.append(key)
        out_side.append(np.full(len(rows), side, dtype=np.int8))
        out_rows.append(rows)

    for ls in np.unique(lens):
        ls = int(ls)
        rows = np.flatnonzero(lens == ls)
        sub = mat[rows]
        # index side: this row's own segments
        starts, widths = _segment_partition(ls, d)
        for i in range(d + 1):
            p, w = int(starts[i]), int(widths[i])
            emit(rows, _seg_hash(sub[:, p : p + w], ls, i), 0)
        # probe side: substrings aligned to every shorter/equal partner
        for l in range(max(1, ls - d), ls + 1):
            delta = ls - l
            pstarts, pwidths = _segment_partition(l, d)
            for i in range(d + 1):
                p, w = int(pstarts[i]), int(pwidths[i])
                x_lo = -((d - delta) // 2)  # ceil((delta-d)/2)
                x_hi = (delta + d) // 2
                for x in range(x_lo, x_hi + 1):
                    pp = p + x
                    if pp < 0 or pp + w > ls:
                        continue
                    emit(rows, _seg_hash(sub[:, pp : pp + w], l, i), 1)

    if not out_rows:
        return pa.table(
            {
                "key": pa.array([], pa.uint64()),
                "side": pa.array([], pa.int8()),
                "s": pa.array([], pa.large_string() if arr.type == pa.large_string() else pa.string()),
            }
        )
    rows_all = np.concatenate(out_rows)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pa.table(
        {
            "key": pa.array(np.concatenate(out_key)),
            "side": pa.array(np.concatenate(out_side)),
            "s": arr.take(pa.array(rows_all)),
        }
    )


def lev_distance(a: pa.Array | pa.ChunkedArray, b: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Exact batched Levenshtein distance (Myers uint64 when the shorter
    side fits a machine word, classic int16 DP otherwise)."""
    A, la = _pad_matrix(a, 4096)
    B, lb = _pad_matrix(b, 4096)
    if len(la) == 0:
        return np.empty(0, dtype=np.int64)
    # Myers requires the PATTERN (first arg) <= 64 chars
    if int(la.max(initial=0)) <= 64:
        return _dp_dist_myers(A, B, la, lb)
    if int(lb.max(initial=0)) <= 64:
        return _dp_dist_myers(B, A, lb, la)
    return _dp_dist(A, B, la, lb)


def _verify_group(group: pa.Table, d: int) -> pa.Table:
    """One candidate bucket: cross index×probe rows, prune by length,
    verify with the exact kernel, emit canonically-ordered pairs."""
    side = group["side"].to_numpy()
    s = group["s"]
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    idx_rows = np.flatnonzero(side == 0)
    prb_rows = np.flatnonzero(side == 1)
    empty = pa.table(
        {
            "path_a": pa.array([], pa.string()),
            "path_b": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
        }
    )
    if len(idx_rows) == 0 or len(prb_rows) == 0:
        return empty
    # local dedup per side (a row may emit the same key several times
    # via different shifts; strings are already distinct corpus-wide)
    def uniq(rows: np.ndarray) -> pa.Array:
        vals = s.take(pa.array(rows))
        return vals.unique() if hasattr(vals, "unique") else pa.compute.unique(vals)

    iv = uniq(idx_rows)
    pv = uniq(prb_rows)
    ni, np_ = len(iv), len(pv)
    ii = np.repeat(np.arange(ni), np_)
    pj = np.tile(np.arange(np_), ni)
    a = iv.take(pa.array(ii))
    b = pv.take(pa.array(pj))
    # prune: partner emitted probes only for lengths <= its own, and
    # |len diff| <= d is necessary for lev <= d
    import pyarrow.compute as pc

    la = pc.utf8_length(a).to_numpy(zero_copy_only=False)
    lb = pc.utf8_length(b).to_numpy(zero_copy_only=False)
    keep = (lb >= la) & (lb - la <= d) & pc.not_equal(a, b).to_numpy(zero_copy_only=False)
    ki = np.flatnonzero(keep)
    if len(ki) == 0:
        return empty
    a = a.take(pa.array(ki))
    b = b.take(pa.array(ki))
    dist = lev_distance(a, b)
    ok = np.flatnonzero(dist <= d)
    if len(ok) == 0:
        return empty
    a = a.take(pa.array(ok))
    b = b.take(pa.array(ok))
    dist = dist[ok]
    lo = pa.compute.min_element_wise(a, b)
    hi = pa.compute.max_element_wise(a, b)
    return pa.table(
        {
            "path_a": lo.cast(pa.string()),
            "path_b": hi.cast(pa.string()),
            "dist": pa.array(dist),
        }
    )


def fuzzy_lev_self_join(
    ds: "ray.data.Dataset", col: str, d: int = 2
) -> "ray.data.Dataset":
    """All unordered pairs of *distinct* values of ``col`` within edit
    distance ``d`` → (path_a < path_b, dist).  Exact (blocking is
    provably complete; verify is exact); no driver-side collection."""
    distinct = (
        ds.map_batches(
            lambda t: pa.table({col: t[col].combine_chunks().unique()})
            if isinstance(t[col], pa.ChunkedArray)
            else pa.table({col: t[col].unique()}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby(col)
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
    )
    keys = distinct.map_batches(
        lambda t: _emit_keys(t, col, d), batch_format="pyarrow", zero_copy_batch=True
    )
    pairs = keys.groupby("key").map_groups(
        lambda g: _verify_group(g, d), batch_format="pyarrow"
    )
    # global pair dedup (a pair can meet under several segment keys):
    # groupby both endpoints; dist is identical across duplicates
    return (
        pairs.groupby(["path_a", "path_b"])
        .aggregate(Min("dist", alias_name="dist"))
    )


def fuzzy_lev_join(sf_dir: str, d: int = 2, min_len: int = 38):
    """queries() entry: edit-distance-<=2 self-join over the corpus's
    distinct long paths (``min_len`` bounds the quadratic DuckDB oracle,
    not the Ray plan — the blocking scales to the full column)."""
    from .stages import ingest as I
    from .corpusops import _corpus_files

    ds = I.read_corpus(_corpus_files(sf_dir), columns=["path"])
    import pyarrow.compute as pc

    long_paths = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(pc.utf8_length(t["path"]), min_len)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return fuzzy_lev_self_join(long_paths, "path", d=d)


# --- Jaro-Winkler similarity join (blocked score-verify, DuckDB-exact) ------
def fuzzy_jw_join(sf_dir: str, threshold: float = 0.85):
    """queries() entry: Jaro-Winkler >= ``threshold`` self-join over the
    distinct part names, blocked on the first name token — the classic
    entity-resolution "block on a cheap key, score pairs inside the
    block" shape (the flagship linkage pipeline with an equality block
    and a JW predicate instead of LSH bands + blended score).

    The kernel runs in DuckDB-parity mode (Winkler boost gated at
    jaro > 0.7, strcmp95 floored transposition count, float64 output),
    so the emitted ``jw`` column is bit-identical to DuckDB
    ``jaro_winkler_similarity`` and the oracle check is hash-exact.

    Scale shape: ONE equality-key shuffle (the block token); inside a
    block the distinct-name all-pairs scoring is a single vectorized
    ``triu_indices`` gather + one batched JW kernel call — quadratic
    only in the BLOCK's distinct-value count.  Blocks are NOT bounded:
    a hot first token makes a quadratic block, since neither fuzzy join
    salts, caps or drops blocks as stages/blocking.py does (bounding
    them is a ROADMAP smaller item: "Bound the fuzzy joins' hot
    blocks")."""
    import pyarrow.compute as pc

    from .relational import _read
    from .functions.strsim import jaro_winkler

    ds = _read(sf_dir, "part", ["p_name"])

    def add_block(t: pa.Table) -> pa.Table:
        # per-batch distinct shrinks the shuffle (names repeat heavily);
        # global dedup happens inside the block, where all copies land
        names = pc.unique(t["p_name"].combine_chunks() if isinstance(t["p_name"], pa.ChunkedArray) else t["p_name"])
        blk = pc.list_element(pc.split_pattern(names, " "), 0)
        return pa.table({"p_name": names, "blk": blk})

    def score_block(g: pa.Table) -> pa.Table:
        names = g["p_name"]
        if isinstance(names, pa.ChunkedArray):
            names = names.combine_chunks()
        names = pc.unique(names)
        order = pc.sort_indices(names)
        names = names.take(order)
        n = len(names)
        if n < 2:
            return pa.table(
                {
                    "name_a": pa.array([], pa.string()),
                    "name_b": pa.array([], pa.string()),
                    "jw": pa.array([], pa.float64()),
                }
            )
        ia, ib = np.triu_indices(n, 1)
        a = names.take(pa.array(ia))
        b = names.take(pa.array(ib))
        jw = jaro_winkler(
            a, b, boost_threshold=0.7, floor_transpositions=True,
            out_dtype=np.float64,
        )
        keep = jw >= threshold
        k = np.flatnonzero(keep)
        return pa.table(
            {
                "name_a": a.take(pa.array(k)),
                "name_b": b.take(pa.array(k)),
                "jw": pa.array(jw[k], pa.float64()),
            }
        )

    return (
        ds.map_batches(add_block, batch_format="pyarrow")
        .groupby("blk")
        .map_groups(score_block, batch_format="pyarrow")
    )
