"""MinHash signatures + LSH band keys, vectorized over ragged shingle sets.

This is the blocking kernel of the engine — the recast of the
reference's candidate generation (alias table
``src/baselines/string_alias_tables/all_languages.py:93-115`` and OLPEAT
token-array keys ``src/baselines/olpeat/find_recall.py:76-91``): instead
of exact mention-string keys we emit ``b`` LSH band keys per record so
near-duplicate content collides.

Signature math: K derived hash functions ``h_i(x) = splitmix64(x XOR seed_i)``,
min over each record's shingle set.  A signature depends only on the
SET of values, so the mixing runs over the batch's distinct values
(``np.unique``; about 0.4 of all shingles on code corpora, where
boilerplate lines repeat), the mixed values are gathered back by the
inverse index, and ``minimum.reduceat`` over the ragged layout gives all
rows of a batch in one pass per seed-chunk; no per-row Python.
"""

from __future__ import annotations

import numpy as np

from .hashing import U64, splitmix64, splitmix64_inplace

_EMPTY_SENTINEL = U64(0xFFFFFFFFFFFFFFFF)


def seeds_for(k: int, base_seed: int = 0x5EED) -> np.ndarray:
    return splitmix64(np.arange(k, dtype=np.uint64) + U64(base_seed * 1000003))


def minhash_signature(
    values: np.ndarray, row_offsets: np.ndarray, num_hashes: int = 128, seed: int = 0x5EED
) -> np.ndarray:
    """``(N, num_hashes)`` uint64 signature matrix from ragged shingle hashes.

    Rows with zero shingles get all-sentinel signatures; sentinel rows are
    IDENTICAL to each other, so band expansion must drop them (see
    :func:`empty_signature_mask`) and :func:`estimate_jaccard` scores them 0.
    Processes seeds in chunks of 16 to bound the (chunk, M) temp matrix.
    """
    n_rows = len(row_offsets) - 1
    out = np.full((n_rows, num_hashes), _EMPTY_SENTINEL, dtype=U64)
    if n_rows == 0:
        return out
    values = np.asarray(values, dtype=U64)
    starts = np.asarray(row_offsets[:-1], dtype=np.int64)
    empty = row_offsets[1:] == row_offsets[:-1]
    # Reduce over NON-EMPTY rows only: their starts are strictly
    # increasing and the segments tile `values` exactly, so reduceat is
    # well-formed.  (Clamping empty-row starts instead — the round-1
    # approach — silently truncated the final shingle out of the last
    # non-empty row whenever a zero-shingle row trailed the batch;
    # found by the hypothesis batch-independence property.)
    ne = ~empty
    if not ne.any():
        return out
    ne_starts = starts[ne]
    all_seeds = seeds_for(num_hashes, seed)
    # mix each DISTINCT value once, then gather the mixed rows back by
    # the inverse index: a signature depends only on its row's value set
    uniq, inv = np.unique(values, return_inverse=True)
    chunk = 16
    # (chunk, U) / (chunk, M) scratch reused across seed chunks, laid
    # out so the gather and the reduceat run along contiguous rows
    mixed = np.empty((chunk, len(uniq)), dtype=U64)
    scratch = np.empty_like(mixed)
    gathered = np.empty((chunk, len(values)), dtype=U64)
    for c0 in range(0, num_hashes, chunk):
        sd = all_seeds[c0 : c0 + chunk]
        m, g = mixed[: len(sd)], gathered[: len(sd)]
        np.bitwise_xor(uniq[None, :], sd[:, None], out=m)
        splitmix64_inplace(m, scratch[: len(sd)])
        np.take(m, inv, axis=1, out=g, mode="clip")  # "raise" buffers out
        out[ne, c0 : c0 + len(sd)] = np.minimum.reduceat(g, ne_starts, axis=1).T
    return out


def band_keys(
    sig: np.ndarray, num_bands: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a ``(N, K)`` signature into ``(band_id:int32[N*b], band_hash:uint64[N*b])``.

    K must divide evenly into ``num_bands`` bands of ``r = K // num_bands``
    rows.  The band hash folds the r signature values plus the band index,
    so identical values in different bands never collide.  Output is laid
    out row-major: record i's bands occupy ``[i*b, (i+1)*b)``.
    """
    n, k = sig.shape
    r = k // num_bands
    assert r * num_bands == k, "num_hashes must be divisible by num_bands"
    folded = np.full((n, num_bands), U64(0x243F6A8885A308D3), dtype=U64)
    resh = sig.reshape(n, num_bands, r)
    with np.errstate(over="ignore"):
        for j in range(r):
            folded = splitmix64(folded ^ resh[:, :, j])
        folded = splitmix64(folded ^ np.arange(num_bands, dtype=U64)[None, :])
    band_id = np.tile(np.arange(num_bands, dtype=np.int32), n)
    return band_id, folded.reshape(-1)


def empty_signature_mask(sig: np.ndarray) -> np.ndarray:
    """(N,) bool: rows whose signature is the all-sentinel "no shingles"
    marker.  Works on full uint64 signatures and on uint32-truncated ones
    (the sentinel truncates to 0xFFFFFFFF; a real min over splitmix64
    draws hits all-max with probability ~2^-32K).
    """
    if sig.dtype == np.uint32:
        return (sig == np.uint32(0xFFFFFFFF)).all(axis=1)
    return (sig == _EMPTY_SENTINEL).all(axis=1)


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Fraction of agreeing signature slots — unbiased Jaccard estimate.

    ``sig_a``/``sig_b``: (P, K) uint64.  The scorer's verify step
    (oracle-checked against exact Jaccard in tests).

    Empty rows (all-sentinel signatures) estimate 0 against everything:
    two shingle-less documents share every sentinel slot but have true
    Jaccard 0 — without this guard they'd verify at est=1.0.
    """
    est = (sig_a == sig_b).mean(axis=1).astype(np.float32)
    est[empty_signature_mask(sig_a) | empty_signature_mask(sig_b)] = 0.0
    return est


def exact_jaccard(values: np.ndarray, row_offsets: np.ndarray, i: int, j: int) -> float:
    """Test oracle: exact Jaccard of two rows' shingle *sets*."""
    a = set(values[row_offsets[i] : row_offsets[i + 1]].tolist())
    b = set(values[row_offsets[j] : row_offsets[j + 1]].tolist())
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)
