"""Deterministic hashed char-n-gram bi-encoder.

Stands in for the reference's HF transformer bi-encoder
(``src/utils/embeddings.py:55-175``, ``src/utils/model_builder.py:23-69``)
with a deterministic, dependency-free encoder: feature-hashed character
n-gram counts with a signed hashing trick, L2-normalized — the classic
"hashing trick" text embedding.  Cosine similarity of these vectors
tracks lexical overlap, which is what the pairwise scorer needs; the
encoder is loaded once per actor (weights := the seed constants), so the
Ray-side plumbing (actor-pool ``map_batches`` stage, batched matmul
scoring) is identical to what a real model would use.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import U64, string_array_buffers
from .shingles import kgram_hashes_at_every_byte

DEFAULT_DIM = 256
DEFAULT_K = 4


def embed_strings(
    arr: pa.Array | pa.ChunkedArray, dim: int = DEFAULT_DIM, k: int = DEFAULT_K
) -> np.ndarray:
    """(N, dim) float32 L2-normalized hashed char-k-gram embeddings.

    Every k-gram of a row (a row shorter than ``k``: its whole bytes, as
    one gram) adds +1 or -1 (bit 32 of its hash) to bucket ``hash % dim``
    of the row.  The grams come from
    :func:`~mel_ray.functions.shingles.kgram_hashes_at_every_byte`, which
    hashes every byte position without a per-gram gather.  Each
    position's integer key ``row*2*dim + bucket*2 + signbit`` is counted
    with one unweighted ``bincount``; a second, small ``bincount`` over
    the tail positions (which start no gram) is subtracted.  The counts
    are integers, so ``positive - negative`` cast to float32 is exactly
    the float32 of a float64 ±1 sum.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data, offsets = string_array_buffers(arr)
    n = len(offsets) - 1
    if n == 0:
        return np.empty((0, dim), dtype=np.float32)
    h, tail = kgram_hashes_at_every_byte(data, offsets, k)
    signbit = h >> U64(32)
    signbit &= U64(1)
    # power-of-two dims use a mask instead of a u64 division
    if dim & (dim - 1) == 0:
        h &= U64(dim - 1)
    else:
        np.remainder(h, U64(dim), out=h)
    h <<= U64(1)
    h |= signbit
    key = h.view(np.int64)
    key += np.repeat(np.arange(n, dtype=np.int64) * (2 * dim), offsets[1:] - offsets[:-1])
    counts = np.bincount(key, minlength=2 * n * dim)
    counts -= np.bincount(key[tail], minlength=2 * n * dim)
    counts = counts.reshape(n, dim, 2)
    mat = (counts[:, :, 1] - counts[:, :, 0]).astype(np.float32)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    return mat / norms


def topk_cosine(
    queries: np.ndarray, index: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force top-k by cosine: (Q, k) indices + sims.

    Recast of the reference's ``BruteForceSearcher.find``
    (``src/models/searchers/brute_force_searcher.py:28-36``): one batched
    matmul + argpartition, deterministic ties broken by lower index.
    """
    sims = queries @ index.T  # (Q, N)
    n = index.shape[0]
    k = min(k, n)
    part = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
    psims = np.take_along_axis(sims, part, axis=1)
    # stable order: sort by (-sim, idx)
    order = np.lexsort((part, -psims), axis=1)
    idx = np.take_along_axis(part, order, axis=1)
    out_sims = np.take_along_axis(psims, order, axis=1)
    # float64 end-to-end: the oracle (DuckDB list_cosine_similarity) is
    # float64; a float32 downcast can flip values across a 5e-5 rounding
    # boundary between the engines.
    return idx, out_sims.astype(np.float64)
