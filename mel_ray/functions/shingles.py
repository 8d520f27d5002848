"""Shingling kernels: content -> uint64 shingle-hash sets, vectorized.

Analogue of the reference's tokenization stage (the universal
intermediate ``tokens[N,64]`` — SURVEY.md §1.1-3; producers at
``src/tokenization/pipeline/tokenizers/simple.py:6-15``): instead of HF
subword ids we emit hashed shingles that feed MinHash-LSH blocking.

Two shingle families:

* **line shingles** — one hash per whitespace-normalized non-empty line
  (robust to indent/trailing-whitespace edits in code);
* **char k-grams** — sliding k-byte window hashes (used by the char
  n-gram embedder and the winnowing fingerprint).

Both are computed per Arrow batch with NumPy over the raw UTF-8 value
buffer; no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import U64, splitmix64, splitmix64_inplace, string_array_buffers, substring_hasher

# per-line leading OR trailing blanks, both in one RE2 pass
_NORM_EDGES = r"(?m)^[ \t]+|[ \t]+$"


def normalize_lines(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Strip per-line leading/trailing whitespace (RE2 via Arrow, C++)."""
    out = pc.replace_substring_regex(arr, pattern=_NORM_EDGES, replacement="")
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def line_shingles(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Hash every normalized non-empty line of every row.

    Returns ``(values:uint64[M], row_offsets:int64[N+1])`` — a ragged
    array: row i's shingles are ``values[row_offsets[i]:row_offsets[i+1]]``.
    """
    norm = normalize_lines(arr)
    data, offsets = string_array_buffers(norm)
    n_rows = len(offsets) - 1

    # Line boundaries = newline positions plus each row's start/end.
    nl = np.flatnonzero(data == 0x0A)  # b"\n"
    # candidate span edges per row: row_start, newlines inside, row_end
    # Build global sorted edge list: offsets (row starts+ends) and newline positions.
    starts = np.concatenate([offsets[:-1], nl + 1])
    ends = np.concatenate([nl, offsets[1:]])
    starts.sort(kind="stable")
    ends.sort(kind="stable")
    # Now starts[k]:ends[k] are consecutive line spans across the whole buffer
    # (each newline terminates one span and starts the next; row boundaries
    # likewise).  Drop empty spans.
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]

    hasher = substring_hasher(data)
    values = hasher(starts, ends)

    # Assign each span to its row: spans are in buffer order, rows partition
    # the buffer by offsets.
    row_of = np.searchsorted(offsets[1:], starts, side="right")
    counts = np.bincount(row_of, minlength=n_rows)
    row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    return values, row_offsets


def char_kgram_hashes(
    data: np.ndarray, row_offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding k-byte-window hashes over each row's bytes.

    ``data``/``row_offsets`` as from :func:`string_array_buffers`.
    Returns ``(values:uint64[M], out_offsets:int64[N+1])``; rows shorter
    than ``k`` contribute a single whole-row hash.
    """
    lens = row_offsets[1:] - row_offsets[:-1]
    n_grams = np.maximum(lens - k + 1, np.minimum(lens, 1)).astype(np.int64)
    out_offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(n_grams, out=out_offsets[1:])
    h, tail = kgram_hashes_at_every_byte(data, row_offsets, k)
    keep = np.ones(len(h), dtype=bool)
    keep[tail] = False
    return h[keep], out_offsets


def kgram_hashes_at_every_byte(
    data: np.ndarray, row_offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(h:uint64[len(data)], tail:int64[T])``: ``h[p]`` is the hash of
    the k-gram starting at byte ``p``, except that a row shorter than
    ``k`` holds its one whole-row gram at its first byte; ``tail`` lists
    the positions that start no gram of their row (the last
    ``min(len, k) - 1`` bytes of each row), whose ``h`` is garbage.
    ``data`` must be exactly the rows' bytes (``row_offsets[0] == 0``,
    ``row_offsets[-1] == len(data)``), as :func:`string_array_buffers`
    returns them.

    Hashing every byte position needs no per-gram index arrays.  For
    ``k <= 8`` a gram fits one little-endian uint64 word: the windows
    are ONE contiguous copy of an unaligned uint64 view over the byte
    buffer (stride 1 byte, so element ``p`` reads bytes ``p..p+7``),
    masked to ``k`` bytes, XORed with a per-gram-length salt (so a short
    row's whole-row gram cannot collide with a k-gram sharing a
    zero-padded prefix) and splitmix64-mixed in place.  Longer grams
    take the polynomial :func:`substring_hasher`.
    """
    nb = len(data)
    lens = row_offsets[1:] - row_offsets[:-1]
    short = (lens > 0) & (lens < k)
    so, sl = row_offsets[:-1][short], lens[short]
    if 1 <= k <= 8:
        len_salt = splitmix64(np.arange(k + 1, dtype=U64) + U64(0xA11CE))
        pad = np.zeros(nb + 8, dtype=np.uint8)
        pad[:nb] = data  # 8-byte zero tail: the last windows read zeros
        wv = np.ndarray(shape=(nb,), dtype="<u8", buffer=pad, strides=(1,))
        h = wv.copy()
        h &= U64((1 << (8 * k)) - 1) if k < 8 else U64(0xFFFFFFFFFFFFFFFF)
        h ^= len_salt[k]
        splitmix64_inplace(h)
        sval = wv[so]
        sval &= (U64(1) << (U64(8) * sl.astype(U64))) - U64(1)  # sl <= 7: no overflow
        sval ^= len_salt[sl]
        splitmix64_inplace(sval)
    else:
        hasher = substring_hasher(data)
        p = np.arange(nb, dtype=np.int64)
        h = hasher(p, np.minimum(p + k, nb))
        sval = hasher(so, so + sl)
    h[so] = sval
    t = np.maximum(np.minimum(lens, k) - 1, 0)
    t_off = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(t, out=t_off[1:])
    tail = np.repeat(row_offsets[1:] - t - t_off[:-1], t) + np.arange(t_off[-1])
    return h, tail


def word_ngram_hashes(
    arr: pa.Array | pa.ChunkedArray, n: int = 3, lowercase: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Hashed word n-grams per row (for n-gram-Jaccard dedup on text).

    Words = ``[A-Za-z0-9]+`` runs (RE2 extraction in Arrow); each word is
    hashed, n-grams are rolling combines of n consecutive word hashes.
    Returns ragged ``(values:uint64[M], row_offsets:int64[N+1])``; rows
    with fewer than ``n`` words contribute one n-gram over what they have
    (or none if empty).
    """
    if lowercase:
        arr = pc.utf8_lower(arr)
    lists = pc.split_pattern_regex(
        pc.replace_substring_regex(arr, pattern=r"[^A-Za-z0-9]+", replacement=" "),
        pattern=" ",
    )
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    list_offsets = np.frombuffer(lists.buffers()[1], dtype=np.int32)[
        lists.offset : lists.offset + len(lists) + 1
    ].astype(np.int64)
    word_hashes = _hash_nonempty(flat)
    # drop empty words ("" artifacts of split) while tracking row offsets
    _, woff = string_array_buffers(flat)
    nonempty = (woff[1:] - woff[:-1]) > 0
    row_of = np.searchsorted(list_offsets[1:], np.arange(len(flat)), side="right")
    row_of = row_of[nonempty]
    word_hashes = word_hashes[nonempty]
    n_rows = len(lists)
    counts = np.bincount(row_of, minlength=n_rows)
    word_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=word_offsets[1:])

    # rolling n-gram combine
    if n <= 1:
        return word_hashes, word_offsets
    m = len(word_hashes)
    out_counts = np.maximum(counts - n + 1, np.minimum(counts, 1))
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=U64), out_offsets
    gstart = np.repeat(word_offsets[:-1], out_counts) + (
        np.arange(total) - np.repeat(out_offsets[:-1], out_counts)
    )
    glen = np.repeat(np.minimum(counts, n), out_counts)
    acc = np.zeros(total, dtype=U64)
    with np.errstate(over="ignore"):
        for j in range(int(glen.max())):
            take = j < glen
            acc[take] = splitmix64(acc[take] ^ word_hashes[gstart[take] + j])
    return acc, out_offsets


def _hash_nonempty(flat: pa.Array) -> np.ndarray:
    data, offsets = string_array_buffers(flat)
    hasher = substring_hasher(data)
    return hasher(offsets[:-1], offsets[1:])
