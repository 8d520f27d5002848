"""64-bit hashing kernels, fully vectorized over Arrow string buffers.

Replaces the reference's polynomial rolling hash
(``src/models/data/only_once_dataset.py:60-85`` — per-row Python) with a
batch-vectorized substring polynomial hash: one pass of ``cumprod`` /
``cumsum`` over the whole UTF-8 value buffer of an Arrow array, then any
substring's hash is an O(1) gather.  All arithmetic is uint64 with
natural wrap-around (mod 2**64); the multiplier is odd, hence invertible
mod 2**64, which is what makes the prefix-difference trick exact.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

U64 = np.uint64

# FNV-1a 64-bit prime (odd -> invertible mod 2**64).
_B = 0x100000001B3
_B_INV = pow(_B, -1, 1 << 64)  # modular inverse mod 2**64

_SM1 = U64(0x9E3779B97F4A7C15)
_SM2 = U64(0xBF58476D1CE4E5B9)
_SM3 = U64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants)."""
    x = np.array(x, dtype=U64, copy=True)
    splitmix64_inplace(x)
    return x


def splitmix64_inplace(x: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """In-place splitmix64 over a uint64 array: two buffers total
    (input + one shift scratch) instead of ~8 expression temporaries —
    the allocation-bound form for hot kernels (first-touch page faults,
    not ALU, dominate big fresh arrays on cgroup-limited hosts)."""
    t = scratch if scratch is not None and scratch.shape == x.shape else np.empty_like(x)
    with np.errstate(over="ignore"):
        x += _SM1
        np.right_shift(x, U64(30), out=t)
        x ^= t
        x *= _SM2
        np.right_shift(x, U64(27), out=t)
        x ^= t
        x *= _SM3
        np.right_shift(x, U64(31), out=t)
        x ^= t


def _powers(n: int, base: int) -> np.ndarray:
    """[base**0, base**1, ..., base**(n-1)] mod 2**64, vectorized."""
    if n == 0:
        return np.empty(0, dtype=U64)
    p = np.full(n, U64(base & ((1 << 64) - 1)), dtype=U64)
    p[0] = U64(1)
    with np.errstate(over="ignore"):
        return np.cumprod(p, dtype=U64)


# low level of the two-level power tables (see substring_hasher)
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS
_LO = _powers(_BLOCK, _B)
_LO_INV = _powers(_BLOCK, _B_INV)
_B_BLOCK = pow(_B, _BLOCK, 1 << 64)
_B_INV_BLOCK = pow(_B_INV, _BLOCK, 1 << 64)


def substring_hasher(data: np.ndarray):
    """Build an O(1)-per-span polynomial hasher over a byte buffer.

    ``data`` is a uint8 array (the concatenated UTF-8 values of an Arrow
    string array).  Returns ``hash_spans(starts, ends) -> uint64[len(starts)]``
    where the hash of bytes ``data[i:j]`` is
    ``mix(sum_t data[i+t] * B**t  +  B**(j-i))`` — the trailing length
    term distinguishes prefixes of zero bytes.

    Powers come from a two-level table, ``B**i = lo[i % 4096] *
    hi[i // 4096]``: ``lo`` is a fixed 4096-entry module constant and
    ``hi`` (one entry per 4096 bytes) is built per call, so the
    length-N ``B**-i`` weights are one vectorized outer product instead
    of a serial length-N ``cumprod``, and ``B**i`` is only evaluated at
    the span edges.  Full-size tables are deliberately not cached: the
    callers hash whole blocks (``hash_strings64``), so a cache would pin
    memory in every worker sized by the largest buffer it ever saw.
    """
    n = len(data)
    n_hi = n // _BLOCK + 1
    hi = _powers(n_hi, _B_BLOCK)
    with np.errstate(over="ignore"):
        weighted = np.multiply.outer(_powers(n_hi, _B_INV_BLOCK), _LO_INV).reshape(-1)[:n]
        weighted *= data
        csum = np.zeros(n + 1, dtype=U64)
        np.cumsum(weighted, dtype=U64, out=csum[1:])

    def pw(i: np.ndarray) -> np.ndarray:
        return _LO[i & (_BLOCK - 1)] * hi[i >> _BLOCK_BITS]

    def hash_spans(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        s = np.asarray(starts, dtype=np.int64)
        e = np.asarray(ends, dtype=np.int64)
        with np.errstate(over="ignore"):
            h = (csum[e] - csum[s]) * pw(s) + pw(e - s)
        return splitmix64(h)

    return hash_spans


def string_array_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (data:uint8[], offsets:int64[]) view of an Arrow string array.

    Handles ``string`` and ``large_string``; chunked arrays must be
    combined by the caller.

    The returned view is REBASED to the array's own byte range (data
    trimmed to ``[offsets[0], offsets[-1])``, offsets shifted to start
    at 0).  This matters for SLICES: Ray Data cuts blocks into
    ``batch_size`` batches zero-copy, so a batch's string column shares
    its parent block's buffer — without rebasing, every whole-buffer
    kernel (prefix-table build, k-gram window pack) does O(block) work
    per O(batch) slice, silently multiplying the hot path by
    block_rows/batch_size."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    if len(offsets) and (offsets[0] != 0 or offsets[-1] != len(data)):
        data = data[offsets[0] : offsets[-1]]
        offsets = offsets - offsets[0]
    return data, offsets


def hash_strings64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 hash of every string in an Arrow array, vectorized (no per-row Python)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data, offsets = string_array_buffers(arr)
    hasher = substring_hasher(data)
    return hasher(offsets[:-1], offsets[1:])


def sha256_hex(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Per-row sha256 hexdigest of a string/binary column.

    The per-row content-sha256 invariant required by BASELINE.json
    (``input_hint``).  hashlib releases the GIL and is C-speed; the loop
    only iterates row boundaries, bytes are sliced zero-copy from the
    Arrow buffer via memoryview.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data, offsets = string_array_buffers(arr)
    mv = memoryview(data)
    out = [
        hashlib.sha256(mv[offsets[i] : offsets[i + 1]]).hexdigest()
        for i in range(len(arr))
    ]
    return pa.array(out, type=pa.string())


def hash_pairs64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-sensitive uint64 combine of two uint64/int64 columns."""
    a = np.asarray(a).astype(U64, copy=False)
    b = np.asarray(b).astype(U64, copy=False)
    with np.errstate(over="ignore"):
        return splitmix64(splitmix64(a) ^ (b * U64(0xC2B2AE3D27D4EB4F)))
