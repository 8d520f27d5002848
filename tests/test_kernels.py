"""Unit tests for the vectorized kernels vs naive Python oracles.

Mirrors the reference's oracle-cross-check strategy (SURVEY.md §5:
``SimplifiedBruteForceSearcher`` is the oracle for the optimized
searchers, tests/models/test_recall_calculator.py:48-61).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mel_ray.functions.hashing import (
    U64,
    hash_strings64,
    sha256_hex,
    splitmix64,
    splitmix64_inplace,
    string_array_buffers,
    substring_hasher,
)
from mel_ray.functions.minhash import (
    band_keys,
    estimate_jaccard,
    exact_jaccard,
    minhash_signature,
)
from mel_ray.functions.shingles import char_kgram_hashes, line_shingles, word_ngram_hashes
from mel_ray.functions.simhash import hamming64, simhash64
from mel_ray.functions.strsim import jaro_winkler, levenshtein_ratio
from mel_ray.functions.embed import embed_strings, topk_cosine


class TestHashing:
    def test_distinct_and_deterministic(self):
        arr = pa.array(["", "a", "aa", "ab", "ba", "hello world", "a" * 1000])
        h1, h2 = hash_strings64(arr), hash_strings64(arr)
        assert len(set(h1.tolist())) == len(arr)
        assert (h1 == h2).all()

    def test_substring_consistency(self):
        # hash of a substring == hash of the same text as a standalone string
        whole = hash_strings64(pa.array(["hello world"]))[0]
        data, _ = string_array_buffers(pa.array(["xxhello worldyy"]))
        hs = substring_hasher(data)
        assert hs(np.array([2]), np.array([13]))[0] == whole

    def test_sha256_matches_hashlib(self):
        texts = ["", "abc", "x" * 999, "unicode é中"]
        got = sha256_hex(pa.array(texts))
        for t, g in zip(texts, got):
            assert g.as_py() == hashlib.sha256(t.encode()).hexdigest()


class TestShingles:
    def test_line_shingles_normalization(self):
        docs = pa.array(["  a b \n\n c\nd", "c\n  a b", "", "\n\n", "z"])
        v, off = line_shingles(docs)
        counts = (off[1:] - off[:-1]).tolist()
        assert counts == [3, 2, 0, 0, 1]
        s0 = set(v[off[0] : off[1]].tolist())
        s1 = set(v[off[1] : off[2]].tolist())
        assert len(s0 & s1) == 2  # "a b" and "c" shared, whitespace-insensitively

    def test_char_kgrams(self):
        data, off = string_array_buffers(pa.array(["abcd", "ab", ""]))
        _, ko = char_kgram_hashes(data, off, 3)
        assert ko.tolist() == [0, 2, 3, 3]

    def test_word_ngrams(self):
        v, off = word_ngram_hashes(
            pa.array(["the quick brown fox", "Quick brown fox the", "", "one"]), n=3
        )
        assert (off[1] - off[0]) == 2
        s0 = set(v[off[0] : off[1]].tolist())
        s1 = set(v[off[1] : off[2]].tolist())
        assert len(s0 & s1) == 1  # "quick brown fox" (case-insensitive)
        assert (off[3] - off[2]) == 0 and (off[4] - off[3]) == 1


class TestMinHash:
    def test_estimate_tracks_exact_jaccard(self):
        rng = np.random.RandomState(0)
        base = rng.randint(0, 2**63, 500).astype(np.uint64)
        vals, offs = [], [0]
        for frac in [1.0, 0.9, 0.7, 0.5, 0.2]:
            keep = base[: int(500 * frac)]
            extra = rng.randint(0, 2**63, 500 - len(keep)).astype(np.uint64)
            s = np.concatenate([keep, extra])
            vals.append(s)
            offs.append(offs[-1] + len(s))
        values = np.concatenate(vals)
        offsets = np.array(offs)
        sig = minhash_signature(values, offsets, 128)
        for i in range(1, 5):
            ej = exact_jaccard(values, offsets, 0, i)
            est = estimate_jaccard(sig[0:1], sig[i : i + 1])[0]
            assert abs(ej - est) < 0.15

    def test_band_shapes_and_empty_rows(self):
        values = np.arange(10, dtype=np.uint64)
        offsets = np.array([0, 5, 5, 10])  # middle row empty
        sig = minhash_signature(values, offsets, 64)
        assert sig.shape == (3, 64)
        assert (sig[1] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
        bid, bh = band_keys(sig, 16)
        assert len(bid) == 3 * 16 and len(bh) == 3 * 16
        # identical shingle sets -> identical bands
        sig2 = minhash_signature(values, np.array([0, 5, 5, 10]), 64)
        assert (sig == sig2).all()

    @pytest.mark.parametrize("num_bands,num_hashes,tasks", [(32, 128, 12), (20, 80, 12), (32, 128, 8)])
    def test_band_range_equals_full_band_columns(self, num_bands, num_hashes, tasks):
        """Band-range tasks of uneven width fold the same hashes as the
        full fold, from uint32-truncated signatures as from uint64 ones."""
        rng = np.random.RandomState(7)
        sig32 = rng.randint(0, 2**32, (57, num_hashes), dtype=np.uint64).astype(np.uint32)
        full_id, full_h = band_keys(sig32.astype(np.uint64), num_bands)
        full_id = full_id.reshape(57, num_bands)
        full_h = full_h.reshape(57, num_bands)
        for g in range(tasks):
            lo, hi = num_bands * g // tasks, num_bands * (g + 1) // tasks
            bid, bh = band_keys(sig32, num_bands, lo, hi)
            assert (bid.reshape(57, hi - lo) == full_id[:, lo:hi]).all()
            assert (bh.reshape(57, hi - lo) == full_h[:, lo:hi]).all()


class TestSimHash:
    def test_near_dup_has_smaller_hamming(self):
        rng = np.random.RandomState(1)
        base = rng.randint(0, 2**63, 400).astype(np.uint64)
        near = np.concatenate([base[:360], rng.randint(0, 2**63, 40).astype(np.uint64)])
        far = rng.randint(0, 2**63, 400).astype(np.uint64)
        values = np.concatenate([base, near, far])
        offsets = np.array([0, 400, 800, 1200])
        sh = simhash64(values, offsets)
        d_near = hamming64(sh[0:1], sh[1:2])[0]
        d_far = hamming64(sh[0:1], sh[2:3])[0]
        assert d_near < d_far
        assert d_near <= 12


def _naive_lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, len(b) + 1):
            cur = min(prev + (a[i - 1] != b[j - 1]), dp[j] + 1, dp[j - 1] + 1)
            prev, dp[j] = dp[j], cur
    return dp[len(b)]


def _naive_jw(a: str, b: str, p: float = 0.1) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    w = max(max(len(a), len(b)) // 2 - 1, 0)
    m1, m2 = [False] * len(a), [False] * len(b)
    matches = 0
    for i, c in enumerate(a):
        for j in range(max(0, i - w), min(len(b), i + w + 1)):
            if not m2[j] and b[j] == c:
                m1[i] = m2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    s1 = [c for i, c in enumerate(a) if m1[i]]
    s2 = [c for j, c in enumerate(b) if m2[j]]
    t = sum(x != y for x, y in zip(s1, s2)) / 2
    jaro = (matches / len(a) + matches / len(b) + (matches - t) / matches) / 3
    pref = 0
    for x, y in zip(a[:4], b[:4]):
        if x == y:
            pref += 1
        else:
            break
    return jaro + pref * p * (1 - jaro)


class TestStringSim:
    @pytest.fixture(scope="class")
    def pairs(self):
        random.seed(7)
        A, B = [], []
        for _ in range(300):
            A.append("".join(random.choice("abcd/_") for _ in range(random.randint(0, 14))))
            B.append("".join(random.choice("abcd/_") for _ in range(random.randint(0, 14))))
        return A, B

    def test_levenshtein_vs_naive(self, pairs):
        A, B = pairs
        got = levenshtein_ratio(pa.array(A), pa.array(B))
        for a, b, g in zip(A, B, got):
            exp = 1.0 if (not a and not b) else 1 - _naive_lev(a, b) / max(len(a), len(b), 1)
            assert abs(g - exp) < 1e-6, (a, b, g, exp)

    def test_jaro_winkler_vs_naive(self, pairs):
        A, B = pairs
        got = jaro_winkler(pa.array(A), pa.array(B))
        for a, b, g in zip(A, B, got):
            assert abs(g - _naive_jw(a, b)) < 1e-5, (a, b, g)

    def test_myers_kernel_matches_classic_dp(self):
        """The bit-parallel Myers path (buckets wider than
        _MYERS_MIN_WIDTH) must be distance-identical to the classic DP
        and the naive oracle — long, correlated, path-like strings."""
        from mel_ray.functions.strsim import _dp_dist, _dp_dist_myers

        random.seed(23)
        A, B = [], []
        for _ in range(400):
            la, lb = random.randint(0, 70), random.randint(0, 70)
            a = "".join(random.choice("abcdxy/_.") for _ in range(la))
            b = "".join(random.choice("abcdxy/_.") for _ in range(lb))
            if random.random() < 0.5:  # shared prefixes, like fork paths
                b = a[: random.randint(0, la)] + b
            A.append(a), B.append(b)
        got = levenshtein_ratio(pa.array(A), pa.array(B), max_len=64)
        for a, b, g in zip(A, B, got):
            a, b = a[:64], b[:64]
            exp = 1.0 if (not a and not b) else 1 - _naive_lev(a, b) / max(len(a), len(b), 1)
            assert abs(g - exp) < 1e-6, (a, b, g, exp)
        # kernel-vs-kernel on random padded matrices (all lengths 1..64)
        rng = np.random.default_rng(5)
        p = 300
        la = rng.integers(1, 65, p)
        lb = rng.integers(1, 65, p)
        Am = rng.integers(97, 123, (p, 64), dtype=np.uint8) * (np.arange(64) < la[:, None])
        Bm = rng.integers(97, 123, (p, 64), dtype=np.uint8) * (np.arange(64) < lb[:, None])
        assert (_dp_dist(Am, Bm, la, lb) == _dp_dist_myers(Am, Bm, la, lb)).all()

    def test_jw_bits_matches_matrix_core(self):
        """The bit-parallel Jaro match loop must be bit-identical to the
        boolean-matrix core on long strings (both vs the naive oracle)."""
        import mel_ray.functions.strsim as strsim

        random.seed(31)
        A, B = [], []
        for _ in range(400):
            la, lb = random.randint(0, 64), random.randint(0, 64)
            a = "".join(random.choice("abcdxy/_.") for _ in range(la))
            b = "".join(random.choice("abcdxy/_.") for _ in range(lb))
            if random.random() < 0.5:
                b = a[: random.randint(0, la)] + b[:64 - min(la, lb)]
            A.append(a), B.append(b[:64])
        Aa, Bb = pa.array(A), pa.array(B)
        got_bits = jaro_winkler(Aa, Bb)
        saved = strsim._MYERS_MIN_WIDTH
        try:
            strsim._MYERS_MIN_WIDTH = 10_000  # force the matrix core
            got_matrix = jaro_winkler(Aa, Bb)
        finally:
            strsim._MYERS_MIN_WIDTH = saved
        assert (got_bits == got_matrix).all()
        for a, b, g in zip(A, B, got_bits):
            assert abs(g - _naive_jw(a, b)) < 1e-5, (a, b, g)


class TestEmbed:
    def test_self_similarity_and_ordering(self):
        texts = pa.array(
            [
                "def compute_total(items): return sum(i.price for i in items)",
                "def compute_total(items): return sum(x.price for x in items)",
                "SELECT * FROM completely_different_table WHERE z > 9",
            ]
        )
        emb = embed_strings(texts)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)
        near = float(emb[0] @ emb[1])
        far = float(emb[0] @ emb[2])
        assert near > 0.8 > far

    def test_topk_matches_naive(self):
        rng = np.random.RandomState(3)
        index = rng.randn(50, 16).astype(np.float32)
        index /= np.linalg.norm(index, axis=1, keepdims=True)
        queries = index[:5]
        idx, sims = topk_cosine(queries, index, 4)
        full = queries @ index.T
        for q in range(5):
            order = np.lexsort((np.arange(50), -full[q]))[:4]
            assert idx[q].tolist() == order.tolist()
            assert idx[q][0] == q  # self is nearest


def test_hll_sketch_accuracy_and_merge():
    """HLL estimate within 5% at b=12; merge(a,b) == sketch(a ∪ b)."""
    from mel_ray.functions.sketch import hash_keys, hll_estimate, hll_merge, hll_partial

    rng = np.random.RandomState(11)
    keys = rng.randint(0, 10**12, size=50_000)
    uniq = len(np.unique(keys))
    h = hash_keys(keys)
    est = hll_estimate(hll_partial(h, 12))
    assert abs(est - uniq) / uniq < 0.05, (est, uniq)
    # mergeability
    a, b = h[:20_000], h[20_000:]
    merged = hll_merge(hll_partial(a, 12), hll_partial(b, 12))
    assert (merged == hll_partial(h, 12)).all()
    # small-range correction path
    small = hash_keys(np.arange(10))
    assert abs(hll_estimate(hll_partial(small, 12)) - 10) < 1


def test_content_window_bounds_featurize_work():
    """M8/M9: with content_window set, only the first N codepoints feed
    shingling — a record with a huge tail featurizes identically to its
    truncated twin."""
    import pyarrow as pa

    from mel_ray.config import BlockingConfig
    from mel_ray.stages.blocking import binary_matrix, featurize_batch

    head = "def f():\n    return 1\n"
    big = head + ("x = 2\n" * 5000)
    batch = pa.table(
        {
            "record_id": pa.array([1, 2], pa.int64()),
            "repo": pa.array(["r", "r"]),
            "path": pa.array(["a.py", "b.py"]),
            "sha256": pa.array(["s1", "s2"]),
            "content": pa.array([big, big[: len(head)]]),
        }
    )
    cfg = BlockingConfig(content_window=len(head))
    out = featurize_batch(batch, cfg, 64, 4)
    sig = binary_matrix(out["sig"], np.uint32)
    assert (sig[0] == sig[1]).all()
    # default (None) sees the tail: signatures differ
    out2 = featurize_batch(batch, BlockingConfig(), 64, 4)
    sig2 = binary_matrix(out2["sig"], np.uint32)
    assert not (sig2[0] == sig2[1]).all()


@pytest.mark.parametrize("window", [None, 40])
def test_featurize_batch_slices_exactly(window):
    """One featurize_batch call over 300 rows equals, byte for byte, its
    128-row slices featurized one at a time, with one chunk per feature
    column; a zero-row batch gives the same columns."""
    from mel_ray.config import BlockingConfig
    from mel_ray.stages.blocking import featurize_batch

    rng = random.Random(11)
    lines = ["def f(x):", "    return x + 1", "import os", "# héllo wörld", "x = [1, 2, 3]", ""]
    content = ["\n".join(rng.choice(lines) for _ in range(rng.randint(0, 40))) for _ in range(300)]
    content[5] = ""
    batch = pa.table(
        {
            "record_id": pa.array(range(300), pa.int64()),
            "repo": pa.array([f"r{i % 7}" for i in range(300)]),
            "path": pa.array([f"p{i}.py" for i in range(300)]),
            "sha256": pa.array([f"s{i}" for i in range(300)]),
            "content": pa.array(content),
        }
    )
    cfg = BlockingConfig(content_window=window)
    whole = featurize_batch(batch, cfg, 64, 4)
    slices = [featurize_batch(batch.slice(s, 128), cfg, 64, 4) for s in range(0, 300, 128)]
    assert whole.equals(pa.concat_tables(slices).combine_chunks())
    assert whole["sig"].num_chunks == whole["emb"].num_chunks == 1
    empty = featurize_batch(batch.slice(0, 0), cfg, 64, 4)
    assert len(empty) == 0 and empty.schema == whole.schema


class TestPairEmissionAccounting:
    """No-silent-caps: every semantic degradation of the pair set
    (stopband drop, salting, star-pair cap) is counted in the kernel's
    band counts."""

    @staticmethod
    def _bucket(band_sizes):
        rows_bh, rows_rid = [], []
        next_id = 0
        for bh, size in enumerate(band_sizes):
            for _ in range(size):
                rows_bh.append(bh)
                rows_rid.append(next_id)
                next_id += 1
        return pa.table(
            {
                "record_id": pa.array(rows_rid, pa.int64()),
                "band_hash": pa.array(rows_bh, pa.int64()),
                "bucket": pa.array([0] * len(rows_bh), pa.int32()),
            }
        )

    def test_star_pair_cap_is_counted(self):
        from mel_ray.config import BlockingConfig
        from mel_ray.stages.blocking import _emit_pairs_for_bucket

        cfg = BlockingConfig(salt_limit=64, stopband_limit=4096, max_pairs_per_group=10)
        pairs, counts = _emit_pairs_for_bucket(self._bucket([6]), cfg)  # C(6,2)=15 > 10
        assert counts["capped_groups"] == 1
        assert counts["dropped_bands"] == 0
        # star fallback: 5 pairs to the min member, not the 15 all-pairs
        assert len(pairs) == 5
        assert set(pairs["id_a"].to_pylist()) == {0}

    def test_uncapped_band_not_counted(self):
        from mel_ray.config import BlockingConfig
        from mel_ray.stages.blocking import _emit_pairs_for_bucket

        cfg = BlockingConfig(salt_limit=64, stopband_limit=4096, max_pairs_per_group=100)
        pairs, counts = _emit_pairs_for_bucket(self._bucket([6, 3]), cfg)
        assert counts["capped_groups"] == 0
        assert len(pairs) == 15 + 3


def test_id_range_bounds_balance_pair_counts():
    """Band-major id ranges cut at the pair-count quantiles of id_a =
    min(two uniform 63-bit ids): on uniform-id pairs no range holds more
    than 1.3x the pairs of another (equal-width cuts give about 15x)."""
    from mel_ray.stages.blocking import id_range_bounds

    rng = np.random.default_rng(7)
    ids = rng.integers(0, 1 << 63, size=(50_000, 2), dtype=np.int64)
    id_a = np.sort(ids.min(axis=1))
    bounds = id_range_bounds(8)
    assert len(bounds) == 7 and bounds == sorted(bounds)
    assert 0 < bounds[0] and bounds[-1] < 1 << 63
    cuts = [0, *np.searchsorted(id_a, bounds), len(id_a)]
    sizes = np.diff(cuts)
    assert sizes.max() <= 1.3 * sizes.min(), sizes


def test_scorer_gpu_knob_is_noop_at_zero():
    """num_gpus=0 must not change the map_batches kwargs at all (this
    sandbox is CPU-only); a positive value passes straight through."""
    from mel_ray.config import ScoringConfig
    from mel_ray.stages.scoring import _gpu_args

    assert _gpu_args(ScoringConfig()) == {}
    assert _gpu_args(ScoringConfig(num_gpus=0.25)) == {"num_gpus": 0.25}


def test_strsim_equal_fast_path_identical_to_dp():
    """The equality fast path must be value-identical to the full DP on
    equal strings (and leave unequal pairs untouched)."""
    import pyarrow as pa

    from mel_ray.functions.strsim import (
        _jaro_winkler_impl,
        _levenshtein_ratio_dp,
        jaro_winkler,
        levenshtein_ratio,
    )

    a = pa.array(["abc/def.py", "", "same", "kitten", "x" * 100])
    b = pa.array(["abc/def.py", "", "same", "sitting", "x" * 100])
    jw = jaro_winkler(a, b)
    lev = levenshtein_ratio(a, b, max_len=64)
    jw_full = _jaro_winkler_impl(a, b)
    lev_full = _levenshtein_ratio_dp(a, b, max_len=64)
    assert (jw == jw_full).all()
    assert (lev == lev_full).all()
    assert jw[0] == jw[1] == jw[2] == 1.0
    assert lev[4] == 1.0


def test_ntile_ids_matches_duckdb_all_small_sizes():
    """ntile_per_key's tile formula vs DuckDB NTILE for every partition
    size the bucketed tiler can see, including s < n (each row its own
    tile) — the test data never exercises small partitions."""
    import duckdb
    import numpy as np

    from mel_ray.relational import ntile_ids

    for n in (2, 4, 7):
        for s in range(1, 30):
            i = np.arange(s)
            mine = ntile_ids(i, np.full(s, s, dtype=np.int64), n).tolist()
            ref = [
                r[0]
                for r in duckdb.sql(
                    f"SELECT ntile({n}) OVER (ORDER BY x) "
                    f"FROM (SELECT unnest(range({s})) x)"
                ).fetchall()
            ]
            assert mine == ref, (n, s)


def test_binary_matrix_single_chunk_is_zero_copy():
    """The broadcast scorer's views must be true views: pyarrow 16's
    combine_chunks() copies even single-chunk arrays, which collapsed
    under concurrent first-touch on cgroup-limited hosts (round-5 find:
    37 s/worker views builds).  Pin the chunk(0) fast path."""
    import pyarrow as pa

    from mel_ray.stages.blocking import binary_matrix

    rows = np.arange(64, dtype=np.uint32).reshape(8, 8)
    flat = rows.tobytes()
    width = rows.shape[1] * 4
    offsets = pa.array(np.arange(0, (8 + 1) * width, width, dtype=np.int32))
    arr = pa.Array.from_buffers(
        pa.binary(), 8, [None, offsets.buffers()[1], pa.py_buffer(flat)]
    )
    chunked = pa.chunked_array([arr])

    out = binary_matrix(chunked, np.uint32)
    assert (out == rows).all()
    # zero-copy: the ndarray's memory IS the arrow buffer's
    src_addr = arr.buffers()[2].address
    assert out.__array_interface__["data"][0] == src_addr

    # multi-chunk inputs still combine (copy) and stay correct
    two = pa.chunked_array([arr.slice(0, 4), arr.slice(4, 4)])
    out2 = binary_matrix(two, np.uint32)
    assert (out2 == rows).all()


# ---------------------------------------------------------------------------
# Frozen references of the featurize kernels: the straightforward
# formulations that the optimized kernels replaced (cumprod power tables,
# two-pass normalization, per-gram gathers, MinHash over every shingle
# occurrence, float64-weighted bincount).  The optimized kernels must
# reproduce them bit for bit — sig and emb are persisted and compared
# across runs, so "close" is not good enough.

_REF_B = 0x100000001B3
_REF_B_INV = pow(_REF_B, -1, 1 << 64)


def _ref_powers(n, base):
    if n == 0:
        return np.empty(0, dtype=U64)
    p = np.full(n, U64(base & ((1 << 64) - 1)), dtype=U64)
    p[0] = U64(1)
    with np.errstate(over="ignore"):
        return np.cumprod(p, dtype=U64)


def _ref_substring_hasher(data):
    n = len(data)
    pw = _ref_powers(n + 1, _REF_B)
    pw_inv = _ref_powers(n + 1, _REF_B_INV)
    with np.errstate(over="ignore"):
        weighted = data.astype(U64) * pw_inv[:n]
        csum = np.zeros(n + 1, dtype=U64)
        np.cumsum(weighted, dtype=U64, out=csum[1:])

    def hash_spans(starts, ends):
        s = np.asarray(starts, dtype=np.int64)
        e = np.asarray(ends, dtype=np.int64)
        with np.errstate(over="ignore"):
            h = (csum[e] - csum[s]) * pw[s] + pw[e - s]
        return splitmix64(h)

    return hash_spans


def _ref_line_shingles(arr):
    import pyarrow.compute as pc

    norm = pc.replace_substring_regex(arr, pattern=r"(?m)^[ \t]+", replacement="")
    norm = pc.replace_substring_regex(norm, pattern=r"(?m)[ \t]+$", replacement="")
    data, offsets = string_array_buffers(norm)
    n_rows = len(offsets) - 1
    nl = np.flatnonzero(data == 0x0A)
    starts = np.concatenate([offsets[:-1], nl + 1])
    ends = np.concatenate([nl, offsets[1:]])
    starts.sort(kind="stable")
    ends.sort(kind="stable")
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    values = _ref_substring_hasher(data)(starts, ends)
    row_of = np.searchsorted(offsets[1:], starts, side="right")
    row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=n_rows), out=row_offsets[1:])
    return values, row_offsets


def _ref_minhash_signature(
    values: np.ndarray, row_offsets: np.ndarray, num_hashes: int = 128, seed: int = 0x5EED
) -> np.ndarray:
    n_rows = len(row_offsets) - 1
    out = np.full((n_rows, num_hashes), U64(0xFFFFFFFFFFFFFFFF), dtype=U64)
    if n_rows == 0:
        return out
    values = np.asarray(values, dtype=U64)
    starts = np.asarray(row_offsets[:-1], dtype=np.int64)
    empty = row_offsets[1:] == row_offsets[:-1]
    ne = ~empty
    if not ne.any():
        return out
    ne_starts = starts[ne]
    from mel_ray.functions.minhash import seeds_for

    all_seeds = seeds_for(num_hashes, seed)
    chunk = 16
    # preallocated (M, chunk) scratch reused across seed chunks: the mix
    # is allocation-bound, not ALU-bound (see splitmix64_inplace)
    mixed = np.empty((len(values), chunk), dtype=U64)
    scratch = np.empty_like(mixed)
    for c0 in range(0, num_hashes, chunk):
        sd = all_seeds[c0 : c0 + chunk]
        m = mixed[:, : len(sd)]
        np.bitwise_xor(values[:, None], sd[None, :], out=m)
        splitmix64_inplace(m, scratch[:, : len(sd)])
        out[ne, c0 : c0 + len(sd)] = np.minimum.reduceat(m, ne_starts, axis=0)
    return out


def _ref_char_kgram_hashes(
    data: np.ndarray, row_offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    n_rows = len(row_offsets) - 1
    lens = row_offsets[1:] - row_offsets[:-1]
    n_grams = np.maximum(lens - k + 1, np.minimum(lens, 1)).astype(np.int64)

    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(n_grams, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=U64), out_offsets
    if 1 <= k <= 8:
        return _ref_kgram_hashes_word(data, row_offsets, lens, n_grams, out_offsets, k)

    hasher = _ref_substring_hasher(data)
    # Global start index of every k-gram: for each row, row_start + arange(n_grams).
    starts = np.repeat(row_offsets[:-1], n_grams) + (
        np.arange(total) - np.repeat(out_offsets[:-1], n_grams)
    )
    gram_len = np.repeat(np.minimum(lens, k), n_grams)
    values = hasher(starts, starts + gram_len)
    return values, out_offsets


def _ref_kgram_hashes_word(
    data: np.ndarray,
    row_offsets: np.ndarray,
    lens: np.ndarray,
    n_grams: np.ndarray,
    out_offsets: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    total = int(out_offsets[-1])
    len_salt = splitmix64(np.arange(k + 1, dtype=U64) + U64(0xA11CE))
    pad = np.zeros(len(data) + 8, dtype=np.uint8)
    pad[: len(data)] = data  # one compact copy; 8-byte zero tail
    wv = np.ndarray(shape=(len(data) + 1,), dtype="<u8", buffer=pad, strides=(1,))
    mask = U64((1 << (8 * k)) - 1) if k < 8 else U64(0xFFFFFFFFFFFFFFFF)

    long_rows = lens >= k
    if long_rows.all():
        # row-major gram order == output order: gather, no scatter
        local = np.arange(total) - np.repeat(out_offsets[:-1], n_grams)
        gidx = np.repeat(row_offsets[:-1], n_grams)
        gidx += local
        vals = wv[gidx]
        vals &= mask
        vals ^= len_salt[k]
        splitmix64_inplace(vals)
        return vals, out_offsets

    values = np.empty(total, dtype=U64)
    if long_rows.any():
        cnt = n_grams[long_rows]
        ccs = np.zeros(len(cnt) + 1, dtype=np.int64)
        np.cumsum(cnt, out=ccs[1:])
        local = np.arange(ccs[-1]) - np.repeat(ccs[:-1], cnt)
        gidx = np.repeat(row_offsets[:-1][long_rows], cnt) + local
        out_idx = np.repeat(out_offsets[:-1][long_rows], cnt) + local
        v = wv[gidx]
        v &= mask
        v ^= len_salt[k]
        splitmix64_inplace(v)
        values[out_idx] = v

    short_rows = (lens < k) & (lens > 0)
    if short_rows.any():
        sl = lens[short_rows].astype(U64)
        so = row_offsets[:-1][short_rows]
        smask = (U64(1) << (U64(8) * sl)) - U64(1)  # sl <= 7 < 8: no overflow
        sval = wv[so]
        sval &= smask
        sval ^= len_salt[sl]
        splitmix64_inplace(sval)
        values[out_offsets[:-1][short_rows]] = sval
    return values, out_offsets


def _ref_embed_strings(
    arr: pa.Array | pa.ChunkedArray, dim: int = 256, k: int = 4
) -> np.ndarray:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    data, offsets = string_array_buffers(arr)
    n = len(offsets) - 1
    if n == 0:
        return np.empty((0, dim), dtype=np.float32)
    values, out_off = _ref_char_kgram_hashes(data, offsets, k)
    counts = (out_off[1:] - out_off[:-1]).astype(np.int64)
    # flat scatter index: repeat the row base (row*dim), add the bucket
    # in place; power-of-two dims use a mask instead of a u64 division
    flat_idx = np.repeat(np.arange(n, dtype=np.int64) * dim, counts)
    if dim & (dim - 1) == 0:
        bucket = values & U64(dim - 1)
    else:
        bucket = values % U64(dim)
    flat_idx += bucket.astype(np.int64)
    # bincount weights are accumulated in float64 regardless — build the
    # sign there directly (one temp instead of bool+f64+f32 chains)
    sign = ((values >> U64(32)) & U64(1)).astype(np.float64)
    sign *= 2.0
    sign -= 1.0
    mat = np.bincount(flat_idx, weights=sign, minlength=n * dim).reshape(n, dim)
    mat = mat.astype(np.float32)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    return mat / norms


_LONG_ROW = "".join(f"    line {i} \t\n" for i in range(600))  # > 4096 bytes

PLANTED_BATCHES = {
    "empty_content": [""],
    "all_empty": ["", "", ""],
    "shorter_than_k": ["a", "ab", "abc", "é", "\x00", "abcd"],
    "zero_shingle_rows_trail": ["a\nb\nc", "x y", "", "  \n\t\n", ""],
    "zero_shingle_row_leads": ["", " \t ", "a"],
    "long_row": [_LONG_ROW, "short", _LONG_ROW[:4097]],
    "long_batch": [f"row {i}\n  body {i % 7}\n" for i in range(400)],
    "crlf": ["a \r\nb\t\r\n\r\n  c  \r\n", "a\r\nb"],
    "whitespace_only_lines": ["  \n\t\t\n x \n \t \n", "\t", " "],
    "non_ascii": ["héllo wörld\n中文 行 \n  ünïcödé\t\n", "日本語", "é\n é \n"],
}

KERNEL_TEXT = st.text(
    alphabet=st.sampled_from(list(" \t\n\r\x00abcxyz_=") + ["é", "中", "😀"]), max_size=120
)


def _assert_kernels_match_reference(arr):
    """Every featurize kernel bit-equal to its frozen reference on ``arr``."""
    v, off = line_shingles(arr)
    rv, roff = _ref_line_shingles(arr)
    assert v.dtype == rv.dtype and np.array_equal(v, rv)
    assert np.array_equal(off, roff)
    for num_hashes in (128, 40):
        got = minhash_signature(v, off, num_hashes)
        assert np.array_equal(got, _ref_minhash_signature(v, off, num_hashes))
    data, offsets = string_array_buffers(arr)
    assert np.array_equal(hash_strings64(arr), _ref_substring_hasher(data)(offsets[:-1], offsets[1:]))
    for k in (3, 4, 8, 10):
        kv, ko = char_kgram_hashes(data, offsets, k)
        rkv, rko = _ref_char_kgram_hashes(data, offsets, k)
        assert np.array_equal(kv, rkv) and np.array_equal(ko, rko), k
    for dim, k in ((256, 4), (100, 4), (64, 3), (96, 10)):
        got = embed_strings(arr, dim=dim, k=k)
        want = _ref_embed_strings(arr, dim=dim, k=k)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (dim, k)


class TestFeaturizeKernelsBitIdentical:
    @pytest.mark.parametrize("case", sorted(PLANTED_BATCHES))
    def test_planted_batches(self, case):
        _assert_kernels_match_reference(pa.array(PLANTED_BATCHES[case], pa.string()))

    def test_zero_copy_slice_with_offset(self):
        """A batch that is a zero-copy slice of a bigger block (what
        ``map_batches`` hands featurize) hashes like a fresh array."""
        rows = [t for case in sorted(PLANTED_BATCHES) for t in PLANTED_BATCHES[case]]
        block = pa.array(rows, pa.string())
        for start, length in ((3, 5), (7, 12), (len(rows) - 2, 2)):
            piece = block.slice(start, length)
            assert piece.offset == start
            _assert_kernels_match_reference(piece)
            fresh = pa.array(rows[start : start + length], pa.string())
            assert np.array_equal(embed_strings(piece), embed_strings(fresh))
            assert np.array_equal(line_shingles(piece)[0], line_shingles(fresh)[0])

    def test_large_string_type(self):
        _assert_kernels_match_reference(pa.array(PLANTED_BATCHES["non_ascii"], pa.large_string()))

    @given(st.lists(KERNEL_TEXT, max_size=12), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_corpus(self, texts, lead):
        block = pa.array(["pad\n"] * lead + texts, pa.string())
        _assert_kernels_match_reference(block.slice(lead))
