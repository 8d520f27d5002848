"""Single-process timings of mel_ray's NumPy kernels on one fixed batch.

The batch is the first ``BATCH_ROWS`` rows of the workload's corpus, so
each workload times the kernels on its own kind of content.  Each kernel
runs ``REPS`` times and reports its median.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BATCH_ROWS = 2048
PAIRS = 8192
REPS = 3
FEATURIZE_BATCH = 128  # the featurize map_batches batch_size in pipelines/linkage.py


def _timed(fn) -> float:
    walls = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def distinct_shingle_ratio(content: pa.Array) -> float:
    """Distinct shingle values per shingle, within featurize-sized batches."""
    from mel_ray.functions.shingles import line_shingles

    distinct = total = 0
    for s in range(0, len(content), FEATURIZE_BATCH):
        values, _ = line_shingles(content.slice(s, FEATURIZE_BATCH))
        distinct += len(np.unique(values))
        total += len(values)
    return distinct / max(total, 1)


def kernel_metrics(corpus: Path) -> dict[str, float]:
    from mel_ray.functions.embed import embed_strings
    from mel_ray.functions.hashing import sha256_hex
    from mel_ray.functions.minhash import band_keys, estimate_jaccard, minhash_signature
    from mel_ray.functions.shingles import line_shingles
    from mel_ray.functions.strsim import jaro_winkler, levenshtein_ratio
    from mel_ray.stages.clustering import local_union_find

    shard = sorted(corpus.glob("*.parquet"))[0]
    t = pq.read_table(shard, columns=["repo", "path", "content"]).slice(0, BATCH_ROWS)
    content = t["content"].combine_chunks()
    paths = t["path"].combine_chunks()
    rng = np.random.RandomState(0)
    ia = rng.randint(0, len(t), PAIRS)
    ib = rng.randint(0, len(t), PAIRS)

    values, offsets = line_shingles(content)
    sig = minhash_signature(values, offsets, 128)
    u = rng.randint(0, len(t) * 4, 4 * PAIRS).astype(np.int64)
    v = rng.randint(0, len(t) * 4, 4 * PAIRS).astype(np.int64)
    pa_, pb_ = paths.take(pa.array(ia)), paths.take(pa.array(ib))

    minhash_s = _timed(lambda: minhash_signature(values, offsets, 128))
    mb = pa.compute.sum(pa.compute.binary_length(content.cast(pa.binary()))).as_py() / 1e6
    return {
        "line_shingles_s": _timed(lambda: line_shingles(content)),
        "minhash_signature_s": minhash_s,
        "minhash_mb_per_s": mb / minhash_s,
        "embed_strings_s": _timed(lambda: embed_strings(content, dim=256, k=4)),
        "sha256_s": _timed(lambda: sha256_hex(content)),
        "band_keys_s": _timed(lambda: band_keys(sig, 32)),
        "estimate_jaccard_s": _timed(lambda: estimate_jaccard(sig[ia], sig[ib])),
        "jaro_winkler_s": _timed(lambda: jaro_winkler(pa_, pb_)),
        "levenshtein_ratio_s": _timed(lambda: levenshtein_ratio(pa_, pb_, max_len=64)),
        "local_union_find_s": _timed(lambda: local_union_find(u, v)),
        "distinct_shingle_ratio": distinct_shingle_ratio(content),
    }
