"""Ingest stage: canonicalize once, verify everywhere.

Recast of the reference's loader-level canonicalization — the QID remap
applied at every load (``src/utils/qids_remap.py:35-55`` via the
decorator at ``src/utils/loaders.py:37``) becomes the repo-rename
broadcast map; the per-row ``sha256(content)`` is the invariant the
north rule checks against the reference corpus (BASELINE.json
``input_hint``).

``record_id`` is a deterministic 63-bit fingerprint of
``(repo, path, commit)`` — order-free, so ids are stable under any
block/task scheduling (SURVEY.md §4 "Determinism vs parallelism"). At
10^12-file scale a 128-bit id would be used instead; the kernel is the
same.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..util import read_parquet_clean

from ..functions.hashing import hash_pairs64, hash_strings64, sha256_hex

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def record_fingerprint(
    repo: pa.Array | pa.ChunkedArray,
    path: pa.Array | pa.ChunkedArray,
    commit: pa.Array | pa.ChunkedArray,
) -> np.ndarray:
    """int64 (positive) deterministic record id."""
    h = hash_pairs64(hash_pairs64(hash_strings64(repo), hash_strings64(path)), hash_strings64(commit))
    return (h >> np.uint64(1)).astype(np.int64)


def remap_column(arr: pa.Array | pa.ChunkedArray, renames: dict[str, str]) -> pa.Array:
    """Vectorized dict-lookup remap of a string column (reference:
    dense-array remap, qids_remap.py:35-55); small map -> index_in +
    take, unmapped values pass through."""
    keys = pa.array(list(renames.keys()), pa.string())
    vals = pa.array(list(renames.values()), pa.string())
    idx = pc.index_in(arr, value_set=keys)
    out = pc.if_else(pc.is_valid(idx), pc.take(vals, idx), arr)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def ingest_batch(batch: pa.Table, renames: dict[str, str] | None = None) -> pa.Table:
    """Arrow-in/Arrow-out: add record_id, sha256, content_len; apply the
    repo-rename canonicalization map (broadcast small side)."""
    if renames:
        batch = batch.set_column(
            batch.schema.get_field_index("repo"),
            "repo",
            remap_column(batch["repo"], renames),
        )
    rid = record_fingerprint(batch["repo"], batch["path"], batch["commit"])
    sha = sha256_hex(batch["content"])
    clen = pc.binary_length(pc.cast(batch["content"], pa.binary()))
    return (
        batch.append_column("record_id", pa.array(rid))
        .append_column("sha256", sha)
        .append_column("content_len", pc.cast(clen, pa.int64()))
    )


def read_corpus(
    corpus_path: str,
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """Pruned parquet read of the input table (SURVEY.md §2.1 S1).

    ``override_num_blocks`` sizes the scan's output blocks so fused
    downstream maps emit shuffle-ready block counts (~2 blocks/CPU) —
    otherwise the scan splits into hundreds of fragments and every
    groupby needs a repartition (= an extra AllToAll barrier) first."""
    return read_parquet_clean(
        corpus_path,
        columns=columns or CORPUS_COLUMNS,
        override_num_blocks=override_num_blocks,
    )


def ingest(ds: "ray.data.Dataset", renames: dict[str, str] | None = None) -> "ray.data.Dataset":
    return ds.map_batches(
        lambda b: ingest_batch(b, renames), batch_format="pyarrow", zero_copy_batch=True
    )


def input_files(corpus_path) -> list[str]:
    """The Parquet files of the input, in read order: a directory (every
    ``*.parquet`` below it, skipping ``.``/``_``-prefixed paths as
    ``ray.data.read_parquet`` does), a single file or a list of either."""
    paths = corpus_path if isinstance(corpus_path, (list, tuple)) else [corpus_path]
    out: list[str] = []
    for p in map(Path, paths):
        if p.is_dir():
            out += sorted(
                str(f)
                for f in p.rglob("*.parquet")
                if not f.relative_to(p).as_posix().startswith((".", "_"))
            )
        else:
            out.append(str(p))
    return out


def split_input(corpus_path, n: int) -> list[list[tuple[str, int, int | None]]]:
    """The input cut into ``n`` contiguous shares of about equal size:
    per share, its ``(file, first row, end row)`` pieces (``None`` = to
    the end of the file).

    With at least ``n`` files, whole files are grouped by their byte
    size, so the driver reads no footer; with fewer, their row counts
    (one footer each) cut the concatenated rows into ``n`` equal ranges.
    Either way a share holds about 1/n of the rows, and every share has
    at least one piece (an empty range reads zero rows of the first
    file, so its table still has the input's columns)."""
    files = input_files(corpus_path)
    if not files:
        raise FileNotFoundError(f"no parquet files in {corpus_path!r}")
    if len(files) >= n:
        size = np.array([os.stat(f).st_size for f in files], dtype=np.float64)
        mid = np.cumsum(size) - size / 2
        cuts = [0]
        for k in range(1, n):
            # the files whose midpoint is before k/n of the bytes, one file
            # at least per share
            c = int(np.searchsorted(mid, size.sum() * k / n))
            cuts.append(min(max(c, cuts[-1] + 1), len(files) - (n - k)))
        cuts.append(len(files))
        return [[(f, 0, None) for f in files[a:b]] for a, b in zip(cuts[:-1], cuts[1:])]
    rows = [pq.read_metadata(f).num_rows for f in files]
    starts = np.cumsum([0] + rows).tolist()
    total = starts[-1]
    shares = []
    for k in range(n):
        lo, hi = total * k // n, total * (k + 1) // n
        share = [
            (f, max(lo - s, 0), min(hi - s, r))
            for f, s, r in zip(files, starts, rows)
            if s < hi and lo < s + r
        ]
        shares.append(share or [(files[0], 0, 0)])
    return shares


def read_pieces(
    pieces: list[tuple[str, int, int | None]], schema: pa.Schema | None, columns: list[str]
) -> pa.Table:
    """One share of :func:`split_input` as one table with one chunk per
    column, of ``schema`` when given (metadata-free, one type per
    column), else with the schema metadata stripped."""
    parts = []
    for f, lo, hi in pieces:
        pf = pq.ParquetFile(f)
        if hi is None:
            t = pf.read(columns=columns)
        else:
            # the row groups that hold rows [lo, hi), then the rows
            md = pf.metadata
            rg = np.cumsum([0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)])
            first = int(np.searchsorted(rg, lo, side="right")) - 1
            last = int(np.searchsorted(rg, hi, side="left"))
            t = pf.read_row_groups(list(range(first, last)), columns=columns)
            t = t.slice(lo - rg[first], hi - lo)
        parts.append(t.cast(schema) if schema is not None else t.replace_schema_metadata(None))
    return pa.concat_tables(parts, promote_options="permissive").combine_chunks()
