"""Small runtime helpers."""

from __future__ import annotations

import numpy as np


def read_parquet_clean(paths, *, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with schema METADATA stripped from every
    block.

    Parquet written through pandas carries a ``b'pandas'`` schema
    metadata entry; a ``pyarrow.Schema`` with ANY metadata is unhashable
    (``hash(schema)`` raises ``unhashable type: 'dict'``), which defeats
    Ray's schema dedup in every downstream sort/shuffle reduce and spams
    "Failed to hash the schemas" once per reduce task.  Passing an
    explicit metadata-free ``schema=`` makes the SCAN ITSELF emit clean
    blocks (a downstream strip map cannot fix the read operator's own
    schema accounting); when the schema cannot be sniffed up front we
    fall back to a zero-copy strip map fused with the read."""
    import ray.data

    if "schema" not in kwargs:
        schema = sniff_clean_schema(paths, columns)
        if schema is not None:
            return ray.data.read_parquet(
                paths, columns=columns, schema=schema, **kwargs
            )

    ds = ray.data.read_parquet(paths, columns=columns, **kwargs)

    def strip(t):
        return t.replace_schema_metadata(None) if t.schema.metadata else t

    return ds.map_batches(strip, batch_format="pyarrow", zero_copy_batch=True)


def sniff_clean_schema(paths, columns, max_probe: int = 8):
    """Projected, metadata-free schema sniffed from the input files, or
    ``None`` when it cannot be determined — the caller then falls back
    to a post-read strip map (which also tolerates per-file type
    promotion, since no explicit ``schema=`` is forced on the scan).

    Multi-file inputs are probed at up to ``max_probe`` evenly-spaced
    footers (never all of them — at 10^6-shard scale the driver must not
    read every footer): if any probed file disagrees on the projected
    field types, we return ``None`` rather than force the first file's
    schema onto the whole read.  Evenly-spaced probing bounds, not
    eliminates, the risk of an unprobed divergent file — acceptable
    because our writers emit uniform schemas and the fallback path is
    only a log-spam (schema-dedup) regression, not a correctness one."""
    import glob as _glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    first = paths[0] if isinstance(paths, (list, tuple)) and paths else paths
    if not isinstance(first, (str, os.PathLike)):
        return None
    first = str(first)
    try:
        probes = [first]
        if os.path.isdir(first):
            hits = sorted(_glob.glob(os.path.join(first, "*.parquet")))
            if not hits:
                return None
            if len(hits) <= max_probe:
                probes = hits
            else:
                idx = np.linspace(0, len(hits) - 1, max_probe).astype(int)
                probes = [hits[i] for i in idx]
        schema = None
        for p in probes:
            full = pq.read_schema(p)
            names = columns if columns is not None else full.names
            s = pa.schema([full.field(c).remove_metadata() for c in names])
            if schema is None:
                schema = s
            elif not schema.equals(s):
                return None  # divergent shards: let the scan sort types out
        return schema
    except Exception:
        return None


def round_half_away(x: "np.ndarray", nd: int) -> "np.ndarray":
    """Round half away from zero (DuckDB ``round()`` semantics).

    ``np.round`` is half-to-even, which diverges from the SQL oracle on
    exact ties — use this for any float column that is hash-compared.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0**nd
    return np.copysign(np.floor(np.abs(x) * scale + 0.5), x) / scale


def cluster_cpus(default: int = 8) -> int:
    """Total CPUs of the (already initialised) Ray cluster; never inits Ray."""
    import ray

    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get("CPU", default))


def auto_join_partitions(requested: int | None, rows: int | None = None) -> int:
    """Hash-join partition count that cannot starve a small node: the
    aggregator actors of one join stay under ~half the CPUs.  When the
    (materialized) small side's ``rows`` is known, cap partitions so
    tiny joins don't pay 16 aggregator actors for 25 rows."""
    if requested is not None:
        return requested
    cap = max(2, cluster_cpus() // 2)
    if rows is not None:
        cap = min(cap, max(2, rows // 10_000 + 1))
    return cap


def shuffle_partitions(requested: int | None = None) -> int:
    """Block count to repartition to IMMEDIATELY BEFORE a sort-shuffle
    groupby.  Ray's sort exchanges num_blocks x num_partitions objects;
    feeding it hundreds of tiny blocks (e.g. the 16x band expansion of
    small featurize batches) makes coordination, not data movement, the
    cost.  ~2 blocks per CPU keeps the exchange quadratic term at
    cluster scale, not at fragment scale (round-1: hundreds of fragment
    blocks cost 2.7x on the pair stage at sf0.1/32 cpus), while giving
    the downstream ``map_groups`` enough tasks to absorb bucket skew —
    at exactly 1 block/CPU the pair-emit stage is straggler-bound
    (round-5 profile: 8 tasks at 8 CPUs, max/mean task 2.4s/1.2s)."""
    if requested is not None:
        return requested
    return max(8, 2 * cluster_cpus())


def auto_pool_size(requested: int | None) -> int:
    """Actor-pool size leaving CPU room for the feeding/consuming stages."""
    if requested is not None:
        return requested
    return max(2, cluster_cpus() // 4)


def _num_rows(*blocks) -> int:
    """(worker task) blocks -> their row count."""
    return sum(t.num_rows for t in blocks)


def num_rows(refs: list) -> int:
    """Row count of the blocks at ``refs``, from one whole-CPU task over
    them (the plain-task rule of blocking.py ``band_major_pairs``),
    waited on: no Ray Data metadata task per block."""
    import ray

    return ray.get(ray.remote(_num_rows).remote(*refs))


def drop_schemaless_blocks(ds):
    """Rebuild an (already materialized) dataset without its
    zero-COLUMN empty blocks.

    Ray's hash-shuffle groupby emits schema-less empty blocks for
    aggregation partitions that received no rows; downstream
    ``Dataset.join`` concatenates the blocks of a join partition and
    dies with ``FieldRef.Name(...) no match`` when one of them has no
    columns (latent on any post-groupby join over a near-empty input —
    never at scale, always on a 10-row test corpus).  The rebuild is
    metadata-only: the driver inspects per-block row counts from the
    ref bundles and re-assembles refs; block DATA never leaves the
    object store.  If every block is empty, one typed empty block is
    synthesized from the dataset schema so the join keeps its column
    contract."""
    import pyarrow as pa
    import ray

    mat = ds.materialize()
    keep = []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                keep.append(ref)
    if keep:
        return ray.data.from_arrow_refs(keep)
    schema = mat.schema()
    empty = pa.table(
        {f.name: pa.array([], f.type) for f in pa.schema(schema.base_schema)}
    )
    return ray.data.from_arrow(empty)


def unique_column_ref(ds, col: str):
    """ObjectRef to the SORTED UNIQUE values of ``col`` as a pyarrow
    Array, assembled by ONE worker task from the dataset's materialized
    blocks — the broadcast-small-side pattern WITHOUT the driver round
    trip (``Dataset.unique()`` returns the values to the driver before
    they can be re-broadcast; here the driver only holds block refs and
    the values move plasma-to-plasma).  Consumers ``ray.get`` the ref
    inside their batch fn / actor ``__init__`` (zero-copy read)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    mat = ds.materialize()
    field_type = pa.schema(mat.schema().base_schema).field(col).type

    @ray.remote(num_cpus=0.25)
    def assemble(*tables) -> pa.Array:
        nonempty = [t.select([col]) for t in tables if len(t)]
        if not nonempty:
            return pa.array([], field_type)
        u = pc.unique(pa.concat_tables(nonempty)[col].combine_chunks())
        return u.take(pc.array_sort_indices(u))

    return assemble.remote(*mat.to_arrow_refs())
