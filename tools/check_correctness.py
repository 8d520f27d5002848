"""Driver-mimic: run every queries() entry at a scale dir and compare
against oracle_sql() via DuckDB (row count + sorted-column value match).

Usage: python tools/check_correctness.py [sf_dir] [query ...]
Exits non-zero when a query fails or is unknown, or when none ran.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            # fold -0.0 -> 0.0 so the stringified hash is stable
            df[c] = np.round(df[c].astype(np.float64), 6) + 0.0
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).dt.tz_localize(None)
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
        elif df[c].dtype == object and len(df) and isinstance(
            df[c].iloc[0], (np.ndarray, list)
        ):
            # list/embedding columns (fixed_size_list -> ndarray rows):
            # round + stringify so sort/compare are well-defined
            df[c] = df[c].map(
                lambda v: np.array2string(
                    np.round(np.asarray(v, dtype=np.float64), 6) + 0.0,
                    separator=",", max_line_width=10**9, threshold=10**9,
                )
            )
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(a: pd.DataFrame, b: pd.DataFrame) -> str | None:
    """Driver-semantics comparison: the driver hashes the stringified
    sorted frame, so an int64-vs-float64 split ("0" vs "0.0") is a FAIL
    even when values are numerically identical.  normalize() only widens
    within a kind (int->int64, float->float64); it never crosses kinds."""
    if sorted(a.columns) != sorted(b.columns):
        return f"schema mismatch: {sorted(a.columns)} vs {sorted(b.columns)}"
    if len(a) != len(b):
        return f"row count: {len(a)} vs {len(b)}"
    a, b = normalize(a), normalize(b)
    for c in a.columns:
        ka = "O" if a[c].dtype == object else a[c].dtype.kind
        kb = "O" if b[c].dtype == object else b[c].dtype.kind
        if ka != kb:
            return f"dtype mismatch on {c}: {a[c].dtype} vs {b[c].dtype} (driver hashes '0' != '0.0')"
    for c in a.columns:
        av, bv = a[c].astype(str).values, b[c].astype(str).values
        if not (av == bv).all():
            bad = np.flatnonzero(av != bv)[:3]
            detail = [(int(i), a[c].iloc[i], b[c].iloc[i]) for i in bad]
            return f"column {c} differs, e.g. {detail}"
    return None


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import __ray_entry__ as E

    qs = E.queries()
    unknown = sorted(only - set(qs))
    if unknown:
        sys.exit(f"unknown queries: {', '.join(unknown)}")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import duckdb

    oracles = E.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        wall = time.time() - t0
        if name in oracles:
            try:
                want = normalize(con.sql(oracles[name]).df())
            except Exception as e:
                print(f"FAIL {name}: oracle raised {e}")
                n_fail += 1
                continue
            err = compare(got, want)
            if err:
                print(f"FAIL {name}: {err}  ({wall:.1f}s)")
                n_fail += 1
            else:
                print(f"PASS {name}: {len(got)} rows match oracle  ({wall:.1f}s)")
                n_pass += 1
        else:
            print(f"PASS {name}: rows-only {len(got)} rows  ({wall:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail or not n_pass else 0)


if __name__ == "__main__":
    main()
