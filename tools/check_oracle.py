"""Local replica of the driver's correctness gate: run every queries() entry
and its oracle_sql() side-by-side on a testdata dir, compare row count,
schema, and order-insensitive values.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.unsignedInteger if hasattr(np, "unsignedInteger") else np.uint64):
            df[c] = df[c].astype("uint64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
                import os
                if os.environ.get("ORACLE_BITEXACT"):
                    # predict the driver's value-hash: floats compare
                    # bit-for-bit (NaN==NaN, -0.0 != 0.0)
                    ok = (av.astype(float).tobytes()
                          == bv.astype(float).tobytes())
                else:
                    ok = np.allclose(av.astype(float), bv.astype(float),
                                     rtol=1e-12, atol=1e-12)
            else:
                ok = (av.astype(str) == bv.astype(str)).all() \
                    if av.dtype == object or bv.dtype == object \
                    else np.array_equal(av, bv)
            if not ok:
                problems.append(f"values differ in column {c}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    # every line is flushed as printed, and each query is named before it
    # runs: if Ray aborts the process, piped stdout still shows which
    # query was running
    sys.stdout.reconfigure(line_buffering=True)
    import os
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir   # corpus oracles follow sf
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time
        print(f"RUN {name}", flush=True)
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_bad += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok(rows-only) {name}: {len(ray_df)} rows [{dt:.1f}s]")
            n_ok += 1
            continue
        try:
            sql_df = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            n_bad += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name}: {problems}")
            n_bad += 1
        else:
            print(f"OK {name}: {len(ray_df)} rows [{dt:.1f}s]")
            n_ok += 1
    print(f"\n{n_ok} ok, {n_bad} failed")
    return 1 if n_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
