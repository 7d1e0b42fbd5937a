"""Local emulation of the driver's correctness gate: run every
``__ray_entry__.queries()`` entry at sf0.01 and compare with the matching
``oracle_sql()`` via DuckDB — row count, schema (column names), and an
order-insensitive value comparison (columns sorted by name, rows sorted).

Usage: python experiments/check_correctness.py [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), ignore_index=True)
    return df


def main():
    import ray
    if not ray.is_initialized():
        # workers import the package too: export the repo root to them
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ROOT)
    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()
    only = set(sys.argv[1:])

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")

    n_fail = n_noor = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ours = canon(to_pandas(fn(SF_DIR)))
        except Exception as ex:
            print(f"{name:28s} ERROR {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"{name:28s} no_oracle rows={len(ours)} ({dt:.1f}s)")
            n_noor += 1
            continue
        theirs = canon(con.execute(oracles[name]).fetchdf())
        rows_ok = len(ours) == len(theirs)
        schema_ok = list(ours.columns) == list(theirs.columns)
        vals_ok = False
        if rows_ok and schema_ok:
            try:
                a = ours.reset_index(drop=True)
                b = theirs.reset_index(drop=True)
                vals_ok = all(
                    (a[c].astype(str).values == b[c].astype(str).values).all()
                    for c in a.columns)
            except Exception:
                vals_ok = False
        ok = rows_ok and schema_ok and vals_ok
        if not ok:
            n_fail += 1
        print(f"{name:28s} {'OK  ' if ok else 'FAIL'} rows={len(ours)}/{len(theirs)} "
              f"schema={schema_ok} vals={vals_ok} ({dt:.1f}s)")
        if not ok and len(ours) < 20:
            print("  ours:", ours.to_dict('records')[:6])
            print("  orac:", theirs.to_dict('records')[:6])

    print(f"\n{n_fail} failures, {n_noor} no_oracle")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
