"""Round-4r operator scale checks (BASELINE.md evidence): the new
operators at multi-million-row scale, one JSON line each.

Usage: python experiments/scale_checks_r4r.py [check ...]
(owns its Ray session; checks: cms snm spacetime bucketize zonemap)
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa


def _emit(name, rows, t0, **kw):
    dt = time.time() - t0
    print(json.dumps({"check": name, "rows": rows, "sec": round(dt, 2),
                      "rows_per_sec": round(rows / dt), **kw}),
          flush=True)


def _events(n_rows: int, n_users: int, parallelism: int = 64):
    import ray.data

    def gen(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy()
        rng = np.random.default_rng(int(i[0]) + 7)
        n = len(i)
        return pa.table({
            "event_id": pa.array(i),
            "user_id": pa.array(rng.integers(0, n_users, n)),
            "g": pa.array(rng.integers(0, 8, n).astype("U1")),
            "ts_us": pa.array(rng.integers(0, 30 * 86400 * 10**6, n)),
            "v": pa.array(rng.integers(1, 5_000_000, n))})

    return ray.data.range(n_rows, override_num_blocks=parallelism) \
        .map_batches(gen, batch_format="pyarrow")


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, "/root/repo")
    only = set(sys.argv[1:])

    def want(k):
        return not only or k in only

    # 1. Count-Min sketch over 50M rows, 1M keys (approximate regime,
    # width 65536): one narrow scan, 2 MB partial per batch
    if want("cms"):
        from dggrid4py_ray.stages.sampling import cms_merge, cms_partials
        n = 50_000_000
        ds = _events(n, 1_000_000).select_columns(["user_id"])
        t0 = time.time()
        sk = cms_merge(cms_partials(ds, "user_id", depth=4, width=65536),
                       depth=4, width=65536)
        assert (sk.sum(axis=1) == n).all()
        _emit("cms_sketch", n, t0, depth=4, width=65536)

    # 2. SNM blocking at 10M rows, window 6 (~50M pairs generated and
    # counted, not materialized to the driver)
    if want("snm"):
        from dggrid4py_ray.stages.dedup import snm_pairs
        n = 10_000_000
        ds = _events(n, 1_000_000).select_columns(["event_id", "v"])
        t0 = time.time()
        pairs = snm_pairs(ds, ["v"], "event_id", window=6,
                          bucket_rows=65536)
        n_pairs = pairs.count()
        _emit("snm_pairs", n, t0, n_pairs=n_pairs)
        # exact law: sum_{i} min(window-1, n-1-rank_i) = 5n - (1+2+3+4+5)
        assert n_pairs == 5 * n - 15, n_pairs

    # 3. space-time cube: 20M rows onto a 0.5-degree x daily cube
    # (cells x days ~ 2.6M keys through the sort-based grouped_reduce)
    if want("spacetime"):
        from dggrid4py_ray.pipelines.binning import spacetime_bin
        n = 20_000_000

        def coords(t: pa.Table) -> pa.Table:
            i = t["event_id"].to_numpy()
            return pa.table({
                "lon": pa.array((i * 7919 % 360000) / 1000.0 - 180.0),
                "lat": pa.array((i * 104729 % 180000) / 1000.0 - 90.0),
                "ts": pa.array((i * 40009 % (30 * 86400 * 10**6))
                               .astype("datetime64[us]")),
                "v": pa.array(np.ones(len(i), np.int64))})

        ds = _events(n, 1000).select_columns(["event_id"]) \
            .map_batches(coords, batch_format="pyarrow")
        t0 = time.time()
        out = spacetime_bin(ds, "lon", "lat", "ts", "v", deg=0.5,
                            period_s=86400)
        n_cells = out.count()
        _emit("spacetime_bin", n, t0, n_cube_cells=n_cells)

    # 4. quantile_bucketize: 20M rows, 8 groups, quartiles
    if want("bucketize"):
        from dggrid4py_ray.stages.normalize import quantile_bucketize
        n = 20_000_000
        ds = _events(n, 1000).select_columns(["g", "v"])
        t0 = time.time()
        out = quantile_bucketize(ds, "g", "v")
        # per-bucket counts (answer-sized): quartiles must be 25% +- 1%
        cnt = out.groupby(["g", "bucket"]).count().to_pandas()
        _emit("quantile_bucketize", n, t0)
        per = cnt.groupby("g")["count()"].apply(
            lambda s: (s.min() / s.sum(), s.max() / s.sum()))
        for lo_hi in per:
            assert 0.24 < lo_hi[0] and lo_hi[1] < 0.26, per

    # 5. zone-map clustered write + pruned range read: 20M rows,
    # 1%-range read must touch <5% of files
    if want("zonemap"):
        import shutil
        from dggrid4py_ray.state.checkpoint import (read_zonemap_pruned,
                                                    write_clustered)
        n = 20_000_000
        out_dir = "/tmp/zonemap_scale"
        shutil.rmtree(out_dir, ignore_errors=True)
        ds = _events(n, 1000).select_columns(["event_id", "v"])
        t0 = time.time()
        man = write_clustered(ds, out_dir, "v", ["v"],
                              rows_per_file=1 << 19)
        t_write = time.time() - t0
        t0 = time.time()
        lo, hi = 2_000_000, 2_050_000   # 1% of the value domain
        pruned, n_read, n_total = read_zonemap_pruned(out_dir, "v", lo, hi)
        n_rows = pruned.count()
        _emit("zonemap_prune", n, t0, write_sec=round(t_write, 2),
              files_read=n_read, files_total=n_total, rows_hit=n_rows)
        assert n_read <= max(3, n_total * 0.05), (n_read, n_total)
        shutil.rmtree(out_dir, ignore_errors=True)

    ray.shutdown()


if __name__ == "__main__":
    main()
