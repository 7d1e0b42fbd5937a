"""Round-4d operator scale checks (BASELINE.md evidence): run the new
operators at multi-million-row scale and print one JSON line each.

Usage: python experiments/scale_checks_r4d.py   (owns its Ray session)
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, "/root/repo")

    # 1. exact_group_quantile: 10M rows, 1M groups (unbounded-key)
    from dggrid4py_ray.stages.relational import exact_group_quantile

    def gen_q(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy()
        rng = np.random.default_rng(int(i[0]) + 1)
        return pa.table({"g": pa.array((i * 2654435761) % 1_000_000),
                         "v": pa.array(rng.normal(0, 1, len(i)))})

    ds = ray.data.range(10_000_000, override_num_blocks=64) \
        .map_batches(gen_q, batch_format="pyarrow")
    t0 = time.time()
    n = exact_group_quantile(ds, "g", "v", q=0.5).count()
    dt = time.time() - t0
    print(json.dumps({"check": "group_quantile_sorted_10M_1Mgroups",
                      "rows": 10_000_000, "groups_out": n,
                      "sec": round(dt, 2),
                      "rows_per_sec": round(10_000_000 / dt)}))

    # 2. streaming dedup: 4M rows, 400k distinct keys, 8 shards
    from dggrid4py_ray.state.dedup_index import streaming_dedup

    def gen_d(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy()
        h = (i.astype(np.uint64) * np.uint64(11400714819323198485)) % np.uint64(400_000)
        return pa.table({"k": pa.array(h.astype(np.int64))})

    ds2 = ray.data.range(4_000_000, override_num_blocks=64) \
        .map_batches(gen_d, batch_format="pyarrow")
    t0 = time.time()
    kept, idx = streaming_dedup(ds2, "k", n_shards=8)
    nk = kept.count()
    dt = time.time() - t0
    assert nk == 400_000, nk
    print(json.dumps({"check": "streaming_dedup_4M_400kkeys_8shards",
                      "rows": 4_000_000, "admitted": nk,
                      "sec": round(dt, 2),
                      "rows_per_sec": round(4_000_000 / dt)}))

    # 3. adaptive_bin (IGEO7 res 4 -> 6): 8M skewed points
    from dggrid4py_ray.pipelines.binning import adaptive_bin_point_vals

    def gen_p(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy()
        rng = np.random.default_rng(int(i[0]) + 7)
        m = len(i)
        hotm = rng.random(m) < 0.5
        lon = np.where(hotm, rng.uniform(24, 26, m),
                       rng.uniform(-180, 180, m))
        lat = np.where(hotm, rng.uniform(58, 60, m),
                       np.degrees(np.arcsin(rng.uniform(-1, 1, m))))
        return pa.table({"lon": pa.array(lon), "lat": pa.array(lat),
                         "value": pa.array(rng.random(m))})

    ds3 = ray.data.range(8_000_000, override_num_blocks=64) \
        .map_batches(gen_p, batch_format="pyarrow")
    t0 = time.time()
    out = adaptive_bin_point_vals(ds3, coarse_res=4, fine_res=6,
                                  threshold=50_000)
    total = out.sum("n_points")
    dt = time.time() - t0
    assert total == 8_000_000, total
    print(json.dumps({"check": "adaptive_bin_8M_res4to6",
                      "rows": 8_000_000, "sec": round(dt, 2),
                      "pts_per_sec": round(8_000_000 / dt)}))

    ray.shutdown()


if __name__ == "__main__":
    main()
