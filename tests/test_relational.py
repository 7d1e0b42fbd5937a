"""topk_per_group / range_join_broadcast / exact_group_quantile
(stages/relational.py) vs in-memory pandas/numpy oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _df_ds(ray_session, df):
    import ray.data
    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(4)


def test_topk_per_group(ray_session):
    from dggrid4py_ray.stages.relational import topk_per_group
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 5, 1000),
                       "v": rng.integers(0, 100, 1000),
                       "id": np.arange(1000)})
    out = topk_per_group(_df_ds(ray_session, df), "g", "v", k=3, id_col="id") \
        .to_pandas().sort_values(["g", "rank"]).reset_index(drop=True)
    exp = (df.sort_values(["v", "id"], ascending=[False, True])
             .groupby("g", sort=True).head(3)
             .sort_values(["g", "v", "id"], ascending=[True, False, True])
             .reset_index(drop=True))
    assert out["id"].tolist() == exp["id"].tolist()
    assert all(v == [1, 2, 3] for v in out.groupby("g")["rank"].apply(list))


def test_range_join_broadcast(ray_session):
    from dggrid4py_ray.stages.relational import range_join_broadcast
    rng = np.random.default_rng(4)
    df = pd.DataFrame({"x": rng.uniform(0, 100, 2000)})
    iv = [(0, 10.0, 20.0), (1, 40.0, 55.0), (2, 80.0, 81.5)]
    out = range_join_broadcast(_df_ds(ray_session, df), iv, "x").to_pandas()
    for k, lo, hi in iv:
        exp = int(((df["x"] >= lo) & (df["x"] < hi)).sum())
        assert (out["interval_id"] == k).sum() == exp
    assert len(out) == sum(int(((df["x"] >= lo) & (df["x"] < hi)).sum())
                           for _, lo, hi in iv)


def test_exact_group_quantile(ray_session):
    from dggrid4py_ray.stages.relational import exact_group_quantile
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"g": rng.integers(0, 4, 5001),
                       "v": np.round(rng.normal(50, 20, 5001), 3)})
    for q in (0.1, 0.5, 0.9):
        t = exact_group_quantile(_df_ds(ray_session, df), "g", "v",
                                 q=q).to_pandas()
        got = dict(zip(t["g"], t["quantile"]))
        for g, sub in df.groupby("g"):
            vals = np.sort(sub["v"].to_numpy())
            rank = int(np.ceil(q * len(vals))) - 1   # quantile_disc rule
            assert got[g] == vals[rank], (g, q)


def test_range_join_via_buckets_matches_broadcast(ray_session):
    """Large-large bucket-cogroup range join vs the broadcast path on the
    same non-overlapping intervals (where first-match == all-matches),
    plus overlap semantics (all pairs) vs a pandas oracle."""
    import ray.data
    import pandas as pd
    from dggrid4py_ray.stages.relational import (range_join_broadcast,
                                                 range_join_via_buckets)
    rng = np.random.default_rng(21)
    pts = pa.table({"pid": pa.array(np.arange(5000), type=pa.int64()),
                    "v": pa.array(rng.uniform(0, 1000, 5000))})
    pds = ray.data.from_arrow(pts).repartition(4)
    # non-overlapping intervals: both paths must agree exactly
    ivs = [(k, k * 50.0, k * 50.0 + 37.0) for k in range(20)]
    bcast = range_join_broadcast(pds, ivs, point_col="v").to_pandas()
    itbl = pa.table({"interval_id": pa.array([i[0] for i in ivs], type=pa.int64()),
                     "lo": pa.array([i[1] for i in ivs]),
                     "hi": pa.array([i[2] for i in ivs])})
    ids_ds = ray.data.from_arrow(itbl).repartition(2)
    bck = range_join_via_buckets(pds, ids_ds, point_col="v").to_pandas()
    a = set(zip(bcast["pid"], bcast["interval_id"]))
    b = set(zip(bck["pid"], bck["interval_id"]))
    assert a == b and len(bck) == len(b)
    # overlapping intervals: every matching pair exactly once
    ivs2 = pa.table({"interval_id": pa.array([0, 1, 2], type=pa.int64()),
                     "lo": pa.array([0.0, 100.0, 150.0]),
                     "hi": pa.array([200.0, 300.0, 160.0])})
    out = range_join_via_buckets(pds, ray.data.from_arrow(ivs2),
                                 point_col="v", bucket_width=40.0).to_pandas()
    v = pts["v"].to_numpy()
    exp = sum(int(((v >= lo) & (v < hi)).sum())
              for lo, hi in [(0, 200), (100, 300), (150, 160)])
    assert len(out) == exp == len(set(zip(out["pid"], out["interval_id"])))


def test_exact_group_quantile_degenerate(ray_session):
    """Constant groups, outlier-stretched ranges and mass duplicates stay
    exact."""
    import ray.data
    import pandas as pd
    from dggrid4py_ray.stages.relational import exact_group_quantile
    rng = np.random.default_rng(5)
    frames = []
    # constant-valued group
    frames.append(pd.DataFrame({"g": "const", "v": np.full(5000, 3.25)}))
    # one outlier group stretching the global range by 1e12
    frames.append(pd.DataFrame({"g": "outlier", "v": [0.0, 1e12]}))
    # normal group, tight range
    frames.append(pd.DataFrame({"g": "normal", "v": rng.uniform(10, 11, 7001)}))
    # mass duplicates: 90% of the group is one value
    mass = np.concatenate([np.full(9000, 42.0), rng.uniform(0, 100, 1000)])
    frames.append(pd.DataFrame({"g": "mass", "v": mass}))
    df = pd.concat(frames, ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(6)
    out = exact_group_quantile(ds, "g", "v", q=0.5).to_pandas()
    got = dict(zip(out["g"], out["quantile"]))
    # oracle: quantile_disc semantics, rank ceil(q*n)-1 on the sorted group
    for g, sub in df.groupby("g"):
        v = np.sort(sub["v"].to_numpy())
        exp = v[int(np.ceil(0.5 * len(v))) - 1]
        assert got[g] == exp, (g, got[g], exp)


def test_knn_join_broadcast(ray_session):
    import ray.data
    import pandas as pd
    import numpy as np
    from dggrid4py_ray.stages.join import knn_join_broadcast
    from dggrid4py_ray.dggs.sphere import haversine_km

    rng = np.random.default_rng(11)
    n = 500
    pts = pd.DataFrame({"event_id": np.arange(n),
                        "lat": rng.uniform(-85, 85, n),
                        "lon": rng.uniform(-180, 180, n)})
    sites = [(j, float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
             for j in range(12)]
    ds = ray.data.from_pandas(pts).repartition(4)
    out = knn_join_broadcast(ds, sites, k=2).to_pandas()
    assert len(out) == 2 * n
    # brute-force check
    slat = np.array([s[1] for s in sites]); slon = np.array([s[2] for s in sites])
    d = haversine_km(pts["lon"].to_numpy()[:, None], pts["lat"].to_numpy()[:, None],
                     slon[None, :], slat[None, :])
    want = np.argsort(d, axis=1, kind="stable")[:, :2]
    got = out.sort_values(["event_id", "rank"])["site_id"].to_numpy().reshape(n, 2)
    assert (got == want).all()
    # rank-1 distances are the row minima
    r1 = out[out["rank"] == 1].sort_values("event_id")["dist_km"].to_numpy()
    assert np.allclose(r1, d.min(axis=1))


def test_exact_group_quantile_cont_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.relational import exact_group_quantile_cont

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 5, 30001),
                       "v": rng.normal(100, 40, 30001)})
    for q in (0.0, 0.37, 0.5, 0.9, 1.0):
        out = exact_group_quantile_cont(
            ray.data.from_pandas(df).repartition(7), "g", "v", q=q) \
            .to_pandas().sort_values("g", ignore_index=True)
        ref = df.groupby("g")["v"].quantile(q, interpolation="linear")
        assert np.allclose(out["quantile"].to_numpy(), ref.to_numpy(),
                           rtol=1e-12, atol=1e-9), q
    # constant group + tiny group edge cases
    df2 = pd.DataFrame({"g": ["a"] * 5 + ["b"], "v": [7.0] * 5 + [3.0]})
    out2 = exact_group_quantile_cont(ray.data.from_pandas(df2), "g", "v",
                                     q=0.25).to_pandas()
    assert dict(zip(out2["g"], out2["quantile"])) == {"a": 7.0, "b": 3.0}


def test_exact_group_quantile_unbounded_keys(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.relational import exact_group_quantile

    rng = np.random.default_rng(8)
    df = pd.DataFrame({"g": rng.integers(0, 3000, 40000),   # many groups
                       "v": rng.normal(0, 10, 40000)})
    for q in (0.25, 0.5, 0.9):
        out = exact_group_quantile(
            ray.data.from_pandas(df).repartition(9), "g", "v", q=q) \
            .to_pandas().sort_values("g", ignore_index=True)
        ref = df.groupby("g")["v"].quantile(q, interpolation="lower")
        # quantile_disc rank = ceil(q*n); pandas 'lower' matches for these q
        ref2 = df.sort_values("v").groupby("g")["v"] \
            .apply(lambda s: s.iloc[max(int(np.ceil(q * len(s))) - 1, 0)])
        assert len(out) == df["g"].nunique()
        assert np.allclose(out["quantile"].to_numpy(),
                           ref2.sort_index().to_numpy())


def test_exact_group_quantile_duplicate_values(ray_session):
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.relational import exact_group_quantile

    df = pd.DataFrame({"g": ["a"] * 6 + ["b"],
                       "v": [5.0, 5.0, 5.0, 1.0, 9.0, 5.0, 2.0]})
    out = exact_group_quantile(ray.data.from_pandas(df), "g", "v",
                               q=0.5).to_pandas()
    got = dict(zip(out["g"], out["quantile"]))
    assert got == {"a": 5.0, "b": 2.0}


def test_grouped_approx_quantile_deterministic_and_close(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.relational import grouped_approx_quantile

    rng = np.random.default_rng(13)
    n = 60000
    df = pd.DataFrame({"g": rng.integers(0, 12, n),
                       "v": rng.normal(50, 20, n),
                       "rid": np.arange(n)})
    out = grouped_approx_quantile(
        ray.data.from_pandas(df).repartition(9), "g", "v", "rid",
        q=0.5, k=256).to_pandas().sort_values("g", ignore_index=True)
    ref = df.groupby("g")["v"].median()
    # binomial rank error at k=256 ~ a few percentiles; normal ->
    # value error well under 0.25 sigma
    assert np.abs(out["approx_quantile"].to_numpy()
                  - ref.to_numpy()).max() < 5.0
    # deterministic under different partitioning
    out2 = grouped_approx_quantile(
        ray.data.from_pandas(df).repartition(2), "g", "v", "rid",
        q=0.5, k=256).to_pandas().sort_values("g", ignore_index=True)
    assert (out["approx_quantile"].to_numpy()
            == out2["approx_quantile"].to_numpy()).all()


def test_salted_hash_join_equals_plain_join(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.relational import salted_hash_join

    rng = np.random.default_rng(17)
    n = 30000
    # celebrity skew: 60% of left rows hit key 7
    k = np.where(rng.random(n) < 0.6, 7, rng.integers(0, 500, n))
    left = pd.DataFrame({"k": k.astype(np.int64), "lv": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(500, dtype=np.int64),
                          "rv": rng.integers(0, 9, 500)})
    # key 7 also duplicated on the right (3 rows) to test fan-out
    right = pd.concat([right, pd.DataFrame({"k": [7, 7], "rv": [91, 92]})],
                      ignore_index=True)
    out = salted_hash_join(ray.data.from_pandas(left).repartition(9),
                           ray.data.from_pandas(right).repartition(3),
                           on="k", hot_keys=[7], n_salt=8) \
        .to_pandas().sort_values(["k", "lv", "rv"], ignore_index=True)
    ref = left.merge(right, on="k").sort_values(
        ["k", "lv", "rv"], ignore_index=True)
    assert len(out) == len(ref)
    assert (out[["k", "lv", "rv"]].to_numpy()
            == ref[["k", "lv", "rv"]].to_numpy()).all()


def _weighted_disc(df, q):
    """quantile_disc over weights: the smallest value whose cumulative
    weight (in value order) reaches max(ceil(q * total), 1)."""
    out = {}
    for g, sub in df.groupby("g"):
        d = sub.groupby("v")["w"].sum().sort_index()
        cum = d.cumsum().to_numpy()
        rank = max(np.ceil(q * cum[-1]), 1)
        out[g] = float(d.index[np.searchsorted(cum, rank)])
    return out


def test_exact_group_quantile_duplicates_span_blocks(ray_session):
    import pyarrow.compute as pc
    import ray.data
    from dggrid4py_ray.stages.groupagg import grouped_count
    from dggrid4py_ray.stages.relational import (exact_group_quantile,
                                                 exact_group_quantile_cont)

    # group 0: one value duplicated 20k times (duplicate (g, v) runs span
    # many input blocks); group 1: 1,000 distinct values; group 2: 160k
    # distinct values, so its distinct (g, v) rows span many sorted blocks
    # and the carry has to chain prefixes and totals across all of them
    rng = np.random.default_rng(23)
    df = pd.DataFrame({
        "g": np.r_[np.zeros(20000, np.int64), np.ones(1000, np.int64),
                   np.full(160000, 2, np.int64)],
        "v": np.r_[np.full(20000, 5.0), np.arange(1000, dtype=np.float64),
                   rng.permutation(160000).astype(np.float64)]})
    df["w"] = rng.integers(1, 9, len(df))
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    try:
        for block_bytes in (None, 64 * 1024):
            if block_bytes is not None:
                ctx.target_max_block_size = block_bytes
                dist = grouped_count(ray.data.from_pandas(df).repartition(16)
                                     .select_columns(["g", "v"]),
                                     ["g", "v"]).materialize()
                spans = dist.map_batches(
                    lambda t: {"n": [pc.sum(pc.equal(t["g"], 2)).as_py() or 0]},
                    batch_format="pyarrow", batch_size=None).to_pandas()
                assert (spans["n"] > 0).sum() >= 50, spans["n"].tolist()
            ds = ray.data.from_pandas(df).repartition(16)
            for q in (0.25, 0.5, 0.9):
                out = exact_group_quantile(ds, "g", "v", q=q).to_pandas()
                want = {g: np.sort(sub["v"].to_numpy())[
                            max(int(np.ceil(q * len(sub))), 1) - 1]
                        for g, sub in df.groupby("g")}
                assert dict(zip(out["g"], out["quantile"])) == want, q
                out = exact_group_quantile(ds, "g", "v", q=q, out_col="m",
                                           weight_col="w").to_pandas()
                assert dict(zip(out["g"], out["m"])) == _weighted_disc(df, q)
                out = exact_group_quantile_cont(ds, "g", "v", q=q) \
                    .to_pandas().sort_values("g", ignore_index=True)
                ref = df.groupby("g")["v"].quantile(q, interpolation="linear")
                assert np.allclose(out["quantile"].to_numpy(),
                                   ref.to_numpy(), rtol=1e-12, atol=1e-9), q
    finally:
        ctx.target_max_block_size = saved
