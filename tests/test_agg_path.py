"""One aggregation path: the binning, rollup, exact quantile and as-of
join operators run a sort-then-reduce plan and never a Ray hash Aggregate
or Join.
``ds.stats()`` names every operator an execution ran, so a hash branch
creeping back in shows up as an ``Aggregate`` or ``Join`` operator."""

import re

import numpy as np
import pandas as pd
import pytest


def _points(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "lon": rng.uniform(-180, 180, n),
        "lat": np.degrees(np.arcsin(rng.uniform(-1, 1, n))),
        "class_id": rng.integers(0, 4, n),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 60 * 86400, n), unit="s"),
        "v": rng.integers(0, 100, n).astype(np.int64)})


def _presence(ds, grid):
    from dggrid4py_ray.pipelines.binning import bin_point_presence
    return bin_point_presence(ds, resolution=3)


def _spacetime(ds, grid):
    from dggrid4py_ray.pipelines.binning import spacetime_bin
    return spacetime_bin(ds, "lon", "lat", "ts", "v", deg=5.0)


def _rollup(ds, grid):
    import ray.data
    from dggrid4py_ray.stages.rollup import rollup_z7
    df = ds.to_pandas()
    cells = np.asarray(grid.encode(df["lon"].to_numpy(),
                                   df["lat"].to_numpy(), 4), np.int64)
    finest = (pd.DataFrame({"cell_id": cells, "v": df["v"]})
              .groupby("cell_id", as_index=False)["v"].sum())
    return rollup_z7(ray.data.from_pandas(finest).repartition(4),
                     "cell_id", ["v"], from_res=4, to_res=2)


def _quantile(ds, grid):
    from dggrid4py_ray.stages.relational import exact_group_quantile
    return exact_group_quantile(ds, "class_id", "v", q=0.5)


def _quantile_cont(ds, grid):
    from dggrid4py_ray.stages.relational import exact_group_quantile_cont
    return exact_group_quantile_cont(ds, "class_id", "v", q=0.37)


def _quantile_weighted(ds, grid):
    from dggrid4py_ray.stages.relational import exact_group_quantile
    weighted = ds.map_batches(lambda df: df.assign(w=df["v"] + 1),
                              batch_format="pandas")
    return exact_group_quantile(weighted, "class_id", "lat", q=0.5,
                                weight_col="w")


def _asof(ds, grid, key_col=None):
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    df = ds.to_pandas()
    left = ray.data.from_pandas(df.assign(id=np.arange(len(df)))) \
        .repartition(4)
    nk = 4 if key_col else 1            # right (key, ts) must be unique
    days = pd.date_range("2024-01-01", periods=60, freq="D")
    right = ray.data.from_pandas(pd.DataFrame({
        "class_id": np.tile(np.arange(nk), 60), "ts": np.repeat(days, nk),
        "m": np.arange(60 * nk)})).repartition(3)
    return asof_join(left, right, "ts", "m", "id", key_col=key_col)


def _asof_keyed(ds, grid):
    return _asof(ds, grid, key_col="class_id")


@pytest.mark.parametrize(
    "build", [_presence, _spacetime, _rollup, _quantile, _quantile_cont,
              _quantile_weighted, _asof, _asof_keyed],
    ids=["bin_point_presence", "spacetime_bin", "rollup_z7",
         "exact_group_quantile", "exact_group_quantile_cont",
         "exact_group_quantile_weighted", "asof_join", "asof_join_by_key"])
def test_aggregation_is_sort_then_reduce(ray_session, grid, build):
    import ray.data
    ds = ray.data.from_pandas(_points()).repartition(4)
    out = build(ds, grid)
    assert len(out.to_pandas()) > 0
    ops = re.findall(r"^\s*Operator \d+ ([^:]+):", out.stats(), re.M)
    assert ops
    assert not [o for o in ops if "Aggregate" in o or "Join" in o], ops
    assert [o for o in ops if "Sort" in o], ops
