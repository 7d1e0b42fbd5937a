"""One aggregation path: the binning and rollup operators run the
sort-then-reduce plan and never a Ray hash Aggregate.  ``ds.stats()``
names every operator an execution ran, so a hash branch creeping back in
shows up as an ``Aggregate`` operator."""

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


@pytest.mark.parametrize("build", [_presence, _spacetime, _rollup],
                         ids=["bin_point_presence", "spacetime_bin",
                              "rollup_z7"])
def test_aggregation_is_sort_then_reduce(ray_session, grid, build):
    import ray.data
    ds = ray.data.from_pandas(_points()).repartition(4)
    out = build(ds, grid)
    assert len(out.to_pandas()) > 0
    ops = re.findall(r"^\s*Operator \d+ ([^:]+):", out.stats(), re.M)
    assert ops
    assert not [o for o in ops if "Aggregate" in o], ops
    assert [o for o in ops if "Sort" in o], ops
