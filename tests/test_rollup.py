"""Hierarchical multi-resolution rollup (stages/rollup).

The pyramid law under test: folding the finest-level aggregate upward
must equal re-aggregating the raw points directly at every coarser
level (the reference would re-run BIN_POINT_VALS once per resolution,
reference dggrid_runner.py:1025-1118; the rollup folds instead).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _finest(ray, n=5000, seed=7):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 64800, n)           # 1-degree lat*360+lon ids
    vals = rng.uniform(0, 100, n)
    df = (pd.DataFrame({"cell": cells // 1, "v": vals, "n_points": 1})
          .groupby("cell", as_index=False).agg(v=("v", "sum"),
                                               n_points=("n_points", "sum")))
    return ray.data.from_pandas(df).repartition(6), df


def _make_parent():
    # nested so cloudpickle ships it by value (test modules aren't
    # importable on Ray workers)
    def parent(cells):
        la, lo = cells // 360, cells % 360
        return (la // 2) * 360 + (lo // 2)
    return parent


_parent = _make_parent()


@pytest.mark.parametrize("n,seed", [(5000, 7), (2000, 11)])
def test_rollup_matches_direct_recompute(ray_session, n, seed):
    from dggrid4py_ray.stages.rollup import hierarchical_rollup

    ds, df = _finest(ray_session, n=n, seed=seed)
    out = hierarchical_rollup(ds, "cell", ["v", "n_points"], _parent,
                              levels=2)
    got = out.to_pandas()

    for lvl in range(3):
        d = df.copy()
        for _ in range(lvl):
            d["cell"] = _parent(d["cell"].to_numpy())
        want = (d.groupby("cell", as_index=False)
                .agg(v=("v", "sum"), n_points=("n_points", "sum"))
                .sort_values("cell", ignore_index=True))
        g = (got[got["level"] == lvl][["cell", "v", "n_points"]]
             .sort_values("cell", ignore_index=True))
        assert len(g) == len(want)
        np.testing.assert_array_equal(g["cell"].to_numpy(),
                                      want["cell"].to_numpy())
        np.testing.assert_allclose(g["v"].to_numpy(), want["v"].to_numpy(),
                                   rtol=1e-12)
        np.testing.assert_array_equal(g["n_points"].to_numpy(),
                                      want["n_points"].to_numpy())


def test_rollup_z7_matches_parent_grouping(ray_session, grid):
    """The Z7 pyramid law: each coarser level equals grouping the FINEST
    level by the k-step Z7 parent (computed here with a plain pandas
    groupby as the reference), and every level conserves total count and
    value mass.  Note this is deliberately NOT 'equals re-binning the raw
    points at the coarser res': aperture-7 hexagons are not perfectly
    nested, so a boundary point's res-3 cell can differ from its res-4
    cell's parent — hierarchical aggregation (the H3 semantic) is the
    documented rollup contract."""
    from dggrid4py_ray.dggs import igeo7 as ig
    from dggrid4py_ray.pipelines.binning import bin_point_vals
    from dggrid4py_ray.stages.rollup import rollup_z7

    rng = np.random.default_rng(3)
    n = 4000
    lon = rng.uniform(-180, 180, n)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    pts = ray_session.data.from_pandas(
        pd.DataFrame({"lon": lon, "lat": lat, "value": rng.uniform(0, 10, n)}))

    finest_pdf = (bin_point_vals(pts, "IGEO7", resolution=4,
                                 value_col="value", output_sum=True)
                  .to_pandas()[["cell_id", "sum_value", "count_value"]])
    finest = ray_session.data.from_pandas(finest_pdf).repartition(5)
    rolled = rollup_z7(finest, "cell_id", ["sum_value", "count_value"],
                       from_res=4, to_res=2).to_pandas()

    for res in (4, 3, 2):
        d = finest_pdf.copy()
        if res < 4:
            z = d["cell_id"].to_numpy().astype(np.uint64)
            d["cell_id"] = ig.z7_parent(z, steps=4 - res).astype(np.int64)
        want = (d.groupby("cell_id", as_index=False)
                .agg(sum_value=("sum_value", "sum"),
                     count_value=("count_value", "sum"))
                .sort_values("cell_id", ignore_index=True))
        got = (rolled[rolled["res"] == res]
               [["cell_id", "sum_value", "count_value"]]
               .sort_values("cell_id", ignore_index=True))
        assert len(got) == len(want), f"res {res}"
        np.testing.assert_array_equal(got["cell_id"].to_numpy(),
                                      want["cell_id"].to_numpy())
        np.testing.assert_allclose(got["sum_value"], want["sum_value"],
                                   rtol=1e-9)
        np.testing.assert_array_equal(got["count_value"],
                                      want["count_value"])
        # conservation: every level carries all the mass
        assert got["count_value"].sum() == finest_pdf["count_value"].sum()
        np.testing.assert_allclose(got["sum_value"].sum(),
                                   finest_pdf["sum_value"].sum(), rtol=1e-9)


def test_rollup_z7_rejects_bad_res():
    from dggrid4py_ray.stages.rollup import rollup_z7

    with pytest.raises(ValueError):
        rollup_z7(None, "c", ["v"], from_res=3, to_res=5)
