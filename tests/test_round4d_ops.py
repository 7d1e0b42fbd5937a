"""Round-4d operators: bounded-frame windows (LAG / rolling mean),
grouped moments, cube/pivot relational ops."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def _events(n=20_000, users=300, seed=7):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "g": rng.integers(0, users, n),
        "o": rng.permutation(n),          # unique order key
        "v": np.round(rng.uniform(0, 100, n), 2),
    })
    return df


def test_group_shift_matches_pandas_multiblock():
    from dggrid4py_ray.stages.window import group_shift

    df = _events()
    ds = ray.data.from_pandas(df).repartition(13)
    for k in (1, 3):
        out = (group_shift(ds, "g", ["o"], "v", k=k, out_col="lag")
               .to_pandas().sort_values(["g", "o"], ignore_index=True))
        ref = df.sort_values(["g", "o"], ignore_index=True)
        exp = ref.groupby("g")["v"].shift(k)
        got = out["lag"]
        assert got.isna().equals(exp.isna())
        m = ~exp.isna()
        assert np.allclose(got[m], exp[m])


def test_group_rolling_mean_matches_pandas_multiblock():
    from dggrid4py_ray.stages.window import group_rolling_mean

    df = _events(seed=11)
    ds = ray.data.from_pandas(df).repartition(17)
    for w in (1, 4):
        out = (group_rolling_mean(ds, "g", ["o"], "v", window=w,
                                  out_col="m")
               .to_pandas().sort_values(["g", "o"], ignore_index=True))
        ref = df.sort_values(["g", "o"], ignore_index=True)
        exp = (ref.groupby("g")["v"]
               .rolling(w, min_periods=1).mean()
               .reset_index(level=0, drop=True).sort_index())
        assert np.allclose(out["m"].to_numpy(), exp.to_numpy())


def test_group_shift_single_giant_group():
    """One group spanning every block exercises the multi-hop tail carry."""
    from dggrid4py_ray.stages.window import group_shift

    n = 5_000
    df = pd.DataFrame({"g": np.zeros(n, np.int64),
                       "o": np.arange(n), "v": np.arange(n, dtype=float)})
    ds = ray.data.from_pandas(df).repartition(23)
    out = (group_shift(ds, "g", ["o"], "v", k=2, out_col="lag")
           .to_pandas().sort_values("o", ignore_index=True))
    assert out["lag"].isna().sum() == 2
    assert np.allclose(out["lag"][2:], np.arange(n - 2, dtype=float))


def test_bounded_frame_windows_reject_duplicate_keys(ray_session):
    """Duplicate (group, order) keys make LAG order-dependent; they are
    refused whether they sit inside one sorted block or across a seam."""
    from dggrid4py_ray.stages.window import _tail_carry, group_shift

    df = pd.DataFrame({"g": [1, 1, 1, 2], "o": [1, 1, 2, 1],
                       "v": [1.0, 2.0, 3.0, 4.0]})
    with pytest.raises(ValueError, match="unique"):
        group_shift(ray.data.from_pandas(df), "g", ["o"], "v").to_pandas()

    def blocks(*parts):      # already sorted blocks, as the sort leaves them
        return ray.data.from_arrow([pa.table({"g": g, "o": o, "v": [0.0] * len(g)})
                                    for g, o in parts])

    # inside one block
    with pytest.raises(ValueError, match="unique"):
        _tail_carry(blocks(([1, 1], [1, 1]), ([1, 2], [3, 1])),
                    ["g", "o"], "g", "v", k=1)
    # across a seam: (1, 2) ends one block and starts the next
    with pytest.raises(ValueError, match="unique"):
        _tail_carry(blocks(([1, 1], [1, 2]), ([1, 2], [2, 1])),
                    ["g", "o"], "g", "v", k=1)
    # distinct keys at the seam pass, and the tail enters the next block
    tails = ray.get(_tail_carry(blocks(([1, 1], [1, 2]), ([1, 2], [3, 1])),
                                ["g", "o"], "g", "v", k=1))
    assert len(tails[repr((1, 3))]) == 1


def test_grouped_corr_matches_pandas():
    from dggrid4py_ray.stages.normalize import grouped_corr

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 8, 5000),
                       "x": rng.normal(0, 2, 5000)})
    df["y"] = 0.5 * df["x"] + rng.normal(0, 1, 5000)
    ds = ray.data.from_pandas(df).repartition(9)
    for unb in (False, True):
        out = (grouped_corr(ds, "g", "x", "y", unbounded_keys=unb)
               .to_pandas().sort_values("g", ignore_index=True))
        ref = df.groupby("g").apply(
            lambda d: d["x"].corr(d["y"]), include_groups=False)
        assert np.allclose(out["corr"].to_numpy(), ref.to_numpy(),
                           atol=1e-9)


def test_grouped_corr_degenerate_groups_null():
    from dggrid4py_ray.stages.normalize import grouped_corr

    df = pd.DataFrame({"g": [0, 1, 1, 2, 2],
                       "x": [1.0, 2.0, 2.0, 1.0, 3.0],
                       "y": [1.0, 5.0, 7.0, 2.0, 4.0]})
    out = (grouped_corr(ray.data.from_pandas(df), "g", "x", "y")
           .to_pandas().sort_values("g", ignore_index=True))
    assert out["corr"].isna().tolist() == [True, True, False]
    assert abs(out["corr"].iloc[2] - 1.0) < 1e-12


def test_cube_aggregate_matches_pandas():
    from dggrid4py_ray.stages.relational import cube_aggregate

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"a": rng.choice(list("xyz"), 4000),
                       "b": rng.choice(list("pq"), 4000),
                       "v": rng.integers(0, 10, 4000).astype(float)})
    out = (cube_aggregate(ray.data.from_pandas(df).repartition(7),
                          ["a", "b"], sum_cols={"v": "sv"})
           .to_pandas().sort_values(["a", "b"], ignore_index=True))
    assert len(out) == 3 * 2 + 3 + 2 + 1
    tot = out[(out.a == "ALL") & (out.b == "ALL")]
    assert tot["n"].iloc[0] == 4000
    assert abs(tot["sv"].iloc[0] - df["v"].sum()) < 1e-9
    cell = out[(out.a == "x") & (out.b == "p")]
    ref = df[(df.a == "x") & (df.b == "p")]
    assert cell["n"].iloc[0] == len(ref)
    assert abs(cell["sv"].iloc[0] - ref["v"].sum()) < 1e-9


def test_pivot_counts_matches_crosstab():
    from dggrid4py_ray.stages.relational import pivot_counts

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"k": rng.integers(0, 500, 20000),
                       "c": rng.choice(["a", "b", "c"], 20000)})
    out = (pivot_counts(ray.data.from_pandas(df).repartition(11),
                        "k", "c", ["a", "b", "c"], prefix="")
           .to_pandas().sort_values("k", ignore_index=True))
    ref = (pd.crosstab(df["k"], df["c"]).reindex(
        columns=["a", "b", "c"], fill_value=0)
        .reset_index().sort_values("k", ignore_index=True))
    for c in ["a", "b", "c"]:
        assert (out[c].to_numpy() == ref[c].to_numpy()).all()
