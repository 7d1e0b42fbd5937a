"""Round-4r operators: regex extraction, space-time cube, equal-frequency
discretization."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def test_extract_pattern_stats_counts_and_first_match():
    from dggrid4py_ray.stages.text import extract_pattern_stats

    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["abc 123 de 45", "no digits here", "", "77a77b777"]})
    out = extract_pattern_stats(
        ray.data.from_pandas(df).repartition(2),
        {"n_num": "[0-9]+", "n_word": "[a-z]+"},
        first_of="[0-9]+").to_pandas().sort_values("doc_id",
                                                   ignore_index=True)
    assert out["n_num"].tolist() == [2, 0, 0, 3]
    assert out["n_word"].tolist() == [2, 3, 0, 2]
    # DuckDB regexp_extract parity: '' (not null) when absent
    assert out["first_match"].tolist() == ["123", "", "", "77"]


def test_extract_pattern_stats_null_text():
    from dggrid4py_ray.stages.text import extract_pattern_stats

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["a1", None]})
    out = extract_pattern_stats(ray.data.from_pandas(df),
                                {"n_num": "[0-9]+"}).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out["n_num"][0] == 1
    assert pd.isna(out["n_num"][1])  # null propagates like SQL


def _cube_ref(df, deg, period_s):
    n_lon = int(round(360 / deg))
    cell = (np.floor((df.lat + 90) / deg).astype(np.int64) * n_lon
            + np.floor((df.lon + 180) / deg).astype(np.int64))
    period = df.ts.astype("datetime64[us]").astype(np.int64) \
        // (period_s * 1_000_000)
    r = pd.DataFrame({"cell": cell, "period": period, "v": df.v}) \
        .groupby(["cell", "period"]).agg(n_points=("v", "size"),
                                         sum_value=("v", "sum")) \
        .reset_index()
    return r.sort_values(["cell", "period"], ignore_index=True)


# 60 s periods of 2024 timestamps exceed 10^7: a (cell, period) key
# packed into one int64 as cell*10^7 + period would decode them wrongly
@pytest.mark.parametrize("period_s", [7 * 86400, 60])
def test_spacetime_bin_matches_reference(period_s):
    from dggrid4py_ray.pipelines.binning import spacetime_bin

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame({
        "lon": rng.uniform(-180, 179.9, n),
        "lat": rng.uniform(-90, 89.9, n),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 90 * 86400, n), unit="s"),
        "v": rng.integers(-50, 500, n).astype(np.int64)})
    out = spacetime_bin(ray.data.from_pandas(df).repartition(6),
                        "lon", "lat", "ts", "v", deg=5.0,
                        period_s=period_s).to_pandas() \
        .sort_values(["cell", "period"], ignore_index=True) \
        [["cell", "period", "n_points", "sum_value"]]
    ref = _cube_ref(df, 5.0, period_s)
    pd.testing.assert_frame_equal(out.astype("int64"), ref.astype("int64"))


def test_quantile_bucketize_equal_frequency_and_tie_rule():
    from dggrid4py_ray.stages.normalize import quantile_bucketize

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"g": np.repeat(["a", "b"], 400),
                       "v": np.r_[rng.integers(0, 1000, 400),
                                  rng.integers(500, 600, 400)]
                       .astype(np.int64)})
    out = quantile_bucketize(ray.data.from_pandas(df).repartition(4),
                             "g", "v").to_pandas()
    for g, sub in out.groupby("g"):
        vals = np.sort(df[df.g == g]["v"].to_numpy())
        n = len(vals)
        cuts = [vals[int(np.ceil(q * n)) - 1] for q in (0.25, 0.5, 0.75)]
        expect = np.array([sum(v > c for c in cuts) for v in sub["v"]])
        assert (sub["bucket"].to_numpy() == expect).all(), g
        # equal frequency: every bucket holds >= 15% of the group
        counts = sub["bucket"].value_counts()
        assert counts.min() >= 0.15 * n
