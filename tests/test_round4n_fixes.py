"""Regression tests for the round-4n review-pass fixes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def test_group_linear_fit_overflow_raises():
    from dggrid4py_ray.stages.linalg import group_linear_fit

    big = 2 ** 31
    ds = ray.data.from_pandas(pd.DataFrame(
        {"g": ["a"] * 10, "x": [big] * 10, "y": [big] * 10}))
    # Ray wraps the worker's ValueError in RayTaskError
    with pytest.raises(Exception, match="overflow"):
        group_linear_fit(ds, "g", "x", "y").to_pandas()


def test_event_cooccurrence_empty_input_returns_dataset():
    from dggrid4py_ray.stages.temporal import event_cooccurrence

    ds = ray.data.from_pandas(pd.DataFrame({
        "user_id": pd.array([], dtype="Int64"),
        "ts": pd.array([], dtype="datetime64[us]"),
        "event_type": pd.array([], dtype="str")}))
    out = event_cooccurrence(ds, "user_id", "ts", "event_type", 600)
    assert isinstance(out, ray.data.Dataset)
    assert out.count() == 0


def test_adjacent_pairs_null_first_doc_keeps_final_pair():
    """A zero-token doc at batch start must not mask the batch's last
    pair (the old keep[-1] wraparound)."""
    from dggrid4py_ray.stages.text import adjacent_pair_counts

    ds = ray.data.from_arrow(pa.table({
        "text": pa.array([None, "a b", "c d"], pa.string())}))
    out = adjacent_pair_counts(ds).to_pandas() \
        .set_index(["tok_l", "tok_r"])["n"]
    assert out[("a", "b")] == 1
    assert out[("c", "d")] == 1        # the previously-masked final pair
    assert len(out) == 2               # no cross-doc ("b","c") pair


def test_grouped_mode_int_values_empty_block_schema():
    from dggrid4py_ray.stages.relational import grouped_mode

    rng = np.random.default_rng(41)
    df = pd.DataFrame({"g": rng.integers(0, 50, 2000),
                       "v": rng.integers(0, 5, 2000)})
    out = grouped_mode(ray.data.from_pandas(df).repartition(8),
                       "g", "v").to_pandas()
    assert out["mode"].dtype == np.int64
    want = df.groupby(["g", "v"]).size().reset_index(name="n") \
        .sort_values(["g", "n", "v"], ascending=[True, False, True]) \
        .groupby("g").first()
    got = out.set_index("g").sort_index()
    np.testing.assert_array_equal(got["mode"].to_numpy(),
                                  want["v"].to_numpy())


def test_merge_changes_empty_stream_projects_payload():
    from dggrid4py_ray.stages.relational import merge_changes

    base = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2], "val": [10, 20], "extra": ["x", "y"]}))
    changes = ray.data.from_pandas(pd.DataFrame(
        {"k": pd.array([], dtype="Int64"),
         "seq": pd.array([], dtype="Int64"),
         "op": pd.array([], dtype="str"),
         "val": pd.array([], dtype="Int64")}))
    out = merge_changes(base, changes, "k", payload_cols=["k", "val"]) \
        .to_pandas()
    assert sorted(out.columns) == ["k", "val"]
    assert len(out) == 2


def test_table_fingerprint_empty_is_null():
    from dggrid4py_ray.stages.validate import table_fingerprint

    ds = ray.data.from_pandas(pd.DataFrame(
        {"a": pd.array([], dtype="Int64")}))
    row = table_fingerprint(ds, ["a"]).to_pandas().iloc[0]
    assert row["n_rows"] == 0
    assert pd.isna(row["fp"])          # SQL bit_xor over zero rows
