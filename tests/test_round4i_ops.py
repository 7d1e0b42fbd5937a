"""Round-4i operator tests: grouped mode (packed argmax), whole-table
fingerprint, weighted sorted quantile, ordered string-agg path query."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


# ------------------------------------------------------------ grouped_mode

def test_grouped_mode_matches_bruteforce():
    from dggrid4py_ray.stages.relational import grouped_mode

    rng = np.random.default_rng(11)
    g = rng.integers(0, 200, 5000)
    v = rng.choice(np.array(["alpha", "beta", "gamma", "delta"]), 5000)
    ds = ray.data.from_pandas(pd.DataFrame({"g": g, "v": v})).repartition(7)
    got = (grouped_mode(ds, "g", "v", out_col="mode", n_col="n")
           .to_pandas().sort_values("g", ignore_index=True))

    df = pd.DataFrame({"g": g, "v": v})
    cnt = df.groupby(["g", "v"]).size().reset_index(name="n")
    # max count, tie -> lexicographically smallest value
    cnt = cnt.sort_values(["g", "n", "v"], ascending=[True, False, True])
    want = cnt.groupby("g").head(1).rename(columns={"v": "mode"}) \
              .sort_values("g", ignore_index=True)[["g", "mode", "n"]]
    pd.testing.assert_frame_equal(
        got[["g", "mode", "n"]], want, check_dtype=False)


def test_grouped_mode_tiebreak_is_lexicographic():
    from dggrid4py_ray.stages.relational import grouped_mode

    ds = ray.data.from_pandas(pd.DataFrame({
        "g": [1, 1, 1, 1], "v": ["zz", "zz", "aa", "aa"]}))
    out = grouped_mode(ds, "g", "v").to_pandas()
    assert out.iloc[0]["mode"] == "aa" and out.iloc[0]["n"] == 2


# ------------------------------------------------------- table_fingerprint

def _fp(ds, cols):
    from dggrid4py_ray.stages.validate import table_fingerprint
    out = table_fingerprint(ds, cols).to_pandas()
    return int(out["n_rows"][0]), int(out["fp"][0])


def test_table_fingerprint_order_and_partition_invariant():
    rng = np.random.default_rng(4)
    k = np.arange(1000, dtype=np.int64)
    s = rng.choice(np.array(["x", "y", "z"]), 1000)
    df = pd.DataFrame({"k": k, "s": s})
    a = _fp(ray.data.from_pandas(df), ["k", "s"])
    sh = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    b = _fp(ray.data.from_pandas(sh).repartition(13), ["k", "s"])
    assert a == b and a[0] == 1000

    # sensitivity: one mutated value flips the fingerprint
    df2 = df.copy()
    df2.loc[500, "s"] = "MUTANT"
    c = _fp(ray.data.from_pandas(df2), ["k", "s"])
    assert c[0] == 1000 and c[1] != a[1]


def test_table_fingerprint_matches_duckdb():
    import duckdb

    df = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                       "s": [f"v{i % 7}" for i in range(50)]})
    n, fp = _fp(ray.data.from_pandas(df), ["k", "s"])
    want = duckdb.connect().execute(
        "SELECT COUNT(*), bit_xor(md5_number_upper("
        "CAST(k AS VARCHAR) || '|' || s)) FROM df").fetchone()
    assert (n, fp) == (want[0], int(want[1]))


def test_table_fingerprint_empty():
    # round-4n contract: fp is NULL on zero rows (SQL bit_xor over zero
    # rows is NULL), not 0
    from dggrid4py_ray.stages.validate import table_fingerprint
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "s": pa.array([], pa.string())}))
    out = table_fingerprint(ds, ["k", "s"]).to_pandas()
    assert int(out["n_rows"][0]) == 0
    assert pd.isna(out["fp"][0])


# ------------------------------------------------- weighted sorted quantile

def _brute_weighted_median(g, v, w):
    out = {}
    df = pd.DataFrame({"g": g, "v": v, "w": w})
    for key, grp in df.groupby("g"):
        d = grp.groupby("v")["w"].sum().sort_index()
        tot = d.sum()
        rank = -(-tot // 2) if tot % 2 == 0 else (tot + 1) // 2  # ceil(t/2)
        cum = d.cumsum()
        out[key] = float(d.index[(cum >= rank).argmax()])
    return out


def test_weighted_quantile_sorted_matches_bruteforce():
    from dggrid4py_ray.stages.relational import exact_group_quantile

    rng = np.random.default_rng(9)
    g = rng.integers(0, 40, 4000)
    v = rng.integers(0, 500, 4000)
    w = rng.integers(1, 9, 4000)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"g": g, "v": v, "w": w})).repartition(9)
    got = exact_group_quantile(ds, "g", "v", q=0.5, out_col="m",
                               weight_col="w").to_pandas()
    want = _brute_weighted_median(g, v, w)
    assert dict(zip(got["g"], got["m"])) == want


def test_weighted_quantile_all_ones_equals_unweighted():
    from dggrid4py_ray.stages.relational import exact_group_quantile

    rng = np.random.default_rng(2)
    g = rng.integers(0, 30, 3000)
    v = rng.integers(0, 100, 3000)
    df = pd.DataFrame({"g": g, "v": v, "w": np.ones(3000, np.int64)})
    ds = ray.data.from_pandas(df).repartition(5)
    a = exact_group_quantile(ds, "g", "v", q=0.25,
                             out_col="m").to_pandas()
    b = exact_group_quantile(ds, "g", "v", q=0.25, out_col="m",
                             weight_col="w").to_pandas()
    assert dict(zip(a["g"], a["m"])) == dict(zip(b["g"], b["m"]))


# --------------------------------------------------------- merge_changes

def _brute_merge(base, changes):
    latest = changes.sort_values("seq").groupby("key").tail(1)
    keep = base[~base["key"].isin(changes["key"])]
    ups = latest[latest["op"] != "D"][["key", "val"]]
    return pd.concat([keep, ups]).sort_values("key", ignore_index=True)


def test_merge_changes_matches_bruteforce():
    from dggrid4py_ray.stages.relational import merge_changes

    rng = np.random.default_rng(31)
    base = pd.DataFrame({"key": np.arange(1000, dtype=np.int64),
                         "val": rng.integers(0, 100, 1000)})
    ck = rng.choice(1200, 300, replace=False).astype(np.int64)  # some new
    changes = pd.concat([
        pd.DataFrame({"key": ck, "seq": np.int64(1),
                      "op": rng.choice(["U", "D"], 300), "val": 7}),
        pd.DataFrame({"key": ck[:100], "seq": np.int64(2),
                      "op": "U", "val": 9}),
    ], ignore_index=True)
    got = merge_changes(
        ray.data.from_pandas(base).repartition(5),
        ray.data.from_pandas(changes).repartition(3),
        "key", payload_cols=["key", "val"]).to_pandas() \
        .sort_values("key", ignore_index=True)
    want = _brute_merge(base, changes)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_merge_changes_empty_changes_is_identity():
    from dggrid4py_ray.stages.relational import merge_changes

    base = pd.DataFrame({"key": np.arange(20, dtype=np.int64),
                         "val": np.arange(20, dtype=np.int64)})
    changes = pd.DataFrame({"key": pd.Series([], dtype=np.int64),
                            "seq": pd.Series([], dtype=np.int64),
                            "op": pd.Series([], dtype=str),
                            "val": pd.Series([], dtype=np.int64)})
    got = merge_changes(ray.data.from_pandas(base),
                        ray.data.from_pandas(changes),
                        "key", payload_cols=["key", "val"]) \
        .to_pandas().sort_values("key", ignore_index=True)
    pd.testing.assert_frame_equal(got, base, check_dtype=False)


# --------------------------------------------------- label_centroid_cosine

def test_label_centroid_cosine_parallelism_invariant_and_correct():
    from dggrid4py_ray.stages.linalg import label_centroid_cosine

    rng = np.random.default_rng(13)
    n, d = 600, 16
    emb = rng.normal(size=(n, d)).astype(np.float32)
    lab = rng.integers(0, 4, n)

    def mk(nparts):
        tbl = pa.table({
            "label": pa.array(lab, pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float32()))})
        return ray.data.from_arrow(tbl).repartition(nparts)

    a = label_centroid_cosine(mk(2)).to_pandas() \
        .sort_values(["label_a", "label_b"], ignore_index=True)
    b = label_centroid_cosine(mk(11)).to_pandas() \
        .sort_values(["label_a", "label_b"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)  # exact at any parallelism
    assert len(a) == 6  # C(4,2)

    # numeric sanity: within float tolerance of the float64 centroid cosine
    for _, row in a.iterrows():
        ca = emb[lab == row.label_a].mean(axis=0).astype(np.float64)
        cb = emb[lab == row.label_b].mean(axis=0).astype(np.float64)
        ref = 1e6 * (ca @ cb) / np.sqrt((ca @ ca) * (cb @ cb))
        assert abs(ref - row.cos_e6) < 50  # quantization grid error only


def test_label_centroid_cosine_identical_labels_give_1():
    from dggrid4py_ray.stages.linalg import label_centroid_cosine

    v = np.arange(1, 9, dtype=np.float32)
    tbl = pa.table({
        "label": pa.array([0, 0, 1], pa.int64()),
        "embedding": pa.array([v, v, 2 * v], pa.list_(pa.float32()))})
    out = label_centroid_cosine(ray.data.from_arrow(tbl)).to_pandas()
    assert out["cos_e6"].tolist() == [1000000]  # colinear centroids
