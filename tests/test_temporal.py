"""sliding_window_daily / sessionize / asof_join and the other
stages/temporal.py operators vs in-memory pandas oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events(n=4000, seed=9):
    rng = np.random.default_rng(seed)
    ts = (np.datetime64("2024-01-01", "us")
          + rng.integers(0, 30 * 86400, n) * np.timedelta64(1_000_000, "us"))
    return pd.DataFrame({"ts": ts, "key": rng.integers(0, 3, n).astype(str),
                         "v": rng.uniform(0, 10, n),
                         "uid": rng.integers(0, 40, n),
                         "eid": np.arange(n)})


def _ds(ray_session, df):
    import ray.data
    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(4)


def test_sliding_window_daily(ray_session):
    from dggrid4py_ray.stages.temporal import sliding_window_daily
    df = _events()
    t = sliding_window_daily(_ds(ray_session, df), "ts", "key", "v",
                             window_days=7).to_pandas()
    # oracle: daily agg + trailing 7-day sum
    d = df.copy()
    d["day"] = d["ts"].to_numpy(dtype="datetime64[us]").astype("datetime64[D]")
    daily = d.groupby(["key", "day"]).agg(n=("v", "size"),
                                          s=("v", "sum")).reset_index()
    for _, row in t.sample(frac=0.3, random_state=0).iterrows():
        day = np.datetime64(row["day"], "D")
        sub = daily[(daily["key"] == row["key"])
                    & (daily["day"] > day - 7) & (daily["day"] <= day)]
        assert row["n_window"] == sub["n"].sum()
        assert abs(row["sum_window"] - sub["s"].sum()) < 1e-9


def test_sessionize(ray_session):
    from dggrid4py_ray.stages.temporal import sessionize
    df = _events(1500)
    out = sessionize(_ds(ray_session, df), "uid", "ts", gap_seconds=3600.0,
                     order_col="eid").to_pandas().set_index("uid")
    for uid, sub in df.groupby("uid"):
        ts = np.sort(sub["ts"].to_numpy(dtype="datetime64[us]"))
        gaps = np.diff(ts) > np.timedelta64(3600 * 1_000_000, "us")
        assert out.loc[uid, "n_sessions"] == gaps.sum() + 1
        assert out.loc[uid, "n_events"] == len(sub)


def test_sessionize_scale_100k_users(ray_session):
    """VERDICT r3 #2 done-criterion: the sort+block-local sessionize must
    handle >=100k users with per-user work in vectorized numpy (only the
    <=2-per-block boundary users see a Python merge call), agree with a
    pandas oracle exactly, and emit each user exactly once."""
    import time
    from dggrid4py_ray.stages.temporal import sessionize
    rng = np.random.default_rng(3)
    n, nusers = 400_000, 120_000
    uid = rng.integers(0, nusers, n)
    ts = (np.datetime64("2024-01-01", "us")
          + rng.integers(0, 7 * 86400, n) * np.timedelta64(1_000_000, "us"))
    df = pd.DataFrame({"uid": uid, "ts": ts, "eid": np.arange(n)})
    t0 = time.time()
    out = sessionize(_ds(ray_session, df), "uid", "ts", gap_seconds=3600,
                     order_col="eid").to_pandas()
    dt = time.time() - t0
    # oracle: vectorized global sort + per-user segmented gap count
    d = df.sort_values(["uid", "ts", "eid"])
    u = d["uid"].to_numpy()
    tsv = d["ts"].to_numpy(dtype="datetime64[us]").view(np.int64)
    change = np.empty(n, dtype=bool); change[0] = True
    change[1:] = u[1:] != u[:-1]
    isgap = (np.diff(tsv) > 3600_000_000) & ~change[1:]
    seg_id = np.cumsum(change) - 1
    nseg = int(seg_id[-1]) + 1
    exp = pd.DataFrame({
        "uid": u[np.flatnonzero(change)],
        "n_events": np.diff(np.append(np.flatnonzero(change), n)),
        "n_sessions": np.bincount(seg_id[1:][isgap], minlength=nseg) + 1})
    assert len(out) == nseg == out["uid"].nunique()
    got = out.sort_values("uid").reset_index(drop=True)
    exps = exp.sort_values("uid").reset_index(drop=True)
    assert (got["uid"].to_numpy() == exps["uid"].to_numpy()).all()
    assert (got["n_events"].to_numpy() == exps["n_events"].to_numpy()).all()
    assert (got["n_sessions"].to_numpy() == exps["n_sessions"].to_numpy()).all()
    assert dt < 240, dt   # guard vs per-group Python blowup; box has 3-8x timing noise


def test_funnel_stages_hand_case(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from dggrid4py_ray.stages.temporal import funnel_stages

    T = np.datetime64("2024-01-01T00:00:00", "us")
    H = np.timedelta64(3600_000_000, "us")
    rows = [
        # u1: full funnel inside window
        (1, T + 0 * H, "view"), (1, T + 1 * H, "click"), (1, T + 2 * H, "purchase"),
        # u2: click too late (window 2h)
        (2, T + 0 * H, "view"), (2, T + 5 * H, "click"),
        # u3: purchase BEFORE click -> stage 2
        (3, T + 0 * H, "view"), (3, T + 1 * H, "purchase"), (3, T + 2 * H, "click"),
        # u4: never viewed -> absent
        (4, T + 0 * H, "click"), (4, T + 1 * H, "purchase"),
        # u5: click at exactly anchor ts (not strictly after) -> stage 1
        (5, T + 0 * H, "view"), (5, T + 0 * H, "click"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    ds = ray.data.from_pandas(df).repartition(4)
    out = funnel_stages(ds, ["view", "click", "purchase"],
                        window_us=2 * 3600 * 1_000_000) \
        .to_pandas().sort_values("user_id", ignore_index=True)
    assert list(out["user_id"]) == [1, 2, 3, 5]
    assert list(out["stage"]) == [3, 1, 2, 1]


def test_cohort_retention_hand_case(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.temporal import cohort_retention

    D = np.timedelta64(86_400_000_000, "us")
    T = np.datetime64("2024-03-10T08:00:00", "us")
    rows = [
        (1, T), (1, T + D), (1, T + D),          # same day dup deduped
        (2, T), (2, T + 2 * D),
        (3, T + D),                               # later cohort
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = cohort_retention(ray.data.from_pandas(df).repartition(3)) \
        .to_pandas().sort_values(["d0", "day_offset"], ignore_index=True)
    got = [(str(r.d0), int(r.day_offset), int(r.active_users))
           for r in out.itertuples()]
    assert got == [("2024-03-10", 0, 2), ("2024-03-10", 1, 1),
                   ("2024-03-10", 2, 1), ("2024-03-11", 0, 1)]


def test_funnel_stages_empty_step_returns_partial(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.temporal import funnel_stages

    T = np.datetime64("2024-01-01T00:00:00", "us")
    H = np.timedelta64(3600_000_000, "us")
    # views exist, but no click ever -> step 2 and 3 are empty
    df = pd.DataFrame([(1, T, "view"), (2, T + H, "view")],
                      columns=["user_id", "ts", "event_type"])
    out = funnel_stages(ray.data.from_pandas(df),
                        ["view", "click", "purchase"]) \
        .to_pandas().sort_values("user_id", ignore_index=True)
    assert list(out["user_id"]) == [1, 2]
    assert list(out["stage"]) == [1, 1]
    # and a funnel nobody enters -> empty typed result
    out2 = funnel_stages(ray.data.from_pandas(df), ["purchase", "click"])
    # Ray drops schema on fully-empty datasets in to_pandas (documented
    # sandbox pitfall) — assert emptiness via the dataset itself
    assert out2.count() == 0


def test_rolling_distinct_daily_hand_case(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from dggrid4py_ray.stages.temporal import rolling_distinct_daily

    D = np.timedelta64(86_400_000_000, "us")
    T = np.datetime64("2024-05-01T10:00:00", "us")
    rows = [
        (1, T), (2, T),                  # day 0: users 1,2
        (1, T + D), (1, T + D),          # day 1: user 1 (dup within day)
        (3, T + 3 * D),                  # day 3: user 3
        (1, T + 9 * D),                  # day 9: user 1 (window resets)
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = rolling_distinct_daily(ray.data.from_pandas(df).repartition(3),
                                 "ts", "user_id", window_days=3) \
        .to_pandas().sort_values("_wday", ignore_index=True)
    base = int(T.astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
    got = {int(w) - base: int(a)
           for w, a in zip(out["_wday"], out["active"])}
    # only days with actual activity are emitted: 0,1,3,9
    # day 0: {1,2}; day 1: {1,2} (window 0-1); day 3: {1,3} (days 1-3);
    # day 9: {1}
    assert got == {0: 2, 1: 2, 3: 2, 9: 1}


# ------------------------------------------------------------- asof_join

def _asof_sides(keyed: bool, seed: int = 21, nl: int = 20000, nr: int = 400):
    """Dense left rows, sparse right rows (so most matches come from rows
    far back in the sort order), some null right values."""
    rng = np.random.default_rng(seed)
    nk = 4 if keyed else 1
    left = pd.DataFrame({"id": np.arange(nl, dtype=np.int64),
                         "k": rng.integers(0, nk, nl),
                         "t": rng.integers(0, 1_000_000, nl)})
    right = pd.DataFrame({"k": rng.integers(0, nk + 1, nr),  # a key with no left rows
                          "t": rng.integers(0, 1_000_000, nr),
                          "v": rng.normal(size=nr)})
    right.loc[rng.random(nr) < 0.1, "v"] = np.nan
    return left, right.drop_duplicates(["k", "t"] if keyed else ["t"])


def _merge_asof(left, right, key):
    return pd.merge_asof(left.sort_values("t"),
                         right.assign(rt=right["t"]).sort_values("t"),
                         on="t", by=key, direction="backward") \
        .sort_values("id", ignore_index=True)


@pytest.mark.parametrize("block_bytes", [None, 64 * 1024],
                         ids=["default_blocks", "64KiB_blocks"])
@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "unkeyed"])
def test_asof_join_matches_merge_asof(ray_session, keyed, block_bytes):
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    left, right = _asof_sides(keyed)
    key = "k" if keyed else None
    want = _merge_asof(left, right if keyed else right.drop(columns="k"), key)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    try:
        if block_bytes is not None:
            ctx.target_max_block_size = block_bytes
        out = asof_join(ray.data.from_pandas(left).repartition(7),
                        ray.data.from_pandas(right).repartition(5),
                        "t", "v", "id", key_col=key, out_col="av")
        blocks = [b.to_pandas() for b in out.iter_batches(
            batch_size=None, batch_format="pyarrow") if b.num_rows]
    finally:
        ctx.target_max_block_size = saved
    got = pd.concat(blocks).sort_values("id", ignore_index=True)
    assert list(got.columns) == ["id", "k", "t", "av"]
    assert (got["id"].to_numpy() == want["id"].to_numpy()).all()
    w, g = want["v"].to_numpy(), got["av"].to_numpy()
    assert np.array_equal(np.isnan(w), np.isnan(g))
    assert np.allclose(w[~np.isnan(w)], g[~np.isnan(g)])
    if block_bytes is not None:
        # output blocks follow the sorted blocks; a block whose first left
        # row matched a right row sorting before the previous block's last
        # left row took its match across a seam, from the driver carry
        rt = want.set_index("id")["rt"]
        seams = 0
        for prev, cur in zip(blocks, blocks[1:]):
            first, last = cur.iloc[0], prev.iloc[-1]
            m = rt.get(first["id"])
            if pd.isna(m):
                continue
            same = not keyed or first["k"] == last["k"]
            seams += bool(same and m <= last["t"])
        assert len(blocks) >= 10 and seams >= 1, (len(blocks), seams)


def test_asof_join_null_right_value_matches_not_skips(ray_session):
    """A right row with NULL value still wins the as-of match (DuckDB ASOF
    semantics): the probe gets NULL, not the older non-null value."""
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1], "ts": [10, 20], "val": [5.0, None]}))
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1, 1], "ts": [15, 25, 5], "lid": [100, 101, 102]}))
    out = asof_join(left, right, "ts", "val", "lid", key_col="k") \
        .to_pandas().set_index("lid")
    assert out.loc[100, "val"] == 5.0      # matches ts=10
    assert pd.isna(out.loc[101, "val"])    # matches ts=20 (NULL val)
    assert pd.isna(out.loc[102, "val"])    # no prior right row


def test_asof_join_equal_ts_is_inclusive(ray_session):
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    left = ray.data.from_pandas(pd.DataFrame(
        {"id": [1], "k": [7], "t": [100]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [7, 7], "t": [100, 99], "v": [5.0, 3.0]}))
    out = asof_join(left, right, "t", "v", "id", key_col="k",
                    out_col="av").to_pandas()
    assert out["av"].tolist() == [5.0]  # ts-equal right row matches


_WEEKLY = [np.datetime64("2024-01-01", "us") + np.timedelta64(7 * k, "D")
           for k in range(5)]
# clustered in a few hours so most days hold no marker; the first marker
# comes after some events, which are then unmatched
_CLUSTERED = [np.datetime64("2024-01-03T06:00:00", "us")
              + np.timedelta64(int(k * 19 + k * k), "h") for k in range(12)]


@pytest.mark.parametrize("mts", [_WEEKLY, _CLUSTERED],
                         ids=["weekly", "clustered"])
def test_asof_join_markers_match_merge_asof(ray_session, mts):
    """Unkeyed event -> marker as-of with the unmatched events dropped,
    both sides over several blocks, against pandas merge_asof."""
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    df = _events(n=6000, seed=31)
    markers = pa.table({"marker_id": pa.array(range(len(mts)), pa.int64()),
                        "ts": pa.array(mts, pa.timestamp("us"))})
    out = asof_join(_ds(ray_session, df),
                    ray.data.from_arrow(markers).repartition(2),
                    "ts", "marker_id", "eid", keep_unmatched=False) \
        .to_pandas().sort_values("eid", ignore_index=True)
    want = pd.merge_asof(df.sort_values("ts"), markers.to_pandas(),
                         on="ts", direction="backward") \
        .dropna(subset=["marker_id"]).sort_values("eid", ignore_index=True)
    assert len(out) == len(want) > 0
    assert (out["eid"].to_numpy() == want["eid"].to_numpy()).all()
    assert (out["marker_id"].to_numpy() == want["marker_id"].to_numpy()).all()
    assert list(out.dtypes[["uid", "eid", "marker_id"]]) == [np.int64] * 3
    if mts is _WEEKLY:
        assert len(out) == len(df)   # every event is at/after the first marker


def test_asof_join_empty_sides(ray_session):
    import ray
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    left = pa.table({"id": pa.array([1, 2, 3], pa.int64()),
                     "k": pa.array([1, 1, 2], pa.int64()),
                     "t": pa.array([5, 9, 7], pa.int64())})
    right = pa.table({"k": pa.array([1], pa.int64()),
                      "t": pa.array([6], pa.int64()),
                      "v": pa.array(["x"], pa.string())})
    out = asof_join(ray.data.from_arrow(left.slice(0, 0)),
                    ray.data.from_arrow(right), "t", "v", "id", key_col="k")
    got = out.to_pandas()
    assert len(got) == 0 and list(got.columns) == ["id", "k", "t", "v"]
    out = asof_join(ray.data.from_arrow(left),
                    ray.data.from_arrow(right.slice(0, 0)),
                    "t", "v", "id", key_col="k").to_arrow_refs()
    got = pa.concat_tables(ray.get(out)).sort_by("id")
    assert got.schema.field("v").type == pa.string()
    assert got["id"].to_pylist() == [1, 2, 3]
    assert got["v"].null_count == 3          # every row unmatched


def test_asof_join_contract_violations_raise(ray_session):
    import ray.data
    from dggrid4py_ray.stages.temporal import asof_join
    left = ray.data.from_pandas(pd.DataFrame(
        {"id": [1], "k": [7], "t": [100]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [7, 7], "t": [90, 90], "v": [5.0, 3.0]}))
    # Ray wraps the worker's ValueError in RayTaskError
    with pytest.raises(Exception, match=r"unique \(key, ts\)"):
        asof_join(left, right, "t", "v", "id", key_col="k").to_pandas()
    with pytest.raises(ValueError, match="is a left column"):
        asof_join(left, right, "t", "v", "id", key_col="k", out_col="t")
