"""Temporal / streaming-style operators (windowed aggregate, sessionization,
as-of join).

The reference is strictly batch (SURVEY §2.8: no event-time semantics), so
these are part of the beyond-the-reference training-data surface:

* sliding_window_daily — tumbling daily pre-aggregation (the distributed
  work: a combiner + one small groupby) followed by the sliding-window
  pass over the aggregated day table, which is inherently tiny
  (days x keys) and runs as a final vectorized step.  The 100-TB shape:
  the raw stream never re-shuffles for the window, only day partials do.
* sessionize — gap-based sessions per user: the shuffle is keyed on
  user_id (each user's events co-locate once), session boundaries are a
  vectorized diff inside the group.
* asof_join — each left row matched to the latest right row at or
  before its timestamp, optionally within the same key; both sides are
  Datasets of any size.  One tagged-union range sort, a per-block
  segmented scan and an O(#blocks) driver carry (window._tail_carry):
  no join, no hash aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum
from .join import join_safe


def sliding_window_daily(ds: ray.data.Dataset, ts_col: str, key_col: str,
                         value_col: str, window_days: int = 7) -> pa.Table:
    """Per (day, key): count and value sum over the trailing
    ``window_days``-day window (inclusive of the current day)."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t[ts_col], unit="day")
        df = pd.DataFrame({"day": day.to_pandas(),
                           key_col: t[key_col].to_numpy(zero_copy_only=False),
                           "v": t[value_col].to_numpy(zero_copy_only=False)})
        g = df.groupby(["day", key_col], sort=False).agg(
            n=("v", "size"), s=("v", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby(["day", key_col])
               .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))) \
        .to_pandas()  # small: days x keys rows
    daily["day"] = pd.to_datetime(daily["day"])
    daily = daily.sort_values([key_col, "day"])
    out = []
    for key, g in daily.groupby(key_col, sort=True):
        g = g.set_index("day")
        w = f"{window_days}D"
        roll_n = g["n"].rolling(w).sum()
        roll_s = g["s"].rolling(w).sum()
        out.append(pd.DataFrame({
            "day": g.index, key_col: key,
            "n_window": roll_n.to_numpy(dtype=np.int64),
            "sum_window": roll_s.to_numpy()}))
    res = pd.concat(out, ignore_index=True)
    return pa.Table.from_pandas(res, preserve_index=False)


def sessionize(ds: ray.data.Dataset, user_col: str, ts_col: str,
               gap_seconds: float, order_col: str | None = None) -> ray.data.Dataset:
    """Gap-based sessions: a new session starts when the time since the
    user's previous event exceeds ``gap_seconds``.  Returns one row per
    user: (user, n_events, n_sessions).  Ties in ts are ordered by
    ``order_col`` for determinism (a tie contributes gap 0 either way).

    Scale shape (VERDICT r3 #2 — same pattern as stages/groupagg and the
    presence scale path): ONE range sort on (user, ts[, order]); each
    sorted block computes per-user partials (n_events, internal gap count,
    first/last ts) fully vectorized — run-length segments + bincount, no
    per-user Python.  Only each block's first and last user (<= 2 per
    block) can continue into a neighbor block; those boundary partials go
    through a tiny groupby whose ordered merge adds the cross-block
    boundary gaps (exact: blocks of a range sort are ts-ordered within a
    user, and gap counting is associative over an ordered partition).
    At 10^8-10^9 users this replaces 10^8-10^9 Python map_groups calls
    (~20 us each) with ~2 rows per block of real aggregation."""
    gap_us = np.int64(int(gap_seconds * 1e6))

    cols = [user_col, ts_col] + ([order_col] if order_col else [])
    proj = ds.map_batches(lambda t: t.select(cols), batch_format="pyarrow")
    srt = proj.sort(cols)

    def block(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({user_col: t[user_col],
                             "n_events": pa.array([], pa.int64()),
                             "n_gaps": pa.array([], pa.int64()),
                             "first_ts": pa.array([], pa.int64()),
                             "last_ts": pa.array([], pa.int64()),
                             "_b": pa.array([], pa.bool_())})
        u = t[user_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = u[1:] != u[:-1]
        seg_start = np.flatnonzero(change)
        nseg = len(seg_start)
        seg_id = np.cumsum(change) - 1
        isgap = (np.diff(ts) > gap_us) & ~change[1:]
        gaps = np.bincount(seg_id[1:][isgap], minlength=nseg).astype(np.int64)
        counts = np.diff(np.append(seg_start, n))
        b = np.zeros(nseg, dtype=bool)
        b[0] = True
        b[-1] = True
        return pa.table({
            user_col: pa.array(u[seg_start]),
            "n_events": pa.array(counts.astype(np.int64)),
            "n_gaps": pa.array(gaps),
            "first_ts": pa.array(ts[seg_start]),
            "last_ts": pa.array(ts[np.append(seg_start[1:], n) - 1]),
            "_b": pa.array(b)})

    import pyarrow.compute as pc
    parts = srt.map_batches(block, batch_format="pyarrow").materialize()
    interior = parts.map_batches(
        lambda t: pa.table({user_col: t[user_col],
                            "n_events": t["n_events"],
                            "n_sessions": pc.add(t["n_gaps"], 1)})
        .filter(pc.invert(t["_b"])), batch_format="pyarrow")
    boundary = parts.map_batches(
        lambda t: t.filter(t["_b"]).drop_columns(["_b"]), batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("first_ts")
        ft = g["first_ts"].to_numpy(dtype=np.int64)
        lt = g["last_ts"].to_numpy(dtype=np.int64)
        gaps = int(g["n_gaps"].sum()) + int(((ft[1:] - lt[:-1]) > gap_us).sum())
        return pd.DataFrame({user_col: [g[user_col].iloc[0]],
                             "n_events": [int(g["n_events"].sum())],
                             "n_sessions": [gaps + 1]})

    bfinal = boundary.groupby(user_col).map_groups(merge, batch_format="pandas")
    return interior.union(bfinal)


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, ts_col: str,
              val_col: str, id_col: str, key_col: str | None = None,
              out_col: str | None = None,
              keep_unmatched: bool = True) -> ray.data.Dataset:
    """As-of join: every ``left`` column plus ``out_col`` (default
    ``val_col``), the ``val_col`` of the latest ``right`` row with
    ``right.ts <= left.ts`` (of the same ``key_col`` when given) — DuckDB
    ``ASOF LEFT JOIN ... ON l.key = r.key AND l.ts >= r.ts``.  Both sides
    are Datasets of any size and key cardinality; the right side names
    its timestamp ``ts_col`` too.  The value keeps its Arrow type and its
    nulls: a matched right row whose value is null yields null (the
    nearest row wins; it does not fall through to an older non-null
    one).  Left rows with no right row at or before them get null, or
    are dropped when ``keep_unmatched=False`` (ASOF INNER).

    Contract: ``ts_col`` is non-null on both sides; ``id_col`` is unique
    on the left; (key, ts) is unique on the right (a duplicate makes the
    match ambiguous, in SQL too) and raises ``ValueError``; ``out_col``
    names no left column.

    Plan — one tagged-union range sort plus an O(#blocks) carry:

    1. left rows keep their columns with ``_tag`` 1; right rows become
       rows of the same schema with ``_tag`` 0, the key and ts filled and
       (ts, value) packed in ``_r``;
    2. ONE ``sort([key, ts, _tag, id])``: at equal ts the right row
       sorts first, so the match is inclusive;
    3. per sorted block, each left row takes ``_r`` of the last right row
       before it in its key (a segmented running-max index, then
       ``take``); the block's first key is seeded with the last right row
       of the blocks before it, carried down the driver chain by
       ``window._tail_carry`` — never O(#keys) driver state."""
    import pyarrow.compute as pc

    from .window import _first_key, _group_codes, _last_selected, _tail_carry

    out_col = out_col or val_col
    ls = left.schema()
    lfields = list(zip(ls.names, ls.types))
    ltypes = dict(lfields)
    if out_col in ltypes:
        raise ValueError(f"asof_join: out_col {out_col!r} is a left column")
    rs = right.schema()
    vtype = dict(zip(rs.names, rs.types))[val_col]
    rtype = pa.struct([("ts", ltypes[ts_col]), ("v", vtype)])
    keys = ([key_col] if key_col else []) + [ts_col, "_tag", id_col]

    def l_union(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return (t.append_column("_tag", pa.array(np.ones(n, np.int8)))
                 .append_column("_r", pa.nulls(n, rtype)))

    def r_union(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {name: pa.nulls(n, typ) for name, typ in lfields}
        cols[ts_col] = t[ts_col].cast(ltypes[ts_col])
        if key_col:
            cols[key_col] = t[key_col].cast(ltypes[key_col])
        cols["_tag"] = pa.array(np.zeros(n, np.int8))
        cols["_r"] = pa.StructArray.from_arrays(
            [cols[ts_col].combine_chunks(), t[val_col].combine_chunks()],
            fields=list(rtype))
        return pa.table(cols)

    srt = left.map_batches(l_union, batch_format="pyarrow").union(
        right.map_batches(r_union, batch_format="pyarrow")) \
        .sort(keys).materialize()
    tails_ref = _tail_carry(srt, keys, key_col, "_r", k=1,
                            keep=lambda t: _tags(t) == 0)

    def match(t: pa.Table) -> pa.Table:
        tag = _tags(t)
        out = t.filter(pa.array(tag == 1)).drop_columns(["_tag", "_r"])
        if t.num_rows == 0:
            return out.append_column(out_col, pa.array([], vtype))
        # the carried right row enters as a virtual first row of the
        # block's first key
        seed = ray.get(tails_ref)[repr(_first_key(t, keys))]
        p = len(seed)
        g = _group_codes(t, key_col)
        g = np.concatenate([np.repeat(g[:1], p), g])
        is_r = np.r_[np.ones(p, bool), tag == 0]
        r = pa.concat_arrays([seed, t["_r"].combine_chunks()])
        ri = np.flatnonzero(is_r)
        rts = pc.struct_field(r.take(ri), "ts").to_numpy(zero_copy_only=False)
        if ((g[ri[1:]] == g[ri[:-1]]) & (rts[1:] == rts[:-1])).any():
            raise ValueError("asof_join requires unique (key, ts) on the "
                             "right side")
        pos = _last_selected(g, is_r)[p:][~is_r[p:]]
        val = pc.struct_field(r.take(pa.array(pos, mask=pos < 0)), "v")
        out = out.append_column(out_col, val)
        return out if keep_unmatched else out.filter(pa.array(pos >= 0))

    return srt.map_batches(match, batch_format="pyarrow")


def _tags(t: pa.Table) -> np.ndarray:
    return t["_tag"].to_numpy(zero_copy_only=False)


def funnel_stages(events: ray.data.Dataset, steps: list[str],
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  window_us: int | None = None) -> ray.data.Dataset:
    """Sequential conversion funnel: for each user, how far through
    ``steps`` they progressed, where step i+1 must occur strictly AFTER
    the user's first qualifying step-i event (and, if ``window_us`` is
    set, within that many microseconds of it).  Output: (user_col,
    stage) for every user who completed step 1, stage in 1..len(steps).

    Scale shape: one ``grouped_reduce`` min per step (unbounded users)
    plus one hash join per step to carry the previous step's anchor
    timestamp — events and anchors shuffle keyed on user only; no
    per-user Python, no whole-stream window.  Anchors are reduce-derived
    so each join input is repartitioned (empty-block pitfall)."""
    from .groupagg import grouped_reduce
    from .join import _join_partitions

    parts = _join_partitions()

    def first_of(ds: ray.data.Dataset, etype: str) -> ray.data.Dataset:
        sub = ds.filter(expr=f"{type_col} == {etype!r}") \
                .select_columns([user_col, ts_col])
        return grouped_reduce(sub, user_col, {ts_col: "_anchor"},
                              how="min").repartition(parts)

    anchors = first_of(events, steps[0]).materialize()   # (user, _anchor)
    if anchors.count() == 0:
        # nobody entered the funnel: empty typed result (a wholly-empty
        # reduce-derived side would poison the hash join — bloom.py:150);
        # preserve the INPUT's user-id type, don't assume int64
        try:
            utype = events.schema().base_schema.field(user_col).type
        except Exception:
            utype = pa.int64()
        return ray.data.from_arrow(pa.table(
            {user_col: pa.array([], utype),
             "stage": pa.array([], pa.int64())}))
    stage_tables = [anchors.select_columns([user_col])]
    for step in steps[1:]:
        step_ev = events.filter(expr=f"{type_col} == {step!r}") \
                        .select_columns([user_col, ts_col]).materialize()
        if step_ev.count() == 0:
            break      # no such events at all (empty side poisons joins)
        nxt = join_safe(step_ev, anchors, join_type="inner",
                           num_partitions=parts, on=(user_col,))

        def qualify(t: pa.Table) -> pa.Table:
            ts = t[ts_col].to_numpy(zero_copy_only=False).astype(
                "datetime64[us]").astype(np.int64)
            a = t["_anchor"].to_numpy(zero_copy_only=False).astype(
                "datetime64[us]").astype(np.int64)
            ok = ts > a
            if window_us is not None:
                ok &= ts <= a + window_us
            return t.filter(pa.array(ok)).select([user_col, ts_col])

        anchors = grouped_reduce(
            nxt.map_batches(qualify, batch_format="pyarrow"),
            user_col, {ts_col: "_anchor"}, how="min") \
            .repartition(parts).materialize()
        if anchors.count() == 0:
            break          # nobody reached this step; later steps can't add
        stage_tables.append(anchors.select_columns([user_col]))

    # stage = number of step tables containing the user: union + count
    def ones(t: pa.Table) -> pa.Table:
        return pa.table({user_col: t[user_col],
                         "_one": pa.array(np.ones(t.num_rows, np.int64))})

    allu = stage_tables[0].map_batches(ones, batch_format="pyarrow")
    for st in stage_tables[1:]:
        allu = allu.union(st.map_batches(ones, batch_format="pyarrow"))
    stage = grouped_reduce(allu, user_col, {"_one": "stage"}, how="sum")
    return stage


def cohort_retention(events: ray.data.Dataset, user_col: str = "user_id",
                     ts_col: str = "ts") -> ray.data.Dataset:
    """Cohort retention matrix: users grouped by first-activity day
    (cohort d0), counting distinct active users per (d0, day_offset).

    Scale shape: first-day per user via grouped_reduce (one sort),
    carried back onto the stream by ONE hash join keyed on user, then
    exact distinct (d0, day_offset, user) via per-batch dedupe + a
    second grouped_reduce, and the final (d0, offset) counts — every
    wide op is the sort-based scale path; cohort keys are days x days
    (bounded) but the distinct stage stays user-scale-safe."""
    from .groupagg import grouped_reduce
    from .join import _join_partitions

    parts = _join_partitions()
    DAY = np.int64(86_400_000_000)

    def day_floor(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        return pa.table({user_col: t[user_col],
                         "_day": pa.array(ts // DAY, pa.int64())})

    days = events.select_columns([user_col, ts_col]) \
                 .map_batches(day_floor, batch_format="pyarrow")
    first = grouped_reduce(days, user_col, {"_day": "_d0"},
                           how="min").repartition(parts)
    j = join_safe(days, first, join_type="inner", num_partitions=parts,
                  on=(user_col,))

    def with_offset(t: pa.Table) -> pa.Table:
        d = t["_day"].to_numpy(zero_copy_only=False)
        d0 = t["_d0"].to_numpy(zero_copy_only=False)
        return pa.table({"_d0": pa.array(d0, pa.int64()),
                         "_off": pa.array(d - d0, pa.int64()),
                         user_col: t[user_col]})

    from .groupagg import grouped_count_distinct
    counts = grouped_count_distinct(
        j.map_batches(with_offset, batch_format="pyarrow"),
        ["_d0", "_off"], user_col, out_col="active_users")

    def finish(t: pa.Table) -> pa.Table:
        d0 = t["_d0"].to_numpy(zero_copy_only=False).astype(np.int32)
        return pa.table({
            "d0": pa.array(d0, pa.date32()),
            "day_offset": t["_off"],
            "active_users": t["active_users"]})

    return counts.map_batches(finish, batch_format="pyarrow")


def rolling_distinct_daily(events: ray.data.Dataset, ts_col: str = "ts",
                           key_col: str = "user_id",
                           window_days: int = 7) -> ray.data.Dataset:
    """Rolling W-day DISTINCT count per day (WAU/MAU): for each day d,
    the number of distinct keys active in [d-W+1, d].  Rolling DISTINCT
    does not decompose like a rolling SUM (dailies can't be added), so
    the scale shape is contribution expansion: each distinct (day, key)
    activity covers the W window-days it counts toward (a bounded W-fold
    flat emit of small rows, keys never carry payload), then ONE
    ``grouped_count_distinct`` on (window_day, key).  Output restricted
    to days that actually occur (day domain is bounded -> broadcast).
    Columns: (_day epoch-day int64, active int64)."""
    import pyarrow.compute as pc
    import ray

    from .groupagg import grouped_count_distinct

    DAY = np.int64(86_400_000_000)

    def day_pairs(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        df = pd.DataFrame({"_day": ts // DAY,
                           key_col: t[key_col].to_numpy(
                               zero_copy_only=False)}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = events.select_columns([ts_col, key_col]) \
                  .map_batches(day_pairs, batch_format="pyarrow")

    def expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"_wday": pa.array([], pa.int64()),
                             key_col: t[key_col]})
        d = t["_day"].to_numpy(zero_copy_only=False)
        k = t[key_col].to_numpy(zero_copy_only=False)
        rep = np.repeat(np.arange(len(d)), window_days)
        off = np.tile(np.arange(window_days, dtype=np.int64), len(d))
        return pa.table({"_wday": pa.array(d[rep] + off),
                         key_col: pa.array(k[rep])})

    counts = grouped_count_distinct(
        pairs.map_batches(expand, batch_format="pyarrow"),
        "_wday", key_col, out_col="active")
    # the expansion invents wdays past the data's last day: keep only
    # real days (bounded domain): per-batch unique partials + driver
    # union — one streaming pass, no sort shuffle just to list days
    day_parts = pairs.map_batches(
        lambda t: pa.table({"_day": pc.unique(
            t["_day"].combine_chunks()
            if isinstance(t["_day"], pa.ChunkedArray) else t["_day"])}),
        batch_format="pyarrow").to_pandas()
    real = np.unique(day_parts["_day"].to_numpy())
    rref = ray.put(real.astype(np.int64))

    def keep_real(t: pa.Table) -> pa.Table:
        days = ray.get(rref)
        w = t["_wday"].to_numpy(zero_copy_only=False)
        i = np.clip(np.searchsorted(days, w), 0, max(len(days) - 1, 0))
        ok = (days[i] == w) if len(days) else np.zeros(len(w), bool)
        return t.filter(pa.array(ok))

    return counts.map_batches(keep_real, batch_format="pyarrow")


def interval_union_length(ds: ray.data.Dataset, group_col: str,
                          start_col: str, end_col: str,
                          uniq_cols: list | None = None,
                          out_col: str = "covered") -> ray.data.Dataset:
    """Per-group UNION length of (possibly overlapping) integer intervals
    [start, end) — SQL's islands-and-gaps aggregate (distinct covered
    time across overlapping sessions, total on-air seconds, etc.).

    One range sort on (group, start, end[, uniq]); then, per sorted
    block, the classic sweep: contribution_i = max(0, e_i - max(s_i,
    prevmax_i)) with prevmax = segmented shifted cummax of e (pandas
    compiled cummax — no Python per row).  The cross-block seam is a
    running-MAX carry chain over O(#blocks) driver rows (the
    ``group_running_sum`` shape with max instead of sum).  Block-local
    per-group partial sums then ONE ``grouped_reduce`` — works at
    unbounded group cardinality; interval payloads shuffle once as
    (group, start, end) triples only.

    ``uniq_cols``: extra sort columns to make the key unique when exact
    duplicate (group, start, end) rows are possible (duplicates across a
    block seam would make the carry chain ambiguous, and are rejected).
    """
    from .groupagg import grouped_reduce

    keys = [group_col, start_col, end_col] + list(uniq_cols or [])
    srt = ds.sort(keys).materialize()
    NEG = np.int64(-(2 ** 62))

    def summarize(t: pa.Table) -> pa.Table:
        cols = {f"_k{i}": t[c].slice(0, min(1, t.num_rows))
                for i, c in enumerate(keys)}
        if t.num_rows == 0:
            cols.update({"_key": pa.array([], pa.string()),
                         "_first_g": pa.array([], pa.string()),
                         "_last_g": pa.array([], pa.string()),
                         "_maxe_last": pa.array([], pa.int64())})
            return pa.table(cols)
        g = t[group_col].to_numpy(zero_copy_only=False)
        e = t[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        last_start = 0 if g[0] == g[-1] else \
            int(np.flatnonzero(g[:-1] != g[1:])[-1] + 1)
        from .window import _first_key
        cols.update({
            "_key": pa.array([repr(_first_key(t, keys))]),
            "_first_g": pa.array([str(g[0])]),
            "_last_g": pa.array([str(g[-1])]),
            "_maxe_last": pa.array([int(e[last_start:].max())], pa.int64()),
        })
        return pa.table(cols)

    summ = (srt.map_batches(summarize, batch_format="pyarrow").to_pandas()
            .sort_values([f"_k{i}" for i in range(len(keys))],
                         ignore_index=True))
    carries = {}
    carry_g, carry_m = None, NEG
    for _, r in summ.iterrows():          # O(#blocks) driver rows
        inc = carry_m if r["_first_g"] == carry_g else NEG
        if r["_key"] in carries:
            raise ValueError("interval_union_length requires unique sort "
                             f"keys; duplicate {r['_key']} (pass uniq_cols)")
        carries[r["_key"]] = int(inc)
        carry_m = (max(inc, int(r["_maxe_last"]))
                   if r["_first_g"] == r["_last_g"]
                   else int(r["_maxe_last"]))
        carry_g = r["_last_g"]
    c_ref = ray.put(carries)

    def local_sweep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({group_col: t[group_col],
                             out_col: pa.array([], pa.int64())})
        from .window import _first_key
        g = t[group_col].to_numpy(zero_copy_only=False)
        s = t[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = t[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(g)
        new_seg = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new_seg)
        codes = np.cumsum(new_seg) - 1
        cm = pd.Series(e).groupby(codes).cummax().to_numpy()
        prevmax = np.r_[NEG, cm[:-1]]
        prevmax[starts] = NEG
        carry = ray.get(c_ref)[repr(_first_key(t, keys))]
        first_end = starts[1] if len(starts) > 1 else n
        prevmax[:first_end] = np.maximum(prevmax[:first_end],
                                         np.int64(carry))
        contrib = np.maximum(e - np.maximum(s, prevmax), 0)
        sums = np.add.reduceat(contrib, starts)
        return pa.table({group_col: t[group_col].take(pa.array(starts)),
                         out_col: pa.array(sums.astype(np.int64))})

    partials = srt.map_batches(local_sweep, batch_format="pyarrow")
    return grouped_reduce(partials, group_col, {out_col: out_col},
                          how="sum")


def cusum_changepoint(ds: ray.data.Dataset, key: str, order_cols: list,
                      value_col: str,
                      score_scale: float | None = None) -> ray.data.Dataset:
    """Per-key CUSUM change-point: the order position where the running
    sum of deviations from the key's mean attains its maximum |CUSUM|
    (Page 1954's statistic in its offline scan form) — where the series'
    level most decisively shifts.  Pure composition of proven scale
    paths: grouped_reduce mean -> key-sized hash join -> running-sum
    carry chain -> ROW_NUMBER pick ordered by (-|cusum|, *order).  One
    wide sort dominates; no per-group Python.  Output: key, order cols
    at the change point, cusum (signed), n (series length)."""
    import pyarrow.compute as pc

    from .groupagg import grouped_reduce
    from .window import group_row_number, group_running_sum

    def msum(t: pa.Table) -> pa.Table:
        out = t.select([key])
        return (out.append_column("_n", pa.array(
                    np.ones(t.num_rows, np.int64)))
                   .append_column("_s", t[value_col].cast(pa.float64())))

    stats = grouped_reduce(ds.map_batches(msum, batch_format="pyarrow"),
                           key=key, col_map={"_n": "_n", "_s": "_s"},
                           how="sum")
    from .dedup import _join_partitions
    parts = _join_partitions()
    withm = join_safe(ds.select_columns([key, *order_cols, value_col]) \
        .repartition(parts), stats.repartition(parts), join_type="inner",
              num_partitions=parts, on=(key,))

    def dev(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        m = (t["_s"].to_numpy(zero_copy_only=False)
             / t["_n"].to_numpy(zero_copy_only=False))
        out = t.select([key, *order_cols, "_n"])
        return out.append_column("_dev", pa.array(v - m))

    run = group_running_sum(withm.map_batches(dev, batch_format="pyarrow"),
                            key, order_cols, "_dev", out_col="_cusum")

    def score(t: pa.Table) -> pa.Table:
        c = np.abs(t["_cusum"].to_numpy(zero_copy_only=False))
        if score_scale is not None:
            # integer-rounded score (half-away, SQL ROUND parity): the
            # argmax is then ulp-stable across engines whose running
            # sums differ in the last bits
            return t.append_column("_negabs", pa.array(
                -np.floor(c * score_scale + 0.5).astype(np.int64)))
        return t.append_column("_negabs", pa.array(-c))

    ranked = group_row_number(
        run.map_batches(score, batch_format="pyarrow"),
        key, ["_negabs", *order_cols], out_col="_rn")
    top = ranked.filter(expr="_rn == 1")
    return top.map_batches(
        lambda t: pa.table({key: t[key],
                            **{c: t[c] for c in order_cols},
                            "cusum": t["_cusum"],
                            "n": pc.cast(t["_n"], pa.int64())}),
        batch_format="pyarrow")


def longest_streak(ds: ray.data.Dataset, user_col: str, ts_col: str,
                   out_col: str = "max_streak") -> ray.data.Dataset:
    """Longest run of CONSECUTIVE active days per user (gaps-and-islands
    on the integer day axis; engagement/retention signal — the
    training-data brief's sessionize/cohort family).

    Ray shape, no per-group Python at unbounded user cardinality:
    1. project to (user, epoch_day) and collapse to the distinct
       user-day set with one sort-based grouped_count (the answer-sized
       activity table — at most users x days rows ever shuffle);
    2. group_row_number per user in day order: within a user, day - rn
       is constant on each consecutive island (days step >= 1, rn steps
       exactly 1) — the SQL islands trick, carried across blocks by the
       O(#blocks) offset chain;
    3. island lengths via grouped_count((user, day - rn)), then one
       grouped_reduce max per user."""
    from .groupagg import grouped_count, grouped_reduce
    from .window import group_row_number

    def to_day(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({user_col: t[user_col],
                         "_day": pa.array(ts // 86_400_000_000)})

    days = ds.map_batches(to_day, batch_format="pyarrow")
    dist = grouped_count(days, [user_col, "_day"], out_col="_m") \
        .drop_columns(["_m"])
    rn = group_row_number(dist, user_col, ["_day"], out_col="_rn")

    def island(t: pa.Table) -> pa.Table:
        d = t["_day"].to_numpy(zero_copy_only=False)
        r = t["_rn"].to_numpy(zero_copy_only=False)
        return pa.table({user_col: t[user_col], "_isl": pa.array(d - r)})

    lens = grouped_count(rn.map_batches(island, batch_format="pyarrow"),
                         [user_col, "_isl"], out_col="_len")
    return grouped_reduce(lens, user_col, {"_len": out_col}, how="max")


def event_cooccurrence(ds: ray.data.Dataset, user_col: str, ts_col: str,
                       type_col: str, window_s: int = 600,
                       left_col: str = "type_a", right_col: str = "type_b",
                       out_col: str = "n") -> ray.data.Dataset:
    """Ordered same-user event-type co-occurrence counts within a time
    window (sequence-mining / market-basket signal): count pairs (a, b)
    with the same user and 0 < s_b - s_a <= window_s on second-floored
    timestamps.

    Ray shape — ONE large-large bucketed range join, no self hash-join
    fan-out: each event becomes a point at composite key
    user*P + (s - min_s) and an interval [key+1, key+window_s+1) carrying
    its type; P = next power of two >= span + window_s + 2, so a window
    can never cross a user boundary.  range_join_via_buckets co-locates
    by floor(key / (window_s+1)) buckets (replication factor ~2) and the
    pair count is a bounded (|types|^2) grouped count.  Composite keys
    ride the join's float64 math: exact while (max_user+1)*P < 2**53 —
    guarded, re-offset user ids upstream beyond that."""
    from ray.data.aggregate import Max, Min
    from .groupagg import grouped_count
    from .relational import range_join_via_buckets

    def narrow(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"_u": t[user_col].cast(pa.int64()),
                         "_s": pa.array(ts // 1_000_000),
                         "_ty": t[type_col]})

    nds = ds.map_batches(narrow, batch_format="pyarrow").materialize()
    st = nds.aggregate(Min("_s", alias_name="s0"),
                       Max("_s", alias_name="s1"),
                       Max("_u", alias_name="u1"))
    if st["s0"] is None:
        return ray.data.from_arrow(pa.table({
            left_col: pa.array([], pa.string()),
            right_col: pa.array([], pa.string()),
            out_col: pa.array([], pa.int64())}))
    s0, span, u1 = int(st["s0"]), int(st["s1"]) - int(st["s0"]), int(st["u1"])
    P = 1 << int(span + window_s + 2).bit_length()
    if (u1 + 1) * P >= 2 ** 53:
        raise ValueError(
            f"composite key (max_user+1)*P = {(u1 + 1) * P} exceeds the "
            "float64-exact range; re-offset user ids or shard by user range")

    def to_point(t: pa.Table) -> pa.Table:
        u = t["_u"].to_numpy(zero_copy_only=False)
        s = t["_s"].to_numpy(zero_copy_only=False)
        return pa.table({"_v": pa.array(u * P + (s - s0)),
                         right_col: t["_ty"]})

    def to_interval(t: pa.Table) -> pa.Table:
        u = t["_u"].to_numpy(zero_copy_only=False)
        s = t["_s"].to_numpy(zero_copy_only=False)
        k = u * P + (s - s0)
        return pa.table({left_col: t["_ty"],
                         "_lo": pa.array(k + 1),
                         "_hi": pa.array(k + window_s + 1)})

    pts = nds.map_batches(to_point, batch_format="pyarrow")
    ivs = nds.map_batches(to_interval, batch_format="pyarrow")
    joined = range_join_via_buckets(pts, ivs, "_v", id_col=left_col,
                                    lo_col="_lo", hi_col="_hi",
                                    bucket_width=float(window_s + 1))
    pairs = joined.map_batches(lambda t: t.select([left_col, right_col]),
                               batch_format="pyarrow")
    return grouped_count(pairs, [left_col, right_col], out_col=out_col)


def debounce_events(ds: ray.data.Dataset, user_col: str, ts_col: str,
                    id_col: str, min_gap_s: int) -> ray.data.Dataset:
    """Minimum-gap (throttle) filter: drop a row when the SAME user's
    immediately preceding raw event — ordered by (ts, id) — is within
    ``min_gap_s`` seconds.  LAG semantics (SQL-expressible), not the
    greedy kept-state debounce, which is inherently sequential per user.

    One group_shift carry chain (one sort); microsecond timestamps ride
    the float64 lag column exactly (us epoch < 2**53 until year ~2255).
    Survivors keep all input columns."""
    from .window import group_shift

    def to_us(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return t.append_column("_us", pa.array(ts))

    lag = group_shift(ds.map_batches(to_us, batch_format="pyarrow"),
                      user_col, ["_us", id_col], "_us", k=1,
                      out_col="_lag")
    gap_us = float(min_gap_s) * 1e6

    def keep(t: pa.Table) -> pa.Table:
        us = t["_us"].to_numpy(zero_copy_only=False).astype(np.float64)
        lg = t["_lag"].to_numpy(zero_copy_only=False)
        ok = ~np.isfinite(lg) | (us - lg > gap_us)
        return t.filter(pa.array(ok)).drop_columns(["_us", "_lag"])

    return lag.map_batches(keep, batch_format="pyarrow")


def rolling_median_daily(ds: ray.data.Dataset, user_col: str, ts_col: str,
                         value_col: str, window_days: int = 7,
                         out_col: str = "med") -> ray.data.Dataset:
    """Per (user, active day): EXACT quantile_disc(0.5) over the user's
    values in the trailing ``window_days``-day window.  Rolling MEDIAN is
    holistic (dailies can't be folded like a rolling SUM), so the scale
    shape is bounded contribution expansion — each event row is emitted
    toward the <= W window-days it can serve (narrow (key, value) rows,
    W-fold) — followed by ``exact_group_quantile`` on the packed
    (user, window_day) key (unbounded group cardinality, no per-group
    driver state) and one hash join against the distinct active-day set
    (a window day only reports if the user was active ON it, the SQL
    ``d JOIN v`` semantics).

    Keys pack as user * 2^21 + epoch_day (raises if out of range).
    Output: (user_col, _day epoch-day int64, out_col float64)."""
    import pyarrow.compute as pc

    from .bloom import _coalesce_for_join
    from .dedup import _join_partitions
    from .groupagg import grouped_count
    from .relational import exact_group_quantile

    DAY = np.int64(86_400_000_000)
    M = np.int64(1) << 21

    def narrow(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = ts // DAY
        if len(d) and (d.max() + window_days >= M or d.min() < 0
                       or (u.max() + 1) * M >= 2 ** 63):
            raise ValueError("rolling_median_daily: (user, day) does not "
                             "fit the 2^21 day pack; rescale upstream")
        return pa.table({"_u": pa.array(u), "_d": pa.array(d),
                         "_v": t[value_col]})

    nds = ds.map_batches(narrow, batch_format="pyarrow").materialize()

    def expand(t: pa.Table) -> pa.Table:
        u = t["_u"].to_numpy(zero_copy_only=False)
        d = t["_d"].to_numpy(zero_copy_only=False)
        n = len(u)
        rep = np.repeat(np.arange(n), window_days)
        off = np.tile(np.arange(window_days, dtype=np.int64), n)
        c = t["_v"].take(pa.array(rep, pa.int64()))
        return pa.table({"_k": pa.array(u[rep] * M + d[rep] + off),
                         "_v": c})

    meds = exact_group_quantile(
        nds.map_batches(expand, batch_format="pyarrow"), "_k", "_v",
        q=0.5, out_col=out_col)

    active = grouped_count(
        nds.map_batches(lambda t: pa.table({"_k": pc.add(
            pc.multiply(t["_u"].combine_chunks(), M),
            t["_d"].combine_chunks())}), batch_format="pyarrow"),
        "_k", out_col="_a").drop_columns(["_a"])

    parts = _join_partitions()
    meds, _ = _coalesce_for_join(meds, parts)
    active, _ = _coalesce_for_join(active, parts)
    j = join_safe(meds, active, join_type="inner", num_partitions=parts,
                  on=("_k",))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["_k"].to_numpy(zero_copy_only=False)
        return pa.table({user_col: pa.array(k // M),
                         "_day": pa.array(k % M),
                         out_col: t[out_col]})

    return j.map_batches(unpack, batch_format="pyarrow")


def rolling_range_sum(ds: ray.data.Dataset, user_col: str, ts_col: str,
                      value_col: str, id_col: str, window_s: int,
                      out_col: str = "range_sum") -> ray.data.Dataset:
    """Per-event trailing VALUE-RANGE window sum — SQL ``SUM(v) OVER
    (PARTITION BY user ORDER BY s RANGE BETWEEN W PRECEDING AND CURRENT
    ROW)`` on second-floored timestamps: for each event, the sum of the
    SAME user's values with s_j in [s_i - W, s_i].  RANGE frames are
    value-based, so equal-timestamp peers are all included (no order
    tie-break exists or is needed).

    Ray shape — the event_cooccurrence composite-key trick: each event is
    a point at user*P + (s - s0) and an interval [point - W, point + 1)
    carrying its event id; ONE large-large bucketed range join co-locates
    every (window owner, contributor) pair, then a sort-based
    grouped_reduce sums per owner id (unbounded id cardinality).  Exact
    while (max_user+1)*P < 2**53 (guarded)."""
    from ray.data.aggregate import Max, Min

    from .groupagg import grouped_reduce
    from .relational import range_join_via_buckets

    def narrow(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"_u": t[user_col].cast(pa.int64()),
                         "_s": pa.array(ts // 1_000_000),
                         "_id": t[id_col].cast(pa.int64()),
                         "_c": t[value_col]})

    nds = ds.map_batches(narrow, batch_format="pyarrow").materialize()
    st = nds.aggregate(Min("_s", alias_name="s0"),
                       Max("_s", alias_name="s1"),
                       Max("_u", alias_name="u1"))
    if st["s0"] is None:
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            out_col: pa.array([], pa.int64())}))
    s0, span, u1 = int(st["s0"]), int(st["s1"]) - int(st["s0"]), int(st["u1"])
    P = 1 << int(span + window_s + 2).bit_length()
    if (u1 + 1) * P >= 2 ** 53:
        raise ValueError(
            f"rolling_range_sum: composite key (max_user+1)*P = "
            f"{(u1 + 1) * P} exceeds float64-exact range; shard by user")

    def to_point(t: pa.Table) -> pa.Table:
        u = t["_u"].to_numpy(zero_copy_only=False)
        s = t["_s"].to_numpy(zero_copy_only=False)
        return pa.table({"_v": pa.array(u * P + (s - s0)), "_c": t["_c"]})

    def to_interval(t: pa.Table) -> pa.Table:
        u = t["_u"].to_numpy(zero_copy_only=False)
        s = t["_s"].to_numpy(zero_copy_only=False)
        k = u * P + (s - s0)
        return pa.table({"_id": t["_id"],
                         "_lo": pa.array(k - window_s),
                         "_hi": pa.array(k + 1)})

    pts = nds.map_batches(to_point, batch_format="pyarrow")
    ivs = nds.map_batches(to_interval, batch_format="pyarrow")
    joined = range_join_via_buckets(pts, ivs, "_v", id_col="_id",
                                    lo_col="_lo", hi_col="_hi",
                                    bucket_width=float(window_s + 1))
    pairs = joined.map_batches(lambda t: t.select(["_id", "_c"]),
                               batch_format="pyarrow")
    out = grouped_reduce(pairs, "_id", {"_c": out_col}, how="sum")
    return out.map_batches(
        lambda t: t.rename_columns([id_col, out_col]),
        batch_format="pyarrow")


def merge_intervals(ds: ray.data.Dataset, group_col: str,
                    start_col: str, end_col: str, id_col: str
                    ) -> ray.data.Dataset:
    """Gaps-and-islands interval coalescing: merge overlapping-or-
    touching [start, end] intervals per group into islands, emitting one
    row per island: (group, island 1-based, start, end, n_intervals).
    Touching means next.start <= running max end (SQL `>` starts a new
    island only on a strict gap).

    Exactly the classic SQL window recipe, distributed: (1) exclusive
    running max of end per group (``group_running_max`` carry chain) —
    new-island flag = start > prevmax (first row always flags); (2)
    island id = running SUM of flags (``group_running_sum`` carry
    chain); (3) one grouped_reduce on (group, island) for the island
    extent.  Two range sorts over narrow rows + one bounded-key
    aggregate; no per-group Python anywhere.  Values must be rebased
    to < 2^53 (the float64 carry lane) — epoch-us inputs should
    subtract a corpus base first."""
    from .groupagg import grouped_reduce
    from .window import group_running_max, group_running_sum

    order = [start_col, end_col, id_col]
    pm = group_running_max(ds, group_col, order, end_col,
                           out_col="_pmax")

    def flag(t: pa.Table) -> pa.Table:
        pmax = t["_pmax"].to_numpy(zero_copy_only=False)
        s = t[start_col].to_numpy(zero_copy_only=False).astype(np.float64)
        f = (np.isnan(pmax) | (s > pmax)).astype(np.int64)
        return t.append_column("_flag", pa.array(f))

    fl = pm.map_batches(flag, batch_format="pyarrow")
    isl = group_running_sum(fl, group_col, order, "_flag",
                            out_col="_island")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            group_col: t[group_col],
            "island": pa.array(t["_island"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            start_col: t[start_col], end_col: t[end_col],
            "n_intervals": pa.array(np.ones(t.num_rows, np.int64))})

    agg = grouped_reduce(
        isl.map_batches(project, batch_format="pyarrow"),
        [group_col, "island"],
        {start_col: start_col, end_col: end_col,
         "n_intervals": "n_intervals"},
        how={start_col: "min", end_col: "max", "n_intervals": "sum"})
    return agg
