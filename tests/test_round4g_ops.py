"""Round-4g operator tests: bigram-LM quality scoring and the four
TPC-H closing shapes' kernels (packed argmin, exact share threshold)."""

import math

import numpy as np
import pandas as pd
import pytest
import ray.data


def _brute_lm(texts):
    """Reference add-one bigram LM self-scoring (pure python)."""
    toks = [t.split(" ") for t in texts]
    vocab = {w for ws in toks for w in ws}
    from collections import Counter
    bi = Counter((ws[i], ws[i + 1]) for ws in toks
                 for i in range(len(ws) - 1))
    cp = Counter()
    for (w1, _), c in bi.items():
        cp[w1] += c
    nll = {g: round(math.log((cp[g[0]] + len(vocab)) / (c + 1)) * 1e6)
           for g, c in bi.items()}
    out = []
    for di, ws in enumerate(toks):
        grams = [(ws[i], ws[i + 1]) for i in range(len(ws) - 1)]
        if grams:
            out.append({"doc_id": di, "n_bigrams": len(grams),
                        "nll_sum_e6": sum(nll[g] for g in grams)})
    return pd.DataFrame(out)


def test_bigram_lm_matches_bruteforce():
    from dggrid4py_ray.stages.text import bigram_lm_score

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [" ".join(rng.choice(words, rng.integers(2, 30)))
             for _ in range(200)]
    texts += ["solo"]          # 1-token doc: no bigram evidence, omitted
    texts += ["alpha alpha"]   # repeated-token bigram
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ).repartition(9)
    out = (bigram_lm_score(ds).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    ref = _brute_lm(texts)
    np.testing.assert_array_equal(out["doc_id"], ref["doc_id"])
    np.testing.assert_array_equal(out["n_bigrams"], ref["n_bigrams"])
    np.testing.assert_array_equal(out["nll_sum_e6"], ref["nll_sum_e6"])
    assert 200 not in set(out["doc_id"])  # the solo doc is omitted


def test_bigram_lm_parallelism_invariant():
    from dggrid4py_ray.stages.text import bigram_lm_score

    rng = np.random.default_rng(11)
    words = ["a", "b", "c", "d"]
    texts = [" ".join(rng.choice(words, rng.integers(2, 12)))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    outs = []
    for parts in (1, 13):
        ds = ray.data.from_pandas(df).repartition(parts)
        outs.append(bigram_lm_score(ds).to_pandas()
                    .sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_bigram_lm_nul_token_no_collision():
    """A literal \\x00 token must not collide with the unigram tag rows
    (review finding: the old in-band sentinel corrupted counts)."""
    from dggrid4py_ray.stages.text import bigram_lm_score

    texts = ["a \x00 b", "a b a b", "\x00 \x00"]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [0, 1, 2], "text": texts}))
    out = (bigram_lm_score(ds).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    ref = _brute_lm(texts)
    np.testing.assert_array_equal(out["nll_sum_e6"], ref["nll_sum_e6"])


def test_pivot_counts_ignores_out_of_set_keys():
    from dggrid4py_ray.stages.relational import pivot_counts

    df = pd.DataFrame({"k": [1, 1, 2, 3], "c": ["x", "y", "y", "z"]})
    out = (pivot_counts(ray.data.from_pandas(df).repartition(2),
                        "k", "c", ["x", "y"], prefix="")
           .to_pandas().sort_values("k", ignore_index=True))
    # key 3 has only out-of-set rows -> no all-zero row
    assert list(out["k"]) == [1, 2]
    assert list(out["x"]) == [1, 0] and list(out["y"]) == [1, 1]


def test_grouped_reduce_presorted_matches_sorted():
    from dggrid4py_ray.stages.groupagg import grouped_reduce

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 50, 4000),
                       "v": rng.integers(0, 1000, 4000).astype(np.int64)})
    srt = df.sort_values(["g", "v"], ignore_index=True)
    ds = ray.data.from_pandas(srt).repartition(11)   # loses order
    # re-sort inside Ray so blocks tile the (g, v) order, then fold
    # presorted on the sorted dataset
    out = (grouped_reduce(ds.sort(["g", "v"]), "g",
                          {"v": "mx"}, how="max", presorted=True)
           .to_pandas().sort_values("g", ignore_index=True))
    ref = df.groupby("g")["v"].max().reset_index(name="mx")
    np.testing.assert_array_equal(out["g"], ref["g"])
    np.testing.assert_array_equal(out["mx"], ref["mx"])


def test_grouped_reduce_skewed_keys_land_in_one_block(ray_session):
    """The sort path reduces each sorted block to final rows, which holds
    only if Ray's range sort puts every row of a key into one block.  A
    hot key filling most of every input block is the case most likely to
    break that: every key must come out exactly once, equal to pandas,
    and in non-decreasing order across the output blocks."""
    from dggrid4py_ray.stages.groupagg import grouped_reduce

    rng = np.random.default_rng(17)
    frames, nxt = [], 1
    for _ in range(48):
        hot = np.zeros(150, np.int64)
        uniq = np.arange(nxt, nxt + 50, dtype=np.int64)
        nxt += 50
        k = np.concatenate([hot, uniq])
        v = rng.integers(-1000, 1000, len(k)).astype(np.int64)
        frames.append(pd.DataFrame({"k": rng.permutation(k), "v": v,
                                    "w": v}))
    df = pd.concat(frames, ignore_index=True)
    ds = ray.data.from_pandas(frames)
    assert ds.num_blocks() >= 40

    ctx = ray.data.DataContext.get_current()
    before = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        out = grouped_reduce(ds, "k", {"v": "s", "w": "lo"},
                             how={"v": "sum", "w": "min"})
        blocks = [b["k"].to_numpy() for b in
                  out.iter_batches(batch_size=None, batch_format="pyarrow")
                  if b.num_rows]
    finally:
        ctx.execution_options.preserve_order = before
    keys = np.concatenate(blocks)
    assert len(blocks) > 1
    assert len(keys) == len(np.unique(keys)) == df["k"].nunique()
    assert bool((np.diff(keys) > 0).all())

    got = out.to_pandas().sort_values("k", ignore_index=True)
    ref = (df.groupby("k").agg(s=("v", "sum"), lo=("w", "min"))
           .reset_index())
    np.testing.assert_array_equal(got["k"], ref["k"])
    np.testing.assert_array_equal(got["s"], ref["s"])
    np.testing.assert_array_equal(got["lo"], ref["lo"])


def test_group_ewma_matches_sequential_scan():
    from dggrid4py_ray.stages.window import group_ewma

    rng = np.random.default_rng(5)
    n = 3000
    df = pd.DataFrame({"g": rng.integers(0, 80, n),
                       "o": np.arange(n),
                       "v": rng.normal(0, 10, n)})
    out = (group_ewma(ray.data.from_pandas(df).repartition(9),
                      "g", ["o"], "v", alpha=0.25)
           .to_pandas().sort_values("g", ignore_index=True))

    def seq(vals, a=0.25):
        y = vals[0]
        for v in vals[1:]:
            y = a * v + (1 - a) * y
        return y

    ref = (df.sort_values(["g", "o"]).groupby("g")["v"]
           .apply(lambda s: seq(s.to_numpy())).reset_index(name="ewma"))
    np.testing.assert_allclose(out["ewma"], ref["ewma"], rtol=1e-9)


def test_cell_area_laws():
    """Equal-area laws over measured spherical cell areas: whole-earth
    closure, 12 identical pentagons, hex mean vs the closed form
    4*pi*R^2/(10*7^r), and aperture-7 scaling between resolutions."""
    from dggrid4py_ray.dggs import igeo7 as ig
    from dggrid4py_ray.dggs.igeo7 import IGeo7Grid
    from dggrid4py_ray.dggs.sphere import ring_solid_angle

    g = IGeo7Grid()
    means = {}
    for res in (2, 3):
        n = ig.num_cells(res)
        z = g.from_seqnum(np.arange(1, n + 1), res)
        sr = ring_solid_angle(g.boundary(z))
        # whole-earth closure (great-circle edge discretization ~3e-4)
        assert abs(sr.sum() / (4 * np.pi) - 1.0) < 1e-3
        # pentagon count and exact mutual equality (symmetric boundary)
        pent = np.sort(sr)[:12]
        assert pent.max() - pent.min() < 1e-9 * pent.mean()
        hexes = np.sort(sr)[12:]
        assert hexes.min() > pent.max()        # pentagons are smallest
        # hex mean vs closed form
        closed = 4 * np.pi / (10 * 7 ** res)
        assert abs(hexes.mean() / closed - 1.0) < 2e-3
        means[res] = sr.mean()
    # aperture-7: mean cell area shrinks 7x per resolution (cell-count
    # law exact: (10*7^2+2)/(10*7^3+2) adjusted)
    ratio = means[2] / means[3]
    expect = ig.num_cells(3) / ig.num_cells(2)
    # the great-circle discretization error is resolution-dependent
    # (coarser cells curve more), so the cross-res ratio carries the
    # res-2 closure error (~1.2e-3), not the per-res one
    assert abs(ratio / expect - 1.0) < 3e-3


def test_cell_area_kernel_units():
    from dggrid4py_ray.config import dgselect
    from dggrid4py_ray.stages.encode import CellAreaKernel
    from dggrid4py_ray.dggs.igeo7 import IGeo7Grid
    import pyarrow as pa

    g = IGeo7Grid()
    z = g.from_seqnum(np.arange(1, 43), 1)
    t = pa.table({"cell_id": pa.array(z, pa.int64())})
    dggs = dgselect("IGEO7", resolution=1)
    sr = CellAreaKernel(dggs, out_col="a", unit="sr")(t)["a"].to_numpy()
    km2 = CellAreaKernel(dggs, out_col="a", unit="km2")(t)["a"].to_numpy()
    m2 = CellAreaKernel(dggs, out_col="a", unit="m2")(t)["a"].to_numpy()
    np.testing.assert_allclose(m2, km2 * 1e6, rtol=1e-12)
    assert (km2 / sr > 4.05e7).all() and (km2 / sr < 4.06e7).all()  # R^2
    with pytest.raises(ValueError):
        CellAreaKernel(dgselect("IGEO7", resolution=1), unit="acres")


def test_group_fill_forward_matches_pandas_ffill():
    from dggrid4py_ray.stages.window import group_fill_forward

    rng = np.random.default_rng(9)
    n = 4000
    df = pd.DataFrame({"g": rng.integers(0, 60, n),
                       "o": np.arange(n),
                       "v": rng.normal(0, 5, n)})
    df.loc[rng.random(n) < 0.55, "v"] = np.nan       # lots of gaps
    out = (group_fill_forward(ray.data.from_pandas(df).repartition(13),
                              "g", ["o"], "v", out_col="f")
           .to_pandas().sort_values(["g", "o"], ignore_index=True))
    ref = df.sort_values(["g", "o"], ignore_index=True)
    ref["f"] = ref.groupby("g")["v"].ffill()
    np.testing.assert_allclose(out["f"], ref["f"], rtol=0, atol=0,
                               equal_nan=True)


def test_group_fill_forward_all_null_group_and_block_spans():
    from dggrid4py_ray.stages.window import group_fill_forward

    # group 0: value only at the very start, then a long null run that
    # spans many blocks (exercises the carry-through); group 1 all-null
    df = pd.DataFrame({
        "g": [0] * 500 + [1] * 100,
        "o": list(range(500)) + list(range(100)),
        "v": [7.5] + [np.nan] * 499 + [np.nan] * 100})
    out = (group_fill_forward(ray.data.from_pandas(df).repartition(17),
                              "g", ["o"], "v")
           .to_pandas().sort_values(["g", "o"], ignore_index=True))
    g0 = out[out.g == 0]["v"].to_numpy()
    np.testing.assert_allclose(g0, 7.5)
    assert out[out.g == 1]["v"].isna().all()


def test_source_gram_overlap_matches_bruteforce():
    from dggrid4py_ray.stages.text import source_gram_overlap

    rng = np.random.default_rng(21)
    words = ["w%d" % i for i in range(12)]
    rows = []
    for i in range(120):
        src = ["s1", "s2", "s3"][i % 3]
        rows.append({"doc_id": i, "source": src,
                     "text": " ".join(rng.choice(words,
                                                 rng.integers(3, 15)))})
    df = pd.DataFrame(rows)
    out = source_gram_overlap(
        ray.data.from_pandas(df).repartition(7), n=3).to_pandas()

    def gramset(sub):
        s = set()
        for t in sub["text"]:
            ws = t.split(" ")
            s.update(tuple(ws[i:i + 3]) for i in range(len(ws) - 2))
        return s

    sets = {s: gramset(df[df.source == s]) for s in ["s1", "s2", "s3"]}
    for _, r in out.iterrows():
        a, b = sets[r["source_a"]], sets[r["source_b"]]
        assert r["shared_grams"] == len(a & b)
        assert r["union_grams"] == len(a | b)
        assert r["jaccard_e6"] == int(np.floor(
            len(a & b) / len(a | b) * 1e6 + 0.5))
    assert len(out) == 3


def test_normalized_dedup_nfc_case_whitespace():
    from dggrid4py_ray.stages.normalize import normalized_dedup

    texts = ["Caf\u00e9  au lait",            # composed e-acute, 2 spaces
             "cafe\u0301 au lait ",           # NFD decomposed + trail
             "CAFE\u0301 AU LAIT",            # upper decomposed
             "totally different"]
    assert "\u00e9" not in texts[1]           # really decomposed
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [10, 11, 12, 13], "text": texts}))
    out = normalized_dedup(ds).to_pandas()
    assert len(out) == 2                      # 3 variants merge to one
    assert set(out["keep_id"]) == {10, 13}


def test_group_fill_forward_unfilled_rows_are_real_nulls():
    """Review finding: rows before a group's first observation must be
    Arrow NULLs (the LAST_VALUE IGNORE NULLS contract), not NaN values."""
    import pyarrow.compute as pc
    from dggrid4py_ray.stages.window import group_fill_forward

    df = pd.DataFrame({"g": [0, 0, 0], "o": [0, 1, 2],
                       "v": [np.nan, 5.0, np.nan]})
    out = group_fill_forward(ray.data.from_pandas(df), "g", ["o"], "v",
                             out_col="f")
    tbl = out.take_batch(10, batch_format="pyarrow")
    assert pc.sum(pc.is_null(tbl["f"]).cast("int64")).as_py() == 1
    vals = tbl.to_pandas().sort_values("o")["f"].tolist()
    assert pd.isna(vals[0]) and vals[1] == 5.0 and vals[2] == 5.0


def test_normalize_trim_matches_sql_trim_char_set():
    """Review finding: Arrow utf8_trim_whitespace strips more characters
    (VT/NEL/LS/PS) than SQL trim(); the key must strip ASCII space only
    so both engines produce identical bytes on exotic whitespace."""
    from dggrid4py_ray.stages.normalize import normalize_text_column
    import duckdb

    texts = ["a\x0b", "  padded  ", " line ", "x\x85"]
    ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
    eng = (normalize_text_column(ds).to_pandas()["text_norm"].tolist())
    con = duckdb.connect()
    sql = [con.execute(
        "SELECT trim(regexp_replace(lower(nfc_normalize(?)),"
        " '\\s+', ' ', 'g'))", [t]).fetchone()[0] for t in texts]
    assert eng == sql
