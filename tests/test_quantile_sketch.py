"""Mergeable deterministic quantile sketch (stages/quantile_sketch.py)."""

import numpy as np
import pandas as pd


def _rank_err(v, est, q):
    sv = np.sort(v)
    return abs(np.searchsorted(sv, est, side="right") - q * len(v)) / len(v)


def test_sketch_exact_regime(ray_session):
    import ray.data
    from dggrid4py_ray.stages.quantile_sketch import (quantile_sketch,
                                                      sketch_quantiles)
    rng = np.random.default_rng(1)
    v = rng.normal(0, 10, 4000)
    ds = ray.data.from_pandas(pd.DataFrame({"v": v})).repartition(5)
    sk = quantile_sketch(ds, "v", k=5000)       # k >= n: no compaction
    for q in (0.25, 0.5, 0.9):
        est = sketch_quantiles(sk, [q])[0]
        want = np.sort(v)[int(np.ceil(q * len(v))) - 1]  # quantile_disc
        assert est == want


def test_sketch_approx_error_bounded(ray_session):
    import ray.data
    from dggrid4py_ray.stages.quantile_sketch import (quantile_sketch,
                                                      sketch_quantiles)
    rng = np.random.default_rng(2)
    v = rng.lognormal(0, 2, 120_000)            # heavy tail
    ds = ray.data.from_pandas(pd.DataFrame({"v": v})).repartition(8)
    sk = quantile_sketch(ds, "v", k=256)
    qs = [0.1, 0.5, 0.9, 0.99]
    est = sketch_quantiles(sk, qs)
    for q, e in zip(qs, est):
        assert _rank_err(v, e, q) < 0.01, q     # <=1% rank error at k=256

    # deterministic: same data + plan => identical sketch read
    sk2 = quantile_sketch(ds, "v", k=256)
    assert (sketch_quantiles(sk2, qs) == est).all()


def test_sketch_ignores_nulls(ray_session):
    import ray.data
    from dggrid4py_ray.stages.quantile_sketch import (quantile_sketch,
                                                      sketch_quantiles)
    df = pd.DataFrame({"v": [1.0, None, 2.0, None, 3.0, 4.0, 5.0]})
    ds = ray.data.from_pandas(df)
    sk = quantile_sketch(ds, "v", k=100)
    est = sketch_quantiles(sk, [0.5, 1.0])
    assert list(est) == [3.0, 5.0]                # quantile_disc over non-NULL


def test_sketch_merge_order_independent():
    """Partials merged in any arrival order give the same sketch: the
    merge is not associative, so it must run in a canonical order."""
    from dggrid4py_ray.stages.quantile_sketch import (_add, _merge_all, _new,
                                                      _serialize,
                                                      sketch_quantiles)
    rng = np.random.default_rng(4)
    k = 64
    parts = []
    for chunk in np.array_split(rng.lognormal(0, 2, 20_000), 24):
        sk = _new()
        _add(sk, chunk, k)
        parts.append(_serialize(sk))
    qs = np.linspace(0.01, 0.99, 25)
    reads = []
    for seed in (0, 1):
        order = np.random.default_rng(seed).permutation(len(parts))
        reads.append(sketch_quantiles(_merge_all([parts[i] for i in order],
                                                 k), qs))
    np.testing.assert_array_equal(reads[0], reads[1])
