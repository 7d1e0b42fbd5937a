"""Bloom semi-join pruning (stages/bloom.py)."""

import numpy as np
import pandas as pd
import pytest
import ray


def _ds(df):
    import ray.data
    return ray.data.from_pandas(df).repartition(4)


def test_bloom_no_false_negatives_and_prunes(ray_session):
    from dggrid4py_ray.stages.bloom import build_bloom, bloom_prune
    keys = _ds(pd.DataFrame({"k": np.arange(0, 1000, 7)}))   # 143 members
    big = _ds(pd.DataFrame({"k": np.arange(5000), "x": np.arange(5000.)}))
    nb = 1 << 14
    bloom = ray.put(build_bloom(keys, "k", num_bits=nb))
    kept = bloom_prune(big, "k", bloom, nb).to_pandas()
    members = set(range(0, 1000, 7))
    # zero false negatives
    assert members <= set(kept["k"])
    # real pruning: survivors ~ members + small fp tail, not the whole table
    assert len(kept) < 400


def test_bloom_semi_join_exact(ray_session):
    from dggrid4py_ray.stages.bloom import bloom_semi_join
    keys = _ds(pd.DataFrame({"id": np.arange(0, 2000, 13)}))
    big = _ds(pd.DataFrame({"id": np.tile(np.arange(700), 3),
                            "v": np.arange(2100.)}))
    out = bloom_semi_join(big, keys, "id", "id",
                          num_bits=1 << 12).to_pandas()
    want = big.to_pandas()
    want = want[want["id"].isin(set(range(0, 2000, 13)))]
    assert sorted(out["v"]) == sorted(want["v"])


def test_bloom_rejects_non_pow2(ray_session):
    from dggrid4py_ray.stages.bloom import build_bloom
    with pytest.raises(ValueError):
        build_bloom(_ds(pd.DataFrame({"k": [1]})), "k", num_bits=1000)


def test_bloom_anti_join_exact_even_with_tiny_filter(ray_session):
    """num_bits=64 forces a huge false-positive rate; the left_anti join
    must readmit every false positive so the result is still exact."""
    import numpy as np
    import pandas as pd
    from dggrid4py_ray.stages.bloom import bloom_anti_join

    rng = np.random.default_rng(8)
    big = pd.DataFrame({"k": rng.integers(0, 1000, 5000),
                        "v": np.arange(5000)})
    keys = pd.DataFrame({"k": np.arange(0, 1000, 3)})   # every 3rd key
    out = bloom_anti_join(
        ray_session.data.from_pandas(big).repartition(5),
        ray_session.data.from_pandas(keys).repartition(2),
        "k", num_bits=64, num_hashes=2).to_pandas()
    want = big[~big["k"].isin(set(keys["k"]))]
    assert sorted(out["v"].tolist()) == sorted(want["v"].tolist())


def test_bloom_anti_join_disjoint_sides(ray_session):
    import numpy as np
    import pandas as pd
    from dggrid4py_ray.stages.bloom import bloom_anti_join

    big = pd.DataFrame({"k": np.arange(100), "v": np.arange(100)})
    keys = pd.DataFrame({"k": np.arange(1000, 1100)})
    out = bloom_anti_join(
        ray_session.data.from_pandas(big).repartition(3),
        ray_session.data.from_pandas(keys).repartition(2), "k").to_pandas()
    assert sorted(out["v"].tolist()) == list(range(100))


@pytest.mark.parametrize("join", ["semi", "anti"])
def test_bloom_join_runs_lazy_key_side_once(ray_session, tmp_path, join):
    """The key side feeds the Bloom build and the join; a lazy key side
    must execute its lineage once (one UDF call per input block)."""
    import ray.data
    from dggrid4py_ray.stages.bloom import bloom_anti_join, bloom_semi_join
    log = str(tmp_path / "calls.log")

    def tap(df):
        with open(log, "a") as f:
            f.write("call\n")
        return df

    blocks = [pd.DataFrame({"id": np.arange(i, 300, 3)}) for i in range(3)]
    keys = ray.data.from_pandas(blocks).map_batches(
        tap, batch_format="pandas", batch_size=None)
    big = _ds(pd.DataFrame({"id": np.arange(600), "v": np.arange(600.)}))
    fn = bloom_semi_join if join == "semi" else bloom_anti_join
    out = fn(big, keys, "id", num_bits=1 << 12).to_pandas()
    assert len(out) == 300
    with open(log) as f:
        assert len(f.read().splitlines()) == len(blocks)
