"""Distributed PageRank (power iteration) over an edge-list Dataset.

The canonical web-scale iterative workload, Ray-Data-shaped:
- The edge list (the 100-TB side) is JOINED, never collected: each
  iteration is one hash join (ranks onto edges by source) + one
  ``grouped_reduce`` sum by destination — the two exchanges every
  distributed PageRank pays (Pregel/GraphX shape).
- Per-edge weights (1/outdegree, times multiplicity for multigraph
  edges) are precomputed ONCE and materialized, so iterations ship only
  (node, rank) and (node, contribution) rows — node-sized, not
  edge-sized, tables through the aggregate.
- Ranks live in a Dataset keyed by node (node-sized — fine to shuffle,
  never driver-collected except by the caller on answer-sized output).

Semantics: the SIMPLE power iteration r' = (1-d)/N + d * sum_in r/deg —
no dangling-mass redistribution (documented; dangling nodes leak their
mass, exactly like the plain SQL formulation, which is what makes every
iteration DuckDB-oracle-able).  Deterministic float64 at any
parallelism up to float summation order (~1e-15 relative).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from .groupagg import grouped_reduce
from .join import join_safe


def _join_parts():
    from .dedup import _join_partitions
    return _join_partitions()


def _distinct_nodes(edges: ray.data.Dataset, u_col: str,
                    v_col: str) -> ray.data.Dataset:
    both = edges.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays(
            [t[u_col].combine_chunks().cast(pa.int64()),
             t[v_col].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow")
    ones = both.map_batches(
        lambda t: t.append_column("_one", pa.array(
            np.ones(t.num_rows, dtype=np.int64))), batch_format="pyarrow")
    return grouped_reduce(ones, key="node", col_map={"_one": "_n"},
                          how="sum").drop_columns(["_n"])


def pagerank(edges: ray.data.Dataset, iters: int = 2, d: float = 0.85,
             u_col: str = "u", v_col: str = "v",
             num_partitions: int | None = None,
             broadcast_ranks: bool | None = None) -> ray.data.Dataset:
    """Ranks after ``iters`` power iterations from the uniform start.
    Returns a Dataset (node, rank).  Duplicate (u, v) rows count with
    multiplicity (multigraph), matching a plain SQL edge-join oracle.

    Two iteration engines, auto-selected on node count:
    - **broadcast** (n_nodes <= 5M, ~40 MB of rank state): the rank
      vector rides the object store via ``ray.put`` and each iteration
      is ONE wide op (edge-contribution ``grouped_reduce``) — no hash
      join at all.  Measured ~10x faster than the join path at 10M
      edges / 1M nodes on the dev box.
    - **join** (web-scale node counts): rank state stays a Dataset;
      each iteration pays the ranks-onto-edges hash join + reduce (the
      Pregel shape).  Force with ``broadcast_ranks=False``."""
    parts = num_partitions or _join_parts()

    nodes = _distinct_nodes(edges, u_col, v_col) \
        .repartition(max(2, parts // 4)).materialize()
    n_nodes = nodes.count()

    # per-edge weight = multiplicity / outdeg(u): fold duplicates first so
    # iterations join against the smallest possible edge table
    epairs = edges.map_batches(
        lambda t: pa.table({"u": t[u_col].combine_chunks().cast(pa.int64()),
                            "v": t[v_col].combine_chunks().cast(pa.int64()),
                            "_m": pa.array(np.ones(t.num_rows,
                                                   dtype=np.int64))}),
        batch_format="pyarrow")
    # NOTE: grouped_reduce output (and any 0-row map output on this Ray
    # version) can contain zero-COLUMN empty blocks, which the Arrow hash
    # join rejects ("no match for FieldRef"); repartition concatenates
    # them away.  One extra exchange over the deduped edge table, paid
    # once before the iteration loop.
    emult = grouped_reduce(epairs, key=["u", "v"], col_map={"_m": "_m"},
                           how="sum").repartition(parts)
    deg = grouped_reduce(
        epairs.map_batches(lambda t: t.select(["u", "_m"]),
                           batch_format="pyarrow"),
        key="u", col_map={"_m": "_deg"}, how="sum")
    ew = join_safe(emult, deg.repartition(max(2, parts // 4)),
                    join_type="inner", num_partitions=parts, on=("u",))
    ew = ew.map_batches(
        lambda t: pa.table({
            "u": t["u"], "v": t["v"],
            "w": pa.array(t["_m"].to_numpy(zero_copy_only=False)
                          / t["_deg"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow").repartition(parts).materialize()

    if n_nodes == 0:
        raise ValueError("pagerank: empty edge list")
    base = (1.0 - d) / n_nodes
    if broadcast_ranks is None:
        broadcast_ranks = n_nodes <= 5_000_000
    if broadcast_ranks:
        return _pagerank_broadcast(ew, nodes, n_nodes, iters, d, base)

    ranks = nodes.map_batches(
        lambda t: t.append_column("rank", pa.array(
            np.full(t.num_rows, 1.0 / n_nodes))), batch_format="pyarrow") \
        .materialize()

    for _ in range(iters):
        contrib = join_safe(ew, ranks.repartition(max(2, parts // 4)),
                          join_type="inner", num_partitions=parts,
                          on=("u",), right_on=("node",))
        contrib = contrib.map_batches(
            lambda t: pa.table({
                "node": t["v"],
                "c": pa.array(t["w"].to_numpy(zero_copy_only=False)
                              * t["rank"].to_numpy(zero_copy_only=False))}),
            batch_format="pyarrow")
        summed = grouped_reduce(contrib, key="node", col_map={"c": "c"},
                                how="sum")
        # nodes with no in-edges keep only the base term
        joined = join_safe(nodes, summed.repartition(max(2, parts // 4)),
                            join_type="left_outer", num_partitions=parts,
                            on=("node",))
        ranks = joined.map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "rank": pa.array(base + d * np.nan_to_num(
                    t["c"].to_numpy(zero_copy_only=False), nan=0.0))}),
            batch_format="pyarrow").materialize()
    return ranks


def _pagerank_broadcast(ew: ray.data.Dataset, nodes: ray.data.Dataset,
                        n_nodes: int, iters: int, d: float,
                        base: float) -> ray.data.Dataset:
    """Bounded-node-count engine: sorted node-id array + rank vector
    broadcast per iteration; ONE grouped_reduce per iteration."""
    import ray as _ray

    node_ids = np.sort(nodes.to_pandas()["node"].to_numpy()
                       .astype(np.int64))
    r = np.full(n_nodes, 1.0 / n_nodes)

    for _ in range(iters):
        ref = _ray.put(r)

        def contrib(t: pa.Table, _ids=node_ids, _ref=ref) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.float64())})
            rv = _ray.get(_ref)
            u = t["u"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(_ids, u)
            w = t["w"].to_numpy(zero_copy_only=False)
            return pa.table({"node": t["v"],
                             "c": pa.array(w * rv[idx])})

        summed = grouped_reduce(ew.map_batches(contrib,
                                               batch_format="pyarrow"),
                                key="node", col_map={"c": "c"},
                                how="sum").to_pandas()
        r = np.full(n_nodes, base)
        pos = np.searchsorted(node_ids, summed["node"].to_numpy()
                              .astype(np.int64))
        r[pos] += d * summed["c"].to_numpy()

    return ray.data.from_arrow(pa.table({"node": pa.array(node_ids),
                                         "rank": pa.array(r)}))


def triangle_count_per_vertex(edges: ray.data.Dataset, u_col: str = "u",
                              v_col: str = "v", order: str = "id",
                              degree_cap: int = 50_000_000) -> ray.data.Dataset:
    """Distributed triangle counting (node-iterator with edge
    orientation): orient every undirected edge along a total vertex
    order, build directed wedges with ONE self hash join on the apex,
    close them with ONE more hash join on the (b, c) pair — each
    triangle is counted exactly once, at its order-lowest vertex.
    Output: (apex vertex, n_triangles).

    ``order="id"`` uses the vertex id order (SQL-reproducible: apex =
    numeric-lowest vertex).  ``order="degree"`` orients low-degree ->
    high-degree (ties by id), the classic bound that caps every out-list
    at O(sqrt(m)) so wedge fan-out on skewed graphs (stars, celebrities)
    stays O(m^1.5) instead of O(sum d^2) — same total count, different
    apex attribution.  Degrees are broadcast (one int per vertex,
    ``degree_cap`` guards the driver); beyond the cap, orient via two
    hash joins of a degree table instead.

    Input edges need not be deduplicated or oriented; (u, v) with
    u == v is dropped."""
    import pandas as pd
    import ray

    parts = _join_parts()

    def canon(t: pa.Table) -> pa.Table:
        a = t[u_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[v_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        df = pd.DataFrame({"_u": np.minimum(a, b), "_v": np.maximum(a, b),
                           "_one": np.int64(1)}).drop_duplicates(["_u", "_v"])
        return pa.Table.from_pandas(df, preserve_index=False)

    ded = grouped_reduce(edges.map_batches(canon, batch_format="pyarrow"),
                         ["_u", "_v"], {"_one": "_one"}, how="max") \
        .drop_columns(["_one"]).materialize()

    if order == "degree":
        def explode(t: pa.Table) -> pa.Table:
            u = t["_u"].to_numpy(zero_copy_only=False)
            v = t["_v"].to_numpy(zero_copy_only=False)
            df = pd.DataFrame({"_n": np.concatenate([u, v]),
                               "_one": np.int64(1)})
            g = df.groupby("_n", sort=False)["_one"].sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        deg = grouped_reduce(ded.map_batches(explode, batch_format="pyarrow"),
                             "_n", {"_one": "_d"}, how="sum").to_pandas()
        if len(deg) > degree_cap:
            raise ValueError(
                f"triangle_count_per_vertex: {len(deg)} vertices exceeds "
                f"degree_cap={degree_cap} for the broadcast orientation; "
                "orient via a degree-table join instead")
        dref = ray.put(pd.Series(deg["_d"].to_numpy(np.int64),
                                 index=deg["_n"].to_numpy()))

        def orient(t: pa.Table) -> pa.Table:
            dmap = ray.get(dref)
            u = t["_u"].to_numpy(zero_copy_only=False)
            v = t["_v"].to_numpy(zero_copy_only=False)
            du = pd.Series(u).map(dmap).to_numpy(np.int64)
            dv = pd.Series(v).map(dmap).to_numpy(np.int64)
            fwd = (du < dv) | ((du == dv) & (u < v))
            return pa.table({"_a": pa.array(np.where(fwd, u, v)),
                             "_b": pa.array(np.where(fwd, v, u))})

        orc = ded.map_batches(orient, batch_format="pyarrow")
    else:
        orc = ded.map_batches(
            lambda t: pa.table({"_a": t["_u"], "_b": t["_v"]}),
            batch_format="pyarrow")
    orc = orc.repartition(parts).materialize()

    # wedges at each apex: self join on _a; keep (b, c) with b < c in the
    # SAME total order the orientation used (id order after orientation:
    # for "degree" the out-list order is (deg,id), but any consistent
    # local order works because both wedge legs share the apex — use the
    # oriented edge set itself for closure, so b -> c must exist oriented)
    left = orc.map_batches(
        lambda t: pa.table({"_a": t["_a"], "_b1": t["_b"]}),
        batch_format="pyarrow")
    right = orc.map_batches(
        lambda t: pa.table({"_a": t["_a"], "_b2": t["_b"]}),
        batch_format="pyarrow")
    wedges = join_safe(left, right, join_type="inner", num_partitions=parts,
                       on=("_a",))

    def keep_ordered(t: pa.Table) -> pa.Table:
        # the self join emits each unordered out-pair twice ((b1,b2) and
        # (b2,b1), possibly in different blocks) — keep b1 < b2 so every
        # wedge survives exactly once, already in the id-canonical
        # orientation the undirected closure set uses
        b1 = t["_b1"].to_numpy(zero_copy_only=False)
        b2 = t["_b2"].to_numpy(zero_copy_only=False)
        keep = b1 < b2
        return pa.table({
            "_apex": pa.array(t["_a"].to_numpy(
                zero_copy_only=False)[keep]),
            "_x": pa.array(b1[keep]), "_y": pa.array(b2[keep])})

    w = wedges.map_batches(keep_ordered, batch_format="pyarrow")
    # closure: the oriented edge set contains (x -> y) for x lower in the
    # total order; for degree order the closing edge may be stored as
    # (y -> x), so probe the UNDIRECTED canonical set `ded` (_u < _v by id)
    closing = ded.map_batches(
        lambda t: pa.table({"_x": t["_u"], "_y": t["_v"]}),
        batch_format="pyarrow").repartition(parts)
    tri = join_safe(w, closing, join_type="inner", num_partitions=parts,
                 on=("_x", "_y"))

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": t["_apex"],
                         "_one": pa.array(np.ones(t.num_rows, np.int64))})

    return grouped_reduce(tri.map_batches(ones, batch_format="pyarrow"),
                          "vertex", {"_one": "n_triangles"}, how="sum")


def bfs_shortest_hops(edges: ray.data.Dataset, sources,
                      max_hops: int = 8, src_col: str = "src",
                      dst_col: str = "dst",
                      broadcast_threshold: int = 2_000_000
                      ) -> ray.data.Dataset:
    """Multi-source BFS shortest hop count over a directed edge Dataset:
    (node, hop) for every node reachable from ``sources`` within
    ``max_hops`` edges, hop = MINIMUM #edges (the iterative-frontier
    traversal the Dataset API has no primitive for — expressed as a
    driver loop of per-iteration narrow passes).

    Ray shape per iteration (edge table streams, never shuffles):
      1. SEMI-filter edges on src in frontier: frontier broadcast once via
         ray.put + vectorized ``pc.is_in`` when it fits
         ``broadcast_threshold``, else bloom_semi_join (large-frontier
         path — bloom-prune + exact hash semi-join).
      2. distinct new dst minus already-visited: broadcast anti filter in
         the small regime, bloom_anti_join in the large.
      3. visited accumulates (node, hop) — answer-sized (one row per
         reached node); the loop stops at an empty frontier or max_hops.

    Frontier/visited sets ride the object store as Arrow tables in the
    small regime; the large regime keeps them as Datasets end to end.
    Works on cyclic graphs (visited pruning guarantees each node is
    frontier-expanded at most once, so total work is O(E_reached)).
    """
    import pyarrow.compute as pc

    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    if not len(frontier):
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "hop": pa.array([], pa.int64())}))
    reached = [(frontier, 0)]
    visited = frontier
    small = len(visited) <= broadcast_threshold

    frontier_ds = None
    visited_ds = None
    if not small:  # source set alone exceeds the broadcast regime
        visited_ds = ray.data.from_arrow(pa.table(
            {"node": pa.array(visited, pa.int64())}))
        frontier_ds = visited_ds
    for hop in range(1, max_hops + 1):
        if small:
            fref = ray.put(frontier)
            vref = ray.put(visited)

            def expand(t: pa.Table, _f=fref, _v=vref) -> pa.Table:
                fr = ray.get(_f)
                hit = pc.is_in(t[src_col],
                               value_set=pa.array(fr, pa.int64()))
                dst = t[dst_col].filter(hit).to_numpy(zero_copy_only=False)
                dst = np.unique(dst.astype(np.int64))
                vis = ray.get(_v)
                new = dst[~np.isin(dst, vis)]
                return pa.table({"node": pa.array(new, pa.int64())})

            mapped = edges.map_batches(expand, batch_format="pyarrow")
            arrs = [b["node"].to_numpy(zero_copy_only=False)
                    for b in mapped.iter_batches(batch_format="pyarrow")
                    if b.num_rows]
            nxt = (np.unique(np.concatenate(arrs)) if arrs
                   else np.empty(0, np.int64))
            if not len(nxt):
                break
            reached.append((nxt, hop))
            visited = np.concatenate([visited, nxt])
            frontier = nxt
            if len(visited) > broadcast_threshold:
                small = False
                visited_ds = ray.data.from_arrow(pa.table(
                    {"node": pa.array(visited, pa.int64())}))
                frontier_ds = ray.data.from_arrow(pa.table(
                    {"node": pa.array(frontier, pa.int64())}))
        else:
            from .bloom import bloom_anti_join, bloom_semi_join
            from .groupagg import grouped_count
            hit = bloom_semi_join(edges, frontier_ds, big_col=src_col,
                                  key_col="node")
            dst = hit.map_batches(
                lambda t: pa.table({"node": t[dst_col].cast(pa.int64())}),
                batch_format="pyarrow")
            # bloom_anti_join reads its big side twice (keep / maybe)
            dst = grouped_count(dst, "node").drop_columns(["n"]) \
                .materialize()
            nxt_ds = bloom_anti_join(dst, visited_ds, "node",
                                     key_col="node").materialize()
            if nxt_ds.count() == 0:
                break
            reached.append((nxt_ds, hop))
            visited_ds = visited_ds.union(nxt_ds).materialize()
            frontier_ds = nxt_ds

    parts = []
    for nodes, hop in reached:
        if isinstance(nodes, np.ndarray):
            parts.append(ray.data.from_arrow(pa.table({
                "node": pa.array(nodes, pa.int64()),
                "hop": pa.array(np.full(len(nodes), hop, np.int64))})))
        else:
            parts.append(nodes.map_batches(
                lambda t, _h=hop: t.append_column(
                    "hop", pa.array(np.full(t.num_rows, _h, np.int64))),
                batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def sssp_bounded(edges: ray.data.Dataset, sources, max_hops: int = 8,
                 src_col: str = "src", dst_col: str = "dst",
                 weight_col: str = "w",
                 broadcast_threshold: int = 2_000_000) -> ray.data.Dataset:
    """Bounded-hop single/multi-source shortest PATH WEIGHT (Bellman-Ford
    rounds): (node, dist) with dist = minimum total ``weight_col`` over
    paths of <= ``max_hops`` edges from any source (sources at dist 0).
    Non-negative integer weights.

    The weighted generalization of ``bfs_shortest_hops`` — a node can be
    IMPROVED after it was first reached (a longer-hop but lighter path),
    so the frontier is "nodes whose best dist improved last round", not
    "never-seen nodes", and the loop runs the full ``max_hops`` rounds
    unless a round improves nothing (at which point the distances are the
    true unbounded shortest paths — Bellman-Ford fixpoint).

    Ray shape per round, small regime (reached set fits
    ``broadcast_threshold``): best-dist map broadcast once via ray.put;
    edges stream through ONE map_batches that relaxes frontier-sourced
    edges and pre-reduces candidates per block (pandas groupby min), so
    only per-block (dst, cand) minima — answer-bounded — reach the
    driver merge.  Large regime: best/frontier stay Datasets; relax =
    one hash join edges x frontier, candidate fold = grouped_reduce min,
    improvement check = one left_outer join against best (the
    Pregel-shape exchanges).  The edge table itself never shuffles in
    the small regime and shuffles once per round in the large.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from .bloom import _coalesce_for_join
    from .dedup import _join_partitions

    src_nodes = np.unique(np.asarray(list(sources), dtype=np.int64))
    empty = ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "dist": pa.array([], pa.int64())}))
    if not len(src_nodes):
        return empty

    small = len(src_nodes) <= broadcast_threshold
    best: dict = {int(n): 0 for n in src_nodes}
    frontier = src_nodes
    best_ds = None
    frontier_ds = None
    if not small:  # source set alone exceeds the broadcast regime
        best_ds = ray.data.from_arrow(pa.table({
            "node": pa.array(src_nodes, pa.int64()),
            "dist": pa.array(np.zeros(len(src_nodes), np.int64))}))
        frontier_ds = best_ds
    parts = _join_partitions()

    for _ in range(max_hops):
        if small:
            fref = ray.put({int(n): best[int(n)] for n in frontier})

            def relax(t: pa.Table, _f=fref) -> pa.Table:
                fr = ray.get(_f)
                out = pa.table({"node": pa.array([], pa.int64()),
                                "cand": pa.array([], pa.int64())})
                if t.num_rows == 0:
                    return out
                s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
                keys = np.fromiter(fr.keys(), np.int64, len(fr))
                vals = np.fromiter(fr.values(), np.int64, len(fr))
                o = np.argsort(keys)
                keys, vals = keys[o], vals[o]
                pos = np.searchsorted(keys, s)
                pos[pos >= len(keys)] = 0
                hit = keys[pos] == s
                if not hit.any():
                    return out
                d = t[dst_col].to_numpy(zero_copy_only=False).astype(
                    np.int64)[hit]
                w = t[weight_col].to_numpy(zero_copy_only=False).astype(
                    np.int64)[hit]
                cand = vals[pos[hit]] + w
                m = pd.DataFrame({"node": d, "cand": cand}).groupby(
                    "node", sort=False)["cand"].min().reset_index()
                return pa.table({"node": pa.array(m["node"].to_numpy(
                                     np.int64)),
                                 "cand": pa.array(m["cand"].to_numpy(
                                     np.int64))})

            mapped = edges.map_batches(relax, batch_format="pyarrow")
            nodes_l, cands_l = [], []
            for b in mapped.iter_batches(batch_format="pyarrow"):
                if b.num_rows:
                    nodes_l.append(b["node"].to_numpy(zero_copy_only=False))
                    cands_l.append(b["cand"].to_numpy(zero_copy_only=False))
            if not nodes_l:
                break
            cm = (pd.DataFrame({"n": np.concatenate(nodes_l),
                                "c": np.concatenate(cands_l)})
                  .groupby("n", sort=False)["c"].min())
            cur = cm.index.map(best)  # NaN for first-reached nodes
            imp_mask = cur.isna() | (cm.to_numpy() < cur.to_numpy())
            if not imp_mask.any():
                break
            imp_nodes = cm.index.to_numpy(np.int64)[imp_mask]
            imp_dists = cm.to_numpy(np.int64)[imp_mask]
            best.update(zip(imp_nodes.tolist(), imp_dists.tolist()))
            frontier = imp_nodes
            if len(best) > broadcast_threshold:
                small = False
                best_ds = ray.data.from_arrow(pa.table({
                    "node": pa.array(list(best.keys()), pa.int64()),
                    "dist": pa.array(list(best.values()), pa.int64())}))
                frontier_ds = ray.data.from_arrow(pa.table({
                    "node": pa.array(frontier, pa.int64()),
                    "dist": pa.array([best[int(n)] for n in frontier],
                                     pa.int64())}))
        else:
            fr = frontier_ds.map_batches(
                lambda t: pa.table({"_fs": t["node"], "_fd": t["dist"]}),
                batch_format="pyarrow")
            fr, n_fr = _coalesce_for_join(fr, max(2, parts // 4))
            if n_fr == 0:
                break
            hit = join_safe(edges, fr, join_type="inner", num_partitions=parts,
                             on=(src_col,), right_on=("_fs",))
            cand_ds = hit.map_batches(
                lambda t: pa.table({
                    "node": t[dst_col].cast(pa.int64()),
                    "cand": pc.add(t["_fd"].cast(pa.int64()),
                                   t[weight_col].cast(pa.int64()))}),
                batch_format="pyarrow")
            cand_ds = grouped_reduce(cand_ds, "node", {"cand": "cand"},
                                     how="min")
            cand_ds, n_cand = _coalesce_for_join(cand_ds,
                                                 max(2, parts // 4))
            if n_cand == 0:
                break
            bd = best_ds.map_batches(
                lambda t: pa.table({"_bn": t["node"], "_bd": t["dist"]}),
                batch_format="pyarrow")
            bd, _ = _coalesce_for_join(bd, max(2, parts // 4))
            j = join_safe(cand_ds, bd, join_type="left_outer",
                             num_partitions=parts,
                             on=("node",), right_on=("_bn",))

            def improved_rows(t: pa.Table) -> pa.Table:
                out = pa.table({"node": pa.array([], pa.int64()),
                                "dist": pa.array([], pa.int64())})
                if t.num_rows == 0:
                    return out
                keep = pc.fill_null(
                    pc.less(t["cand"], t["_bd"]), True)
                return pa.table({"node": t["node"].filter(keep),
                                 "dist": t["cand"].filter(keep)})

            nxt = j.map_batches(improved_rows,
                                batch_format="pyarrow").materialize()
            if nxt.count() == 0:
                break
            # best = (best minus improved nodes) union improved
            from .bloom import bloom_anti_join
            keep_best = bloom_anti_join(best_ds, nxt, "node",
                                        key_col="node")
            best_ds = keep_best.union(nxt).materialize()
            frontier_ds = nxt

    if small or best_ds is None:
        return ray.data.from_arrow(pa.table({
            "node": pa.array(list(best.keys()), pa.int64()),
            "dist": pa.array(list(best.values()), pa.int64())}))
    return best_ds


def hits_scores(edges: ray.data.Dataset,
                u_col: str = "u", v_col: str = "v",
                num_partitions: int | None = None) -> ray.data.Dataset:
    """Unnormalized two-iteration HITS (Kleinberg 1999) over an edge
    list — hub/authority sufficient statistics, INTEGER-EXACT so a SQL
    twin reproduces them bit-for-bit (the repo's pagerank convention,
    minus the float lane: skipping the per-step normalization keeps the
    recurrence in int64 and changes only the scale, not the ranking):

        h0(u) = 1
        a1(v) = sum_{u->v} m(u,v) * h0(u)   (weighted in-degree)
        h1(u) = sum_{u->v} m(u,v) * a1(v)
        a2(v) = sum_{u->v} m(u,v) * h1(u)

    Duplicate (u, v) rows count with multiplicity m (multigraph).
    Scale shape: ONE multiplicity fold of the edge list, then each
    half-iteration is one hash join of a NODE-sized score table onto
    the folded edges + one ``grouped_reduce`` — the Pregel exchange
    pair; the raw edge list is read once.  Returns (node, hub, auth) =
    (h1, a2) for every node, 0 where a node has no out/in edges."""
    from .bloom import _coalesce_for_join

    parts = num_partitions or _join_parts()

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({
            u_col: t[u_col].combine_chunks().cast(pa.int64()),
            v_col: t[v_col].combine_chunks().cast(pa.int64()),
            "_one": pa.array(np.ones(t.num_rows, np.int64))})

    em, n_e = _coalesce_for_join(
        grouped_reduce(edges.map_batches(ones, batch_format="pyarrow"),
                       [u_col, v_col], {"_one": "m"}, how="sum"), parts)
    if n_e == 0:
        raise ValueError("hits_scores: empty edge list")

    def _mul(score_col: str):
        def f(t: pa.Table) -> pa.Table:
            m = t["m"].to_numpy(zero_copy_only=False).astype(np.int64)
            s = t[score_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({u_col: t[u_col], v_col: t[v_col],
                             "_w": pa.array(m * s)})
        return f

    # a1 = weighted in-degree (h0 = 1 needs no join)
    a1, _ = _coalesce_for_join(
        grouped_reduce(em.select_columns([v_col, "m"]),
                       v_col, {"m": "_a1"}, how="sum"), parts)
    j1 = join_safe(em, a1, join_type="inner", num_partitions=parts,
                 on=(v_col,))
    h1, _ = _coalesce_for_join(
        grouped_reduce(j1.map_batches(_mul("_a1"),
                                      batch_format="pyarrow"),
                       u_col, {"_w": "_h1"}, how="sum"), parts)
    j2 = join_safe(em, h1, join_type="inner", num_partitions=parts,
                 on=(u_col,))
    a2, _ = _coalesce_for_join(
        grouped_reduce(j2.map_batches(_mul("_h1"),
                                      batch_format="pyarrow"),
                       v_col, {"_w": "_a2"}, how="sum"), parts)

    nodes = _distinct_nodes(edges, u_col, v_col) \
        .repartition(max(2, parts // 4)).materialize()
    out = join_safe(join_safe(nodes, h1, join_type="left_outer", num_partitions=parts,
                     on=("node",), right_on=(u_col,)), a2, join_type="left_outer", num_partitions=parts,
              on=("node",), right_on=(v_col,))

    def finish(t: pa.Table) -> pa.Table:
        # int64-exact null fill in Arrow — a float64 round-trip would
        # silently corrupt sums >= 2^53 (hub/auth grow multiplicatively
        # with graph size)
        import pyarrow.compute as pc
        return pa.table({
            "node": t["node"],
            "hub": pc.fill_null(pc.cast(t["_h1"], pa.int64()),
                                pa.scalar(0, pa.int64())),
            "auth": pc.fill_null(pc.cast(t["_a2"], pa.int64()),
                                 pa.scalar(0, pa.int64()))})

    return out.map_batches(finish, batch_format="pyarrow")


def label_propagation_min(edges: ray.data.Dataset, rounds: int = 2,
                          u_col: str = "u", v_col: str = "v",
                          num_partitions: int | None = None
                          ) -> ray.data.Dataset:
    """Synchronous min-label propagation over the UNDIRECTED graph —
    the bounded-round community-detection primitive (label = node id at
    round 0; each round every node takes the min of its own label and
    its neighbors' PREVIOUS labels).  Deterministic at any parallelism
    and SQL-exact per round, which is what distinguishes it from
    ``connected_components`` (star contraction to the exact fixpoint —
    use that when you need converged components; use this when you need
    the round-r neighborhood structure, e.g. r-hop min-id sketches).

    Scale shape: the symmetrized edge list is folded to distinct pairs
    ONCE; each round is one hash join of the node-sized label table
    onto it + one ``grouped_reduce`` min + one label-table merge join —
    the Pregel exchange pair, edges never re-read.  Returns
    (node, label)."""
    from .bloom import _coalesce_for_join

    parts = num_partitions or _join_parts()

    def sym(t: pa.Table) -> pa.Table:
        u = t[u_col].combine_chunks().cast(pa.int64())
        v = t[v_col].combine_chunks().cast(pa.int64())
        return pa.table({"a": pa.concat_arrays([u, v]),
                         "b": pa.concat_arrays([v, u]),
                         "_one": pa.array(np.ones(2 * t.num_rows,
                                                  np.int64))})

    und, n_e = _coalesce_for_join(
        grouped_reduce(edges.map_batches(sym, batch_format="pyarrow"),
                       ["a", "b"], {"_one": "_m"}, how="sum")
        .drop_columns(["_m"]), parts)
    if n_e == 0:
        raise ValueError("label_propagation_min: empty edge list")

    labels, _ = _coalesce_for_join(
        _distinct_nodes(edges, u_col, v_col).map_batches(
            lambda t: t.append_column(
                "label", t["node"].combine_chunks().cast(pa.int64())),
            batch_format="pyarrow"), parts)

    for _ in range(int(rounds)):
        j = join_safe(und, labels, join_type="inner", num_partitions=parts,
                     on=("b",), right_on=("node",))
        nbr_min, _ = _coalesce_for_join(
            grouped_reduce(j.select_columns(["a", "label"]),
                           "a", {"label": "_nm"}, how="min"), parts)
        merged = join_safe(labels, nbr_min, join_type="left_outer",
                             num_partitions=parts,
                             on=("node",), right_on=("a",))

        def take_min(t: pa.Table) -> pa.Table:
            # int64-exact: coalesce nulls to the node's own label in
            # Arrow, then min — labels are arbitrary node ids, so a
            # float64 round-trip would corrupt ids >= 2^53
            import pyarrow.compute as pc
            own = pc.cast(t["label"], pa.int64())
            nm = pc.coalesce(pc.cast(t["_nm"], pa.int64()), own)
            return pa.table({"node": t["node"],
                             "label": pc.min_element_wise(own, nm)})

        labels, _ = _coalesce_for_join(
            merged.map_batches(take_min, batch_format="pyarrow"), parts)

    return labels
