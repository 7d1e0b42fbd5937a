"""The vectorized fan-chart competition in ``ISEA7HFlatGrid.planar_assign``
must reproduce the per-(face, fan chart) loop it replaced bit for bit, on
points near face edges and corners (where the competition decides the
cell) and across block boundaries of the candidate matrix."""

import numpy as np
import pytest

from dggrid4py_ray.dggs import isea7h_flat
from dggrid4py_ray.dggs.isea7h_z7bridge import Z7Bridge
from dggrid4py_ray.dggs.sphere import lonlat_to_unit, unit_to_lonlat

TINY_BLOCK = 61  # risky points per block: forces many block boundaries


@pytest.fixture(scope="module")
def bridge():
    return Z7Bridge()


def _oracle_planar_assign(g, face, x, y, res, risk_margin=2.0):
    """The former planar_assign: one ``_round_in_chart`` call per (face,
    fan chart) pair, fan charts in ascending neighbour order."""
    br = Z7Bridge(g)
    ic = g.proj.icosa
    best_id, best_d2 = g._round_in_chart(face, x, y, res)
    l0, l1, l2 = g._bary(x, y)
    side = 7.0 ** (res / 2.0)
    margin_units = np.minimum(np.minimum(l0, l1), l2) * side * (np.sqrt(3.0) / 2.0)
    ridx = np.nonzero(margin_units < risk_margin)[0]
    z = x[ridx] + 1j * y[ridx]
    fr = face[ridx]
    for fa in np.unique(fr):
        m = fr == fa
        gi = ridx[m]
        zm = z[m]
        vs = set(ic.face_vertices[fa])
        for fb in range(20):
            if fb == fa or not vs & set(ic.face_vertices[fb]):
                continue
            alpha, beta = br._chart_transform(int(fa), fb)
            zz = alpha * zm + beta
            ids2, d2 = g._round_in_chart(np.full(len(zm), fb, dtype=np.int64),
                                         np.real(zz), np.imag(zz), res)
            upd = (d2 < best_d2[gi] - 1e-12) | (
                (np.abs(d2 - best_d2[gi]) <= 1e-12) & (ids2 < best_id[gi]))
            ui = gi[upd]
            best_d2[ui] = d2[upd]
            best_id[ui] = ids2[upd]
    return best_id


def _oracle_encode(g, lon, lat, res):
    p = lonlat_to_unit(lon, lat)
    face = g.proj.icosa.find_face(p)
    _, x, y = g._forward_on_face(p, face)
    return _oracle_planar_assign(g, face, x, y, res)


def _near_edge_points(g, res, rng, per_face=120):
    """lon/lat of points within ~2.5 res-`res` cells of a face edge (two
    thirds) or a face corner (one third), on every face; a few lie exactly
    on an edge."""
    cells = 7.0 ** (res / 2.0) * (np.sqrt(3.0) / 2.0)  # bary -> cell units
    faces, bary = [], []
    for f in range(20):
        lam = rng.uniform(0.0, 1.0, (per_face, 3))
        near = rng.uniform(0.0, 2.5, (per_face, 2)) / cells
        near[::17, 0] = 0.0
        slot = rng.integers(0, 3, per_face)
        corner = np.arange(per_face) % 3 == 0
        rows = np.arange(per_face)
        lam[rows, slot] = near[:, 0]
        nxt = (slot + 1) % 3
        lam[corner, nxt[corner]] = near[corner, 1]
        # scale the free coordinate(s) so the three sum to 1
        fixed = np.zeros((per_face, 3), bool)
        fixed[rows, slot] = True
        fixed[corner, nxt[corner]] = True
        free_sum = np.where(fixed, 0.0, lam).sum(axis=1)
        room = 1.0 - np.where(fixed, lam, 0.0).sum(axis=1)
        lam = np.where(fixed, lam, lam * (room / free_sum)[:, None])
        faces.append(np.full(per_face, f, np.int64))
        bary.append(lam)
    face = np.concatenate(faces)
    lam = np.concatenate(bary)
    z = lam @ g.c
    return unit_to_lonlat(g.proj.inverse_unit(face, np.real(z), np.imag(z)))


@pytest.mark.parametrize("block", [None, TINY_BLOCK])
def test_encode_matches_per_fan_loop_near_edges(bridge, monkeypatch, block):
    g = bridge.g
    if block is not None:
        monkeypatch.setattr(isea7h_flat, "_FAN_BLOCK", block)
    rng = np.random.default_rng(7)
    for res in range(13):
        lon, lat = _near_edge_points(g, res, rng)
        got = g.encode(lon, lat, res)
        want = _oracle_encode(g, lon, lat, res)
        assert np.array_equal(got, want), (res, int((got != want).sum()))


def test_near_edge_points_exercise_the_competition(bridge):
    """The sample must put most points inside the risk margin (else the
    equivalence above would test only the single-chart path)."""
    g = bridge.g
    rng = np.random.default_rng(7)
    for res in (0, 6, 12):
        lon, lat = _near_edge_points(g, res, rng)
        p = lonlat_to_unit(lon, lat)
        face = g.proj.icosa.find_face(p)
        _, x, y = g._forward_on_face(p, face)
        margin = np.minimum.reduce(g._bary(x, y)) * 7.0 ** (res / 2.0) \
            * (np.sqrt(3.0) / 2.0)
        assert (margin < 2.0).mean() > 0.5, res


def test_parent_cell_matches_per_fan_loop(bridge, monkeypatch):
    g = bridge.g
    monkeypatch.setattr(isea7h_flat, "_FAN_BLOCK", TINY_BLOCK)
    for res in range(1, 5):
        ids = bridge.enumerate_cells(res)
        f, a, b = isea7h_flat.unpack(ids)
        x, y = g._plane_of(a.astype(np.float64), b.astype(np.float64), res)
        want = _oracle_planar_assign(g, f, x, y, res - 1)
        assert np.array_equal(g.parent_cell(ids, res), want), res

