"""ISEA7H (flat ids) — projection-exact aperture-7 hexagon grid, DGGRID
geometry.

Cell centers at resolution r are the points of the per-face planar lattice

    L_r = { c_s + (a + b*omega) * m_r },   m_r = e1 / prod_k M_k

with the ALTERNATING aperture-7 substitution M_k = (2+omega) for odd k and
(3-omega) = 2+conj(omega) for even k (DGGRID Class I/II; see the note at
_M7 below), mapped to the sphere by the Snyder equal-area inverse.  Face
corners are lattice points at every resolution; at EVEN resolutions the
lattice is edge-aligned, so lattice points lie ON face edges and are
canonicalized to the lower sharing face (corners to the lowest of the five).
The cell count is exactly 10*7^r + 2.

Ids are flat (face, a, b) with a/b offset-packed (no Z7 digit hierarchy —
that is what isea7h_z7bridge provides).  encode = DGGRID-style planar
rounding in the containing face's chart (see its docstring);
encode_nearest3d keeps the spherical nearest-center rule.
"""

from __future__ import annotations

import numpy as np

from .snyder import chart_for, R_VERTEX_PLANE
from .sphere import lonlat_to_unit, unit_to_lonlat

_OFF = np.int64(1 << 26)  # a/b offset so packed values stay positive
_MASK = (np.int64(1) << 27) - 1
_FAN_BLOCK = 4096  # risky points per fan competition: bounds the
                   # (block x n_fan) candidate temporaries

# omega = e^{i pi/3}
_OMEGA = complex(0.5, np.sqrt(3.0) / 2.0)
_M7 = 2.0 + _OMEGA        # odd-level substitution, arg +19.1066 deg, |.|^2 = 7
_M7C = 3.0 - _OMEGA       # even-level substitution (= 2 + conj(omega)), arg -19.1066
# DGGRID's aperture-7 alternates the substitution chirality per level
# (Class I/II), so the net lattice rotation is -19.1066 deg at odd res and 0
# at even res — measured exactly from the reference's golden ISEA7H res-5
# cell rings (/root/reference/tests/test_dggrid.py:496-527: two independent
# cells fit a corner-anchored lattice at theta = -43.53 deg relative to the
# uniform (2+omega)^-r lattice, i.e. net -19.06 deg mod 60, to 0.01 deg).


def pack(face, a, b):
    return ((np.asarray(face, np.int64) << 54)
            | ((np.asarray(a, np.int64) + _OFF) << 27)
            | (np.asarray(b, np.int64) + _OFF))


def unpack(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return ids >> 54, ((ids >> 27) & _MASK) - _OFF, (ids & _MASK) - _OFF


class ISEA7HFlatGrid:
    def __init__(self, pole_lon: float = 11.25, pole_lat: float = 58.28252559,
                 azimuth: float = 0.0, projection: str = "ISEA"):
        self.projection = projection.upper()
        self.proj = chart_for(projection, pole_lon=pole_lon, pole_lat=pole_lat,
                              azimuth=azimuth)
        # plane corners (complex) in face-slot order (slots (0,1,2) sit at
        # plane angles (90, 330, 210) deg — see Icosahedron frame notes)
        ang = np.array([np.pi / 2, np.pi / 2 + 4 * np.pi / 3, np.pi / 2 + 2 * np.pi / 3])
        self.c = R_VERTEX_PLANE * np.exp(1j * ang)  # slot corners as complex
        self._m = {}

    def m_r(self, res: int) -> complex:
        if res not in self._m:
            prod = complex(1.0, 0.0)
            for k in range(1, res + 1):
                prod *= _M7 if k % 2 == 1 else _M7C
            self._m[res] = (self.c[1] - self.c[0]) / prod
        return self._m[res]

    @staticmethod
    def num_cells(res: int) -> int:
        return 10 * 7**res + 2

    # -- id <-> plane -------------------------------------------------------

    def _plane_of(self, a, b, res: int):
        z = self.c[0] + (a + b * _OMEGA) * self.m_r(res)
        return np.real(z), np.imag(z)

    def decode(self, ids, res: int):
        face, a, b = unpack(ids)
        x, y = self._plane_of(a.astype(np.float64), b.astype(np.float64), res)
        return unit_to_lonlat(self.proj.inverse_unit(face, x, y))

    def _bary(self, x, y):
        ax, ay = np.real(self.c[0]), np.imag(self.c[0])
        bx, by = np.real(self.c[1]), np.imag(self.c[1])
        cx, cy = np.real(self.c[2]), np.imag(self.c[2])
        det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
        l0 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
        l1 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
        return l0, l1, 1.0 - l0 - l1

    def _axial_of_plane(self, x, y, res: int):
        w = (x + 1j * y - self.c[0]) / self.m_r(res)
        b = np.imag(w) / (np.sqrt(3.0) / 2.0)
        a = np.real(w) - 0.5 * b
        return a, b

    # -- encode -------------------------------------------------------------

    def encode(self, lon, lat, res: int, k_faces: int | None = None,
               risk_margin: float = 2.0) -> np.ndarray:
        """Point -> cell assignment, DGGRID-style PLANAR rounding: project
        the point into its containing face's Snyder chart and take the
        planar-nearest lattice point; near face edges/corners, competing
        charts' candidates are compared by their own in-chart planar
        distances (the point carried across by the exact unfold maps).

        This is how the DGGRID binary quantizes points (quad-plane ij
        rounding), NOT a spherical Voronoi of the centers — the two differ
        for ~3% of random points (the planar hex boundary vs the spherical
        bisector).  Verified against the reference's golden point
        assignments.  ``encode_nearest3d`` keeps the spherical rule.
        """
        if k_faces is not None:
            return self.encode_nearest3d(lon, lat, res, k_faces=k_faces)
        lon = np.asarray(lon, np.float64)
        lat = np.asarray(lat, np.float64)
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        if bad.any():
            raise ValueError(
                f"{int(bad.sum())} non-finite coordinate(s) passed to encode "
                f"(first index {int(np.argmax(bad))}); filter or impute "
                "before encoding")
        p = lonlat_to_unit(lon, lat)
        ic = self.proj.icosa
        face = ic.find_face(p)
        _, x, y = self._forward_on_face(p, face)
        return self.planar_assign(face, x, y, res, risk_margin=risk_margin)

    def _fan_maps(self):
        """(neighbor_face, alpha, beta), each shaped (20, n_fan): the unfold
        transforms z -> alpha * z + beta from each face's chart to every
        edge- or vertex-sharing chart, neighbours in ascending face order
        (built once)."""
        fans = getattr(self, "_fans", None)
        if fans is not None:
            return fans
        from .isea7h_z7bridge import Z7Bridge  # unfold maps live there
        br = Z7Bridge.__new__(Z7Bridge)
        br.g = self
        br._unfolds = None
        ic = self.proj.icosa
        nb = np.array([[f2 for f2 in range(20) if f2 != f and
                        set(ic.face_vertices[f]) & set(ic.face_vertices[f2])]
                       for f in range(20)], dtype=np.int64)
        ab = np.array([[br._chart_transform(f, int(f2)) for f2 in row]
                       for f, row in enumerate(nb)], dtype=np.complex128)
        self._fans = (nb, ab[..., 0], ab[..., 1])
        return self._fans

    def planar_assign(self, face: np.ndarray, x: np.ndarray, y: np.ndarray,
                      res: int, risk_margin: float = 2.0) -> np.ndarray:
        """Planar-nearest canonical cell for plane points given in chart
        `face`; near edges/corners, candidates from every fan chart compete
        by their own in-chart planar distance (points carried across by the
        exact unfold maps).

        All fan candidates of a block of risky points are rounded in one
        call, then folded column by column in neighbour order with the
        same tolerance/lower-id tie rule as ``_round_in_chart``."""
        best_id, best_d2 = self._round_in_chart(face, x, y, res)
        l0, l1, l2 = self._bary(x, y)
        side = 7.0 ** (res / 2.0)
        margin_units = np.minimum(np.minimum(l0, l1), l2) * side * (np.sqrt(3.0) / 2.0)
        ridx_all = np.flatnonzero(margin_units < risk_margin)
        nb, alpha, beta = self._fan_maps()
        for s in range(0, len(ridx_all), _FAN_BLOCK):
            ridx = ridx_all[s:s + _FAN_BLOCK]
            fr = face[ridx]
            zz = alpha[fr] * (x[ridx] + 1j * y[ridx])[:, None] + beta[fr]
            ids2, d2 = self._round_in_chart(nb[fr].ravel(), np.real(zz).ravel(),
                                            np.imag(zz).ravel(), res)
            ids2 = ids2.reshape(zz.shape)
            d2 = d2.reshape(zz.shape)
            bi = best_id[ridx]
            bd = best_d2[ridx]
            for j in range(zz.shape[1]):
                dj = d2[:, j]
                ij = ids2[:, j]
                upd = (dj < bd - 1e-12) | ((np.abs(dj - bd) <= 1e-12) & (ij < bi))
                bd = np.where(upd, dj, bd)
                bi = np.where(upd, ij, bi)
            best_id[ridx] = bi
        return best_id

    def parent_cell(self, ids: np.ndarray, res: int) -> np.ndarray:
        """Planar-nearest res-(res-1) cell of each cell's center — the
        hierarchy's geometric parent, computed entirely in the charts (cell
        centers have exact in-chart plane coordinates; no round trip through
        the sphere)."""
        f, a, b = unpack(ids)
        x, y = self._plane_of(a.astype(np.float64), b.astype(np.float64), res)
        return self.planar_assign(f, x, y, res - 1)

    def _round_in_chart(self, face: np.ndarray, x, y, res: int):
        """Planar-nearest canonical lattice cell of chart `face` for plane
        points (x, y): hex rounding over the containing unit rhombus,
        restricted to in-triangle (canonical) candidates."""
        a, b = self._axial_of_plane(x, y, res)
        fa0 = np.floor(a)
        fb0 = np.floor(b)
        n = len(a)
        best_id = np.full(n, -1, dtype=np.int64)
        best_d2 = np.full(n, np.inf)
        eps = 1e-9
        for da in (0, 1):
            for db in (0, 1):
                ca = (fa0 + da).astype(np.int64)
                cb = (fb0 + db).astype(np.int64)
                cx, cy = self._plane_of(ca.astype(float), cb.astype(float), res)
                l0, l1, l2 = self._bary(cx, cy)
                ok = (l0 >= -eps) & (l1 >= -eps) & (l2 >= -eps)
                if not ok.any():
                    continue
                dx = x - cx
                dy = y - cy
                d2 = dx * dx + dy * dy
                caf, cai, cab = self._canonical(face[ok], ca[ok], cb[ok],
                                                l0[ok], l1[ok], l2[ok], res)
                ids = pack(caf, cai, cab)
                idx = np.nonzero(ok)[0]
                upd = (d2[ok] < best_d2[idx] - 1e-12) | (
                    (np.abs(d2[ok] - best_d2[idx]) <= 1e-12) & (ids < best_id[idx]))
                ui = idx[upd]
                best_d2[ui] = d2[ok][upd]
                best_id[ui] = ids[upd]
        return best_id, best_d2

    def encode_nearest3d(self, lon, lat, res: int, k_faces: int = 3) -> np.ndarray:
        """Spherical nearest-center encode (exact 3D Voronoi of the lattice
        centers).  ``k_faces=3`` (default) screens to the 3 nearest faces;
        ``k_faces=20`` is the exhaustive no-screening reference.
        """
        p = lonlat_to_unit(np.asarray(lon, np.float64), np.asarray(lat, np.float64))
        npts = p.shape[0]
        ic = self.proj.icosa
        dots = p @ ic.face_centers.T
        order = np.argsort(-dots, axis=1)[:, :k_faces]
        cell_rad = np.arctan(2.0) / (7.0 ** (res / 2.0))
        d0 = np.arccos(np.clip(dots[np.arange(npts), order[:, 0]], -1, 1))
        best_score = np.full(npts, -2.0)
        best_id = np.zeros(npts, dtype=np.int64)
        eps = 1e-9
        for k in range(k_faces):
            face = order[:, k]
            if k == 0:
                active = np.ones(npts, dtype=bool)
            elif k_faces > 3:
                active = np.ones(npts, dtype=bool)
            else:
                dk = np.arccos(np.clip(dots[np.arange(npts), face], -1, 1))
                active = dk < d0 + 1.8 * cell_rad
            if not active.any():
                continue
            fa = face[active]
            _, x, y = self._forward_on_face(p[active], fa)
            a, b = self._axial_of_plane(x, y, res)
            fa0 = np.floor(a)
            fb0 = np.floor(b)
            act_idx = np.nonzero(active)[0]
            for da in (0, 1, -1):
                for db in (0, 1, -1):
                    if abs(da) + abs(db) > 2:
                        continue
                    ca = (fa0 + da).astype(np.int64)
                    cb = (fb0 + db).astype(np.int64)
                    cx, cy = self._plane_of(ca.astype(float), cb.astype(float), res)
                    l0, l1, l2 = self._bary(cx, cy)
                    ok = (l0 >= -eps) & (l1 >= -eps) & (l2 >= -eps)
                    if not ok.any():
                        continue
                    cpos = self.proj.inverse_unit(fa[ok], cx[ok], cy[ok])
                    score = np.sum(cpos * p[active][ok], axis=-1)
                    idx = act_idx[ok]
                    upd = score > best_score[idx]
                    ui = idx[upd]
                    best_score[ui] = score[upd]
                    # canonicalize corners (the only shared lattice points)
                    caf, cai, cab = self._canonical(fa[ok][upd], ca[ok][upd],
                                                    cb[ok][upd], l0[ok][upd],
                                                    l1[ok][upd], l2[ok][upd], res)
                    best_id[ui] = pack(caf, cai, cab)
        return best_id

    def _canonical(self, face, a, b, l0, l1, l2, res: int):
        """Shared lattice points -> one canonical owner.

        Corners (bary ~ unit vector, 5 sharing faces) -> lowest face index.
        Edge points (one bary ~ 0; occur at even res, where the alternating
        substitution leaves the lattice edge-aligned — DGGRID Class I) ->
        the lower of the two faces sharing that edge.  Axial coords are
        recomputed in the owner's chart.
        """
        face = np.asarray(face, np.int64).copy()
        a = np.asarray(a, np.int64).copy()
        b = np.asarray(b, np.int64).copy()
        tol = 1e-9
        corner = ((np.abs(l0 - 1) < tol) | (np.abs(l1 - 1) < tol)
                  | (np.abs(l2 - 1) < tol))
        onedge = ((np.abs(l0) < tol) | (np.abs(l1) < tol)
                  | (np.abs(l2) < tol)) & ~corner
        if corner.any():
            cx, cy = self._plane_of(a[corner].astype(float), b[corner].astype(float), res)
            pos = self.proj.inverse_unit(face[corner], cx, cy)
            dots = pos @ self.proj.icosa.face_centers.T
            best = dots.max(axis=1, keepdims=True)
            owner = np.argmax(dots > best - 1e-9, axis=1).astype(np.int64)
            # recompute axial in the owner plane
            _, xo, yo = self._forward_on_face(pos, owner)
            ao, bo = self._axial_of_plane(xo, yo, res)
            face[corner] = owner
            a[corner] = np.rint(ao).astype(np.int64)
            b[corner] = np.rint(bo).astype(np.int64)
        if onedge.any():
            ic = self.proj.icosa
            fe = face[onedge]
            # slot opposite the zero bary = the edge's slot
            ls = np.column_stack([np.abs(l0[onedge]), np.abs(l1[onedge]),
                                  np.abs(l2[onedge])])
            slot = np.argmin(ls, axis=1)
            other = ic.face_neighbors[fe, slot]
            owner = np.minimum(fe, other)
            need = owner != fe
            if need.any():
                idx = np.nonzero(onedge)[0][need]
                cx, cy = self._plane_of(a[idx].astype(float), b[idx].astype(float), res)
                pos = self.proj.inverse_unit(face[idx], cx, cy)
                own = owner[need]
                _, xo, yo = self._forward_on_face(pos, own)
                ao, bo = self._axial_of_plane(xo, yo, res)
                face[idx] = own
                a[idx] = np.rint(ao).astype(np.int64)
                b[idx] = np.rint(bo).astype(np.int64)
        return face, a, b

    def _forward_on_face(self, p, face):
        from .isea4h import ISEA4HGrid
        return ISEA4HGrid._forward_on_face(self, p, face)
