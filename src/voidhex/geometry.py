"""Small geometry helpers shared by voronoi, repair and tessellation.

`plane_basis` works row by row: `voronoi.build_cells` calls it once on the
(n, 3) array of all its facet normals. The polygon helpers work row-wise,
on many polygons of one size held as (S, m) coordinate arrays, as repair's
collapse check and the tessellation's split hold them: `polygon_areas`
gives each row's signed area, `corner_angles` its interior angles and
`loops_are_simple` a crossing test. Each row gets the bits, or the answer,
that a plain-float loop over that polygon alone gives (the angles up to
one ulp of ``atan2``); the tests keep those loops as their reference.

`check_guard` is the one guard check, a pure one: repair runs it on its
facet vertices at its end and tessellation on its nodes at its end, both
with the guard sphere radius `GUARD_RADIUS`. Nothing moves a point to clear
a guard. `norms` is the array norm for rows of vectors, but for
`bed.separation_profile` and `fixtures._relax`: they keep
`np.linalg.norm(..., axis=1)`, whose bits differ from `norms` on about one
row in ten, since a switch would move Delta* and the beds. `distinct`
gives the sorted distinct values of an array from one sort, where a plain
`np.unique` would hash them.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import GeometryError

GUARD_RADIUS = 0.93  # guard sphere radius, units of R; just above the sweep radius


def norms(v: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each bit-identical to np.linalg.norm of
    that one vector (which takes the BLAS dot product)."""
    return np.sqrt(np.vecdot(v, v))


def distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, flattened: what a plain
    `np.unique` returns, from one sort and a mask. (numpy 2.4's plain
    `np.unique` hashes integers: 20 times slower on 130k int64 codes.)"""
    s = np.sort(values, axis=None)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def plane_basis(normals: np.ndarray):
    """Right-handed in-plane basis (e1, e2) with e1 x e2 = normal, row by
    row for an (n, 3) array of unit normals, or for a single normal."""
    normals = np.asarray(normals, dtype=float)
    x_ok = np.abs(normals[..., 0]) <= 0.9
    axis = np.zeros(normals.shape)
    axis[..., 0] = x_ok
    axis[..., 1] = ~x_ok
    e1 = np.cross(normals, axis)
    e1 /= norms(e1)[..., None]
    e2 = np.cross(normals, e1)
    return e1, e2


def polygon_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed area (positive for CCW) of each row of the (S, m) coordinates
    ``x``, ``y``: the shoelace terms from the edge (m - 1, 0) on, in a
    running sum (`np.cumsum`, which adds left to right), so each row has the
    bits of a plain-float loop over its polygon but for the sign of a zero
    area."""
    prev = np.arange(-1, x.shape[1] - 1)
    return 0.5 * np.cumsum(x[:, prev] * y - y[:, prev] * x, axis=1)[:, -1]


def corner_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interior angle (radians) at each vertex of each row of the (S, m)
    coordinates ``x``, ``y`` of CCW polygons: the CCW sweep from the
    outgoing to the incoming edge."""
    px, py = np.roll(x, 1, axis=1) - x, np.roll(y, 1, axis=1) - y
    nx, ny = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y
    return np.mod(-np.arctan2(px * ny - py * nx, px * nx + py * ny), 2.0 * np.pi)


@cache
def _edge_pairs(m: int):
    """Index arrays (i, i + 1, j, j + 1), all mod m, over the pairs of
    non-adjacent edges (i, j) of an m-gon, i < j."""
    ij = [(i, j) for i in range(m) for j in range(i + 2, m) if (j + 1) % m != i]
    i, j = np.array(ij, dtype=np.int64).reshape(-1, 2).T
    return i, (i + 1) % m, j, (j + 1) % m


def loops_are_simple(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each row of the (S, m) coordinates ``x``, ``y``: True if no two
    non-adjacent edges of its loop properly cross (touching and collinear
    overlap do not count), over every pair of them at once."""
    i, i1, j, j1 = _edge_pairs(x.shape[1])
    px, py, qx, qy = x[:, i], y[:, i], x[:, i1], y[:, i1]
    rx, ry, sx, sy = x[:, j], y[:, j], x[:, j1], y[:, j1]
    dx, dy = qx - px, qy - py
    ex, ey = sx - rx, sy - ry
    # orientations of r and s about pq, then of p and q about rs
    cross = (((dx * (ry - py) - dy * (rx - px)) * (dx * (sy - py) - dy * (sx - px)) < 0)
             & ((ex * (py - ry) - ey * (px - rx)) * (ex * (qy - ry) - ey * (qx - rx)) < 0))
    return ~cross.any(axis=1)


def check_guard(points: np.ndarray, pairs, centers: np.ndarray, guard: float) -> None:
    """Raise GeometryError if a point lies inside an owner's guard sphere.

    ``pairs`` holds (point, owner sphere) rows; a point is inside when its
    distance to an owner's center is under ``guard``. The error names the
    lowest-numbered such point and all of its owners, sorted.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    inside = pairs[norms(points[pairs[:, 0]] - centers[pairs[:, 1]]) < guard, 0]
    if len(inside):
        p = int(inside.min())
        cells = distinct(pairs[pairs[:, 0] == p, 1]).tolist()
        raise GeometryError(
            f"point {p} cannot clear the guard spheres of cells {cells}; "
            "packing too tight for the guard radius"
        )
