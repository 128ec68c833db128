"""Small geometry helpers shared by voronoi, repair and tessellation.

`plane_basis` takes a numpy normal; each `voronoi.Facet` calls it once,
when it is built. The polygon helpers take plain (x, y) pairs: a list of
float pairs, or an (m, 2) array, which they turn into such a list once.
They loop in plain floats, because they are meant for small polygons (a
Voronoi facet has 3 to about 16 vertices), where one numpy call costs more
than the arithmetic it does.

`push_outside` is the one guard push: repair applies it to facet vertices
and tessellation to its nodes, both with the guard sphere radius
`GUARD_RADIUS`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError

GUARD_RADIUS = 0.93  # guard sphere radius, units of R; just above the sweep radius


def plane_basis(normal: np.ndarray):
    """Right-handed in-plane basis (e1, e2) with e1 x e2 = normal."""
    a = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(normal, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def as_pairs(uv) -> list:
    """The polygon as a list of (x, y) float pairs; a list passes as it is."""
    return uv.tolist() if isinstance(uv, np.ndarray) else uv


def polygon_area(uv) -> float:
    """Signed area of a 2D polygon (positive for CCW)."""
    uv = as_pairs(uv)
    px, py = uv[-1]
    s = 0.0
    for x, y in uv:
        s += px * y - py * x
        px, py = x, y
    return 0.5 * s


def segments_intersect(p, q, r, s) -> bool:
    """Proper intersection of open segments pq and rs."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p, q, r)
    d2 = orient(p, q, s)
    d3 = orient(r, s, p)
    d4 = orient(r, s, q)
    return d1 * d2 < 0 and d3 * d4 < 0


def loop_is_simple(uv) -> bool:
    """True if no two non-adjacent polygon edges cross."""
    uv = as_pairs(uv)
    m = len(uv)
    for i in range(m):
        a, b = uv[i], uv[(i + 1) % m]
        for j in range(i + 2, m):
            if (j + 1) % m == i:
                continue
            if segments_intersect(a, b, uv[j], uv[(j + 1) % m]):
                return False
    return True


def interior_angles(uv) -> list:
    """Interior angle (radians) at each vertex of a CCW polygon."""
    uv = as_pairs(uv)
    out = []
    px, py = uv[-1]
    m = len(uv)
    for k in range(m):
        x, y = uv[k]
        nx, ny = uv[(k + 1) % m]
        v1x, v1y = px - x, py - y
        v2x, v2y = nx - x, ny - y
        ang = math.atan2(v1x * v2y - v1y * v2x, v1x * v2x + v1y * v2y)
        # interior angle = CCW sweep from the outgoing to the incoming edge
        out.append(-ang % (2.0 * math.pi))
        px, py = x, y
    return out


def point_in_polygon(pt, uv) -> bool:
    """Winding-free even-odd test; boundary points are unspecified."""
    x, y = pt
    inside = False
    uv = as_pairs(uv)
    x1, y1 = uv[-1]
    for x2, y2 in uv:
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
        x1, y1 = x2, y2
    return inside


def push_outside(points: np.ndarray, pairs, centers: np.ndarray, guard: float) -> list:
    """Push points out of their owner spheres' guard spheres, in place.

    ``pairs`` holds (point, owner sphere) rows. One array pass finds the
    points inside some owner's guard sphere of radius ``guard``; only those
    are pushed, in point order, one sphere at a time: the nearest owner
    whose guard sphere holds the point moves it radially onto that guard
    sphere. Returns the (point, sphere, distance before the push) pushes.
    Raises GeometryError if a point is still inside after 10 pushes.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = len(centers)
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    pts, owner = keys // n, keys % n
    ray = points[pts] - centers[owner]
    inside = np.unique(pts[np.sqrt(np.vecdot(ray, ray)) < guard])
    lo = np.searchsorted(pts, inside, side="left").tolist()
    hi = np.searchsorted(pts, inside, side="right").tolist()
    pushes = []
    for p, a, b in zip(inside.tolist(), lo, hi):
        cells = owner[a:b].tolist()
        for _ in range(10):
            worst, dworst = None, guard
            for c in cells:
                d = float(np.linalg.norm(points[p] - centers[c]))
                if d < dworst:
                    worst, dworst = c, d
            if worst is None:
                break
            center = centers[worst]
            points[p] = center + (points[p] - center) * (guard / dworst)
            pushes.append((p, worst, dworst))
        else:
            raise GeometryError(
                f"point {p} cannot clear the guard spheres of cells {cells}; "
                "packing too tight for the guard radius"
            )
    return pushes
