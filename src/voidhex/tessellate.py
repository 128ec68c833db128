"""All-quad tessellation of Voronoi facets.

The facets are split in one array pass per loop length n, `split_loops`:
the live facets of n vertices are projected onto their bisecting planes
together, as (F, n) coordinates, and cut into pieces there. Spokes from a
facet's barycenter to its near-straight vertices and to every other corner
between them cut it into triangles and quads, each valid by construction
or the facet is reported. The pieces of all loop lengths are merged by
facet id; the rest are array passes over the pieces of all facets at once,
and over the cell set's loop arrays (``loop_start``, ``loop_vertex``),
which a corner label indexes. No Python loop runs over the facets or the
pieces. The area threshold, `PIECE_AREA`, is in units of R^2.

`number_patches` makes every patch all-quad by midside subdivision (quad
to 4 quads, triangle to 3), one constant index template per piece size,
and numbers the new nodes by one `np.unique` of their keys. An original
edge's midpoint is keyed by its two vertices, so patches stay conformal
across facets and cells, and these midpoints are the first new nodes.
Interior points live on the facet's original bisecting plane and are
Laplacian-smoothed there.

The smoothing is one array pass over every patch at once. That does what
one pass per patch would: a patch's interior nodes are its own (no other
patch uses them), and its boundary nodes, which patches share, never
move, so no patch reads a node another patch writes. Each patch node is a
slot holding its position in its own facet's plane, and a shared boundary
node gets one slot per patch. Each Jacobi sweep is one sparse product, of
a CSR matrix with a row per moving slot and a 1 at each of its neighbors.

The tessellation ends with one guard check over every (node, real owner
cell) row (`geometry.check_guard`); it moves no node.

Importing this module loads no scipy: `smooth_patches` loads
`scipy.sparse` on its first call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import GUARD_RADIUS, check_guard, corner_angles, distinct, polygon_areas
from .voronoi import VoronoiCellSet

log = logging.getLogger(__name__)

ANGLE_THRESHOLD = math.radians(155.0)  # a vertex over this angle is near-straight
SMOOTH_ITERS = 20    # Jacobi sweeps of in-plane Laplacian smoothing
# A valid piece has more area than this, in units of R^2: a hundred times
# repair's `FLAT_LOOP_AREA`, so a piece is clear of the rounding of its area.
PIECE_AREA = 1e-14


@dataclass
class FacetPatch:
    quads: np.ndarray          # (q, 4) node ids, CCW about the facet's plane normal


@dataclass
class FacetQuadMesh:
    """Global tessellation: a shared node pool and the quads of every
    facet's patch, as arrays."""

    nodes: np.ndarray          # (P, 3): the cell set's points, then the new nodes
    quads: np.ndarray          # (Q, 4) node ids, by facet id, then in patch order
    quad_facet: np.ndarray     # (Q,) facet id of each quad
    owners: np.ndarray         # (O, 2) unique (node, real cell) rows, sorted
    edge_midpoints: np.ndarray  # (M, 3) rows (a, b, n_points + i), a < b, in (a, b) order
    cellset: VoronoiCellSet

    @property
    def patches(self) -> dict:
        """{facet id: FacetPatch} of that facet's rows of ``quads``; a view
        for readers outside the package, built on each call."""
        fids, start = np.unique(self.quad_facet, return_index=True)
        return {f: FacetPatch(q) for f, q in zip(fids.tolist(), np.split(self.quads, start[1:]))}

    def outward_quads(self):
        """(cell, facet, quad) arrays with a row for every quad and each real
        cell of its facet, the quad turned outward (CCW seen from outside
        that cell), in order of cell, facet id and patch."""
        cs = self.cellset
        site_a, site_b = cs.site_a[self.quad_facet], cs.site_b[self.quad_facet]
        real_b = site_b < cs.n_real
        cell = np.concatenate([site_a, site_b[real_b]])
        facet = np.concatenate([self.quad_facet, self.quad_facet[real_b]])
        order = np.argsort(cell * len(cs.site_a) + facet, kind="stable")
        quads = np.vstack([self.quads, self.quads[real_b, ::-1]])
        return cell[order], facet[order], quads[order]


def _valid(x: np.ndarray, y: np.ndarray, R: float) -> np.ndarray:
    """Is each row of the (P, m) coordinates a valid piece: its area over
    PIECE_AREA R^2 and every angle under 180 degrees less 1e-9 rad?"""
    return ((polygon_areas(x, y) > PIECE_AREA * R * R)
            & (corner_angles(x, y).max(axis=1) < math.pi - 1e-9))


def split_loops(x: np.ndarray, y: np.ndarray, R: float):
    """Divide polygons of one size n into quads and triangles about their
    barycenters, all at once.

    ``x``, ``y`` are the (F, n) coordinates of F CCW polygons, and R is the
    bed's sphere radius. A vertex is near-straight when its interior angle
    is over ANGLE_THRESHOLD. A valid polygon (`_valid`) of at most 4
    vertices, none near-straight, is one piece. In any other polygon a
    vertex is a spoke when its cyclic distance from the last near-straight
    vertex at or before it is even, or, with no near-straight vertex, when
    its index is even. Each span between consecutive spokes, from the first
    near-straight vertex on (or from vertex 0), makes one piece with the
    barycenter (the mean of the vertices, summed left to right): a
    triangle, or a quad about the span's one corner, which splits at that
    corner into two triangles, the first half first, if it is not valid.

    Returns (row, lab, pts, flat, not_star): the polygon of each piece, in
    order of polygon and then of piece; the (P, 4) labels of each piece's
    corners, a vertex index or n for the barycenter, a triangle's first
    corner repeated as its fourth; their (P, 4, 2) points; and for each
    polygon whether its area is not positive, and whether a piece is
    still not valid (the polygon is not star-shaped about its barycenter).
    """
    F, n = x.shape
    j = np.arange(n)
    area = polygon_areas(x, y)
    # label n is the barycenter
    ex = np.hstack([x, np.cumsum(x, axis=1)[:, -1:] / n])
    ey = np.hstack([y, np.cumsum(y, axis=1)[:, -1:] / n])
    straight = corner_angles(x, y) > ANGLE_THRESHOLD
    has = straight.any(axis=1)
    whole = ~has & _valid(x, y, R) if n <= 4 else np.zeros(F, dtype=bool)

    # the last near-straight vertex at or before each vertex, one turn back
    # before a row's first; 0 in a row with none
    last = np.maximum.accumulate(np.where(straight, j, -1), axis=1)
    last = np.where(last >= 0, last, last[:, -1:] - n) * has[:, None]
    spoke = (j - last) % 2 == 0
    rows = np.flatnonzero(~whole)
    vert = (np.argmax(straight[rows], axis=1)[:, None] + j) % n   # from each row's first spoke
    r, c = np.nonzero(spoke[rows[:, None], vert])
    end = np.full(len(c), n)    # the column of the next spoke
    same = r[1:] == r[:-1]
    end[:-1][same] = c[1:][same]
    row = rows[r]
    s0, s1, s2 = vert[r, c], vert[r, (c + 1) % n], vert[r, (c + 2) % n]
    bar = np.full(len(c), n)

    def valid(span, lab):   # the pieces of these spans, with these corner labels
        return _valid(ex[row[span, None], lab], ey[row[span, None], lab], R)

    quads = np.flatnonzero(end - c == 2)
    quad_lab = np.column_stack([bar, s0, s1, s2])[quads]
    keep = valid(quads, quad_lab)
    halves = quads[~keep]   # the quads that split at their corner
    tri = np.concatenate([np.flatnonzero(end - c == 1), halves, halves])
    tri_lab = np.column_stack([bar, s0, s1, bar])[tri]
    tri_lab[len(tri) - len(halves):, 1:3] = np.column_stack([s1, s2])[halves]   # second halves
    not_star = np.zeros(F, dtype=bool)
    not_star[row[tri[~valid(tri, tri_lab[:, :3])]]] = True

    # every piece, keyed by its polygon and its place there: 2 c for the
    # span from column c, and 2 c + 1 for a split quad's second half
    span = np.concatenate([quads[keep], tri])
    second = np.arange(len(span)) >= len(span) - len(halves)
    row = np.concatenate([np.flatnonzero(whole), row[span]])
    place = np.concatenate([np.zeros(whole.sum(), dtype=np.int64), 2 * c[span] + second])
    lab = np.vstack([np.tile(np.resize(j, 4), (whole.sum(), 1)), quad_lab[keep], tri_lab])
    order = np.lexsort((place, row))
    row, lab = row[order], lab[order]
    pts = np.stack([ex[row[:, None], lab], ey[row[:, None], lab]], axis=-1)
    return row, lab, pts, area <= 0, not_star


# A piece's node list: corners 0-3, the midpoints 4-7 of its sides (side s
# runs from corner s to corner s + 1) and its centroid 8. A triangle's
# corners are repeated to four, so its corner 3 is corner 0, its side 2
# ends there, and it uses neither 3 nor 7.
_TEMPLATES = np.array([
    [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)],  # quad -> 4 quads
    [(0, 4, 8, 6), (4, 1, 5, 8), (6, 8, 5, 2), (0, 0, 0, 0)],  # triangle -> 3 quads
])


def number_patches(lab: np.ndarray, pts: np.ndarray, facet: np.ndarray,
                   loop_start: np.ndarray, loop_vertex: np.ndarray, n_points: int):
    """Midside subdivision of split facets into quad patches, numbered.

    ``lab`` and ``pts`` hold the (P, 4) corner labels and the (P, 4, 2)
    corner points of the pieces of `split_loops`, facet after facet,
    ``facet`` the facet id of each piece, and ``loop_start`` and
    ``loop_vertex`` every facet's loop, as a cell set holds them. A corner
    labelled k is vertex k of its loop. The barycenter (labelled with the
    loop length), every side midpoint and every centroid is a new node,
    numbered from ``n_points`` by one `np.unique` of their keys. The
    midpoint of an original loop edge is keyed by its two vertices, so
    every facet with that edge shares it, and these come first, in (a, b)
    order; then each facet's cut-edge midpoints and barycenter, by facet
    and label pair; then the centroids, piece by piece.

    Returns (quads, quad_slots, slots, xy, mids): the (Q, 4) quads as node
    ids, piece by piece, and as slot ids; the sorted (S, 2) slots
    (facet, node), one per node of each patch; the (S, 2) position of each
    slot in its facet's plane; and the (M, 3) rows (a, b, node) of the
    original-edge midpoints, a < b, in (a, b) order: nodes ``n_points`` to
    ``n_points + M - 1``.
    """
    tri = lab[:, 3] == lab[:, 0]    # a quad's four labels differ
    facet = np.asarray(facet, dtype=np.int64)
    size = np.diff(loop_start)
    n = size[facet][:, None]
    # label j of facet f is vertex[at[f] + j]; each loop is followed by -1, the barycenter
    vertex = np.insert(loop_vertex, loop_start[1:], -1)
    at = (loop_start[:-1] + np.arange(len(size)))[facet][:, None]
    # each node's label pair: (j, j) at corner j, its side's ends at a
    # midpoint, and the barycenter's (n, n) as a stand-in at the centroid
    ends = np.roll(lab, -1, axis=1)
    lo = np.hstack([lab, np.minimum(lab, ends), n])
    hi = np.hstack([lab, np.maximum(lab, ends), n])
    va, vb = vertex[at + lo], vertex[at + hi]
    a, b = np.minimum(va, vb), np.maximum(va, vb)
    edge = (hi < n) & ((hi - lo == 1) | (hi - lo == n - 1))   # an original edge
    valid = ~(tri[:, None] & np.isin(np.arange(9), (3, 7)))
    new = valid & ~((np.arange(9) < 4) & (lo < n))   # all but the loop corners

    # node keys: an original edge by its vertex pair, below n_points**2; a
    # facet's barycenter and cut edges by facet and label pair; then each
    # centroid by its piece
    w = int(size.max(initial=0)) + 1
    key = n_points * n_points + (facet[:, None] * w + lo) * w + hi
    key[:, 8] = n_points * n_points + len(size) * w * w + np.arange(len(lab))
    key[edge] = a[edge] * n_points + b[edge]
    uniq, ids = np.unique(key[new], return_inverse=True)
    node = va.copy()
    node[new] = n_points + ids
    # the original-edge midpoints, keyed below n_points**2, come first
    m = uniq[:uniq.searchsorted(n_points * n_points)]
    mids = np.column_stack([*np.divmod(m, n_points), n_points + np.arange(len(m))])

    # each node's position in its piece's plane; the centroid is summed
    # left to right and then divided
    centroid = pts[:, 0] + pts[:, 1] + pts[:, 2]
    centroid[~tri] += pts[~tri, 3]
    centroid /= np.where(tri, 3.0, 4.0)[:, None]
    xy = np.concatenate([pts, 0.5 * (pts + np.roll(pts, -1, axis=1)), centroid[:, None]], axis=1)

    n_nodes = n_points + len(uniq)
    slots, where, inverse = np.unique((facet[:, None] * n_nodes + node)[valid],
                                      return_index=True, return_inverse=True)
    slot = np.full(valid.shape, -1)
    slot[valid] = inverse
    corner = _TEMPLATES[tri.astype(int)] + 9 * np.arange(len(lab))[:, None, None]
    corner = corner[~(tri[:, None] & (np.arange(4) == 3))]
    return (node.ravel()[corner], slot.ravel()[corner],
            np.column_stack([slots // n_nodes, slots % n_nodes]), xy[valid][where], mids)


def smooth_patches(xy: np.ndarray, quads: np.ndarray, quad_patch: np.ndarray,
                   moving: np.ndarray):
    """In-plane Laplacian smoothing of many quad patches in one pass.

    ``xy`` holds the (S, 2) slot positions, each slot one node of one patch
    in that patch's plane; ``quads`` the (Q, 4) quads as slot ids and
    ``quad_patch`` the patch id of each quad; ``moving`` marks the slots of
    interior nodes. Each of the SMOOTH_ITERS Jacobi sweeps moves every
    moving slot to the mean of its edge-connected neighbors, summed in slot
    order (node id order when a patch's slots are numbered so) and then
    divided by their count; the other slots stay fixed. A patch in which a
    quad inverts keeps its input positions. Returns the new (S, 2)
    positions and the sorted ids of the patches that reverted.
    """
    from scipy import sparse

    xy = np.asarray(xy, dtype=float)
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    quad_patch = np.asarray(quad_patch)
    n = len(xy)
    a, b = quads.ravel(), np.roll(quads, -1, axis=1).ravel()
    # the (slot, neighbor) pairs, sorted by slot and then by neighbor
    pair = distinct(np.concatenate([a * n + b, b * n + a]))
    src, dst = pair // n, pair % n
    deg = np.bincount(src, minlength=n)
    moving = np.asarray(moving, dtype=bool) & (deg > 0)
    # one row per moving slot, with a 1 at each of its neighbors: a CSR
    # product adds a row's neighbors in column order
    nb = dst[moving[src]]
    start = np.concatenate([[0], np.cumsum(deg[moving])])
    adjacency = sparse.csr_array((np.ones(len(nb)), nb, start), shape=(len(start) - 1, n))
    count = deg[moving, None]
    cur = xy.copy()
    for _ in range(SMOOTH_ITERS):
        cur[moving] = (adjacency @ cur) / count
    area = polygon_areas(cur[quads, 0], cur[quads, 1])
    reverted = distinct(quad_patch[area <= 0]).tolist()
    for pid in reverted:
        log.warning("facet %s: patch smoothing inverted a quad; reverting", pid)
    back = quads[np.isin(quad_patch, reverted)].ravel()
    cur[back] = xy[back]
    return cur, reverted


def tessellate_cells(cs: VoronoiCellSet) -> FacetQuadMesh:
    """Tessellate every live facet into a conformal all-quad patch.

    The facets of each loop length are projected onto their bisecting
    planes and split there by one `split_loops` call, and a stable sort by
    facet id merges their pieces. `number_patches` turns the pieces of
    all facets into numbered quads, and every patch is smoothed in one
    `smooth_patches` pass, keyed by facet id, with each patch's slots in
    node id order. The interior nodes are lifted back to 3D in one array
    expression. Raises GeometryError for the lowest facet id that projects
    to a non-positive area or is not star-shaped about its barycenter (the
    area, if both), and after the smoothing if a node lies inside the guard
    sphere of a real cell its facet bounds (`geometry.check_guard`).
    """
    size = np.diff(cs.loop_start)
    fault = np.zeros(len(size), dtype=np.int8)   # 1: a non-positive area; 2: not star-shaped
    parts = [(np.empty(0, dtype=np.int64), np.empty((0, 4), dtype=np.int64), np.empty((0, 4, 2)))]
    for n in distinct(size[size >= 3]).tolist():
        fs = np.flatnonzero(size == n)
        loops = cs.loop_vertex[cs.loop_start[fs, None] + np.arange(n)]
        rel = cs.points[loops] - cs.plane_point[fs, None]
        row, lab, pts, flat, not_star = split_loops(
            np.matvec(rel, cs.e1[fs]), np.matvec(rel, cs.e2[fs]), cs.bed.radius_nominal)
        fault[fs] = np.where(flat, 1, 2 * not_star)
        parts.append((fs[row], lab, pts))
    bad = np.flatnonzero(fault)[:1].tolist()
    if bad and fault[bad[0]] == 1:
        raise GeometryError(f"facet {bad[0]} projects to a non-positive area loop")
    if bad:
        raise GeometryError(f"facet {bad[0]}: not star-shaped about its barycenter")
    piece_facet, lab, pts = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(piece_facet, kind="stable")

    n_points = len(cs.points)
    quads, quad_slots, slots, xy, mids = number_patches(
        lab[order], pts[order], piece_facet[order], cs.loop_start, cs.loop_vertex, n_points)
    quad_facet = slots[quad_slots[:, 0], 0]
    nodes = np.empty((int(slots[:, 1].max(initial=n_points - 1)) + 1, 3))
    nodes[:n_points] = cs.points
    nodes[mids[:, 2]] = 0.5 * (cs.points[mids[:, 0]] + cs.points[mids[:, 1]])
    moving = slots[:, 1] >= n_points + len(mids)
    smoothed, _reverted = smooth_patches(xy, quad_slots, quad_facet, moving)
    # the lift, plane_point + u e1 + v e2, of every interior node at once
    facet, nid = slots[moving].T
    u, v = smoothed[moving, :1], smoothed[moving, 1:]
    nodes[nid] = cs.plane_point[facet] + u * cs.e1[facet] + v * cs.e2[facet]

    # every node of a patch is owned by its facet's real cells
    site_a, site_b = cs.site_a[slots[:, 0]], cs.site_b[slots[:, 0]]
    real_b = site_b < cs.n_real
    m = len(cs.sites)
    owned = distinct(np.concatenate([slots[:, 1] * m + site_a,
                                     slots[real_b, 1] * m + site_b[real_b]]))
    mesh = FacetQuadMesh(nodes=nodes, quads=quads, quad_facet=quad_facet,
                         owners=np.column_stack([owned // m, owned % m]),
                         edge_midpoints=mids, cellset=cs)
    check_guard(mesh.nodes, mesh.owners, cs.bed.centers, GUARD_RADIUS * cs.bed.radius_nominal)
    return mesh
