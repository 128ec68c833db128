"""All-quad tessellation of Voronoi facets.

One Python loop over the facets projects each onto its bisecting plane and
cuts it into pieces there, in `split_facet`: spokes from the facet's
barycenter to its near-straight vertices and to every other corner between
them cut it into triangles and quads, each valid by construction or the
split raises. The per-facet loop ends at `split_facet`; the rest are
array passes over the pieces of all facets at once, and over the cell
set's loop arrays (``loop_start``, ``loop_vertex``), which a corner label
indexes. The area threshold, `PIECE_AREA`, is in units of R^2.

`number_patches` makes every patch all-quad by midside subdivision (quad
to 4 quads, triangle to 3), one constant index template per piece size,
and numbers the new nodes in one first-use pass over their keys. An
original edge's midpoint is keyed by its two vertices, so patches stay
conformal across facets and cells. Interior points live on the facet's
original bisecting plane and are Laplacian-smoothed there.

The smoothing is one array pass over every patch at once. That does what
one pass per patch would: a patch's interior nodes are its own (no other
patch uses them), and its boundary nodes, which patches share, never
move, so no patch reads a node another patch writes. Each patch node is a
slot holding its position in its own facet's plane, and a shared boundary
node gets one slot per patch.

The tessellation ends with one guard check over every (node, real owner
cell) row (`geometry.check_guard`); it moves no node.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import (
    GUARD_RADIUS,
    as_pairs,
    check_guard,
    first_seen,
    interior_angles,
    polygon_area,
    polygon_areas,
)
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
    edge_midpoints: np.ndarray  # (M, 3) rows (a, b, node): the midpoint of edge a < b
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


def _centroid(pts: list) -> tuple:
    """Mean of (x, y) pairs, summed left to right and then divided by the
    count: the same bits as numpy's mean over the stacked rows."""
    sx, sy = pts[0]
    for x, y in pts[1:]:
        sx += x
        sy += y
    m = len(pts)
    return sx / m, sy / m


def _valid(pts: list, R: float) -> bool:
    """A piece is valid when its area is over PIECE_AREA R^2 and every angle
    is under 180 degrees less 1e-9 rad."""
    return polygon_area(pts) > PIECE_AREA * R * R and max(interior_angles(pts)) < math.pi - 1e-9


def split_facet(uv, facet_id: int = -1, R: float = 1.0) -> list:
    """Divide a polygon into quads and triangles about its barycenter.

    A vertex is near-straight when its interior angle is over
    ANGLE_THRESHOLD. A valid polygon of at most 4 vertices, none
    near-straight, is one piece. Otherwise spokes run from the barycenter
    to every near-straight vertex and, in each run of corners between two
    of them, to every other corner from the run's second on; with no
    near-straight vertex, to vertices 0, 2, 4, ... Each span between
    consecutive spokes makes one piece with the barycenter: a triangle, or
    a quad about the span's one corner, which splits at that corner into
    two triangles if it is not valid (`_valid`, with R the bed's sphere
    radius). Returns a list of (points, labels) pieces: points are (x, y)
    pairs, labels their indices into uv, or len(uv) for the barycenter.
    Raises GeometryError if a piece is still not valid.
    """
    uv = as_pairs(uv)
    n = len(uv)
    straight = [k for k, a in enumerate(interior_angles(uv)) if a > ANGLE_THRESHOLD]
    if n <= 4 and not straight and _valid(uv, R):
        return [(uv, list(range(n)))]
    spokes = [] if straight else list(range(0, n, 2))
    for a, b in zip(straight, straight[1:] + straight[:1]):
        spokes += [a] + [k % n for k in range(a + 1, b + n * (b <= a))][1::2]
    bc = _centroid(uv)
    out = []
    for a, b in zip(spokes, spokes[1:] + spokes[:1]):
        # the span's corners: two for a triangle, three for a quad
        todo = [[k % n for k in range(a, b + n * (b <= a) + 1)]]
        while todo:
            piece = todo.pop()
            pts = [bc] + [uv[k] for k in piece]
            if _valid(pts, R):
                out.append((pts, [n] + piece))
            elif len(piece) == 3:   # the quad splits at its corner, first half first
                todo += [piece[1:], piece[:2]]
            else:
                raise GeometryError(f"facet {facet_id}: not star-shaped about its barycenter")
    return out


# A piece's node list: corners 0-3, the midpoints 4-7 of its sides (side s
# runs from corner s to corner s + 1) and its centroid 8. A triangle's
# corners are repeated to four, so its corner 3 is corner 0, its side 2
# ends there, and it uses neither 3 nor 7.
_TEMPLATES = np.array([
    [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)],  # quad -> 4 quads
    [(0, 4, 8, 6), (4, 1, 5, 8), (6, 8, 5, 2), (0, 0, 0, 0)],  # triangle -> 3 quads
])


def number_patches(pieces: list, facet: list, loop_start: np.ndarray,
                   loop_vertex: np.ndarray, n_points: int):
    """Midside subdivision of split facets into quad patches, numbered.

    ``pieces`` holds the (points, labels) pieces of `split_facet`, facet
    after facet, ``facet`` the facet id of each piece, and ``loop_start``
    and ``loop_vertex`` every facet's loop, as a cell set holds them. A corner labelled k is
    vertex k of its loop. The barycenter (labelled with the loop length),
    every side midpoint and every centroid is a new node, numbered from
    ``n_points`` in order of first use through the node lists. The midpoint
    of an original loop edge is keyed by its two vertices, so every facet
    with that edge shares it; the other new nodes belong to one facet.

    Returns (quads, quad_slots, slots, xy, mids): the (Q, 4) quads as node
    ids, piece by piece, and as slot ids; the sorted (S, 2) slots
    (facet, node), one per node of each patch; the (S, 2) position of each
    slot in its facet's plane; and the (M, 3) rows (a, b, node) of the
    original-edge midpoints, a < b, in node order.
    """
    lab = np.array([(list(lb) * 2)[:4] for _, lb in pieces], dtype=np.int64).reshape(-1, 4)
    pts = np.array([(list(pt) * 2)[:4] for pt, _ in pieces], dtype=float).reshape(-1, 4, 2)
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
    ids, first = first_seen(key[new])
    node = va.copy()
    node[new] = n_points + ids
    on_edge = edge[new][first]
    mids = np.column_stack([a[new][first][on_edge], b[new][first][on_edge],
                            n_points + np.flatnonzero(on_edge)])

    # each node's position in its piece's plane; the centroid is summed
    # left to right and then divided, as `_centroid` does
    centroid = pts[:, 0] + pts[:, 1] + pts[:, 2]
    centroid[~tri] += pts[~tri, 3]
    centroid /= np.where(tri, 3.0, 4.0)[:, None]
    xy = np.concatenate([pts, 0.5 * (pts + np.roll(pts, -1, axis=1)), centroid[:, None]], axis=1)

    n_nodes = n_points + len(first)
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
    xy = np.asarray(xy, dtype=float)
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    quad_patch = np.asarray(quad_patch)
    n = len(xy)
    a, b = quads.ravel(), np.roll(quads, -1, axis=1).ravel()
    # the (slot, neighbor) pairs, sorted by slot and then by neighbor
    pair = np.unique(np.concatenate([a * n + b, b * n + a]))
    src, dst = pair // n, pair % n
    deg = np.bincount(src, minlength=n)
    start = np.concatenate([[0], np.cumsum(deg)[:-1]])
    moving = np.flatnonzero(np.asarray(moving, dtype=bool) & (deg > 0))
    groups = []    # (slots, (k, d) neighbor slots) per degree d
    for d in np.unique(deg[moving]).tolist():
        rows = moving[deg[moving] == d]
        groups.append((rows, dst[start[rows, None] + np.arange(d)]))
    cur = xy.copy()
    for _ in range(SMOOTH_ITERS):
        moved = []
        for rows, nb in groups:
            acc = cur[nb[:, 0]]
            for c in range(1, nb.shape[1]):
                acc += cur[nb[:, c]]
            moved.append(acc / nb.shape[1])
        for (rows, _), new in zip(groups, moved):
            cur[rows] = new
    area = polygon_areas(cur[quads, 0], cur[quads, 1])
    reverted = np.unique(quad_patch[area <= 0]).tolist()
    for pid in reverted:
        log.warning("facet %s: patch smoothing inverted a quad; reverting", pid)
    back = quads[np.isin(quad_patch, reverted)].ravel()
    cur[back] = xy[back]
    return cur, reverted


def tessellate_cells(cs: VoronoiCellSet) -> FacetQuadMesh:
    """Tessellate every live facet into a conformal all-quad patch.

    Each facet is projected onto its bisecting plane once and split into
    pieces there, on plain floats. `number_patches` turns the pieces of
    all facets into numbered quads, and every patch is smoothed in one
    `smooth_patches` pass, keyed by facet id, with each patch's slots in
    node id order. The interior nodes are lifted back to 3D in one array
    expression. Raises GeometryError if a node lies inside the guard sphere
    of a real cell its facet bounds (`geometry.check_guard`).
    """
    pieces: list = []
    piece_facet: list = []
    for fid in np.flatnonzero(np.diff(cs.loop_start) >= 3).tolist():
        rel = cs.points[cs.loop(fid)] - cs.plane_point[fid]
        uv = list(zip((rel @ cs.e1[fid]).tolist(), (rel @ cs.e2[fid]).tolist()))
        if polygon_area(uv) <= 0:
            raise GeometryError(f"facet {fid} projects to a non-positive area loop")
        split = split_facet(uv, facet_id=fid, R=cs.bed.radius_nominal)
        pieces += split
        piece_facet += [fid] * len(split)

    n_points = len(cs.points)
    quads, quad_slots, slots, xy, mids = number_patches(
        pieces, piece_facet, cs.loop_start, cs.loop_vertex, n_points)
    quad_facet = slots[quad_slots[:, 0], 0]
    nodes = np.empty((int(slots[:, 1].max(initial=n_points - 1)) + 1, 3))
    nodes[:n_points] = cs.points
    nodes[mids[:, 2]] = 0.5 * (cs.points[mids[:, 0]] + cs.points[mids[:, 1]])
    interior = np.ones(len(nodes), dtype=bool)
    interior[:n_points] = interior[mids[:, 2]] = False
    moving = interior[slots[:, 1]]
    smoothed, _reverted = smooth_patches(xy, quad_slots, quad_facet, moving)
    # the lift, plane_point + u e1 + v e2, of every interior node at once
    facet, nid = slots[moving].T
    u, v = smoothed[moving, :1], smoothed[moving, 1:]
    nodes[nid] = cs.plane_point[facet] + u * cs.e1[facet] + v * cs.e2[facet]

    # every node of a patch is owned by its facet's real cells
    site_a, site_b = cs.site_a[slots[:, 0]], cs.site_b[slots[:, 0]]
    real_b = site_b < cs.n_real
    m = len(cs.sites)
    owned = np.unique(np.concatenate([slots[:, 1] * m + site_a,
                                      slots[real_b, 1] * m + site_b[real_b]]))
    mesh = FacetQuadMesh(nodes=nodes, quads=quads, quad_facet=quad_facet,
                         owners=np.column_stack([owned // m, owned % m]),
                         edge_midpoints=mids, cellset=cs)
    check_guard(mesh.nodes, mesh.owners, cs.bed.centers, GUARD_RADIUS * cs.bed.radius_nominal)
    return mesh
