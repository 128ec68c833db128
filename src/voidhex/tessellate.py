"""All-quad tessellation of Voronoi facets.

Each facet is decomposed in two phases: large facets first get a barycenter
point with connectors from their near-straight boundary sections, then each
piece is recursively peeled into quads and triangles by quality score. A
final midside subdivision (quad to 4 quads, triangle to 3) makes the patch
all-quad, with edge midpoints registered globally so patches stay conformal
across facets and cells. Interior points live on the facet's original
bisecting plane and are Laplacian-smoothed there.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .geometry import (
    GUARD_RADIUS,
    as_pairs,
    interior_angles,
    loop_is_simple,
    point_in_polygon,
    polygon_area,
    push_outside,
)
from .voronoi import VoronoiCellSet

log = logging.getLogger(__name__)

ANGLE_THRESHOLD = math.radians(155.0)
BIG_VERTICES = 7     # barycenter trigger: vertex count
BIG_AREA = 1.0       # barycenter trigger: facet area, units of R^2
SMOOTH_ITERS = 20    # Jacobi sweeps of in-plane Laplacian smoothing
QUAD_BIAS = 0.9      # multiplicative score bias toward quads


@dataclass
class FacetPatch:
    quads: list                # (4,) global node id tuples, CCW about plane normal
    interior_nodes: list


@dataclass
class FacetQuadMesh:
    """Global tessellation: shared node pool plus one quad patch per facet."""

    nodes: np.ndarray
    patches: dict              # facet id -> FacetPatch
    edge_midpoint: dict        # sorted original-edge vertex pair -> node id
    cellset: VoronoiCellSet
    node_owners: dict = field(default_factory=dict)  # node id -> real cells

    def cell_quads(self, i: int):
        """Facet quads of cell i, each oriented outward (CCW seen from
        outside the cell), with the owning facet id."""
        cs = self.cellset
        out = []
        for fid in cs.cells[i]:
            f = cs.facets[fid]
            if f.deleted or fid not in self.patches:
                continue
            for q in self.patches[fid].quads:
                out.append((fid, q if f.site_a == i else tuple(reversed(q))))
        return out


def group_edges(uv, threshold: float = ANGLE_THRESHOLD) -> list:
    """Partition boundary vertex indices into runs of near-straight vertices.

    Maximal circular runs of vertices whose interior angle exceeds the
    threshold form one group each; every other vertex is its own group.
    The partition is returned in boundary order.
    """
    flagged = [a > threshold for a in interior_angles(uv)]
    n = len(flagged)
    if all(flagged):
        return [list(range(n))]
    # start at an unflagged vertex so runs never wrap the seam
    start = flagged.index(False)
    order = [(start + k) % n for k in range(n)]
    groups = []
    run = []
    for idx in order:
        if flagged[idx]:
            run.append(idx)
        else:
            if run:
                groups.append(run)
                run = []
            groups.append([idx])
    if run:
        groups.append(run)
    groups.sort(key=lambda g: g[0])
    return groups


def _piece_score(pts: list, is_quad: bool) -> float:
    m = len(pts)
    edges = [math.hypot(bx - ax, by - ay)
             for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
    max_angle = max(interior_angles(pts))
    mean = sum(edges) / m
    cv = math.sqrt(sum((e - mean) ** 2 for e in edges) / m) / max(mean, 1e-300)
    score = cv + 0.5 * max(0.0, math.degrees(max_angle) - 120.0) / 60.0
    return score * (QUAD_BIAS if is_quad else 1.0)


def _piece_valid(poly_uv: list, piece: list, poly_convex: bool) -> bool:
    """Is the candidate quad/triangle a valid peel from the polygon?"""
    pts = [poly_uv[k] for k in piece]
    if polygon_area(pts) <= 1e-14:
        return False
    # piece must be convex (tolerating slight flatness)
    if max(interior_angles(pts)) > math.pi - 1e-9:
        return False
    if poly_convex:
        return True
    # no other polygon vertex may sit inside the piece
    for k in range(len(poly_uv)):
        if k not in piece and point_in_polygon(poly_uv[k], pts):
            return False
    rem_pts = [p for k, p in enumerate(poly_uv) if k not in piece[1:-1]]
    if len(rem_pts) >= 3:
        if polygon_area(rem_pts) <= 1e-14:
            return False
        if not loop_is_simple(rem_pts):
            return False
    return True


def _is_convex(uv: list) -> bool:
    return max(interior_angles(uv)) <= math.pi + 1e-12


def _centroid(pts: list) -> tuple:
    """Mean of (x, y) pairs, summed left to right and then divided by the
    count: the same bits as numpy's mean over the stacked rows."""
    sx, sy = pts[0]
    for x, y in pts[1:]:
        sx += x
        sy += y
    m = len(pts)
    return sx / m, sy / m


def split_facet(uv, groups: list, facet_id: int = -1, R: float = 1.0) -> list:
    """Divide a polygon into quads and triangles.

    Phase one inserts a barycenter on large facets and connects one
    near-bisector vertex from every near-straight group, splitting the
    polygon into wedges; a facet is large from BIG_VERTICES vertices or
    BIG_AREA * R^2 area on, with R the bed's sphere radius. Phase two
    recursively peels the best-scoring quad or triangle from each piece.
    Returns a list of (points, labels)
    polygons: points are (x, y) pairs, labels their indices into uv, or
    'bc' for the barycenter.
    """
    uv = as_pairs(uv)
    n = len(uv)
    pieces_idx: list = []
    bc = None

    def connectors():
        bx, by = bc
        picks = []
        ang = interior_angles(uv)
        for g in groups:
            cand = [k for k in g if ang[k] > ANGLE_THRESHOLD]
            if not cand:
                continue
            best, best_bias = None, math.inf
            for k in cand:
                x, y = uv[k]
                to_bc = (bx - x, by - y)
                (ax, ay), (cx, cy) = uv[(k - 1) % n], uv[(k + 1) % n]
                a1 = _angle_between((ax - x, ay - y), to_bc)
                a2 = _angle_between(to_bc, (cx - x, cy - y))
                bias = abs(a1 - a2)
                if bias < best_bias:
                    best, best_bias = k, bias
            picks.append(best)
        return sorted(set(picks))

    if n >= BIG_VERTICES or polygon_area(uv) >= BIG_AREA * R * R:
        bc = _centroid(uv)
        picks = connectors()
        if len(picks) >= 2:
            wedges = []
            for a, b in zip(picks, picks[1:] + [picks[0] + n]):
                arc = [(k % n) for k in range(a, b + 1)]
                pts = [bc] + [uv[k] for k in arc]
                if polygon_area(pts) <= 1e-14 or not loop_is_simple(pts):
                    break
                wedges.append(["bc"] + arc)
            else:
                pieces_idx = wedges
    if not pieces_idx:
        pieces_idx = [list(range(n))]

    out = []
    for piece in pieces_idx:
        pts = [bc if k == "bc" else uv[k] for k in piece]
        out.extend(_peel(pts, list(piece), facet_id))
    return out


def _angle_between(a, b) -> float:
    return math.atan2(abs(a[0] * b[1] - a[1] * b[0]), a[0] * b[0] + a[1] * b[1])


def _peel(pts: list, labels: list, facet_id: int) -> list:
    """Recursively peel quads/triangles off a polygon; returns (pts, labels) pieces."""
    out = []
    while len(pts) > 4:
        m = len(pts)
        convex = _is_convex(pts)
        best = None
        best_score = math.inf
        for size in (4, 3):
            for s in range(m):
                piece = [(s + t) % m for t in range(size)]
                if not _piece_valid(pts, piece, convex):
                    continue
                score = _piece_score([pts[k] for k in piece], size == 4)
                if score < best_score:
                    best, best_score = piece, score
        if best is None:
            raise GeometryError(
                f"facet {facet_id}: no viable quad or triangle peel "
                "(projected loop may self-intersect)"
            )
        out.append(([pts[k] for k in best], [labels[k] for k in best]))
        drop = set(best[1:-1])
        keep = [k for k in range(m) if k not in drop]
        pts = [pts[k] for k in keep]
        labels = [labels[k] for k in keep]
    out.append((pts, labels))
    return out


def _edge_key(a, b):
    """Canonical undirected key for piece labels (ints or the 'bc' tag)."""
    if isinstance(a, int) and isinstance(b, int):
        return (a, b) if a < b else (b, a)
    return (b, a) if isinstance(a, str) else (a, b)


def subdivide_to_quads(pieces: list, get_node) -> list:
    """Midside subdivision: quad -> 4 quads, triangle -> 3 quads.

    ``get_node(kind, key, uv)`` resolves/creates the global node id for a
    corner ('corner', label), an edge midpoint ('mid', sorted label pair)
    or a piece centroid ('centroid', piece index). Returns quad tuples.
    """
    quads = []
    for pi, (pts, labels) in enumerate(pieces):
        m = len(pts)
        corners = [get_node("corner", lab, pts[k]) for k, lab in enumerate(labels)]
        mids = []
        for k in range(m):
            (ax, ay), (bx, by) = pts[k], pts[(k + 1) % m]
            key = _edge_key(labels[k], labels[(k + 1) % m])
            mids.append(get_node("mid", key, (0.5 * (ax + bx), 0.5 * (ay + by))))
        g = get_node("centroid", pi, _centroid(pts))
        if m == 4:
            quads.extend([
                (corners[0], mids[0], g, mids[3]),
                (mids[0], corners[1], mids[1], g),
                (g, mids[1], corners[2], mids[2]),
                (mids[3], g, mids[2], corners[3]),
            ])
        elif m == 3:
            quads.extend([
                (corners[0], mids[0], g, mids[2]),
                (mids[0], corners[1], mids[1], g),
                (mids[2], g, mids[1], corners[2]),
            ])
        else:  # pragma: no cover
            raise GeometryError(f"piece with {m} vertices reached subdivision")
    return quads


def smooth_facet(uv_nodes: dict, quads: list, interior: list):
    """In-plane Laplacian smoothing of the interior patch nodes.

    Each of the SMOOTH_ITERS Jacobi sweeps moves every interior node to
    the mean of its edge-connected neighbors, taken in node id order;
    boundary nodes stay fixed. If any quad inverts, the patch reverts. Returns (node id ->
    (x, y) dict, reverted flag); a reverted patch keeps its input positions.
    """
    neigh = {}
    for q in quads:
        for k in range(4):
            a, b = q[k], q[(k + 1) % 4]
            neigh.setdefault(a, set()).add(b)
            neigh.setdefault(b, set()).add(a)
    cur = dict(uv_nodes)
    interior = [n for n in interior if n in neigh]
    around = [sorted(neigh[n]) for n in interior]
    for _ in range(SMOOTH_ITERS):
        moved = [_centroid([cur[b] for b in nb]) for nb in around]
        cur.update(zip(interior, moved))
    for q in quads:
        if polygon_area([cur[n] for n in q]) <= 0:
            log.warning("facet patch smoothing inverted a quad; reverting")
            return dict(uv_nodes), True
    return cur, False


def tessellate_cells(cs: VoronoiCellSet) -> FacetQuadMesh:
    """Tessellate every live facet into a conformal all-quad patch.

    Each facet is projected onto its bisecting plane once; the patch is
    built and smoothed there on plain floats, and its interior nodes are
    lifted back to 3D once, after smoothing. Every node is then pushed out
    of its owner cells' guard spheres.
    """
    n_points = len(cs.points)
    new_nodes: list = []       # rows of the nodes made here, ids from n_points
    node_owners: dict = {}
    edge_midpoint: dict = {}
    patches = {}

    for fid, f in enumerate(cs.facets):
        if f.deleted:
            continue
        loop = f.loop
        owners = [f.site_a] + ([f.site_b] if f.site_b < cs.n_real else [])
        rel = cs.points[loop] - f.plane_point
        uv = list(zip((rel @ f.e1).tolist(), (rel @ f.e2).tolist()))
        if polygon_area(uv) <= 0:
            raise GeometryError(f"facet {fid} projects to a non-positive area loop")
        groups = group_edges(uv)
        pieces = split_facet(uv, groups, facet_id=fid, R=cs.bed.radius_nominal)

        local_uv: dict = {}
        local_mid: dict = {}
        local_centroid: dict = {}
        interior_nodes = []

        def new_interior():
            nid = n_points + len(new_nodes)
            new_nodes.append(None)  # lifted after smoothing
            interior_nodes.append(nid)
            return nid

        def get_node(kind, key, uv_pt):
            if kind == "corner":
                if key == "bc":
                    if "bc" not in local_centroid:
                        local_centroid["bc"] = new_interior()
                    nid = local_centroid["bc"]
                else:
                    nid = loop[key]
            elif kind == "mid":
                a, b = key
                if isinstance(a, int) and isinstance(b, int):
                    ga, gb = loop[a], loop[b]
                    gkey = (ga, gb) if ga < gb else (gb, ga)
                    adjacent = abs(a - b) == 1 or {a, b} == {0, len(loop) - 1}
                    if adjacent:
                        # midpoint of an original facet edge: global registry
                        if gkey not in edge_midpoint:
                            edge_midpoint[gkey] = n_points + len(new_nodes)
                            new_nodes.append(0.5 * (cs.points[ga] + cs.points[gb]))
                        nid = edge_midpoint[gkey]
                        local_uv[nid] = uv_pt
                        node_owners.setdefault(nid, set()).update(owners)
                        return nid
                # interior cut edge: shared within this facet only
                if key not in local_mid:
                    local_mid[key] = new_interior()
                nid = local_mid[key]
            else:  # centroid
                if key not in local_centroid:
                    local_centroid[key] = new_interior()
                nid = local_centroid[key]
            local_uv[nid] = uv_pt
            node_owners.setdefault(nid, set()).update(owners)
            return nid

        quads = subdivide_to_quads(pieces, get_node)
        smoothed, _reverted = smooth_facet(local_uv, quads, interior_nodes)
        U = np.array([smoothed[nid] for nid in interior_nodes])
        lifted = f.plane_point + U[:, :1] * f.e1 + U[:, 1:2] * f.e2
        for nid, row in zip(interior_nodes, lifted):
            new_nodes[nid - n_points] = row
        patches[fid] = FacetPatch(
            quads=[tuple(int(x) for x in q) for q in quads],
            interior_nodes=list(interior_nodes),
        )
        for v in loop:
            node_owners.setdefault(v, set()).update(owners)

    mesh = FacetQuadMesh(
        nodes=np.vstack([cs.points, np.array(new_nodes).reshape(-1, 3)]),
        patches=patches,
        edge_midpoint=edge_midpoint,
        cellset=cs,
        node_owners=node_owners,
    )
    pairs = [(nid, c) for nid, owners in node_owners.items() for c in owners]
    push_outside(mesh.nodes, pairs, cs.bed.centers, GUARD_RADIUS * cs.bed.radius_nominal)
    return mesh
