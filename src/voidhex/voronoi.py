"""Bounded Voronoi cells via ghost-sphere reflection.

Centers near the container boundary are reflected outside it so every real
cell comes out bounded; the reflected sites are called ghost spheres. The
diagram itself is delegated to Qhull (scipy), after which facet loops are
assembled, deduplicated, ordered and listed per real sphere. A facet lies
on the container boundary when its site_b is a ghost (``site_b >= n_real``),
and on that ghost's wall exactly when the ghost reflects its own site_a
(`GhostSet`); no tolerance decides it, and the cell set stores no tag.

A `VoronoiCellSet` holds its facets as one table: its facet columns have
one row per facet id. A facet is stored once and shared by its two cells.
Its loop runs counterclockwise about ``plane_normal``, which points from
site_a to site_b, so cell site_a sees it CCW from outside and the other
cell uses it reversed. The loops are CSR arrays, one flat array of entries
and one of start offsets (``loop_vertex``, ``loop_start``), and so are the
cells' facet ids (``cell_facet``, ``cell_start``). Only repair changes a
facet, and only its loop; a facet whose loop has fewer than 3 vertices is
deleted (repair empties it), and no flag is stored. `VoronoiCellSet.facets`
is a read-only view of the table, one record per facet, for code outside
the package.

Importing this module loads no scipy: `build_cells` loads `scipy.spatial`
on its first call, and `_dedup_vertices` `scipy.sparse` too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .bed import RADIAL, SphereBed
from .errors import GeometryError, ValidationError
from .geometry import norms, plane_basis, polygon_areas

VERTEX_DEDUP_TOL = 1e-10
PLANARITY_TOL = 1e-9
VALIDATE_BLOCK = 64  # cells per array pass of _validate_cells
# A ridge whose shoelace sum (twice its area) is under this, in units of
# R^2, is degenerate: the square of VERTEX_DEDUP_TOL, the area of a ridge no
# wider than the distance at which two vertices merge.
DEGENERATE_RIDGE_AREA = 1e-20


@dataclass(frozen=True)
class GhostSet:
    ghost_centers: np.ndarray  # (G, 3): ghost g is site n + g
    parent: np.ndarray  # (G,) int64 site reflected: a center i < n, or n + j for radial ghost j
    wall: np.ndarray    # (G,) int64 index in domain.walls of the wall it was reflected across


class FacetRecord(NamedTuple):
    """One row of a `VoronoiCellSet` facet table; ``deleted`` is derived
    from the loop length."""

    loop: list
    site_a: int
    site_b: int
    plane_point: np.ndarray
    plane_normal: np.ndarray
    deleted: bool
    e1: np.ndarray
    e2: np.ndarray


class FacetView(Sequence):
    """The facet table of a cell set as a read-only sequence of
    `FacetRecord`, built one record per index; ``len`` builds none."""

    def __init__(self, cs: VoronoiCellSet):
        self._cs = cs

    def __len__(self) -> int:
        return len(self._cs.site_a)

    def __getitem__(self, fid: int) -> FacetRecord:
        cs = self._cs
        fid = range(len(self))[fid]
        loop = cs.loop(fid).tolist()
        return FacetRecord(loop, int(cs.site_a[fid]), int(cs.site_b[fid]),
                           cs.plane_point[fid], cs.plane_normal[fid], len(loop) < 3,
                           cs.e1[fid], cs.e2[fid])


@dataclass
class VoronoiCellSet:
    points: np.ndarray           # shared vertex pool, grows during repair
    loop_start: np.ndarray       # (F + 1,) int64: where each facet's loop starts in loop_vertex
    loop_vertex: np.ndarray      # int64 vertex ids of every loop, each CCW about plane_normal
    site_a: np.ndarray           # (F,) int64: the real site; site_a < site_b
    site_b: np.ndarray           # (F,) int64: a ghost site is numbered after every real one
    plane_point: np.ndarray      # (F, 3)
    plane_normal: np.ndarray     # (F, 3) unit normals, site_a -> site_b
    e1: np.ndarray               # (F, 3) in-plane bases, e1 x e2 = plane_normal
    e2: np.ndarray               # (F, 3)
    cell_start: np.ndarray       # (n_real + 1,) int64: where each cell starts in cell_facet
    cell_facet: np.ndarray       # int64 facet ids of every real cell, each cell's ascending
    sites: np.ndarray            # real centers then ghosts
    ghost_parent: np.ndarray     # (G,) int64 GhostSet.parent, per ghost site n_real + g
    ghost_wall: np.ndarray       # (G,) int64 GhostSet.wall
    n_real: int
    bed: SphereBed

    @property
    def facets(self) -> FacetView:
        return FacetView(self)

    def loop(self, fid: int) -> np.ndarray:
        """The vertex ids of facet fid's loop."""
        return self.loop_vertex[self.loop_start[fid]:self.loop_start[fid + 1]]

    def cell_facets(self, i: int) -> np.ndarray:
        """The ids of the live facets of cell i."""
        fids = self.cell_facet[self.cell_start[i]:self.cell_start[i + 1]]
        return fids[np.diff(self.loop_start)[fids] >= 3]

    def facet_loop_for_cell(self, fid: int, i: int) -> np.ndarray:
        """Facet loop ordered with outward normal for cell i."""
        return self.loop(fid) if self.site_a[fid] == i else self.loop(fid)[::-1]

    def outward_normal(self, fid: int, i: int) -> np.ndarray:
        return self.plane_normal[fid] if self.site_a[fid] == i else -self.plane_normal[fid]


def _reflect_radial(center_xy, pts, wall_radius):
    """Reflect points across a cylinder wall, preserving wall distance."""
    rel = pts[:, :2] - np.asarray(center_xy)
    rho = np.hypot(rel[:, 0], rel[:, 1])
    new_rho = wall_radius + (wall_radius - rho)
    if np.any(new_rho <= 0):
        raise GeometryError("radial ghost would cross the container axis")
    scale = new_rho / np.maximum(rho, 1e-300)
    out = pts.copy()
    out[:, 0] = center_xy[0] + rel[:, 0] * scale
    out[:, 1] = center_xy[1] + rel[:, 1] * scale
    return out


def generate_ghosts(bed: SphereBed) -> GhostSet:
    """Reflect boundary-adjacent centers outside the container.

    First, for each radial wall of the container in turn, every center
    within 2R of it is reflected across it. Then, for each plane wall in
    turn, every point of the augmented set (the centers plus the radial
    ghosts) within 2R of it is reflected across it; a box has no radial
    walls, so its planes reflect the centers alone. A ghost's parent is the
    point it reflects, by its index in that set (its site index).
    """
    if bed.domain is None:
        raise ValidationError("ghost generation needs a container")
    R = bed.radius_nominal
    dom = bed.domain
    centers = bed.centers
    ghosts, parent, wall = [], [], []
    for k, w in enumerate(dom.walls):
        if w.axis == RADIAL:
            near = np.flatnonzero(dom.wall_distance(w, centers) < 2 * R)
            ghosts.append(_reflect_radial(dom.center_xy, centers[near], w.value))
            parent.append(near)
            wall.append(np.full(len(near), k))
    aug = np.vstack([centers, *ghosts])
    for k, w in enumerate(dom.walls):
        if w.axis != RADIAL:
            near = np.flatnonzero(dom.wall_distance(w, aug) < 2 * R)
            refl = aug[near]
            refl[:, w.axis] = 2 * w.value - refl[:, w.axis]
            ghosts.append(refl)
            parent.append(near)
            wall.append(np.full(len(near), k))

    gpts = np.vstack(ghosts)
    if len(gpts):
        inside = dom.contains(gpts, tol=-1e-12 * R)
        if inside.any():
            raise GeometryError(f"{int(inside.sum())} ghosts landed inside the domain")
    return GhostSet(ghost_centers=gpts, parent=np.concatenate(parent), wall=np.concatenate(wall))


def _dedup_vertices(verts: np.ndarray, tol: float):
    """Merge the vertices chained by distances within tol. The connected
    components of the within-tol pairs are labelled in order of their
    lowest index, so the labels are the remap and each keeps its lowest."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    i, j = cKDTree(verts).query_pairs(tol, output_type="ndarray").T
    graph = coo_array((np.ones(len(i)), (i, j)), shape=(len(verts), len(verts)))
    _, remap = connected_components(graph, directed=False)
    _, keep = np.unique(remap, return_index=True)
    return verts[keep].copy(), remap


def _kept_ridges(ridge_points: np.ndarray, ridge_vertices: list, remap: np.ndarray, n: int):
    """The Voronoi ridges that bound a real cell, as arrays.

    Returns, per kept ridge in diagram order, its sites a < b (a is real)
    and its vertex count, and the kept ridges' vertex ids flat: remapped,
    deduplicated and sorted within each ridge. A ridge between two ghosts
    is dropped, and so is one left with fewer than 3 ids after the remap
    (degenerated to a point or segment). Raises GeometryError, naming
    sphere a, for the first ridge of a real cell with a vertex at
    infinity (-1).
    """
    counts = np.fromiter(map(len, ridge_vertices), dtype=np.int64, count=len(ridge_vertices))
    flat = np.fromiter(chain.from_iterable(ridge_vertices), dtype=np.int64,
                       count=int(counts.sum()))
    pts = np.asarray(ridge_points, dtype=np.int64).reshape(-1, 2)
    a, b = pts.min(axis=1), pts.max(axis=1)   # a ghost site is numbered after every real one
    ridge = np.repeat(np.arange(len(counts)), counts)
    real = (a < n)[ridge]
    unbounded = real & (flat == -1)
    if unbounded.any():
        raise GeometryError(
            f"unbounded Voronoi cell for sphere {a[ridge[np.argmax(unbounded)]]}; "
            "ghost coverage is insufficient"
        )
    ridge, ids = ridge[real], remap[flat[real]].astype(np.int64)
    order = np.lexsort((ids, ridge))
    ridge, ids = ridge[order], ids[order]
    new = np.ones(len(ids), dtype=bool)
    new[1:] = (ridge[1:] != ridge[:-1]) | (ids[1:] != ids[:-1])
    ridge, ids = ridge[new], ids[new]
    counts = np.bincount(ridge, minlength=len(counts))
    kept = counts >= 3
    return a[kept], b[kept], counts[kept], ids[kept[ridge]]


def build_cells(bed: SphereBed, ghosts: GhostSet) -> VoronoiCellSet:
    """Assemble bounded Voronoi cells for the real spheres.

    The ridges are taken in array passes (`_kept_ridges`); their planes,
    the CCW order of their loops and the degenerate-area test are array
    passes over all of them at once, and the kept ridges' rows of those
    arrays are the facet table. Raises GeometryError if any real cell is
    unbounded (insufficient ghosts), and if Qhull fails on the sites.
    """
    from scipy.spatial import QhullError, Voronoi, cKDTree

    R = bed.radius_nominal
    n = bed.n_spheres
    sites = np.vstack([bed.centers, ghosts.ghost_centers.reshape(-1, 3)])
    if len(sites) < 5:
        raise GeometryError(
            f"unbounded Voronoi cells: {len(sites)} sites cannot bound any cell "
            "(ghost coverage is insufficient)"
        )
    dup = cKDTree(sites).query_pairs(1e-12 * R)
    if dup:
        i, j = sorted(next(iter(dup)))
        raise ValidationError(f"duplicate augmented sites {i} and {j}")
    try:
        vor = Voronoi(sites)
    except QhullError as exc:
        raise GeometryError(f"Voronoi construction failed: {exc}") from None

    verts, remap = _dedup_vertices(vor.vertices, VERTEX_DEDUP_TOL * R)
    sa, sb, counts, vids = _kept_ridges(vor.ridge_points, vor.ridge_vertices, remap, n)

    # the planes of all ridges in one array pass; the normal points a -> b
    normals = sites[sb] - sites[sa]
    normals /= norms(normals)[:, None]
    plane_points = 0.5 * (sites[sa] + sites[sb])
    e1, e2 = plane_basis(normals)

    # each loop ordered CCW about its normal: by the angle about the
    # vertex centroid in the (e1, e2) plane, then by vertex id
    starts = np.cumsum(counts) - counts
    ridge = np.repeat(np.arange(len(counts)), counts)
    pts = verts[vids]
    rel = pts - (np.add.reduceat(pts, starts, axis=0) / counts[:, None])[ridge]
    x, y = np.vecdot(rel, e1[ridge]), np.vecdot(rel, e2[ridge])
    order = np.lexsort((vids, np.arctan2(y, x), ridge))

    # degenerate-area ridges (collinear after dedup) carry no volume; the
    # loops are padded to one size by repeating their last vertex, which
    # adds exact zero terms to each area
    at = starts[:, None] + np.minimum(np.arange(counts.max(initial=3)), counts[:, None] - 1)
    area = polygon_areas(x[order][at], y[order][at])
    kept = ~(2.0 * np.abs(area) < DEGENERATE_RIDGE_AREA * R * R)
    keep = np.flatnonzero(kept)

    sa, sb = sa[keep], sb[keep]
    # each cell's facet ids, in id order
    real_b = np.flatnonzero(sb < n)
    owner = np.concatenate([sa, sb[real_b]])
    fid = np.concatenate([np.arange(len(keep)), real_b])
    cs = VoronoiCellSet(points=verts, loop_start=np.concatenate([[0], np.cumsum(counts[keep])]),
                        loop_vertex=vids[order][kept[ridge]],
                        site_a=sa, site_b=sb, plane_point=plane_points[keep],
                        plane_normal=normals[keep], e1=e1[keep], e2=e2[keep],
                        cell_start=np.concatenate([[0], np.bincount(owner, minlength=n).cumsum()]),
                        cell_facet=fid[np.lexsort((fid, owner))], sites=sites,
                        ghost_parent=ghosts.parent, ghost_wall=ghosts.wall, n_real=n, bed=bed)
    _validate_cells(cs)
    return cs


def _validate_cells(cs: VoronoiCellSet) -> None:
    """Check every real cell: at least 4 live facets, no cell vertex
    outside a facet plane, the site strictly inside, and a watertight
    shell (each directed facet edge once, its reverse once). Raises
    GeometryError for the lowest-numbered failing cell; within a cell the
    checks run in that order, facet by facet for the plane checks.

    The checks are array passes over (cell, facet) rows, over (cell,
    facet, cell vertex) rows and over (cell, directed edge) rows, for
    VALIDATE_BLOCK cells at a time, which bounds the transient rows.
    """
    R = cs.bed.radius_nominal
    site_a, plane, normal = cs.site_a, cs.plane_point, cs.plane_normal
    sizes = np.diff(cs.loop_start)
    live = sizes >= 3
    n_pts = len(cs.points)
    for lo in range(0, cs.n_real, VALIDATE_BLOCK):
        hi = min(cs.n_real, lo + VALIDATE_BLOCK)
        n = hi - lo  # cell c of the block is cell lo + c
        # (cell, facet) rows of the live facets, in each cell's facet order
        cf_fid = cs.cell_facet[cs.cell_start[lo]:cs.cell_start[hi]]
        cf_cell = np.repeat(np.arange(n), np.diff(cs.cell_start[lo:hi + 1]))
        keep = live[cf_fid]
        cf_fid, cf_cell = cf_fid[keep], cf_cell[keep]
        n_facets = np.bincount(cf_cell, minlength=n)
        bad_cell = n_facets < 4

        forward = site_a[cf_fid] == cf_cell + lo
        out = np.where(forward[:, None], normal[cf_fid], -normal[cf_fid])
        site_bad = np.vecdot(cs.sites[cf_cell + lo] - plane[cf_fid], out) >= 0

        # each (cell, facet) row's loop, ordered for the cell: (row, vertex) rows
        m = sizes[cf_fid]
        row = np.repeat(np.arange(len(cf_fid)), m)
        first = np.repeat(np.cumsum(m) - m, m)
        k = np.arange(len(row)) - first
        u = cs.loop_vertex[cs.loop_start[cf_fid][row] + np.where(forward[row], k, m[row] - 1 - k)]
        nxt = first + (k + 1) % m[row]     # the directed edge is (u, u[nxt])

        # every vertex of the cell against every facet plane of the cell
        cell_vert, a = np.unique(cf_cell[row] * n_pts + u, return_inverse=True)
        n_verts = np.bincount(cell_vert // n_pts, minlength=n)
        reps = n_verts[cf_cell]
        cfv = np.repeat(np.arange(len(cf_fid)), reps)
        cfv_first = np.cumsum(reps) - reps
        at = (np.cumsum(n_verts) - n_verts)[cf_cell][cfv] + np.arange(len(cfv)) - cfv_first[cfv]
        d = np.vecdot(cs.points[cell_vert[at] % n_pts] - plane[cf_fid][cfv], out[cfv])
        d_max = np.maximum.reduceat(d, cfv_first)
        plane_bad = d_max > PLANARITY_TOL * R * 10
        bad_cell[cf_cell[plane_bad | site_bad]] = True

        # watertight: each directed edge of a cell once, and its reverse once;
        # an edge's ends as rows of cell_vert carry the cell in them
        b = a[nxt]
        key, rkey = a * len(cell_vert) + b, b * len(cell_vert) + a
        uniq, inv, count = np.unique(key, return_inverse=True, return_counts=True)
        pos = np.searchsorted(uniq, rkey)
        rcount = np.where(np.append(uniq, -1)[pos] == rkey, np.append(count, 0)[pos], 0)
        edge_bad = (count[inv] != 1) | (rcount != 1)
        bad_cell[cf_cell[row[edge_bad]]] = True

        if not bad_cell.any():
            continue
        i = int(np.argmax(bad_cell))
        if n_facets[i] < 4:
            raise GeometryError(f"cell {lo + i} has only {n_facets[i]} facets")
        rows = np.flatnonzero((cf_cell == i) & (plane_bad | site_bad))
        if len(rows):
            r = rows[0]
            if plane_bad[r]:
                raise GeometryError(
                    f"cell {lo + i} is not convex: vertex {d_max[r]:.3g} outside a facet plane"
                )
            raise GeometryError(f"site {lo + i} is not strictly inside its cell")
        e = np.flatnonzero(edge_bad & (cf_cell[row] == i))[0]
        raise GeometryError(
            f"cell {lo + i} facet shell is not watertight at edge {u[e]}-{u[nxt[e]]}"
        )


def cell_volume(cs: VoronoiCellSet, i: int) -> float:
    """Volume of one cell via the divergence theorem over facet fans."""
    vol = 0.0
    for fid in cs.cell_facets(i):
        pts = cs.points[cs.facet_loop_for_cell(fid, i)]
        p0 = pts[0]
        for k in range(1, len(pts) - 1):
            vol += np.dot(p0, np.cross(pts[k], pts[k + 1]))
    return vol / 6.0


def point_in_cell(cs: VoronoiCellSet, i: int, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which query points lie inside cell i (within tol)."""
    pts = np.atleast_2d(pts)
    inside = np.ones(len(pts), dtype=bool)
    for fid in cs.cell_facets(i):
        inside &= (pts - cs.plane_point[fid]) @ cs.outward_normal(fid, i) <= tol
    return inside


def dump_off(cs: VoronoiCellSet, path) -> None:
    """ASCII OFF polygon soup of all live facets, for external inspection."""
    live = [cs.loop(f).tolist() for f in np.flatnonzero(np.diff(cs.loop_start) >= 3)]
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(cs.points)} {len(live)} 0\n")
        for x, y, z in cs.points.tolist():
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for loop in live:
            fh.write(" ".join([str(len(loop))] + [str(v) for v in loop]) + "\n")
