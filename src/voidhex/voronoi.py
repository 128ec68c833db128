"""Bounded Voronoi cells via ghost-sphere reflection.

Centers near the container boundary are reflected outside it so every real
cell comes out bounded; the reflected sites are called ghost spheres. The
diagram itself is delegated to Qhull (scipy), after which facet loops are
assembled, deduplicated, ordered, and tagged per real sphere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import QhullError, Voronoi, cKDTree

from .bed import Annulus, Box, Cylinder, SphereBed
from .errors import GeometryError, ValidationError
from .geometry import norms, plane_basis, polygon_areas

log = logging.getLogger(__name__)

VERTEX_DEDUP_TOL = 1e-10
PLANARITY_TOL = 1e-9
VALIDATE_BLOCK = 64  # cells per array pass of _validate_cells

# boundary kind carried on facets whose opposite site is a ghost
KIND_TO_TAG = {
    "radial_outer": "wall",
    "radial_inner": "inner_wall",
    "z_bottom": "inlet",
    "z_top": "outlet",
    "box_x_lo": "wall",
    "box_x_hi": "wall",
    "box_y_lo": "wall",
    "box_y_hi": "wall",
    "box_z_lo": "inlet",
    "box_z_hi": "outlet",
}


@dataclass(frozen=True)
class GhostSet:
    ghost_centers: np.ndarray
    provenance: list  # (source sphere index, reflection kind) per ghost

    @property
    def n_ghosts(self) -> int:
        return len(self.ghost_centers)


@dataclass
class Facet:
    """One Voronoi facet, stored once and shared by its two cells.

    The loop is ordered counterclockwise about ``plane_normal``, which
    points from site_a toward site_b; cell site_a therefore sees the loop
    CCW from its exterior, and the opposite cell uses it reversed.
    ``(e1, e2)`` is the right-handed in-plane basis of ``plane_normal``
    (e1 x e2 = plane_normal). `build_cells` passes in the facet's row of
    one `geometry.plane_basis` call over all its facet normals; a facet
    made without a basis computes its own. The normal never changes
    afterwards.
    """

    loop: list
    site_a: int
    site_b: int
    plane_point: np.ndarray
    plane_normal: np.ndarray
    boundary: str | None = None
    deleted: bool = False
    e1: np.ndarray | None = field(default=None, repr=False, compare=False)
    e2: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.e1 is None:
            self.e1, self.e2 = plane_basis(self.plane_normal)


@dataclass
class VoronoiCellSet:
    points: np.ndarray           # shared vertex pool, grows during repair
    facets: list
    cells: list                  # facet ids per real sphere
    sites: np.ndarray            # real centers then ghosts
    n_real: int
    bed: SphereBed

    def cell_facets(self, i: int):
        return [self.facets[f] for f in self.cells[i] if not self.facets[f].deleted]

    def facet_loop_for_cell(self, facet: Facet, i: int) -> list:
        """Facet loop ordered with outward normal for cell i."""
        return list(facet.loop) if facet.site_a == i else list(reversed(facet.loop))

    def outward_normal(self, facet: Facet, i: int) -> np.ndarray:
        return facet.plane_normal if facet.site_a == i else -facet.plane_normal


def facet_sites(cs: VoronoiCellSet):
    """site_a and site_b of every facet, deleted ones included, as arrays
    by facet id."""
    m = len(cs.facets)
    return (np.fromiter((f.site_a for f in cs.facets), dtype=np.int64, count=m),
            np.fromiter((f.site_b for f in cs.facets), dtype=np.int64, count=m))


def _reflect_radial(center_xy, pts, wall_radius, outward: bool):
    """Reflect points across a cylinder wall, preserving wall distance."""
    rel = pts[:, :2] - np.asarray(center_xy)
    rho = np.hypot(rel[:, 0], rel[:, 1])
    delta = wall_radius - rho if outward else rho - wall_radius
    new_rho = wall_radius + delta if outward else wall_radius - delta
    if np.any(new_rho <= 0):
        raise GeometryError("radial ghost would cross the container axis")
    scale = new_rho / np.maximum(rho, 1e-300)
    out = pts.copy()
    out[:, 0] = center_xy[0] + rel[:, 0] * scale
    out[:, 1] = center_xy[1] + rel[:, 1] * scale
    return out


def generate_ghosts(bed: SphereBed) -> GhostSet:
    """Reflect boundary-adjacent centers outside the container.

    Cylinder/annulus: radial reflection for every center within 2R of a
    curved wall, then the augmented set (originals plus radial ghosts) is
    reflected about z = 0 and z = H where within 2R. Box: one reflection
    per face for centers within 2R of it.
    """
    if bed.domain is None:
        raise ValidationError("ghost generation needs a container")
    R = bed.radius_nominal
    dom = bed.domain
    centers = bed.centers
    ghosts = []
    prov = []

    def add(pts, sources, kind):
        for p, s in zip(pts, sources):
            ghosts.append(p)
            prov.append((int(s), kind))

    if isinstance(dom, (Cylinder, Annulus)):
        rel = centers[:, :2] - np.asarray(dom.center_xy)
        rho = np.hypot(rel[:, 0], rel[:, 1])
        if isinstance(dom, Cylinder):
            near = (dom.R_c - rho) < 2 * R
            add(_reflect_radial(dom.center_xy, centers[near], dom.R_c, True),
                np.flatnonzero(near), "radial_outer")
        else:
            near_o = (dom.R_o - rho) < 2 * R
            add(_reflect_radial(dom.center_xy, centers[near_o], dom.R_o, True),
                np.flatnonzero(near_o), "radial_outer")
            near_i = (rho - dom.R_i) < 2 * R
            add(_reflect_radial(dom.center_xy, centers[near_i], dom.R_i, False),
                np.flatnonzero(near_i), "radial_inner")
        aug = np.vstack([centers, np.asarray(ghosts).reshape(-1, 3)])
        aug_src = list(range(len(centers))) + [s for s, _ in prov]
        H = dom.H
        lowz = aug[:, 2] < 2 * R
        low = aug[lowz].copy()
        low[:, 2] = -low[:, 2]
        add(low, np.asarray(aug_src)[lowz], "z_bottom")
        hiz = aug[:, 2] > H - 2 * R
        hi = aug[hiz].copy()
        hi[:, 2] = 2 * H - hi[:, 2]
        add(hi, np.asarray(aug_src)[hiz], "z_top")
    elif isinstance(dom, Box):
        lo = np.asarray(dom.lo)
        hi = np.asarray(dom.hi)
        names = ["x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi"]
        for axis in range(3):
            near = (centers[:, axis] - lo[axis]) < 2 * R
            refl = centers[near].copy()
            refl[:, axis] = 2 * lo[axis] - refl[:, axis]
            add(refl, np.flatnonzero(near), f"box_{names[2 * axis]}")
            near = (hi[axis] - centers[:, axis]) < 2 * R
            refl = centers[near].copy()
            refl[:, axis] = 2 * hi[axis] - refl[:, axis]
            add(refl, np.flatnonzero(near), f"box_{names[2 * axis + 1]}")
    else:  # pragma: no cover
        raise ValidationError(f"unsupported domain {type(dom).__name__}")

    gpts = np.asarray(ghosts, dtype=float).reshape(-1, 3)
    if len(gpts):
        inside = dom.contains(gpts, tol=-1e-12 * R)
        if inside.any():
            raise GeometryError(f"{int(inside.sum())} ghosts landed inside the domain")
    return GhostSet(ghost_centers=gpts, provenance=prov)


def _dedup_vertices(verts: np.ndarray, tol: float):
    """Merge the vertices chained by distances within tol. The connected
    components of the within-tol pairs are labelled in order of their
    lowest index, so the labels are the remap and each keeps its lowest."""
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


def build_cells(bed: SphereBed, ghosts: GhostSet, seed: int = 0) -> VoronoiCellSet:
    """Assemble bounded Voronoi cells for the real spheres.

    The ridges are taken in array passes (`_kept_ridges`); their planes,
    the CCW order of their loops and the degenerate-area test are array
    passes over all of them at once, and only the `Facet` objects are made
    one by one. Raises GeometryError if any real cell is unbounded
    (insufficient ghosts). A degenerate site set is retried once with a
    deterministic 1e-9 R jitter.
    """
    R = bed.radius_nominal
    n = bed.n_spheres
    sites = np.vstack([bed.centers, ghosts.ghost_centers.reshape(-1, 3)])
    if len(sites) < 5:
        raise GeometryError(
            f"unbounded Voronoi cells: {len(sites)} sites cannot bound any cell "
            "(ghost coverage is insufficient)"
        )
    if len(sites) > 1:
        dup = cKDTree(sites).query_pairs(1e-12 * R)
        if dup:
            i, j = sorted(next(iter(dup)))
            raise ValidationError(f"duplicate augmented sites {i} and {j}")
    try:
        vor = Voronoi(sites)
    except QhullError:
        log.warning("degenerate site configuration; retrying with 1e-9 jitter")
        rng = np.random.default_rng(seed)
        try:
            vor = Voronoi(sites + rng.normal(scale=1e-9 * R, size=sites.shape))
        except QhullError as exc:
            raise GeometryError(f"Voronoi construction failed twice: {exc}") from None

    verts, remap = _dedup_vertices(vor.vertices, VERTEX_DEDUP_TOL * R)
    sa, sb, counts, vids = _kept_ridges(vor.ridge_points, vor.ridge_vertices, remap, n)

    # the planes of all ridges in one array pass; the normal points a -> b
    normals = sites[sb] - sites[sa]
    normals /= norms(normals)[:, None]
    plane_points = 0.5 * (sites[sa] + sites[sb])
    e1, e2 = plane_basis(normals)

    # each loop ordered CCW about its normal: by the angle about the
    # vertex centroid in the (e1, e2) plane, then by vertex id
    ends = np.cumsum(counts)
    starts = ends - counts
    ridge = np.repeat(np.arange(len(counts)), counts)
    pts = verts[vids]
    rel = pts - (np.add.reduceat(pts, starts, axis=0) / counts[:, None])[ridge]
    x, y = np.vecdot(rel, e1[ridge]), np.vecdot(rel, e2[ridge])
    order = np.lexsort((vids, np.arctan2(y, x), ridge))
    loops = vids[order].tolist()

    # degenerate-area ridges (collinear after dedup) carry no volume; the
    # loops are padded to one size by repeating their last vertex, which
    # adds exact zero terms to each area
    at = starts[:, None] + np.minimum(np.arange(counts.max(initial=3)), counts[:, None] - 1)
    area = polygon_areas(x[order][at], y[order][at])
    keep = np.flatnonzero(~(2.0 * np.abs(area) < 1e-20 * R * R))

    tags = [KIND_TO_TAG[kind] for _, kind in ghosts.provenance]
    facets = []
    cells = [[] for _ in range(n)]
    for k, a, b, lo, hi in zip(keep.tolist(), sa[keep].tolist(), sb[keep].tolist(),
                               starts[keep].tolist(), ends[keep].tolist()):
        fid = len(facets)
        facets.append(Facet(loop=loops[lo:hi], site_a=a, site_b=b,
                            plane_point=plane_points[k], plane_normal=normals[k],
                            boundary=None if b < n else tags[b - n], e1=e1[k], e2=e2[k]))
        cells[a].append(fid)
        if b < n:
            cells[b].append(fid)

    cs = VoronoiCellSet(points=verts, facets=facets, cells=cells, sites=sites,
                        n_real=n, bed=bed)
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
    live = np.array([not f.deleted for f in cs.facets], dtype=bool)
    site_a, _ = facet_sites(cs)
    plane = np.array([f.plane_point for f in cs.facets]).reshape(-1, 3)
    normal = np.array([f.plane_normal for f in cs.facets]).reshape(-1, 3)
    sizes = np.array([len(f.loop) for f in cs.facets], dtype=np.int64)
    loop_start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat = np.fromiter(chain.from_iterable(f.loop for f in cs.facets), dtype=np.int64,
                       count=int(sizes.sum()))
    n_pts = len(cs.points)
    for lo in range(0, cs.n_real, VALIDATE_BLOCK):
        cells = cs.cells[lo:min(cs.n_real, lo + VALIDATE_BLOCK)]
        n = len(cells)  # cell c of the block is cell lo + c
        # (cell, facet) rows of the live facets, in each cell's facet order
        per_cell = np.array([len(c) for c in cells], dtype=np.int64)
        cf_fid = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                             count=int(per_cell.sum()))
        cf_cell = np.repeat(np.arange(n), per_cell)
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
        u = flat[loop_start[cf_fid][row] + np.where(forward[row], k, m[row] - 1 - k)]
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
    for f in cs.cell_facets(i):
        loop = cs.facet_loop_for_cell(f, i)
        pts = cs.points[loop]
        p0 = pts[0]
        for k in range(1, len(pts) - 1):
            vol += np.dot(p0, np.cross(pts[k], pts[k + 1]))
    return vol / 6.0


def point_in_cell(cs: VoronoiCellSet, i: int, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: which query points lie inside cell i (within tol)."""
    pts = np.atleast_2d(pts)
    inside = np.ones(len(pts), dtype=bool)
    for f in cs.cell_facets(i):
        out = cs.outward_normal(f, i)
        inside &= (pts - f.plane_point) @ out <= tol
    return inside


def dump_off(cs: VoronoiCellSet, path) -> None:
    """ASCII OFF polygon soup of all live facets, for external inspection."""
    live = [f for f in cs.facets if not f.deleted]
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(cs.points)} {len(live)} 0\n")
        for x, y, z in cs.points.tolist():
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for f in live:
            fh.write(" ".join([str(len(f.loop))] + [str(v) for v in f.loop]) + "\n")
