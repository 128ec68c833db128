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
from .geometry import norms, plane_basis, polygon_area

log = logging.getLogger(__name__)

VERTEX_DEDUP_TOL = 1e-10
PLANARITY_TOL = 1e-9

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
    ghosts: GhostSet

    def cell_facets(self, i: int):
        return [self.facets[f] for f in self.cells[i] if not self.facets[f].deleted]

    def facet_loop_for_cell(self, facet: Facet, i: int) -> list:
        """Facet loop ordered with outward normal for cell i."""
        return list(facet.loop) if facet.site_a == i else list(reversed(facet.loop))

    def outward_normal(self, facet: Facet, i: int) -> np.ndarray:
        return facet.plane_normal if facet.site_a == i else -facet.plane_normal


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


def build_cells(bed: SphereBed, ghosts: GhostSet, seed: int = 0) -> VoronoiCellSet:
    """Assemble bounded Voronoi cells for the real spheres.

    Raises GeometryError if any real cell is unbounded (insufficient
    ghosts). A degenerate site set is retried once with a deterministic
    1e-9 R jitter.
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

    # the kept ridges: (a, b, boundary tag, sorted vertex ids)
    ridges = []
    remap = remap.tolist()
    for (pa, pb), rv in zip(vor.ridge_points.tolist(), vor.ridge_vertices):
        if pa >= n and pb >= n:
            continue
        if pa < n and pb < n:
            a, b = (pa, pb) if pa < pb else (pb, pa)
            boundary = None
        else:
            a, b = (pa, pb) if pa < n else (pb, pa)
            boundary = KIND_TO_TAG[ghosts.provenance[b - n][1]]
        if -1 in rv:
            raise GeometryError(
                f"unbounded Voronoi cell for sphere {a}; ghost coverage is insufficient"
            )
        ids = sorted({remap[v] for v in rv})
        if len(ids) < 3:
            continue  # ridge degenerated to a point/segment after dedup
        ridges.append((a, b, boundary, ids))

    # the planes of all ridges in one array pass; the normal points a -> b
    sa = np.array([r[0] for r in ridges], dtype=np.int64)
    sb = np.array([r[1] for r in ridges], dtype=np.int64)
    normals = sites[sb] - sites[sa]
    normals /= norms(normals)[:, None]
    plane_points = 0.5 * (sites[sa] + sites[sb])
    e1, e2 = plane_basis(normals)

    # each loop ordered CCW about its normal: by the angle about the
    # vertex centroid in the (e1, e2) plane, then by vertex id
    counts = np.array([len(r[3]) for r in ridges], dtype=np.int64)
    ends = np.cumsum(counts)
    vids = np.fromiter(chain.from_iterable(r[3] for r in ridges), dtype=np.int64,
                       count=int(counts.sum()))
    ridge = np.repeat(np.arange(len(ridges)), counts)
    pts = verts[vids]
    rel = pts - (np.add.reduceat(pts, ends - counts, axis=0) / counts[:, None])[ridge]
    x, y = np.vecdot(rel, e1[ridge]), np.vecdot(rel, e2[ridge])
    order = np.lexsort((vids, np.arctan2(y, x), ridge))
    loops = vids[order].tolist()
    xy = np.column_stack([x[order], y[order]]).tolist()

    facets = []
    cells = [[] for _ in range(n)]
    starts, ends = (ends - counts).tolist(), ends.tolist()
    for k, (a, b, boundary, _) in enumerate(ridges):
        lo, hi = starts[k], ends[k]
        # degenerate-area ridges (collinear after dedup) carry no volume
        if 2.0 * abs(polygon_area(xy[lo:hi])) < 1e-20 * R * R:
            continue
        fid = len(facets)
        facets.append(Facet(loop=loops[lo:hi], site_a=a, site_b=b,
                            plane_point=plane_points[k], plane_normal=normals[k],
                            boundary=boundary, e1=e1[k], e2=e2[k]))
        cells[a].append(fid)
        if b < n:
            cells[b].append(fid)

    cs = VoronoiCellSet(points=verts, facets=facets, cells=cells, sites=sites,
                        n_real=n, bed=bed, ghosts=ghosts)
    _validate_cells(cs)
    return cs


def _validate_cells(cs: VoronoiCellSet) -> None:
    R = cs.bed.radius_nominal
    for i in range(cs.n_real):
        fl = cs.cell_facets(i)
        if len(fl) < 4:
            raise GeometryError(f"cell {i} has only {len(fl)} facets")
        vids = sorted(set(v for f in fl for v in f.loop))
        pts = cs.points[vids]
        center = cs.sites[i]
        for f in fl:
            out = cs.outward_normal(f, i)
            d = (pts - f.plane_point) @ out
            if d.max() > PLANARITY_TOL * R * 10:
                raise GeometryError(
                    f"cell {i} is not convex: vertex {d.max():.3g} outside a facet plane"
                )
            if (center - f.plane_point) @ out >= 0:
                raise GeometryError(f"site {i} is not strictly inside its cell")
        # watertight: each directed facet edge must appear exactly once
        edges = {}
        for f in fl:
            loop = cs.facet_loop_for_cell(f, i)
            for u, v in zip(loop, loop[1:] + loop[:1]):
                edges[(u, v)] = edges.get((u, v), 0) + 1
        for (u, v), cnt in edges.items():
            if cnt != 1 or edges.get((v, u), 0) != 1:
                raise GeometryError(f"cell {i} facet shell is not watertight at edge {u}-{v}")


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
