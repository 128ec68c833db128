"""Deterministic test packings: lattices and relaxed random beds.

These are geometry fixtures, not a DEM simulator: random beds are built by
seeding points in the container and iteratively pushing overlapping pairs
apart until the contact-distance plateau is tight. Every generator is
seeded, so repeated calls are bitwise reproducible.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .bed import Annulus, Box, Cylinder, SphereBed, attach_domain

_SQRT3 = math.sqrt(3.0)


def simple_cubic(n: int = 3, spacing: float = 2.0) -> SphereBed:
    """n x n x n cubic lattice of unit spheres in a snug box."""
    coords = spacing / 2.0 + spacing * np.arange(n)
    centers = np.array([(x, y, z) for x in coords for y in coords for z in coords])
    bed = SphereBed(centers=centers, radius_nominal=spacing / 2.0, source_label=f"sc{n}")
    box = Box((0.0, 0.0, 0.0), (spacing * n,) * 3)
    bed = attach_domain(bed, box)
    return bed


def hcp_patch(ni: int = 4, nj: int = 4, nk: int = 3, spacing: float = 2.0) -> np.ndarray:
    """Hexagonal close-packed lattice points with the given contact spacing."""
    a = spacing
    pts = []
    for k in range(nk):
        for j in range(nj):
            for i in range(ni):
                x = a * (i + 0.5 * ((j + k) % 2))
                y = a * _SQRT3 / 2.0 * (j + ((k % 2) / 3.0))
                z = a * math.sqrt(6.0) / 3.0 * k
                pts.append((x, y, z))
    return np.array(pts)


def solid_fraction_bed(n: int = 100, fraction: float = 0.641) -> SphereBed:
    """Bed whose box volume realizes an exact solid fraction at r = R.

    Centers may nominally overlap; only the count and container volume
    matter for void-fraction arithmetic.
    """
    side = (n * (4.0 / 3.0) * math.pi / fraction) ** (1.0 / 3.0)
    m = math.ceil(n ** (1.0 / 3.0))
    axis = np.linspace(1.0, side - 1.0, m)
    grid = np.array([(x, y, z) for x in axis for y in axis for z in axis])[:n]
    bed = SphereBed(centers=grid, source_label=f"solidfrac{fraction}")
    return attach_domain(bed, Box((0.0, 0.0, 0.0), (side, side, side)))


def _relax(centers: np.ndarray, clamp, target: float = 2.0, iters: int = 600) -> np.ndarray:
    """Push overlapping pairs apart (Jacobi sweeps) until near-contact."""
    pts = centers.copy()
    n = len(pts)
    for _ in range(iters):
        pairs = cKDTree(pts).query_pairs(target, output_type="ndarray")
        if len(pairs) == 0:
            break
        # rows (i, j), i < j, in lexicographic order; each node's pushes
        # are summed in this order, first as i and then as j
        pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]
        d = pts[pairs[:, 1]] - pts[pairs[:, 0]]
        dist = np.linalg.norm(d, axis=1)
        dist = np.maximum(dist, 1e-9)
        push = 0.55 * (target - dist) / dist
        step = d * push[:, None]
        idx = pairs.T.ravel()
        pushes = np.vstack([-step, step])
        pts += np.column_stack([np.bincount(idx, weights=pushes[:, k], minlength=n)
                                for k in range(3)])
        pts = clamp(pts)
        worst = float(dist.min())
        if worst > target - 1e-9:
            break
    return pts


def random_cylinder_bed(n: int = 100, R_c: float = 4.0, H: float = 15.0,
                        seed: int = 7) -> SphereBed:
    """Relaxed random packing of n unit spheres in a cylinder.

    The output is in raw (pre-rescale) units with contacts at distance
    ~2; run the separation/rescale preconditioning on it like any input.
    """
    rng = np.random.default_rng(seed)

    def clamp(pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        over = rho > R_c - 1.0
        scale = np.where(over, (R_c - 1.0) / np.maximum(rho, 1e-12), 1.0)
        pts[:, 0] *= scale
        pts[:, 1] *= scale
        pts[:, 2] = np.clip(pts[:, 2], 1.0, H - 1.0)
        return pts

    rho = (R_c - 1.0) * np.sqrt(rng.random(n))
    ang = 2 * np.pi * rng.random(n)
    z = 1.0 + (H - 2.0) * rng.random(n)
    pts = np.column_stack([rho * np.cos(ang), rho * np.sin(ang), z])
    pts = _relax(pts, clamp)
    bed = SphereBed(centers=pts, source_label=f"randcyl{n}")
    return attach_domain(bed, Cylinder((0.0, 0.0), R_c, H))


def random_annulus_bed(n: int = 150, R_i: float = 2.5, R_o: float = 5.5,
                       H: float = 14.0, seed: int = 11) -> SphereBed:
    """Relaxed random packing of n unit spheres in an annulus."""
    rng = np.random.default_rng(seed)

    def clamp(pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        rho_c = np.clip(rho, R_i + 1.0, R_o - 1.0)
        scale = rho_c / np.maximum(rho, 1e-12)
        pts[:, 0] *= scale
        pts[:, 1] *= scale
        pts[:, 2] = np.clip(pts[:, 2], 1.0, H - 1.0)
        return pts

    rho = np.sqrt(rng.uniform((R_i + 1.0) ** 2, (R_o - 1.0) ** 2, n))
    ang = 2 * np.pi * rng.random(n)
    z = 1.0 + (H - 2.0) * rng.random(n)
    pts = np.column_stack([rho * np.cos(ang), rho * np.sin(ang), z])
    pts = _relax(pts, clamp)
    bed = SphereBed(centers=pts, source_label=f"randann{n}")
    return attach_domain(bed, Annulus((0.0, 0.0), R_i, R_o, H))


def write_xyz(bed: SphereBed, path) -> None:
    """Dump centers as whitespace x y z rows (full float64 precision)."""
    with open(path, "w") as fh:
        fh.write(f"# {bed.source_label}: {bed.n_spheres} sphere centers\n")
        for row in bed.centers.tolist():
            fh.write(" ".join(repr(v) for v in row) + "\n")
