"""Sphere-bed ingest and preconditioning.

Loads sphere centers, fits/verifies the container, detects the nominal
center separation from the Delaunay pair-distance profile, rescales the
bed to unit nominal radius, and computes void-fraction statistics.

Each container shape lists its walls once, as `Wall` rows. The wall
clearance and the inside test here, the ghost reflections in `voronoi` and
the boundary-facet classification in `hexgen` all loop over that list, so
no other module needs to know which shape a container is.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .errors import GeometryError, ParseError, ValidationError

log = logging.getLogger(__name__)

_DUP_TOL = 1e-12
_WALL_EPS = 1e-6
SEPARATION_RANK = 2.5  # Delta* is the pair distance at rank round(SEPARATION_RANK * N)
_FIT_P = 100.0  # the p of the p-norm that the cylinder fit minimizes


# ---------------------------------------------------------------------------
# Domain shapes
# ---------------------------------------------------------------------------

RADIAL = "radial"  # the axis of a curved wall: a cylinder about the container axis


class Wall(NamedTuple):
    """One wall of a container.

    A plane wall is ``x[axis] = value`` for axis 0, 1 or 2; a RADIAL wall
    is the cylinder of radius ``value`` about the container's z axis.
    ``sign`` is +1 where the outward normal points along +axis (away from
    the container axis) and -1 where it points the other way. ``kind``
    names the ghosts reflected across the wall.
    """

    axis: int | str
    value: float
    sign: int
    kind: str


class _Walled:
    """What every container shape derives from its ``walls``: the distance
    to each wall, the clearance and the inside test. A shape lists its
    walls once, as a tuple computed on first use. Its plane walls come
    first, since a facet is tested against them more cheaply; ghost
    generation takes the radial walls and then the planes, each in the
    order listed."""

    def wall_distance(self, wall: Wall, pts: np.ndarray) -> np.ndarray:
        """Distance of each point to one wall; positive inside."""
        if wall.axis == RADIAL:
            x = np.hypot(pts[:, 0] - self.center_xy[0], pts[:, 1] - self.center_xy[1])
        else:
            x = pts[:, wall.axis]
        return wall.value - x if wall.sign > 0 else x - wall.value

    def wall_clearance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the nearest wall; positive inside."""
        pts = np.atleast_2d(pts)
        return np.minimum.reduce([self.wall_distance(w, pts) for w in self.walls])

    def contains(self, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return self.wall_clearance(pts) >= -tol


@dataclass(frozen=True)
class Cylinder(_Walled):
    """Cylindrical container, axis along z, occupying z in [z0, z0 + H]."""

    center_xy: tuple[float, float]
    R_c: float
    H: float
    z0: float = 0.0

    def __post_init__(self):
        if not (self.R_c > 0 and self.H > 0):
            raise ValidationError(f"cylinder needs R_c > 0 and H > 0, got {self}")

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        return (Wall(2, self.z0, -1, "z_bottom"), Wall(2, self.z0 + self.H, 1, "z_top"),
                Wall(RADIAL, self.R_c, 1, "radial_outer"))

    def volume(self) -> float:
        return math.pi * self.R_c**2 * self.H

    def scaled(self, k: float) -> "Cylinder":
        cx, cy = self.center_xy
        return Cylinder((cx * k, cy * k), self.R_c * k, self.H * k, self.z0 * k)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        rho = self.R_c * np.sqrt(rng.random(n))
        ang = 2 * np.pi * rng.random(n)
        return np.column_stack([
            self.center_xy[0] + rho * np.cos(ang),
            self.center_xy[1] + rho * np.sin(ang),
            self.z0 + self.H * rng.random(n),
        ])


@dataclass(frozen=True)
class Box(_Walled):
    """Axis-aligned box container."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ValidationError(f"box needs hi > lo componentwise, got {self}")

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        return tuple(w for axis, name in enumerate("xyz")
                     for w in (Wall(axis, self.lo[axis], -1, f"box_{name}_lo"),
                               Wall(axis, self.hi[axis], 1, f"box_{name}_hi")))

    def volume(self) -> float:
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    def scaled(self, k: float) -> "Box":
        return Box(tuple(v * k for v in self.lo), tuple(v * k for v in self.hi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + rng.random((n, 3)) * (hi - lo)


@dataclass(frozen=True)
class Annulus(_Walled):
    """Annular container: cylindrical shell between R_i and R_o, z in [z0, z0 + H]."""

    center_xy: tuple[float, float]
    R_i: float
    R_o: float
    H: float
    z0: float = 0.0

    def __post_init__(self):
        if not (self.R_o > self.R_i > 0 and self.H > 0):
            raise ValidationError(f"annulus needs R_o > R_i > 0 and H > 0, got {self}")

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        return (Wall(2, self.z0, -1, "z_bottom"), Wall(2, self.z0 + self.H, 1, "z_top"),
                Wall(RADIAL, self.R_o, 1, "radial_outer"),
                Wall(RADIAL, self.R_i, -1, "radial_inner"))

    def volume(self) -> float:
        return math.pi * (self.R_o**2 - self.R_i**2) * self.H

    def scaled(self, k: float) -> "Annulus":
        cx, cy = self.center_xy
        return Annulus((cx * k, cy * k), self.R_i * k, self.R_o * k, self.H * k, self.z0 * k)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        rho = np.sqrt(self.R_i**2 + (self.R_o**2 - self.R_i**2) * rng.random(n))
        ang = 2 * np.pi * rng.random(n)
        return np.column_stack([
            self.center_xy[0] + rho * np.cos(ang),
            self.center_xy[1] + rho * np.sin(ang),
            self.z0 + self.H * rng.random(n),
        ])


DomainShape = Cylinder | Box | Annulus


# ---------------------------------------------------------------------------
# Bed and separation profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereBed:
    """Sphere centers plus container metadata.

    After :func:`rescale` the nominal sphere radius is 1 and all
    coordinates are in units of it.
    """

    centers: np.ndarray
    radius_nominal: float = 1.0
    domain: DomainShape | None = None
    scale_factor: float = 1.0
    source_label: str = ""

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        if not np.isfinite(c).all():
            raise ValidationError("non-finite sphere center")
        object.__setattr__(self, "centers", c)

    @property
    def n_spheres(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class SeparationProfile:
    """Sorted Delaunay pair distances and the nominal separation pick."""

    sorted_pair_distances: np.ndarray
    delta_star: float


def attach_domain(bed: SphereBed, domain: DomainShape, fitted: bool = False) -> SphereBed:
    """Attach a container after verifying the centers lie inside it.

    With fitted=True (the precondition pipeline) every center must also
    keep a full R of wall clearance, up to 1e-6 R slack.
    """
    clear = domain.wall_clearance(bed.centers)
    min_clear = float(clear.min()) if len(clear) else np.inf
    need = bed.radius_nominal * (1.0 - _WALL_EPS) if fitted else -_WALL_EPS * bed.radius_nominal
    if min_clear < need:
        i = int(np.argmin(clear))
        raise ValidationError(
            f"center {i} at wall clearance {min_clear:.6g} "
            f"(required {need:.6g}, R = {bed.radius_nominal:.6g})"
        )
    return replace(bed, domain=domain)


def load_centers(path, fmt: str = "xyz_whitespace") -> SphereBed:
    """Read one sphere center per line; '#' starts a comment.

    fmt is 'xyz_whitespace' or 'csv'. Rows must have exactly three finite
    numeric fields. Duplicate points (closer than 1e-12) are rejected.
    """
    if fmt not in ("xyz_whitespace", "csv"):
        raise ValidationError(f"unknown format {fmt!r}")
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(",") if fmt == "csv" else text.split()
            if len(parts) != 3:
                raise ParseError(f"expected 3 fields, got {len(parts)}", line=lineno)
            try:
                xyz = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not all(math.isfinite(v) for v in xyz):
                raise ParseError("non-finite coordinate", line=lineno)
            rows.append(xyz)
    centers = np.array(rows, dtype=float).reshape(-1, 3)
    if len(centers) > 1:
        pairs = cKDTree(centers).query_pairs(_DUP_TOL)
        if pairs:
            i, j = sorted(next(iter(pairs)))
            raise ValidationError(f"duplicate centers at rows {i + 1} and {j + 1}")
    return SphereBed(centers=centers, source_label=str(path))


def _pnorm(r: np.ndarray, p: float) -> float:
    # max-normalized to avoid overflow at large p
    m = r.max()
    if m == 0.0:
        return 0.0
    return m * float(np.sum((r / m) ** p)) ** (1.0 / p)


def fit_cylinder(bed: SphereBed) -> Cylinder:
    """Fit the container cylinder to the sphere centers.

    The axis location minimizes the p-norm (p = _FIT_P) of the radial
    center distances (a large p approximates the minimax center). A second
    pass refits with only the centers within 2R of the first wall estimate.
    The wall radius is the largest pass-2 radial distance plus R, and the
    height spans the z extent of the centers extended by R each way.
    """
    # imported here, where it is used: scipy.optimize takes longer to import
    # than the rest of the package, and only the cylinder fit needs it
    from scipy.optimize import minimize

    if bed.n_spheres < 3:
        raise ValidationError("cylinder fit needs at least 3 centers")
    xy = bed.centers[:, :2]
    spread = xy - xy.mean(axis=0)
    # collinear center clouds have no well-posed axis
    sv = np.linalg.svd(spread, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1.0):
        raise GeometryError("centers are collinear in the xy plane; cylinder fit is degenerate")

    def solve(points):
        def obj(c):
            return _pnorm(np.hypot(points[:, 0] - c[0], points[:, 1] - c[1]), _FIT_P)

        lo = points.min(axis=0)
        hi = points.max(axis=0)
        grid = np.linspace(0.0, 1.0, 11)
        best, best_val = None, np.inf
        for gx in grid:
            for gy in grid:
                c = (lo[0] + gx * (hi[0] - lo[0]), lo[1] + gy * (hi[1] - lo[1]))
                v = obj(c)
                if v < best_val:
                    best, best_val = c, v
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        res = minimize(
            obj,
            np.asarray(best),
            method="Nelder-Mead",
            options={"xatol": 1e-10 * span, "fatol": 1e-12 * max(best_val, 1e-30), "maxiter": 2000},
        )
        if not np.isfinite(res.fun):
            raise GeometryError("cylinder-axis optimization failed to converge")
        return res.x

    c1 = solve(xy)
    rho1 = np.hypot(xy[:, 0] - c1[0], xy[:, 1] - c1[1])
    wall1 = rho1.max() + bed.radius_nominal
    band = rho1 >= wall1 - 2.0 * bed.radius_nominal
    if band.sum() >= 3:
        c2 = solve(xy[band])
    else:
        c2 = c1
    rho2 = np.hypot(xy[band, 0] - c2[0], xy[band, 1] - c2[1])
    R_c = float(rho2.max()) + bed.radius_nominal
    zmin = bed.centers[:, 2].min()
    zmax = bed.centers[:, 2].max()
    H = float(zmax - zmin) + 2.0 * bed.radius_nominal
    return Cylinder((float(c2[0]), float(c2[1])), R_c, H, float(zmin) - bed.radius_nominal)


def fit_box(bed: SphereBed) -> Box:
    """Axis-aligned box hugging the centers, offset by R on every side."""
    R = bed.radius_nominal
    lo = bed.centers.min(axis=0) - R
    hi = bed.centers.max(axis=0) + R
    return Box(tuple(lo), tuple(hi))


def fit_annulus(bed: SphereBed) -> Annulus:
    """Annulus fit: cylinder-axis fit, then radial extremes offset by R."""
    cyl = fit_cylinder(bed)
    rho = np.hypot(bed.centers[:, 0] - cyl.center_xy[0], bed.centers[:, 1] - cyl.center_xy[1])
    R = bed.radius_nominal
    return Annulus(cyl.center_xy, float(rho.min()) - R, float(rho.max()) + R, cyl.H, cyl.z0)


def delaunay_pairs(centers: np.ndarray) -> np.ndarray:
    """Unique Delaunay-connected index pairs, (m, 2) with i < j.

    Degenerate site sets (QhullError) are retried once with a deterministic
    1e-9 jitter; pair distances are always taken from the original points.
    Small sets (< 5) fall back to all pairs.
    """
    n = len(centers)
    if n < 2:
        raise ValidationError("need at least 2 centers")
    if n < 5:
        i, j = np.triu_indices(n, k=1)
        return np.column_stack([i, j])
    try:
        tri = Delaunay(centers)
    except QhullError:
        rng = np.random.default_rng(0)
        jittered = centers + rng.normal(scale=1e-9, size=centers.shape)
        tri = Delaunay(jittered)
    s = tri.simplices
    edges = np.vstack([s[:, [a, b]] for a in range(4) for b in range(a + 1, 4)])
    edges.sort(axis=1)
    code = np.unique(edges[:, 0].astype(np.int64) * n + edges[:, 1])
    return np.column_stack([code // n, code % n])


def separation_profile(bed: SphereBed) -> SeparationProfile:
    """Sorted Delaunay pair-distance list and the nominal separation Delta*.

    Delta* is the entry at (1-based) rank round(SEPARATION_RANK * N);
    packed beds plateau there, so the pick is robust against a few tight
    pairs.
    """
    pairs = delaunay_pairs(bed.centers)
    d = np.linalg.norm(bed.centers[pairs[:, 0]] - bed.centers[pairs[:, 1]], axis=1)
    d.sort()
    rank = int(math.floor(SEPARATION_RANK * bed.n_spheres + 0.5))
    rank = max(rank, 1)
    if rank > len(d):
        log.warning(
            "separation rank %d exceeds %d Delaunay pairs; using the largest distance",
            rank,
            len(d),
        )
        rank = len(d)
    return SeparationProfile(sorted_pair_distances=d, delta_star=float(d[rank - 1]))


def rescale(bed: SphereBed, profile: SeparationProfile) -> SphereBed:
    """Scale the bed by 2/Delta* so the nominal (touching) radius becomes 1."""
    if not profile.delta_star > 0:
        raise ValidationError("delta_star must be positive")
    k = 2.0 / profile.delta_star
    domain = bed.domain.scaled(k) if bed.domain is not None else None
    out = SphereBed(
        centers=bed.centers * k,
        radius_nominal=1.0,
        domain=domain,
        scale_factor=k,
        source_label=bed.source_label,
    )
    if len(out.centers) > 1:
        # the closest pair: the smallest nearest-neighbour distance
        dmin = cKDTree(out.centers).query(out.centers, k=2)[0][:, 1].min()
        if dmin < 2.0 * 0.95:
            log.warning("closest center pair at %.4f R after rescale (overlap > 5%%)", dmin)
    return out


def void_fraction(bed: SphereBed, r_over_R: float = 1.0) -> float:
    """Fraction of the container volume not occupied by spheres of radius r."""
    if bed.domain is None:
        raise ValidationError("void fraction needs a container")
    if not (0.0 < r_over_R <= 1.0):
        raise ValidationError("r_over_R must lie in (0, 1]")
    solid = bed.n_spheres * (4.0 / 3.0) * math.pi * (r_over_R * bed.radius_nominal) ** 3
    vol = bed.domain.volume()
    if solid > vol:
        raise ValidationError(
            f"sphere volume {solid:.6g} exceeds container volume {vol:.6g}"
        )
    return 1.0 - solid / vol
