"""Beds through the whole pipeline: each meshes into a conformal mesh
with every hex corner det positive, or fails with its known error.

The beds are preconditioned as documented: the container fitted with a
full R of wall clearance, then, with separation detection,
`separation_profile` and `rescale`. The annulus bed keeps the domain it was
built in. A bed that stops, or meshes with hexes inverted, is a strict
xfail that names its ROADMAP item and its exact error or count; no bed is
dropped or re-seeded to hide one. Each bed goes through the pipeline once
(`outcome`); `test_bed_meshes` and `test_hexes_are_valid` read the result.
"""

from functools import cache

import numpy as np
import pytest

from voidhex import fixtures
from voidhex.bed import attach_domain, fit_box, fit_cylinder, rescale, separation_profile
from voidhex.errors import GeometryError
from voidhex.hexgen import audit_conformal, corner_jacobians, extrude_layers, refine_radial, sweep
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import tessellate_cells
from voidhex.voronoi import build_cells, generate_ghosts


class InvertedHexes(Exception):
    """A mesh with hexes whose corner det is not positive."""


def cylinder(n, R_c, H, seed):
    bed = fixtures.random_cylinder_bed(n, R_c, H, seed=seed)
    bed = attach_domain(bed, fit_cylinder(bed), fitted=True)
    return rescale(bed, separation_profile(bed))


def lattice(k, detect):
    bed = fixtures.simple_cubic(k)
    bed = attach_domain(bed, fit_box(bed), fitted=True)
    return rescale(bed, separation_profile(bed)) if detect else bed


# Each bed, with the (point, cells) at which the tessellation's guard check
# stops, the lowest-numbered point inside the guard spheres of those cells
# (ROADMAP item 1: two centers closer than twice the guard radius, or a
# center too near its wall after the rescale), or the (count, hexes) of a
# mesh with hexes whose corner det is not positive (ROADMAP item 16).
GUARD_STOPS = {2: (7571, [30, 93]), 4: (5676, [70, 89]), 5: (7499, [8, 19]),
               8: (7594, [23, 49]), 10: (6329, [16, 98]), 11: (6779, [7, 60])}
BEDS = {
    **{f"cylinder100_seed{s}": (lambda s=s: cylinder(100, 4.0, 15.0, s), GUARD_STOPS.get(s),
                                (6, 86669) if s == 6 else None) for s in range(1, 12)},
    "cylinder300_seed3": (lambda: cylinder(300, 6.0, 20.0, 3), None, (9, 245665)),
    "annulus100_unfitted": (lambda: fixtures.random_annulus_bed(n=100), None, (36, 108065)),
    **{f"cylinder30_seed{s}": (lambda s=s: cylinder(30, 3.0, 9.0, s), stop, None)
       for s, stop in ((1, (1682, [23, 27])), (2, (1548, [19])), (3, (1544, [19])))},
    **{f"lattice{k}": (lambda k=k: lattice(k, False), None, None) for k in (3, 4, 5)},
    # detection takes Delta* = 2.83 on a lattice, so its spacing becomes 1.414 R
    **{f"lattice{k}_detected": (lambda k=k: lattice(k, True), stop, None)
       for k, stop in ((3, (496, [24])), (4, (1025, [3])), (5, (1836, [75, 100])))},
}


@cache
def outcome(name):
    """The GeometryError that stops bed ``name`` in the pipeline, or the
    (inverted, all) hex counts of its mesh, which passed `audit_conformal`."""
    bed = BEDS[name][0]()
    try:
        cs = build_cells(bed, generate_ghosts(bed))
        repair(cs, RepairConfig())
        mesh = extrude_layers(refine_radial(sweep(tessellate_cells(cs))))
    except GeometryError as exc:
        return exc
    audit_conformal(mesh)
    dets = np.linalg.det(corner_jacobians(mesh.nodes, mesh.elements))
    return int((dets <= 0).any(axis=1).sum()), len(mesh.elements)


def stop_cases():
    for name, (_, stop, _) in BEDS.items():
        if stop is None:
            yield pytest.param(name, None, id=name)
            continue
        error = (f"point {stop[0]} cannot clear the guard spheres of cells {stop[1]}; "
                 "packing too tight for the guard radius")
        mark = pytest.mark.xfail(strict=True, raises=GeometryError,
                                 reason=f"ROADMAP item 1, an infeasible guard: {error}")
        yield pytest.param(name, error, marks=mark, id=name)


def inverted_cases():
    for name, (_, stop, inverted) in BEDS.items():
        if stop is not None:
            continue
        if inverted is None:
            yield pytest.param(name, None, id=name)
            continue
        error = "{} of {} hexes have a corner det <= 0".format(*inverted)
        mark = pytest.mark.xfail(strict=True, raises=InvertedHexes,
                                 reason=f"ROADMAP item 16, facets that leave their plane: {error}")
        yield pytest.param(name, error, marks=mark, id=name)


@pytest.mark.parametrize("name, error", stop_cases())
def test_bed_meshes(name, error):
    """The bed meshes into a conformal mesh, or stops with its known error."""
    got = outcome(name)
    if isinstance(got, GeometryError):
        assert str(got) == error
        raise got


@pytest.mark.parametrize("name, error", inverted_cases())
def test_hexes_are_valid(name, error):
    """Every hex of the bed's mesh has a positive det at each corner."""
    bad, n = outcome(name)
    if bad:
        found = f"{bad} of {n} hexes have a corner det <= 0"
        assert found == error
        raise InvertedHexes(found)
