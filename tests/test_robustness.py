"""Random beds through the whole pipeline: each meshes into a conformal
mesh, or fails with its known error.

The beds are preconditioned as documented: the container fitted with a
full R of wall clearance, then `separation_profile` and `rescale`. The
annulus bed keeps the domain it was built in. A bed that stops is a strict
xfail that names its ROADMAP item and its exact error; no bed is dropped
or re-seeded to hide one.
"""

import pytest

from voidhex import fixtures
from voidhex.bed import attach_domain, fit_cylinder, rescale, separation_profile
from voidhex.errors import GeometryError
from voidhex.hexgen import audit_conformal, extrude_layers, refine_radial, sweep
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import tessellate_cells
from voidhex.voronoi import build_cells, generate_ghosts


def cylinder(n, R_c, H, seed):
    bed = fixtures.random_cylinder_bed(n, R_c, H, seed=seed)
    bed = attach_domain(bed, fit_cylinder(bed), fitted=True)
    return rescale(bed, separation_profile(bed))


def case(name, make, guard_stop=None):
    """A bed; ``guard_stop`` holds the (point, cells) at which the
    tessellation's guard check stops, the lowest-numbered point inside the
    guard spheres of those cells, where two centers sit closer than twice
    the guard radius (ROADMAP item 1)."""
    if guard_stop is None:
        return pytest.param(make, None, id=name)
    point, cells = guard_stop
    error = (f"point {point} cannot clear the guard spheres of cells {cells}; "
             "packing too tight for the guard radius")
    mark = pytest.mark.xfail(strict=True, raises=GeometryError,
                             reason=f"ROADMAP item 1, an infeasible guard: {error}")
    return pytest.param(make, error, marks=mark, id=name)


GUARD_STOPS = {2: (9202, [30, 93]), 4: (5104, [70, 89]), 5: (8534, [8, 19]),
               8: (9233, [23, 49]), 10: (6158, [16, 98]), 11: (7243, [7, 60])}


@pytest.mark.parametrize("make, error", [
    *(case(f"cylinder100_seed{s}", lambda s=s: cylinder(100, 4.0, 15.0, s), GUARD_STOPS.get(s))
      for s in range(1, 12)),
    case("cylinder300_seed3", lambda: cylinder(300, 6.0, 20.0, 3)),
    case("annulus100_unfitted", lambda: fixtures.random_annulus_bed(n=100)),
])
def test_bed_meshes(make, error):
    bed = make()
    try:
        cs = build_cells(bed, generate_ghosts(bed))
        repair(cs, RepairConfig())
        mesh = extrude_layers(refine_radial(sweep(tessellate_cells(cs))))
    except GeometryError as exc:
        assert str(exc) == error
        raise
    audit_conformal(mesh)
