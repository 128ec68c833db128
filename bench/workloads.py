"""The benchmark's workloads: how each builds its input and what it runs.

An operation takes one centers file through the workload's pipeline, from
``load_centers`` to its last output. Every call into a voidhex layer goes
through ``tracer.span`` so that the traced run can time it; untraced runs
pass a tracer whose spans do nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from voidhex import fixtures
from voidhex.bed import (
    SphereBed,
    attach_domain,
    fit_box,
    fit_cylinder,
    load_centers,
    rescale,
    separation_profile,
)
from voidhex.hexgen import ExtrusionSpec, extrude_layers, refine_radial, sweep
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import tessellate_cells
from voidhex.voronoi import build_cells, generate_ghosts

import checks

R0 = 0.8889     # sweep radius, fraction of R
SPLIT = 0.55    # radial split of the swept layer, from the facet side


@dataclass(frozen=True)
class Workload:
    name: str
    make_bed: Callable          # seed -> SphereBed, in raw input units
    container: str              # 'cylinder' or 'box', the fit applied on load
    detect_separation: bool     # run separation_profile + rescale
    mesh: bool                  # run tessellate and hexgen after repair
    all_hexes_valid: bool = False


def turned(bed: SphereBed, seed: int) -> SphereBed:
    """The bed rotated about the z axis by a seed-chosen angle, rows shuffled.

    The geometry is the same bed's, so the work done stays the same, while
    every input coordinate and the sphere numbering follow the seed.
    """
    rng = np.random.default_rng(seed)
    a = 2.0 * np.pi * rng.random()
    rot = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    centers = bed.centers[rng.permutation(bed.n_spheres)] @ rot.T
    return SphereBed(centers=centers, source_label=f"{bed.source_label} turned by seed {seed}")


# The bed geometry is fixed in every workload. Most random cylinder beds of
# other seeds stop in tessellate_cells (see CHANGES.md), so cylinder_mesh
# cannot draw a new bed per seed without operations failing on some seeds
# only; and repair time differs by up to 30% from one random 1000-sphere bed
# to the next, more than the metric bounds allow, so cells_large varies only
# the orientation and numbering of one bed.
WORKLOADS = {
    w.name: w for w in (
        Workload("cylinder_mesh",
                 lambda seed: fixtures.random_cylinder_bed(n=100, R_c=4.0, H=15.0, seed=7),
                 "cylinder", detect_separation=True, mesh=True),
        Workload("lattice_box",
                 lambda seed: fixtures.simple_cubic(4),
                 "box", detect_separation=False, mesh=True, all_hexes_valid=True),
        Workload("cells_large",
                 lambda seed: turned(fixtures.random_cylinder_bed(n=1000, R_c=9.0, H=30.0,
                                                                  seed=7), seed),
                 "cylinder", detect_separation=True, mesh=False),
    )
}


def write_centers(bed, path) -> None:
    """Centers file in load_centers' whitespace format, at full precision."""
    np.savetxt(path, bed.centers, fmt="%.17g",
               header=f"{bed.source_label}: {bed.n_spheres} sphere centers")


def run_op(wl: Workload, path, tracer, oplog_path=None) -> SimpleNamespace:
    """One operation: the centers file through the workload's pipeline."""
    cfg = RepairConfig()
    with tracer.span("op"):
        with tracer.span("bed.load_centers"):
            bed = load_centers(path)
        fit = fit_cylinder if wl.container == "cylinder" else fit_box
        with tracer.span(f"bed.{fit.__name__}"):
            domain = fit(bed)
        with tracer.span("bed.attach_domain"):
            bed = attach_domain(bed, domain, fitted=True)
        if wl.detect_separation:
            with tracer.span("bed.separation_profile"):
                profile = separation_profile(bed)
            with tracer.span("bed.rescale"):
                bed = rescale(bed, profile)
        with tracer.span("voronoi.generate_ghosts", memory=True):
            ghosts = generate_ghosts(bed)
        with tracer.span("voronoi.build_cells", memory=True):
            cells = build_cells(bed, ghosts)
        facets_built = len(cells.facets)
        with tracer.span("repair.repair", memory=True):
            repair(cells, cfg, log_path=oplog_path)
        out = SimpleNamespace(cells=cells, facets_built=facets_built, cfg=cfg,
                              quads=None, mesh=None)
        if not wl.mesh:
            return out
        with tracer.span("tessellate.tessellate_cells", memory=True):
            out.quads = tessellate_cells(cells)
        with tracer.span("hexgen.sweep", memory=True):
            mesh = sweep(out.quads, R0)
        with tracer.span("hexgen.refine_radial", memory=True):
            mesh = refine_radial(mesh, SPLIT)
        with tracer.span("hexgen.extrude_layers", memory=True):
            out.mesh = extrude_layers(mesh, ExtrusionSpec())
    return out


def check_op(wl: Workload, out) -> tuple[np.ndarray, int]:
    """Run every independent check on an operation's output.

    Raises checks.CheckError on a violation. Returns the quality of each
    final element and the element count: per hex the minimum corner scaled
    Jacobian when meshing, otherwise per repaired cell its shortest live
    edge in units of R.
    """
    R = out.cells.bed.radius_nominal
    cell_stats = checks.check_repaired_cells(
        out.cells, out.cfg.max_edge * R, out.cfg.guard_radius * R)
    if out.mesh is None:
        return cell_stats["shortest_edge"] / R, cell_stats["cells"]
    mesh = out.mesh
    checks.check_hex_mesh(mesh.nodes, mesh.elements, mesh.face_tags)
    checks.check_layers(mesh.elem_layer)
    checks.check_sweep_radius(mesh.nodes, mesh.sphere_centers, mesh.columns, R0 * R)
    sj = checks.min_scaled_jacobian(mesh.nodes, mesh.elements)
    if wl.all_hexes_valid and sj.min() <= 0:
        raise checks.CheckError(f"{int((sj <= 0).sum())} hexes have a corner det <= 0")
    return sj, len(mesh.elements)
