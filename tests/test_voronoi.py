import copy
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from voidhex import fixtures
from voidhex.bed import Annulus, Box, Cylinder, SphereBed, attach_domain
from voidhex.errors import GeometryError
from voidhex.voronoi import (
    PLANARITY_TOL,
    VALIDATE_BLOCK,
    GhostSet,
    _dedup_vertices,
    _validate_cells,
    build_cells,
    cell_volume,
    dump_off,
    generate_ghosts,
    point_in_cell,
)


class TestGhosts:
    def test_radial_only(self):
        bed = attach_domain(
            SphereBed(centers=np.array([[9.5, 0.0, 10.0]])),
            Cylinder((0.0, 0.0), 10.0, 20.0),
        )
        g = generate_ghosts(bed)
        assert g.n_ghosts == 1
        assert np.allclose(g.ghost_centers[0], [10.5, 0.0, 10.0])
        assert g.provenance[0] == (0, "radial_outer")

    def test_interior_center_no_ghosts(self):
        bed = attach_domain(
            SphereBed(centers=np.array([[0.0, 0.0, 10.0]])),
            Cylinder((0.0, 0.0), 10.0, 20.0),
        )
        assert generate_ghosts(bed).n_ghosts == 0

    def test_corner_center_chains_z_reflection(self):
        bed = attach_domain(
            SphereBed(centers=np.array([[9.5, 0.0, 1.0]])),
            Cylinder((0.0, 0.0), 10.0, 20.0),
        )
        g = generate_ghosts(bed)
        got = {tuple(np.round(c, 9)) for c in g.ghost_centers}
        assert got == {(10.5, 0.0, 1.0), (9.5, 0.0, -1.0), (10.5, 0.0, -1.0)}

    def test_all_ghosts_outside(self):
        bed = fixtures.random_cylinder_bed(n=40, R_c=3.5, H=10.0, seed=2)
        g = generate_ghosts(bed)
        assert g.n_ghosts > 0
        assert not bed.domain.contains(g.ghost_centers).any()

    def test_annulus_inner_reflection_preserves_distance(self):
        bed = attach_domain(
            SphereBed(centers=np.array([[3.5, 0.0, 5.0]])),
            Annulus((0.0, 0.0), 2.5, 6.0, 10.0),
        )
        g = generate_ghosts(bed)
        kinds = {k for _, k in g.provenance}
        assert "radial_inner" in kinds
        inner = g.ghost_centers[[k == "radial_inner" for _, k in g.provenance]][0]
        # wall distance 1.0 preserved on the other side of R_i
        assert np.hypot(inner[0], inner[1]) == pytest.approx(1.5)

    def test_box_reflections(self):
        bed = fixtures.simple_cubic(2)  # 8 spheres, every one in a corner
        g = generate_ghosts(bed)
        assert g.n_ghosts == 8 * 3


class TestBuildCells:
    def test_two_sites_shared_facet_on_bisector(self):
        centers = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bed = attach_domain(
            SphereBed(centers=centers), Box((-2.9, -1.9, -1.9), (2.9, 1.9, 1.9))
        )
        cs = build_cells(bed, generate_ghosts(bed))
        shared = [f for f in cs.facets if f.site_a == 0 and f.site_b == 1 and not f.deleted]
        assert len(shared) == 1
        pts = cs.points[shared[0].loop]
        assert np.max(np.abs(pts[:, 0])) < 1e-9

    def test_simple_cubic_interior_cell_is_cube(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        i = 13  # (3,3,3), the interior sphere
        facets = cs.cell_facets(i)
        assert len(facets) == 6
        for f in facets:
            assert len(f.loop) == 4
        vids = sorted(set(v for f in facets for v in f.loop))
        assert len(vids) == 8
        rel = cs.points[vids] - bed.centers[i]
        assert np.allclose(np.sort(np.abs(rel), axis=0), 1.0, atol=1e-9)
        assert cell_volume(cs, i) == pytest.approx(8.0, rel=1e-9)

    def test_boundary_tags(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        corner = 0  # (1,1,1)
        tags = sorted(f.boundary for f in cs.cell_facets(corner) if f.boundary)
        assert tags == ["inlet", "wall", "wall"]

    def test_facet_basis_orthonormal(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        for f in cs.facets:
            basis = np.array([f.e1, f.e2])
            assert np.allclose(basis @ basis.T, np.eye(2), rtol=0.0, atol=1e-12)
            assert np.allclose(np.cross(f.e1, f.e2), f.plane_normal, rtol=0.0, atol=1e-12)

    def test_facet_tags_symmetric(self):
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=3)
        cs = build_cells(bed, generate_ghosts(bed))
        for fid, f in enumerate(cs.facets):
            if f.boundary is None:
                assert fid in cs.cells[f.site_a]
                assert fid in cs.cells[f.site_b]

    def test_unbounded_cell_raises(self):
        centers = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bed = attach_domain(
            SphereBed(centers=centers), Box((-2.9, -1.9, -1.9), (2.9, 1.9, 1.9))
        )
        empty = GhostSet(ghost_centers=np.empty((0, 3)), provenance=[])
        with pytest.raises(GeometryError, match="unbounded"):
            build_cells(bed, empty)

    def test_volume_sum_against_monte_carlo(self):
        bed = fixtures.random_cylinder_bed(n=50, R_c=3.2, H=10.0, seed=4)
        cs = build_cells(bed, generate_ghosts(bed))
        total = sum(cell_volume(cs, i) for i in range(cs.n_real))
        dom_vol = bed.domain.volume()
        # polyhedral cells circumscribe the curved wall, so the analytic sum
        # exceeds the domain volume; the Monte-Carlo oracle asks whether the
        # cells cover the domain itself.
        assert total > dom_vol * 0.999
        rng = np.random.default_rng(99)
        samples = bed.domain.sample(10**6, rng)
        from scipy.spatial import cKDTree

        _, owner = cKDTree(cs.sites).query(samples, k=1)
        frac_real = np.mean(owner < cs.n_real)
        assert frac_real == 1.0  # every domain point belongs to a real site
        covered = np.zeros(len(samples), dtype=bool)
        for i in range(cs.n_real):
            mine = owner == i
            covered[mine] = point_in_cell(cs, i, samples[mine], tol=1e-9)
        mc_volume = covered.mean() * dom_vol
        assert abs(mc_volume - dom_vol) / dom_vol < 0.005

    def test_nearest_site_property(self):
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
        cs = build_cells(bed, generate_ghosts(bed))
        rng = np.random.default_rng(17)
        pts = bed.domain.sample(10**4, rng)
        from scipy.spatial import cKDTree

        d, owner = cKDTree(cs.sites).query(pts, k=1)
        assert (owner < cs.n_real).all()
        for i in range(cs.n_real):
            mine = owner == i
            if mine.any():
                assert point_in_cell(cs, i, pts[mine], tol=1e-9).all()

    def test_off_dump(self, tmp_path):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        p = tmp_path / "cells.off"
        dump_off(cs, p)
        head = p.read_text().splitlines()
        assert head[0] == "OFF"
        nv, nf, _ = map(int, head[1].split())
        assert nv == len(cs.points)
        assert nf == sum(not f.deleted for f in cs.facets)
        verts = np.array([[float(v) for v in line.split()] for line in head[2:2 + nv]])
        assert verts.tobytes() == cs.points.tobytes()


def union_find_dedup(verts, tol):
    """The union-find merge _dedup_vertices first had, kept as the reference."""
    parent = np.arange(len(verts))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in sorted(cKDTree(verts).query_pairs(tol)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    root = np.array([find(i) for i in range(len(verts))])
    keep = np.flatnonzero(root == np.arange(len(verts)))
    remap = np.full(len(verts), -1)
    remap[keep] = np.arange(len(keep))
    return verts[keep].copy(), remap[root]


coords = st.floats(0.0, 2.0, allow_nan=False)


class TestDedupVertices:
    def test_transitive_chain(self):
        # a-b and b-c lie within tol, a-c does not: all three merge into a
        verts = np.array([(0.0, 0, 0), (5, 5, 5), (0.6, 0, 0), (1.2, 0, 0)])
        kept, remap = _dedup_vertices(verts, 1.0)
        assert kept.tolist() == [[0.0, 0, 0], [5, 5, 5]]
        assert remap.tolist() == [0, 1, 0, 0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=60),
           st.sampled_from([1e-10, 0.05, 0.3, 0.8]))
    def test_matches_union_find(self, points, tol):
        verts = np.array(points)
        kept, remap = _dedup_vertices(verts, tol)
        ref_kept, ref_remap = union_find_dedup(verts, tol)
        assert kept.tobytes() == ref_kept.tobytes()
        assert remap.tolist() == ref_remap.tolist()


def reference_validate_cells(cs) -> None:
    """The per-cell loop _validate_cells first had, kept as the reference."""
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
        edges = {}
        for f in fl:
            loop = cs.facet_loop_for_cell(f, i)
            for u, v in zip(loop, loop[1:] + loop[:1]):
                edges[(u, v)] = edges.get((u, v), 0) + 1
        for (u, v), cnt in edges.items():
            if cnt != 1 or edges.get((v, u), 0) != 1:
                raise GeometryError(f"cell {i} facet shell is not watertight at edge {u}-{v}")


def _few_facets(cs):
    cs.cells[2] = cs.cells[2][:3]


def _vertex_outside(cs):
    # the box corner (4, 4, 4) belongs to cell 7 alone
    cs.points[cs.points.tolist().index([4.0, 4.0, 4.0])] = (4.5, 4.0, 4.0)


def _site_outside(cs):
    cs.sites[5] = (3.0, -1.0, 3.0)  # below the y = 0 wall of cell 5


def _not_watertight(cs):
    del cs.cells[3][1]


def _facet_deleted(cs):
    # a live facet marked deleted leaves a hole in both of its cells
    cs.facets[cs.cells[6][2]].deleted = True


def _one_facet_both(cs):
    # the y = 0 wall of cell 5 fails both: the vertex check comes first
    _site_outside(cs)
    cs.points[cs.points.tolist().index([4.0, 0.0, 4.0])] = (4.0, -0.5, 4.0)


def _all(cs):
    for breaker in (_vertex_outside, _site_outside, _not_watertight):
        breaker(cs)


def _site_and_vertex(cs):
    # cell 5's first facet is its y = 0 wall, which the site fails; the
    # vertex fails a later facet, the z = 4 plane
    _site_outside(cs)
    cs.points[cs.points.tolist().index([4.0, 0.0, 4.0])] = (4.0, 0.0, 4.5)


def _vertex_and_site(cs):
    # the other way round: the vertex fails the y = 0 wall, the site z = 4
    cs.sites[5] = (3.0, 1.0, 5.0)
    cs.points[cs.points.tolist().index([4.0, 0.0, 4.0])] = (4.0, -0.5, 4.0)


class TestValidateCells:
    """Each raise branch of _validate_cells on a hand-broken simple_cubic(2)
    cell set: the lowest-numbered failing cell is reported, with the same
    message as the reference loop."""

    @pytest.mark.parametrize("breaker, message", [
        (_few_facets, "cell 2 has only 3 facets"),
        (_vertex_outside, "cell 7 is not convex: vertex 0.5 outside a facet plane"),
        (_site_outside, "site 5 is not strictly inside its cell"),
        (_not_watertight, r"cell 3 facet shell is not watertight at edge \d+-\d+"),
        (_facet_deleted, r"cell \d facet shell is not watertight at edge \d+-\d+"),
        (_all, r"cell 3 facet shell is not watertight"),
        (_site_and_vertex, "site 5 is not strictly inside its cell"),
        (_vertex_and_site, "cell 5 is not convex: vertex 0.5 outside a facet plane"),
        (_one_facet_both, "cell 5 is not convex: vertex 0.5 outside a facet plane"),
    ])
    def test_raise_branch(self, breaker, message):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        breaker(cs)
        with pytest.raises(GeometryError) as got:
            _validate_cells(cs)
        with pytest.raises(GeometryError) as ref:
            reference_validate_cells(cs)
        assert str(got.value) == str(ref.value)
        assert re.match(message, str(got.value))

    def test_valid_cells_pass(self):
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
        cs = build_cells(bed, generate_ghosts(bed))
        reference_validate_cells(cs)
        _validate_cells(cs)


@cache
def _lattice_cells(n=3):
    bed = fixtures.simple_cubic(n)
    return build_cells(bed, generate_ghosts(bed))


def _outcome(check, cs):
    try:
        check(cs)
    except GeometryError as exc:
        return str(exc)
    return None


edits = st.lists(st.tuples(st.sampled_from(["drop", "delete", "vertex", "site"]),
                           st.integers(0, 10**6), st.integers(0, 2),
                           st.sampled_from([-0.5, -1e-7, 1e-7, 0.5])),
                 min_size=1, max_size=3)


def _broken_lattice(changes, n=3):
    """A simple_cubic(n) cell set with the given edits: a facet dropped from
    a cell's list or marked deleted, a vertex or a site moved along an axis."""
    cs = copy.deepcopy(_lattice_cells(n))
    for kind, pick, axis, step in changes:
        cell = cs.cells[pick % cs.n_real]
        if kind == "drop" and cell:
            del cell[pick % len(cell)]
        elif kind == "delete":
            cs.facets[pick % len(cs.facets)].deleted = True
        elif kind == "vertex":
            cs.points[pick % len(cs.points), axis] += step
        elif kind == "site":
            cs.sites[pick % cs.n_real, axis] += 3 * step
    return cs


class TestValidateCellsProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(edits)
    def test_matches_reference(self, changes):
        """Random breaks of a simple_cubic(3) cell set: _validate_cells
        reports what the reference loop reports."""
        cs = _broken_lattice(changes)
        assert _outcome(_validate_cells, cs) == _outcome(reference_validate_cells, cs)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(edits)
    @example([("drop", 100, 0, 0.5)])
    @example([("site", 70, 1, 0.5), ("drop", 120, 0, 0.5)])
    def test_blocks_match_reference(self, changes):
        """The same on a simple_cubic(5) cell set, whose 125 cells span two
        blocks of VALIDATE_BLOCK cells: the failing cell the reference
        reports may sit in the second block, not only the first."""
        cs = _broken_lattice(changes, n=5)
        assert cs.n_real > VALIDATE_BLOCK
        assert _outcome(_validate_cells, cs) == _outcome(reference_validate_cells, cs)
