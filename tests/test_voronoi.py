import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from voidhex import fixtures
from voidhex.bed import Annulus, Box, Cylinder, SphereBed, attach_domain
from voidhex.errors import GeometryError
from voidhex.voronoi import (
    GhostSet,
    _dedup_vertices,
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
