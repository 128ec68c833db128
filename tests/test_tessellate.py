import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voidhex import fixtures
from voidhex.geometry import GUARD_RADIUS, interior_angles, polygon_area
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import (
    FacetQuadMesh,
    group_edges,
    smooth_facet,
    split_facet,
    subdivide_to_quads,
    tessellate_cells,
)
from voidhex.voronoi import build_cells, generate_ghosts


def regular_polygon(n, radius=1.0):
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


class TestGroupEdges:
    def test_hexagon_all_singletons(self):
        groups = group_edges(regular_polygon(6))
        assert len(groups) == 6
        assert all(len(g) == 1 for g in groups)

    def test_triangle_singletons(self):
        groups = group_edges(regular_polygon(3))
        assert len(groups) == 3

    def test_near_collinear_run_groups_together(self):
        # square with three extra nearly-straight vertices on the bottom edge
        poly = np.array([
            (0.0, 0.0), (1.0, 0.001), (2.0, 0.0), (3.0, 0.001),
            (4.0, 0.0), (4.0, 4.0), (0.0, 4.0),
        ])
        ang = np.degrees(interior_angles(poly))
        assert (ang[1:4] > 155).all()
        groups = group_edges(poly)
        assert [1, 2, 3] in groups
        assert sum(len(g) for g in groups) == 7

    def test_ordered_partition(self):
        poly = regular_polygon(5)
        groups = group_edges(poly)
        flat = [i for g in groups for i in g]
        assert sorted(flat) == list(range(5))


class TestSplitFacet:
    def test_square_single_quad(self):
        uv = regular_polygon(4, radius=0.5)
        pieces = split_facet(uv, group_edges(uv))
        assert len(pieces) == 1
        assert len(pieces[0][0]) == 4

    def test_pentagon_tri_plus_quad(self):
        uv = regular_polygon(5, radius=0.5)
        pieces = split_facet(uv, group_edges(uv))
        sizes = sorted(len(p[0]) for p in pieces)
        assert sizes == [3, 4]

    def test_pieces_have_positive_area_and_cover(self):
        rng = np.random.default_rng(0)
        for n in (5, 6, 7, 9, 12):
            base = regular_polygon(n)
            uv = base * (1.0 + 0.15 * rng.random((n, 1)))
            pieces = split_facet(uv, group_edges(uv))
            total = sum(polygon_area(p[0]) for p in pieces)
            assert total == pytest.approx(polygon_area(uv), rel=1e-9)
            for pts, _ in pieces:
                assert polygon_area(pts) > 0
                assert len(pts) in (3, 4)

    def test_large_facet_gets_barycenter_spokes(self):
        # dodecagon from splitting a hexagon's edges: runs of straight
        # vertices connect to the barycenter
        hexa = regular_polygon(6)
        uv = []
        for k in range(6):
            uv.append(hexa[k])
            uv.append(0.5 * (hexa[k] + hexa[(k + 1) % 6]))
        uv = np.array(uv)
        pieces = split_facet(uv, group_edges(uv))
        labels = {lab for _, labs in pieces for lab in labs}
        assert "bc" in labels


class TestSubdivide:
    def collect(self, pieces):
        nodes = {}
        coords = []

        def get_node(kind, key, uv):
            k = (kind if kind != "corner" else "c", str(key))
            if kind == "mid":
                k = ("m", str(key))
            if k not in nodes:
                nodes[k] = len(coords)
                coords.append(np.asarray(uv, dtype=float))
            return nodes[k]

        quads = subdivide_to_quads(pieces, get_node)
        return quads, coords

    def test_quad_becomes_four(self):
        uv = regular_polygon(4, 0.5)
        quads, coords = self.collect([(uv, [0, 1, 2, 3])])
        assert len(quads) == 4
        assert len(coords) == 9

    def test_triangle_becomes_three(self):
        uv = regular_polygon(3, 0.5)
        quads, coords = self.collect([(uv, [0, 1, 2])])
        assert len(quads) == 3
        assert len(coords) == 7

    def test_mixed_counts(self):
        # 2 quads + 1 triangle -> 4 + 4 + 3 = 11 quads
        sq = regular_polygon(4, 0.5)
        tri = regular_polygon(3, 0.5) + 4.0
        quads, _ = self.collect(
            [(sq, [0, 1, 2, 3]), (sq + 2.0, [3, 2, 4, 5]), (tri, [6, 7, 8])]
        )
        assert len(quads) == 11

    def test_shared_cut_edge_single_midpoint(self):
        # two quads sharing the labeled edge (1, 2): its midpoint node
        # must be created once
        sq = regular_polygon(4, 0.5)
        quads, coords = self.collect([(sq, [0, 1, 2, 3]), (sq + 1.0, [1, 4, 5, 2])])
        assert len(quads) == 8
        # 9 nodes per quad, minus the shared edge: 2 corners + 1 midpoint
        assert len(coords) == 18 - 3


class TestSmoothFacet:
    def test_symmetric_patch_fixed_point(self):
        uv = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
              4: (0.5, 0.0), 5: (1.0, 0.5), 6: (0.5, 1.0), 7: (0.0, 0.5),
              8: (0.5, 0.5)}
        uv = {k: np.array(v) for k, v in uv.items()}
        quads = [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)]
        out, reverted = smooth_facet(uv, quads, [8])
        assert not reverted
        assert np.allclose(out[8], (0.5, 0.5))

    def test_skewed_patch_improves_min_angle_quality(self):
        uv = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
              4: (0.5, 0.0), 5: (1.0, 0.5), 6: (0.5, 1.0), 7: (0.0, 0.5),
              8: (0.9, 0.9)}
        uv = {k: np.array(v, dtype=float) for k, v in uv.items()}
        quads = [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)]

        def min_area(positions):
            return min(polygon_area(np.array([positions[n] for n in q])) for q in quads)

        before = min_area(uv)
        out, reverted = smooth_facet(uv, quads, [8])
        assert not reverted
        assert min_area(out) > before


    def test_inverting_patch_reverts_to_its_input(self):
        # corner 0 pulled up past node 7: smoothing moves the center node 8
        # to the mean of the edge midpoints, (2, 2), which turns quad
        # (0, 4, 8, 7) inside out, so the whole patch keeps its input
        uv = {0: (-1.0, 6.0), 1: (4.0, 0.0), 2: (4.0, 4.0), 3: (0.0, 4.0),
              4: (2.0, 0.0), 5: (4.0, 2.0), 6: (2.0, 4.0), 7: (0.0, 2.0),
              8: (1.0, 4.5)}
        quads = [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)]
        assert min(polygon_area([uv[n] for n in q]) for q in quads) > 0
        out, reverted = smooth_facet(uv, quads, [8])
        assert reverted
        assert out == uv
        assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
                   for n in uv for a, b in zip(out[n], uv[n]))


def old_polygon_area(uv):
    """The former numpy shoelace formula, kept as a reference."""
    x, y = uv[:, 0], uv[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def old_interior_angles(uv):
    """The former numpy interior-angle formula, kept as a reference."""
    v1 = np.roll(uv, 1, axis=0) - uv
    v2 = np.roll(uv, -1, axis=0) - uv
    ang = np.arctan2(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0], (v1 * v2).sum(axis=1))
    return np.mod(-ang, 2.0 * np.pi)


@st.composite
def star_polygons(draw):
    """CCW polygons of 3-16 vertices, star-shaped about the origin; every
    angular gap is under pi, so no vertex is a spike."""
    n = draw(st.integers(3, 16))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.05, 10.0), min_size=n, max_size=n)))
    theta = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    return np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])


class TestPolygonHelpers:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(star_polygons())
    def test_match_numpy_formulas(self, uv):
        area = old_polygon_area(uv)
        assert area > 0
        for pts in (uv, [tuple(p) for p in uv.tolist()]):
            assert polygon_area(pts) == pytest.approx(area, rel=1e-12, abs=1e-12)
            assert np.allclose(interior_angles(pts), old_interior_angles(uv), rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def tessellated():
    bed = fixtures.random_cylinder_bed(n=40, R_c=3.2, H=10.0, seed=4)
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    return tessellate_cells(cs)


class TestTessellateCells:
    def test_all_quads(self, tessellated):
        for patch in tessellated.patches.values():
            for q in patch.quads:
                assert len(q) == 4

    def test_quad_count_rule(self, tessellated):
        # counts follow 4q + 3t exactly: every patch size is a sum of 4s and 3s
        for patch in tessellated.patches.values():
            n = len(patch.quads)
            assert n >= 3
            assert any(4 * q + 3 * t == n for q in range(n // 4 + 1) for t in range(n // 3 + 1))

    def test_conformal_edge_registry(self, tessellated):
        cs = tessellated.cellset
        for (u, v), nid in tessellated.edge_midpoint.items():
            # the midpoint node must be used by every patch whose facet
            # contains the edge
            for fid, f in enumerate(cs.facets):
                if f.deleted or fid not in tessellated.patches:
                    continue
                loop = f.loop
                edges = {tuple(sorted(e)) for e in zip(loop, loop[1:] + loop[:1])}
                if (u, v) in edges:
                    used = {n for q in tessellated.patches[fid].quads for n in q}
                    assert nid in used

    def test_guard_respected(self, tessellated):
        centers = tessellated.cellset.bed.centers
        for nid, owners in tessellated.node_owners.items():
            for c in owners:
                d = np.linalg.norm(tessellated.nodes[nid] - centers[c])
                assert d >= GUARD_RADIUS - 1e-9

    def test_interior_nodes_on_bisecting_plane(self, tessellated):
        cs = tessellated.cellset
        for fid, patch in tessellated.patches.items():
            f = cs.facets[fid]
            for nid in patch.interior_nodes:
                d = abs((tessellated.nodes[nid] - f.plane_point) @ f.plane_normal)
                assert d < 1e-9

    def test_single_patch_serves_both_cells(self, tessellated):
        cs = tessellated.cellset
        for fid, f in enumerate(cs.facets):
            if f.deleted or f.boundary is not None or fid not in tessellated.patches:
                continue
            mine = {tuple(sorted(q)) for x, q in tessellated.cell_quads(f.site_a) if x == fid}
            theirs = {tuple(sorted(q)) for x, q in tessellated.cell_quads(f.site_b) if x == fid}
            assert mine == theirs and mine


def quadmesh_digest(qm: FacetQuadMesh) -> str:
    """sha256 of a tessellation: exact node bytes, each patch's quads and
    interior nodes, and the node owners and edge midpoints, sorted."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(qm.nodes, dtype="<f8").tobytes())
    patches = [(fid, [tuple(int(n) for n in q) for q in p.quads],
                [int(n) for n in p.interior_nodes])
               for fid, p in sorted(qm.patches.items())]
    h.update(repr(patches).encode())
    owners = sorted((int(n), sorted(int(c) for c in cs)) for n, cs in qm.node_owners.items())
    h.update(repr(owners).encode())
    mids = sorted(((int(a), int(b)), int(n)) for (a, b), n in qm.edge_midpoint.items())
    h.update(repr(mids).encode())
    return h.hexdigest()


# Digests of the tessellations of two fixtures. A change to tessellate that
# keeps behaviour keeps these; node coordinates are compared bit for bit.
GOLDEN = {
    "cube_raw": "7e329dd29c8fbada3fa8bf68efa3d609acd05e4c87b0971226d837588828c66f",
    "cylinder_repaired": "2e77d0ad32fd1aa10420bed28edf0333fefdd6a217c5e1d41af9e724e5cfa61f",
}


class TestGoldenDigest:
    def test_cube_raw(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        assert quadmesh_digest(tessellate_cells(cs)) == GOLDEN["cube_raw"]

    def test_cylinder_repaired(self):
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
        cs = build_cells(bed, generate_ghosts(bed))
        repair(cs, RepairConfig())
        assert quadmesh_digest(tessellate_cells(cs)) == GOLDEN["cylinder_repaired"]
