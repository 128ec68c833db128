import numpy as np
import pytest

from voidhex import fixtures
from voidhex.bed import Box, SphereBed, attach_domain
from voidhex.errors import GeometryError
from voidhex.geometry import GUARD_RADIUS, push_outside
from voidhex.repair import (
    RepairConfig,
    boundary_zone,
    collapse_edges,
    edge_lengths,
    guard_projection,
    insert_vertices,
    repair,
)
from voidhex.voronoi import Facet, VoronoiCellSet, build_cells, generate_ghosts


def make_synthetic(points, loops, n_centers=1):
    """Single-cell cell set around center(s) at the origin-ish for unit tests."""
    centers = np.zeros((n_centers, 3))
    centers[:, 2] = np.arange(n_centers) * 4.0
    lo = centers.min(axis=0) - 3.0
    hi = centers.max(axis=0) + 3.0
    bed = attach_domain(SphereBed(centers=centers), Box(tuple(lo), tuple(hi)))
    facets = []
    for loop in loops:
        pts = np.asarray(points)[loop]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        n = n / np.linalg.norm(n)
        if np.dot(pts.mean(axis=0) - centers[0], n) < 0:
            n = -n
        facets.append(
            Facet(loop=list(loop), site_a=0, site_b=n_centers,
                  plane_point=pts.mean(axis=0), plane_normal=n, boundary="wall")
        )
    from voidhex.voronoi import GhostSet

    ghosts = GhostSet(ghost_centers=np.array([[0.0, 0.0, -10.0]]), provenance=[(0, "z_bottom")])
    return VoronoiCellSet(
        points=np.asarray(points, dtype=float),
        facets=facets,
        cells=[list(range(len(facets))) for _ in range(n_centers)][:n_centers],
        sites=np.vstack([centers, ghosts.ghost_centers]),
        n_real=n_centers,
        bed=bed,
        ghosts=ghosts,
    )


class TestToleranceSchedule:
    def test_ramp_values(self):
        cfg = RepairConfig()
        tols = [cfg.tol_inf * cfg.pass_tolerance(k) for k in range(1, 11)]
        assert tols[0] == pytest.approx(0.35 * 0.6**7)
        assert tols[7] == pytest.approx(0.35)
        assert tols[8] == pytest.approx(0.35)
        assert tols[9] == pytest.approx(0.35)
        # a 0.1R edge survives until pass 6, the first with tol >= 0.1
        first = next(k for k in range(1, 11) if 0.35 * RepairConfig().pass_tolerance(k) >= 0.1)
        assert 0.35 * 0.6**4 < 0.1 and 0.35 * 0.6**3 < 0.1 and 0.35 * 0.6**2 > 0.1
        assert first == 6

    def test_short_edge_collapses_in_pass_six(self):
        # quad with one 0.1-length edge far from the guard sphere
        pts = [(2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 1.05, 1.0), (2.0, 0.95, 1.0)]
        # edge (2,3) has length 0.1
        cs = make_synthetic(pts, [[0, 1, 2, 3]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        col = [r for r in oplog if r["op"] == "collapse"]
        assert len(col) == 1
        assert col[0]["pass"] == 6
        assert sorted(col[0]["edge"]) == [2, 3]
        assert cs.facets[0].loop == [0, 1, 2]
        assert np.allclose(cs.points[2], (2.0, 1.0, 1.0))

    def test_no_short_edges_is_identity(self):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        loops_before = [list(f.loop) for f in cs.facets]
        pts_before = cs.points.copy()
        collapse_edges(cs, RepairConfig())
        assert [list(f.loop) for f in cs.facets] == loops_before
        assert np.array_equal(cs.points, pts_before)

    def test_triangle_with_collapsed_edge_is_deleted(self):
        pts = [(2.0, -1.0, 0.0), (2.0, 1.0, 0.0), (2.0, 1.0, 0.05)]
        cs = make_synthetic(pts, [[0, 1, 2]])
        collapse_edges(cs, RepairConfig())
        assert cs.facets[0].deleted


class TestInsertVertices:
    def test_single_bisection(self):
        pts = [(2.0, -0.5, -0.5), (2.0, 0.5, -0.5), (2.0, 0.5, 0.5), (2.0, -0.5, 0.5)]
        cs = make_synthetic(pts, [[0, 1, 2, 3]])
        insert_vertices(cs, RepairConfig())
        # every edge was exactly 1.0 -> split once into 0.5 pieces
        loop = cs.facets[0].loop
        assert len(loop) == 8
        pairs = list(zip(loop, loop[1:] + loop[:1]))
        lengths = [np.linalg.norm(cs.points[a] - cs.points[b]) for a, b in pairs]
        assert np.allclose(lengths, 0.5)

    def test_below_threshold_unchanged(self):
        s = 0.7 / 2
        pts = [(2.0, -s, -s), (2.0, s, -s), (2.0, s, s), (2.0, -s, s)]
        cs = make_synthetic(pts, [[0, 1, 2, 3]])
        insert_vertices(cs, RepairConfig())
        assert len(cs.facets[0].loop) == 4

    def test_recursive_split(self):
        # 1.9-long edges: two bisection levels -> four 0.475 pieces
        pts = [(2.0, -0.95, -0.95), (2.0, 0.95, -0.95), (2.0, 0.95, 0.95), (2.0, -0.95, 0.95)]
        cs = make_synthetic(pts, [[0, 1, 2, 3]])
        insert_vertices(cs, RepairConfig())
        loop = cs.facets[0].loop
        assert len(loop) == 16
        pairs = list(zip(loop, loop[1:] + loop[:1]))
        lengths = [np.linalg.norm(cs.points[a] - cs.points[b]) for a, b in pairs]
        assert np.allclose(lengths, 0.475)

    def test_shared_edge_split_consistently(self):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        insert_vertices(cs, RepairConfig())
        # identical midpoint chain in every facet that shares an edge
        seen = {}
        for f in cs.facets:
            if f.deleted:
                continue
            loop = f.loop
            for a, b in zip(loop, loop[1:] + loop[:1]):
                key = (a, b) if a < b else (b, a)
                seen.setdefault(key, 0)
                seen[key] += 1
        # cube cells: every split sub-edge is shared by >= 2 facets
        assert all(cnt >= 2 for cnt in seen.values())


class TestGuardProjection:
    def test_push_to_guard(self):
        pts = [(0.9, 0.0, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.0, 1.0)]
        cs = make_synthetic(pts, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]])
        guard_projection(cs, RepairConfig())
        assert np.linalg.norm(cs.points[0]) == pytest.approx(0.93)
        assert np.allclose(cs.points[0], (0.93, 0.0, 0.0))

    def test_outside_guard_unchanged(self):
        pts = [(1.2, 0.0, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.0, 1.0)]
        cs = make_synthetic(pts, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]])
        before = cs.points.copy()
        guard_projection(cs, RepairConfig())
        assert np.array_equal(cs.points, before)

    def test_guard_radius_is_fixed(self):
        assert RepairConfig().guard_radius == GUARD_RADIUS
        with pytest.raises(TypeError):
            RepairConfig(guard_radius=0.9)

    def test_deadlock_raises(self):
        # one point owned by two spheres 1.0 R apart, between them: a push
        # along the axis out of one guard sphere lands it inside the other
        centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        points = np.array([[0.4, 0.0, 0.0]])
        with pytest.raises(GeometryError, match=r"point 0 .* cells \[0, 1\]"):
            push_outside(points, [(0, 0), (0, 1)], centers, GUARD_RADIUS)

    def test_tangent_edge_midpoint_pushed(self):
        # edge grazing the sphere: midpoint dips to 0.91 < guard
        a = np.array([0.91, -1.0, 0.0])
        b = np.array([0.91, 1.0, 0.0])
        pts = [a, b, (2.0, 0.0, 1.5), (2.0, 0.0, -1.5)]
        cs = make_synthetic(pts, [[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
        insert_vertices(cs, RepairConfig())  # splits the 2.0-long edges
        R = 1.0
        for i, p in enumerate(cs.points):
            assert np.linalg.norm(p) >= 0.93 * R - 1e-12, f"vertex {i} inside guard"


@pytest.fixture(scope="module")
def repaired():
    bed = fixtures.random_cylinder_bed(n=40, R_c=3.2, H=10.0, seed=4)
    cs = build_cells(bed, generate_ghosts(bed))
    oplog = []
    cfg = RepairConfig()
    collapse_edges(cs, cfg, oplog=oplog)
    guard_projection(cs, cfg, oplog=oplog)
    insert_vertices(cs, cfg, oplog=oplog)
    return cs, oplog


class TestFullRepair:

    def test_edge_bounds(self, repaired):
        cs, _ = repaired
        for L, base_tol in edge_lengths(cs):
            assert L >= base_tol - 1e-12
            assert L <= 0.8 + 1e-12

    def test_edge_lengths_use_given_config(self, repaired):
        cs, _ = repaired
        tols = {t for _, t in edge_lengths(cs, RepairConfig(tol_boundary=0.2))}
        assert 0.2 in tols
        assert 0.25 not in tols

    def test_edge_ratio_bound(self, repaired):
        cs, _ = repaired
        interior = [L for L, t in edge_lengths(cs) if t == 0.35]
        if interior:
            assert max(interior) / min(interior) <= 0.8 / 0.35 + 1e-9

    def test_guard_invariant(self, repaired):
        cs, _ = repaired
        for i in range(cs.n_real):
            vids = sorted(set(v for f in cs.cell_facets(i) for v in f.loop))
            d = np.linalg.norm(cs.points[vids] - cs.bed.centers[i], axis=1)
            assert d.min() >= GUARD_RADIUS - 1e-12

    def test_one_move_per_vertex_per_pass(self, repaired):
        _, oplog = repaired
        from collections import Counter

        per_pass = Counter()
        for rec in oplog:
            if rec["op"] == "collapse":
                for v in rec["edge"]:
                    per_pass[(rec["pass"], v)] += 1
        assert all(c == 1 for c in per_pass.values())

    def test_mirror_facets_stay_shared(self, repaired):
        cs, _ = repaired
        for fid, f in enumerate(cs.facets):
            if f.deleted or f.site_b >= cs.n_real:
                continue
            assert fid in cs.cells[f.site_a]
            assert fid in cs.cells[f.site_b]

    def test_repair_writes_oplog(self, tmp_path):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        p = tmp_path / "ops.jsonl"
        repair(cs, RepairConfig(), log_path=p)
        import json

        recs = [json.loads(line) for line in p.read_text().splitlines()]
        assert all("op" in r for r in recs)


class TestBoundaryZone:
    def test_zone_flags(self):
        bed = fixtures.random_cylinder_bed(n=40, R_c=3.5, H=12.0, seed=2)
        cs = build_cells(bed, generate_ghosts(bed))
        zone = boundary_zone(cs)
        clear = bed.domain.wall_clearance(bed.centers)
        assert np.array_equal(zone, clear < 2.0)
