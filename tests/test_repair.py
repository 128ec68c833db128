import copy
import hashlib
import json
import math
from dataclasses import FrozenInstanceError
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voidhex import fixtures
from voidhex.bed import (
    RADIAL,
    Box,
    SphereBed,
    attach_domain,
    fit_cylinder,
    rescale,
    separation_profile,
)
from voidhex.errors import GeometryError, ValidationError
from voidhex.geometry import GUARD_RADIUS, check_guard, plane_basis
from voidhex.repair import (
    COLLAPSE_PASSES,
    RepairConfig,
    _Repair,
    _base_tolerance,
    _edge_table,
    _facet_zone,
    _loop_rows,
    boundary_zone,
    collapse_edges,
    insert_vertices,
    repair,
)
from voidhex.voronoi import VoronoiCellSet, build_cells, generate_ghosts


def csr(lists):
    """(start, entries) int64 arrays of a list of int lists: the form of a
    cell set's loops and of its cells."""
    start = np.concatenate([[0], np.cumsum([len(x) for x in lists], dtype=np.int64)])
    return start.astype(np.int64), np.array([v for x in lists for v in x], dtype=np.int64)


def loops_of(cs) -> list:
    """Every facet's loop, by facet id, as lists."""
    return [cs.loop(f).tolist() for f in range(len(cs.site_a))]


def cells_of(cs) -> list:
    """Every real cell's facet ids, as lists."""
    return [cs.cell_facet[a:b].tolist() for a, b in zip(cs.cell_start[:-1], cs.cell_start[1:])]


def set_loops(cs, loops) -> None:
    cs.loop_start, cs.loop_vertex = csr(loops)


def set_cells(cs, cells) -> None:
    cs.cell_start, cs.cell_facet = csr(cells)


def make_synthetic(points, loops, n_centers=1):
    """Single-cell cell set around center(s) at the origin-ish for unit tests.
    Each facet's normal is that of its loop order (Newell's sum), so every
    loop has a positive area in its plane basis, as `build_cells` gives."""
    centers = np.zeros((n_centers, 3))
    centers[:, 2] = np.arange(n_centers) * 4.0
    lo = centers.min(axis=0) - 3.0
    hi = centers.max(axis=0) + 3.0
    bed = attach_domain(SphereBed(centers=centers), Box(tuple(lo), tuple(hi)))
    plane_points, normals = [], []
    for loop in loops:
        pts = np.asarray(points)[loop]
        n = np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
        n = n / np.linalg.norm(n)
        plane_points.append(pts.mean(axis=0))
        normals.append(n)
    normals = np.array(normals)
    e1, e2 = plane_basis(normals)
    m = len(loops)
    loop_start, loop_vertex = csr(loops)
    cell_start, cell_facet = csr([range(m)] * n_centers)
    return VoronoiCellSet(
        points=np.asarray(points, dtype=float),
        loop_start=loop_start,
        loop_vertex=loop_vertex,
        site_a=np.zeros(m, dtype=np.int64),
        site_b=np.full(m, n_centers, dtype=np.int64),
        plane_point=np.array(plane_points),
        plane_normal=normals,
        e1=e1,
        e2=e2,
        cell_start=cell_start,
        cell_facet=cell_facet,
        sites=np.vstack([centers, [[0.0, 0.0, -10.0]]]),
        ghost_parent=np.zeros(1, dtype=np.int64),     # one ghost, of center 0
        ghost_wall=np.full(1, 4, dtype=np.int64),     # across the box's z_lo wall
        n_real=n_centers,
        bed=bed,
    )


class TestRepairConfig:
    @pytest.mark.parametrize("tol", [-0.1, 0.0, 0.8, 0.9])
    def test_bad_tol_boundary_raises(self, tol):
        # tol <= L <= max_edge cannot hold unless 0 < tol_boundary < max_edge
        with pytest.raises(ValidationError, match="tol_boundary"):
            RepairConfig(tol_boundary=tol)

    @pytest.mark.parametrize("tol", [-0.1, 0.0, 0.9])
    def test_bad_tol_inf_raises(self, tol):
        with pytest.raises(ValidationError, match="tol_inf"):
            RepairConfig(tol_inf=tol)

    def test_frozen(self):
        # validated once, in __post_init__, so no later assignment may undo it
        cfg = RepairConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.tol_inf = 1.0


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

    def test_closing_edge_collapse_keeps_the_first_entry(self):
        # the 0.1-long edge (2, 3) closes both loops: fusing 3 into 2 makes
        # the first and last entries equal, and the last one is dropped;
        # in facet 0 the kept first entry was 3 and becomes 2
        pts = [(2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 1.05, 1.0), (2.0, 0.95, 1.0),
               (3.0, 2.0, 1.0), (3.0, 0.0, 1.0)]
        cs = make_synthetic(pts, [[3, 0, 1, 2], [2, 4, 5, 3]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert [(r["op"], r["pass"], r["edge"], r["facets"]) for r in oplog] == [
            ("collapse", 6, [2, 3], [0, 1])]
        assert [f.loop for f in cs.facets] == [[2, 0, 1], [2, 4, 5]]
        assert not any(f.deleted for f in cs.facets)
        assert np.array_equal(cs.points[2], 0.5 * (np.array(pts[2]) + np.array(pts[3])))

    def test_facet_deleted_earlier_in_the_pass_is_not_touched(self):
        # the 0.1-long edge (0, 1) deletes the triangle [0, 1, 3]; the
        # 0.12-long edge (2, 3) collapses later in the same pass, and the
        # triangle, which holds 3, is neither in its record nor rewritten
        pts = [(2.0, -0.05, 0.0), (2.0, 0.05, 0.0), (2.0, 0.0, 1.62), (2.0, 0.0, 1.5),
               (3.0, 0.0, 0.5), (3.0, 0.0, 2.5)]
        cs = make_synthetic(pts, [[0, 1, 3], [3, 4, 5, 2]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert [(r["op"], r["pass"], r["edge"], r["facets"]) for r in oplog] == [
            ("collapse", 6, [0, 1], [0]), ("collapse", 6, [2, 3], [1])]
        assert [f.loop for f in cs.facets] == [[], [2, 4, 5]]
        assert [f.deleted for f in cs.facets] == [True, False]
        assert np.array_equal(cs.points[0], 0.5 * (np.array(pts[0]) + np.array(pts[1])))
        assert np.array_equal(cs.points[2], 0.5 * (np.array(pts[2]) + np.array(pts[3])))
        assert np.array_equal(cs.points[3], np.array(pts[3]))


def _squeeze(loop):
    """Drop consecutive duplicates, circularly: the loop a collapse leaves
    once v is renamed u in it. Reference code for the collapse pass."""
    out = []
    for v in loop:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def as_pairs(uv) -> list:
    """The polygon as a list of (x, y) float pairs; a list passes as it is."""
    return uv.tolist() if isinstance(uv, np.ndarray) else uv


def polygon_area(uv) -> float:
    """Signed area of a 2D polygon (positive for CCW): the plain-float
    reference for `geometry.polygon_areas`, one polygon at a time."""
    uv = as_pairs(uv)
    px, py = uv[-1]
    s = 0.0
    for x, y in uv:
        s += px * y - py * x
        px, py = x, y
    return 0.5 * s


def loop_is_simple(uv) -> bool:
    """True if no two non-adjacent polygon edges properly cross (touching
    and collinear overlap do not count): the plain-float reference for
    `geometry.loops_are_simple`, one polygon at a time."""
    uv = as_pairs(uv)
    m = len(uv)
    for i in range(m):
        px, py = uv[i]
        qx, qy = uv[(i + 1) % m]
        dx, dy = qx - px, qy - py
        for j in range(i + 2, m):
            if (j + 1) % m == i:
                continue
            rx, ry = uv[j]
            sx, sy = uv[(j + 1) % m]
            # orientations of r and s about pq, then of p and q about rs
            if (dx * (ry - py) - dy * (rx - px)) * (dx * (sy - py) - dy * (sx - px)) < 0:
                ex, ey = sx - rx, sy - ry
                if (ex * (py - ry) - ey * (px - rx)) * (ex * (qy - ry) - ey * (qx - rx)) < 0:
                    return False
    return True


def reference_collapse_ok(cs, loops, u, v, mid, touched_fids) -> bool:
    """The former per-candidate check: would fusing v into u (at mid) keep
    every touched facet loop (of the lists ``loops``) valid? Kept as the
    reference for the batched check of `_collapse_pass`."""
    R = cs.bed.radius_nominal
    for fid in touched_fids:
        loop = _squeeze([u if w == v else w for w in loops[fid]])
        if len(loop) < 3:
            continue  # facet degenerates and will be deleted: allowed
        if len(set(loop)) != len(loop):
            return False  # pinched loop
        rel = np.array([mid if w == u else cs.points[w] for w in loop]) - cs.plane_point[fid]
        pts2 = list(zip((rel @ cs.e1[fid]).tolist(), (rel @ cs.e2[fid]).tolist()))
        if polygon_area(pts2) < 1e-16 * R * R:
            return False
        if not loop_is_simple(pts2):
            return False
    return True


def reference_collapse_pass(cs, cfg, facet_zone, factor, pass_no, R, oplog, skipped) -> int:
    """The former collapse pass: candidates checked and applied one by one.
    An edge's skip is logged the first time only; ``skipped`` holds the
    edges logged in earlier passes. A facet that a collapse deletes is left
    with an empty loop."""
    edges = _edge_table(cs.points, _loop_rows(cs))
    loops = loops_of(cs)
    tol = _base_tolerance(edges, facet_zone, cfg) * factor * R
    cand = np.flatnonzero(edges.length < tol)
    cand = cand[np.lexsort((edges.v[cand], edges.u[cand], edges.length[cand]))]
    incidence = {}
    for f_id, w in zip(edges.fid.tolist(), edges.vertex.tolist()):
        incidence.setdefault(w, []).append(f_id)
    moved = set()
    n_done = 0
    for u, v, L, tol_uv in zip(edges.u[cand].tolist(), edges.v[cand].tolist(),
                               edges.length[cand].tolist(), tol[cand].tolist()):
        if u in moved or v in moved:
            continue
        touched = sorted(fid for fid in {*incidence[u], *incidence[v]}
                         if len(loops[fid]) >= 3)
        mid = 0.5 * (cs.points[u] + cs.points[v])
        if not reference_collapse_ok(cs, loops, u, v, mid, touched):
            if (u, v) not in skipped:
                skipped.add((u, v))
                oplog.append({"op": "collapse_skipped", "pass": pass_no, "edge": [u, v],
                              "length": L})
            continue
        cs.points[u] = mid
        for fid in touched:
            loop = _squeeze([u if w == v else w for w in loops[fid]])
            loops[fid] = loop if len(loop) >= 3 else []
        moved.add(u)
        moved.add(v)
        n_done += 1
        oplog.append({"op": "collapse", "pass": pass_no, "edge": [u, v],
                      "length": L, "tolerance": tol_uv, "facets": touched})
    set_loops(cs, loops)
    return n_done


def reference_collapse_edges(cs, cfg, oplog):
    """The former `collapse_edges`: sequential passes."""
    facet_zone = _facet_zone(cs)
    skipped = set()
    k = extra = 0
    while True:
        k += 1
        if k > COLLAPSE_PASSES:
            extra += 1
            if extra > 40:
                break
        factor = cfg.pass_tolerance(min(k, 9))
        changed = reference_collapse_pass(cs, cfg, facet_zone, factor, k,
                                          cs.bed.radius_nominal, oplog, skipped)
        if k >= COLLAPSE_PASSES and not changed:
            break
    return cs


def pass_records(oplog, pass_no):
    return [(r["op"], r["edge"]) for r in oplog if r.get("pass") == pass_no]


class TestCollapseSkipped:
    """Hand-built cell sets whose collapse would break a facet loop. The
    facets lie in the plane x = 2 (or 2.5), whose (e1, e2) basis is (z, -y),
    so the projections are exact."""

    def test_pinch(self):
        # hourglass hexagon with a 0.1-wide waist between vertices 0 and 3;
        # the triangle [0, 3, 6] makes (0, 3) an edge, and fusing it would
        # visit vertex 0 twice in the hexagon
        pts = [(2.0, -0.05, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.05, 0.0),
               (2.0, 1.0, 1.0), (2.0, -1.0, 1.0), (2.5, 0.0, 0.3)]
        cs = make_synthetic(pts, [[0, 1, 2, 3, 4, 5], [0, 3, 6]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        # skipped in pass 6, the first whose tolerance passes 0.1, and tried
        # again in every later pass, since a skip moves nothing; logged once
        assert oplog == [{"op": "collapse_skipped", "pass": 6, "edge": [0, 3], "length": 0.1}]
        assert [f.loop for f in cs.facets] == [[0, 1, 2, 3, 4, 5], [0, 3, 6]]
        assert not any(f.deleted for f in cs.facets)
        assert np.array_equal(cs.points, np.array(pts))

    def test_self_intersection(self):
        # vertex 0 is a reflex vertex 0.05 below the top edge (2, 3) of the
        # pentagon; fusing the 0.2-long edge (0, 5) moves it 0.1 up, across
        # that edge
        pts = [(2.0, 0.0, 0.0), (2.0, 2.0, -1.0), (2.0, 2.0, 0.05), (2.0, -2.0, 0.05),
               (2.0, -2.0, -1.0), (2.0, 0.0, 0.2), (2.5, 0.0, 0.1)]
        cs = make_synthetic(pts, [[0, 1, 2, 3, 4], [0, 5, 6]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert oplog == [{"op": "collapse_skipped", "pass": 7, "edge": [0, 5], "length": 0.2}]
        assert [f.loop for f in cs.facets] == [[0, 1, 2, 3, 4], [0, 5, 6]]
        assert np.array_equal(cs.points, np.array(pts))

    def test_flattened_facet(self):
        # fusing (0, 3) puts vertex 0 on the line through 1 and 2: the
        # triangle [0, 1, 2] would have zero area
        pts = [(2.0, 0.0, 0.1), (2.0, -1.0, 0.0), (2.0, 1.0, 0.0), (2.0, 0.0, -0.1),
               (2.5, 0.0, 0.0)]
        cs = make_synthetic(pts, [[0, 1, 2], [0, 3, 4]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert oplog == [{"op": "collapse_skipped", "pass": 7, "edge": [0, 3], "length": 0.2}]
        assert [f.loop for f in cs.facets] == [[0, 1, 2], [0, 3, 4]]

    @pytest.mark.parametrize("pinch", [False, True], ids=["same_walk", "after_a_skip"])
    def test_check_sees_earlier_moves_of_the_pass(self, pinch):
        # vertex 0 is a reflex vertex 0.05 below the top edge (2, 3); the
        # 0.08-long edge (0, 5) lifts it to 0.04, then the 0.1-long edge
        # (3, 7) lowers the top edge to 0.025 above it: each alone keeps
        # the pentagon simple, but not both, so (3, 7) is skipped. With
        # `pinch`, test_pinch's hexagon, its waist 0.09 wide, is added in
        # the plane x = -2: its skip comes between the two, so the check
        # of (3, 7) runs in a walk resumed after (0, 5) was applied
        pts = [(2.0, 0.0, 0.0), (2.0, 2.0, -1.0), (2.0, 2.0, 0.05), (2.0, -2.0, 0.05),
               (2.0, -2.0, -1.0), (2.0, 0.0, 0.08), (2.5, 0.0, 0.04), (2.0, -2.0, -0.05),
               (2.5, -2.0, 0.0)]
        loops = [[0, 1, 2, 3, 4], [0, 5, 6], [3, 7, 8]]
        skipped = []
        if pinch:
            pts += [(-2.0, -0.045, 0.0), (-2.0, -1.0, -1.0), (-2.0, 1.0, -1.0),
                    (-2.0, 0.045, 0.0), (-2.0, 1.0, 1.0), (-2.0, -1.0, 1.0), (-2.5, 0.0, 0.3)]
            loops += [[9, 10, 11, 12, 13, 14], [9, 12, 15]]
            skipped = [("collapse_skipped", [9, 12])]
        cs = make_synthetic(pts, loops)
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert pass_records(oplog, 6) == [("collapse", [0, 5]), *skipped,
                                          ("collapse_skipped", [3, 7])]
        assert [f.loop for f in cs.facets] == [[0, 1, 2, 3, 4], [], [3, 7, 8], *loops[3:]]
        assert np.array_equal(cs.points[3], np.array(pts[3]))

    def test_later_candidate_on_a_skipped_endpoint(self):
        # the pinch of test_pinch, plus a 0.11-long edge (0, 7) out of the
        # hexagon's plane: (0, 3) is skipped first, and (0, 7) still
        # collapses in the same pass, because a skipped edge moves neither end
        pts = [(2.0, -0.05, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.05, 0.0),
               (2.0, 1.0, 1.0), (2.0, -1.0, 1.0), (2.5, 0.0, 0.3), (2.11, -0.05, 0.0),
               (2.5, -0.6, -0.3)]
        cs = make_synthetic(pts, [[0, 1, 2, 3, 4, 5], [0, 3, 6], [0, 7, 8]])
        oplog = []
        collapse_edges(cs, RepairConfig(), oplog=oplog)
        assert pass_records(oplog, 6) == [("collapse_skipped", [0, 3]), ("collapse", [0, 7])]
        done = [r for r in oplog if r["op"] == "collapse"]
        assert len(done) == 1 and done[0]["facets"] == [0, 1, 2]
        assert all(r["edge"] == [0, 3] for r in oplog if r["op"] == "collapse_skipped")
        assert [f.loop for f in cs.facets] == [[0, 1, 2, 3, 4, 5], [0, 3, 6], []]
        assert [f.deleted for f in cs.facets] == [False, False, True]
        assert np.array_equal(cs.points[0], 0.5 * (np.array(pts[0]) + np.array(pts[7])))
        assert np.array_equal(cs.points[7], np.array(pts[7]))


@cache
def _small_bed_cells(seed):
    bed = fixtures.random_cylinder_bed(n=12, R_c=2.6, H=6.0, seed=seed)
    return build_cells(bed, generate_ghosts(bed))


def _collapse_outcome(fn, cs, cfg):
    oplog = []
    fn(cs, cfg, oplog=oplog)
    return (cs.points.tobytes(), [(f.loop, f.deleted) for f in cs.facets]), oplog


class TestCollapseProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.floats(0.0, 0.25), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.75), st.floats(0.05, 0.75))
    def test_matches_reference(self, seed, jitter, jitter_seed, tol_inf, tol_boundary):
        """Small cylinder beds, their vertices jittered out of their facet
        planes so that some collapses would break a loop, and random
        tolerances: `collapse_edges` gives the same points, loops and oplog,
        bit for bit, as the sequential reference."""
        cs = copy.deepcopy(_small_bed_cells(seed))
        cs.points += np.random.default_rng(jitter_seed).normal(scale=jitter, size=cs.points.shape)
        cfg = RepairConfig(tol_inf=tol_inf, tol_boundary=tol_boundary)
        ref = _collapse_outcome(reference_collapse_edges, copy.deepcopy(cs), cfg)
        assert _collapse_outcome(collapse_edges, cs, cfg) == ref

    def test_matches_reference_with_a_wide_facet(self):
        """test_self_intersection's pentagon, whose skip makes the walk
        resume, next to a 72-gon with edges of about 0.2: all 72 are
        candidates of the same pass, so the resumed walk checks again the
        72-gon's loop states, each built from many collapses."""
        t = np.arange(72) * 2 * np.pi / 72
        r = 2.29 * (1 + np.random.default_rng(0).uniform(-0.02, 0.02, 72))
        pts = [(2.0, 0.0, 0.0), (2.0, 2.0, -1.0), (2.0, 2.0, 0.05), (2.0, -2.0, 0.05),
               (2.0, -2.0, -1.0), (2.0, 0.0, 0.2), (2.5, 0.0, 0.1)]
        pts += [(-2.0, y, z) for y, z in zip(r * np.cos(t), r * np.sin(t))]
        cs = make_synthetic(np.array(pts), [[0, 1, 2, 3, 4], [0, 5, 6], list(range(7, 79))])
        cfg = RepairConfig()
        ref = _collapse_outcome(reference_collapse_edges, copy.deepcopy(cs), cfg)
        got = _collapse_outcome(collapse_edges, cs, cfg)
        assert got == ref
        ops = pass_records(got[1], 7)
        skip = ops.index(("collapse_skipped", [0, 5]))
        assert skip > 0 and ops[skip + 1][0] == "collapse" and min(ops[skip + 1][1]) >= 7

    def test_matches_reference_on_the_cylinder_mesh_bed(self):
        """The cells of the cylinder_mesh bed, jittered by 0.05 R, at
        tolerances 0.5 R: hundreds of candidates per pass, with skips, so
        windows, their narrowing after a skip and resumed walks all run."""
        bed = fixtures.random_cylinder_bed(100, 4.0, 15.0, seed=7)
        cs = build_cells(bed, generate_ghosts(bed))
        cs.points += np.random.default_rng(0).normal(scale=0.05 * bed.radius_nominal,
                                                     size=cs.points.shape)
        cfg = RepairConfig(tol_inf=0.5, tol_boundary=0.5)
        ref = _collapse_outcome(reference_collapse_edges, copy.deepcopy(cs), cfg)
        got = _collapse_outcome(collapse_edges, cs, cfg)
        assert got == ref
        ops = [r["op"] for r in got[1]]
        assert ops.count("collapse") > 300 and ops.count("collapse_skipped") > 10


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


def reference_insert_vertices(run):
    """The former list-based insertion rounds of `_Repair.insert_vertices`,
    each from an edge table of loop rows gathered afresh from the facets;
    kept as the reference for the array pass."""
    cs = run.cs
    limit = run.cfg.max_edge * cs.bed.radius_nominal
    for _round in range(10):
        edges = _edge_table(cs.points, _loop_rows(cs))
        long_edges = np.flatnonzero(edges.length > limit)
        if not len(long_edges):
            break
        ends, t = [], []
        splits = {}
        base = len(cs.points)
        for u, v, L in zip(edges.u[long_edges].tolist(), edges.v[long_edges].tolist(),
                           edges.length[long_edges].tolist()):
            m = max(1, math.ceil(math.log2(L / limit)))
            ids = list(range(base + len(t), base + len(t) + 2**m - 1))
            ends += [(u, v)] * len(ids)
            t += [i / 2**m for i in range(1, 2**m)]
            splits[(u, v)] = ids
            run.oplog.append({"op": "insert", "edge": [u, v], "length": L,
                              "pieces": 2**m, "new_vertices": ids})
        t = np.array(t)[:, None]
        ends = np.array(ends, dtype=np.int64)
        cs.points = np.vstack([cs.points,
                               (1 - t) * cs.points[ends[:, 0]] + t * cs.points[ends[:, 1]]])
        is_long = np.zeros(len(edges.u), dtype=bool)
        is_long[long_edges] = True
        loops = loops_of(cs)
        for fid in np.unique(edges.fid[is_long[edges.edge]]).tolist():
            out = []
            loop = loops[fid]
            for a, b in zip(loop, loop[1:] + loop[:1]):
                out.append(a)
                key = (a, b) if a < b else (b, a)
                if key in splits:
                    ids = splits[key]
                    out.extend(ids if a < b else list(reversed(ids)))
            loops[fid] = out
        set_loops(cs, loops)
        run.rows = _loop_rows(cs)


def rows_by_facet(rows) -> dict:
    """{facet: its loop} read from (facet, vertex, next) loop rows; asserts
    that each facet's rows are together and that next follows the loop."""
    fid, vertex, nxt = (r.tolist() for r in rows)
    loops = {}
    for k, f in enumerate(fid):
        if k == 0 or fid[k - 1] != f:
            assert f not in loops, f"rows of facet {f} are split"
            loops[f] = []
        loops[f].append(vertex[k])
    at = 0
    for loop in loops.values():
        assert nxt[at:at + len(loop)] == loop[1:] + loop[:1]
        at += len(loop)
    return loops


@cache
def _annulus_cells():
    bed = fixtures.random_annulus_bed(100)
    return build_cells(bed, generate_ghosts(bed))


def _insert_outcome(insert, cs, cfg):
    """Points bytes, (loop, deleted) per facet and oplog after ``insert``
    runs on a `_Repair`."""
    oplog = []
    run = _Repair(cs, cfg, oplog)
    insert(run)
    run.store()
    assert rows_by_facet(run.rows) == {fid: f.loop for fid, f in enumerate(cs.facets)
                                       if not f.deleted}
    return (cs.points.tobytes(), [(f.loop, f.deleted) for f in cs.facets], oplog)


class TestInsertProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 3, 4, "annulus"]), st.floats(0.3, 1.5))
    def test_matches_reference(self, bed, max_edge):
        """Small cylinder beds and the annulus bed, with thresholds that
        put 1 to 31 new vertices on an edge: the array insertion gives the
        points, loops and oplog of the list-based reference, bit for bit,
        and keeps its loop rows equal to the loops."""
        cells = _annulus_cells() if bed == "annulus" else _small_bed_cells(bed)
        cfg = RepairConfig(tol_inf=0.2, tol_boundary=0.2, max_edge=max_edge)
        ref = _insert_outcome(reference_insert_vertices, copy.deepcopy(cells), cfg)
        got = _insert_outcome(_Repair.insert_vertices, copy.deepcopy(cells), cfg)
        assert got == ref

    @pytest.mark.parametrize("bed", [1, 2, 3, 4, "annulus"])
    def test_splits_into_2_4_and_8(self, bed):
        """At the default threshold each bed has edges split into 2, 4 and 8
        pieces, so the property test covers 1, 3 and 7 new vertices."""
        cells = _annulus_cells() if bed == "annulus" else _small_bed_cells(bed)
        oplog = []
        insert_vertices(copy.deepcopy(cells), RepairConfig(), oplog)
        assert {2, 4, 8} <= {r["pieces"] for r in oplog if r["op"] == "insert"}


def guard_error(point, cells) -> str:
    """The exact message of `geometry.check_guard` for ``point``."""
    return (f"point {point} cannot clear the guard spheres of cells {cells}; "
            "packing too tight for the guard radius")


class TestGuardProjection:
    """The guard check moves no vertex: a vertex inside a guard sphere
    fails the repair, and one outside passes."""

    def test_push_to_guard(self):
        # vertex 0 sits at 0.9 R, inside the 0.93 R guard of cell 0
        pts = [(0.9, 0.0, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.0, 1.0)]
        cs = make_synthetic(pts, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]])
        with pytest.raises(GeometryError) as exc:
            repair(cs, RepairConfig())
        assert str(exc.value) == guard_error(0, [0])
        assert np.array_equal(cs.points, np.array(pts))

    def test_outside_guard_unchanged(self):
        pts = [(1.2, 0.0, 0.0), (2.0, -1.0, -1.0), (2.0, 1.0, -1.0), (2.0, 0.0, 1.0)]
        cs = make_synthetic(pts, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]])
        before = cs.points.copy()
        _Repair(cs, RepairConfig(), []).check_guard()
        assert np.array_equal(cs.points, before)

    def test_guard_radius_is_fixed(self):
        assert RepairConfig().guard_radius == GUARD_RADIUS
        with pytest.raises(TypeError):
            RepairConfig(guard_radius=0.9)

    def test_deadlock_raises(self):
        # one point owned by two spheres 1.0 R apart, between them: it lies
        # inside both guard spheres, and the error names both owners
        centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        points = np.array([[0.4, 0.0, 0.0]])
        with pytest.raises(GeometryError) as exc:
            check_guard(points, [(0, 0), (0, 1)], centers, GUARD_RADIUS)
        assert str(exc.value) == guard_error(0, [0, 1])

    def test_lowest_point_and_all_its_owners_named(self):
        # points 1 and 3 are inside a guard; point 1, the lower, is named
        # with all three of its owners, sorted, though only sphere 2's guard
        # holds it; nothing moves
        centers = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        points = np.array([[2.0, 2.0, 0.0], [0.0, 4.2, 0.0], [2.5, 0.0, 0.0], [4.5, 0.0, 0.0]])
        pairs = [(3, 1), (1, 2), (0, 0), (1, 1), (2, 0), (1, 0), (0, 2)]
        before = points.copy()
        with pytest.raises(GeometryError) as exc:
            check_guard(points, pairs, centers, GUARD_RADIUS)
        assert str(exc.value) == guard_error(1, [0, 1, 2])
        assert np.array_equal(points, before)
        check_guard(points, [(0, 0), (2, 0), (3, 0)], centers, GUARD_RADIUS)

    def test_tangent_edge_midpoint_pushed(self):
        # edge grazing the sphere: its inserted midpoint, vertex 5, dips to
        # 0.91 < guard; insertion leaves it there and the check names it
        a = np.array([0.91, -1.0, 0.0])
        b = np.array([0.91, 1.0, 0.0])
        pts = [a, b, (2.0, 0.0, 1.5), (2.0, 0.0, -1.5)]
        cs = make_synthetic(pts, [[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
        run = _Repair(cs, RepairConfig(), [])
        run.insert_vertices()  # splits the 2.0-long edges
        assert np.array_equal(cs.points[5], (0.91, 0.0, 0.0))
        with pytest.raises(GeometryError) as exc:
            run.check_guard()
        assert str(exc.value) == guard_error(5, [0])


class TestMovedOnlyGuard:
    """A vertex that a collapse or an insertion moves into a guard sphere
    stays there and fails the repair's one guard check; the guards of
    cells a vertex no longer bounds do not apply."""

    def test_collapse_midpoint_pushed(self):
        # both ends of the 0.3-long edge (0, 1) clear the 0.93 guard, but
        # the midpoint (0.92, 0, 0) it collapses to in pass 8 does not
        pts = [(0.92, -0.15, 0.0), (0.92, 0.15, 0.0), (2.0, 0.0, 1.5), (2.0, 0.0, -1.5)]
        cs = make_synthetic(pts, [[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
        oplog = []
        collapse_edges(copy.deepcopy(cs), RepairConfig(), oplog=oplog)
        assert [(r["op"], r["pass"], r["edge"]) for r in oplog] == [("collapse", 8, [0, 1])]
        with pytest.raises(GeometryError) as exc:
            repair(cs, RepairConfig())
        assert str(exc.value) == guard_error(0, [0])

    def test_deleted_facet_owner_ignored(self):
        # the triangle [0, 1, 2] also bounds cell 1; collapsing its 0.3-long
        # edge (0, 1) deletes it and puts vertex 0 at 0.92 R from sphere 1,
        # whose guard no longer applies: vertex 0 now bounds cell 0 alone
        pts = [(0.0, -0.15, 3.08), (0.0, 0.15, 3.08), (2.0, 0.0, 4.5), (2.0, 0.0, 1.5)]
        cs = make_synthetic(pts, [[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]], n_centers=2)
        cs.site_b[0] = 1
        oplog = []
        run = _Repair(cs, RepairConfig(), oplog)
        run.collapse_edges()
        run.check_guard()
        run.store()
        assert [(r["op"], r["facets"]) for r in oplog] == [("collapse", [0, 1, 2, 3])]
        assert [f.deleted for f in cs.facets] == [True, True, False, False]
        assert np.array_equal(cs.points[0], (0.0, 0.0, 3.08))

    def test_inserted_midpoint_pushed_in_repair(self, tmp_path):
        # the edge (0, 1) grazes sphere 0: its inserted midpoint, vertex 5,
        # lands at 0.91 R, inside the guard; the repair fails in its guard
        # check, logs the insertions and leaves the cells as given
        pts = [(0.91, -1.0, 0.0), (0.91, 1.0, 0.0), (2.0, 0.0, 1.5), (2.0, 0.0, -1.5)]
        cs = make_synthetic(pts, [[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
        path = tmp_path / "ops.jsonl"
        with pytest.raises(GeometryError) as exc:
            repair(cs, RepairConfig(), log_path=path)
        assert str(exc.value) == guard_error(5, [0])
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert recs[0]["edge"] == [0, 1] and recs[0]["new_vertices"] == [4, 5, 6]
        assert {r["op"] for r in recs} == {"insert"}
        assert np.array_equal(cs.points, np.array(pts))


def edge_lengths(cs, cfg=None):
    """(length, base tolerance) per unique live edge, with the base
    tolerances of ``cfg`` (default: `RepairConfig()`)."""
    edges = _edge_table(cs.points, _loop_rows(cs))
    tol = _base_tolerance(edges, _facet_zone(cs), cfg or RepairConfig())
    return list(zip(edges.length.tolist(), tol.tolist()))


@pytest.fixture(scope="module")
def repaired():
    bed = fixtures.random_cylinder_bed(n=40, R_c=3.2, H=10.0, seed=4)
    cs = build_cells(bed, generate_ghosts(bed))
    oplog = []
    cfg = RepairConfig()
    collapse_edges(cs, cfg, oplog=oplog)
    insert_vertices(cs, cfg, oplog=oplog)
    return cs, oplog


class TestFullRepair:
    def test_loop_rows_follow_loops(self):
        """The loop rows a repair keeps across its passes and rounds are,
        after each stage, those of the facets' loops."""
        bed = fixtures.random_cylinder_bed(n=40, R_c=3.2, H=10.0, seed=4)
        cs = build_cells(bed, generate_ghosts(bed))
        run = _Repair(cs, RepairConfig(), [])
        for stage in (run.collapse_edges, run.insert_vertices):
            stage()
            run.store()
            assert rows_by_facet(run.rows) == {fid: f.loop for fid, f in enumerate(cs.facets)
                                               if not f.deleted}
        assert any(r["op"] == "collapse" for r in run.oplog)
        assert any(r["op"] == "insert" for r in run.oplog)

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

    def test_edge_lengths_match_per_edge_norm(self, repaired):
        # the one array pass gives each length bit for bit as np.linalg.norm
        # of that one edge, so the collapse order and the oplog do not move
        cs, _ = repaired
        keys = {(min(u, v), max(u, v)) for f in cs.facets if not f.deleted
                for u, v in zip(f.loop, f.loop[1:] + f.loop[:1])}
        ref = [float(np.linalg.norm(cs.points[u] - cs.points[v])) for u, v in sorted(keys)]
        assert [L for L, _ in edge_lengths(cs)] == ref

    def test_edge_tolerances_match_per_edge_rule(self, repaired):
        # reference: an edge takes tol_boundary if any live facet on it
        # bounds a real cell of the boundary zone
        cs, _ = repaired
        zone = boundary_zone(cs)
        on_edge = {}
        for f in cs.facets:
            if not f.deleted:
                for u, v in zip(f.loop, f.loop[1:] + f.loop[:1]):
                    on_edge.setdefault((min(u, v), max(u, v)), []).append(f)
        ref = [0.25 if any(zone[f.site_a] or (f.site_b < cs.n_real and zone[f.site_b])
                           for f in on_edge[key]) else 0.35
               for key in sorted(on_edge)]
        assert [t for _, t in edge_lengths(cs)] == ref
        assert 0.25 in ref and 0.35 in ref

    def test_edge_ratio_bound(self, repaired):
        cs, _ = repaired
        interior = [L for L, t in edge_lengths(cs) if t == 0.35]
        if interior:
            assert max(interior) / min(interior) <= 0.8 / 0.35 + 1e-9

    def test_guard_invariant(self, repaired):
        cs, _ = repaired
        for i in range(cs.n_real):
            vids = np.unique(np.concatenate([cs.loop(f) for f in cs.cell_facets(i)]))
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
            assert fid in cs.cell_facets(f.site_a)
            assert fid in cs.cell_facets(f.site_b)

    def test_repair_writes_oplog(self, tmp_path):
        bed = fixtures.simple_cubic(2)
        cs = build_cells(bed, generate_ghosts(bed))
        p = tmp_path / "ops.jsonl"
        repair(cs, RepairConfig(), log_path=p)
        recs = [json.loads(line) for line in p.read_text().splitlines()]
        assert all("op" in r for r in recs)

    def test_failed_repair_writes_its_records(self, tmp_path):
        """The annulus bed, preconditioned, fails in the repair's guard
        check; its log still holds every record made before, those the
        repair's stages give on the same cells."""
        bed = fixtures.random_annulus_bed()
        bed = rescale(bed, separation_profile(bed))
        cs = build_cells(bed, generate_ghosts(bed))
        oplog = []
        run = _Repair(copy.deepcopy(cs), RepairConfig(), oplog)
        run.collapse_edges()
        run.insert_vertices()
        with pytest.raises(GeometryError, match="cannot clear the guard spheres"):
            run.check_guard()
        p = tmp_path / "ops.jsonl"
        with pytest.raises(GeometryError, match="cannot clear the guard spheres"):
            repair(cs, RepairConfig(), log_path=p)
        assert {r["op"] for r in oplog} == {"collapse", "insert"}
        assert p.read_text() == "".join(json.dumps(r) + "\n" for r in oplog)

    def test_failed_repair_leaves_the_cells_as_given(self, monkeypatch, tmp_path):
        """A repair that raises, here in its guard check after every
        collapse and insertion, leaves the points and both loop arrays
        byte-equal to the input's, and its log holds the records made
        before."""
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
        cs = build_cells(bed, generate_ghosts(bed))

        def check(*args):
            raise GeometryError("check failed")

        monkeypatch.setattr("voidhex.repair.check_guard", check)
        given = copy.deepcopy(cs)
        oplog = []
        run = _Repair(copy.deepcopy(cs), RepairConfig(), oplog)
        run.collapse_edges()
        run.insert_vertices()
        with pytest.raises(GeometryError, match="check failed"):
            run.check_guard()
        p = tmp_path / "ops.jsonl"
        with pytest.raises(GeometryError, match="check failed"):
            repair(cs, RepairConfig(), log_path=p)
        for name in ("points", "loop_start", "loop_vertex"):
            a, b = getattr(cs, name), getattr(given, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert {r["op"] for r in oplog} == {"collapse", "insert"}
        assert p.read_text() == "".join(json.dumps(r) + "\n" for r in oplog)


def test_repair_keeps_loop_orientation():
    """After a repair, every live loop of a preconditioned n=500 bed has a
    positive area in its facet's plane basis: no collapse reverses a loop.
    Facet 3070 was reversed while the collapse check took the absolute
    area, and `tessellate_cells` stopped on it (ROADMAP item 15)."""
    bed = fixtures.random_cylinder_bed(500, 7.2, 24.0, seed=12)
    bed = attach_domain(bed, fit_cylinder(bed), fitted=True)
    bed = rescale(bed, separation_profile(bed))
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    reversed_loops = []
    for fid, f in enumerate(cs.facets):
        if not f.deleted:
            rel = cs.points[f.loop] - f.plane_point
            if polygon_area(np.column_stack([rel @ f.e1, rel @ f.e2])) <= 0:
                reversed_loops.append(fid)
    assert reversed_loops == []


@pytest.mark.parametrize("k", [1e-7, 1.0])
def test_op_counts_independent_of_scale(k):
    """The same bed at sphere radius k repairs with the same operations:
    the collapse check's flat-loop area is in units of R^2, so no collapse
    is skipped at a small radius."""
    bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
    bed = SphereBed(centers=bed.centers * k, radius_nominal=k, domain=bed.domain.scaled(k))
    oplog = []
    run = _Repair(build_cells(bed, generate_ghosts(bed)), RepairConfig(), oplog)
    run.collapse_edges()
    run.insert_vertices()
    ops = [r["op"] for r in oplog]
    assert (ops.count("collapse"), ops.count("collapse_skipped"), ops.count("insert")) == (79, 0, 283)


class TestBoundaryZone:
    def test_zone_flags(self):
        bed = fixtures.random_cylinder_bed(n=40, R_c=3.5, H=12.0, seed=2)
        cs = build_cells(bed, generate_ghosts(bed))
        zone = boundary_zone(cs)
        clear = bed.domain.wall_clearance(bed.centers)
        assert np.array_equal(zone, clear < 2.0)


# The boundary tag of a ghost's wall, by the wall's axis and outward sign:
# the reference that the digests and the tag tests read a boundary facet's
# tag from. The package names a wall's surface with `hexgen.surface_tag`.
WALL_TAG = {
    (RADIAL, 1): "wall",
    (RADIAL, -1): "inner_wall",
    (0, -1): "wall",
    (0, 1): "wall",
    (1, -1): "wall",
    (1, 1): "wall",
    (2, -1): "inlet",
    (2, 1): "outlet",
}


def ghost_tag(cs, site_b: int):
    """The WALL_TAG tag of the wall of the ghost site_b, or None for a real site."""
    if site_b < cs.n_real:
        return None
    w = cs.bed.domain.walls[cs.ghost_wall[site_b - cs.n_real]]
    return WALL_TAG[w.axis, w.sign]


def cells_digest(cs, oplog: bytes = b"") -> str:
    """sha256 of a cell set, bit for bit: the exact point bytes; per facet
    its loop, sites, the tag of its ghost's wall, deleted flag and the
    plane_point, plane_normal, e1 and e2 bytes; the cells; and the JSONL
    repair oplog."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cs.points, dtype="<f8").tobytes())
    for f in cs.facets:
        h.update(repr((f.loop, int(f.site_a), int(f.site_b),
                       ghost_tag(cs, f.site_b), bool(f.deleted))).encode())
        for a in (f.plane_point, f.plane_normal, f.e1, f.e2):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(repr(cells_of(cs)).encode())
    h.update(oplog)
    return h.hexdigest()


# Digests of the front half (build_cells, then repair) on three fixtures. A
# change to voronoi, repair or geometry that keeps behaviour keeps these.
GOLDEN = {
    "cube_raw": "46fb04a6b56e833a962b09f4b592a9d162db13e92cc04f4bddb9974811abba96",
    "cylinder_repaired": "434f397aee0f10ec6686a9d78d740543db72b1c47124be72acc5580f296807d3",
    "cylinder300_repaired": "a663fbf205a73dd5e57d70c82d22f58ea067915d60659bbfeb9e32d8dfdaf78f",
}


class TestGoldenDigest:
    def test_cube_raw(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        assert cells_digest(cs) == GOLDEN["cube_raw"]

    def test_cylinder_repaired(self, tmp_path):
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
        bed = rescale(bed, separation_profile(bed))
        cs = build_cells(bed, generate_ghosts(bed))
        path = tmp_path / "ops.jsonl"
        repair(cs, RepairConfig(), log_path=path)
        oplog = path.read_bytes()
        assert any(json.loads(line)["op"] == "collapse" for line in oplog.splitlines())
        assert cells_digest(cs, oplog) == GOLDEN["cylinder_repaired"]

    def test_cylinder300_repaired(self, tmp_path):
        # 786 collapses over 10 passes and 2,204 insertions
        bed = fixtures.random_cylinder_bed(300, 6.0, 20.0, seed=1)
        bed = rescale(bed, separation_profile(bed))
        cs = build_cells(bed, generate_ghosts(bed))
        path = tmp_path / "ops.jsonl"
        repair(cs, RepairConfig(), log_path=path)
        assert cells_digest(cs, path.read_bytes()) == GOLDEN["cylinder300_repaired"]
