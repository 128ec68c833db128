import copy
import re
from functools import cache
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError, Voronoi, cKDTree
from test_repair import (
    cells_digest,
    cells_of,
    csr,
    ghost_tag,
    loops_of,
    polygon_area,
    set_cells,
    set_loops,
)

from voidhex import fixtures, voronoi
from voidhex.bed import (
    RADIAL,
    Annulus,
    Box,
    Cylinder,
    SphereBed,
    attach_domain,
    rescale,
    separation_profile,
)
from voidhex.errors import GeometryError
from voidhex.geometry import norms, plane_basis
from voidhex.repair import repair
from voidhex.voronoi import (
    PLANARITY_TOL,
    VALIDATE_BLOCK,
    VERTEX_DEDUP_TOL,
    GhostSet,
    VoronoiCellSet,
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
        assert (g.parent.tolist(), g.wall.tolist()) == ([0], [2])  # walls[2] is the cylinder

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

    def test_chained_ghost_provenance(self):
        """A one-sphere rim-corner bed: the cylinder, walls[2], reflects
        the center into the radial ghost, site 1; the z_bottom wall,
        walls[0], then reflects the center and the radial ghost into sites 2
        and 3. The chained ghost's parent is the radial ghost's site, never a
        center, so no facet lies on its wall."""
        bed = attach_domain(
            SphereBed(centers=np.array([[9.5, 0.0, 1.0]])),
            Cylinder((0.0, 0.0), 10.0, 20.0),
        )
        g = generate_ghosts(bed)
        assert np.allclose(g.ghost_centers, [(10.5, 0.0, 1.0), (9.5, 0.0, -1.0), (10.5, 0.0, -1.0)])
        assert g.parent.tolist() == [0, 0, 1]
        assert g.wall.tolist() == [2, 0, 0]
        assert bed.domain.walls[0] == (2, 0.0, -1)

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
        (inner,) = g.ghost_centers[g.wall == 3]  # walls[3] is the inner cylinder
        assert bed.domain.walls[3] == (RADIAL, 2.5, -1)
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
        loops = [cs.loop(f).tolist() for f in cs.cell_facets(i)]
        assert len(loops) == 6
        for loop in loops:
            assert len(loop) == 4
        vids = sorted(set(v for loop in loops for v in loop))
        assert len(vids) == 8
        rel = cs.points[vids] - bed.centers[i]
        assert np.allclose(np.sort(np.abs(rel), axis=0), 1.0, atol=1e-9)
        assert cell_volume(cs, i) == pytest.approx(8.0, rel=1e-9)

    def test_boundary_tags(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        corner = 0  # (1,1,1)
        tags = sorted(ghost_tag(cs, cs.site_b[f]) for f in cs.cell_facets(corner)
                      if cs.site_b[f] >= cs.n_real)
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
            if f.site_b < cs.n_real:
                assert fid in cs.cell_facets(f.site_a)
                assert fid in cs.cell_facets(f.site_b)

    def test_unbounded_cell_raises(self):
        centers = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bed = attach_domain(
            SphereBed(centers=centers), Box((-2.9, -1.9, -1.9), (2.9, 1.9, 1.9))
        )
        none = np.empty(0, dtype=np.int64)
        empty = GhostSet(ghost_centers=np.empty((0, 3)), parent=none, wall=none)
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

    def test_qhull_failure_raises_geometry_error(self, monkeypatch):
        """A QhullError raises GeometryError at once: Voronoi is called once,
        with no retry."""
        calls = []

        def degenerate(sites):
            calls.append(sites)
            raise QhullError("degenerate")

        monkeypatch.setattr(voronoi, "Voronoi", degenerate)
        bed = fixtures.simple_cubic(2)
        with pytest.raises(GeometryError, match="^Voronoi construction failed: degenerate$"):
            build_cells(bed, generate_ghosts(bed))
        assert len(calls) == 1


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
        vids = sorted(set(v for f in fl for v in cs.loop(f).tolist()))
        pts = cs.points[vids]
        center = cs.sites[i]
        for f in fl:
            out = cs.outward_normal(f, i)
            d = (pts - cs.plane_point[f]) @ out
            if d.max() > PLANARITY_TOL * R * 10:
                raise GeometryError(
                    f"cell {i} is not convex: vertex {d.max():.3g} outside a facet plane"
                )
            if (center - cs.plane_point[f]) @ out >= 0:
                raise GeometryError(f"site {i} is not strictly inside its cell")
        edges = {}
        for f in fl:
            loop = cs.facet_loop_for_cell(f, i).tolist()
            for u, v in zip(loop, loop[1:] + loop[:1]):
                edges[(u, v)] = edges.get((u, v), 0) + 1
        for (u, v), cnt in edges.items():
            if cnt != 1 or edges.get((v, u), 0) != 1:
                raise GeometryError(f"cell {i} facet shell is not watertight at edge {u}-{v}")


def _few_facets(cs):
    cells = cells_of(cs)
    cells[2] = cells[2][:3]
    set_cells(cs, cells)


def _vertex_outside(cs):
    # the box corner (4, 4, 4) belongs to cell 7 alone
    cs.points[cs.points.tolist().index([4.0, 4.0, 4.0])] = (4.5, 4.0, 4.0)


def _site_outside(cs):
    cs.sites[5] = (3.0, -1.0, 3.0)  # below the y = 0 wall of cell 5


def _not_watertight(cs):
    cells = cells_of(cs)
    del cells[3][1]
    set_cells(cs, cells)


def _facet_deleted(cs):
    # a live facet whose loop is emptied, so deleted, leaves a hole in both
    # of its cells
    loops = loops_of(cs)
    loops[cells_of(cs)[6][2]] = []
    set_loops(cs, loops)


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
    a cell's list or deleted by emptying its loop, a vertex or a site moved
    along an axis."""
    cs = copy.deepcopy(_lattice_cells(n))
    cells, loops = cells_of(cs), loops_of(cs)
    for kind, pick, axis, step in changes:
        cell = cells[pick % cs.n_real]
        if kind == "drop" and cell:
            del cell[pick % len(cell)]
        elif kind == "delete":
            loops[pick % len(loops)] = []
        elif kind == "vertex":
            cs.points[pick % len(cs.points), axis] += step
        elif kind == "site":
            cs.sites[pick % cs.n_real, axis] += 3 * step
    set_cells(cs, cells)
    set_loops(cs, loops)
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


def reference_build_cells(bed, ghosts):
    """The former `build_cells` from the Voronoi diagram on: one Python
    loop over the ridges, and a `polygon_area` per facet for the
    degenerate-area test; kept as the reference for the array passes.
    The diagram comes from ``voronoi.Voronoi``, so a test can hand it one."""
    R = bed.radius_nominal
    n = bed.n_spheres
    sites = np.vstack([bed.centers, ghosts.ghost_centers.reshape(-1, 3)])
    vor = voronoi.Voronoi(sites)
    verts, remap = _dedup_vertices(vor.vertices, VERTEX_DEDUP_TOL * R)

    ridges = []
    remap = remap.tolist()
    for (pa, pb), rv in zip(vor.ridge_points.tolist(), vor.ridge_vertices):
        if pa >= n and pb >= n:
            continue
        if pa < n and pb < n:
            a, b = (pa, pb) if pa < pb else (pb, pa)
        else:
            a, b = (pa, pb) if pa < n else (pb, pa)
        if -1 in rv:
            raise GeometryError(
                f"unbounded Voronoi cell for sphere {a}; ghost coverage is insufficient"
            )
        ids = sorted({remap[v] for v in rv})
        if len(ids) < 3:
            continue  # ridge degenerated to a point/segment after dedup
        ridges.append((a, b, ids))

    sa = np.array([r[0] for r in ridges], dtype=np.int64)
    sb = np.array([r[1] for r in ridges], dtype=np.int64)
    normals = sites[sb] - sites[sa]
    normals /= norms(normals)[:, None]
    plane_points = 0.5 * (sites[sa] + sites[sb])
    e1, e2 = plane_basis(normals)

    counts = np.array([len(r[2]) for r in ridges], dtype=np.int64)
    ends = np.cumsum(counts)
    vids = np.fromiter(chain.from_iterable(r[2] for r in ridges), dtype=np.int64,
                       count=int(counts.sum()))
    ridge = np.repeat(np.arange(len(ridges)), counts)
    pts = verts[vids]
    rel = pts - (np.add.reduceat(pts, ends - counts, axis=0) / counts[:, None])[ridge]
    x, y = np.vecdot(rel, e1[ridge]), np.vecdot(rel, e2[ridge])
    order = np.lexsort((vids, np.arctan2(y, x), ridge))
    loops = vids[order].tolist()
    xy = np.column_stack([x[order], y[order]]).tolist()

    kept = []
    cells = [[] for _ in range(n)]
    starts, ends = (ends - counts).tolist(), ends.tolist()
    for k, (a, b, _) in enumerate(ridges):
        if 2.0 * abs(polygon_area(xy[starts[k]:ends[k]])) < 1e-20 * R * R:
            continue
        cells[a].append(len(kept))
        if b < n:
            cells[b].append(len(kept))
        kept.append(k)

    loop_start, loop_vertex = csr([loops[starts[k]:ends[k]] for k in kept])
    cell_start, cell_facet = csr(cells)
    cs = VoronoiCellSet(points=verts, loop_start=loop_start, loop_vertex=loop_vertex,
                        site_a=sa[kept], site_b=sb[kept], plane_point=plane_points[kept],
                        plane_normal=normals[kept], e1=e1[kept], e2=e2[kept],
                        cell_start=cell_start, cell_facet=cell_facet, sites=sites,
                        ghost_parent=ghosts.parent, ghost_wall=ghosts.wall, n_real=n, bed=bed)
    _validate_cells(cs)
    return cs


def _build_outcome(build, bed, ghosts):
    try:
        return cells_digest(build(bed, ghosts))
    except GeometryError as exc:
        return str(exc)


def with_ridges(extra):
    """A stand-in for `Voronoi` whose diagram has the ridges ``extra``, as
    ((site, site), vertex ids) rows, ahead of the real ones."""
    def make(sites):
        vor = Voronoi(sites)
        return SimpleNamespace(
            vertices=vor.vertices,
            ridge_points=np.vstack([[p for p, _ in extra], vor.ridge_points]),
            ridge_vertices=[rv for _, rv in extra] + vor.ridge_vertices)
    return make


class TestBuildCellsReference:
    @pytest.mark.parametrize("make", [
        lambda: fixtures.simple_cubic(2),
        lambda: fixtures.simple_cubic(3),
        lambda: fixtures.simple_cubic(4),
        lambda: fixtures.random_cylinder_bed(n=12, R_c=2.6, H=6.0, seed=1),
        lambda: fixtures.random_cylinder_bed(n=12, R_c=2.6, H=6.0, seed=3),
        lambda: fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5),
        lambda: fixtures.random_cylinder_bed(n=60, R_c=3.5, H=12.0, seed=8),
        lambda: fixtures.random_annulus_bed(100),
    ], ids=["cubic2", "cubic3", "cubic4", "cyl12s1", "cyl12s3", "cyl30s5", "cyl60s8",
            "annulus"])
    def test_matches_reference(self, make):
        """The array ridge passes build the cells of the per-ridge loop,
        bit for bit."""
        bed = make()
        ghosts = generate_ghosts(bed)
        ref = _build_outcome(reference_build_cells, bed, ghosts)
        assert len(ref) == 64  # a digest, not an error
        assert _build_outcome(build_cells, bed, ghosts) == ref

    def test_degenerate_ridges_dropped(self, monkeypatch):
        """Three ridges of cells 0 and 1 (normal along z) are dropped: one
        whose three vertex ids dedup to two, one with a repeated id, and one
        on a line along x, whose area is exactly 0. A real ridge given an id
        that dedups into one of its own is kept as it was. The cells are
        those of the real diagram, and the line points stay in the pool."""
        bed = fixtures.simple_cubic(2)
        ghosts = generate_ghosts(bed)
        plain = build_cells(bed, ghosts)
        line = [(50.0 + x, 60.0, 70.0) for x in (0.0, 1.0, 2.0)]

        def diagram(sites):
            vor = Voronoi(sites)
            rv = list(vor.ridge_vertices)
            k = next(k for k, p in enumerate(vor.ridge_points.tolist()) if min(p) < 8)
            w, V = rv[k][0], len(vor.vertices)  # vertex V is 1e-13 from w
            rv[k] = rv[k] + [V]
            extra = [[w, V, rv[k][1]], [5, 5, 5, 3], [V + 3, V + 1, V + 2]]
            return SimpleNamespace(
                vertices=np.vstack([vor.vertices, vor.vertices[w] + 1e-13, line]),
                ridge_points=np.vstack([[[0, 1]] * 3, vor.ridge_points]),
                ridge_vertices=extra + rv)

        monkeypatch.setattr(voronoi, "Voronoi", diagram)
        got = _build_outcome(build_cells, bed, ghosts)
        assert got == _build_outcome(reference_build_cells, bed, ghosts)
        plain.points = np.vstack([plain.points, line])
        assert got == cells_digest(plain)

    def test_unbounded_message(self, monkeypatch):
        """The error names sphere a of the first ridge of a real cell with a
        vertex at infinity; a ghost-ghost ridge with one comes first and is
        passed over."""
        bed = fixtures.simple_cubic(2)
        ghosts = generate_ghosts(bed)
        g = bed.n_spheres
        monkeypatch.setattr(voronoi, "Voronoi", with_ridges([
            ((g, g + 1), [-1, 0, 1]),
            ((5, 2), [0, 1, 2]),
            ((6, 3), [0, -1, 2]),
            ((1, 4), [-1, 1, 2]),
        ]))
        msg = "unbounded Voronoi cell for sphere 3; ghost coverage is insufficient"
        with pytest.raises(GeometryError, match=f"^{msg}$"):
            build_cells(bed, ghosts)
        assert _build_outcome(reference_build_cells, bed, ghosts) == msg


@pytest.fixture(scope="module")
def repaired_cylinder():
    """The cylinder_mesh benchmark bed, built and repaired."""
    bed = fixtures.random_cylinder_bed(n=100, R_c=4.0, H=15.0, seed=7)
    bed = rescale(bed, separation_profile(bed))
    return repair(build_cells(bed, generate_ghosts(bed)))


class TestFacetView:
    """`VoronoiCellSet.facets`, the record view of the facet table for code
    outside the package."""

    def test_records_are_column_rows(self, repaired_cylinder):
        cs = repaired_cylinder
        loops = loops_of(cs)
        assert len(cs.facets) == len(loops) == len(cs.site_a)
        for fid, f in enumerate(cs.facets):
            assert f.loop == loops[fid]
            assert (f.site_a, f.site_b) == (cs.site_a[fid], cs.site_b[fid])
            assert type(f.site_a) is int and type(f.site_b) is int
            for got, column in ((f.plane_point, cs.plane_point), (f.plane_normal, cs.plane_normal),
                                (f.e1, cs.e1), (f.e2, cs.e2)):
                assert got.tobytes() == column[fid].tobytes()
        assert cs.facets[-1].loop == loops[-1]
        with pytest.raises(IndexError):
            cs.facets[len(loops)]

    def test_deleted_is_a_short_loop(self, repaired_cylinder):
        cs = repaired_cylinder
        deleted = [f.deleted for f in cs.facets]
        assert deleted == (np.diff(cs.loop_start) < 3).tolist()
        assert any(deleted) and not all(deleted)

    def test_len_builds_no_record(self, repaired_cylinder, monkeypatch):
        built = []
        record = voronoi.FacetRecord
        monkeypatch.setattr(voronoi, "FacetRecord", lambda *row: built.append(row) or record(*row))
        assert len(repaired_cylinder.facets) == len(repaired_cylinder.site_a)
        assert built == []
        repaired_cylinder.facets[0]
        assert len(built) == 1
