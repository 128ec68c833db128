import collections
import hashlib
import itertools
import math
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_repair import as_pairs, csr, loop_is_simple, loops_of, polygon_area

from voidhex import fixtures
from voidhex.bed import SphereBed
from voidhex.errors import GeometryError
from voidhex.geometry import (
    GUARD_RADIUS,
    corner_angles,
    loops_are_simple,
    polygon_areas,
)
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import (
    ANGLE_THRESHOLD,
    PIECE_AREA,
    FacetQuadMesh,
    number_patches,
    smooth_patches,
    split_loops,
    tessellate_cells,
)
from voidhex.voronoi import build_cells, generate_ghosts


def regular_polygon(n, radius=1.0):
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def corner_angle(prev, corner, nxt) -> float:
    """Interior angle (radians) at ``corner`` of a CCW polygon whose
    neighbouring vertices are ``prev`` and ``nxt``."""
    (px, py), (x, y), (nx, ny) = prev, corner, nxt
    v1x, v1y = px - x, py - y
    v2x, v2y = nx - x, ny - y
    ang = math.atan2(v1x * v2y - v1y * v2x, v1x * v2x + v1y * v2y)
    # interior angle = CCW sweep from the outgoing to the incoming edge
    return -ang % (2.0 * math.pi)


def interior_angles(uv) -> list:
    """Interior angle (radians) at each vertex of a CCW polygon, in plain
    floats: the reference for `geometry.corner_angles`."""
    uv = as_pairs(uv)
    return [corner_angle(p, c, n) for p, c, n in zip(uv[-1:] + uv[:-1], uv, uv[1:] + uv[:1])]


def _centroid(pts: list) -> tuple:
    """Mean of (x, y) pairs, summed left to right and then divided by the
    count: the same bits as the last entry of `np.cumsum` over the stacked
    rows, divided by the count (`np.mean` sums pairwise, in another order)."""
    sx, sy = pts[0]
    for x, y in pts[1:]:
        sx += x
        sy += y
    m = len(pts)
    return sx / m, sy / m


def _valid(pts: list, R: float) -> bool:
    """A piece is valid when its area is over PIECE_AREA R^2 and every angle
    is under 180 degrees less 1e-9 rad."""
    return polygon_area(pts) > PIECE_AREA * R * R and max(interior_angles(pts)) < math.pi - 1e-9


def split_facet(uv, facet_id: int = -1, R: float = 1.0) -> list:
    """The former split of one facet, in plain floats, kept as the reference
    for `split_loops`.

    A vertex is near-straight when its interior angle is over
    ANGLE_THRESHOLD. A valid polygon of at most 4 vertices, none
    near-straight, is one piece. Otherwise spokes run from the barycenter
    to every near-straight vertex and, in each run of corners between two
    of them, to every other corner from the run's second on; with no
    near-straight vertex, to vertices 0, 2, 4, ... Each span between
    consecutive spokes makes one piece with the barycenter: a triangle, or
    a quad about the span's one corner, which splits at that corner into
    two triangles if it is not valid (`_valid`, with R the bed's sphere
    radius). Returns a list of (points, labels) pieces: points are (x, y)
    pairs, labels their indices into uv, or len(uv) for the barycenter.
    Raises GeometryError if a piece is still not valid.
    """
    uv = as_pairs(uv)
    n = len(uv)
    straight = [k for k, a in enumerate(interior_angles(uv)) if a > ANGLE_THRESHOLD]
    if n <= 4 and not straight and _valid(uv, R):
        return [(uv, list(range(n)))]
    spokes = [] if straight else list(range(0, n, 2))
    for a, b in zip(straight, straight[1:] + straight[:1]):
        spokes += [a] + [k % n for k in range(a + 1, b + n * (b <= a))][1::2]
    bc = _centroid(uv)
    out = []
    for a, b in zip(spokes, spokes[1:] + spokes[:1]):
        # the span's corners: two for a triangle, three for a quad
        todo = [[k % n for k in range(a, b + n * (b <= a) + 1)]]
        while todo:
            piece = todo.pop()
            pts = [bc] + [uv[k] for k in piece]
            if _valid(pts, R):
                out.append((pts, [n] + piece))
            elif len(piece) == 3:   # the quad splits at its corner, first half first
                todo += [piece[1:], piece[:2]]
            else:
                raise GeometryError(f"facet {facet_id}: not star-shaped about its barycenter")
    return out


def as_pieces(lab, pts) -> list:
    """The (P, 4) labels and (P, 4, 2) points of `split_loops` as a list of
    (points, labels) pieces, the form of `split_facet`: a piece whose fourth
    label repeats its first is a triangle."""
    size = np.where(lab[:, 3] == lab[:, 0], 3, 4).tolist()
    return [(p[:m], lb[:m]) for p, lb, m in zip(pts.tolist(), lab.tolist(), size)]


def piece_arrays(pieces) -> tuple:
    """A list of (points, labels) pieces as `number_patches` takes them: the
    (P, 4) labels and (P, 4, 2) points, a triangle's first corner repeated."""
    lab = np.array([(list(lb) * 2)[:4] for _, lb in pieces], dtype=np.int64).reshape(-1, 4)
    pts = np.array([(list(pt) * 2)[:4] for pt, _ in pieces], dtype=float).reshape(-1, 4, 2)
    return lab, pts


def array_split(uv, R=1.0):
    """`split_loops` on one polygon, as (points, labels) pieces, or None if
    the polygon is not star-shaped about its barycenter."""
    uv = np.asarray(uv, dtype=float)
    _, lab, pts, _, not_star = split_loops(uv[None, :, 0], uv[None, :, 1], R)
    return None if not_star[0] else as_pieces(lab, pts)


class TestSplitFacet:
    def test_square_single_quad(self):
        uv = regular_polygon(4, radius=0.5)
        pieces = array_split(uv)
        assert len(pieces) == 1
        assert len(pieces[0][0]) == 4

    def test_pentagon_tri_plus_quad(self):
        uv = regular_polygon(5, radius=0.5)
        pieces = array_split(uv)
        sizes = sorted(len(p[0]) for p in pieces)
        assert sizes == [3, 4, 4]

    def test_pieces_have_positive_area_and_cover(self):
        rng = np.random.default_rng(0)
        for n in (5, 6, 7, 9, 12):
            base = regular_polygon(n)
            uv = base * (1.0 + 0.15 * rng.random((n, 1)))
            pieces = array_split(uv)
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
        pieces = array_split(uv)
        labels = {lab for _, labs in pieces for lab in labs}
        assert len(uv) in labels  # the barycenter's label

    def test_invalid_quad_splits_at_its_corner(self):
        # the barycenter lies inside triangle (0, 1, 2), so the quad
        # (bc, 0, 1, 2) has a reflex angle at bc and splits at corner 1
        uv = [(-1.0, -0.3), (3.0, 0.0), (-1.0, 0.3), (-1.2, 0.2), (-1.2, -0.2)]
        pieces = array_split(uv)
        assert [labels for _, labels in pieces] == [[5, 0, 1], [5, 1, 2], [5, 2, 3, 4], [5, 4, 0]]
        assert sum(polygon_area(pts) for pts, _ in pieces) == pytest.approx(polygon_area(uv))

    def test_not_star_shaped_raises(self):
        # an L whose barycenter (1.4, 1.4) lies outside it
        uv = [(0.0, 0.0), (4.0, 0.0), (4.0, 0.2), (0.2, 0.2), (0.2, 4.0), (0.0, 4.0)]
        assert array_split(uv) is None
        with pytest.raises(GeometryError, match="^facet 7: not star-shaped about its barycenter$"):
            split_facet(uv, facet_id=7)


@st.composite
def loop_groups(draw):
    """Groups of CCW polygons, each 1-4 polygons of one size n, 3 to 16,
    and R, 1e-6 or 1. A polygon has 3 to n corners on rays from the origin
    at angular gaps under pi, so it is star-shaped about the origin but not
    always about its barycenter; its other vertices cut its edges into
    equal collinear parts, as repair's inserted points do, each of them a
    near-straight vertex."""
    R = draw(st.sampled_from([1e-6, 1.0]))
    groups = []
    for n in draw(st.lists(st.integers(3, 16), min_size=1, max_size=3, unique=True)):
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            m = draw(st.integers(3, n))
            gaps = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=m, max_size=m)))
            radii = R * np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=m, max_size=m)))
            theta = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
            corners = (radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])).tolist()
            cuts = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
            uv = []
            for k, (p, q) in enumerate(zip(corners, corners[1:] + corners[:1])):
                c = cuts.count(k) + 1
                uv += [(p[0] + j / c * (q[0] - p[0]), p[1] + j / c * (q[1] - p[1]))
                       for j in range(c)]
            rows.append(uv)
        groups.append(np.array(rows))
    return groups, R


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loop_groups())
@example(([np.stack([regular_polygon(n, r) for r in (0.5, 1.0, 2.0)]) for n in (3, 4)], 1.0))
def test_split_loops_matches_reference(case):
    """`split_loops` on each group gives each polygon the pieces of the
    plain-float `split_facet`, labels and point bytes, in order, and flags
    the polygons on which it raises. The example is two groups in which
    every polygon stays whole, so they have no spoke at all."""
    groups, R = case
    for uv in groups:
        row, lab, pts, flat, not_star = split_loops(uv[:, :, 0], uv[:, :, 1], R)
        assert (np.diff(row) >= 0).all()
        for i, poly in enumerate(uv.tolist()):
            assert flat[i] == (polygon_area(poly) <= 0)
            try:
                ref = split_facet(poly, R=R)
            except GeometryError:
                assert not_star[i]
                continue
            assert not not_star[i]
            got = as_pieces(lab[row == i], pts[row == i])
            assert [lb for _, lb in got] == [lb for _, lb in ref]
            assert [np.array(p).tobytes() for p, _ in got] == \
                [np.array(p, dtype=float).tobytes() for p, _ in ref]


@st.composite
def cut_convex_polygons(draw):
    """Convex CCW polygons of 3-8 corners on a circle of radius 0.3-2 R,
    each edge cut into 2^m equal collinear pieces (m = 0-2), as
    `insert_vertices` cuts a Voronoi edge; R is 1e-6 or 1."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
    theta = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    R = draw(st.sampled_from([1e-6, 1.0]))
    radius = R * draw(st.floats(0.3, 2.0))
    corners = (radius * np.column_stack([np.cos(theta), np.sin(theta)])).tolist()
    uv = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        m = 2 ** draw(st.integers(0, 2))
        uv += [(p[0] + j / m * (q[0] - p[0]), p[1] + j / m * (q[1] - p[1])) for j in range(m)]
    return uv, R


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cut_convex_polygons())
def test_split_facet_pieces_valid(case):
    """Every piece of a convex facet with cut edges has an area over
    1e-14 R^2 and every angle under pi - 1e-9, and the pieces cover the
    facet."""
    uv, R = case
    pieces = array_split(uv, R=R)
    for pts, _ in pieces:
        assert len(pts) in (3, 4)
        assert polygon_area(pts) > 1e-14 * R * R
        assert max(interior_angles(pts)) < math.pi - 1e-9
    total = sum(polygon_area(pts) for pts, _ in pieces)
    assert total == pytest.approx(polygon_area(uv), rel=1e-9)


def ref_edge_key(a, b):
    """Canonical undirected key for piece labels (ints or the 'bc' tag)."""
    if isinstance(a, int) and isinstance(b, int):
        return (a, b) if a < b else (b, a)
    return (b, a) if isinstance(a, str) else (a, b)


def ref_subdivide_to_quads(pieces: list, get_node) -> list:
    """The former midside subdivision: quad -> 4 quads, triangle -> 3 quads,
    with ``get_node(kind, key, uv)`` resolving or creating the node id of a
    corner ('corner', label), an edge midpoint ('mid', sorted label pair)
    or a piece centroid ('centroid', piece index). Kept as the reference
    for `number_patches`."""
    quads = []
    for pi, (pts, labels) in enumerate(pieces):
        m = len(pts)
        corners = [get_node("corner", lab, pts[k]) for k, lab in enumerate(labels)]
        mids = []
        for k in range(m):
            (ax, ay), (bx, by) = pts[k], pts[(k + 1) % m]
            key = ref_edge_key(labels[k], labels[(k + 1) % m])
            mids.append(get_node("mid", key, (0.5 * (ax + bx), 0.5 * (ay + by))))
        sx, sy = pts[0]
        for x, y in pts[1:]:
            sx += x
            sy += y
        g = get_node("centroid", pi, (sx / m, sy / m))
        if m == 4:
            quads.extend([
                (corners[0], mids[0], g, mids[3]),
                (mids[0], corners[1], mids[1], g),
                (g, mids[1], corners[2], mids[2]),
                (mids[3], g, mids[2], corners[3]),
            ])
        else:
            quads.extend([
                (corners[0], mids[0], g, mids[2]),
                (mids[0], corners[1], mids[1], g),
                (mids[2], g, mids[1], corners[2]),
            ])
    return quads


def ref_number_patches(pieces, facet, loops, n_points):
    """The former numbering: tessellate_cells' get_node callback, facet by
    facet, over `ref_subdivide_to_quads`, with the barycenter labelled
    'bc'. Returns the numbering's outputs, as lists: the quads, the
    (facet, node) slots, their (x, y) and the (a, b, node) midpoints, each
    new node numbered in order of first use; and the {node: key} of the new
    nodes, a key being (0, a, b) for the midpoint of edge a < b, (1, facet,
    lo, hi) for a facet's barycenter or cut-edge midpoint by label pair
    (the barycenter's label is the loop length), or (2, piece) for a
    centroid."""
    n_new = 0
    edge_midpoint = {}
    all_quads, slots, xy, keys = [], [], [], {}
    n_pieces = 0
    for fid, group in itertools.groupby(zip(facet, pieces), key=lambda t: t[0]):
        loop = loops[fid]
        bc = len(loop)
        local_pieces = [(pts, ["bc" if lab == bc else lab for lab in labels])
                        for _, (pts, labels) in group]
        local_uv, local_mid, local_centroid = {}, {}, {}

        def new_interior(key):
            nonlocal n_new
            n_new += 1
            keys[n_points + n_new - 1] = key
            return n_points + n_new - 1

        def get_node(kind, key, uv_pt):
            nonlocal n_new
            if kind == "corner":
                if key == "bc":
                    if "bc" not in local_centroid:
                        local_centroid["bc"] = new_interior((1, fid, bc, bc))
                    nid = local_centroid["bc"]
                else:
                    nid = loop[key]
            elif kind == "mid":
                a, b = key
                if isinstance(a, int) and isinstance(b, int):
                    ga, gb = loop[a], loop[b]
                    gkey = (ga, gb) if ga < gb else (gb, ga)
                    adjacent = abs(a - b) == 1 or {a, b} == {0, len(loop) - 1}
                    if adjacent:
                        if gkey not in edge_midpoint:
                            edge_midpoint[gkey] = n_points + n_new
                            keys[n_points + n_new] = (0, *gkey)
                            n_new += 1
                        nid = edge_midpoint[gkey]
                        local_uv[nid] = uv_pt
                        return nid
                if key not in local_mid:
                    local_mid[key] = new_interior((1, fid, a, bc if b == "bc" else b))
                nid = local_mid[key]
            else:
                if key not in local_centroid:
                    local_centroid[key] = new_interior((2, n_pieces + key))
                nid = local_centroid[key]
            local_uv[nid] = uv_pt
            return nid

        all_quads += ref_subdivide_to_quads(local_pieces, get_node)
        n_pieces += len(local_pieces)
        for nid in sorted(local_uv):
            slots.append((fid, nid))
            xy.append(local_uv[nid])
    mids = sorted(((a, b, n) for (a, b), n in edge_midpoint.items()), key=lambda r: r[2])
    return all_quads, slots, xy, mids, keys


def by_key_rank(ref, n_points):
    """The outputs of `ref_number_patches` with its new nodes renumbered
    from ``n_points`` by the rank of their keys, the slots sorted again."""
    quads, slots, xy, mids, keys = ref
    new = {nid: n_points + r for r, nid in enumerate(sorted(keys, key=keys.get))}
    quads = [[new.get(n, n) for n in q] for q in quads]
    order = sorted(range(len(slots)), key=lambda i: (slots[i][0], new.get(slots[i][1], slots[i][1])))
    slots = [[slots[i][0], new.get(slots[i][1], slots[i][1])] for i in order]
    mids = sorted([a, b, new[n]] for a, b, n in mids)
    return quads, slots, [xy[i] for i in order], mids


@st.composite
def split_facets(draw):
    """The `split_loops` pieces of 1-4 convex polygons, each on a circle of
    radius 0.3-2, with points inserted along some edges (a facet of over 4
    vertices, or with a near-straight one, gets a barycenter). Their loops take
    vertex ids from a pool of 12, so that facets share edges."""
    pieces, facet, loops = [], [], []
    for fid in range(draw(st.integers(1, 4))):
        n = draw(st.integers(3, 7))
        gaps = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
        theta = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
        radius = draw(st.floats(0.3, 2.0))
        corners = (radius * np.column_stack([np.cos(theta), np.sin(theta)])).tolist()
        split = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        uv = []
        for k, (p, q) in enumerate(zip(corners, corners[1:] + corners[:1])):
            uv.append(tuple(p))
            for j in range(1, split[k] + 1):
                t = j / (split[k] + 1)
                uv.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        uv = uv[:12]
        got = array_split(uv)
        loops.append(draw(st.permutations(range(12)))[:len(uv)])
        pieces += got
        facet += [fid] * len(got)
    return pieces, facet, loops


class TestNumberPatches:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(split_facets())
    def test_matches_reference(self, case):
        """Quads, slots and slot (x, y) bits are those of the former
        get_node numbering, its new nodes renumbered by the rank of their
        keys; the edge midpoints are the first new nodes, in (a, b) order."""
        pieces, facet, loops = case
        ref_quads, ref_slots, ref_xy, ref_mids = by_key_rank(
            ref_number_patches(pieces, facet, loops, 12), 12)
        quads, quad_slots, slots, xy, mids = number_patches(*piece_arrays(pieces), facet,
                                                            *csr(loops), 12)
        assert quads.tolist() == ref_quads
        assert slots.tolist() == ref_slots
        assert xy.tobytes() == np.array(ref_xy, dtype=float).reshape(-1, 2).tobytes()
        assert mids.tolist() == ref_mids
        assert (mids[:, 2] == 12 + np.arange(len(mids))).all()
        assert mids[:, :2].tolist() == sorted(mids[:, :2].tolist())
        assert (slots[quad_slots, 1] == quads).all()

    def test_barycenter_facet(self):
        """A dodecagon of split hexagon edges: a barycenter facet whose
        wedges share the barycenter and their cut edges."""
        hexa = regular_polygon(6, 1.5).tolist()
        uv = [tuple(p) for k in range(6) for p in (hexa[k], np.add(hexa[k], hexa[(k + 1) % 6]) / 2)]
        pieces = array_split(uv)
        assert any(12 in labels for _, labels in pieces)
        quads, *_ = number_patches(*piece_arrays(pieces), [0] * len(pieces), *csr([range(12)]), 12)
        ref_quads, *_ = by_key_rank(
            ref_number_patches(pieces, [0] * len(pieces), [list(range(12))], 12), 12)
        assert quads.tolist() == ref_quads


class TestSubdivide:
    def collect(self, pieces):
        """The quads and slot positions of one facet's pieces, its loop the
        labels 0..n - 1 as vertex ids."""
        n = 1 + max(lab for _, labels in pieces for lab in labels)
        quads, _, _, xy, _ = number_patches(*piece_arrays(pieces), [0] * len(pieces),
                                            *csr([range(n)]), n)
        return quads, xy

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


def smooth_one(uv_nodes, quads, interior):
    """smooth_patches on one patch given as a {node id: (x, y)} dict, with
    its slots in node id order; returns the same kind of dict and the
    reverted flag."""
    ids = sorted(uv_nodes)
    slot = {n: k for k, n in enumerate(ids)}
    out, reverted = smooth_patches(
        np.array([uv_nodes[n] for n in ids], dtype=float),
        [[slot[n] for n in q] for q in quads], np.zeros(len(quads), dtype=int),
        np.isin(ids, interior))
    return {n: tuple(p) for n, p in zip(ids, out.tolist())}, reverted == [0]


def facet_patch(uv):
    """A polygon's quad patch as split_loops and number_patches make it:
    ({node: (x, y)}, quads, interior nodes). Interior nodes are the
    barycenter, the midpoints of cut edges and the piece centroids."""
    n = len(uv)
    pieces = array_split(uv)
    quads, _, slots, xy, mids = number_patches(*piece_arrays(pieces), [0] * len(pieces),
                                               *csr([range(n)]), n)
    nodes = slots[:, 1].tolist()
    interior = [v for v in nodes if v >= n and v not in mids[:, 2]]
    return (dict(zip(nodes, map(tuple, xy.tolist()))), [tuple(q) for q in quads.tolist()],
            interior)


class TestSmoothFacet:
    def test_symmetric_patch_fixed_point(self):
        uv = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
              4: (0.5, 0.0), 5: (1.0, 0.5), 6: (0.5, 1.0), 7: (0.0, 0.5),
              8: (0.5, 0.5)}
        uv = {k: np.array(v) for k, v in uv.items()}
        quads = [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)]
        out, reverted = smooth_one(uv, quads, [8])
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
        out, reverted = smooth_one(uv, quads, [8])
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
        out, reverted = smooth_one(uv, quads, [8])
        assert reverted
        assert out == uv
        assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
                   for n in uv for a, b in zip(out[n], uv[n]))

    def test_batch_equals_each_patch_alone(self, caplog):
        square = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
                  4: (0.5, 0.0), 5: (1.0, 0.5), 6: (0.5, 1.0), 7: (0.0, 0.5)}
        grid = [(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)]
        inverting = {0: (-1.0, 6.0), 1: (4.0, 0.0), 2: (4.0, 4.0), 3: (0.0, 4.0),
                     4: (2.0, 0.0), 5: (4.0, 2.0), 6: (2.0, 4.0), 7: (0.0, 2.0),
                     8: (1.0, 4.5)}
        rng = np.random.default_rng(3)
        hexa = regular_polygon(6) * (1.0 + 0.2 * rng.random((6, 1)))
        dodeca = np.array([p for k in range(6)
                           for p in (hexa[k], 0.5 * (hexa[k] + hexa[(k + 1) % 6]))])
        patches = {
            41: ({**square, 8: (0.9, 0.9)}, grid, [8]),
            3: facet_patch(dodeca),
            17: (inverting, grid, [8]),
            8: facet_patch(regular_polygon(7) + 5.0),
        }
        alone = {pid: smooth_one(*patch)[0] for pid, patch in patches.items()}

        xy, quads, quad_patch, moving, where = [], [], [], [], {}
        for pid, (uv, qs, interior) in patches.items():
            ids = sorted(uv)
            slot = {n: len(xy) + k for k, n in enumerate(ids)}
            where[pid] = slot
            xy += [uv[n] for n in ids]
            moving += [n in interior for n in ids]
            quads += [[slot[n] for n in q] for q in qs]
            quad_patch += [pid] * len(qs)
        caplog.clear()
        out, reverted = smooth_patches(np.array(xy), quads, quad_patch, moving)
        assert reverted == [17]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["facet 17: patch smoothing inverted a quad; reverting"]
        for pid, slot in where.items():
            got = np.array([out[slot[n]] for n in sorted(slot)])
            assert got.tobytes() == np.array([alone[pid][n] for n in sorted(slot)]).tobytes()
        assert out[list(where[17].values())].tobytes() == np.array(
            [inverting[n] for n in sorted(inverting)]).tobytes()


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


def old_loop_is_simple(uv):
    """The former loop_is_simple, one orient closure per segment test, kept
    as a reference."""

    def segments_intersect(p, q, r, s):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        d1 = orient(p, q, r)
        d2 = orient(p, q, s)
        d3 = orient(r, s, p)
        d4 = orient(r, s, q)
        return d1 * d2 < 0 and d3 * d4 < 0

    m = len(uv)
    for i in range(m):
        a, b = uv[i], uv[(i + 1) % m]
        for j in range(i + 2, m):
            if (j + 1) % m == i:
                continue
            if segments_intersect(a, b, uv[j], uv[(j + 1) % m]):
                return False
    return True


@st.composite
def grid_loops(draw):
    """Loops of 3-9 vertices on a 4 x 4 grid, or anywhere in a 10 x 10
    square: on the grid, collinear, touching and crossing edges are common."""
    coord = draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(0.0, 10.0)]))
    return draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=9))


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
            assert loop_is_simple(pts)
        assert old_loop_is_simple(uv.tolist())
        angles = corner_angles(uv[None, :, 0], uv[None, :, 1])[0]
        assert np.allclose(angles, old_interior_angles(uv), rtol=0, atol=1e-12)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(grid_loops())
    @example([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    @example([(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 0.0), (0.0, 2.0)])
    @example([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    def test_loop_is_simple_matches_reference(self, loop):
        assert loop_is_simple(loop) == old_loop_is_simple(loop)
        assert loop_is_simple(np.array(loop)) == old_loop_is_simple(loop)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(grid_loops(), min_size=1, max_size=6), st.integers(0, 4))
    def test_row_wise_forms_match(self, loops, pad):
        """polygon_areas and loops_are_simple give, row by row, what
        polygon_area and loop_is_simple give on each loop (the area to the
        bit), also with the loops padded to one size by repeating their
        last vertex; corner_angles gives each loop's interior_angles, each
        within an ulp of 2 pi (``np.arctan2`` for ``math.atan2``)."""
        m = max(map(len, loops)) + pad
        rows = np.array([loop + loop[-1:] * (m - len(loop)) for loop in loops])
        areas = polygon_areas(rows[:, :, 0], rows[:, :, 1])
        simple = loops_are_simple(rows[:, :, 0], rows[:, :, 1])
        assert areas.tolist() == [polygon_area(loop) for loop in loops]
        assert simple.tolist() == [loop_is_simple(loop) for loop in loops]
        for loop in loops:
            xy = np.array([loop])
            assert np.allclose(corner_angles(xy[:, :, 0], xy[:, :, 1])[0], interior_angles(loop),
                               rtol=0, atol=np.spacing(2.0 * np.pi))

    def test_loop_is_simple_cases(self):
        assert not loop_is_simple([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])  # crossing
        assert loop_is_simple([(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 0.0), (0.0, 2.0)])  # touching
        assert loop_is_simple([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)])  # collinear


@pytest.fixture(scope="module")
def tessellated():
    bed = fixtures.random_cylinder_bed(n=40, R_c=3.2, H=10.0, seed=4)
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    return tessellate_cells(cs)


class TestTessellateCells:
    def test_all_quads(self, tessellated):
        assert tessellated.quads.shape == (len(tessellated.quad_facet), 4)
        assert (np.diff(tessellated.quad_facet) >= 0).all()

    def test_quad_count_rule(self, tessellated):
        # counts follow 4q + 3t exactly: every patch size is a sum of 4s and 3s
        for patch in tessellated.patches.values():
            n = len(patch.quads)
            assert n >= 3
            assert any(4 * q + 3 * t == n for q in range(n // 4 + 1) for t in range(n // 3 + 1))

    def test_patches_view(self, tessellated):
        patches = tessellated.patches
        assert sorted(patches) == np.unique(tessellated.quad_facet).tolist()
        assert np.vstack([p.quads for _, p in sorted(patches.items())]).tolist() == \
            tessellated.quads.tolist()

    def test_conformal_edge_registry(self, tessellated):
        cs = tessellated.cellset
        for u, v, nid in tessellated.edge_midpoints.tolist():
            # the midpoint node must be used by every patch whose facet
            # contains the edge
            for fid, loop in enumerate(loops_of(cs)):
                if len(loop) < 3:
                    continue
                edges = {tuple(sorted(e)) for e in zip(loop, loop[1:] + loop[:1])}
                if (u, v) in edges:
                    assert nid in tessellated.quads[tessellated.quad_facet == fid]

    def test_guard_respected(self, tessellated):
        centers = tessellated.cellset.bed.centers
        nid, c = tessellated.owners.T
        assert np.unique(tessellated.owners, axis=0).tolist() == tessellated.owners.tolist()
        d = np.linalg.norm(tessellated.nodes[nid] - centers[c], axis=1)
        assert (d >= GUARD_RADIUS - 1e-9).all()

    def test_interior_nodes_on_bisecting_plane(self, tessellated):
        cs = tessellated.cellset
        for fid in np.unique(tessellated.quad_facet).tolist():
            f = cs.facets[fid]
            for nid in interior_nodes(tessellated, fid):
                d = abs((tessellated.nodes[nid] - f.plane_point) @ f.plane_normal)
                assert d < 1e-9

    def test_single_patch_serves_both_cells(self, tessellated):
        cs = tessellated.cellset
        cell, facet, quads = tessellated.outward_quads()
        assert (np.diff(cell * len(cs.facets) + facet) >= 0).all()
        for fid, f in enumerate(cs.facets):
            if f.deleted or f.site_b >= cs.n_real:
                continue
            mine = quads[(cell == f.site_a) & (facet == fid)]
            theirs = quads[(cell == f.site_b) & (facet == fid)]
            assert len(mine) and mine.tolist() == theirs[:, ::-1].tolist()


@pytest.mark.parametrize("k", [1e-7, 1e-6, 0.5, 1.0, 2.0])
def test_quad_count_independent_of_scale(k):
    """The same bed at sphere radius k tessellates into the same quads:
    every length and area threshold of repair and the tessellator is in
    units of R."""
    bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
    bed = SphereBed(centers=bed.centers * k, radius_nominal=k, domain=bed.domain.scaled(k))
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    assert len(tessellate_cells(cs).quads) == 5816


def broken_cube(faults: dict):
    """The raw `simple_cubic(3)` cell set with facets broken: ``faults``
    maps a facet id to "reversed" (its loop runs backwards, so it projects
    to a negative area), "L" (its loop is replaced by six new points in its
    plane, an L whose barycenter lies outside it) or "reversed L" (both)."""
    bed = fixtures.simple_cubic(3)
    cs = build_cells(bed, generate_ghosts(bed))
    loops = loops_of(cs)
    L = 0.05 * np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 0.2), (0.2, 0.2), (0.2, 4.0), (0.0, 4.0)])
    for fid, fault in faults.items():
        if "L" in fault:
            pts = cs.plane_point[fid] + L[:, :1] * cs.e1[fid] + L[:, 1:] * cs.e2[fid]
            loops[fid] = list(range(len(cs.points), len(cs.points) + len(pts)))
            cs.points = np.vstack([cs.points, pts])
        if "reversed" in fault:
            loops[fid] = loops[fid][::-1]
    cs.loop_start, cs.loop_vertex = csr(loops)
    return cs


AREA_ERROR = "^facet {} projects to a non-positive area loop$"
STAR_ERROR = "^facet {}: not star-shaped about its barycenter$"
LOOP_ERROR = "^facet {}: loop is flat, reversed or self-intersecting after repair$"


@pytest.mark.parametrize("faults, error", [
    ({5: "reversed", 40: "L"}, AREA_ERROR.format(5)),
    ({5: "L", 40: "reversed"}, STAR_ERROR.format(5)),
    ({40: "reversed", 5: "L"}, STAR_ERROR.format(5)),
    ({40: "L", 5: "reversed"}, AREA_ERROR.format(5)),
    ({5: "reversed L"}, AREA_ERROR.format(5)),
    ({40: "L"}, STAR_ERROR.format(40)),
])
def test_tessellate_error_order(faults, error):
    """The error names the lowest broken facet id, whichever fault it has,
    and on one facet the area check comes before the split."""
    with pytest.raises(GeometryError, match=error):
        tessellate_cells(broken_cube(faults))


def test_repair_checks_its_loops():
    """Repair's loop check, after the collapses, raises for the lowest
    broken facet (5 runs backwards; 40, an L, is a valid loop) and leaves
    the points and loops as given."""
    cs = broken_cube({5: "reversed", 40: "L"})
    given = cs.points.copy(), cs.loop_start.copy(), cs.loop_vertex.copy()
    with pytest.raises(GeometryError, match=LOOP_ERROR.format(5)):
        repair(cs, RepairConfig())
    for a, b in zip(given, (cs.points, cs.loop_start, cs.loop_vertex)):
        assert a.tobytes() == b.tobytes()


def interior_nodes(qm: FacetQuadMesh, fid: int) -> list:
    """The nodes that only facet fid's patch has, in node order: the new
    nodes of its quads that are not original-edge midpoints."""
    nodes = np.unique(qm.quads[qm.quad_facet == fid])
    return [n for n in nodes.tolist()
            if n >= len(qm.cellset.points) and n not in set(qm.edge_midpoints[:, 2].tolist())]


def quadmesh_digest(qm: FacetQuadMesh) -> str:
    """sha256 of a tessellation: exact node bytes, each patch's quads and
    interior nodes, and the node owners and edge midpoints, sorted. The
    hashed repr is the one of the former dict-based tessellation."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(qm.nodes, dtype="<f8").tobytes())
    patches = [(fid, [tuple(q) for q in p.quads.tolist()], interior_nodes(qm, fid))
               for fid, p in sorted(qm.patches.items())]
    h.update(repr(patches).encode())
    owners = [(n, [c for _, c in rows])
              for n, rows in itertools.groupby(qm.owners.tolist(), key=lambda r: r[0])]
    h.update(repr(owners).encode())
    mids = sorted(((a, b), n) for a, b, n in qm.edge_midpoints.tolist())
    h.update(repr(mids).encode())
    return h.hexdigest()


@cache
def repaired_tessellation(name: str) -> FacetQuadMesh:
    """The tessellation of a repaired fixture bed: ``cylinder_repaired``, a
    random cylinder bed, or ``lattice_repaired``, the lattice_box bed, whose
    facets are congruent with repair's collinear inserted points, each a
    near-straight vertex and so a spoke."""
    if name == "cylinder_repaired":
        bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
    else:
        bed = fixtures.simple_cubic(4)
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    return tessellate_cells(cs)


# A patch's quad areas may sum to its loop's area only up to rounding: both
# are sums of products of coordinates of size R, projected onto the facet's
# plane, in different orders.
AREA_RTOL = 1e-12


@pytest.mark.parametrize("name", ["cylinder_repaired", "lattice_repaired"])
def test_patches_partition_their_facets(name):
    """Each patch tiles its facet's loop, in the facet's (e1, e2) plane:
    its quad areas are positive and sum to the projected loop's area within
    AREA_RTOL of it (a signed sum alone would not see a folded quad), each
    edge inside the patch is used by exactly two of its quads, and each
    loop-boundary segment, half of a loop edge, by exactly one."""
    qm = repaired_tessellation(name)
    cs = qm.cellset
    mid = {(a, b): m for a, b, m in qm.edge_midpoints.tolist()}
    fids, start = np.unique(qm.quad_facet, return_index=True)
    for fid, quads in zip(fids.tolist(), np.split(qm.quads, start[1:])):
        e1, e2 = cs.e1[fid], cs.e2[fid]
        rel = qm.nodes[quads] - cs.plane_point[fid]
        quad_area = polygon_areas(rel @ e1, rel @ e2)
        loop = cs.loop(fid).tolist()
        rel = cs.points[loop] - cs.plane_point[fid]
        loop_area = polygon_area(np.column_stack([rel @ e1, rel @ e2]))
        assert (quad_area > 0).all(), fid
        assert abs(quad_area.sum() - loop_area) <= AREA_RTOL * loop_area, fid

        uses = collections.Counter(tuple(sorted(e)) for q in quads.tolist()
                                   for e in zip(q, q[1:] + q[:1]))
        boundary = set()
        for a, b in zip(loop, loop[1:] + loop[:1]):
            m = mid[min(a, b), max(a, b)]
            boundary |= {tuple(sorted((a, m))), tuple(sorted((m, b)))}
        assert {e: uses[e] for e in boundary} == dict.fromkeys(boundary, 1), fid
        assert {e: n for e, n in uses.items() if e not in boundary} == \
            dict.fromkeys(uses.keys() - boundary, 2), fid


# Digests of the tessellations of three fixtures, node numbering included:
# new nodes by the rank of their keys. A change to tessellate that keeps
# behaviour and numbering keeps these; node coordinates are compared bit
# for bit.
GOLDEN = {
    "cube_raw": "feff07c7abc2cf9117cd84cd02e78ac62e72603ce1976854c260f583d7e0ec86",
    "cylinder_repaired": "3883ee4471a29224a4dd7367cef403348b82682e15185e4386950ffbc568e95c",
    "lattice_repaired": "87e13059a2427823b137c81b998acb2a736076c75c5488c6922a4da36810ddc2",
}


class TestGoldenDigest:
    def test_cube_raw(self):
        bed = fixtures.simple_cubic(3)
        cs = build_cells(bed, generate_ghosts(bed))
        assert quadmesh_digest(tessellate_cells(cs)) == GOLDEN["cube_raw"]

    def test_cylinder_repaired(self):
        qm = repaired_tessellation("cylinder_repaired")
        assert quadmesh_digest(qm) == GOLDEN["cylinder_repaired"]

    def test_lattice_repaired(self):
        qm = repaired_tessellation("lattice_repaired")
        assert quadmesh_digest(qm) == GOLDEN["lattice_repaired"]
