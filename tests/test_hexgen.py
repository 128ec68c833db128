import copy
import hashlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_repair import ghost_tag

from voidhex import fixtures
from voidhex.bed import (
    RADIAL,
    Wall,
    attach_domain,
    fit_annulus,
    fit_cylinder,
    rescale,
    separation_profile,
)
from voidhex import hexgen
from voidhex.errors import GeometryError, TopologyError, ValidationError
from voidhex.hexgen import (
    _FACES,
    ExtrusionSpec,
    HexMesh,
    _audit_growth,
    _face_table,
    _grow_layers,
    _loops,
    _sides,
    audit_conformal,
    boundary_surfaces,
    corner_jacobians,
    extrude_layers,
    refine_radial,
    surface_tag,
    sweep,
)
from voidhex.repair import RepairConfig, repair
from voidhex.tessellate import tessellate_cells
from voidhex.voronoi import build_cells, generate_ghosts

UNIT_CUBE = np.array([
    (0.0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
])


def cube_mesh_raw():
    """Simple-cubic bed meshed without repair: every facet is one square."""
    bed = fixtures.simple_cubic(3)
    cs = build_cells(bed, generate_ghosts(bed))
    patches = tessellate_cells(cs)
    return bed, cs, sweep(patches)


@pytest.fixture(scope="module")
def cube_swept():
    return cube_mesh_raw()


@pytest.fixture(scope="module")
def random_swept():
    bed = fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5)
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    return bed, cs, sweep(tessellate_cells(cs))


class TestCornerJacobians:
    def test_unit_cube(self):
        J = corner_jacobians(UNIT_CUBE, np.arange(8)[None, :])
        assert J.shape == (1, 8, 3, 3)
        for c in range(8):
            assert np.allclose(J[0, c], 0.5 * np.eye(3))
        assert np.allclose(np.linalg.det(J), 0.125)

    def test_reflected_cube_negative(self):
        refl = UNIT_CUBE.copy()
        refl[:, 0] *= -1
        dets = np.linalg.det(corner_jacobians(refl, np.arange(8)[None, :]))
        assert (dets < 0).all()


PLANE = Wall(0, 0.0, -1)  # a surface tagged wall


def face_rows(elements, key):
    """Face-table rows (6 * element + local face) whose sorted nodes are key."""
    keys = np.sort(np.asarray(elements)[:, _FACES], axis=2).reshape(-1, 4)
    return np.flatnonzero((keys == key).all(axis=1))


def hand_mesh(nodes, elements):
    """A mesh of hand-built hexes whose one-owner faces all carry a tag."""
    elements = np.array(elements, dtype=np.int64)
    keys = np.sort(elements[:, _FACES], axis=2).reshape(-1, 4)
    _, inv, count = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    faces = np.flatnonzero(count[inv.ravel()] == 1)
    return HexMesh(
        nodes=np.asarray(nodes, dtype=float), elements=elements,
        faces=faces, face_surface=np.zeros(len(faces), dtype=np.int64), surfaces=[PLANE],
        elem_cell=np.zeros(len(elements), dtype=np.int64), elem_layer=np.full(len(elements), "0"),
        sphere_centers=np.zeros((1, 3)), radius=1.0,
    )


def tag_row(mesh, row, desc=PLANE):
    mesh.faces = np.append(mesh.faces, row)
    mesh.face_surface = np.append(mesh.face_surface, len(mesh.surfaces))
    mesh.surfaces.append(desc)


# three unit cubes stacked in z: nodes 4k .. 4k+3 form the square at z = k
STACK = np.array([(x, y, z) for z in range(4) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))],
                 dtype=float)
LOWER = list(range(8))
UPPER = list(range(4, 12))


class TestAuditConformal:
    """Each branch of audit_conformal on a one- to three-hex mesh."""

    def test_valid_two_hexes(self):
        stats = audit_conformal(hand_mesh(STACK[:12], [LOWER, UPPER]))
        assert stats == {"boundary_faces": 10, "interior_faces": 1}

    def test_untagged_boundary_face(self):
        mesh = hand_mesh(UNIT_CUBE, [LOWER])
        keep = mesh.faces != face_rows(mesh.elements, (4, 5, 6, 7))[0]
        mesh.faces = mesh.faces[keep]
        mesh.face_surface = mesh.face_surface[keep]
        with pytest.raises(TopologyError, match=r"untagged boundary face \(4, 5, 6, 7\)"):
            audit_conformal(mesh)

    def test_tagged_interior_face(self):
        mesh = hand_mesh(STACK[:12], [LOWER, UPPER])
        tag_row(mesh, face_rows(mesh.elements, (4, 5, 6, 7))[0])
        with pytest.raises(TopologyError, match=r"interior face \(4, 5, 6, 7\) carries tag wall"):
            audit_conformal(mesh)

    def test_same_orientation_in_both_owners(self):
        # the upper hex mirrored, so its bottom face runs the same way as
        # the lower hex's top face
        mesh = hand_mesh(STACK[:12], [LOWER, [4, 7, 6, 5, 8, 11, 10, 9]])
        with pytest.raises(TopologyError, match=r"face \(4, 5, 6, 7\) not oppositely oriented"):
            audit_conformal(mesh)

    @pytest.mark.parametrize("upper", [
        [4, 5, 7, 6, 8, 9, 11, 10],
        [4, 6, 5, 7, 8, 10, 9, 11],
    ], ids=["last_two_swapped", "middle_two_swapped"])
    def test_crossed_loop_in_one_owner(self, upper):
        # the upper hex's bottom loop holds the shared face's nodes in a
        # crossed order: each case keeps one of node 4's two neighbours
        # where the lower hex's reversed loop has it, and moves the other
        mesh = hand_mesh(STACK[:12], [LOWER, upper])
        with pytest.raises(TopologyError, match=r"face \(4, 5, 6, 7\) not oppositely oriented"):
            audit_conformal(mesh)

    def test_face_with_three_owners(self):
        mesh = hand_mesh(STACK, [LOWER, UPPER, [4, 5, 6, 7, 12, 13, 14, 15]])
        with pytest.raises(TopologyError, match=r"face \(4, 5, 6, 7\) shared by 3 elements"):
            audit_conformal(mesh)

    def test_boundary_face_tagged_twice(self):
        mesh = hand_mesh(UNIT_CUBE, [LOWER])
        tag_row(mesh, face_rows(mesh.elements, (4, 5, 6, 7))[0], Wall(2, 1.0, 1))
        with pytest.raises(TopologyError, match=r"face \(4, 5, 6, 7\) tagged 2 times"):
            audit_conformal(mesh)

    def test_orphan_node(self):
        mesh = hand_mesh(STACK[:9], [LOWER])
        with pytest.raises(TopologyError, match="orphan nodes: 1 unreferenced"):
            audit_conformal(mesh)

    @pytest.mark.parametrize("untag, expected", [
        (False, {"boundary_faces": 16, "interior_faces": 1}),
        (True, "untagged boundary face (4, 5, 6, 12)"),
    ], ids=["valid", "tied_face_untagged"])
    def test_faces_sharing_three_smallest_ids(self, untag, expected):
        # a hex listed between the two stacked ones, whose base (4, 5, 6, 12)
        # shares its three smallest ids with their shared face (4, 5, 6, 7):
        # the three rows take one sort code, and only the tie step puts the
        # two rows of (4, 5, 6, 7) next to each other
        nodes = np.vstack([STACK, STACK[:1] + 9.0])
        mesh = hand_mesh(nodes, [LOWER, [4, 5, 6, 12, 13, 14, 15, 16], UPPER])
        if untag:
            keep = mesh.faces != face_rows(mesh.elements, (4, 5, 6, 12))[0]
            mesh.faces, mesh.face_surface = mesh.faces[keep], mesh.face_surface[keep]
        assert verdict(audit_conformal, mesh) == verdict(audit_reference, mesh) == expected


class TestFaceTable:
    """`_face_table` orders the faces as a lexsort of their sorted keys,
    with the three-id sort code and with the two-id one that node ids past
    2^21 take."""

    @pytest.mark.parametrize("ids", [
        np.arange(9),
        np.array([0, 1, 2, 3, 2**20, 2**21, 2**21 + 1, 2**22, 2**22 + 1]),
    ], ids=["three_id_code", "two_id_code"])
    def test_order_of_a_lexsort(self, ids):
        # 400 rows of 4 distinct ids out of 9, each row in its own order:
        # many rows share their two or three smallest ids without being one
        # face; past 2^21 a three-id code would overflow int64
        rng = np.random.default_rng(5)
        loops = ids[np.array([rng.permutation(9)[:4] for _ in range(400)])]
        order, starts, counts = _face_table(loops)
        keys = np.sort(loops, axis=1)
        assert (keys[order] == keys[np.lexsort(keys.T[::-1])]).all()
        faces, owners = np.unique(keys, axis=0, return_counts=True)
        assert (keys[order[starts]] == faces).all()
        assert counts.tolist() == owners.tolist()


def audit_reference(mesh):
    """audit_conformal with the face keys sorted by np.sort and each shared
    face's two loops compared once both are rotated to start at their
    smallest node: the reference for the comparator network and the
    twin-position orientation test."""
    keys = np.sort(mesh.elements[:, _FACES].reshape(-1, 4), axis=1)
    order = np.lexsort(keys.T[::-1])
    skeys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (skeys[1:] != skeys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(order))

    def key(f):
        return tuple(keys[order[starts[f]]].tolist())

    over = np.flatnonzero(counts > 2)
    if len(over):
        raise TopologyError(f"face {key(over[0])} shared by {counts[over[0]]} elements")
    face = np.empty(len(order), dtype=np.int64)
    face[order] = np.repeat(np.arange(len(starts)), counts)
    tagged = face[mesh.faces]
    tags = np.bincount(tagged, minlength=len(starts))
    untagged = np.flatnonzero((counts == 1) & (tags == 0))
    if len(untagged):
        raise TopologyError(f"untagged boundary face {key(untagged[0])}")
    stray = np.flatnonzero((counts == 2) & (tags > 0))
    if len(stray):
        desc = mesh.surfaces[mesh.face_surface[np.flatnonzero(tagged == stray[0])[0]]]
        raise TopologyError(f"interior face {key(stray[0])} carries tag {surface_tag(desc)}")
    twice = np.flatnonzero(tags > 1)
    if len(twice):
        raise TopologyError(f"face {key(twice[0])} tagged {tags[twice[0]]} times")

    def rotate_to_min(loops):
        shift = loops.argmin(axis=1)[:, None] + np.arange(4)
        return np.take_along_axis(loops, shift % 4, axis=1)

    pair = starts[counts == 2]
    a = _loops(mesh.elements, order[pair])
    b = _loops(mesh.elements, order[pair + 1])[:, ::-1]
    flipped = np.flatnonzero((rotate_to_min(a) != rotate_to_min(b)).any(axis=1))
    if len(flipped):
        k = tuple(sorted(a[flipped[0]].tolist()))
        raise TopologyError(f"face {k} not oppositely oriented in its two owners")
    used = np.bincount(mesh.elements.ravel(), minlength=len(mesh.nodes))
    if len(used) > len(mesh.nodes) or not used.all():
        raise TopologyError(
            f"orphan nodes: {int((used[:len(mesh.nodes)] == 0).sum())} unreferenced"
        )
    return {"boundary_faces": int((counts == 1).sum()), "interior_faces": len(pair)}


def verdict(audit, mesh):
    """An audit's stats, or the message of the TopologyError it raised."""
    try:
        return audit(mesh)
    except TopologyError as exc:
        return str(exc)


MIRROR = [3, 2, 1, 0, 7, 6, 5, 4]


@pytest.fixture(scope="module")
def cube_extruded(cube_swept):
    _, _, mesh = cube_swept
    return extrude_layers(refine_radial(mesh))


class TestAuditAgainstReference:
    """audit_conformal gives the reference's verdict and message on whole
    meshes, and on the extruded cube mesh with one element or tag corrupted."""

    def test_valid_meshes(self, extruded, cube_extruded):
        for mesh in (*extruded, cube_extruded):
            assert verdict(audit_conformal, mesh) == verdict(audit_reference, mesh)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(["swap", "mirror", "duplicate", "drop_tag", "add_tag", "orphan"]),
           st.integers(0, 2**31), st.integers(0, 7), st.integers(1, 7))
    def test_corrupted_mesh(self, cube_extruded, how, pick, corner, offset):
        mesh = copy.deepcopy(cube_extruded)
        e = pick % len(mesh.elements)
        if how == "swap":
            other = (corner + offset) % 8
            mesh.elements[e, [corner, other]] = mesh.elements[e, [other, corner]]
        elif how == "mirror":
            mesh.elements[e] = mesh.elements[e, MIRROR]
        elif how == "duplicate":
            mesh.elements = np.vstack([mesh.elements, mesh.elements[e]])
        elif how == "drop_tag":
            k = pick % len(mesh.faces)
            mesh.faces = np.delete(mesh.faces, k)
            mesh.face_surface = np.delete(mesh.face_surface, k)
        elif how == "add_tag":
            tag_row(mesh, pick % (6 * len(mesh.elements)))
        else:
            mesh.nodes = np.vstack([mesh.nodes, mesh.nodes[:1]])
        got = verdict(audit_conformal, mesh)
        assert isinstance(got, str)
        assert got == verdict(audit_reference, mesh)


def fitted_annulus_bed():
    """The annulus bed in the annulus fitted to it, with a full R of wall
    clearance."""
    bed = fixtures.random_annulus_bed()
    return attach_domain(bed, fit_annulus(bed), fitted=True)


def cylinder_mesh_bed():
    """The 100-sphere cylinder bed, fitted and rescaled as the mesh
    benchmark meshes it."""
    bed = fixtures.random_cylinder_bed(n=100, R_c=4.0, H=15.0, seed=7)
    bed = attach_domain(bed, fit_cylinder(bed), fitted=True)
    return rescale(bed, separation_profile(bed))


def test_cylinder_mesh_has_no_inverted_hex():
    """The cylinder_mesh bed, repaired by default, meshes with a positive
    corner det at every corner of every hex."""
    bed = cylinder_mesh_bed()
    cs = build_cells(bed, generate_ghosts(bed))
    repair(cs, RepairConfig())
    mesh = extrude_layers(refine_radial(sweep(tessellate_cells(cs))))
    worst = np.linalg.det(corner_jacobians(mesh.nodes, mesh.elements)).min(axis=1)
    assert (worst > 0).all(), f"{int((worst <= 0).sum())} of {len(worst)} hexes inverted"


@pytest.mark.parametrize("make, tags", [
    (lambda: fixtures.simple_cubic(3), {"inlet", "outlet", "wall"}),
    (lambda: fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5),
     {"inlet", "outlet", "wall"}),
    (lambda: fixtures.random_annulus_bed(100), {"inlet", "outlet", "wall", "inner_wall"}),
    (fitted_annulus_bed, {"inlet", "outlet", "wall", "inner_wall"}),
    (cylinder_mesh_bed, {"inlet", "outlet", "wall"}),
], ids=["cube", "cylinder", "annulus", "annulus_fitted", "cylinder_mesh"])
def test_surface_tag_matches_ghost_provenance(make, tags):
    """A boundary facet whose ghost reflects the facet's own site lies on
    the ghost's wall: its plane point within 1e-9 R of the analytic wall,
    its normal the wall's sign times the wall normal there. Its surface is
    that wall, tagged as the reference tags the ghost's wall. Every other
    boundary facet gets its wall's 'facing' surface, tagged wall, and an
    inner facet gets none."""
    bed = make()
    R, dom = bed.radius_nominal, bed.domain
    cs = build_cells(bed, generate_ghosts(bed))
    surfaces, facet_surface = boundary_surfaces(cs)
    assert (facet_surface[cs.site_b < cs.n_real] == -1).all()
    fids = np.flatnonzero(cs.site_b >= cs.n_real)
    g = cs.site_b[fids] - cs.n_real
    on = cs.ghost_parent[g] == cs.site_a[fids]
    assert (facet_surface[fids] >= 0).all() and on.any()
    for f, w, is_on in zip(fids, [dom.walls[k] for k in cs.ghost_wall[g]], on):
        desc = surfaces[facet_surface[f]]
        if not is_on:
            assert desc == ("facing", w) and surface_tag(desc) == "wall"
            continue
        p = cs.plane_point[f]
        if w.axis == RADIAL:
            rel = p[:2] - dom.center_xy
            normal = np.append(rel / np.hypot(*rel), 0.0)
        else:
            normal = np.eye(3)[w.axis]
        assert abs(dom.wall_distance(w, p[None])[0]) <= 1e-9 * R
        assert cs.plane_normal[f] == pytest.approx(w.sign * normal, abs=1e-12)
        assert desc == w and surface_tag(desc) == ghost_tag(cs, cs.site_b[f])
    assert {surface_tag(surfaces[s]) for s in facet_surface[fids[on]]} == tags


def test_fit_annulus_inner_wall():
    """The annulus fitted to the annulus bed keeps a full R of wall
    clearance, its ghosts reflect across the inner wall, and the facet
    between a center and its own inner-wall ghost lies on the inner
    cylinder: its surface is the inner Wall, tagged inner_wall."""
    bed = fitted_annulus_bed()
    dom, R = bed.domain, bed.radius_nominal
    inner_wall = dom.walls.index(Wall(RADIAL, dom.R_i, -1))
    assert dom.wall_distance(dom.walls[inner_wall], bed.centers).min() == pytest.approx(R)
    cs = build_cells(bed, generate_ghosts(bed))
    surfaces, facet_surface = boundary_surfaces(cs)
    fids = np.flatnonzero(cs.site_b >= cs.n_real)
    g = cs.site_b[fids] - cs.n_real
    inner = fids[(cs.ghost_parent[g] == cs.site_a[fids]) & (cs.ghost_wall[g] == inner_wall)]
    assert inner.size
    rho = np.hypot(*(cs.plane_point[inner, :2] - dom.center_xy).T)
    assert rho == pytest.approx(dom.R_i, abs=1e-9 * R)
    for f in inner:
        assert surfaces[facet_surface[f]] == Wall(RADIAL, dom.R_i, -1)
        assert surface_tag(surfaces[facet_surface[f]]) == "inner_wall"


class TestSweep:
    def test_cube_cell_24_hexes(self, cube_swept):
        bed, cs, mesh = cube_swept
        counts = np.bincount(mesh.elem_cell, minlength=27)
        assert counts[13] == 24  # interior cell: 6 facets x 4 quads

    def test_inner_corners_on_sweep_sphere(self, cube_swept):
        bed, cs, mesh = cube_swept
        for i, cols in enumerate(mesh.columns):
            for t, roles in cols.items():
                d = np.linalg.norm(mesh.nodes[roles["p"]] - bed.centers[i])
                assert d == pytest.approx(0.8889, abs=1e-12)

    def test_congruent_elements_on_interior_cell(self, cube_swept):
        bed, cs, mesh = cube_swept
        eids = np.flatnonzero(mesh.elem_cell == 13)
        shapes = set()
        for eid in eids:
            el = mesh.elements[eid]
            edges = []
            for a, b in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                         (0, 4), (1, 5), (2, 6), (3, 7)]:
                edges.append(round(float(np.linalg.norm(mesh.nodes[el[a]] - mesh.nodes[el[b]])), 9))
            shapes.add(tuple(sorted(edges)))
        assert len(shapes) == 1

    def test_all_jacobians_positive(self, cube_swept):
        _, _, mesh = cube_swept
        assert (np.linalg.det(corner_jacobians(mesh.nodes, mesh.elements)) > 0).all()

    @pytest.mark.parametrize("R0", [0.0, -0.5, 1.0])
    def test_R0_outside_unit_interval_rejected(self, cube_swept, R0):
        """R0 = 0 collapses every inner corner onto the center and R0 < 0
        puts it on the far side, which gave inverted hexes, not an error.
        R0 is a fraction of R, checked like refine_radial's split."""
        _, cs, _ = cube_swept
        with pytest.raises(ValidationError, match=r"R0 must lie in \(0, 1\)"):
            sweep(tessellate_cells(cs), R0)

    def test_conformal(self, random_swept):
        _, _, mesh = random_swept
        stats = audit_conformal(mesh)
        assert stats["boundary_faces"] > 0
        assert stats["interior_faces"] > 0

    def test_boundary_tag_partition(self, random_swept):
        _, _, mesh = random_swept
        tags = set(mesh.face_tags.values())
        assert any(t.startswith("sphere:") for t in tags)
        assert "wall" in tags
        assert "inlet" in tags and "outlet" in tags


class TestRefine:
    def test_doubles_elements(self, cube_swept):
        _, _, mesh = cube_swept
        ref = refine_radial(mesh, 0.55)
        assert len(ref.elements) == 2 * len(mesh.elements)

    def test_split_thickness(self, cube_swept):
        _, _, mesh = cube_swept
        ref = refine_radial(mesh, 0.55)
        # facet-side child thickness / total = 0.55 along each sweep edge
        for i, cols in enumerate(ref.columns):
            for t, roles in cols.items():
                p = ref.nodes[roles["p"]]
                q = ref.nodes[roles["q"]]
                m = ref.nodes[roles["m"]]
                total = np.linalg.norm(p - q)
                near_facet = np.linalg.norm(m - q)
                assert near_facet / total == pytest.approx(0.55, abs=1e-12)

    def test_no_sphere_face_rejected(self):
        # a prism with every face on a plane has no sphere face to grow the
        # sphere-side child from, so it would not double
        prism = HexMesh(
            nodes=UNIT_CUBE.copy(),
            elements=np.arange(8, dtype=np.int64)[None, :],
            faces=np.arange(6), face_surface=np.zeros(6, dtype=np.int64), surfaces=[PLANE],
            elem_cell=np.zeros(1, dtype=np.int64), elem_layer=np.array(["0"]),
            sphere_centers=np.zeros((1, 3)), radius=1.0,
        )
        with pytest.raises(ValidationError, match=r"^need one sphere face per layer-0 element, "
                                                  r"got 0 for 1$"):
            refine_radial(prism, 0.5)

    def test_double_refine_rejected(self, cube_swept):
        _, _, mesh = cube_swept
        ref = refine_radial(mesh)
        with pytest.raises(ValidationError, match="already refined"):
            refine_radial(ref)

    def test_source_mesh_columns_untouched(self):
        _, _, mesh = cube_mesh_raw()
        extrude_layers(refine_radial(mesh))
        assert all(set(roles) == {"q", "p"} for c in mesh.columns for roles in c.values())

    def test_conformal_after_refine(self, random_swept):
        _, _, mesh = random_swept
        audit_conformal(refine_radial(mesh))


class TestExtrusionSpec:
    @pytest.mark.parametrize("field, value", [("t_bl", 0.0), ("t_bl", -0.25), ("t_bl", np.nan),
                                              ("inlet_layers", -2), ("outlet_layers", -1),
                                              ("inlet_layers", 2.5)])
    def test_bad_value_raises(self, field, value):
        # t_bl <= 0 turns the whole 'bl' layer inside out; a negative layer
        # count would build no duct, and a fractional one fails in numpy
        with pytest.raises(ValidationError, match=field):
            ExtrusionSpec(**{field: value})

    def test_no_duct_layers_allowed(self):
        spec = ExtrusionSpec(inlet_layers=0, outlet_layers=0)
        assert (spec.inlet_layers, spec.outlet_layers) == (0, 0)

    def test_frozen(self):
        # validated once, in __post_init__, so no later assignment may undo it
        spec = ExtrusionSpec()
        with pytest.raises(FrozenInstanceError):
            spec.t_bl = -1.0


def lattice_extruded(spacing, spec=None):
    bed = fixtures.simple_cubic(3, spacing=spacing)
    cs = repair(build_cells(bed, generate_ghosts(bed)))
    return extrude_layers(refine_radial(sweep(tessellate_cells(cs))), spec)


class TestExtrusionScale:
    """The sphere layer's floor, 0.5 R, is in units of R."""

    def test_dense_lattice_meshes(self):
        # at spacing 1.0, R = 0.5, the layer reaches 0.81 R = 0.404
        assert len(lattice_extruded(1.0).elements) == 23040

    def test_message_in_units_of_r(self):
        messages = []
        for spacing in (1.0, 2.0):
            with pytest.raises(GeometryError, match="boundary-layer extrusion reaches") as exc:
                lattice_extruded(spacing, ExtrusionSpec(t_bl=1.5))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


@pytest.fixture(scope="module")
def extruded(random_swept):
    _, _, mesh = random_swept
    ref = refine_radial(mesh)
    ext = extrude_layers(ref, ExtrusionSpec())
    return mesh, ref, ext


class TestExtrude:

    def test_sphere_layer_files_exact_ratio(self, extruded):
        base, ref, ext = extruded
        n_bl = sum(1 for l in ext.elem_layer if l == "bl")
        # one boundary-layer element per base sweep element: 1.5x growth
        assert n_bl == len(base.elements)
        bed_like = [l for l in ext.elem_layer if l in ("0", "1", "bl")]
        assert len(bed_like) == 3 * len(base.elements)

    def test_three_layers_facet_to_sphere(self, extruded):
        _, _, ext = extruded
        for i, cols in enumerate(ext.columns):
            for t, roles in cols.items():
                assert {"q", "m", "p", "b"} <= set(roles)
                # radial ordering: b inside p inside m inside q
                c = ext.sphere_centers[i]
                rb = np.linalg.norm(ext.nodes[roles["b"]] - c)
                rp = np.linalg.norm(ext.nodes[roles["p"]] - c)
                rm = np.linalg.norm(ext.nodes[roles["m"]] - c)
                assert rb < rp < rm

    def test_bl_thickness_fraction(self, extruded):
        _, _, ext = extruded
        for i, cols in enumerate(ext.columns):
            for t, roles in cols.items():
                c = ext.sphere_centers[i]
                rb = np.linalg.norm(ext.nodes[roles["b"]] - c)
                rp = np.linalg.norm(ext.nodes[roles["p"]] - c)
                thick = np.linalg.norm(ext.nodes[roles["p"]] - ext.nodes[roles["m"]])
                assert rp - rb == pytest.approx(0.25 * thick, rel=1e-9)

    def test_duct_layer_counts(self, extruded):
        _, _, ext = extruded
        for k in range(1, 4):
            assert any(l == f"inlet{k}" for l in ext.elem_layer)
        assert not any(l == "inlet4" for l in ext.elem_layer)
        for k in range(1, 8):
            assert any(l == f"outlet{k}" for l in ext.elem_layer)
        assert not any(l == "outlet8" for l in ext.elem_layer)

    def test_duct_columns_uniform(self, extruded):
        _, _, ext = extruded
        # inlet floor is a constant-z plane below zero
        floors = [ext.surfaces[s] for s in ext.face_surface.tolist()
                  if surface_tag(ext.surfaces[s]) == "inlet"]
        assert all(isinstance(d, Wall) and d.axis == 2 for d in floors)
        zs = {round(d.value, 12) for d in floors}
        assert len(zs) == 1
        assert next(iter(zs)) < 0

    def test_conformal_after_extrude(self, extruded):
        _, _, ext = extruded
        stats = audit_conformal(ext)
        assert stats["boundary_faces"] > 0

    def test_duct_tops_share_one_surface(self, extruded):
        _, _, ext = extruded
        tags = np.array([surface_tag(d) for d in ext.surfaces])[ext.face_surface]
        for tag in ("inlet", "outlet"):
            assert len(np.unique(ext.face_surface[tags == tag])) == 1

    def test_one_descriptor_per_surface(self, random_swept, extruded):
        """A mesh lists each sphere once, each wall twice (for the facets on
        it and for those that only face it) and the two moved duct walls,
        however many faces lie on them."""
        bed, _, _ = random_swept
        bound = bed.n_spheres + 2 * len(bed.domain.walls) + 2
        for mesh in extruded:
            assert len(mesh.surfaces) <= bound < len(mesh.faces)

    def test_layer_checks(self, extruded):
        base, ref, ext = extruded
        for mesh in (ref, ext):
            with pytest.raises(ValidationError, match="^refine_radial supports exactly one "
                                                      "split; mesh already refined$"):
                refine_radial(mesh)
        with pytest.raises(ValidationError,
                           match="^extrude_layers expects a radially refined mesh$"):
            extrude_layers(base)

    def test_wall_layer_present(self, extruded):
        _, _, ext = extruded
        assert any(l == "wall" for l in ext.elem_layer)

    def test_hand_built_shell(self):
        # one cell swept by hand: six hexes from a cube about the sphere
        # center (face 0, on the sphere) out to a cube twice its size; the
        # sphere layer reads its lines off the elements alone
        corners = 2.0 * UNIT_CUBE - 1.0
        mesh = hand_mesh(np.vstack([0.5 * corners, corners]), np.hstack([_FACES, _FACES + 8]))
        mesh.surfaces = [("sphere", 0), PLANE]
        mesh.face_surface = (mesh.faces % 6 != 0).astype(np.int64)
        ext = extrude_layers(refine_radial(mesh))
        assert ext.elem_layer.tolist() == ["0"] * 6 + ["1"] * 6 + ["bl"] * 6
        (cols,) = ext.columns
        assert sorted(cols) == list(range(8, 16))
        for q, roles in cols.items():
            assert set(roles) == {"q", "m", "p", "b"} and roles["q"] == q
            r = {k: np.linalg.norm(ext.nodes[v]) for k, v in roles.items()}
            assert r["b"] < r["p"] < r["m"] < r["q"]
            thick = np.linalg.norm(ext.nodes[roles["p"]] - ext.nodes[roles["m"]])
            assert r["p"] - r["b"] == pytest.approx(0.25 * thick, rel=1e-12)

    def test_box_domain_skips_wall_layer(self, cube_swept):
        _, _, mesh = cube_swept
        ext = extrude_layers(refine_radial(mesh))
        assert not any(l == "wall" for l in ext.elem_layer)
        audit_conformal(ext)

    def test_clean_base_gives_positive_extrusion(self, cube_swept):
        # on the regular lattice (no tangles to inherit) every element of
        # every extruded layer is valid even before smoothing
        _, _, mesh = cube_swept
        ext = extrude_layers(refine_radial(mesh))
        dets = np.linalg.det(corner_jacobians(ext.nodes, ext.elements))
        assert (dets > 0).all()


class TestGrowLayers:
    def test_exposed_side_without_donor(self):
        """A growing face whose edges border no other tagged face leaves
        its exposed sides without a surface to copy."""
        mesh = hand_mesh(UNIT_CUBE, [LOWER])
        top = face_rows(mesh.elements, [4, 5, 6, 7])
        mesh.faces, mesh.face_surface = top, np.zeros(1, dtype=np.int64)
        loops = _loops(mesh.elements, top)
        with pytest.raises(TopologyError,
                           match=r"exposed wall side at edge \(4, 5\) has no donor tag"):
            _grow_layers(mesh, np.array([0]), loops, np.arange(4)[None],
                         (UNIT_CUBE[4:] + [0, 0, 1])[:, None], ["wall"], [0])


def reference_sides(mesh, at, loops, first, labels):
    """The former `_sides`: each side's edge is searched among the edges of
    every other tagged face, in a stable argsort; kept as the reference."""
    n, nlayers = len(mesh.nodes), len(labels)

    def edges(lp):
        b = np.roll(lp, -1, axis=1)
        return np.minimum(lp, b) * n + np.maximum(lp, b)

    others = np.ones(len(mesh.faces), dtype=bool)
    others[at] = False
    others = np.flatnonzero(others)
    mine = edges(loops)
    _, inv, count = np.unique(mine, return_inverse=True, return_counts=True)
    exposed = count[inv].reshape(mine.shape) != 2
    theirs = edges(_loops(mesh.elements, mesh.faces[others]))
    by = np.argsort(theirs.ravel(), kind="stable")
    srt = theirs.ravel()[by]
    pos = np.searchsorted(srt, mine)
    found = np.zeros(mine.shape, dtype=bool)
    valid = pos < len(srt)
    found[valid] = srt[pos[valid]] == mine[valid]
    missing = np.argwhere(exposed & ~found)
    if len(missing):
        e = int(mine[tuple(missing[0])])
        raise TopologyError(f"exposed {labels[0]} side at edge {(e // n, e % n)} has no donor tag")
    donor = np.full(mine.shape, -1)
    donor[exposed] = mesh.face_surface[others[by[pos[exposed]] // 4]]
    e = first + np.arange(len(at))[:, None] * nlayers + np.arange(nlayers)
    return (6 * e[:, :, None] + 2 + np.arange(4)).reshape(len(at), -1), np.tile(donor, nlayers)


def sides_outcome(sides, mesh, args):
    """The arrays `sides` returns, as dtypes and lists, or the message of
    the TopologyError it raised."""
    try:
        return [(a.dtype.str, a.tolist()) for a in sides(mesh, *args)]
    except TopologyError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def side_calls(cube_swept, random_swept):
    """The arguments of every `_sides` call of the cube's and the cylinder
    fixture's extrusions."""
    found, real = [], hexgen._sides

    def record(mesh, *args):
        found.append((copy.deepcopy(mesh), args))
        return real(mesh, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hexgen, "_sides", record)
        extrude_layers(refine_radial(cube_swept[2]))
        extrude_layers(refine_radial(random_swept[2]))
    return found


class TestSides:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(0, 4), st.integers(0, 2**31), st.sampled_from([0.0, 0.02, 0.3]),
           st.sampled_from([0.0, 0.002]))
    def test_matches_reference(self, side_calls, call, seed, dup, drop):
        """The sides and donors equal the former stable-argsort lookup's, or
        both raise the same error, on a growth's tag table shuffled, with
        random surfaces, some rows tagged twice (an edge with several
        donors takes the first in table order) and some dropped (a side
        with none raises)."""
        assert len(side_calls) == 5
        mesh, (at, loops, first, labels) = side_calls[call]
        rng = np.random.default_rng(seed)
        mesh = copy.copy(mesh)
        mine = np.zeros(len(mesh.faces), dtype=bool)
        mine[at] = True
        keep = np.flatnonzero(mine | (rng.random(len(mine)) >= drop))
        extra = np.flatnonzero(~mine & (rng.random(len(mine)) < dup))
        rows = np.concatenate([keep, extra])[rng.permutation(len(keep) + len(extra))]
        mesh.faces = mesh.faces[rows]
        mesh.face_surface = rng.integers(0, 6, len(rows))
        where = np.full(len(mine), -1)
        where[rows[mine[rows]]] = np.flatnonzero(mine[rows])
        args = (where[at], loops, first, labels)
        assert sides_outcome(_sides, mesh, args) == sides_outcome(reference_sides, mesh, args)


@pytest.fixture(scope="module")
def growths(cube_swept, random_swept):
    """{last layer label: (grown mesh, growth audit arguments)} of each
    growth of the cube extrusion, refine's layer '1', 'bl', inlet and
    outlet, and of the cylinder fixture's wall layer, as the growth audit
    receives them."""
    found, real = {}, hexgen._audit_growth

    def record(mesh, *args):
        found.setdefault(str(mesh.elem_layer[-1]), (copy.deepcopy(mesh), args))
        real(mesh, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hexgen, "_audit_growth", record)
        extrude_layers(refine_radial(cube_swept[2]))
        cube = dict(found)
        extrude_layers(refine_radial(random_swept[2]))
    return {**cube, "wall": found["wall"]}


GROWTHS = ["1", "bl", "inlet3", "outlet7", "wall"]


class TestGrowthAudit:
    """The audit `_grow_layers` runs on its own growth raises whenever
    `audit_conformal` raises on the grown mesh."""

    def test_every_growth_passes(self, growths):
        assert sorted(growths) == sorted(GROWTHS)
        for mesh, args in growths.values():
            assert _audit_growth(mesh, *args) is None
            audit_conformal(mesh)

    def test_new_face_of_old_nodes(self):
        """A new hex over the top of the lower of two stacked hexes
        duplicates the upper one: every face it adds of old nodes is the
        top of the lower hex, which no tag row it replaced names."""
        mesh = hand_mesh(STACK[:12], [LOWER, UPPER])
        first, kept = len(mesh.elements), len(mesh.faces)
        mesh.elements = np.vstack([mesh.elements, UPPER])
        with pytest.raises(TopologyError, match=r"^new face \(4, 5, 6, 7\) of old nodes is not "
                                                r"a face the growth replaced$"):
            _audit_growth(mesh, len(mesh.nodes), first, np.array([], dtype=np.int64), kept)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(GROWTHS),
           st.sampled_from(["swap", "mirror", "duplicate", "drop_tag", "add_tag", "orphan"]),
           st.integers(0, 2**31), st.integers(0, 7), st.integers(1, 7))
    def test_corrupted_growth(self, growths, layer, how, pick, corner, offset):
        grown, args = growths[layer]
        _, first, _, kept = args
        mesh = copy.deepcopy(grown)
        e = first + pick % (len(mesh.elements) - first)
        if how == "swap":
            other = (corner + offset) % 8
            mesh.elements[e, [corner, other]] = mesh.elements[e, [other, corner]]
        elif how == "mirror":
            mesh.elements[e] = mesh.elements[e, MIRROR]
        elif how == "duplicate":
            mesh.elements = np.vstack([mesh.elements, mesh.elements[e]])
        elif how == "drop_tag":
            k = kept + pick % (len(mesh.faces) - kept)
            mesh.faces = np.delete(mesh.faces, k)
            mesh.face_surface = np.delete(mesh.face_surface, k)
        elif how == "add_tag":
            tag_row(mesh, 6 * first + pick % (6 * (len(mesh.elements) - first)))
        else:
            mesh.nodes = np.vstack([mesh.nodes, mesh.nodes[:1]])
        full = verdict(audit_conformal, mesh)
        growth = verdict(lambda m: _audit_growth(m, *args), mesh)
        if isinstance(full, str):
            assert isinstance(growth, str)


def _canon(x):
    """Numbers as floats rounded to 1e-12, so int/float and numpy/Python
    scalar types do not change the digest; strings and tuples as they are."""
    if isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return round(float(x), 12) + 0.0


def mesh_digest(mesh) -> str:
    """sha256 of everything a downstream reader sees in a final mesh.

    Each cell's sweep lines are hashed as their sets of (role, node) pairs:
    the key of a column is the tessellation's node numbering, not part of
    the mesh."""
    h = hashlib.sha256()
    h.update((np.round(mesh.nodes, 12) + 0.0).astype("<f8").tobytes())
    h.update(np.asarray(mesh.elements, dtype="<i8").tobytes())
    h.update(np.asarray(mesh.elem_cell, dtype="<i8").tobytes())
    h.update(repr([str(l) for l in mesh.elem_layer]).encode())
    loops = _loops(mesh.elements, mesh.faces).tolist()
    descs = [mesh.surfaces[s] for s in mesh.face_surface.tolist()]
    rows = sorted((_canon(sorted(loop)), surface_tag(d), _canon(d), _canon(loop))
                  for loop, d in zip(loops, descs))
    h.update(repr(rows).encode())
    cols = [sorted(sorted((r, int(n)) for r, n in roles.items()) for roles in c.values())
            for c in mesh.columns]
    h.update(repr(cols).encode())
    return h.hexdigest()


def canonical_digest(mesh) -> str:
    """sha256 of a final mesh up to its node and element numbering.

    Nodes are hashed as their sorted coordinates, rounded to 1e-12. An
    element is its layer, its cell and its corner coordinates, with base
    and top rotated together so that the base starts at its least corner;
    a tagged face is its sorted corner coordinates with its surface; a
    sweep line is its sorted (role, coordinate) pairs. Each kind is hashed
    as a sorted list, so renumbering nodes or elements keeps the digest."""
    x = np.round(mesh.nodes, 12) + 0.0
    h = hashlib.sha256()
    h.update(x[np.lexsort(x.T[::-1])].astype("<f8").tobytes())
    xyz = x.tolist()
    elements = []
    for layer, cell, el in zip(mesh.elem_layer.tolist(), mesh.elem_cell.tolist(),
                               mesh.elements.tolist()):
        c = [xyz[n] for n in el]
        s = min(range(4), key=lambda s: c[s:4] + c[:s])
        elements.append((layer, cell, c[s:4] + c[:s] + c[4 + s:] + c[4:4 + s]))
    h.update(repr(sorted(elements)).encode())
    loops = _loops(mesh.elements, mesh.faces).tolist()
    descs = [mesh.surfaces[s] for s in mesh.face_surface.tolist()]
    h.update(repr(sorted((sorted(xyz[n] for n in loop), surface_tag(d), _canon(d))
                         for loop, d in zip(loops, descs))).encode())
    cols = [sorted(sorted((r, xyz[n]) for r, n in roles.items()) for roles in c.values())
            for c in mesh.columns]
    h.update(repr(cols).encode())
    return h.hexdigest()


# Digests of the final meshes (sweep, refine_radial, extrude_layers) of the
# two fixtures, node and element numbering included: each growth's faces in
# table order, new nodes numbered by the ids they grow from, on a
# tessellation that numbers its new nodes by key. A change to hexgen or
# tessellate that keeps behaviour and numbering keeps these.
GOLDEN = {
    "cube_raw": "7875ea70070001795b8df8ca95fbdd866b7446c39b0c53f5fb2045d179db9bf4",
    "cylinder_repaired": "2c833a11eeacd7d53e8f5bad79316340d2f1e98337bb8e05114a9492bd77c263",
}


class TestGoldenDigest:
    def test_cube_raw(self, cube_swept):
        _, _, mesh = cube_swept
        assert mesh_digest(extrude_layers(refine_radial(mesh))) == GOLDEN["cube_raw"]

    def test_cylinder_repaired(self, extruded):
        _, _, ext = extruded
        assert mesh_digest(ext) == GOLDEN["cylinder_repaired"]


def renumbered(mesh, seed=0):
    """The mesh with its nodes and elements shuffled and every element's
    corners rotated one step, base and top together: the same mesh under
    another numbering."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(len(mesh.nodes))
    order = rng.permutation(len(mesh.elements))
    new_pos = np.argsort(order)
    nodes = np.empty_like(mesh.nodes)
    nodes[new_id] = mesh.nodes
    e, f = np.divmod(mesh.faces, 6)
    # after the rotation old side 2 + s runs from new corner s - 1 to s
    f = np.where(f < 2, f, 2 + (f - 3) % 4)
    return replace(
        mesh, nodes=nodes, elements=new_id[mesh.elements[order]][:, [1, 2, 3, 0, 5, 6, 7, 4]],
        faces=6 * new_pos[e] + f, elem_cell=mesh.elem_cell[order],
        elem_layer=mesh.elem_layer[order])


# Numbering-free digests of the same final meshes as GOLDEN: they hold
# across a change that renumbers nodes or elements but keeps the mesh.
CANONICAL = {
    "cube_raw": "5fdad3b3d23fd1ae5e891743f719ba0a1f34f876d2298f9c620e29bbf383ae21",
    "cylinder_repaired": "71d4968c85f8df82cd7db649d3c7f93aaeff43874260a1a22a3ab3d1ff3eecb2",
}


class TestCanonicalDigest:
    def test_numbering_free(self, cube_extruded):
        other = renumbered(cube_extruded)
        audit_conformal(other)
        assert mesh_digest(other) != mesh_digest(cube_extruded)
        assert canonical_digest(other) == canonical_digest(cube_extruded)

    def test_cube_raw(self, cube_extruded):
        assert canonical_digest(cube_extruded) == CANONICAL["cube_raw"]

    def test_cylinder_repaired(self, extruded):
        _, _, ext = extruded
        assert canonical_digest(ext) == CANONICAL["cylinder_repaired"]
