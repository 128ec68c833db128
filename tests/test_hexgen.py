import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_repair import ghost_tag

from voidhex import fixtures
from voidhex.bed import attach_domain, fit_annulus
from voidhex.errors import TopologyError, ValidationError
from voidhex.hexgen import (
    _FACES,
    ExtrusionSpec,
    HexMesh,
    _loops,
    audit_conformal,
    classify_boundary_facet,
    corner_dets,
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
        assert np.allclose(corner_dets(UNIT_CUBE, np.arange(8)[None, :]), 0.125)

    def test_reflected_cube_negative(self):
        refl = UNIT_CUBE.copy()
        refl[:, 0] *= -1
        dets = corner_dets(refl, np.arange(8)[None, :])
        assert (dets < 0).all()


PLANE = ("facet_plane", 0, 0, 0, 0, 0, 1)  # a descriptor tagged wall


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
        sphere_centers=np.zeros((1, 3)),
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
        tag_row(mesh, face_rows(mesh.elements, (4, 5, 6, 7))[0], ("plane", 2, 1.0, 1))
        with pytest.raises(TopologyError, match=r"face \(4, 5, 6, 7\) tagged 2 times"):
            audit_conformal(mesh)

    def test_orphan_node(self):
        mesh = hand_mesh(STACK[:9], [LOWER])
        with pytest.raises(TopologyError, match="orphan nodes: 1 unreferenced"):
            audit_conformal(mesh)


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
        mesh = cube_extruded.copy()
        e = pick % mesh.n_elements
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
            tag_row(mesh, pick % (6 * mesh.n_elements))
        else:
            mesh.nodes = np.vstack([mesh.nodes, mesh.nodes[:1]])
        got = verdict(audit_conformal, mesh)
        assert isinstance(got, str)
        assert got == verdict(audit_reference, mesh)


@pytest.mark.parametrize("make", [
    lambda: fixtures.simple_cubic(3),
    lambda: fixtures.random_cylinder_bed(n=30, R_c=3.0, H=9.0, seed=5),
    lambda: fixtures.random_annulus_bed(100),
], ids=["cube", "cylinder", "annulus"])
def test_surface_tag_matches_ghost_provenance(make):
    """Each container plane or cylinder a facet is classified onto names the
    same tag as the ghost that made the facet."""
    bed = make()
    ghosts = generate_ghosts(bed)
    cs = build_cells(bed, ghosts)
    pairs = [(classify_boundary_facet(f.plane_point, f.plane_normal, bed.domain,
                                      bed.radius_nominal), ghost_tag(cs, ghosts, f.site_b))
             for f in cs.facets if f.site_b >= cs.n_real]
    on_surface = [(d, b) for d, b in pairs if d[0] in ("plane", "cylinder")]
    assert on_surface
    assert [surface_tag(d) for d, _ in on_surface] == [b for _, b in on_surface]


def test_fit_annulus_inner_wall():
    """The annulus fitted to the annulus bed keeps a full R of wall
    clearance, its ghosts reflect across the inner wall, and the facet
    between a center and its own inner-wall ghost lies on the inner
    cylinder, tagged inner_wall."""
    bed = fixtures.random_annulus_bed()
    dom = fit_annulus(bed)
    bed = attach_domain(bed, dom, fitted=True)
    ghosts = generate_ghosts(bed)
    cs = build_cells(bed, ghosts)
    inner = [f for f in cs.facets if f.site_b >= cs.n_real
             and ghosts.provenance[f.site_b - cs.n_real] == (f.site_a, "radial_inner")]
    assert inner
    for f in inner:
        desc = classify_boundary_facet(f.plane_point, f.plane_normal, dom, bed.radius_nominal)
        assert desc == ("cylinder", *dom.center_xy, dom.R_i, -1)
        assert surface_tag(desc) == "inner_wall"


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
        assert (corner_dets(mesh.nodes, mesh.elements) > 0).all()

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
        assert ref.n_elements == 2 * mesh.n_elements

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

    def test_symmetric_split_congruent_children(self):
        # a prismatic element split at 0.5 yields two congruent children
        prism = HexMesh(
            nodes=UNIT_CUBE.copy(),
            elements=np.arange(8, dtype=np.int64)[None, :],
            faces=np.arange(6), face_surface=np.zeros(6, dtype=np.int64), surfaces=[PLANE],
            elem_cell=np.zeros(1, dtype=np.int64), elem_layer=np.array(["0"]),
            sphere_centers=np.zeros((1, 3)),
        )
        ref = refine_radial(prism, 0.5)
        d = corner_dets(ref.nodes, ref.elements)
        assert np.allclose(d[0], d[1])
        assert np.allclose(d[0], 0.125 / 2)

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
        assert n_bl == base.n_elements
        bed_like = [l for l in ext.elem_layer if l in ("0", "1", "bl")]
        assert len(bed_like) == 3 * base.n_elements

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
        assert all(d[0] == "plane" and d[1] == 2 for d in floors)
        zs = {round(d[2], 12) for d in floors}
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
        """A mesh lists each sphere and each boundary facet once, and the two
        moved duct planes, however many faces lie on them."""
        bed, cs, _ = random_swept
        facets = sum(1 for f in cs.facets if f.site_b >= cs.n_real and not f.deleted)
        for mesh in extruded:
            assert len(mesh.surfaces) <= bed.n_spheres + facets + 2 < len(mesh.faces)

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
        mesh.surfaces = [PLANE, ("sphere", 0)]
        mesh.face_surface = (mesh.faces % 6 == 0).astype(np.int64)
        ext = extrude_layers(refine_radial(mesh))
        assert ext.elem_layer.tolist() == ["0", "1"] * 6 + ["bl"] * 6
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
        dets = corner_dets(ext.nodes, ext.elements)
        assert (dets > 0).all()


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


# Digests of the final meshes (sweep, refine_radial, extrude_layers) of the
# two fixtures. A change to hexgen that keeps behaviour keeps these.
GOLDEN = {
    "cube_raw": "d99059bb6ae622e718ed73a65618044e23fb301f4998265fdf9e2097dc2ed3c0",
    "cylinder_repaired": "d5da41cd4719ef945ee8cf54f7d9e5ad4a8076ac24b71237cd3328a3d8e44c6d",
}


class TestGoldenDigest:
    def test_cube_raw(self, cube_swept):
        _, _, mesh = cube_swept
        assert mesh_digest(extrude_layers(refine_radial(mesh))) == GOLDEN["cube_raw"]

    def test_cylinder_repaired(self, extruded):
        _, _, ext = extruded
        assert mesh_digest(ext) == GOLDEN["cylinder_repaired"]
