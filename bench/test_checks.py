"""Tests of the benchmark's checker on small hand-made meshes and cells.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

from types import SimpleNamespace

import numpy as np
import pytest

from checks import (
    HEX_FACES,
    CheckError,
    check_hex_mesh,
    check_layers,
    check_repaired_cells,
    check_sweep_radius,
    min_scaled_jacobian,
)

CUBE = np.array([
    (0.0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
])


def tags_of(elements, skip=()):
    """Tag every one-owner face, computed the slow way, except those in skip."""
    seen = {}
    for el in elements:
        for lf in HEX_FACES:
            key = tuple(sorted(int(el[k]) for k in lf))
            seen[key] = seen.get(key, 0) + 1
    return {k: "wall" for k, c in seen.items() if c == 1 and k not in skip}


def two_hexes():
    """Two unit cubes stacked in z; they share the face 4-5-6-7."""
    nodes = np.vstack([CUBE, CUBE[4:] + (0, 0, 1)])
    elements = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 8, 9, 10, 11]])
    return nodes, elements


class TestHexMesh:
    def test_valid_pair(self):
        nodes, elements = two_hexes()
        stats = check_hex_mesh(nodes, elements, tags_of(elements))
        assert stats == {"boundary_faces": 10, "interior_faces": 1}

    def test_flipped_face(self):
        nodes, elements = two_hexes()
        # the upper hex listed top-first: inside out, so the shared face
        # runs the same way in both owners
        flipped = np.array([elements[0], [8, 9, 10, 11, 4, 5, 6, 7]])
        with pytest.raises(CheckError, match="same orientation"):
            check_hex_mesh(nodes, flipped, tags_of(flipped))

    def test_untagged_boundary_face(self):
        nodes, elements = two_hexes()
        tags = tags_of(elements, skip={(0, 1, 2, 3)})
        with pytest.raises(CheckError, match="carries no tag"):
            check_hex_mesh(nodes, elements, tags)

    def test_tagged_interior_face(self):
        nodes, elements = two_hexes()
        tags = tags_of(elements)
        tags[(4, 5, 6, 7)] = "wall"
        with pytest.raises(CheckError, match="not a boundary face"):
            check_hex_mesh(nodes, elements, tags)

    def test_face_with_three_owners(self):
        nodes, elements = two_hexes()
        nodes = np.vstack([nodes, CUBE[4:] + (0, 0, -2)])
        third = np.array([[12, 13, 14, 15, 4, 5, 6, 7]])
        elements = np.vstack([elements, third])
        with pytest.raises(CheckError, match="3 owners"):
            check_hex_mesh(nodes, elements, tags_of(elements))

    def test_orphan_node(self):
        nodes, elements = two_hexes()
        nodes = np.vstack([nodes, [(5.0, 5.0, 5.0)]])
        with pytest.raises(CheckError, match="referenced by no hex"):
            check_hex_mesh(nodes, elements, tags_of(elements))


class TestScaledJacobian:
    def test_unit_cube_is_one(self):
        assert min_scaled_jacobian(CUBE, np.arange(8)[None, :]) == pytest.approx([1.0])

    def test_mirrored_cube_is_inverted(self):
        mirrored = CUBE * (-1.0, 1.0, 1.0)
        assert min_scaled_jacobian(mirrored, np.arange(8)[None, :])[0] == pytest.approx(-1.0)

    def test_sheared_cube(self):
        sheared = CUBE.copy()
        sheared[4:, 0] += 1.0  # top face slid by one edge length: 45 degrees
        sj = min_scaled_jacobian(sheared, np.arange(8)[None, :])[0]
        assert sj == pytest.approx(np.sqrt(0.5))


def test_layers():
    check_layers([0, 1, "bl", "wall", 0, 1, "bl", "inlet1"])
    with pytest.raises(CheckError, match="layer counts"):
        check_layers([0, 1, "bl", 0, 1])


def test_sweep_radius():
    nodes = np.array([(0.0, 0, 0), (0.5, 0, 0), (0, 0.5, 0)])
    columns = [{10: {"p": 1}, 11: {"p": 2}}]
    check_sweep_radius(nodes, np.zeros((1, 3)), columns, 0.5)
    nodes[2, 1] = 0.51
    with pytest.raises(CheckError, match="off the sweep sphere"):
        check_sweep_radius(nodes, np.zeros((1, 3)), columns, 0.5)


def cube_cell(site=(0.5, 0.5, 0.5)):
    """One real cell: the unit cube around ``site``, bounded by ghost facets."""
    facets = [SimpleNamespace(loop=[int(v) for v in lf], site_a=0, site_b=1 + k,
                              deleted=False)
              for k, lf in enumerate(HEX_FACES)]
    return SimpleNamespace(points=CUBE.copy(), facets=facets, n_real=1,
                           bed=SimpleNamespace(centers=np.array([site])))


class TestRepairedCells:
    def test_valid_cell(self):
        stats = check_repaired_cells(cube_cell(), max_edge=1.0, guard_radius=0.8)
        assert stats["cells"] == 1 and stats["facets"] == 6
        assert stats["shortest_edge"] == pytest.approx([1.0])

    def test_long_edge(self):
        with pytest.raises(CheckError, match="exceeds"):
            check_repaired_cells(cube_cell(), max_edge=0.9, guard_radius=0.8)

    def test_vertex_inside_guard(self):
        with pytest.raises(CheckError, match="guard radius"):
            check_repaired_cells(cube_cell(), max_edge=1.0, guard_radius=0.9)

    def test_flipped_facet(self):
        cell = cube_cell()
        cell.facets[2].loop.reverse()
        with pytest.raises(CheckError, match="used 2 times"):
            check_repaired_cells(cell, max_edge=1.0, guard_radius=0.8)

    def test_open_shell(self):
        cell = cube_cell()
        cell.facets[3].deleted = True
        with pytest.raises(CheckError, match="open"):
            check_repaired_cells(cell, max_edge=1.0, guard_radius=0.8)

    def test_site_outside_its_cell(self):
        with pytest.raises(CheckError, match="winds"):
            check_repaired_cells(cube_cell(site=(2.5, 0.5, 0.5)), max_edge=1.0,
                                 guard_radius=0.8)
