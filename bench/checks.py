"""Correctness checks for the benchmark's outputs, computed apart from voidhex.

Each check rebuilds what it needs from the raw arrays with numpy: its own
hex face table, its own edge list and its own winding numbers. None of it
calls back into the program's audit code, and none of it compares against
a stored copy of an earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import numpy as np


class CheckError(Exception):
    """An output of the program violates a property the method must have."""


# Local faces of a hex with the usual corner order (bottom 0-3 counter-
# clockwise seen from above, top 4-7 above them), each listed counter-
# clockwise as seen from outside the element.
HEX_FACES = np.array([
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
])

# For each corner, its three edge neighbours in right-handed order, as in
# the Verdict hex scaled Jacobian (SAND2007-1751).
CORNER_EDGES = np.array([
    (1, 3, 4), (2, 0, 5), (3, 1, 6), (0, 2, 7),
    (7, 5, 0), (4, 6, 1), (5, 7, 2), (6, 4, 3),
])


def min_scaled_jacobian(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Per hex, the minimum over its 8 corners of the scaled Jacobian.

    At each corner the three edge vectors are normalised and their triple
    product taken (Knupp 2001); a unit cube gives 1, an inverted corner
    gives a value <= 0.
    """
    x = nodes[elements]                                   # (E, 8, 3)
    edges = x[:, CORNER_EDGES, :] - x[:, :, None, :]      # (E, 8, 3, 3)
    length = np.linalg.norm(edges, axis=3, keepdims=True)
    edges = edges / np.maximum(length, 1e-300)
    return np.linalg.det(edges).min(axis=1)


def _canonical_rotation(loops: np.ndarray) -> np.ndarray:
    """Rotate each 4-loop so that its smallest node comes first."""
    start = loops.argmin(axis=1)
    idx = (start[:, None] + np.arange(4)) % 4
    return np.take_along_axis(loops, idx, axis=1)


def check_hex_mesh(nodes: np.ndarray, elements: np.ndarray, face_tags) -> dict:
    """Conformity of a hex mesh from a face table of the checker's own.

    Every face has one or two owners; a shared face appears with opposite
    orientation in its two owners; the one-owner faces are exactly the
    keys of ``face_tags`` (sorted node tuples); every node is referenced.
    Returns the face counts.
    """
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != 8:
        raise CheckError(f"elements have shape {elements.shape}, expected (E, 8)")
    if (np.sort(elements, axis=1)[:, 1:] == np.sort(elements, axis=1)[:, :-1]).any():
        raise CheckError("a hex repeats a node")
    loops = elements[:, HEX_FACES].reshape(-1, 4)
    keys = np.sort(loops, axis=1)
    uniq, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    if (counts > 2).any():
        bad = uniq[np.flatnonzero(counts > 2)[0]]
        raise CheckError(f"face {tuple(bad)} has {counts.max()} owners")

    # shared faces: the two loops must run in opposite directions
    order = np.argsort(inverse, kind="stable")
    first = np.searchsorted(inverse[order], np.arange(len(uniq)))
    shared = np.flatnonzero(counts == 2)
    a = _canonical_rotation(loops[order[first[shared]]])
    b = _canonical_rotation(loops[order[first[shared] + 1]])
    opposite = (a[:, 1] == b[:, 3]) & (a[:, 2] == b[:, 2]) & (a[:, 3] == b[:, 1])
    if not opposite.all():
        bad = uniq[shared[np.flatnonzero(~opposite)[0]]]
        raise CheckError(f"shared face {tuple(bad)} has the same orientation in both owners")

    # one-owner faces against the tagged faces
    boundary = uniq[counts == 1]
    tagged = np.array(sorted(tuple(sorted(int(v) for v in k)) for k in face_tags),
                      dtype=np.int64).reshape(-1, 4)
    if len(np.unique(tagged, axis=0)) != len(tagged):
        raise CheckError("a face is tagged twice")
    both = np.concatenate([boundary, tagged])
    _, inv2, cnt2 = np.unique(both, axis=0, return_inverse=True, return_counts=True)
    inv2 = inv2.reshape(-1)
    lonely = cnt2[inv2] == 1
    if lonely[:len(boundary)].any():
        bad = boundary[np.flatnonzero(lonely[:len(boundary)])[0]]
        raise CheckError(f"boundary face {tuple(bad)} carries no tag")
    if lonely[len(boundary):].any():
        bad = tagged[np.flatnonzero(lonely[len(boundary):])[0]]
        raise CheckError(f"tagged face {tuple(bad)} is not a boundary face")

    used = np.zeros(len(nodes), dtype=bool)
    used[elements.reshape(-1)] = True
    if not used.all():
        raise CheckError(f"{int((~used).sum())} nodes are referenced by no hex")
    return {"boundary_faces": int(len(boundary)), "interior_faces": int(len(shared))}


def check_layers(elem_layer) -> None:
    """The radial split and the sphere layer give equal hex counts per layer."""
    layer = [str(v) for v in elem_layer]
    n0, n1, nbl = layer.count("0"), layer.count("1"), layer.count("bl")
    if not (n0 == n1 == nbl and n0 > 0):
        raise CheckError(f"layer counts 0/1/bl are {n0}/{n1}/{nbl}, expected equal")


def check_sweep_radius(nodes: np.ndarray, centers: np.ndarray, columns, radius: float) -> None:
    """Every swept inner node sits at ``radius`` from its cell center."""
    pairs = np.array([(i, roles["p"]) for i, cols in enumerate(columns)
                      for roles in cols.values()], dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        raise CheckError("no swept nodes")
    d = np.linalg.norm(nodes[pairs[:, 1]] - centers[pairs[:, 0]], axis=1)
    worst = float(np.abs(d - radius).max())
    if worst > 1e-9 * radius:
        raise CheckError(f"a swept inner node is {worst:.3g} off the sweep sphere")


def _live_facets(cellset):
    """(loops, owner sites) of every live facet; ghost sites are dropped."""
    loops, owners = [], []
    for f in cellset.facets:
        if f.deleted:
            continue
        loops.append(list(f.loop))
        owners.append((f.site_a, f.site_b if f.site_b < cellset.n_real else -1))
    return loops, owners


def _edges(loops):
    """Directed loop edges (u, v) and the index of the loop each comes from."""
    u = np.concatenate([np.asarray(lp) for lp in loops])
    v = np.concatenate([np.roll(np.asarray(lp), -1) for lp in loops])
    which = np.repeat(np.arange(len(loops)), [len(lp) for lp in loops])
    return u, v, which


def _solid_angles(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angle of triangles (a, b, c) seen from the origin.

    Van Oosterom and Strackee (1983); positive when the triangle runs
    counterclockwise as seen from the origin's far side.
    """
    la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
           + np.einsum("ij,ij->i", a, c) * lb + np.einsum("ij,ij->i", b, c) * la)
    return 2.0 * np.arctan2(num, den)


def check_repaired_cells(cellset, max_edge: float, guard_radius: float) -> dict:
    """Properties the repair must leave behind, on every real cell.

    No live edge is longer than ``max_edge``; every facet vertex is at
    least ``guard_radius`` from each real site whose cell it bounds; each
    cell's outward-oriented facet loops close up (every directed edge once,
    its reverse once); and the closed shell winds exactly once around its
    site. Returns counts of cells, live facets and the per-cell shortest
    edge.
    """
    pts = cellset.points
    sites = cellset.bed.centers
    n = cellset.n_real
    loops, owners = _live_facets(cellset)
    if not loops:
        raise CheckError("no live facets")
    owners = np.array(owners, dtype=np.int64)
    u, v, which = _edges(loops)

    length = np.linalg.norm(pts[u] - pts[v], axis=1)
    if length.max() > max_edge * (1.0 + 1e-9):
        raise CheckError(f"live edge of length {length.max():.6g} exceeds {max_edge:.6g}")

    # guard: every (vertex, real owner) pair
    for side in (0, 1):
        site = owners[which, side]
        keep = site >= 0
        d = np.linalg.norm(pts[u[keep]] - sites[site[keep]], axis=1)
        if len(d) and d.min() < guard_radius * (1.0 - 1e-9):
            raise CheckError(f"a vertex sits {d.min():.6g} from its site, "
                             f"inside the guard radius {guard_radius:.6g}")

    # outward-oriented copies of each loop, per owning cell
    cell_of, cu, cv, tri = [], [], [], []
    for side in (0, 1):
        site = owners[:, side]
        for k in np.flatnonzero(site >= 0):
            lp = loops[k] if side == 0 else loops[k][::-1]
            cell_of.append(np.full(len(lp), site[k]))
            cu.append(np.asarray(lp))
            cv.append(np.roll(np.asarray(lp), -1))
            tri.append(np.column_stack([np.full(len(lp) - 2, site[k]),
                                        np.full(len(lp) - 2, lp[0]),
                                        lp[1:-1], lp[2:]]))
    cell_of = np.concatenate(cell_of)
    cu = np.concatenate(cu)
    cv = np.concatenate(cv)
    present = np.bincount(cell_of, minlength=n)
    if (present == 0).any():
        raise CheckError(f"cell {int(np.flatnonzero(present == 0)[0])} has no live facet")

    fwd = np.column_stack([cell_of, cu, cv])
    rev = np.column_stack([cell_of, cv, cu])
    uf, cf = np.unique(fwd, axis=0, return_counts=True)
    if (cf != 1).any():
        bad = uf[np.flatnonzero(cf != 1)[0]]
        raise CheckError(f"cell {bad[0]}: directed edge {bad[1]}-{bad[2]} is used {cf.max()} times")
    if not np.array_equal(uf, np.unique(rev, axis=0)):
        raise CheckError("a cell's facet shell is open: some edge has no reverse twin")

    tri = np.concatenate(tri)
    c = sites[tri[:, 0]]
    omega = _solid_angles(pts[tri[:, 1]] - c, pts[tri[:, 2]] - c, pts[tri[:, 3]] - c)
    winding = np.bincount(tri[:, 0], weights=omega, minlength=n) / (4.0 * np.pi)
    if np.abs(winding - 1.0).max() > 1e-6:
        i = int(np.argmax(np.abs(winding - 1.0)))
        raise CheckError(f"cell {i} winds {winding[i]:.6f} times around its site, expected 1")

    shortest = np.full(n, np.inf)
    np.minimum.at(shortest, cell_of, np.linalg.norm(pts[cu] - pts[cv], axis=1))
    return {"cells": n, "facets": len(loops), "shortest_edge": shortest}
