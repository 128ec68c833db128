"""Hex mesh generation: sweep, merge, radial refinement, extrusion.

Every facet quad is swept onto the sphere bounded by its cell, giving one
hex layer per cell. Cells merge into a single conformal mesh through the
shared tessellation node pool. The layer is then split 55/45 along the
sweep direction, and extra layers are extruded: one inward on every
sphere, one outward on curved container walls, and inlet/outlet duct
layers on the z planes.

The elements are the one record of the sweep lines: corners k + 4 -> k of
a hex in layer 0, 1 or 'bl' step inward along one line, from the facet
node q through the split node m and the swept node p to the sphere-layer
node b. `HexMesh.columns` reads the lines off those elements.

The boundary faces are rows of the face table: row 6 * e + f is local face
f of element e, whose outward loop `_loops` reads off the element. Each
tagged row carries the id of its surface, whose descriptor `surface_tag`
names. Every new face that a step makes is a known local face of a new
element, so its row is plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bed import RADIAL
from .errors import GeometryError, TopologyError, ValidationError
from .geometry import first_seen, norms
from .tessellate import FacetQuadMesh

R0_DEFAULT = 0.8889  # sweep target radius, fraction of R

# local faces of a hex [b0 b1 b2 b3 t0 t1 t2 t3], each ordered so the loop
# is CCW seen from outside the element: 0 is the base, 1 the top and
# 2 + s the side from corner s to corner s + 1
_FACES = np.array([
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
])


@dataclass
class ExtrusionSpec:
    t_bl: float = 0.25      # boundary-layer thickness, fraction of local layer
    inlet_layers: int = 3
    outlet_layers: int = 7


@dataclass
class HexMesh:
    nodes: np.ndarray                  # (P, 3)
    elements: np.ndarray               # (E, 8) int64
    faces: np.ndarray                  # (F,) int64 face-table rows 6 * element + local face
    face_surface: np.ndarray           # (F,) int64 surface id of each row
    surfaces: list                     # (S,) descriptor tuple of each surface
    elem_cell: np.ndarray              # (E,) owning sphere per element
    elem_layer: np.ndarray             # (E,) str layer label: '0', '1', 'bl', 'wall', ...
    sphere_centers: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def columns(self) -> list:
        """Per cell, {q: {role: node}} of its sweep lines: roles q, p after
        `sweep`, q, m, p after `refine_radial` and q, m, p, b after
        `extrude_layers`. A read-only view of the layer 0, 1 and 'bl'
        elements, built on each call."""
        layer = self.elem_layer
        el, cell = self.elements[layer == "0"], np.repeat(self.elem_cell[layer == "0"], 4)
        # a facet node q is shared by the cells of its facet; no node below it is
        _, first = np.unique(cell * len(self.nodes) + el[:, 4:].ravel(), return_index=True)
        line = [el[:, 4:].ravel()[first], el[:, :4].ravel()[first]]
        for step in (self.elements[layer == "1"], self.elements[layer == "bl"]):
            if len(step):
                down = np.full(len(self.nodes), -1)
                down[step[:, 4:]] = step[:, :4]
                line.append(down[line[-1]])
        roles = {2: "qp", 3: "qmp", 4: "qmpb"}[len(line)]
        columns = [{} for _ in self.sphere_centers]
        for i, *nodes in zip(cell[first].tolist(), *(n.tolist() for n in line)):
            columns[i][nodes[0]] = dict(zip(roles, nodes))
        return columns

    @property
    def face_tags(self) -> dict:
        """{sorted node key: tag} of the tagged faces, in row order; built
        on each call, for readers that key faces by their nodes."""
        keys = np.sort(_loops(self.elements, self.faces), axis=1).tolist()
        tags = [surface_tag(d) for d in self.surfaces]
        return {tuple(k): tags[s] for k, s in zip(keys, self.face_surface.tolist())}

    def copy(self) -> "HexMesh":
        return HexMesh(
            nodes=self.nodes.copy(),
            elements=self.elements.copy(),
            faces=self.faces.copy(),
            face_surface=self.face_surface.copy(),
            surfaces=list(self.surfaces),
            elem_cell=self.elem_cell.copy(),
            elem_layer=self.elem_layer.copy(),
            sphere_centers=self.sphere_centers.copy(),
        )


def surface_tag(desc) -> str:
    """The tag of a surface descriptor: 'sphere:i' on sphere i, 'inlet' or
    'outlet' on a z plane by its outward sign, 'inner_wall' on an inward
    facing cylinder, and 'wall' on any other container surface."""
    if desc[0] == "sphere":
        return f"sphere:{desc[1]}"
    if desc[0] == "plane" and desc[1] == 2:
        return "inlet" if desc[3] < 0 else "outlet"
    if desc[0] == "cylinder" and desc[4] < 0:
        return "inner_wall"
    return "wall"


def classify_boundary_facet(p: np.ndarray, n: np.ndarray, domain, R: float):
    """The surface descriptor of a boundary facet (one whose site_b is a
    ghost), from its actual plane: the plane point ``p`` and the unit
    normal ``n``.

    The facet lies on the first wall of ``domain.walls`` that it touches:
    a radial wall when ``n`` is the wall's sign times the radial direction
    at ``p`` and ``p`` is on that cylinder (a tangent plane of it); a plane
    wall when ``n`` is along its axis and ``p`` is on that plane. Any other
    facet, such as one against a neighbour's ghost or a chamfer from
    chained corner reflections, touches no wall and is described by the
    facet plane itself.
    """
    tol = 1e-6 * R
    px, nx = p.tolist(), n.tolist()  # Python floats: the same arithmetic, without numpy scalars
    for axis, value, sign, _ in domain.walls:
        if axis == RADIAL:
            cx, cy = domain.center_xy
            rad = np.hypot(px[0] - cx, px[1] - cy)
            radial = np.array([(px[0] - cx) / max(rad, 1e-300), (px[1] - cy) / max(rad, 1e-300), 0.0])
            if abs(float(n @ radial) - sign) < 1e-9 and abs(rad - value) < tol:
                return ("cylinder", cx, cy, value, sign)
        elif abs(abs(nx[axis]) - 1.0) < 1e-9 and abs(px[axis] - value) < tol:
            return ("plane", axis, value, sign)
    # on no wall: keep the facet plane
    return ("facet_plane", *(float(x) for x in p), *(float(x) for x in n))


def _face_table(elements: np.ndarray):
    """The sorted face table of a hex mesh.

    Row r is local face r % 6 of element r // 6. Returns (loops, order,
    starts, counts): the (E*6, 4) outward node loops; the row order in
    which faces with the same node ids are adjacent, distinct faces in
    ascending order of their sorted ids (their keys); and, per distinct
    face, where its rows start in that order and how many there are (its
    owners).
    """
    loops = elements[:, _FACES].reshape(-1, 4)
    # each row's key by a 5-comparator sorting network over the columns,
    # as two exact int64 codes (k0, k1) and (k2, k3) that sort as the keys do
    k = list(loops.T)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        k[i], k[j] = np.minimum(k[i], k[j]), np.maximum(k[i], k[j])
    n = int(k[3].max(initial=0)) + 1
    hi, lo = k[0] * n + k[1], k[2] * n + k[3]
    del k
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    starts = np.flatnonzero(new)
    return loops, order, starts, np.diff(starts, append=len(order))


def _loops(elements: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Outward node loops of face-table rows."""
    return elements[(rows // 6)[:, None], _FACES[rows % 6]]


def _select(mesh: HexMesh, keep) -> np.ndarray:
    """Positions in the tag table of the rows whose surface descriptor
    passes keep, in the order of their sorted node keys."""
    at = np.flatnonzero(np.array([keep(d) for d in mesh.surfaces], dtype=bool)[mesh.face_surface])
    keys = np.sort(_loops(mesh.elements, mesh.faces[at]), axis=1)
    return at[np.lexsort(keys.T[::-1])]


def _replace(mesh: HexMesh, at: np.ndarray, rows: np.ndarray, surface: np.ndarray) -> None:
    """Drop the tag-table positions at, then append the rows on their
    surface ids; a row on surface -1 is not a boundary face and is skipped."""
    keep = np.ones(len(mesh.faces), dtype=bool)
    keep[at] = False
    new = surface >= 0
    mesh.faces = np.concatenate([mesh.faces[keep], rows[new]])
    mesh.face_surface = np.concatenate([mesh.face_surface[keep], surface[new]])


def _grow(mesh: HexMesh, nodes, elements, cells, layers) -> None:
    mesh.nodes = np.vstack([mesh.nodes, nodes])
    mesh.elements = np.vstack([mesh.elements, elements])
    mesh.elem_cell = np.concatenate([mesh.elem_cell, cells])
    mesh.elem_layer = np.concatenate([mesh.elem_layer, layers])


def sweep(patches: FacetQuadMesh, R0: float = R0_DEFAULT) -> HexMesh:
    """Sweep every facet quad onto its cell sphere and merge the cells.

    Outer corners are the facet quad nodes; inner corners sit on the
    sphere of radius R0 about the cell center, along the center-node ray.
    One element layer per cell results; boundary facet quads carry the
    container surface association for later projection.
    """
    cs = patches.cellset
    R = cs.bed.radius_nominal
    centers = cs.bed.centers
    r_sweep = R0 * R
    # surface i is sphere i; then one surface per live boundary facet
    wall = [fid for fid in np.flatnonzero(cs.site_b >= cs.n_real).tolist()
            if len(cs.loops[fid]) >= 3]
    surfaces = [("sphere", i) for i in range(len(centers))] + [
        classify_boundary_facet(cs.plane_point[fid], cs.plane_normal[fid], cs.bed.domain, R)
        for fid in wall]
    facet_surface = np.full(len(cs.site_b), -1)
    facet_surface[wall] = len(centers) + np.arange(len(wall))
    cell, facet, quads = patches.outward_quads()
    used_tess, outer = np.unique(quads.ravel(), return_inverse=True)

    # one inner node per (cell, tess node), numbered in order of first use
    ids, first = first_seen(np.repeat(cell, 4) * len(patches.nodes) + quads.ravel())
    ci, t = cell[first // 4], quads.ravel()[first]
    ray = patches.nodes[t] - centers[ci]
    d = norms(ray)
    low = np.flatnonzero(d < r_sweep)
    if len(low):
        k = low[0]
        raise GeometryError(
            f"cell {ci[k]}: tessellation node {t[k]} at {d[k]:.4f} is inside "
            f"the sweep radius {r_sweep:.4f}"
        )
    s = np.sort(quads, axis=1)
    degenerate = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
    if len(degenerate):
        k = degenerate[0]
        raise GeometryError(f"degenerate hex in cell {cell[k]}, facet {facet[k]}")

    # each element's sphere face (0), then its facet face (1) if that lies
    # on the container
    on_wall = np.flatnonzero(facet_surface[facet] >= 0)
    faces = np.sort(np.concatenate([6 * np.arange(len(cell)), 6 * on_wall + 1]))
    e = faces // 6
    mesh = HexMesh(
        nodes=np.vstack([patches.nodes[used_tess], centers[ci] + ray * (r_sweep / d)[:, None]]),
        elements=np.hstack([len(used_tess) + ids.reshape(-1, 4), outer.reshape(-1, 4)]),
        faces=faces,
        face_surface=np.where(faces % 6 == 0, cell[e], facet_surface[facet[e]]),
        surfaces=surfaces,
        elem_cell=cell,
        elem_layer=np.full(len(cell), "0"),
        sphere_centers=centers.copy(),
    )
    audit_conformal(mesh)
    return mesh


def audit_conformal(mesh: HexMesh) -> dict:
    """Conformality audit over the sorted face table.

    Sorting the node ids of every element face, and then the faces, brings
    the copies of each face together, so a face's owner count is the length
    of its run. Every interior face must be shared by exactly two elements
    with opposite orientation (one loop is the other reversed, up to
    rotation) and carry no tag; every boundary face by exactly one,
    carrying exactly one tag; and every node must belong to an element.
    Raises TopologyError on any violation.
    """
    loops, order, starts, counts = _face_table(mesh.elements)

    def key(f):
        return tuple(sorted(loops[order[starts[f]]].tolist()))

    over = np.flatnonzero(counts > 2)
    if len(over):
        raise TopologyError(f"face {key(over[0])} shared by {counts[over[0]]} elements")
    face = np.empty(len(order), dtype=np.int64)  # distinct face of each row
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
    del face, tagged
    # owners a and b of a shared face run oppositely when, with j the
    # position of a[0] in b, a[s] == b[(j - s) & 3] for s = 1, 2, 3; the
    # loops hold the same ids, so s = 2 holds once s = 1 and 3 do
    shared = np.flatnonzero(counts == 2)
    a, b = order[starts[shared]], order[starts[shared] + 1]
    a0 = loops[a, 0]
    j = np.full(len(shared), 3)
    for k in (2, 1, 0):
        j[loops[b, k] == a0] = k
    flipped = np.zeros(len(shared), dtype=bool)
    for s in (1, 3):
        flipped |= loops[a, s] != loops[b, (j - s) & 3]
    flipped = np.flatnonzero(flipped)
    if len(flipped):
        raise TopologyError(
            f"face {key(shared[flipped[0]])} not oppositely oriented in its two owners")
    used = np.bincount(mesh.elements.ravel(), minlength=len(mesh.nodes))
    if len(used) > len(mesh.nodes) or not used.all():
        raise TopologyError(
            f"orphan nodes: {int((used[:len(mesh.nodes)] == 0).sum())} unreferenced"
        )
    return {"boundary_faces": int((counts == 1).sum()), "interior_faces": len(shared)}


def refine_radial(mesh: HexMesh, split: float = 0.55) -> HexMesh:
    """Split each swept hex in two along the sweep direction.

    The cut sits at `split` of the thickness from the facet side, so the
    facet-side child is thicker (55/45 by default) and the element count
    exactly doubles. Refinement is radial per cell, so conformality with
    other cells is untouched.
    """
    if not (0.0 < split < 1.0):
        raise ValidationError("split must lie in (0, 1)")
    if (mesh.elem_layer != "0").any():
        raise ValidationError("refine_radial supports exactly one split; mesh already refined")
    n = len(mesh.nodes)
    p, q = mesh.elements[:, :4], mesh.elements[:, 4:]
    # one mid node per sweep edge (p, q), numbered in order of first use
    ids, first = first_seen(p.ravel() * n + q.ravel())
    pu, qu = p.ravel()[first], q.ravel()[first]
    m = n + ids.reshape(-1, 4)
    elements = np.empty((2 * len(p), 8), dtype=np.int64)
    elements[0::2] = np.hstack([m, q])  # facet-side child, layer 0
    elements[1::2] = np.hstack([p, m])  # sphere-side child, layer 1
    out = mesh.copy()
    out.nodes = np.vstack([mesh.nodes, mesh.nodes[qu] + split * (mesh.nodes[pu] - mesh.nodes[qu])])
    out.elements = elements
    out.elem_cell = np.repeat(mesh.elem_cell, 2)
    out.elem_layer = np.tile(["0", "1"], len(p))

    # a tagged face passes to the child that holds it: the sphere face to
    # the sphere-side child 2e + 1, the facet face to the facet-side child
    # 2e, and a lateral face splits onto both, facet side first
    e, f = np.divmod(mesh.faces, 6)
    src = np.repeat(np.arange(len(f)), 1 + (f >= 2))
    second = np.zeros(len(src), dtype=bool)
    second[1:] = src[1:] == src[:-1]
    out.faces = 6 * (2 * e[src] + (f[src] == 0) + second) + f[src]
    out.face_surface = mesh.face_surface[src]
    audit_conformal(out)
    return out


def _sides(mesh: HexMesh, at: np.ndarray, loops: np.ndarray, first: int, nlayers: int,
           what: str):
    """The side faces of nlayers layers grown from the tagged faces at
    positions `at`, whose outward loops are `loops`.

    Face j grows elements first + j * nlayers + k, k < nlayers, whose side
    s is local face 2 + s, over side s of loops[j], from corner s to corner
    s + 1. A side shared by two faces of the set stays inside the new layer
    and gets surface -1. Any other side becomes an exposed face that copies
    the surface of its donor: the first tagged face in table order, outside
    the set, that has the same edge. Returns the (F, nlayers * 4) rows and
    surface ids of the sides, layer by layer.
    """
    n = len(mesh.nodes)

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
        raise TopologyError(f"exposed {what} side at edge {(e // n, e % n)} has no donor tag")
    donor = np.full(mine.shape, -1)
    donor[exposed] = mesh.face_surface[others[by[pos[exposed]] // 4]]
    e = first + np.arange(len(at))[:, None] * nlayers + np.arange(nlayers)
    return (6 * e[:, :, None] + 2 + np.arange(4)).reshape(len(at), -1), np.tile(donor, nlayers)


def _line_lengths(mesh: HexMesh, eid: np.ndarray) -> np.ndarray:
    """(len(eid), 4) lengths of the sweep-line edges (corner k, k + 4) of elements eid."""
    el = mesh.elements[eid]
    return norms(mesh.nodes[el[:, :4]] - mesh.nodes[el[:, 4:]])


def extrude_layers(mesh: HexMesh, spec: ExtrusionSpec | None = None) -> HexMesh:
    """Add boundary layers: spheres inward, curved walls outward, z ducts.

    Sphere faces gain one thin layer toward the sphere (fraction t_bl of
    the local radial layer; the new surface radius feeds the final
    projection). Curved-wall faces gain one thin outward layer whose outer
    surface later lands on the analytic wall. The inlet plane grows 3 duct
    layers downward and the outlet 7 upward.
    """
    spec = spec or ExtrusionSpec()
    if not (mesh.elem_layer == "1").any():
        raise ValidationError("extrude_layers expects a radially refined mesh")
    out = mesh.copy()

    # --- sphere boundary layers -------------------------------------------
    # a sphere face is face 0 of its element: the reversed loop runs over
    # corners (1, 2, 3, 0), the p nodes, and corner k + 4 above each is m
    at = _select(out, lambda d: d[0] == "sphere")
    eid = out.faces[at] // 6
    corner = _FACES[0][::-1]
    rev = out.elements[eid[:, None], corner]
    sphere = out.face_surface[at]
    cell = np.array([d[1] if d[0] == "sphere" else -1 for d in out.surfaces],
                    dtype=np.int64)[sphere]
    ids, first = first_seen(rev.ravel())
    p, ci = rev.ravel()[first], cell[first // 4]
    thick = _line_lengths(out, eid)[:, corner].ravel()[first]
    ray = out.nodes[p] - out.sphere_centers[ci]
    rho = norms(ray)
    target = rho - spec.t_bl * thick
    low = np.flatnonzero(target <= 0.5)
    if len(low):
        raise GeometryError(
            f"sphere {ci[low[0]]}: boundary-layer extrusion reaches {target[low[0]]:.3f}R"
        )
    n = len(out.nodes)
    e = len(out.elements) + np.arange(len(at))
    _grow(out, out.sphere_centers[ci] + ray * (target / rho)[:, None],
          np.hstack([n + ids.reshape(-1, 4), rev]), cell, np.full(len(at), "bl"))
    _replace(out, at, 6 * e, sphere)  # the base of each new element faces the sphere

    # --- curved-wall layers -------------------------------------------------
    at = _select(out, lambda d: d[0] == "cylinder")
    if len(at):
        loops = _loops(out.elements, out.faces[at])
        eid = out.faces[at] // 6
        # uniform thickness from the mean sweep thickness of the wall hexes
        t_w = spec.t_bl * float(np.mean(_line_lengths(out, eid).ravel()))
        pts = out.nodes[loops]
        normal = np.cross(pts[:, 1] - pts[:, 0], pts[:, 3] - pts[:, 0])
        normal /= norms(normal)[:, None]
        # per node, the mean of its faces' normals summed in face order
        v, inv = np.unique(loops.ravel(), return_inverse=True)
        mean = np.zeros((len(v), 3))
        np.add.at(mean, inv, np.repeat(normal, 4, axis=0))
        mean /= np.bincount(inv)[:, None]
        mean /= norms(mean)[:, None]
        w = len(out.nodes) + inv.reshape(-1, 4)
        e = len(out.elements)
        _grow(out, out.nodes[v] + t_w * mean, np.hstack([loops, w]), out.elem_cell[eid],
              np.full(len(at), "wall"))
        # per face: its top (1), on the wall, then its exposed sides
        sides, on = _sides(out, at, loops, e, 1, "wall-layer")
        rows = np.hstack([6 * (e + np.arange(len(at)))[:, None] + 1, sides])
        _replace(out, at, rows, np.hstack([out.face_surface[at][:, None], on]))

    # --- inlet / outlet ducts ------------------------------------------------
    for zdir, nlayers in ((-1.0, spec.inlet_layers), (1.0, spec.outlet_layers)):
        if nlayers > 0:
            _extrude_duct(out, zdir, nlayers)
    audit_conformal(out)
    return out


def _extrude_duct(mesh: HexMesh, zdir: float, nlayers: int) -> None:
    """Grow nlayers duct layers along z from the z plane that faces zdir."""
    at = _select(mesh, lambda d: d[0] == "plane" and d[1] == 2 and d[3] == zdir)
    if not len(at):
        return
    loops = _loops(mesh.elements, mesh.faces[at])
    eid = mesh.faces[at] // 6
    t = float(np.mean(_line_lengths(mesh, eid).ravel()))
    # a column of nlayers nodes above each surface node, in order of first use
    ids, first = first_seen(loops.ravel())
    column = np.repeat(mesh.nodes[loops.ravel()[first]][:, None, :], nlayers, axis=1)
    column[:, :, 2] += [zdir * k * t for k in range(1, nlayers + 1)]
    ring = [loops] + [len(mesh.nodes) + ids.reshape(-1, 4) * nlayers + k for k in range(nlayers)]
    d = mesh.surfaces[mesh.face_surface[at[0]]]  # a container has one z wall per side
    e = len(mesh.elements)
    _grow(mesh, column.reshape(-1, 3),
          np.stack([np.hstack(ring[k:k + 2]) for k in range(nlayers)], axis=1).reshape(-1, 8),
          np.repeat(mesh.elem_cell[eid], nlayers),
          np.tile([f"{surface_tag(d)}{k + 1}" for k in range(nlayers)], len(at)))
    # per face: its exposed sides layer by layer, then the top (1) of its
    # last layer, on the moved plane: one new surface
    sides, on = _sides(mesh, at, loops, e, nlayers, "duct")
    rows = np.hstack([sides, 6 * (e + np.arange(len(at)) * nlayers + nlayers - 1)[:, None] + 1])
    _replace(mesh, at, rows, np.hstack([on, np.full((len(at), 1), len(mesh.surfaces))]))
    mesh.surfaces.append(("plane", d[1], d[2] + zdir * nlayers * t, d[3]))


def corner_jacobians(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(E, 8, 3, 3) Jacobian of the trilinear map at each hex corner.

    Columns are d x / d r_k; for the unit cube with standard ordering all
    determinants equal 1/8.
    """
    x = nodes[elements]  # (E, 8, 3)
    # adjacency along each reference axis, and the sign of that corner's
    # reference coordinate on the axis
    adj = np.array([
        [1, 3, 4], [0, 2, 5], [3, 1, 6], [2, 0, 7],
        [5, 7, 0], [4, 6, 1], [7, 5, 2], [6, 4, 3],
    ])
    sign = np.array([
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ])
    J = np.empty((len(elements), 8, 3, 3))
    for c in range(8):
        for k in range(3):
            J[:, c, :, k] = -sign[c, k] * (x[:, adj[c, k], :] - x[:, c, :]) / 2.0
    return J


def corner_dets(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    return np.linalg.det(corner_jacobians(nodes, elements))
