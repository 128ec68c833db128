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
tagged row carries the descriptor of the surface it lies on, and
`surface_tag` names that surface. Every new face that a step makes is a
known local face of a new element, so its row is plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bed import Annulus, Box, Cylinder
from .errors import GeometryError, TopologyError, ValidationError
from .geometry import norms
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
    surfaces: list                     # (F,) descriptor tuple of each row's surface
    elem_cell: np.ndarray              # (E,) owning sphere per element
    elem_layer: list                   # (E,) layer label: 0, 1, 'bl', 'wall', ...
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
        layer = np.array([str(v) for v in self.elem_layer])
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
        return {tuple(k): surface_tag(d) for k, d in zip(keys, self.surfaces)}

    def copy(self) -> "HexMesh":
        return HexMesh(
            nodes=self.nodes.copy(),
            elements=self.elements.copy(),
            faces=self.faces.copy(),
            surfaces=list(self.surfaces),
            elem_cell=self.elem_cell.copy(),
            elem_layer=list(self.elem_layer),
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


def classify_boundary_facet(facet, domain, R: float):
    """The surface descriptor of a ghost-tagged facet, from its actual plane.

    Curved-wall reflections give tangent planes; z reflections give exact
    z planes; chained corner reflections give slanted chamfer planes that
    stay planar, described by the facet plane itself.
    """
    n = facet.plane_normal
    p = facet.plane_point
    tol = 1e-6 * R
    if isinstance(domain, (Cylinder, Annulus)):
        cx, cy = domain.center_xy
        if abs(abs(n[2]) - 1.0) < 1e-9:
            if abs(p[2]) < tol:
                return ("plane", 2, 0.0, -1)
            if abs(p[2] - domain.H) < tol:
                return ("plane", 2, domain.H, 1)
        rad = np.hypot(p[0] - cx, p[1] - cy)
        radial = np.array([(p[0] - cx) / max(rad, 1e-300), (p[1] - cy) / max(rad, 1e-300), 0.0])
        align = float(n @ radial)
        if isinstance(domain, Cylinder):
            if abs(align - 1.0) < 1e-9 and abs(rad - domain.R_c) < tol:
                return ("cylinder", cx, cy, domain.R_c, 1)
        else:
            if abs(align - 1.0) < 1e-9 and abs(rad - domain.R_o) < tol:
                return ("cylinder", cx, cy, domain.R_o, 1)
            if abs(align + 1.0) < 1e-9 and abs(rad - domain.R_i) < tol:
                return ("cylinder", cx, cy, domain.R_i, -1)
    elif isinstance(domain, Box):
        lo = domain.lo
        hi = domain.hi
        for axis in range(3):
            if abs(abs(n[axis]) - 1.0) < 1e-9:
                if abs(p[axis] - lo[axis]) < tol:
                    return ("plane", axis, lo[axis], -1)
                if abs(p[axis] - hi[axis]) < tol:
                    return ("plane", axis, hi[axis], 1)
    # chained (corner) reflection: keep the facet plane
    return ("facet_plane", *(float(x) for x in p), *(float(x) for x in n))


def _first_seen(values: np.ndarray):
    """Number the distinct entries of a 1-D array in order of first use.

    Returns (ids, first): ids[k] is the number of values[k], and first[j]
    is the position where the value numbered j first appears.
    """
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    return rank[inverse], first[seen]


def _face_table(elements: np.ndarray):
    """The sorted face table of a hex mesh.

    Row r is local face r % 6 of element r // 6, its node ids sorted into a
    key. Returns (keys, order, starts, counts): the (E*6, 4) keys; the row
    order in which equal keys are adjacent, distinct keys in ascending
    order; and, per distinct face, where its rows start in that order and
    how many there are (its owners).
    """
    keys = elements[:, _FACES].reshape(-1, 4)
    keys.sort(axis=1)
    # two exact int64 codes per key, (k0, k1) and (k2, k3), sort as the keys do
    n = int(keys.max(initial=0)) + 1
    hi, lo = keys[:, 0] * n + keys[:, 1], keys[:, 2] * n + keys[:, 3]
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    starts = np.flatnonzero(new)
    return keys, order, starts, np.diff(starts, append=len(order))


def _loops(elements: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Outward node loops of face-table rows."""
    return elements[(rows // 6)[:, None], _FACES[rows % 6]]


def _rotate_to_min(loops: np.ndarray) -> np.ndarray:
    """Each loop rotated to start at its smallest node id."""
    shift = loops.argmin(axis=1)[:, None] + np.arange(4)
    return np.take_along_axis(loops, shift % 4, axis=1)


def _select(mesh: HexMesh, keep) -> np.ndarray:
    """Positions in the tag table of the rows whose descriptor passes keep,
    in the order of their sorted node keys."""
    at = np.array([j for j, d in enumerate(mesh.surfaces) if keep(d)], dtype=np.int64)
    keys = np.sort(_loops(mesh.elements, mesh.faces[at]), axis=1)
    return at[np.lexsort(keys.T[::-1])]


def _replace(mesh: HexMesh, at: np.ndarray, rows: np.ndarray, surfaces: list) -> None:
    """Drop the tag-table positions at, then append rows with surfaces."""
    keep = np.ones(len(mesh.faces), dtype=bool)
    keep[at] = False
    mesh.faces = np.concatenate([mesh.faces[keep], rows])
    mesh.surfaces = [d for d, k in zip(mesh.surfaces, keep.tolist()) if k] + surfaces


def _grow(mesh: HexMesh, nodes, elements, cells, layers) -> None:
    mesh.nodes = np.vstack([mesh.nodes, nodes])
    mesh.elements = np.vstack([mesh.elements, elements])
    mesh.elem_cell = np.concatenate([mesh.elem_cell, cells])
    mesh.elem_layer = mesh.elem_layer + layers


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
    facet_desc = {fid: classify_boundary_facet(f, cs.bed.domain, R)
                  for fid, f in enumerate(cs.facets) if not f.deleted and f.boundary is not None}
    listed = [(i, fid, q) for i in range(cs.n_real) for fid, q in patches.cell_quads(i)]
    cell = np.array([i for i, _, _ in listed], dtype=np.int64)
    quads = np.array([q for _, _, q in listed], dtype=np.int64).reshape(-1, 4)
    used_tess, outer = np.unique(quads.ravel(), return_inverse=True)

    # one inner node per (cell, tess node), numbered in order of first use
    ids, first = _first_seen(np.repeat(cell, 4) * len(patches.nodes) + quads.ravel())
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
        i, fid, _ = listed[degenerate[0]]
        raise GeometryError(f"degenerate hex in cell {i}, facet {fid}")

    # each element's sphere face (0), then its facet face (1) if that lies
    # on the container
    on_wall = np.array([fid in facet_desc for _, fid, _ in listed], dtype=bool)
    faces = np.sort(np.concatenate([6 * np.arange(len(listed)), 6 * np.flatnonzero(on_wall) + 1]))
    surfaces = []
    for i, fid, _ in listed:
        surfaces.append(("sphere", i))
        if fid in facet_desc:
            surfaces.append(facet_desc[fid])
    mesh = HexMesh(
        nodes=np.vstack([patches.nodes[used_tess], centers[ci] + ray * (r_sweep / d)[:, None]]),
        elements=np.hstack([len(used_tess) + ids.reshape(-1, 4), outer.reshape(-1, 4)]),
        faces=faces,
        surfaces=surfaces,
        elem_cell=cell,
        elem_layer=[0] * len(listed),
        sphere_centers=centers.copy(),
    )
    audit_conformal(mesh)
    return mesh


def audit_conformal(mesh: HexMesh) -> dict:
    """Conformality audit over the sorted face table.

    Sorting the node ids of every element face, and then the faces, brings
    the copies of each face together, so a face's owner count is the length
    of its run. Every interior face must be shared by exactly two elements
    with opposite orientation (the loops agree once one is reversed and
    both start at their smallest node) and carry no tag; every boundary
    face by exactly one, carrying exactly one tag; and every node must
    belong to an element. Raises TopologyError on any violation.
    """
    keys, order, starts, counts = _face_table(mesh.elements)

    def key(f):
        return tuple(keys[order[starts[f]]].tolist())

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
        desc = mesh.surfaces[np.flatnonzero(tagged == stray[0])[0]]
        raise TopologyError(f"interior face {key(stray[0])} carries tag {surface_tag(desc)}")
    twice = np.flatnonzero(tags > 1)
    if len(twice):
        raise TopologyError(f"face {key(twice[0])} tagged {tags[twice[0]]} times")
    del keys, face, tagged  # keep at most one (E*6, 4) array alive
    pair = starts[counts == 2]
    a = _loops(mesh.elements, order[pair])
    b = _loops(mesh.elements, order[pair + 1])[:, ::-1]
    flipped = np.flatnonzero((_rotate_to_min(a) != _rotate_to_min(b)).any(axis=1))
    if len(flipped):
        k = tuple(sorted(a[flipped[0]].tolist()))
        raise TopologyError(f"face {k} not oppositely oriented in its two owners")
    used = np.bincount(mesh.elements.ravel(), minlength=len(mesh.nodes))
    if len(used) > len(mesh.nodes) or not used.all():
        raise TopologyError(
            f"orphan nodes: {int((used[:len(mesh.nodes)] == 0).sum())} unreferenced"
        )
    return {"boundary_faces": int((counts == 1).sum()), "interior_faces": len(pair)}


def refine_radial(mesh: HexMesh, split: float = 0.55) -> HexMesh:
    """Split each swept hex in two along the sweep direction.

    The cut sits at `split` of the thickness from the facet side, so the
    facet-side child is thicker (55/45 by default) and the element count
    exactly doubles. Refinement is radial per cell, so conformality with
    other cells is untouched.
    """
    if not (0.0 < split < 1.0):
        raise ValidationError("split must lie in (0, 1)")
    if any(layer != 0 for layer in mesh.elem_layer):
        raise ValidationError("refine_radial supports exactly one split; mesh already refined")
    n = len(mesh.nodes)
    p, q = mesh.elements[:, :4], mesh.elements[:, 4:]
    # one mid node per sweep edge (p, q), numbered in order of first use
    ids, first = _first_seen(p.ravel() * n + q.ravel())
    pu, qu = p.ravel()[first], q.ravel()[first]
    m = n + ids.reshape(-1, 4)
    elements = np.empty((2 * len(p), 8), dtype=np.int64)
    elements[0::2] = np.hstack([m, q])  # facet-side child, layer 0
    elements[1::2] = np.hstack([p, m])  # sphere-side child, layer 1
    out = mesh.copy()
    out.nodes = np.vstack([mesh.nodes, mesh.nodes[qu] + split * (mesh.nodes[pu] - mesh.nodes[qu])])
    out.elements = elements
    out.elem_cell = np.repeat(mesh.elem_cell, 2)
    out.elem_layer = [0, 1] * len(p)

    # a tagged face passes to the child that holds it: the sphere face to
    # the sphere-side child 2e + 1, the facet face to the facet-side child
    # 2e, and a lateral face splits onto both, facet side first
    e, f = np.divmod(mesh.faces, 6)
    src = np.repeat(np.arange(len(f)), 1 + (f >= 2))
    second = np.zeros(len(src), dtype=bool)
    second[1:] = src[1:] == src[:-1]
    out.faces = 6 * (2 * e[src] + (f[src] == 0) + second) + f[src]
    out.surfaces = [mesh.surfaces[j] for j in src.tolist()]
    audit_conformal(out)
    return out


def _side_donors(mesh: HexMesh, at: np.ndarray, loops: np.ndarray, what: str) -> np.ndarray:
    """Donor faces for the sides of the tagged faces at positions `at`,
    which are being extruded.

    Side s of loops[j] runs from corner s to corner s + 1. A side shared by
    two faces of the set stays inside the new layer and gets -1. Any other
    side becomes an exposed face that copies the surface of its donor: the
    first tagged face in table order, outside the set, that has the same
    edge. Returns the (F, 4) donor positions in the tag table.
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
    donor[exposed] = others[by[pos[exposed]] // 4]
    return donor


def _side_rows(first: int, nlayers: int, donor: np.ndarray):
    """Rows of the side faces of layers grown from an extruded face set.

    Face j grows elements first + j * nlayers + k, k < nlayers, whose side
    s is local face 2 + s. Returns their (F, nlayers * 4) rows, layer by
    layer, and the donor of each (-1 for a side inside the layer).
    """
    e = first + np.arange(len(donor))[:, None] * nlayers + np.arange(nlayers)
    return (6 * e[:, :, None] + 2 + np.arange(4)).reshape(len(donor), -1), np.tile(donor, nlayers)


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
    if 1 not in set(mesh.elem_layer):
        raise ValidationError("extrude_layers expects a radially refined mesh")
    out = mesh.copy()

    # --- sphere boundary layers -------------------------------------------
    # a sphere face is face 0 of its element: the reversed loop runs over
    # corners (1, 2, 3, 0), the p nodes, and corner k + 4 above each is m
    at = _select(out, lambda d: d[0] == "sphere")
    eid = out.faces[at] // 6
    corner = _FACES[0][::-1]
    rev = out.elements[eid[:, None], corner]
    descs = [out.surfaces[j] for j in at.tolist()]
    cell = np.array([desc[1] for desc in descs], dtype=np.int64)
    ids, first = _first_seen(rev.ravel())
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
          np.hstack([n + ids.reshape(-1, 4), rev]), cell, ["bl"] * len(at))
    _replace(out, at, 6 * e, descs)  # the base of each new element faces the sphere

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
              ["wall"] * len(at))
        # per face: its top (1), on the wall, then its exposed sides
        sides, donor = _side_rows(e, 1, _side_donors(out, at, loops, "wall-layer"))
        rows = np.hstack([6 * (e + np.arange(len(at)))[:, None] + 1, sides])
        src = np.hstack([at[:, None], donor])
        _replace(out, at, rows[src >= 0], [out.surfaces[j] for j in src[src >= 0].tolist()])

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
    ids, first = _first_seen(loops.ravel())
    column = np.repeat(mesh.nodes[loops.ravel()[first]][:, None, :], nlayers, axis=1)
    column[:, :, 2] += [zdir * k * t for k in range(1, nlayers + 1)]
    ring = [loops] + [len(mesh.nodes) + ids.reshape(-1, 4) * nlayers + k for k in range(nlayers)]
    donor = _side_donors(mesh, at, loops, "duct")
    kind = surface_tag(mesh.surfaces[at[0]])
    moved = [("plane", d[1], d[2] + zdir * nlayers * t, d[3])
             for d in (mesh.surfaces[j] for j in at.tolist())]
    e = len(mesh.elements)
    _grow(mesh, column.reshape(-1, 3),
          np.stack([np.hstack(ring[k:k + 2]) for k in range(nlayers)], axis=1).reshape(-1, 8),
          np.repeat(mesh.elem_cell[eid], nlayers),
          [f"{kind}{k + 1}" for k in range(nlayers)] * len(at))
    # per face: its exposed sides layer by layer, then the top (1) of its
    # last layer, on the moved plane
    sides, donor = _side_rows(e, nlayers, donor)
    rows = np.hstack([sides, 6 * (e + np.arange(len(at)) * nlayers + nlayers - 1)[:, None] + 1])
    src = np.hstack([donor, len(mesh.surfaces) + np.arange(len(at))[:, None]])
    pool = mesh.surfaces + moved
    _replace(mesh, at, rows[src >= 0], [pool[j] for j in src[src >= 0].tolist()])


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
