"""Hex mesh generation: sweep, merge, radial refinement, extrusion.

Every facet quad is swept onto the sphere bounded by its cell, giving one
hex layer per cell. Cells merge into a single conformal mesh through the
shared tessellation node pool. The layer is then split 55/45 along the
sweep direction, and extra layers are extruded: one inward on every
sphere, one outward on curved container walls, and inlet/outlet duct
layers on the z planes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bed import Annulus, Box, Cylinder
from .errors import GeometryError, TopologyError, ValidationError
from .tessellate import FacetQuadMesh

log = logging.getLogger(__name__)

R0_DEFAULT = 0.8889  # sweep target radius, fraction of R

# local faces of a hex [b0 b1 b2 b3 t0 t1 t2 t3], each ordered so the loop
# is CCW seen from outside the element
FACES_OUT = (
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)
_FACES = np.array(FACES_OUT)


@dataclass
class ExtrusionSpec:
    t_bl: float = 0.25      # boundary-layer thickness, fraction of local layer
    inlet_layers: int = 3
    outlet_layers: int = 7


@dataclass
class HexMesh:
    nodes: np.ndarray                  # (P, 3)
    elements: np.ndarray               # (E, 8) int64
    face_tags: dict                    # face key -> tag string
    surface_assoc: dict                # face key -> descriptor tuple
    face_loops: dict                   # face key -> outward-CCW node tuple
    elem_cell: np.ndarray              # (E,) owning sphere per element
    elem_layer: list                   # (E,) layer label: 0, 1, 'bl', 'wall', ...
    sphere_centers: np.ndarray
    sphere_radius: float | None        # current radius of sphere surfaces
    domain: object
    columns: list = field(default_factory=list)   # per cell: tess node -> {role: node}
    wall_outer: dict = field(default_factory=dict)  # interface node -> extruded node

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def copy(self) -> "HexMesh":
        return HexMesh(
            nodes=self.nodes.copy(),
            elements=self.elements.copy(),
            face_tags=dict(self.face_tags),
            surface_assoc=dict(self.surface_assoc),
            face_loops=dict(self.face_loops),
            elem_cell=self.elem_cell.copy(),
            elem_layer=list(self.elem_layer),
            sphere_centers=self.sphere_centers.copy(),
            sphere_radius=self.sphere_radius,
            domain=self.domain,
            columns=[{t: dict(roles) for t, roles in c.items()} for c in self.columns],
            wall_outer=dict(self.wall_outer),
        )


def face_key(loop) -> tuple:
    return tuple(sorted(int(v) for v in loop))


def classify_boundary_facet(facet, domain, R: float):
    """Map a ghost-tagged facet to (tag, descriptor) from its actual plane.

    Curved-wall reflections give tangent planes; z reflections give exact
    z planes; chained corner reflections give slanted chamfer planes that
    stay planar, tagged as wall.
    """
    n = facet.plane_normal
    p = facet.plane_point
    tol = 1e-6 * R
    if isinstance(domain, (Cylinder, Annulus)):
        cx, cy = domain.center_xy
        if abs(abs(n[2]) - 1.0) < 1e-9:
            if abs(p[2]) < tol:
                return "inlet", ("plane", 2, 0.0, -1)
            if abs(p[2] - domain.H) < tol:
                return "outlet", ("plane", 2, domain.H, 1)
        rad = np.hypot(p[0] - cx, p[1] - cy)
        radial = np.array([(p[0] - cx) / max(rad, 1e-300), (p[1] - cy) / max(rad, 1e-300), 0.0])
        align = float(n @ radial)
        if isinstance(domain, Cylinder):
            if abs(align - 1.0) < 1e-9 and abs(rad - domain.R_c) < tol:
                return "wall", ("cylinder", cx, cy, domain.R_c, 1)
        else:
            if abs(align - 1.0) < 1e-9 and abs(rad - domain.R_o) < tol:
                return "wall", ("cylinder", cx, cy, domain.R_o, 1)
            if abs(align + 1.0) < 1e-9 and abs(rad - domain.R_i) < tol:
                return "inner_wall", ("cylinder", cx, cy, domain.R_i, -1)
    elif isinstance(domain, Box):
        lo = domain.lo
        hi = domain.hi
        for axis in range(3):
            if abs(abs(n[axis]) - 1.0) < 1e-9:
                if abs(p[axis] - lo[axis]) < tol:
                    tag = "inlet" if axis == 2 else "wall"
                    return tag, ("plane", axis, lo[axis], -1)
                if abs(p[axis] - hi[axis]) < tol:
                    tag = "outlet" if axis == 2 else "wall"
                    return tag, ("plane", axis, hi[axis], 1)
    # chained (corner) reflection: keep the facet plane, call it wall
    return "wall", ("facet_plane", *(float(x) for x in p), *(float(x) for x in n))


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each bit-identical to np.linalg.norm of
    that one vector (which takes the BLAS dot product)."""
    return np.sqrt(np.vecdot(v, v))


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


_CODE = np.dtype([("hi", np.int64), ("lo", np.int64)])


def _codes(keys: np.ndarray, n: int) -> np.ndarray:
    """Two exact int64 codes per sorted key of node ids below n, (k0, k1)
    and (k2, k3), as one record each; records order as their keys do."""
    codes = np.empty(len(keys), dtype=_CODE)
    codes["hi"] = keys[:, 0] * n + keys[:, 1]
    codes["lo"] = keys[:, 2] * n + keys[:, 3]
    return codes


def _face_table(elements: np.ndarray):
    """The sorted face table of a hex mesh.

    Row r is local face r % 6 of element r // 6, its node ids sorted into a
    key. Returns (keys, order, starts, counts): the (E*6, 4) keys; the row
    order in which equal keys are adjacent; and, per distinct face, where
    its rows start in that order and how many there are (its owners).
    """
    keys = elements[:, _FACES].reshape(-1, 4)
    keys.sort(axis=1)
    codes = _codes(keys, int(keys.max(initial=0)) + 1)
    order = np.lexsort((codes["lo"], codes["hi"]))
    hi, lo = codes["hi"][order], codes["lo"][order]
    del codes
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


def _retag(mesh: HexMesh, old_keys, loops: np.ndarray, tags, descs, face=None) -> None:
    """Untag old_keys, then tag each row of loops with tags[r], descs[r].

    Rows are entered in stable order of `face` (row order if None), so the
    dicts keep the face-by-face order that a per-face build would give.
    """
    for k in old_keys:
        for d in (mesh.face_tags, mesh.surface_assoc, mesh.face_loops):
            d.pop(k, None)
    order = np.arange(len(loops)) if face is None else np.argsort(face, kind="stable")
    rows = loops[order]
    for r, loop, key in zip(order.tolist(), rows.tolist(), np.sort(rows, axis=1).tolist()):
        key = tuple(key)
        mesh.face_tags[key] = tags[r]
        mesh.surface_assoc[key] = descs[r]
        mesh.face_loops[key] = tuple(loop)


def _tagged(mesh: HexMesh, keep):
    """Sorted keys and (F, 4) loops of the tagged faces whose tag and
    descriptor pass keep(tag, desc)."""
    keys = sorted(k for k, tag in mesh.face_tags.items() if keep(tag, mesh.surface_assoc[k]))
    return keys, np.array([mesh.face_loops[k] for k in keys], dtype=np.int64).reshape(-1, 4)


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
    facet_info = {fid: classify_boundary_facet(f, cs.bed.domain, R)
                  for fid, f in enumerate(cs.facets) if not f.deleted and f.boundary is not None}
    listed = [(i, fid, q) for i in range(cs.n_real) for fid, q in patches.cell_quads(i)]
    cell = np.array([i for i, _, _ in listed], dtype=np.int64)
    quads = np.array([q for _, _, q in listed], dtype=np.int64).reshape(-1, 4)
    used_tess, outer = np.unique(quads.ravel(), return_inverse=True)

    # one inner node per (cell, tess node), numbered in order of first use
    ids, first = _first_seen(np.repeat(cell, 4) * len(patches.nodes) + quads.ravel())
    ci, t = cell[first // 4], quads.ravel()[first]
    ray = patches.nodes[t] - centers[ci]
    d = _norms(ray)
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
    columns = [dict() for _ in range(cs.n_real)]
    for i, tn, q, p in zip(ci.tolist(), t.tolist(), outer[first].tolist(),
                           range(len(used_tess), len(used_tess) + len(first))):
        columns[i][tn] = {"q": q, "p": p}
    elements = np.hstack([len(used_tess) + ids.reshape(-1, 4), outer.reshape(-1, 4)])

    mesh = HexMesh(
        nodes=np.vstack([patches.nodes[used_tess], centers[ci] + ray * (r_sweep / d)[:, None]]),
        elements=elements,
        face_tags={},
        surface_assoc={},
        face_loops={},
        elem_cell=cell,
        elem_layer=[0] * len(listed),
        sphere_centers=centers.copy(),
        sphere_radius=r_sweep,
        domain=cs.bed.domain,
        columns=columns,
    )
    # each element's sphere-side face, then its facet face if on the container
    on_wall = np.array([fid in facet_info for _, fid, _ in listed], dtype=bool)
    walls = [facet_info[fid] for _, fid, _ in listed if fid in facet_info]
    _retag(mesh, (), np.vstack([elements[:, _FACES[0]], elements[on_wall][:, _FACES[1]]]),
           [f"sphere:{i}" for i, _, _ in listed] + [tag for tag, _ in walls],
           [("sphere", i) for i, _, _ in listed] + [desc for _, desc in walls],
           face=np.concatenate([np.arange(len(listed)), np.flatnonzero(on_wall)]))
    audit_conformal(mesh)
    return mesh


def audit_conformal(mesh: HexMesh) -> dict:
    """Conformality audit over the sorted face table.

    Sorting the node ids of every element face, and then the faces, brings
    the copies of each face together, so a face's owner count is the length
    of its run. Every interior face must be shared by exactly two elements
    with opposite orientation (the loops agree once one is reversed and
    both start at their smallest node); every boundary face by exactly one,
    carrying exactly one tag. No other face may carry a tag, and every node
    must belong to an element. Raises TopologyError on any violation.
    """
    keys, order, starts, counts = _face_table(mesh.elements)
    over = np.flatnonzero(counts > 2)
    if len(over):
        key = tuple(keys[order[starts[over[0]]]].tolist())
        raise TopologyError(f"face {key} shared by {counts[over[0]]} elements")
    boundary = set(map(tuple, keys[order[starts[counts == 1]]].tolist()))
    untagged = sorted(boundary.difference(mesh.face_tags))
    if untagged:
        raise TopologyError(f"untagged boundary face {untagged[0]}")
    stray = sorted(set(mesh.face_tags) - boundary)
    if stray:
        key = stray[0]
        if (keys == key).all(axis=1).any():
            raise TopologyError(f"interior face {key} carries tag {mesh.face_tags[key]}")
        raise TopologyError(f"tagged face {key} is not a boundary face")
    del keys  # keep at most one (E*6, 4) array alive
    pair = starts[counts == 2]
    a = _loops(mesh.elements, order[pair])
    b = _loops(mesh.elements, order[pair + 1])[:, ::-1]
    flipped = np.flatnonzero((_rotate_to_min(a) != _rotate_to_min(b)).any(axis=1))
    if len(flipped):
        key = tuple(sorted(a[flipped[0]].tolist()))
        raise TopologyError(f"face {key} not oppositely oriented in its two owners")
    used = np.bincount(mesh.elements.ravel(), minlength=len(mesh.nodes))
    if len(used) > len(mesh.nodes) or not used.all():
        raise TopologyError(
            f"orphan nodes: {int((used[:len(mesh.nodes)] == 0).sum())} unreferenced"
        )
    return {"boundary_faces": len(boundary), "interior_faces": len(pair)}


def boundary_faces(mesh: HexMesh):
    """face key -> (loop, owner element id) for every face of the sorted
    face table that has one owner."""
    keys, order, starts, counts = _face_table(mesh.elements)
    rows = order[starts[counts == 1]]
    single = keys[rows].tolist()
    del keys
    loops = _loops(mesh.elements, rows).tolist()
    return {tuple(k): (tuple(loop), e)
            for k, loop, e in zip(single, loops, (rows // 6).tolist())}


def _owners(mesh: HexMesh, loops: np.ndarray) -> np.ndarray:
    """Owner element of each one-owner face in loops (F, 4), found by a
    binary search of the face table's sorted one-owner keys."""
    keys, order, starts, counts = _face_table(mesh.elements)
    rows = order[starts[counts == 1]]
    n = int(keys.max(initial=0)) + 1
    table = _codes(keys[rows], n)
    del keys
    want = _codes(np.sort(loops, axis=1), n)
    at = np.minimum(np.searchsorted(table, want), len(table) - 1)
    missing = np.flatnonzero(table[at] != want)
    if len(missing):
        key = tuple(sorted(loops[missing[0]].tolist()))
        raise TopologyError(f"face {key} is not a boundary face")
    return rows[at] // 6


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
    mid = dict(zip(zip(pu.tolist(), qu.tolist()), range(n, n + len(first))))
    for cols in out.columns:
        for roles in cols.values():
            if (roles["p"], roles["q"]) in mid:
                roles["m"] = mid[roles["p"], roles["q"]]

    # a tag on a lateral face splits onto the two child halves
    if mesh.face_tags:
        tagged = np.array(list(mesh.face_tags), dtype=np.int64)
        lateral = np.sort(mesh.elements[:, _FACES[2:]], axis=2).reshape(-1, 4)
        _, inv = np.unique(np.vstack([tagged, lateral]), axis=0, return_inverse=True)
        hit = np.flatnonzero(np.isin(inv[len(tagged):], inv[:len(tagged)]))
        child, fi = 2 * (hit // 4), hit % 4 + 2  # facet-side child; sphere-side is child + 1
        old = [tuple(k) for k in lateral[hit].tolist()]
        halves = np.stack([_loops(elements, 6 * child + fi), _loops(elements, 6 * child + 6 + fi)],
                          axis=1)
        _retag(out, old, halves.reshape(-1, 4), [mesh.face_tags[k] for k in old for _ in range(2)],
               [mesh.surface_assoc[k] for k in old for _ in range(2)])
    audit_conformal(out)
    return out


def _side_donors(mesh: HexMesh, keys, loops: np.ndarray, what: str):
    """Donor faces for the sides of a face set that is being extruded.

    Side s of loops[j] runs from corner s to corner s + 1. A side shared by
    two faces of the set stays inside the new layer and gets -1. Any other
    side becomes an exposed face that copies the tags of its donor: the
    first face in face_loops order, outside the set, that has the same
    edge. Returns the (F, 4) donor positions and the keys they index.
    """
    n = len(mesh.nodes)

    def edges(lp):
        b = np.roll(lp, -1, axis=1)
        return np.minimum(lp, b) * n + np.maximum(lp, b)

    inside = set(keys)
    others = [k for k in mesh.face_loops if k not in inside]
    mine = edges(loops)
    _, at, count = np.unique(mine, return_inverse=True, return_counts=True)
    exposed = count[at].reshape(mine.shape) != 2
    theirs = edges(np.array([mesh.face_loops[k] for k in others], dtype=np.int64).reshape(-1, 4))
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
    donor[exposed] = by[pos[exposed]] // 4
    return donor, others


def _sides(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(F, 4, 4) outward side faces (lo[s], lo[s+1], hi[s+1], hi[s]) of the
    layer between face loops lo and hi."""
    return np.stack([lo, np.roll(lo, -1, axis=1), np.roll(hi, -1, axis=1), hi], axis=2)


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
    keys, loops = _tagged(out, lambda tag, desc: tag.startswith("sphere:"))
    descs = [out.surface_assoc[k] for k in keys]
    cell = np.array([desc[1] for desc in descs], dtype=np.int64)
    rev = loops[:, ::-1]
    ids, first = _first_seen(rev.ravel())
    p, ci = rev.ravel()[first], cell[first // 4]
    roles_of = {roles["p"]: roles for cols in out.columns for roles in cols.values()}
    m = np.array([roles_of[v]["m"] for v in p.tolist()], dtype=np.int64)
    ray = out.nodes[p] - out.sphere_centers[ci]
    rho = _norms(ray)
    target = rho - spec.t_bl * _norms(out.nodes[p] - out.nodes[m])
    low = np.flatnonzero(target <= 0.5)
    if len(low):
        raise GeometryError(
            f"sphere {ci[low[0]]}: boundary-layer extrusion reaches {target[low[0]]:.3f}R"
        )
    n = len(out.nodes)
    for v, nid in zip(p.tolist(), range(n, n + len(p))):
        roles_of[v]["b"] = nid
    bl = np.hstack([n + ids.reshape(-1, 4), rev])
    tags = [out.face_tags[k] for k in keys]
    _grow(out, out.sphere_centers[ci] + ray * (target / rho)[:, None], bl, cell, ["bl"] * len(bl))
    _retag(out, keys, bl[:, _FACES[0]], tags, descs)
    out.sphere_radius = None  # surface is no longer a single sphere

    # --- curved-wall layers -------------------------------------------------
    keys, loops = _tagged(out, lambda tag, desc: tag in ("wall", "inner_wall")
                          and desc[0] == "cylinder")
    if keys:
        eid = _owners(out, loops)
        el = out.elements[eid]
        # uniform thickness from the mean sweep thickness of the wall hexes
        t_w = spec.t_bl * float(np.mean(_norms(out.nodes[el[:, :4]] - out.nodes[el[:, 4:]]).ravel()))
        pts = out.nodes[loops]
        normal = np.cross(pts[:, 1] - pts[:, 0], pts[:, 3] - pts[:, 0])
        normal /= _norms(normal)[:, None]
        # per node, the mean of its faces' normals summed in face order
        v, at = np.unique(loops.ravel(), return_inverse=True)
        mean = np.zeros((len(v), 3))
        np.add.at(mean, at, np.repeat(normal, 4, axis=0))
        mean /= np.bincount(at)[:, None]
        mean /= _norms(mean)[:, None]
        w = len(out.nodes) + at.reshape(-1, 4)
        out.wall_outer.update(zip(v.tolist(), range(len(out.nodes), len(out.nodes) + len(v))))
        tags = [out.face_tags[k] for k in keys]
        descs = [out.surface_assoc[k] for k in keys]
        _grow(out, out.nodes[v] + t_w * mean, np.hstack([loops, w]), out.elem_cell[eid],
              ["wall"] * len(keys))
        donor, others = _side_donors(out, keys, loops, "wall-layer")
        exposed = donor >= 0
        donors = [others[j] for j in donor[exposed].tolist()]
        _retag(out, keys, np.vstack([w, _sides(loops, w)[exposed]]),
               tags + [out.face_tags[k] for k in donors],
               descs + [out.surface_assoc[k] for k in donors],
               face=np.concatenate([np.arange(len(keys)), np.nonzero(exposed)[0]]))

    # --- inlet / outlet ducts ------------------------------------------------
    for kind, zdir, nlayers in (("inlet", -1.0, spec.inlet_layers),
                                ("outlet", 1.0, spec.outlet_layers)):
        if nlayers <= 0:
            continue
        _extrude_duct(out, kind, zdir, nlayers)
    audit_conformal(out)
    return out


def _extrude_duct(mesh: HexMesh, kind: str, zdir: float, nlayers: int) -> None:
    keys, loops = _tagged(mesh, lambda tag, desc: tag == kind)
    if not keys:
        return
    eid = _owners(mesh, loops)
    el = mesh.elements[eid]
    t = float(np.mean(_norms(mesh.nodes[el[:, :4]] - mesh.nodes[el[:, 4:]]).ravel()))
    # a column of nlayers nodes above each surface node, in order of first use
    ids, first = _first_seen(loops.ravel())
    column = np.repeat(mesh.nodes[loops.ravel()[first]][:, None, :], nlayers, axis=1)
    column[:, :, 2] += [zdir * k * t for k in range(1, nlayers + 1)]
    ring = [loops] + [len(mesh.nodes) + ids.reshape(-1, 4) * nlayers + k for k in range(nlayers)]
    donor, others = _side_donors(mesh, keys, loops, "duct")
    descs = [mesh.surface_assoc[k] for k in keys]
    _grow(mesh, column.reshape(-1, 3),
          np.stack([np.hstack(ring[k:k + 2]) for k in range(nlayers)], axis=1).reshape(-1, 8),
          np.repeat(mesh.elem_cell[eid], nlayers),
          [f"{kind}{k + 1}" for k in range(nlayers)] * len(keys))
    # per face: its exposed sides layer by layer, then its moved surface face
    exposed = donor >= 0
    donors = [others[j] for j in donor[exposed].tolist()] * nlayers
    sides = [_sides(lo, hi)[exposed] for lo, hi in zip(ring, ring[1:])]
    _retag(mesh, keys, np.vstack(sides + [ring[-1]]),
           [mesh.face_tags[k] for k in donors] + [kind] * len(keys),
           [mesh.surface_assoc[k] for k in donors]
           + [("plane", d[1], d[2] + zdir * nlayers * t, d[3]) for d in descs],
           face=np.concatenate([np.tile(np.nonzero(exposed)[0], nlayers), np.arange(len(keys))]))


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
