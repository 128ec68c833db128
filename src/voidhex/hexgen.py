"""Hex mesh generation: sweep, merge, radial refinement, extrusion.

Every facet quad is swept onto the sphere bounded by its cell, giving one
hex layer, '0', per cell. Cells merge into a single conformal mesh through
the shared tessellation node pool. Every later layer grows through one
routine, `_grow_layers`, which alone appends nodes, elements and face rows.
The radial split moves each swept node 55% of the way along its sweep line
and grows layer '1' from there back to the sphere. Then one layer grows
inward on every sphere, one outward on curved container walls, and
inlet/outlet duct layers on the z planes.

The elements are the one record of the sweep lines: corners k + 4 -> k of
a hex in layer 0, 1 or 'bl' step inward along one line, from the facet
node q through the split node m and the swept node p to the sphere-layer
node b. `HexMesh.columns` reads the lines off those elements.

The boundary faces are rows of the face table: row 6 * e + f is local face
f of element e, whose outward loop `_loops` reads off the element. Each
tagged row carries the id of its surface, whose descriptor `surface_tag`
names. Every new face that a step makes is a known local face of a new
element, so its row is plain arithmetic.

A mesh has one surface per sphere, one per container wall, one per wall
for the facets that only face it, and one per duct top. A boundary facet's
wall is read from the ghost behind it (`boundary_surfaces`), not from its
plane, so no tolerance decides it.

Each stage audits what it builds. `sweep` builds every face, so it ends
with the audit of a whole mesh, `audit_conformal`. `_grow_layers` ends with
an audit of its own growth, `_audit_growth`: the faces of its new elements
and of the tag rows they replaced, which is all a growth can break. Both
share one checking core over one sorted face table, keyed by one int64 per
face (`_face_table`). So every mesh a stage returns passes
`audit_conformal`, which stays public for callers that audit a final mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bed import RADIAL, Wall
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

    def __post_init__(self):
        if not self.t_bl > 0:
            raise ValidationError(f"need t_bl > 0, got {self.t_bl}")
        for name in ("inlet_layers", "outlet_layers"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValidationError(f"need an integer {name} >= 0, got {value}")


@dataclass
class HexMesh:
    nodes: np.ndarray                  # (P, 3)
    elements: np.ndarray               # (E, 8) int64
    faces: np.ndarray                  # (F,) int64 face-table rows 6 * element + local face
    face_surface: np.ndarray           # (F,) int64 surface id of each row
    surfaces: list                     # (S,) descriptor of each surface; surface i is sphere i
    elem_cell: np.ndarray              # (E,) owning sphere per element
    elem_layer: np.ndarray             # (E,) str layer label: '0', '1', 'bl', 'wall', ...
    sphere_centers: np.ndarray
    radius: float                      # the bed's sphere radius R

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def columns(self) -> list:
        """Per cell, {q: {role: node}} of its sweep lines: roles q, p after
        `sweep`, q, m, p after `refine_radial`, whose m keeps the swept p's
        id, and q, m, p, b after `extrude_layers`. A read-only view of the
        layer 0, 1 and 'bl' elements, built on each call."""
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


def surface_tag(desc) -> str:
    """The tag of a surface descriptor: 'sphere:i' on sphere i; on a
    `Wall`, 'inlet' or 'outlet' for a z plane by its outward sign,
    'inner_wall' for an inward facing cylinder and 'wall' for any other;
    and 'wall' on a surface that only faces a wall."""
    if desc[0] == "sphere":
        return f"sphere:{desc[1]}"
    if isinstance(desc, Wall) and desc.axis == 2:
        return "inlet" if desc.sign < 0 else "outlet"
    if isinstance(desc, Wall) and desc.axis == RADIAL and desc.sign < 0:
        return "inner_wall"
    return "wall"


def boundary_surfaces(cs) -> tuple[list, np.ndarray]:
    """The surfaces of a cell set's mesh, and each facet's surface id.

    Surface i < n_real is sphere i. Then come the container's walls, as
    their `Wall` rows, and then, per wall, a ('facing', wall) surface for
    the facets that face the wall without lying on it. A live boundary
    facet against ghost g lies on wall ``ghost_wall[g]`` exactly when g
    reflects the facet's own site (``ghost_parent[g] == site_a``); against
    a neighbour's ghost, or a ghost of a ghost, it only faces that wall.
    Any other facet gets -1.
    """
    n, walls = cs.n_real, cs.bed.domain.walls
    surfaces = [("sphere", i) for i in range(n)] + list(walls) + [("facing", w) for w in walls]
    at = np.flatnonzero((cs.site_b >= n) & (np.diff(cs.loop_start) >= 3))
    g = cs.site_b[at] - n
    facet_surface = np.full(len(cs.site_b), -1)
    facet_surface[at] = n + cs.ghost_wall[g] + len(walls) * (cs.ghost_parent[g] != cs.site_a[at])
    return surfaces, facet_surface


def _face_table(loops: np.ndarray):
    """The sorted face table of (R, 4) face loops.

    Returns (order, starts, counts): the row order in which rows with the
    same node ids are adjacent, distinct faces in ascending order of their
    sorted ids (their keys); and, per distinct face, where its rows start in
    that order and how many there are (its owners).

    Each row sorts by one int64 code of its key's three smallest ids, or of
    its two smallest once the node count reaches 2^21, where three would
    overflow. Runs of one code that hold different faces are then put in
    key order by the rest of the key, over those rows only.
    """
    # each row's key by a 5-comparator sorting network over the columns
    k = list(loops.T)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        k[i], k[j] = np.minimum(k[i], k[j]), np.maximum(k[i], k[j])
    n = int(k[3].max(initial=0)) + 1
    if n < 1 << 21:
        code, rest = (k[0] * n + k[1]) * n + k[2], k[3]
    else:
        code, rest = k[0] * n + k[1], k[2] * n + k[3]
    del k
    order = np.argsort(code)
    code, rest = code[order], rest[order]
    same = code[1:] == code[:-1]
    del code
    tie = same & (rest[1:] != rest[:-1])
    if tie.any():
        run = np.concatenate([[0], np.cumsum(~same)])
        mixed = np.zeros(run[-1] + 1, dtype=bool)
        mixed[run[1:][tie]] = True
        at = np.flatnonzero(mixed[run])
        by = at[np.lexsort((rest[at], run[at]))]
        order[at], rest[at] = order[by], rest[by]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ~same | (rest[1:] != rest[:-1])
    starts = np.flatnonzero(new)
    return order, starts, np.diff(starts, append=len(order))


def _loops(elements: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Outward node loops of face-table rows."""
    return elements[(rows // 6)[:, None], _FACES[rows % 6]]


def _select(mesh: HexMesh, keep) -> np.ndarray:
    """Positions in the tag table of the rows whose surface descriptor
    passes keep, in the order of their sorted node keys."""
    at = np.flatnonzero(np.array([keep(d) for d in mesh.surfaces], dtype=bool)[mesh.face_surface])
    keys = np.sort(_loops(mesh.elements, mesh.faces[at]), axis=1)
    return at[np.lexsort(keys.T[::-1])]


def sweep(patches: FacetQuadMesh, R0: float = R0_DEFAULT) -> HexMesh:
    """Sweep every facet quad onto its cell sphere and merge the cells.

    Outer corners are the facet quad nodes; inner corners sit on the
    sphere of radius R0 about the cell center, along the center-node ray.
    One element layer per cell results. Each element's sphere face is
    tagged with its sphere, and its facet face, if the facet is on the
    container, with the facet's surface from `boundary_surfaces`.
    """
    cs = patches.cellset
    R = cs.bed.radius_nominal
    centers = cs.bed.centers
    r_sweep = R0 * R
    surfaces, facet_surface = boundary_surfaces(cs)
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
        radius=R,
    )
    audit_conformal(mesh)
    return mesh


def audit_conformal(mesh: HexMesh) -> dict:
    """Conformality audit of a whole mesh over its sorted face table.

    Every interior face must be shared by exactly two elements with
    opposite orientation and carry no tag; every boundary face by exactly
    one, carrying exactly one tag; and every node must belong to an
    element (`_check_faces`, `_check_used`). Raises TopologyError on any
    violation. `sweep` runs it on the mesh it builds; each later layer is
    audited where it grows (`_audit_growth`), so every mesh that hexgen
    returns passes it.
    """
    loops = mesh.elements[:, _FACES].reshape(-1, 4)
    counts, shared = _check_faces(loops, _face_table(loops), mesh.faces, mesh.face_surface,
                                  mesh.surfaces)
    _check_used(mesh.elements, len(mesh.nodes), 0)
    return {"boundary_faces": int((counts == 1).sum()), "interior_faces": shared}


def _key(loops: np.ndarray, order: np.ndarray, starts: np.ndarray, f: int) -> tuple:
    """The sorted node ids of distinct face f of a face table."""
    return tuple(sorted(loops[order[starts[f]]].tolist()))


def _check_faces(loops: np.ndarray, table, tagged: np.ndarray, tag_surface: np.ndarray,
                 surfaces):
    """The face checks of a conformality audit, on the face rows ``loops``,
    sorted into ``table`` by `_face_table`, of which rows ``tagged`` carry
    the surfaces ``tag_surface``.

    The sort brings the copies of each face together, so a face's owner
    count is the length of its run. A face may have at most two owners,
    which run oppositely (one loop is the other reversed, up to rotation);
    a face of two carries no tag and a face of one exactly one. Raises
    TopologyError at the first check that fails, in that order, naming its
    first face in key order. Returns each face's owner count and the number
    of faces with two.
    """
    order, starts, counts = table

    def key(f):
        return _key(loops, order, starts, f)

    over = np.flatnonzero(counts > 2)
    if len(over):
        raise TopologyError(f"face {key(over[0])} shared by {counts[over[0]]} elements")
    face = np.empty(len(order), dtype=np.int64)
    face[order] = np.repeat(np.arange(len(starts)), counts)
    tagged = face[tagged]
    tags = np.bincount(tagged, minlength=len(starts))
    untagged = np.flatnonzero((counts == 1) & (tags == 0))
    if len(untagged):
        raise TopologyError(f"untagged boundary face {key(untagged[0])}")
    stray = np.flatnonzero((counts == 2) & (tags > 0))
    if len(stray):
        desc = surfaces[tag_surface[np.flatnonzero(tagged == stray[0])[0]]]
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
    return counts, len(shared)


def _check_used(elements: np.ndarray, n_nodes: int, start: int) -> None:
    """Raise TopologyError unless ``elements`` use every node from
    ``start`` on, of ``n_nodes``, and no other node past them."""
    used = np.bincount(elements.ravel(), minlength=n_nodes)[start:]
    if len(used) > n_nodes - start or not used.all():
        raise TopologyError(
            f"orphan nodes: {int((used[:n_nodes - start] == 0).sum())} unreferenced"
        )


def _audit_growth(mesh: HexMesh, n: int, first: int, replaced: np.ndarray, kept: int) -> None:
    """Conformality audit of one growth of a conformal mesh.

    The growth added the nodes from n on and the elements from ``first``
    on, removed the tag rows of the old face-table rows ``replaced`` and
    appended its own tag rows after the ``kept`` old ones. Only the new
    elements' faces and the replaced faces can have changed, so the face
    checks of `audit_conformal` run over those rows alone, against the new
    tag rows. A new face whose nodes are all old is the one kind that could
    coincide with an old face outside these rows, so it must be a replaced
    face; that check comes first. Every new node must be used. Raises
    TopologyError, with `audit_conformal`'s messages for its checks, so the
    grown mesh passes `audit_conformal` whenever this audit passes.
    """
    grown = mesh.elements[first:, _FACES].reshape(-1, 4)
    loops = np.vstack([grown, _loops(mesh.elements, replaced)])
    order, starts, _ = table = _face_table(loops)
    # the rows of a face hold the same ids, so one row tells if the face is
    # of old nodes; its largest row number, if a replaced row holds it
    top = np.maximum(np.maximum(grown[:, 0], grown[:, 1]), np.maximum(grown[:, 2], grown[:, 3]))
    old = np.append(top < n, np.ones(len(replaced), dtype=bool))
    alone = np.flatnonzero(old[order[starts]] & (np.maximum.reduceat(order, starts) < len(grown)))
    if len(alone):
        raise TopologyError(f"new face {_key(loops, order, starts, alone[0])} of old nodes "
                            "is not a face the growth replaced")
    _check_faces(loops, table, mesh.faces[kept:] - 6 * first, mesh.face_surface[kept:],
                 mesh.surfaces)
    _check_used(mesh.elements[first:], len(mesh.nodes), n)


def refine_radial(mesh: HexMesh, split: float = 0.55) -> HexMesh:
    """Split each swept hex in two along the sweep direction.

    Each sphere-face node p moves to `split` of the way from its facet
    node q, so the facet-side child is thicker (55/45 by default), and the
    sphere-side child grows back to p's old place as the inward layer '1'.
    The element count exactly doubles; no other cell is touched.
    """
    if not (0.0 < split < 1.0):
        raise ValidationError("split must lie in (0, 1)")
    if (mesh.elem_layer != "0").any():
        raise ValidationError("refine_radial supports exactly one split; mesh already refined")
    at, rev, ids, p, q, _ = _sphere_faces(mesh)
    nodes, swept = mesh.nodes.copy(), mesh.nodes[p]
    nodes[p] = mesh.nodes[q] + split * (swept - mesh.nodes[q])
    out = replace(mesh, nodes=nodes)
    _grow_layers(out, at, rev, ids, swept[:, None], ["1"], mesh.face_surface[at], inward=True)
    return out


def _sphere_faces(mesh: HexMesh):
    """(at, rev, ids, p, up, cell) of the sphere faces, each face 0 of its
    element: their positions in the tag table (`_select`), their reversed
    loops over corners (1, 2, 3, 0), those loops' first-use ids and nodes
    p, the node at corner k + 4 above each p and each p's sphere. Raises
    ValidationError unless there is one sphere face per layer-0 element."""
    at = _select(mesh, lambda d: d[0] == "sphere")
    n0 = int((mesh.elem_layer == "0").sum())
    if len(at) != n0:
        raise ValidationError(
            f"need one sphere face per layer-0 element, got {len(at)} for {n0}")
    eid = mesh.faces[at] // 6
    corner = _FACES[0][::-1]
    rev = mesh.elements[eid[:, None], corner]
    ids, first = first_seen(rev.ravel())
    up = mesh.elements[eid[:, None], corner + 4].ravel()[first]
    return at, rev, ids.reshape(-1, 4), rev.ravel()[first], up, mesh.face_surface[at][first // 4]


def _sides(mesh: HexMesh, at: np.ndarray, loops: np.ndarray, first: int, labels):
    """The side faces of len(labels) layers grown from the tagged faces at
    positions `at`, whose outward loops are `loops`.

    Face j grows elements first + j * L + k, k < L = len(labels), whose
    side s is local face 2 + s, over side s of loops[j], from corner s to
    corner s + 1. A side shared by two faces of the set stays inside the
    new layers and gets surface -1. Any other side becomes an exposed face
    that copies the surface of its donor: the first tagged face in table
    order, outside the set, that has the same edge. Returns the (F, L * 4)
    rows and surface ids of the sides, layer by layer.
    """
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


def _grow_layers(mesh: HexMesh, at: np.ndarray, loops: np.ndarray, ids: np.ndarray,
                 xyz: np.ndarray, labels, far, inward: bool = False) -> None:
    """Grow L = len(labels) layers from the tagged faces at positions `at`.

    Face j grows on its loop loops[j]: the node of its corner c in layer
    k + 1 is n + ids[j, c] * L + k, at xyz[ids[j, c], k], and its layer k
    element spans from layer k to k + 1 on the base, or from k + 1 to k
    ``inward``, so that corners k + 4 -> k still step toward the sphere.
    Each new element takes its source element's cell and its layer's
    label. The face's tag moves to the far face of its last layer, on
    surface far[j], and the exposed sides take their donors' surfaces
    (`_sides`); inward layers close a sphere and have none. The growth
    ends with its own audit (`_audit_growth`), so a conformal mesh stays
    conformal.
    """
    n, first, nlayers = len(mesh.nodes), len(mesh.elements), len(labels)
    ring = [loops] + [n + ids * nlayers + k for k in range(nlayers)]
    base, top = (ring[1:], ring[:-1]) if inward else (ring[:-1], ring[1:])
    mesh.nodes = np.vstack([mesh.nodes, xyz.reshape(-1, 3)])
    mesh.elements = np.vstack([mesh.elements, np.stack(
        [np.hstack(bt) for bt in zip(base, top)], axis=1).reshape(-1, 8)])
    mesh.elem_cell = np.concatenate(
        [mesh.elem_cell, np.repeat(mesh.elem_cell[mesh.faces[at] // 6], nlayers)])
    mesh.elem_layer = np.concatenate([mesh.elem_layer, np.tile(labels, len(at))])
    # the far face of each face's last layer: its base (0) inward, else its top (1)
    rows = 6 * (first + np.arange(len(at)) * nlayers + nlayers - 1)[:, None] + (0 if inward else 1)
    surface = np.asarray(far)[:, None]
    if not inward:
        sides, on = _sides(mesh, at, loops, first, labels)
        rows, surface = np.hstack([sides, rows]), np.hstack([on, surface])
    keep = np.ones(len(mesh.faces), dtype=bool)
    keep[at] = False
    new = surface >= 0  # a side inside the new layers is not a boundary face
    replaced = mesh.faces[at]
    mesh.faces = np.concatenate([mesh.faces[keep], rows[new]])
    mesh.face_surface = np.concatenate([mesh.face_surface[keep], surface[new]])
    _audit_growth(mesh, n, first, replaced, int(keep.sum()))


def _line_lengths(mesh: HexMesh, eid: np.ndarray) -> np.ndarray:
    """(len(eid), 4) lengths of the sweep-line edges (corner k, k + 4) of elements eid."""
    el = mesh.elements[eid]
    return norms(mesh.nodes[el[:, :4]] - mesh.nodes[el[:, 4:]])


def extrude_layers(mesh: HexMesh, spec: ExtrusionSpec | None = None) -> HexMesh:
    """Add boundary layers: spheres inward, curved walls outward, z ducts.

    Sphere faces gain one thin layer toward the sphere: each node moves
    radially inward by t_bl times the length of its sweep line, so the new
    faces, which take the sphere's surface, lie at no one radius.
    Curved-wall faces gain one outward layer, t_bl times the mean sweep
    line of the wall hexes thick, along each node's mean face normal; its
    outer faces keep the wall's surface but are not moved onto the
    analytic wall. The bottom z wall grows ``inlet_layers`` duct layers
    downward and the top one ``outlet_layers`` upward, each as thick as the
    mean sweep line of its wall hexes, and the last layer's top is a new
    wall surface moved to match. Every layer grows through `_grow_layers`.
    """
    spec = spec or ExtrusionSpec()
    if not (mesh.elem_layer == "1").any():
        raise ValidationError("extrude_layers expects a radially refined mesh")
    out = replace(mesh, surfaces=list(mesh.surfaces))  # the duct step appends a surface

    # --- sphere boundary layers -------------------------------------------
    # corner k + 4 above each p is its split node m; surface i is sphere i
    at, rev, ids, p, m, ci = _sphere_faces(out)
    thick = norms(out.nodes[p] - out.nodes[m])
    ray = out.nodes[p] - out.sphere_centers[ci]
    rho = norms(ray)
    target = rho - spec.t_bl * thick
    low = np.flatnonzero(target <= 0.5 * out.radius)
    if len(low):
        raise GeometryError(
            f"sphere {ci[low[0]]}: boundary-layer extrusion reaches "
            f"{target[low[0]] / out.radius:.3f}R"
        )
    xyz = out.sphere_centers[ci] + ray * (target / rho)[:, None]
    _grow_layers(out, at, rev, ids, xyz[:, None], ["bl"], out.face_surface[at], inward=True)

    # --- curved-wall layers -------------------------------------------------
    at = _select(out, lambda d: isinstance(d, Wall) and d.axis == RADIAL)
    if len(at):
        loops = _loops(out.elements, out.faces[at])
        # uniform thickness from the mean sweep thickness of the wall hexes
        t_w = spec.t_bl * float(np.mean(_line_lengths(out, out.faces[at] // 6).ravel()))
        pts = out.nodes[loops]
        normal = np.cross(pts[:, 1] - pts[:, 0], pts[:, 3] - pts[:, 0])
        normal /= norms(normal)[:, None]
        # per node, the mean of its faces' normals summed in face order
        v, inv = np.unique(loops.ravel(), return_inverse=True)
        mean = np.zeros((len(v), 3))
        np.add.at(mean, inv, np.repeat(normal, 4, axis=0))
        mean /= np.bincount(inv)[:, None]
        mean /= norms(mean)[:, None]
        _grow_layers(out, at, loops, inv.reshape(-1, 4), (out.nodes[v] + t_w * mean)[:, None],
                     ["wall"], out.face_surface[at])

    # --- inlet / outlet ducts ------------------------------------------------
    # nlayers along z from the z wall facing zdir, a column of nodes above each
    # surface node in order of first use; the last top is on a new, moved wall
    for zdir, nlayers in ((-1.0, spec.inlet_layers), (1.0, spec.outlet_layers)):
        wall = next((d for d in out.surfaces
                     if isinstance(d, Wall) and d.axis == 2 and d.sign == zdir), None)
        at = _select(out, lambda d: d == wall)
        if nlayers == 0 or not len(at):
            continue
        loops = _loops(out.elements, out.faces[at])
        t = float(np.mean(_line_lengths(out, out.faces[at] // 6).ravel()))
        ids, first = first_seen(loops.ravel())
        column = np.repeat(out.nodes[loops.ravel()[first]][:, None, :], nlayers, axis=1)
        column[:, :, 2] += [zdir * k * t for k in range(1, nlayers + 1)]
        out.surfaces.append(wall._replace(value=wall.value + zdir * nlayers * t))
        _grow_layers(out, at, loops, ids.reshape(-1, 4), column,
                     [f"{surface_tag(wall)}{k + 1}" for k in range(nlayers)],
                     np.full(len(at), len(out.surfaces) - 1))
    return out


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
