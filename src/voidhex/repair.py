"""Cell repair: sliver removal, long-edge splitting, guard projection.

Edge collapse runs in several passes with a geometric tolerance ramp so the
shortest edges disappear first, and no vertex moves twice in one pass. Long
edges are then bisected until they drop under the maximum, and every vertex
is kept outside a guard sphere slightly larger than the sweep radius.

Each collapse pass and each insertion round starts from one edge table
(`_edge_table`): the live facet loops flattened into (facet, vertex, next
vertex) rows, and one `np.unique` over their sorted endpoint keys, which
gives every edge once, in (u, v) order, with its length. The zone
tolerances and the collapse candidates are array passes over that table;
only the candidates are visited one by one, and the vertex-to-facet
incidence is read from the rows for their endpoints only. Guard projection
reads the same rows.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import GUARD_RADIUS, loop_is_simple, norms, polygon_area, push_outside
from .voronoi import VoronoiCellSet

log = logging.getLogger(__name__)


@dataclass
class RepairConfig:
    tol_inf: float = 0.35       # interior collapse tolerance, units of R
    tol_boundary: float = 0.25  # collapse tolerance within 2R of the boundary
    passes: int = 10
    max_edge: float = 0.8       # vertex-insertion threshold, units of R
    guard_radius: ClassVar[float] = GUARD_RADIUS  # fixed, shared with tessellation

    def __post_init__(self):
        if not (0 < self.tol_inf < self.max_edge):
            raise ValueError("need 0 < tol_inf < max_edge")
        if not (0 < self.tol_boundary < self.max_edge):
            raise ValueError("need 0 < tol_boundary < max_edge")
        if self.passes < 1:
            raise ValueError("need passes >= 1")

    def pass_tolerance(self, k: int) -> float:
        """Tolerance ramp factor for pass k (fraction of the final tol)."""
        return 0.6 ** (8 - k) if k <= 8 else 1.0


class EdgeTable(NamedTuple):
    """The unique live edges of a cell set, sorted by (u, v) with u < v,
    and the loop rows (see `_loop_rows`) they come from."""

    u: np.ndarray        # (E,) lower endpoint
    v: np.ndarray        # (E,) higher endpoint
    length: np.ndarray   # (E,) |points[u] - points[v]|
    fid: np.ndarray      # (N,) facet id of each loop row
    vertex: np.ndarray   # (N,) loop vertex of each row
    edge: np.ndarray     # (N,) edge from that vertex to the next one


def _loop_rows(cs: VoronoiCellSet):
    """The live facet loops flattened into rows: per loop vertex, the facet
    id, the vertex and the next vertex of its loop."""
    live = [fid for fid, f in enumerate(cs.facets) if not f.deleted]
    loops = [cs.facets[fid].loop for fid in live]
    lens = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    ends = np.cumsum(lens)
    vertex = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(lens.sum()))
    fid = np.repeat(np.array(live, dtype=np.int64), lens)
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = ends - lens
    return fid, vertex, vertex[nxt]


def _edge_table(cs: VoronoiCellSet) -> EdgeTable:
    """The edge table of the live loops, from one `np.unique` over the rows."""
    fid, vertex, nxt = _loop_rows(cs)
    P = len(cs.points)
    keys, edge = np.unique(np.minimum(vertex, nxt) * P + np.maximum(vertex, nxt),
                           return_inverse=True)
    u, v = keys // P, keys % P
    return EdgeTable(u, v, norms(cs.points[u] - cs.points[v]), fid, vertex, edge)


def _facet_sites(cs: VoronoiCellSet):
    """site_a and site_b of every facet, deleted ones included."""
    m = len(cs.facets)
    return (np.fromiter((f.site_a for f in cs.facets), dtype=np.int64, count=m),
            np.fromiter((f.site_b for f in cs.facets), dtype=np.int64, count=m))


def boundary_zone(cs: VoronoiCellSet) -> np.ndarray:
    """Real cells whose site is within 2R of the container boundary."""
    R = cs.bed.radius_nominal
    clear = cs.bed.domain.wall_clearance(cs.bed.centers)
    return clear < 2.0 * R


def _facet_zone(cs: VoronoiCellSet) -> np.ndarray:
    """Per facet, deleted ones included: does it bound a real cell of the
    boundary zone?"""
    site_a, site_b = _facet_sites(cs)
    in_zone = np.append(boundary_zone(cs), False)  # every ghost site maps to the last entry
    return in_zone[site_a] | in_zone[np.minimum(site_b, cs.n_real)]


def _base_tolerance(edges: EdgeTable, facet_zone, cfg: RepairConfig) -> np.ndarray:
    """Base collapse tolerance per edge: ``tol_boundary`` if any facet on
    the edge is in the boundary zone, else ``tol_inf``."""
    edge_zone = np.zeros(len(edges.u), dtype=bool)
    edge_zone[edges.edge[facet_zone[edges.fid]]] = True
    return np.where(edge_zone, cfg.tol_boundary, cfg.tol_inf)


def _squeeze(loop):
    """Drop consecutive duplicates, circularly."""
    out = []
    for v in loop:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _collapse_ok(cs: VoronoiCellSet, u: int, v: int, mid, touched_fids) -> bool:
    """Would fusing v into u (at mid) keep every touched facet loop valid?"""
    for fid in touched_fids:
        f = cs.facets[fid]
        loop = _squeeze([u if w == v else w for w in f.loop])
        if len(loop) < 3:
            continue  # facet degenerates and will be deleted: allowed
        if len(set(loop)) != len(loop):
            return False  # pinched loop
        rel = np.array([mid if w == u else cs.points[w] for w in loop]) - f.plane_point
        pts2 = list(zip((rel @ f.e1).tolist(), (rel @ f.e2).tolist()))
        if abs(polygon_area(pts2)) < 1e-16:
            return False
        if not loop_is_simple(pts2):
            return False
    return True


def collapse_edges(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Multi-pass global edge collapse; returns the (mutated) cell set.

    Shortest edges go first; a collapse fuses both endpoints at the edge
    midpoint across every facet that shares the edge; facets left with
    fewer than 3 edges are deleted. A collapse that would pinch or
    self-intersect a facet loop is skipped and logged. Cleanup passes at
    the full tolerance run after the schedule until no edge is left
    below it.
    """
    facet_zone = _facet_zone(cs)
    R = cs.bed.radius_nominal
    k = 0
    extra = 0
    while True:
        k += 1
        if k > cfg.passes:
            extra += 1
            if extra > 40:
                log.warning("edge collapse did not reach a fixpoint after 40 cleanup passes")
                break
        factor = cfg.pass_tolerance(min(k, 9))
        changed = _collapse_pass(cs, cfg, facet_zone, factor, k, R, oplog)
        if k >= cfg.passes and not changed:
            break
        guard_projection(cs, cfg, oplog=oplog)
    return cs


def _collapse_pass(cs, cfg, facet_zone, factor, pass_no, R, oplog) -> int:
    edges = _edge_table(cs)
    tol = _base_tolerance(edges, facet_zone, cfg) * factor * R
    cand = np.flatnonzero(edges.length < tol)
    cand = cand[np.lexsort((edges.v[cand], edges.u[cand], edges.length[cand]))]
    # vertex -> live facets, for the candidates' endpoints only
    endpoints = np.unique(np.concatenate([edges.u[cand], edges.v[cand]]))
    by_vertex = np.argsort(edges.vertex, kind="stable")
    rows = edges.vertex[by_vertex]
    lo = np.searchsorted(rows, endpoints, side="left").tolist()
    hi = np.searchsorted(rows, endpoints, side="right").tolist()
    fids = edges.fid[by_vertex].tolist()
    incidence = {w: fids[a:b] for w, a, b in zip(endpoints.tolist(), lo, hi)}
    moved = set()
    n_done = 0
    for u, v, L, tol_uv in zip(edges.u[cand].tolist(), edges.v[cand].tolist(),
                               edges.length[cand].tolist(), tol[cand].tolist()):
        if u in moved or v in moved:
            continue
        # neither end has moved in this pass, so each keeps its facets,
        # but a facet may have been deleted by another collapse
        touched = sorted(fid for fid in {*incidence[u], *incidence[v]}
                         if not cs.facets[fid].deleted)
        mid = 0.5 * (cs.points[u] + cs.points[v])
        if not _collapse_ok(cs, u, v, mid, touched):
            if oplog is not None:
                oplog.append({"op": "collapse_skipped", "pass": pass_no,
                              "edge": [u, v], "length": L})
            log.debug("skipped collapse of edge (%d, %d): would invalidate a loop", u, v)
            continue
        cs.points[u] = mid
        for fid in touched:
            f = cs.facets[fid]
            f.loop = _squeeze([u if w == v else w for w in f.loop])
            if len(f.loop) < 3:
                f.deleted = True
        moved.add(u)
        moved.add(v)
        n_done += 1
        if oplog is not None:
            oplog.append({"op": "collapse", "pass": pass_no, "edge": [u, v],
                          "length": L, "tolerance": tol_uv, "facets": touched})
    return n_done


def insert_vertices(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Bisect every facet edge longer than max_edge, consistently everywhere.

    Splitting is recursive: an edge of length L gets 2^m - 1 equally spaced
    points with m = ceil(log2(L / max_edge)), which is what repeated
    midpoint bisection produces for a straight edge.
    """
    R = cs.bed.radius_nominal
    limit = cfg.max_edge * R
    for _round in range(10):
        edges = _edge_table(cs)
        long_edges = np.flatnonzero(edges.length > limit)
        if not len(long_edges):
            break
        new_points = []
        splits = {}
        base = len(cs.points)
        for u, v, L in zip(edges.u[long_edges].tolist(), edges.v[long_edges].tolist(),
                           edges.length[long_edges].tolist()):
            m = max(1, math.ceil(math.log2(L / limit)))
            params = [i / 2**m for i in range(1, 2**m)]
            ids = list(range(base + len(new_points), base + len(new_points) + len(params)))
            for t in params:
                new_points.append((1 - t) * cs.points[u] + t * cs.points[v])
            splits[(u, v)] = ids
            if oplog is not None:
                oplog.append({"op": "insert", "edge": [u, v], "length": L,
                              "pieces": 2**m, "new_vertices": ids})
        cs.points = np.vstack([cs.points, np.array(new_points)])
        is_long = np.zeros(len(edges.u), dtype=bool)
        is_long[long_edges] = True
        for fid in np.unique(edges.fid[is_long[edges.edge]]).tolist():
            f = cs.facets[fid]
            out = []
            loop = f.loop
            for a, b in zip(loop, loop[1:] + loop[:1]):
                out.append(a)
                key = (a, b) if a < b else (b, a)
                if key in splits:
                    ids = splits[key]
                    out.extend(ids if a < b else list(reversed(ids)))
            f.loop = out
        guard_projection(cs, cfg, oplog=oplog)
    else:
        log.warning("vertex insertion did not settle after 10 rounds")
    return cs


def guard_projection(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Push any vertex inside the guard sphere of a real cell it bounds out
    to the guard radius (see `geometry.push_outside`)."""
    fid, verts, _ = _loop_rows(cs)
    site_a, site_b = _facet_sites(cs)
    site_a, site_b = site_a[fid], site_b[fid]
    real = site_b < cs.n_real
    pairs = np.vstack([np.column_stack([verts, site_a]),
                       np.column_stack([verts[real], site_b[real]])])
    guard = cfg.guard_radius * cs.bed.radius_nominal
    pushes = push_outside(cs.points, pairs, cs.bed.centers, guard)
    if oplog is not None:
        oplog.extend({"op": "guard_push", "vertex": v, "cell": c, "from_distance": d}
                     for v, c, d in pushes)
    return cs


def repair(cs: VoronoiCellSet, cfg: RepairConfig | None = None, log_path=None) -> VoronoiCellSet:
    """Full repair: collapse passes, guard projection, vertex insertion."""
    cfg = cfg or RepairConfig()
    oplog: list = []
    collapse_edges(cs, cfg, oplog=oplog)
    guard_projection(cs, cfg, oplog=oplog)
    insert_vertices(cs, cfg, oplog=oplog)
    if log_path is not None:
        with open(log_path, "w") as fh:
            for rec in oplog:
                fh.write(json.dumps(rec) + "\n")
    return cs


def edge_lengths(cs: VoronoiCellSet, cfg: RepairConfig | None = None):
    """(length, base tolerance) per unique live edge, with the base
    tolerances of ``cfg`` (default: `RepairConfig()`); for audits."""
    cfg = cfg or RepairConfig()
    edges = _edge_table(cs)
    tol = _base_tolerance(edges, _facet_zone(cs), cfg)
    return list(zip(edges.length.tolist(), tol.tolist()))
