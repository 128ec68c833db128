"""Cell repair: sliver removal, long-edge splitting, guard projection.

Edge collapse runs in several passes with a geometric tolerance ramp so the
shortest edges disappear first, and no vertex moves twice in one pass. Long
edges are then bisected until they drop under the maximum, and every vertex
is kept outside a guard sphere slightly larger than the sweep radius.
"""

from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

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
        if self.passes < 1:
            raise ValueError("need passes >= 1")

    def pass_tolerance(self, k: int) -> float:
        """Tolerance ramp factor for pass k (fraction of the final tol)."""
        return 0.6 ** (8 - k) if k <= 8 else 1.0


def _edge_map(cs: VoronoiCellSet):
    """Undirected edge -> sorted list of live facet ids."""
    edges = defaultdict(list)
    for fid, f in enumerate(cs.facets):
        if f.deleted:
            continue
        loop = f.loop
        for u, v in zip(loop, loop[1:] + loop[:1]):
            edges[(u, v) if u < v else (v, u)].append(fid)
    return edges


def _lengths(cs: VoronoiCellSet, edges) -> list:
    """Length of each edge of an edge map, in its order, from one array pass."""
    uv = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return norms(cs.points[uv[:, 0]] - cs.points[uv[:, 1]]).tolist()


def boundary_zone(cs: VoronoiCellSet) -> np.ndarray:
    """Real cells whose site is within 2R of the container boundary."""
    R = cs.bed.radius_nominal
    clear = cs.bed.domain.wall_clearance(cs.bed.centers)
    return clear < 2.0 * R


def _edge_base_tol(cs: VoronoiCellSet, zone, fids, cfg: RepairConfig) -> float:
    for fid in fids:
        f = cs.facets[fid]
        if zone[f.site_a] or (f.site_b < cs.n_real and zone[f.site_b]):
            return cfg.tol_boundary
    return cfg.tol_inf


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
    zone = boundary_zone(cs)
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
        changed = _collapse_pass(cs, cfg, zone, factor, k, R, oplog)
        if k >= cfg.passes and not changed:
            break
        guard_projection(cs, cfg, oplog=oplog)
    return cs


def _collapse_pass(cs, cfg, zone, factor, pass_no, R, oplog) -> int:
    edges = _edge_map(cs)
    incidence = defaultdict(set)
    for fid, f in enumerate(cs.facets):
        if not f.deleted:
            for w in f.loop:
                incidence[w].add(fid)
    candidates = []
    for ((u, v), fids), L in zip(edges.items(), _lengths(cs, edges)):
        tol = _edge_base_tol(cs, zone, fids, cfg) * factor * R
        if L < tol:
            candidates.append((L, u, v, tol))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    moved = set()
    n_done = 0
    for L, u, v, tol in candidates:
        if u in moved or v in moved:
            continue
        touched = sorted(
            fid for fid in incidence[u] | incidence[v]
            if not cs.facets[fid].deleted
            and (u in cs.facets[fid].loop or v in cs.facets[fid].loop)
        )
        mid = 0.5 * (cs.points[u] + cs.points[v])
        if not _collapse_ok(cs, u, v, mid, touched):
            if oplog is not None:
                oplog.append({"op": "collapse_skipped", "pass": pass_no,
                              "edge": [int(u), int(v)], "length": L})
            log.debug("skipped collapse of edge (%d, %d): would invalidate a loop", u, v)
            continue
        cs.points[u] = mid
        for fid in touched:
            f = cs.facets[fid]
            f.loop = _squeeze([u if w == v else w for w in f.loop])
            if len(f.loop) < 3:
                f.deleted = True
        incidence[u] |= incidence[v]
        moved.add(u)
        moved.add(v)
        n_done += 1
        if oplog is not None:
            oplog.append({"op": "collapse", "pass": pass_no, "edge": [int(u), int(v)],
                          "length": L, "tolerance": tol,
                          "facets": [int(t) for t in touched]})
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
        edges = _edge_map(cs)
        long_edges = []
        for ((u, v), fids), L in zip(edges.items(), _lengths(cs, edges)):
            if L > limit:
                long_edges.append((u, v, L, fids))
        if not long_edges:
            break
        long_edges.sort(key=lambda t: (t[0], t[1]))
        new_points = []
        chain = {}
        base = len(cs.points)
        for u, v, L, fids in long_edges:
            m = max(1, math.ceil(math.log2(L / limit)))
            params = [i / 2**m for i in range(1, 2**m)]
            ids = list(range(base + len(new_points), base + len(new_points) + len(params)))
            for t in params:
                new_points.append((1 - t) * cs.points[u] + t * cs.points[v])
            chain[(u, v)] = ids
            if oplog is not None:
                oplog.append({"op": "insert", "edge": [int(u), int(v)], "length": L,
                              "pieces": 2**m, "new_vertices": [int(i) for i in ids]})
        cs.points = np.vstack([cs.points, np.array(new_points)])
        for f in cs.facets:
            if f.deleted:
                continue
            out = []
            loop = f.loop
            for a, b in zip(loop, loop[1:] + loop[:1]):
                out.append(a)
                key = (a, b) if a < b else (b, a)
                if key in chain:
                    ids = chain[key]
                    out.extend(ids if a < b else list(reversed(ids)))
            f.loop = out
        guard_projection(cs, cfg, oplog=oplog)
    else:
        log.warning("vertex insertion did not settle after 10 rounds")
    return cs


def guard_projection(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Push any vertex inside the guard sphere of a real cell it bounds out
    to the guard radius (see `geometry.push_outside`)."""
    live = [f for f in cs.facets if not f.deleted]
    lens = [len(f.loop) for f in live]
    verts = np.fromiter(chain.from_iterable(f.loop for f in live), dtype=np.int64,
                        count=sum(lens))
    site_a = np.repeat(np.array([f.site_a for f in live], dtype=np.int64), lens)
    site_b = np.repeat(np.array([f.site_b for f in live], dtype=np.int64), lens)
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
    zone = boundary_zone(cs)
    edges = dict(sorted(_edge_map(cs).items()))
    return [(L, _edge_base_tol(cs, zone, fids, cfg))
            for fids, L in zip(edges.values(), _lengths(cs, edges))]
