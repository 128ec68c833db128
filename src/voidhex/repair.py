"""Cell repair: sliver removal, long-edge splitting, guard projection.

Edge collapse runs in several passes with a geometric tolerance ramp so the
shortest edges disappear first, and no vertex moves twice in one pass. Long
edges are then bisected until they drop under the maximum, and every vertex
is kept outside a guard sphere slightly larger than the sweep radius.

A repair keeps the live facet loops flattened into (facet, vertex, next
vertex) loop rows across its passes, each facet's rows together and in
loop order (`_Repair.rows`); after a collapse pass or an insertion round
only the rows of the facets it touched are gathered again. Each pass and
round starts from one edge table (`_edge_table`) of those rows: one
`np.unique` over their sorted endpoint keys, which gives every edge once,
in (u, v) order, with its length. The zone tolerances and the collapse
candidates are array passes over that table.

A collapse pass walks its sorted candidates speculatively (`_walk`): it
assumes every collapse succeeds, rewrites the loops of the facets each one
touches in plain lists, and records each (collapse, touched facet) loop
state as the facet and the rows of its vertices in one position table per
pass (pass-start positions, then candidate midpoints). The new states are
projected onto their facets' (e1, e2) planes and checked for a flat or
self-intersecting polygon in one array pass per padded loop size
(`_breaks`). The collapses before the first one that would break a loop
are applied, that one is skipped, and the walk resumes after it. Each
state's verdict is kept for the rest of the pass, so a resumed walk checks
only the states that the skip changed.

Vertex insertion is one array pass per round: the new ids, their edge
parameters and points come from `cumsum` and `repeat` over the long
edges, and each hit facet's new loop is its loop rows with the new ids of
each long row spliced in.

Guard projection checks every vertex the first time in a repair, and after
that only the vertices moved since: collapse survivors, inserted vertices
and pushed ones, each against the facets that may hold it, kept as two
flat lists of vertices and facets (`_Repair`).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import GUARD_RADIUS, loops_are_simple, norms, polygon_areas, push_outside
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


def _rows(fids: np.ndarray, lens: np.ndarray, vertex: np.ndarray):
    """Loop rows of loops given flat: facet ``fids[i]`` has the next
    ``lens[i]`` entries of ``vertex`` as its loop."""
    ends = np.cumsum(lens)
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = ends - lens
    return np.repeat(fids, lens), vertex, vertex[nxt]


def _loop_rows(loops: list, fids=None):
    """The ``loops`` of ``fids`` (default: every live facet) flattened into
    rows, each facet's rows together and in loop order: per loop vertex,
    the facet id, the vertex and the next vertex of its loop."""
    if fids is None:
        fids = [fid for fid, loop in enumerate(loops) if len(loop) >= 3]
    loops = [loops[fid] for fid in fids]
    lens = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    vertex = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(lens.sum()))
    return _rows(np.asarray(fids, dtype=np.int64), lens, vertex)


def _edge_table(points: np.ndarray, rows) -> EdgeTable:
    """The edge table of the loop rows, from one `np.unique` over them."""
    fid, vertex, nxt = rows
    P = len(points)
    keys, edge = np.unique(np.minimum(vertex, nxt) * P + np.maximum(vertex, nxt),
                           return_inverse=True)
    u, v = keys // P, keys % P
    return EdgeTable(u, v, norms(points[u] - points[v]), fid, vertex, edge)


def boundary_zone(cs: VoronoiCellSet) -> np.ndarray:
    """Real cells whose site is within 2R of the container boundary."""
    R = cs.bed.radius_nominal
    clear = cs.bed.domain.wall_clearance(cs.bed.centers)
    return clear < 2.0 * R


def _facet_zone(cs: VoronoiCellSet) -> np.ndarray:
    """Per facet, deleted ones included: does it bound a real cell of the
    boundary zone?"""
    in_zone = np.append(boundary_zone(cs), False)  # every ghost site maps to the last entry
    return in_zone[cs.site_a] | in_zone[np.minimum(cs.site_b, cs.n_real)]


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


def _walk(cs: VoronoiCellSet, us, vs, lo, hi, moved, incidence, checked):
    """Walk candidates lo..hi-1 of a pass as if every collapse succeeds.

    Candidate i fuses vs[i] into us[i] at row P + i of the position table
    (P = len(cs.points)). ``moved`` maps each end of the collapses applied
    earlier in the pass to the row of its midpoint; a candidate with an end
    there or in a collapse walked before it is passed over. ``checked``
    maps the loop states checked earlier in the pass, as (facet, rows), to
    whether they break. Returns the collapses walked, as (candidate,
    touched facets, their new loops); the loop states left to check, one
    per touched facet left with 3 or more vertices and not in ``checked``,
    as (facet, rows), with the candidate that makes each; and the first
    candidate that would pinch a loop or make a state ``checked`` says
    breaks, or hi if none would.
    """
    P = len(cs.points)
    loops = {}  # facet -> its loop after the collapses walked so far
    at = {}     # vertex moved by the walk -> its row in the position table
    ends = set()  # both ends of every collapse walked
    walked, states, makers = [], [], []
    for i in range(lo, hi):
        u, v = us[i], vs[i]
        if u in moved or v in moved or u in ends or v in ends:
            continue
        touched, new, keys = [], [], []
        for fid in sorted({*incidence[u], *incidence[v]}):
            loop = loops[fid] if fid in loops else cs.loops[fid]
            if len(loop) < 3:
                continue  # deleted, maybe by an earlier collapse of the walk
            loop = _squeeze([u if w == v else w for w in loop])
            touched.append(fid)
            new.append(loop)
            if len(loop) < 3:
                continue  # facet degenerates and will be deleted: allowed
            if len(set(loop)) != len(loop):
                return walked, states, makers, i  # pinched loop
            key = (fid, tuple([P + i if w == u else at.get(w, moved.get(w, w)) for w in loop]))
            known = checked.get(key)
            if known:
                return walked, states, makers, i
            if known is None:
                keys.append(key)
        states += keys
        makers += [i] * len(keys)
        loops.update(zip(touched, new))
        at[u] = P + i
        ends |= {u, v}
        walked.append((i, touched, new))
    return walked, states, makers, hi


def _breaks(rel: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Per loop state: is its polygon flat or self-intersecting?

    ``rel`` holds S loops of m vertices each, (S, m, 3), relative to their
    facet's plane point; ``e1`` and ``e2`` are the (S, 3) plane bases. The
    projection is one `matmul` per loop, as ``rel @ e1`` of that loop alone,
    so each coordinate has the bits a single-loop projection gives.
    """
    x = (rel @ e1[:, :, None])[..., 0]
    y = (rel @ e2[:, :, None])[..., 0]
    return (np.abs(polygon_areas(x, y)) < 1e-16) | ~loops_are_simple(x, y)


class _Repair:
    """One repair of a cell set: its oplog, the mask of its deleted facets
    (``deleted``, from the loop lengths, set as collapses delete them), the
    loop rows of its live facets, the edges whose skipped collapse it has
    logged, and the vertices its next guard projection checks.

    ``rows`` holds the (facet, vertex, next vertex) loop rows of every live
    facet, each facet's rows together and in loop order, though the
    facets need not be in id order. The repair changes loops only through
    this object, which gathers the rows of each facet it changes again.

    ``pending`` holds two flat lists, vertices and facets, with one entry
    in each for a vertex moved since the last guard projection and a facet
    that holds it; it is None until the first projection, which checks
    every vertex. A vertex that has not moved keeps its position and can
    only lose facets, so it stays outside its guards.
    """

    def __init__(self, cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None):
        self.cs, self.cfg = cs, cfg
        self.oplog = [] if oplog is None else oplog
        self.deleted = np.fromiter(map(len, cs.loops), dtype=np.int64,
                                   count=len(cs.loops)) < 3
        self.rows = _loop_rows(cs.loops)
        self.skipped: set = set()
        self.pending: tuple[list, list] | None = None

    def recheck(self, vertices, fids) -> None:
        """Each of ``vertices`` moved, and each of ``fids`` holds it: the
        next guard projection checks them."""
        if self.pending is not None:
            pv, pf = self.pending
            for v in vertices:
                pv += [v] * len(fids)
                pf += fids

    def _replace_rows(self, fids, new_rows) -> None:
        """Drop the loop rows of the facets ``fids`` and append ``new_rows``."""
        hit = np.zeros(len(self.deleted), dtype=bool)
        hit[fids] = True
        keep = ~hit[self.rows[0]]
        self.rows = tuple(np.concatenate([r[keep], n]) for r, n in zip(self.rows, new_rows))

    def collapse_edges(self) -> None:
        cs, cfg = self.cs, self.cfg
        facet_zone = _facet_zone(cs)
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
            changed = self.collapse_pass(facet_zone, factor, k)
            if k >= cfg.passes and not changed:
                break
            self.guard_projection()

    def collapse_pass(self, facet_zone, factor, pass_no) -> int:
        cs = self.cs
        edges = _edge_table(cs.points, self.rows)
        tol = _base_tolerance(edges, facet_zone, self.cfg) * factor * cs.bed.radius_nominal
        cand = np.flatnonzero(edges.length < tol)
        if not len(cand):
            return 0
        cand = cand[np.lexsort((edges.v[cand], edges.u[cand], edges.length[cand]))]
        # vertex -> live facets, for the candidates' endpoints only, from
        # their rows alone
        P = len(cs.points)
        endpoints = np.unique(np.concatenate([edges.u[cand], edges.v[cand]]))
        is_end = np.zeros(P, dtype=bool)
        is_end[endpoints] = True
        sel = np.flatnonzero(is_end[edges.vertex])
        by_vertex = sel[np.argsort(edges.vertex[sel], kind="stable")]
        rows = edges.vertex[by_vertex]
        lo = np.searchsorted(rows, endpoints, side="left").tolist()
        hi = np.searchsorted(rows, endpoints, side="right").tolist()
        fids = edges.fid[by_vertex].tolist()
        incidence = {w: fids[a:b] for w, a, b in zip(endpoints.tolist(), lo, hi)}
        # a candidate is tried only while neither end has moved in this
        # pass, so its midpoint is that of the pass-start positions
        mids = 0.5 * (cs.points[edges.u[cand]] + cs.points[edges.v[cand]])
        us, vs = edges.u[cand].tolist(), edges.v[cand].tolist()
        lengths, tols = edges.length[cand].tolist(), tol[cand].tolist()
        # the position table: the pass-start positions, then the midpoints
        table = np.vstack([cs.points, mids])
        moved = {}    # end of an applied collapse -> its midpoint row
        checked = {}  # loop state -> does it break
        changed = set()  # facets whose loops the applied collapses rewrote
        n_done = 0
        start, width = 0, len(cand)
        while start < len(cand):
            end = min(len(cand), start + width)
            walked, states, makers, fail = _walk(cs, us, vs, start, end, moved, incidence,
                                                 checked)
            if states:
                broken = self._check(states, table)
                checked.update(zip(states, broken.tolist()))
                if broken.any():
                    fail = min(fail, makers[int(np.argmax(broken))])
            for i, touched, new in walked:
                if i >= fail:
                    break
                u, v = us[i], vs[i]
                cs.points[u] = mids[i]
                for fid, loop in zip(touched, new):
                    cs.loops[fid] = loop
                    if len(loop) < 3:
                        self.deleted[fid] = True
                changed.update(touched)
                moved[u] = moved[v] = P + i
                n_done += 1
                self.recheck((u,), touched)
                self.oplog.append({"op": "collapse", "pass": pass_no, "edge": [u, v],
                                   "length": lengths[i], "tolerance": tols[i], "facets": touched})
            if fail < end:
                edge = (us[fail], vs[fail])
                if edge not in self.skipped:   # logged once, tried in every pass
                    self.skipped.add(edge)
                    self.oplog.append({"op": "collapse_skipped", "pass": pass_no,
                                       "edge": list(edge), "length": lengths[fail]})
                    log.debug("skipped collapse of edge (%d, %d): would invalidate a loop",
                              *edge)
                # where skips are dense, speculate over fewer candidates
                start, width = fail + 1, 2 * (fail - start) + 16
            else:
                start, width = end, 2 * width
        if changed:
            changed = sorted(changed)
            self._replace_rows(changed, _loop_rows(
                cs.loops, [fid for fid in changed if not self.deleted[fid]]))
        return n_done

    def _check(self, states, table) -> np.ndarray:
        """Per (facet, rows) loop state: does it `_breaks`? ``table`` holds
        the positions the rows index.

        The states are checked in groups of one padded size, the next power
        of two of their loop size: a loop is padded by repeating its last
        vertex, which adds zero area terms and zero-length edges that cross
        nothing, so the test gives what it gives on the loop itself.
        """
        plane, e1, e2 = self.cs.plane_point, self.cs.e1, self.cs.e2
        fid = np.array([f for f, _ in states], dtype=np.int64)
        size = np.array([len(r) for _, r in states], dtype=np.int64)
        rows = np.fromiter(chain.from_iterable(r for _, r in states), dtype=np.int64,
                           count=int(size.sum()))
        first = np.cumsum(size) - size
        padded = 1 << np.frexp(size - 1)[1]   # the power of two >= size
        broken = np.zeros(len(size), dtype=bool)
        for m in np.unique(padded).tolist():
            sel = np.flatnonzero(padded == m)
            f = fid[sel]
            at = first[sel, None] + np.minimum(np.arange(m), size[sel, None] - 1)
            rel = table[rows[at]] - plane[f][:, None, :]
            broken[sel] = _breaks(rel, e1[f], e2[f])
        return broken

    def insert_vertices(self) -> None:
        cs = self.cs
        limit = self.cfg.max_edge * cs.bed.radius_nominal
        for _round in range(10):
            edges = _edge_table(cs.points, self.rows)
            long_edges = np.flatnonzero(edges.length > limit)
            if not len(long_edges):
                break
            self._split(edges, long_edges, limit)
            self.guard_projection()
        else:
            log.warning("vertex insertion did not settle after 10 rounds")

    def _split(self, edges: EdgeTable, long_edges: np.ndarray, limit: float) -> None:
        """One insertion round: put 2**m - 1 new vertices on each long edge,
        m = ceil(log2(length / limit)) and at least 1, and splice them into
        the loops of the facets that hold it. ``edges`` is the edge table
        of ``self.rows``."""
        cs = self.cs
        u, v = edges.u[long_edges], edges.v[long_edges]
        lengths = edges.length[long_edges].tolist()
        pieces = np.array([2 ** max(1, math.ceil(math.log2(L / limit))) for L in lengths],
                          dtype=np.int64)
        k = pieces - 1   # new vertices per long edge, numbered in (u, v) order
        base = len(cs.points)
        first = base + np.cumsum(k) - k
        # new vertex first[e] + j - 1 is (1 - t) * points[u] + t * points[v]
        # with t = j / pieces[e], j = 1 .. k[e]
        on = np.repeat(np.arange(len(k)), k)   # the long edge of each new vertex
        j = np.arange(base, base + len(on)) - first[on] + 1
        t = (j / pieces[on])[:, None]
        cs.points = np.vstack([cs.points, (1 - t) * cs.points[u[on]] + t * cs.points[v[on]]])
        for a, b, L, p, s in zip(u.tolist(), v.tolist(), lengths, pieces.tolist(),
                                 first.tolist()):
            self.oplog.append({"op": "insert", "edge": [a, b], "length": L,
                               "pieces": p, "new_vertices": list(range(s, s + p - 1))})

        # the rows of the facets with a long edge, each facet's rows
        # together and in loop order; a long row (vertex -> next) is
        # followed by its edge's new ids, ascending if vertex is its u
        fid, vertex, _ = self.rows
        long_of = np.full(len(edges.u), -1)
        long_of[long_edges] = np.arange(len(long_edges))
        row_long = long_of[edges.edge]
        hit = np.zeros(len(self.deleted), dtype=bool)
        hit[fid[row_long >= 0]] = True
        sel = np.flatnonzero(hit[fid])
        count = 1 + np.where(row_long[sel] >= 0, k[row_long[sel]], 0)
        row = np.repeat(sel, count)
        pos = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        e = np.maximum(row_long[row], 0)
        up = vertex[row] == u[e]
        out = np.where(pos == 0, vertex[row],
                       np.where(up, first[e] + pos - 1, first[e] + k[e] - pos))
        starts = np.flatnonzero(np.diff(fid[sel], prepend=-1))
        hit_fids = fid[sel[starts]]
        lens = np.add.reduceat(count, starts)
        ends = np.cumsum(lens)
        flat = out.tolist()
        for f, a, b in zip(hit_fids.tolist(), (ends - lens).tolist(), ends.tolist()):
            cs.loops[f] = flat[a:b]
        self._replace_rows(hit_fids, _rows(hit_fids, lens, out))
        if self.pending is not None:
            self.pending[0].extend(out[pos > 0].tolist())
            self.pending[1].extend(fid[row[pos > 0]].tolist())

    def guard_projection(self) -> None:
        cs = self.cs
        if self.pending is None:
            fid, verts, _ = self.rows
        else:
            # a moved vertex stays in the facets that held it, unless a
            # later collapse deleted one; a pushed vertex that a collapse
            # fused away keeps stale rows, but it has not moved since it
            # was pushed clear of those very owners
            verts = np.array(self.pending[0], dtype=np.int64)
            fid = np.array(self.pending[1], dtype=np.int64)
            live = ~self.deleted[fid]
            verts, fid = verts[live], fid[live]
        site_a, site_b = cs.site_a[fid], cs.site_b[fid]
        real = site_b < cs.n_real
        pairs = np.vstack([np.column_stack([verts, site_a]),
                           np.column_stack([verts[real], site_b[real]])])
        guard = self.cfg.guard_radius * cs.bed.radius_nominal
        pushes = push_outside(cs.points, pairs, cs.bed.centers, guard)
        self.oplog.extend({"op": "guard_push", "vertex": v, "cell": c, "from_distance": d}
                          for v, c, d in pushes)
        again = np.isin(verts, [v for v, _, _ in pushes])
        self.pending = (verts[again].tolist(), fid[again].tolist())


def collapse_edges(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Multi-pass global edge collapse; returns the (mutated) cell set.

    Shortest edges go first; a collapse fuses both endpoints at the edge
    midpoint across every facet that shares the edge; facets left with
    fewer than 3 edges are deleted. A collapse that would pinch, flatten or
    self-intersect a facet loop is skipped, and tried again in later
    passes; its first skip is logged. Cleanup passes at
    the full tolerance run after the schedule until no edge is left
    below it. A guard projection follows each pass but the last.
    """
    _Repair(cs, cfg, oplog).collapse_edges()
    return cs


def insert_vertices(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Bisect every facet edge longer than max_edge, consistently everywhere.

    Splitting is recursive: an edge of length L gets 2^m - 1 equally spaced
    points with m = ceil(log2(L / max_edge)), which is what repeated
    midpoint bisection produces for a straight edge. A guard projection
    follows each round.
    """
    _Repair(cs, cfg, oplog).insert_vertices()
    return cs


def guard_projection(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Push any vertex inside the guard sphere of a real cell it bounds out
    to the guard radius (see `geometry.push_outside`)."""
    _Repair(cs, cfg, oplog).guard_projection()
    return cs


def repair(cs: VoronoiCellSet, cfg: RepairConfig | None = None, log_path=None) -> VoronoiCellSet:
    """Full repair: collapse passes, guard projection, vertex insertion.
    After the first guard projection, each one checks only the vertices
    moved since the one before."""
    cfg = cfg or RepairConfig()
    oplog: list = []
    run = _Repair(cs, cfg, oplog)
    run.collapse_edges()
    run.guard_projection()
    run.insert_vertices()
    if log_path is not None:
        with open(log_path, "w") as fh:
            for rec in oplog:
                fh.write(json.dumps(rec) + "\n")
    return cs


def edge_lengths(cs: VoronoiCellSet, cfg: RepairConfig | None = None):
    """(length, base tolerance) per unique live edge, with the base
    tolerances of ``cfg`` (default: `RepairConfig()`); for audits."""
    cfg = cfg or RepairConfig()
    edges = _edge_table(cs.points, _loop_rows(cs.loops))
    tol = _base_tolerance(edges, _facet_zone(cs), cfg)
    return list(zip(edges.length.tolist(), tol.tolist()))
