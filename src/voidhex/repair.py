"""Cell repair: sliver removal, long-edge splitting, guard check.

Edge collapse runs in several passes with a geometric tolerance ramp so the
shortest edges disappear first, and no vertex moves twice in one pass. Long
edges are then bisected until they drop under the maximum. A repair ends
with one guard check: every vertex must lie outside the guard sphere,
slightly larger than the sweep radius, of each real cell its facets bound.

A repair reads the cell set's loop arrays once, into (facet, vertex, next
vertex) loop rows of the live facets, each facet's rows together and in
loop order (`_Repair.rows`), which it keeps across its passes; a collapse
pass or an insertion round gathers again only the rows of the facets it
touched. At the end of each entry point one stable sort of the rows by
facet writes the loop arrays back (`_Repair.store`), and a deleted facet's
loop is left empty. Each pass and round starts from one edge table
(`_edge_table`) of those rows: one `np.unique` over their sorted endpoint
keys, which gives every edge once, in (u, v) order, with its length. The
zone tolerances and the collapse candidates are array passes over that
table.

A collapse pass keeps its loops on its pass-start loop rows (`_Pass`),
where no two of its collapses share an end. It walks its sorted
candidates speculatively, window by window (`_walk`): a Python scan
picks the candidates whose ends are free, and array passes over their
(facet, candidate) pairs give each loop state its length and its pinch
test. The states are checked for a flat or self-intersecting polygon in
one array pass per padded loop size (`_breaks`), from their rows in one
position table per pass (pass-start positions, then candidate
midpoints). The collapses before the first one that would pinch or break
a loop are applied, that one is skipped, and the walk resumes after it
and checks all its loop states again.

Vertex insertion is one array pass per round: the new ids, their edge
parameters and points come from `cumsum` and `repeat` over the long
edges, and each hit facet's new loop is its loop rows with the new ids of
each long row spliced in.

The guard check (`geometry.check_guard`) runs once, over the (vertex, real
owner cell) pairs of the final loop rows, before `store`; it moves no
vertex.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ValidationError
from .geometry import GUARD_RADIUS, check_guard, loops_are_simple, norms, polygon_areas
from .voronoi import VoronoiCellSet

log = logging.getLogger(__name__)

COLLAPSE_PASSES = 10  # scheduled collapse passes; cleanup passes follow
# A loop state whose area is under this, in units of R^2, is flat: about the
# rounding error of a shoelace sum over coordinates of size R.
FLAT_LOOP_AREA = 1e-16


@dataclass
class RepairConfig:
    tol_inf: float = 0.35       # interior collapse tolerance, units of R
    tol_boundary: float = 0.25  # collapse tolerance within 2R of the boundary
    max_edge: float = 0.8       # vertex-insertion threshold, units of R
    guard_radius: ClassVar[float] = GUARD_RADIUS  # fixed, shared with tessellation

    def __post_init__(self):
        if not (0 < self.tol_inf < self.max_edge):
            raise ValidationError("need 0 < tol_inf < max_edge")
        if not (0 < self.tol_boundary < self.max_edge):
            raise ValidationError("need 0 < tol_boundary < max_edge")

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


def _loop_rows(cs: VoronoiCellSet):
    """The loops of every live facet of ``cs`` as rows, each facet's rows
    together and in loop order: per loop vertex, the facet id, the vertex
    and the next vertex of its loop."""
    lens = np.diff(cs.loop_start)
    live = lens >= 3
    return _rows(np.flatnonzero(live), lens[live], cs.loop_vertex[live.repeat(lens)])


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


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges first[k] .. first[k] + count[k] - 1, concatenated."""
    ends = count.cumsum()
    return (first - ends + count).repeat(count) + np.arange(ends[-1] if len(ends) else 0)


def _pairs(edges: EdgeTable, cand: np.ndarray, n_points: int, n_facets: int):
    """The (candidate, facet) pairs of a collapse pass (see `_Pass`), from
    the rows of the candidates' endpoints grouped by vertex: the table
    ``pairs`` and, per candidate, its first pair and pair count."""
    C, N = len(cand), len(edges.fid)
    ends = np.concatenate([edges.u[cand], edges.v[cand]])
    is_end = np.zeros(n_points, dtype=bool)
    is_end[ends] = True
    sel = np.flatnonzero(is_end[edges.vertex])
    sel = sel[edges.vertex[sel].argsort()]
    per_vertex = np.bincount(edges.vertex[sel], minlength=n_points)
    n = per_vertex[ends]
    row = sel[_ranges(per_vertex.cumsum()[ends] - n, n)]
    end_no = np.arange(2 * C).repeat(n)   # u of candidate c is end c, its v end C + c
    key = ((end_no % C) * n_facets + edges.fid[row]) * 2 + end_no // C
    order = key.argsort()
    key, row = key[order], row[order]
    pair = key >> 1
    new = np.ones(len(pair), dtype=bool)
    new[1:] = pair[1:] != pair[:-1]
    pairs = np.full((7, int(new.sum())), N)
    fid, cand_no, adjacent, pinch, ends, drop = (pairs[0], pairs[1], pairs[2], pairs[3],
                                                 pairs[4:6], pairs[6])
    ends[key & 1, new.cumsum() - 1] = row
    cand_no[:], fid[:] = np.divmod(pair[new], n_facets)
    at = np.append(edges.edge, -1)[ends] == cand[cand_no]   # is the row's edge the candidate's
    both = (ends < N).all(axis=0)
    adjacent[:] = at.any(axis=0)
    pinch[:] = both & ~at.any(axis=0)
    # of two adjacent ends, the row after the first is the later one in the
    # loop, unless the first is its facet's last row and the two close it
    last = np.ones(N + 1, dtype=bool)
    last[:N - 1] = edges.fid[1:] != edges.fid[:-1]
    r = np.where(at[0], ends[0], ends[1])
    drop[:] = np.where(adjacent == 0, N, np.where(last[r], r, r + 1))
    count = np.bincount(cand_no, minlength=C)
    return pairs, count.cumsum() - count, count


class _Pass:
    """One collapse pass: its candidates, their (candidate, facet) pairs,
    and the facet loops as its collapses change them, all on the pass-start
    loop rows (those of its `EdgeTable`, each facet's rows together and in
    loop order), plus one spare row, N, that stands for none.

    No two collapses of a pass share an end, so a collapse that fuses v
    into u changes a loop only at the rows of u and v: both move to the row
    of its midpoint in the position table (``at``), v's row takes u
    (``vertex``), and if u and v are adjacent the later of their two rows
    in the loop goes (``alive``), as dropping the repeat of u would. So
    whether the ends of a candidate are adjacent in a facet's loop, or
    both there and apart (a pinch), is the same all through the pass.

    A pair is a candidate and a facet, live at the pass start, that holds
    an end of its edge; candidate c has ``count[c]`` pairs from
    ``first[c]``, in facet order. ``pairs`` holds per pair, as rows: facet,
    candidate, adjacent (0/1), pinch (0/1), the rows of u and of v (N if
    absent), and the row the collapse drops (N if none).

    Per facet: ``head``, its first row; ``span``, its pass-start row count;
    ``length``, its loop length now, under 3 once it is deleted;
    ``changed``, whether an applied collapse touched it. Per row,
    ``rowstate`` holds ``alive`` (0/1), ``at``, and ``walked`` and
    ``dropped``, which mark for a check the rows a walk would move or drop
    with the candidate that would (``n_cand`` elsewhere).
    """

    def __init__(self, edges: EdgeTable, cand: np.ndarray, tol: np.ndarray, points: np.ndarray,
                 n_facets: int):
        C, N = len(cand), len(edges.fid)
        self.n_points, self.n_cand = len(points), C
        self.u = edges.u[cand]
        self.us, self.vs = self.u.tolist(), edges.v[cand].tolist()
        self.lengths, self.tols = edges.length[cand].tolist(), tol[cand].tolist()
        # a candidate is tried only while neither end has moved in this
        # pass, so its midpoint is that of the pass-start positions; the
        # position table holds the pass-start positions, then the midpoints
        self.mids = 0.5 * (points[self.u] + points[edges.v[cand]])
        self.table = np.vstack([points, self.mids])

        self.pairs, self.first, self.count = _pairs(edges, cand, len(points), n_facets)
        head = np.flatnonzero(np.diff(edges.fid, prepend=-1))
        self.head = np.zeros(n_facets, dtype=np.int64)
        self.head[edges.fid[head]] = head
        self.span = np.zeros(n_facets, dtype=np.int64)
        self.span[edges.fid[head]] = np.diff(head, append=N)
        self.length = self.span.copy()
        self.changed = np.zeros(n_facets, dtype=bool)
        self.vertex = np.append(edges.vertex, -1)
        self.rowstate = np.stack([np.ones(N + 1, dtype=np.int64), self.vertex,
                                  np.full(N + 1, C), np.full(N + 1, C)])
        self.alive, self.at, self.walked, self.dropped = self.rowstate


class _Walk(NamedTuple):
    """A walk of a collapse pass (see `_walk`): the candidates walked, and
    the pairs of their collapses, in (facet, candidate) order."""

    walk: list            # the candidates walked, ascending
    pair: np.ndarray      # the pairs
    fid: np.ndarray       # facet of each pair
    cand: np.ndarray      # candidate of each pair
    touched: np.ndarray   # is the facet live when the collapse comes
    length: np.ndarray    # the facet's loop length after the collapse
    stop: int             # the first candidate that would pinch a loop, or hi


def _walk(p: _Pass, lo: int, hi: int, busy: set) -> _Walk:
    """Walk candidates lo..hi-1 of a pass as if every collapse succeeds.

    Only the greedy scan is Python: a candidate with an end in ``busy``,
    which holds the ends of the collapses applied earlier in the pass, or
    in a collapse walked before it is passed over, and the ends of each
    one walked join ``busy``. The rest is array passes over the walk's
    pairs, sorted by facet: a facet meets its collapses in candidate order,
    each one that finds it live (3 or more vertices) touches it, and each
    one whose ends are adjacent in it shortens its loop by one. A touched
    facet that holds both ends apart would be pinched.
    """
    us, vs = p.us, p.vs
    walk = []
    for i in range(lo, hi):
        u = us[i]
        v = vs[i]
        if u in busy or v in busy:
            continue
        busy.add(u)
        busy.add(v)
        walk.append(i)
    cands = np.array(walk, dtype=np.int64)
    pair = _ranges(p.first[cands], p.count[cands])
    pair = pair[p.pairs[0, pair].argsort(kind="stable")]
    fid, cand, adjacent, pinch, _, _, _ = p.pairs[:, pair]
    # per pair, the first pair of its facet, and the rows the facet lost
    # in the walk, up to and with the pair
    head = np.arange(len(fid))
    head[1:] *= fid[1:] != fid[:-1]
    head = np.maximum.accumulate(head)
    lost = adjacent.cumsum()
    lost -= (lost - adjacent)[head]
    after = p.length[fid] - lost
    touched = after + adjacent >= 3
    pinch = cand[touched & (pinch == 1)]
    return _Walk(walk, pair, fid, cand, touched, after, int(pinch.min()) if len(pinch) else hi)


def _state_rows(p: _Pass, w: _Walk, state: np.ndarray) -> np.ndarray:
    """The position-table rows of the loop states ``state`` (pairs of walk
    ``w``), flat: per state, its facet's live rows, less those the walk
    drops up to its maker, with those the walk moves up to its maker at
    their midpoints."""
    _, cand, _, _, u_row, v_row, drop = p.pairs[:, w.pair]
    p.walked[u_row] = p.walked[v_row] = p.dropped[drop] = cand
    fid = w.fid[state]
    span = p.span[fid]
    by = w.cand[state].repeat(span)
    alive, at, walked, dropped = p.rowstate[:, _ranges(p.head[fid], span)]
    p.walked[u_row] = p.walked[v_row] = p.dropped[drop] = p.n_cand
    return np.where(walked <= by, walked + p.n_points, at)[(dropped > by) & (alive == 1)]


def _breaks(rel: np.ndarray, e1: np.ndarray, e2: np.ndarray, R: float) -> np.ndarray:
    """Per loop state: is its polygon flat (area under FLAT_LOOP_AREA R^2)
    or self-intersecting?

    ``rel`` holds S loops of m vertices each, (S, m, 3), relative to their
    facet's plane point; ``e1`` and ``e2`` are the (S, 3) plane bases. The
    projection is one `matmul` per loop, as ``rel @ e1`` of that loop alone,
    so each coordinate has the bits a single-loop projection gives.
    """
    x = (rel @ e1[:, :, None])[..., 0]
    y = (rel @ e2[:, :, None])[..., 0]
    return (np.abs(polygon_areas(x, y)) < FLAT_LOOP_AREA * R * R) | ~loops_are_simple(x, y)


class _Repair:
    """One repair of a cell set: its oplog, the loop rows of its live
    facets, and the edges whose skipped collapse it has logged.

    ``rows`` holds the (facet, vertex, next vertex) loop rows of every live
    facet, each facet's rows together and in loop order, though the
    facets need not be in id order. They are the repair's loops: it
    gathers the rows of each facet it changes again, and `store` writes
    them to the cell set. A collapse pass changes its own copy of the
    pass-start rows (`_Pass`) and gathers the rows of the loops it changed
    once at its end.
    """

    def __init__(self, cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None):
        self.cs, self.cfg = cs, cfg
        self.oplog = [] if oplog is None else oplog
        self.rows = _loop_rows(cs)
        self.skipped: set = set()

    def store(self) -> VoronoiCellSet:
        """Write the loop rows to the cell set's two loop arrays."""
        fid, vertex, _ = self.rows
        self.cs.loop_vertex = vertex[fid.argsort(kind="stable")]
        self.cs.loop_start = np.concatenate(
            [[0], np.bincount(fid, minlength=len(self.cs.site_a)).cumsum()])
        return self.cs

    def _replace_rows(self, fids, new_rows) -> None:
        """Drop the loop rows of the facets ``fids`` and append ``new_rows``."""
        hit = np.zeros(len(self.cs.site_a), dtype=bool)
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
            if k > COLLAPSE_PASSES:
                extra += 1
                if extra > 40:
                    log.warning("edge collapse did not reach a fixpoint after 40 cleanup passes")
                    break
            factor = cfg.pass_tolerance(k)
            changed = self.collapse_pass(facet_zone, factor, k)
            if k >= COLLAPSE_PASSES and not changed:
                break

    def collapse_pass(self, facet_zone, factor, pass_no) -> int:
        cs = self.cs
        edges = _edge_table(cs.points, self.rows)
        tol = _base_tolerance(edges, facet_zone, self.cfg) * factor * cs.bed.radius_nominal
        cand = np.flatnonzero(edges.length < tol)
        if not len(cand):
            return 0
        cand = cand[np.lexsort((edges.v[cand], edges.u[cand], edges.length[cand]))]
        p = _Pass(edges, cand, tol, cs.points, len(cs.site_a))
        busy = set()  # the ends of the applied collapses, and of the walk
        n_done = 0
        start, width = 0, len(cand)
        while start < len(cand):
            end = min(len(cand), start + width)
            w = _walk(p, start, end, busy)
            # the loop states: one per touched facet left with 3 or more
            # vertices, for the collapses before the walk's stop
            state = (w.touched & (w.length >= 3) & (w.cand < w.stop)).nonzero()[0]
            fail = w.stop
            if len(state):
                broken = self._check(w.fid[state], w.length[state], _state_rows(p, w, state),
                                     p.table)
                if broken.any():
                    fail = int(w.cand[state[broken]].min())
            n_done += self._apply(p, w, fail, busy, pass_no)
            if fail < end:
                edge = (p.us[fail], p.vs[fail])
                if edge not in self.skipped:   # logged once, tried in every pass
                    self.skipped.add(edge)
                    self.oplog.append({"op": "collapse_skipped", "pass": pass_no,
                                       "edge": list(edge), "length": p.lengths[fail]})
                    log.debug("skipped collapse of edge (%d, %d): would invalidate a loop",
                              *edge)
                # where skips are dense, speculate over fewer candidates
                start, width = fail + 1, 2 * (fail - start) + 16
            else:
                start, width = end, 2 * width
        if n_done:
            self._regather(p, edges.fid)
        return n_done

    def _apply(self, p: _Pass, w: _Walk, fail: int, busy: set, pass_no: int) -> int:
        """Apply the collapses of walk ``w`` before candidate ``fail`` to
        ``p``, the points and the oplog, and free the ends of the others in
        ``busy``. Returns the number applied."""
        n = bisect_left(w.walk, fail)
        for i in w.walk[n:]:
            busy.discard(p.us[i])
            busy.discard(p.vs[i])
        if not n:
            return 0
        done = w.touched & (w.cand < fail)
        fid, cand, adjacent, _, u_row, v_row, drop = p.pairs[:, np.sort(w.pair[done])]
        p.alive[drop] = 0
        p.at[u_row] = p.at[v_row] = cand + p.n_points
        p.vertex[v_row] = p.u[cand]
        np.subtract.at(p.length, fid, adjacent)
        p.changed[fid] = True

        applied = w.walk[:n]
        self.cs.points[p.u[applied]] = p.mids[applied]
        fids = fid.tolist()   # candidate, then facet order
        a = 0
        for i, b in zip(applied, cand.searchsorted(applied, side="right").tolist()):
            self.oplog.append({"op": "collapse", "pass": pass_no, "edge": [p.us[i], p.vs[i]],
                               "length": p.lengths[i], "tolerance": p.tols[i],
                               "facets": fids[a:b]})
            a = b
        return n

    def _regather(self, p: _Pass, row_fid) -> None:
        """Gather the loop rows of the facets a pass changed again, from
        its rows; a facet it deleted has none."""
        sel = np.flatnonzero((p.alive[:-1] == 1) & p.changed[row_fid])
        sel = sel[row_fid[sel].argsort(kind="stable")]
        fid, vertex = row_fid[sel], p.vertex[sel]
        first = np.flatnonzero(np.diff(fid, prepend=-1))
        hit, lens = fid[first], np.diff(first, append=len(fid))
        live = p.length[hit] >= 3
        self._replace_rows(hit, _rows(hit[live], lens[live], vertex[live.repeat(lens)]))

    def _check(self, fid, size, rows, table) -> np.ndarray:
        """Per loop state, given as its facet and its size, with the rows of
        all of them in the position table ``table`` flat: does it
        `_breaks`?

        The states are checked in groups of one padded size, the least
        2**k or 3 * 2**k at or above their loop size; a 3 * 2**k group of
        fewer than 32 states, which would cost more in calls than its
        padding saves, joins the 2**(k+2) one. A loop is padded by repeating
        its last vertex, which adds zero area terms and zero-length edges
        that cross nothing, so the test gives what it gives on the loop
        itself.
        """
        plane, e1, e2 = self.cs.plane_point, self.cs.e1, self.cs.e2
        first = size.cumsum() - size
        # per state, 3 * 2**k and 2**(k+2), where 2**(k+2) >= size > 2**(k+1)
        three = 3 << (np.frexp(size - 1)[1] - 2)
        power = 4 * three // 3
        padded = np.where(size <= three, three, power)
        few = (padded == three) & (np.bincount(padded)[padded] < 32)
        padded[few] = power[few]
        broken = np.zeros(len(size), dtype=bool)
        for m in np.bincount(padded).nonzero()[0].tolist():
            sel = (padded == m).nonzero()[0]
            f = fid[sel]
            at = first[sel, None] + np.minimum(np.arange(m), size[sel, None] - 1)
            rel = table[rows[at]] - plane[f][:, None, :]
            broken[sel] = _breaks(rel, e1[f], e2[f], self.cs.bed.radius_nominal)
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
        hit = np.zeros(len(cs.site_a), dtype=bool)
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
        self._replace_rows(hit_fids, _rows(hit_fids, np.add.reduceat(count, starts), out))

    def check_guard(self) -> None:
        """Raise GeometryError if a loop vertex lies inside the guard sphere
        of a real cell its facet bounds (`geometry.check_guard`)."""
        cs = self.cs
        fid, verts, _ = self.rows
        site_a, site_b = cs.site_a[fid], cs.site_b[fid]
        real = site_b < cs.n_real
        pairs = np.vstack([np.column_stack([verts, site_a]),
                           np.column_stack([verts[real], site_b[real]])])
        check_guard(cs.points, pairs, cs.bed.centers, self.cfg.guard_radius * cs.bed.radius_nominal)


def collapse_edges(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Multi-pass global edge collapse; returns the (mutated) cell set.

    Shortest edges go first; a collapse fuses both endpoints at the edge
    midpoint across every facet that shares the edge; facets left with
    fewer than 3 edges are deleted. A collapse that would pinch, flatten or
    self-intersect a facet loop is skipped, and tried again in later
    passes; its first skip is logged. Cleanup passes at
    the full tolerance run after the schedule until no edge is left
    below it.
    """
    run = _Repair(cs, cfg, oplog)
    run.collapse_edges()
    return run.store()


def insert_vertices(cs: VoronoiCellSet, cfg: RepairConfig, oplog: list | None = None) -> VoronoiCellSet:
    """Bisect every facet edge longer than max_edge, consistently everywhere.

    Splitting is recursive: an edge of length L gets 2^m - 1 equally spaced
    points with m = ceil(log2(L / max_edge)), which is what repeated
    midpoint bisection produces for a straight edge.
    """
    run = _Repair(cs, cfg, oplog)
    run.insert_vertices()
    return run.store()


def repair(cs: VoronoiCellSet, cfg: RepairConfig | None = None, log_path=None) -> VoronoiCellSet:
    """Full repair: collapse passes, vertex insertion, then the guard check.
    A repair that raises, also in the guard check, leaves the cell set as it
    was given. ``log_path`` gets the oplog as JSON lines, also the records
    made before a failure."""
    given = cs.points.copy()  # the loop arrays are written only at the end
    run = _Repair(cs, cfg or RepairConfig(), None)
    try:
        run.collapse_edges()
        run.insert_vertices()
        run.check_guard()
        run.store()
    except BaseException:
        cs.points = given
        raise
    finally:
        if log_path is not None:
            with open(log_path, "w") as fh:
                for rec in run.oplog:
                    fh.write(json.dumps(rec) + "\n")
    return cs


def edge_lengths(cs: VoronoiCellSet, cfg: RepairConfig | None = None):
    """(length, base tolerance) per unique live edge, with the base
    tolerances of ``cfg`` (default: `RepairConfig()`); for audits."""
    cfg = cfg or RepairConfig()
    edges = _edge_table(cs.points, _loop_rows(cs))
    tol = _base_tolerance(edges, _facet_zone(cs), cfg)
    return list(zip(edges.length.tolist(), tol.tolist()))
