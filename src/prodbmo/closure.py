"""Ratio maximisation over cell sets via maximum-weight closure / min-cut.

The objective is g(Omega) = sum of rectangle weights fully contained in
Omega divided by the area of Omega, maximised over non-empty unions of the
cells of a product grid, each rectangle a product of per-axis cell ranges.
For a fixed multiplier lam the inner problem

    maximise  sum_{selected rects} w_R  -  lam * area(selected cells)

subject to every selected rectangle dragging in all of its cells is a
maximum-weight closure problem, solved by a min cut on the bipartite
source -> rect -> cell -> sink network (rect->cell arcs effectively
infinite).  The outer loop is a Dinkelbach iteration started at the best
box of rectangle ranges: lam is updated to the ratio of the current
maximiser until a flow certifies it, and the certifying flow's residual
graph gives the largest optimal set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from types import SimpleNamespace

import numpy as np

from .errors import NonConvergenceError, ValidationError

#: Dinkelbach rounds before best_ratio gives up
_MAX_ROUNDS = 1000
#: relative improvement below which a Dinkelbach round settles the ratio
_REL_TOL = 1e-13
#: bytes a solve may hold, estimated as 225 per rect -> cell arc plus 475 per
#: rectangle or atom, 30-32% over a dense solve's traced peak from (4,4) to (8,8)
#: (of which the cached structure, adjacency tuples included, keeps 124-165 per arc);
#: best_ratio refuses a network above it, and it bounds the summed estimates of the
#: cached structures
_MAX_BYTES = 2.2e9


class _FlowNetwork:
    """Dinic max-flow on real capacities ``cap``, set before each solve, over
    fixed arcs, which it only reads: arc e runs into to[e], arc e ^ 1 is its
    reverse, and node u leaves by the arcs head[u].  ``phases`` and ``paths``
    count the blocking-flow phases and augmenting paths of every max_flow
    call on the network.  A phase with t at level 3, as is the first of a
    closure solve (s -> rect -> cell -> t), runs as nested loops over the arcs
    of s, of a level-1 node and of a level-2 node, each from _dfs's pointer, and
    sends _dfs's paths: after a push _dfs walks again from s and retraces the
    path up to the first arc the push left at or below eps, where the loops
    resume; and the BFS stopped at t, so another level-3 node is a dead end.  A
    closure's s visits its finest rectangles first, so later phases seldom reroute."""

    def __init__(self, head, to):
        self.head, self.to, self.n = head, to, len(head)
        self.phases = self.paths = 0

    def max_flow(self, s, t, eps):
        """(flow, levels of the last BFS): level >= 0 marks the min cut's source side."""
        flow = 0  # exact on exact capacities such as Fraction
        while True:
            level = self._bfs(s, t, eps)
            if level[t] < 0:
                return flow, level
            self.phases += 1
            it = [0] * self.n
            if level[t] == 3:
                flow = self._three_arc_phase(s, t, level, it, eps, flow)
                continue
            while (pushed := self._dfs(s, t, level, it, eps)) > 0.0:
                flow += pushed
                self.paths += 1

    def _three_arc_phase(self, s, t, level, it, eps, flow):
        """flow plus the blocking flow of a phase with t at level 3, added path by path."""
        head, to, cap = self.head, self.to, self.cap
        paths = 0
        for a in head[s]:
            u = to[a]
            arcs, i = head[u], it[u]
            n = len(arcs)
            while i < n and cap[a] > eps and level[u] == 1:
                v = to[b := arcs[i]]
                if level[v] != 2 or cap[b] <= eps:
                    i += 1
                    continue
                out, j = head[v], it[v]
                m = len(out)
                while j < m:
                    if to[c := out[j]] == t and cap[c] > eps:
                        break
                    j += 1
                it[v] = j
                if j == m:  # v is a dead end
                    i += 1
                    continue
                pushed = cap[a]
                if cap[b] < pushed:
                    pushed = cap[b]
                if cap[c] < pushed:
                    pushed = cap[c]
                cap[a] -= pushed
                cap[a ^ 1] += pushed
                cap[b] -= pushed
                cap[b ^ 1] += pushed
                cap[c] -= pushed
                cap[c ^ 1] += pushed
                flow += pushed
                paths += 1
            it[u] = i
        self.paths += paths
        return flow

    def _bfs(self, s, t, eps):
        """Levels from s over arcs of cap > eps; stops once t is labelled, as
        no node past t's level lies on a shortest path (t = -1 runs in full)."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:  # the list grows while it is walked
            next_level = level[u] + 1
            for e in head[u]:
                v = to[e]
                if level[v] < 0 and cap[e] > eps:
                    level[v] = next_level
                    if v == t:
                        return level
                    queue.append(v)
        return level

    def _dfs(self, s, t, level, it, eps):
        # iterative walk: extend a path along admissible edges, push on arrival
        head, to, cap = self.head, self.to, self.cap
        path = []
        u = s
        while u != t:
            arcs, i, next_level = head[u], it[u], level[u] + 1
            n = len(arcs)
            while i < n:
                e = arcs[i]
                if level[to[e]] == next_level and cap[e] > eps:
                    break
                i += 1
            it[u] = i
            if i < n:
                path.append(e)
                u = to[e]
            elif u == s:
                return 0.0
            else:
                level[u] = -1  # dead end, prune
                u = to[path.pop() ^ 1]  # tail of the edge we arrived through
        pushed = float("inf")
        for e in path:
            if cap[e] < pushed:
                pushed = cap[e]
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        return pushed


def _arc_cells(ranges, shape):
    """(first, cells): each rectangle's first arc and the cell of every arc,
    rectangle by rectangle and row-major within one."""
    sizes = [r[:, 1] - r[:, 0] for r in ranges]
    counts = reduce(np.multiply, sizes)
    first = np.cumsum(counts) - counts
    rect = np.repeat(np.arange(counts.size), counts)
    local = np.arange(rect.size) - first[rect]
    coords = []
    for r, size in zip(ranges[::-1], sizes[::-1]):
        coords.append(r[rect, 0] + local % size[rect])
        local = local // size[rect]
    return first, np.ravel_multi_index(coords[::-1], shape)


def _ratio(cell_areas, first, cells, rect_weights, cell_mask):
    """ClosureInstance.ratio of the rectangles with arcs (first, cells); the
    kernel best_ratio shares."""
    area = np.where(cell_mask, cell_areas, 0.0).sum(axis=-1)
    if not (area > 0.0).all():
        raise ValidationError("ratio of an empty cell set")
    inside = np.logical_and.reduceat(cell_mask[..., cells], first, axis=-1)
    total = np.cumsum(np.where(inside, rect_weights, 0.0), axis=-1)  # no 0 * inf
    return (total[..., -1] if first.size else 0.0) / area


@dataclass
class ClosureInstance:
    """Weighted rectangles on a product grid of cells, numbered row-major.

    widths: per axis, the positive cell widths; ranges: per axis, an
    (n_rects, 2) array of half-open cell ranges, whose product is the
    rectangle; rect_weights: non-negative weight per rectangle."""

    widths: tuple
    ranges: tuple
    rect_weights: np.ndarray

    def __post_init__(self):
        self.widths = tuple(np.asarray(w, dtype=float) for w in self.widths)
        self.ranges = tuple(np.asarray(r, dtype=np.int64) for r in self.ranges)
        self.rect_weights = np.asarray(self.rect_weights, dtype=float)
        self.shape = tuple(len(w) for w in self.widths)
        if not self.shape or not all(self.shape):
            raise ValidationError("need at least one axis, each of at least one cell")
        if any((w <= 0).any() for w in self.widths):
            raise ValidationError("cell widths must be positive")
        if not (self.rect_weights >= 0).all():
            raise ValidationError("rectangle weights must be non-negative")
        nr = len(self.rect_weights)
        if len(self.ranges) != len(self.widths) or any(r.shape != (nr, 2) for r in self.ranges):
            raise ValidationError("need one (n_rects, 2) range array per axis")
        if any(((r[:, 0] < 0) | (r[:, 0] >= r[:, 1]) | (r[:, 1] > n)).any()
               for r, n in zip(self.ranges, self.shape)):
            raise ValidationError("every rectangle needs a non-empty cell range inside the grid")

    @property
    def n_cells(self):
        return self.cell_areas.size

    @cached_property
    def cell_areas(self):
        return reduce(np.multiply.outer, self.widths).ravel()

    @cached_property
    def _arcs(self):
        return _arc_cells(self.ranges, self.shape)

    @cached_property
    def rect_cells(self):
        """Per rectangle, the indices of the cells it requires."""
        first, cells = self._arcs
        return np.split(cells, first[1:])

    def ratio(self, cell_mask: np.ndarray):
        """g(Omega) for Omega given as a boolean cell mask, or for each mask
        along the last axis; contained weights are summed in rectangle order."""
        return _ratio(self.cell_areas, *self._arcs, self.rect_weights, cell_mask)


class _Structures(OrderedDict):
    """Solve structures by geometry, least recently used first, and the sum of
    their memory estimates."""

    bytes = 0

    def clear(self):
        super().clear()
        self.bytes = 0


_STRUCTURES = _Structures()


def _structure(inst: ClosureInstance, active):
    """The weight-free part of a solve of inst's active rectangles, read-only and
    built once per geometry (cell widths, active ranges), after the size refusal
    of every call.  The solve runs on the atoms, each axis cut only at the active
    range ends: an active rectangle covers an atom wholly or not at all, and no min
    cut uses a rect -> cell arc, so the minimal min cut is a union of atoms."""
    ranges = [r[active] for r in inst.ranges]
    key = tuple(a.tobytes() for a in (*inst.widths, *ranges))
    s = _STRUCTURES.get(key)
    if s is None:
        s = SimpleNamespace(widths=[], ranges=[], atom_of=[])
        for w, r in zip(inst.widths, ranges):
            cut = np.bincount(np.append(r, 0), minlength=len(w) + 1) > 0
            index = np.cumsum(cut) - 1  # at each cut, the atom starting there
            s.atom_of.append(index[:-1])
            s.widths.append(np.bincount(index[:-1], weights=w))
            s.ranges.append(index[r])
        s.shape = tuple(len(w) for w in s.widths)
        s.n_arcs = int(reduce(np.multiply, [r[:, 1] - r[:, 0] for r in s.ranges]).sum())
        s.n_nodes = active.size + int(np.prod(s.shape))
        s.bytes = 225 * s.n_arcs + 475 * s.n_nodes
    if s.bytes > _MAX_BYTES:
        raise ValidationError(
            f"closure network of {s.n_arcs} arcs and {s.n_nodes} rectangles and atoms exceeds "
            f"about {_MAX_BYTES / 1e9:.1f} GB")
    if key in _STRUCTURES:
        _STRUCTURES.move_to_end(key)
        return s
    s.first, s.cells = _arc_cells(s.ranges, s.shape)
    s.cell_areas = reduce(np.multiply.outer, s.widths).ravel()
    # nodes: source 0, rectangles 1..nr, cells nr+1..nr+nc, sink nr+nc+1;
    # arcs: every source -> rect, then every rect -> cell, then every cell -> sink
    nr, nc = s.first.size, s.cell_areas.size
    out_arcs = np.concatenate(([nr], np.diff(s.first, append=s.cells.size), np.ones(nc, int)))
    tails = np.repeat(np.arange(1 + nr + nc), out_arcs)
    heads = np.concatenate((np.arange(1, 1 + nr), 1 + nr + s.cells, np.full(nc, 1 + nr + nc)))
    # arc 2k: tails[k] -> heads[k]; a stable sort by the node left keeps arcs in id order
    starts = np.column_stack((tails, heads)).ravel()
    order = np.argsort(starts, kind="stable").tolist()
    ends = np.cumsum(np.bincount(starts, minlength=2 + nr + nc)).tolist()
    head = tuple(tuple(order[a:b]) for a, b in zip([0] + ends[:-1], ends))
    # but the source's arcs go finest rectangle first (fewest rect -> cell arcs, ties in id
    # order), so the greedy first phase fills fine rectangles' cells before coarse ones do
    head = (tuple((2 * np.argsort(out_arcs[1:1 + nr], kind="stable")).tolist()), *head[1:])
    nodes = list(range(2 + nr + nc))  # the arc ends share one int object per node
    to = tuple(map(nodes.__getitem__, np.column_stack((heads, tails)).ravel()))
    # best box tables: per axis the distinct range intervals, their containments and cells
    index, s.inside, s.sides = [], [], []
    for w, r in zip(s.widths, s.ranges):
        present = np.bincount(code := r[:, 0] * (len(w) + 1) + r[:, 1]) > 0
        lo, hi = np.divmod(np.flatnonzero(present), len(w) + 1)
        index.append((np.cumsum(present) - 1)[code])
        s.inside.append(((lo <= lo[:, None]) & (hi[:, None] <= hi)).astype(float))  # [v, u]
        cells = np.arange(len(w))
        s.sides.append((lo[:, None] <= cells) & (cells < hi[:, None]))  # [u, cell]
    s.box_area = reduce(np.multiply.outer, [side @ w for side, w in zip(s.sides, s.widths)])
    s.box = np.ravel_multi_index(index, s.box_area.shape)
    s.ix = np.ix_(*s.atom_of)
    for v in vars(s).values():
        for a in v if isinstance(v, (list, tuple)) else (v,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    s.head, s.to = head, to  # immutable tuples, set after the loop so that it skips them
    _STRUCTURES[key] = s
    _STRUCTURES.bytes += s.bytes
    while _STRUCTURES.bytes > _MAX_BYTES:
        _STRUCTURES.bytes -= _STRUCTURES.popitem(last=False)[1].bytes
    return s


def best_ratio(inst: ClosureInstance):
    """Maximise g over non-empty cell unions, solving on the atoms of the
    weighted rectangles; returns (ratio, cell mask), the mask the union of
    all optimal sets.  All-zero weights return (0.0, the empty mask)."""
    active = np.flatnonzero(inst.rect_weights > 0.0)
    if active.size == 0:
        return 0.0, np.zeros(inst.n_cells, bool)
    s = _structure(inst, active)
    weights = inst.rect_weights[active]
    ratio = partial(_ratio, s.cell_areas, s.first, s.cells, weights)
    nr, nc, n_req = s.first.size, s.cell_areas.size, s.cells.size
    total_w = float(weights.sum())
    # cutting every source arc costs total_w, so no min cut uses a rect -> cell arc
    base_cap = [0.0] * (2 * (nr + n_req + nc))
    base_cap[0:2 * nr:2] = weights.tolist()
    base_cap[2 * nr:-2 * nc:2] = [2.0 * total_w] * n_req
    eps = 2e-15 * total_w  # 1e-15 of the rect -> cell capacity
    # Dinkelbach starts at the best box, a feasible set, so at or below the optimum
    grid = np.bincount(s.box, weights, s.box_area.size).reshape(s.box_area.shape)
    nd = grid.ndim  # contained weight of every box, one axis at a time, moved last and back
    for axis, m in enumerate(s.inside):
        grid = (grid.transpose([*range(axis), *range(axis + 1, nd), axis]) @ m).transpose(
            [*range(axis), nd - 1, *range(axis, nd - 1)])
    best = np.unravel_index(np.argmax(grid / s.box_area), s.box_area.shape)
    best_mask = reduce(np.logical_and.outer, [side[u] for side, u in zip(s.sides, best)]).ravel()
    lam = ratio(best_mask)
    net = _FlowNetwork(s.head, s.to)
    for _ in range(_MAX_ROUNDS):
        # only the last arcs, cell -> sink, depend on lam; the cut's source side is closed
        net.cap = list(base_cap)
        net.cap[-2 * nc::2] = (lam * s.cell_areas).tolist()
        flow, level = net.max_flow(0, net.n - 1, eps)
        if total_w - flow <= _REL_TOL * total_w:
            # lam is optimal; the cells that cannot reach the sink in the residual
            # graph (a BFS from the sink over reversed arcs) form the largest optimal set
            net.cap[0::2], net.cap[1::2] = net.cap[1::2], net.cap[0::2]
            union = best_mask | (np.array(net._bfs(net.n - 1, -1, eps)[-1 - nc:-1]) < 0)
            if not np.array_equal(union, best_mask):  # else lam is already ratio(best_mask)
                lam, best_mask = ratio(union), union
            break
        mask = np.array(level[-1 - nc:-1]) >= 0
        new_lam = ratio(mask) if mask.any() else 0.0
        if new_lam <= lam * (1.0 + _REL_TOL):
            lam, best_mask = max(lam, new_lam), (mask if new_lam > lam else best_mask)
            break
        lam, best_mask = new_lam, mask
    else:
        raise NonConvergenceError("ratio iteration failed to settle", last_estimate=lam)
    return float(lam), best_mask.reshape(s.shape)[s.ix].ravel()


def best_ratio_bruteforce(inst: ClosureInstance) -> float:
    """Exhaustive maximum over all non-empty cell subsets (<= 16 cells)."""
    nc = inst.n_cells
    if nc > 16:
        raise ValidationError("brute force supports at most 16 cells")
    masks = np.arange(1, 1 << nc, dtype=np.uint32)
    return float(inst.ratio((masks[:, None] >> np.arange(nc)) & 1 == 1).max())
