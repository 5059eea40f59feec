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

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NonConvergenceError, ValidationError

#: Dinkelbach rounds before best_ratio gives up
_MAX_ROUNDS = 1000
#: relative improvement below which a Dinkelbach round settles the ratio
_REL_TOL = 1e-13
#: rect -> cell arcs above which best_ratio refuses a network
_MAX_ARCS = 1 << 23
#: bytes a solve may hold, about 225 per arc plus 475 per rectangle or atom (measured
#: with ru_maxrss); what the arc cap allows a dense symbol's network, which has few
#: rectangles per arc: a tail network, with up to one rectangle and one atom per
#: arc, would reach 5-10 GB under the arc cap alone
_MAX_BYTES = 2.2e9


class _FlowNetwork:
    """Dinic max-flow on real capacities ``cap``, set before each solve, over
    fixed arcs: arc 2k runs tails[k] -> heads[k] and arc 2k + 1 is its
    reverse; every node lists the arcs leaving it in id order."""

    def __init__(self, n_nodes, tails, heads):
        self.n = n_nodes
        starts = np.column_stack((tails, heads)).ravel()  # the node each arc leaves
        order = np.argsort(starts, kind="stable").tolist()
        ends = np.cumsum(np.bincount(starts, minlength=n_nodes)).tolist()
        self.head = [order[a:b] for a, b in zip([0] + ends[:-1], ends)]
        self.to = np.column_stack((heads, tails)).ravel().tolist()

    def max_flow(self, s, t, eps):
        """(flow, levels of the last BFS): level >= 0 marks the min cut's source side."""
        flow = 0.0
        while True:
            level = self._bfs(s, t, eps)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, float("inf"), level, it, eps)
                if pushed <= 0.0:
                    break
                flow += pushed

    def _bfs(self, s, t, eps):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for e in self.head[u]:
                v = self.to[e]
                if level[v] < 0 and self.cap[e] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs(self, s, t, limit, level, it, eps):
        # iterative walk: extend a path along admissible edges, push on arrival
        path = []
        u = s
        while True:
            if u == t:
                pushed = limit
                for e in path:
                    pushed = min(pushed, self.cap[e])
                for e in path:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                return pushed
            advanced = False
            while it[u] < len(self.head[u]):
                e = self.head[u][it[u]]
                v = self.to[e]
                if self.cap[e] > eps and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0.0
                level[u] = -1  # dead end, prune
                e = path.pop()
                u = self.to[e ^ 1]  # tail of the edge we arrived through


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
        if any((w <= 0).any() for w in self.widths):
            raise ValidationError("cell widths must be positive")
        if (self.rect_weights < 0).any():
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
    def arc_counts(self):
        """Per rectangle, the number of cells it requires."""
        return reduce(np.multiply, [r[:, 1] - r[:, 0] for r in self.ranges])

    @cached_property
    def _arcs(self):
        """(first, cells): each rectangle's first arc and the cell of every
        arc, rectangle by rectangle and row-major within one."""
        sizes = [r[:, 1] - r[:, 0] for r in self.ranges]
        counts = self.arc_counts
        first = np.cumsum(counts) - counts
        rect = np.repeat(np.arange(counts.size), counts)
        local = np.arange(rect.size) - first[rect]
        coords = []
        for r, size in zip(self.ranges[::-1], sizes[::-1]):
            coords.append(r[rect, 0] + local % size[rect])
            local = local // size[rect]
        return first, np.ravel_multi_index(coords[::-1], self.shape)

    @cached_property
    def rect_cells(self):
        """Per rectangle, the indices of the cells it requires."""
        first, cells = self._arcs
        return np.split(cells, first[1:])

    def ratio(self, cell_mask: np.ndarray):
        """g(Omega) for Omega given as a boolean cell mask, or for each mask
        along the last axis; contained weights are summed in rectangle order."""
        area = np.where(cell_mask, self.cell_areas, 0.0).sum(axis=-1)
        if not (area > 0.0).all():
            raise ValidationError("ratio of an empty cell set")
        first, cells = self._arcs
        inside = np.logical_and.reduceat(cell_mask[..., cells], first, axis=-1)
        total = np.cumsum(inside * self.rect_weights, axis=-1)
        return (total[..., -1] if first.size else 0.0) / area


def _atoms(inst: ClosureInstance, active):
    """(instance, atom_of): the active rectangles on the atoms of inst, each
    axis cut only at their range ends, and per axis the atom of each cell.
    An active rectangle covers an atom wholly or not at all, and no min cut
    uses a rect -> cell arc, so the minimal min cut is a union of atoms."""
    widths, ranges, atom_of = [], [], []
    for w, r in zip(inst.widths, inst.ranges):
        cut = np.bincount(np.append(r[active], 0), minlength=len(w) + 1) > 0
        index = np.cumsum(cut) - 1  # at each cut, the atom starting there
        atom_of.append(index[:-1])
        widths.append(np.bincount(index[:-1], weights=w))
        ranges.append(index[r[active]])
    return ClosureInstance(tuple(widths), tuple(ranges), inst.rect_weights[active]), atom_of


def _best_box(inst: ClosureInstance):
    """Cell mask of the best product of per-axis intervals that occur as
    rectangle ranges; any such box is a feasible set, so its ratio starts
    Dinkelbach at or below the optimum."""
    index, inside, sides = [], [], []
    for w, r in zip(inst.widths, inst.ranges):
        present = np.bincount(code := r[:, 0] * (len(w) + 1) + r[:, 1]) > 0
        lo, hi = np.divmod(np.flatnonzero(present), len(w) + 1)  # the distinct intervals
        index.append((np.cumsum(present) - 1)[code])
        inside.append(((lo <= lo[:, None]) & (hi[:, None] <= hi)).astype(float))  # [v, u]: v in u
        cells = np.arange(len(w))
        sides.append((lo[:, None] <= cells) & (cells < hi[:, None]))  # [u, cell]
    shape = tuple(len(m) for m in inside)
    grid = np.bincount(np.ravel_multi_index(index, shape), inst.rect_weights, np.prod(shape))
    grid = grid.reshape(shape)
    for axis, m in enumerate(inside):  # contained weight of every box, one axis at a time
        grid = np.moveaxis(np.moveaxis(grid, axis, -1) @ m, -1, axis)
    area = reduce(np.multiply.outer, [side @ w for side, w in zip(sides, inst.widths)])
    best = np.unravel_index(np.argmax(grid / area), shape)
    return reduce(np.logical_and.outer, [side[u] for side, u in zip(sides, best)]).ravel()


def best_ratio(inst: ClosureInstance):
    """Maximise g over non-empty cell unions, solving on the atoms of the
    weighted rectangles; returns (ratio, cell mask), the mask the union of
    all optimal sets.  All-zero weights return (0.0, None) as the empty-set
    sentinel."""
    active = np.flatnonzero(inst.rect_weights > 0.0)
    if active.size == 0:
        return 0.0, None
    atoms, atom_of = _atoms(inst, active)
    # checked before the arcs are built
    n_arcs, n_nodes = int(atoms.arc_counts.sum()), active.size + int(np.prod(atoms.shape))
    if n_arcs > _MAX_ARCS or 225 * n_arcs + 475 * n_nodes > _MAX_BYTES:
        raise ValidationError(
            f"closure network of {n_arcs} arcs and {n_nodes} rectangles and atoms exceeds "
            f"{_MAX_ARCS} arcs or about {_MAX_BYTES / 1e9:.1f} GB")
    first, required = atoms._arcs
    nr, nc = first.size, atoms.n_cells
    total_w = float(atoms.rect_weights.sum())
    # nodes: source 0, rectangles 1..nr, cells nr+1..nr+nc, sink nr+nc+1;
    # arcs: every source -> rect, then every rect -> cell, then every cell -> sink
    rect_nodes, cell_nodes = np.arange(1, 1 + nr), np.arange(1 + nr, 1 + nr + nc)
    net = _FlowNetwork(
        2 + nr + nc,
        np.concatenate((np.zeros(nr, dtype=np.int64),
                        np.repeat(rect_nodes, np.diff(first, append=required.size)), cell_nodes)),
        np.concatenate((rect_nodes, 1 + nr + required, np.full(nc, 1 + nr + nc))),
    )
    # cutting every source arc costs total_w, so no min cut uses a rect -> cell arc
    base_cap = [0.0] * (2 * (nr + required.size + nc))
    base_cap[0:2 * nr:2] = atoms.rect_weights.tolist()
    base_cap[2 * nr:-2 * nc:2] = [2.0 * total_w] * required.size
    eps = 2e-15 * total_w  # 1e-15 of the rect -> cell capacity
    best_mask = _best_box(atoms)
    lam = atoms.ratio(best_mask)
    for _ in range(_MAX_ROUNDS):
        # only the last arcs, cell -> sink, depend on lam; the cut's source side is closed
        net.cap = list(base_cap)
        net.cap[-2 * nc::2] = (lam * atoms.cell_areas).tolist()
        flow, level = net.max_flow(0, net.n - 1, eps)
        if total_w - flow <= _REL_TOL * total_w:
            # lam is optimal; the cells that cannot reach the sink in the residual
            # graph (a BFS from the sink over reversed arcs) form the largest optimal set
            net.cap[0::2], net.cap[1::2] = net.cap[1::2], net.cap[0::2]
            best_mask |= np.array(net._bfs(net.n - 1, 0, eps)[-1 - nc:-1]) < 0
            lam = atoms.ratio(best_mask)
            break
        mask = np.array(level[-1 - nc:-1]) >= 0
        new_lam = atoms.ratio(mask) if mask.any() else 0.0
        if new_lam <= lam * (1.0 + _REL_TOL):
            lam, best_mask = max(lam, new_lam), (mask if new_lam > lam else best_mask)
            break
        lam, best_mask = new_lam, mask
    else:
        raise NonConvergenceError("ratio iteration failed to settle", last_estimate=lam)
    return float(lam), best_mask.reshape(atoms.shape)[np.ix_(*atom_of)].ravel()


def best_ratio_bruteforce(inst: ClosureInstance) -> float:
    """Exhaustive maximum over all non-empty cell subsets (<= 16 cells)."""
    nc = inst.n_cells
    if nc > 16:
        raise ValidationError("brute force supports at most 16 cells")
    masks = np.arange(1, 1 << nc, dtype=np.uint32)
    return float(inst.ratio((masks[:, None] >> np.arange(nc)) & 1 == 1).max())
