"""Ratio maximisation over cell sets via maximum-weight closure / min-cut.

The objective is g(Omega) = sum of rectangle weights fully contained in
Omega divided by the area of Omega, maximised over non-empty unions of
cells.  For a fixed multiplier lam the inner problem

    maximise  sum_{selected rects} w_R  -  lam * area(selected cells)

subject to every selected rectangle dragging in all of its cells is a
maximum-weight closure problem, solved by a min cut on the bipartite
source -> rect -> cell -> sink network (rect->cell arcs effectively
infinite).  The outer loop is a Dinkelbach iteration: lam is updated to the
ratio of the current maximiser until no strict improvement remains, which
terminates because the candidate ratios form a finite set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ValidationError

#: Dinkelbach rounds before best_ratio gives up
_MAX_ROUNDS = 1000
#: relative improvement below which a Dinkelbach round settles the ratio
_REL_TOL = 1e-13


class _FlowNetwork:
    """Dinic max-flow on real capacities ``cap``, set before each solve, over
    fixed arcs: arc 2k runs tails[k] -> heads[k] and arc 2k + 1 is its
    reverse; every node lists the arcs leaving it in id order."""

    def __init__(self, n_nodes, tails, heads):
        self.n = n_nodes
        starts = np.column_stack((tails, heads)).ravel()  # the node each arc leaves
        bounds = np.cumsum(np.bincount(starts, minlength=n_nodes))[:-1]
        self.head = [arcs.tolist() for arcs in np.split(np.argsort(starts, kind="stable"), bounds)]
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
    """Weighted rectangle / cell bipartite structure for ratio maximisation.

    cell_areas: positive area per cell; rect_weights: non-negative weight
    per rectangle; rect_cells: per rectangle, the indices of the cells it
    requires.
    """

    cell_areas: np.ndarray
    rect_weights: np.ndarray
    rect_cells: tuple

    def __post_init__(self):
        self.cell_areas = np.asarray(self.cell_areas, dtype=float)
        self.rect_weights = np.asarray(self.rect_weights, dtype=float)
        if (self.cell_areas <= 0).any():
            raise ValidationError("cell areas must be positive")
        if (self.rect_weights < 0).any():
            raise ValidationError("rectangle weights must be non-negative")
        if len(self.rect_cells) != len(self.rect_weights):
            raise ValidationError("rect_cells and rect_weights length mismatch")
        nc = len(self.cell_areas)
        cleaned = []
        for cells in self.rect_cells:
            arr = np.asarray(cells, dtype=int)
            if arr.size == 0:
                raise ValidationError("every rectangle must require at least one cell")
            if arr.min() < 0 or arr.max() >= nc:
                raise ValidationError("rectangle cell index out of range")
            cleaned.append(arr)
        self.rect_cells = tuple(cleaned)

    @classmethod
    def from_product_blocks(cls, shape, cell_area, blocks):
        """Instance on a row-major grid of equal cells whose rectangles are
        products of per-axis cell ranges.

        ``blocks`` yields (row_ranges, col_ranges, coefs): the (lo, hi) cell
        ranges of each axis and the matrix of coefficients of their
        products.  A rectangle weighs its coefficient squared; zero weights
        are dropped.  Rectangles keep the block order, then row-major order
        within a block.
        """
        n_rows, n_cols = shape
        weights = []
        rect_cells = []
        for row_ranges, col_ranges, coefs in blocks:
            for (r_lo, r_hi), coef_row in zip(row_ranges, coefs):
                rows = np.arange(r_lo, r_hi)[:, None] * n_cols
                for (c_lo, c_hi), coef in zip(col_ranges, coef_row):
                    w = coef ** 2
                    if w == 0.0:
                        continue
                    weights.append(w)
                    rect_cells.append((rows + np.arange(c_lo, c_hi)).reshape(-1))
        return cls(
            cell_areas=np.full(n_rows * n_cols, cell_area),
            rect_weights=np.array(weights) if weights else np.zeros(0),
            rect_cells=tuple(rect_cells),
        )

    @property
    def n_cells(self):
        return len(self.cell_areas)

    def ratio(self, cell_mask: np.ndarray) -> float:
        """g(Omega) for Omega given as a boolean cell mask."""
        area = float(self.cell_areas[cell_mask].sum())
        if area == 0.0:
            raise ValidationError("ratio of an empty cell set")
        total = 0.0
        for w, cells in zip(self.rect_weights, self.rect_cells):
            if w != 0.0 and cell_mask[cells].all():
                total += w
        return total / area


def _solve_closure(net, base_cap, lam, cell_areas, total_w):
    """Max of sum(selected w) - lam * area(selected cells) on the network of
    :func:`best_ratio`, whose last arcs, cell -> sink, are the only ones that
    depend on lam; returns (value, cell mask), closed by the cut."""
    nc = len(cell_areas)
    net.cap = list(base_cap)
    net.cap[-2 * nc::2] = (lam * cell_areas).tolist()
    eps = 2e-15 * total_w  # 1e-15 of the rect -> cell capacity
    flow, level = net.max_flow(0, net.n - 1, eps)
    return total_w - flow, np.array(level[-1 - nc:-1]) >= 0


def best_ratio(inst: ClosureInstance):
    """Maximise g over non-empty cell unions; returns (ratio, cell mask).

    All-zero weights return (0.0, None) as the empty-set sentinel.
    """
    active = np.flatnonzero(inst.rect_weights > 0.0)
    if active.size == 0:
        return 0.0, None
    nr, nc = active.size, inst.n_cells
    cells = [inst.rect_cells[r] for r in active]
    required = np.concatenate(cells)
    total_w = float(inst.rect_weights[active].sum())
    # nodes: source 0, rectangles 1..nr, cells nr+1..nr+nc, sink nr+nc+1;
    # arcs: every source -> rect, then every rect -> cell, then every cell -> sink
    rect_nodes, cell_nodes = np.arange(1, 1 + nr), np.arange(1 + nr, 1 + nr + nc)
    net = _FlowNetwork(
        2 + nr + nc,
        np.concatenate((np.zeros(nr, dtype=np.int64),
                        np.repeat(rect_nodes, [len(c) for c in cells]), cell_nodes)),
        np.concatenate((rect_nodes, 1 + nr + required, np.full(nc, 1 + nr + nc))),
    )
    # cutting every source arc costs total_w, so no min cut uses a rect -> cell arc
    base_cap = [0.0] * (2 * (nr + required.size + nc))
    base_cap[0:2 * nr:2] = inst.rect_weights[active].tolist()
    base_cap[2 * nr:-2 * nc:2] = [2.0 * total_w] * required.size
    start = np.zeros(nc, dtype=bool)
    start[required] = True
    lam = inst.ratio(start)
    best_mask = start
    for _ in range(_MAX_ROUNDS):
        value, mask = _solve_closure(net, base_cap, lam, inst.cell_areas, total_w)
        if value <= _REL_TOL * total_w or not mask.any():
            return lam, best_mask
        new_lam = inst.ratio(mask)
        if new_lam <= lam * (1.0 + _REL_TOL):
            return max(lam, new_lam), (mask if new_lam > lam else best_mask)
        lam = new_lam
        best_mask = mask
    raise NonConvergenceError(
        "ratio iteration failed to settle", last_estimate=lam
    )


def best_ratio_bruteforce(inst: ClosureInstance) -> float:
    """Exhaustive maximum over all non-empty cell subsets (<= 16 cells)."""
    nc = inst.n_cells
    if nc > 16:
        raise ValidationError("brute force supports at most 16 cells")
    n_masks = 1 << nc
    masks = np.arange(n_masks, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(nc)[None, :]) & 1).astype(bool)
    areas = bits @ inst.cell_areas
    weights = np.zeros(n_masks)
    for w, cells in zip(inst.rect_weights, inst.rect_cells):
        if w == 0.0:
            continue
        rect_bits = np.uint32(0)
        for c in cells:
            rect_bits |= np.uint32(1) << np.uint32(int(c))
        included = (masks & rect_bits) == rect_bits
        weights[included] += w
    areas[0] = np.inf  # exclude the empty set
    return float((weights / areas).max())
