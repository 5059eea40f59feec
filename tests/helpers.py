"""Shared test utilities: random inputs and naive reference computations."""

import itertools
import math

import numpy as np

from prodbmo.closure import ClosureInstance, best_ratio
from prodbmo.core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    _analysis,
    _unit_scaled,
    block_means,
    haar_inverse_2d,
    level_of_basis_index,
)
from prodbmo.errors import ValidationError
from prodbmo.hilbert import StepFunction1D, _check_window, _left_ends, _shift_values
from prodbmo.norms import LN2, _pruned_max, grid_closure_instance
from prodbmo.paraproducts import nine_part_apply
from prodbmo.shifts import embed_grid, shift_grid


def random_spectrum(depth, rng):
    j1, j2 = depth
    return HaarSpectrum2D(depth, rng.standard_normal((1 << j1, 1 << j2)))


def random_hh_spectrum(depth, rng):
    c = random_spectrum(depth, rng)
    return c.hh_only()


def random_grid(depth, rng):
    j1, j2 = depth
    return GridFunction2D(depth, rng.standard_normal((1 << j1, 1 << j2)))


def random_hh_grid(depth, rng):
    return haar_inverse_2d(random_hh_spectrum(depth, rng))


def grid_inner(f, g):
    """L2 inner product of two grid functions."""
    return float((f.values * g.values).sum()) * f.cell_area


def all_hh_rects(depth):
    j1d, j2d = depth
    out = []
    for j1 in range(j1d):
        for i1 in range(1 << j1):
            for j2 in range(j2d):
                for i2 in range(1 << j2):
                    out.append(DyadicRect(DyadicInterval(j1, i1), DyadicInterval(j2, i2)))
    return out


def haar_values_1d(interval, n):
    """Cell values of h_I on a 2^J grid (right half positive)."""
    vals = np.zeros(n)
    w = n >> interval.level
    lo = interval.index * w
    amp = 2.0 ** (interval.level / 2.0)
    vals[lo:lo + w // 2] = -amp
    vals[lo + w // 2:lo + w] = amp
    return vals


def indicator_values_1d(interval, n):
    """Cell values of chi_I / |I|."""
    vals = np.zeros(n)
    w = n >> interval.level
    lo = interval.index * w
    vals[lo:lo + w] = float(1 << interval.level)
    return vals


def haar_rect_grid(rect, depth):
    """h_R as a grid function."""
    n1, n2 = 1 << depth[0], 1 << depth[1]
    vals = np.outer(
        haar_values_1d(rect.s_interval, n1), haar_values_1d(rect.t_interval, n2)
    )
    return GridFunction2D(depth, vals)


def matrix_rr_commutator_image(phi, rect, depth):
    """[S1, [S2, R_R(phi)]] h_rect via assembled dense matrices (oracle)."""
    from prodbmo.core import HaarSpectrum2D, haar_forward_2d
    from prodbmo.linop import assemble, commutator, spectrum_to_vector, vector_to_spectrum
    from prodbmo.paraproducts import EQUAL, NinePartTag, nine_part_apply
    from prodbmo.shifts import shift_matrix

    spec = haar_forward_2d(phi)
    rr = assemble(
        lambda g: nine_part_apply(NinePartTag(EQUAL, EQUAL), spec, g),
        depth,
        space="grid",
    )
    comm = commutator(
        shift_matrix(depth, 1), commutator(shift_matrix(depth, 2), rr)
    )
    e = HaarSpectrum2D.zeros(depth).with_hh_coef(rect, 1.0)
    return vector_to_spectrum(comm.matrix @ spectrum_to_vector(e), depth)


def verify_against(dense, op, space="grid", n_samples=20, tol=1e-11, seed=7):
    """Max deviation between the matrix action and the functional form on
    random inputs; raises if it exceeds ``tol``."""
    from prodbmo.core import haar_forward_2d
    from prodbmo.errors import ValidationError
    from prodbmo.linop import spectrum_to_vector, vector_to_spectrum

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        v = rng.standard_normal(dense.dim)
        spec = vector_to_spectrum(v, dense.depth)
        if space == "grid":
            out = spectrum_to_vector(haar_forward_2d(op(haar_inverse_2d(spec))))
        else:
            out = spectrum_to_vector(op(spec))
        worst = max(worst, float(np.abs(dense.matrix @ v - out).max()))
    if worst > tol:
        raise ValidationError(
            f"matrix/functional mismatch {worst} exceeds tolerance {tol}"
        )
    return worst


# ---------------------------------------------------------------------------
# reference generation sum: per-generation blocks expanded by np.repeat
# ---------------------------------------------------------------------------

def reference_factor_blocks(x, kind):
    """(j1, j2) -> the (..., 2^j1, 2^j2) block of <x, d1_I (x) d2_J>, kind
    per axis 0 for the Haar function and 1 for the normalised indicator;
    Haar axes are analysed first, then the s-axis and t-axis block means."""
    def levels(v, k, axis):
        if k:
            return block_means(v, axis)
        return [v.swapaxes(0, axis)[(1 << j):(2 << j)].swapaxes(0, axis)
                for j in range(v.shape[axis].bit_length() - 1)]

    if isinstance(x, HaarSpectrum2D):
        if tuple(kind) == (0, 0):
            return x.generation_block
        x = haar_inverse_2d(x)
    v = x.values
    for axis in (-1, -2):
        if not kind[axis]:
            v = _analysis(v, axis)
    table = [levels(row, kind[1], -1) for row in levels(v, kind[0], -2)]
    return lambda j1, j2: table[j1][j2]


def reference_axis_pattern(n, j, beta):
    """Per-cell values of the level-j outer factor (0: Haar, 1: normalised
    indicator) on an axis of n cells."""
    if beta == 1:
        return np.full(n, float(1 << j))
    w = n >> j
    tile = np.empty(w)
    tile[: w // 2] = -(2.0 ** (j / 2.0))
    tile[w // 2:] = 2.0 ** (j / 2.0)
    return np.tile(tile, 1 << j)


def reference_generation_sum(shape, a, b, beta):
    """sum over the hh generations of a(j1, j2) * b(j1, j2), each block
    repeated to the cells of its rectangles and weighted by the outer
    factors; generations whose product vanishes are skipped."""
    out = np.zeros(shape)
    n1, n2 = shape[-2:]
    for j1 in range(n1.bit_length() - 1):
        for j2 in range(n2.bit_length() - 1):
            coef = a(j1, j2) * b(j1, j2)
            if coef.any():
                expanded = np.repeat(np.repeat(coef, n1 >> j1, axis=-2), n2 >> j2, axis=-1)
                p1 = reference_axis_pattern(n1, j1, beta[0])
                p2 = reference_axis_pattern(n2, j2, beta[1])
                out += expanded * (p1[:, None] * p2[None, :])
    return out


def reference_bilinear(phi, phi_kind, f, f_kind, beta):
    """Cell values of the bilinear form of :mod:`prodbmo.paraproducts` by
    the reference generation sum."""
    shape = np.broadcast_shapes(phi.coeffs.shape, f.values.shape)
    return reference_generation_sum(shape, reference_factor_blocks(phi, phi_kind),
                                    reference_factor_blocks(f, f_kind), beta)


def reference_crop(inst, cells, tail):
    """The weighted rectangles of a full grid instance that lie inside the
    per-axis cell ranges (lo, hi) and have generation >= tail, counted inside
    those ranges, on those cells, each cell keeping its area: the reference
    for restricted and tail instances."""
    keep = True
    for (lo, hi), j, r in zip(cells, tail, inst.ranges):
        keep = keep & (lo <= r[:, 0]) & (r[:, 1] <= hi) & (r[:, 1] - r[:, 0] <= (hi - lo) >> j)
    return ClosureInstance(tuple(w[lo:hi] for w, (lo, hi) in zip(inst.widths, cells)),
                           tuple(r[keep] - lo for r, (lo, _) in zip(inst.ranges, cells)),
                           inst.rect_weights[keep])


# ---------------------------------------------------------------------------
# reference LMO search bounds: every table rebuilt on each call
# ---------------------------------------------------------------------------

def _reference_subtree_reduce(x, ufunc, axis):
    """x with each slot b >= 1 along ``axis`` replaced by ufunc over slot b
    and its descendants 2b, 2b + 1, 4b, ...; slot 0 is kept."""
    x = np.moveaxis(x, axis, 0).copy()
    lo = len(x) >> 2  # the first slot with children
    while lo:
        x[lo:2 * lo] = ufunc(x[lo:2 * lo], ufunc(x[2 * lo:4 * lo:2], x[2 * lo + 1:4 * lo:2]))
        lo >>= 1
    return np.moveaxis(x, 0, axis)


def _reference_energy_levels(phi):
    sq = np.square(phi.hh_only().coeffs)
    energy, levels = sq, np.add.outer(*(level_of_basis_index(n) for n in sq.shape))
    for axis in (0, 1):
        energy = _reference_subtree_reduce(energy, np.add, axis)
    return sq * 2.0 ** levels, energy, levels


def _reference_generation_bound(ratio, t_depth):
    lv2 = level_of_basis_index(ratio.shape[1])
    upper = np.zeros_like(ratio)
    peak = _reference_subtree_reduce(np.where(np.equal.outer(np.arange(t_depth), lv2)[:, None],
                                              ratio, 0.0), np.maximum, 2)
    stack, lo = np.empty((0, *peak.shape)), len(ratio) >> 1
    while lo:
        stack = np.concatenate((peak[None, :, lo:2 * lo],
                                np.maximum(stack[:, :, 0::2], stack[:, :, 1::2])))
        upper[lo:2 * lo] = stack.sum(axis=(0, 1))
        lo >>= 1
    return upper


def reference_bmo_rect_norm_sq(phi):
    """``norms.bmo_rect_norm_sq`` on the reference energy table."""
    _, energy, levels = _reference_energy_levels(phi)
    return float((energy * 2.0 ** levels).max())


def reference_lmo_bounds(phi, pinned=None, beta=None):
    """(bounds, value, at) of an LMO search as the norms module ran it
    before its per-depth tables, unchanged: the (lower, upper) bounds handed
    to ``_pruned_max``, the search's value and the candidate attaining it.
    With ``pinned``, the tail search of ``lmo_d_norm`` and
    ``lmo_directional_norm`` (at is the tail (j1, j2)); with ``beta``, the
    characterisation search (at is the dyadic rectangle)."""
    if beta is None:
        phi, e = _unit_scaled(phi)
        ratio, energy, _ = _reference_energy_levels(phi)
        upper = _reference_generation_bound(ratio, phi.depth[1])
        tails, bounds = [], []
        depths = (range(1 if p else d) for p, d in zip(pinned, phi.depth))
        for j1, j2 in itertools.product(*depths):
            gen = np.s_[(1 << j1):(2 << j1), (1 << j2):(2 << j2)]
            w = (j1 + 1) * (j2 + 1)
            lower = max(float(energy[gen].sum()), float(ratio[(1 << j1):, (1 << j2):].max()))
            tails.append((w, (j1, j2)))
            bounds.append((w * math.sqrt(lower), w * math.sqrt(upper[gen].max())))
        best, n = _pruned_max(bounds, lambda n: tails[n][0] * math.sqrt(
            best_ratio(grid_closure_instance(phi, tail=tails[n][1]))[0]))
        try:
            best = math.ldexp(best, e)
        except OverflowError:
            best = math.inf
        return bounds, best, tails[n][1]
    ratio, energy, levels = _reference_energy_levels(phi)
    upper = _reference_generation_bound(ratio, phi.depth[1])
    n1, n2 = energy.shape
    sides = [np.arange(1, 2 if b else n) for b, n in zip(beta, (n1, n2))]
    weights = [np.where(b, 1.0, ((level_of_basis_index(n)[side] + 2) * LN2) ** 2)
               for b, n, side in zip(beta, (n1, n2), sides)]
    s, t = (b.ravel() for b in np.meshgrid(*sides, indexing="ij"))
    w = np.multiply.outer(*weights).ravel()
    e = w * energy[s, t]
    bounds = np.column_stack((e * 2.0 ** levels[s, t], w * upper[s, t])).tolist()

    def rect(n):
        return DyadicRect(DyadicInterval.from_basis_index(int(s[n])),
                          DyadicInterval.from_basis_index(int(t[n])))
    best, n = _pruned_max(bounds, lambda n: float(w[n]) * best_ratio(
        grid_closure_instance(phi, rect(n)))[0])
    return bounds, best, rect(n)


# ---------------------------------------------------------------------------
# reference max-flow kernel: the closure solver's earlier Dinic loops
# ---------------------------------------------------------------------------

class ReferenceFlowNetwork:
    """The closure solver's Dinic loops as they were before their rewrite for
    speed, unchanged but for the phase and path counters and the
    constructor: every BFS runs in full and every bottleneck is taken by
    ``min``.  Same constructor (the per-node arc lists ``head`` and the arc
    ends ``to``) and ``cap`` contract as ``prodbmo.closure._FlowNetwork``."""

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
            while True:
                pushed = self._dfs(s, t, float("inf"), level, it, eps)
                if pushed <= 0.0:
                    break
                flow += pushed
                self.paths += 1

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


# ---------------------------------------------------------------------------
# reference iterated shift commutator: eight separate grid shifts
# ---------------------------------------------------------------------------

def _s1(g):
    return shift_grid(g, 1)


def _s2(g):
    return shift_grid(g, 2)


def reference_double_commutator(m, x):
    """[S1, [S2, m]] x = S1 S2 m x - S1 m S2 x - S2 m S1 x + m S2 S1 x, as the
    shifts module evaluated it before its staged form: each of the eight shifts
    a full Haar analysis, coefficient move and synthesis of one grid."""
    return _s1(_s2(m(x))) - _s1(m(_s2(x))) - _s2(m(_s1(x))) + m(_s2(_s1(x)))


def reference_iterated_commutator_apply(phi, b):
    """``shifts.iterated_commutator_apply`` by the eight-shift reference."""
    return reference_double_commutator(embed_grid(phi).multiply, embed_grid(b))


def reference_part_commutator_apply(tag, phi_ambient, b_ambient):
    """``shifts.part_commutator_apply`` by the eight-shift reference."""
    return reference_double_commutator(
        lambda g: nine_part_apply(tag, phi_ambient, g), b_ambient)


# ---------------------------------------------------------------------------
# reference grid draw: one numpy Generator per seed
# ---------------------------------------------------------------------------

def reference_draw_grids(seeds, k_coarse, k_fine):
    """Shift bits (n, levels) and dilations (n, 1) of one grid per seed, each
    drawn from its own ``default_rng(seed)``: the bits, then r.  The loop the
    hilbert module ran before its array draw, unchanged."""
    bits = np.empty((len(seeds), k_coarse + k_fine), dtype=np.int64)
    r = np.empty((len(seeds), 1))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        bits[row] = rng.integers(0, 2, size=k_coarse + k_fine)
        r[row] = 2.0 ** rng.random()
    r[r >= 2.0] = 1.0  # guard the half-open interval against rounding
    return bits, r


# ---------------------------------------------------------------------------
# reference Monte-Carlo point kernel: every level of the window
# ---------------------------------------------------------------------------

def _reference_carries(f, left, length):
    """<f, h_I> of the intervals [left, left + length) by three cdf calls, and
    whether each carries it (a breakpoint inside, by two searchsorted calls,
    and a non-zero coefficient)."""
    right, bp = left + length, f.breakpoints
    coef = f.cdf(right) - 2.0 * f.cdf(left + length / 2.0) + f.cdf(left)
    width = np.sqrt(right - left)
    coef = np.divide(coef, width, out=np.zeros_like(coef), where=width > 0.0)[()]
    inside = np.searchsorted(bp, right, side="left") > np.searchsorted(bp, left, side="right")
    return coef, inside & (coef != 0.0)


def reference_shift_sums(f, k_coarse, r, offsets, xs):
    """``hilbert._shift_sums`` as it ran before it skipped the levels past
    reach: every level of the window evaluated, unchanged."""
    _check_window(f, k_coarse)
    x = np.asarray(xs, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("evaluation points must be finite")
    base = np.ldexp(1.0, k_coarse - np.arange(offsets.shape[1]))[:, None, None]
    left = _left_ends(x, r, offsets.T[:, :, None], base)
    length = r * base
    coef, keep = _reference_carries(f, left, length)
    terms = np.where(keep, coef * _shift_values((x - left) / length, length), 0.0)
    # levels in order, coarse to fine, from +0.0 (np.sum may pair them up instead)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def reference_grid_shift_apply(f, g):
    """``hilbert.grid_shift_apply`` on the reference carries and kernel."""
    _check_window(f, g.k_coarse)
    base = np.ldexp(1.0, -np.arange(-g.k_coarse, g.k_fine + 1))[:, None, None, None]
    steps = np.array([-1.0, 0.0])[:, None, None] + np.arange(5)[:, None] / 4.0
    quarters = _left_ends(f.breakpoints, g.r, g.offsets[:, None, None, None], base, steps)
    carries = _reference_carries(f, quarters[:, :, 0], g.r * base[:, :, 0])[1]
    points = np.unique(np.moveaxis(quarters, 2, -1)[carries])
    if points.size == 0:
        return StepFunction1D.zero()
    return StepFunction1D(points, reference_shift_sums(f, g.k_coarse, g.r, g.offsets[None],
                                                       0.5 * (points[:-1] + points[1:]))[0])
