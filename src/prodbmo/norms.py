"""Product BMO and logarithmic mean oscillation norms at finite depth.

The square of the product BMO norm is the maximum over non-empty unions of
fine-grid cells Omega of

    sum of |phi_R|^2 over rectangles contained in Omega  /  |Omega|,

computed exactly by the closure solver.  The LMO variants weight restricted
versions of the same quantity by powers of the scale logarithm, or measure
the decay of the tail projections Q_j.  Natural logarithms throughout.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .closure import ClosureInstance, best_ratio, best_ratio_bruteforce
from .core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    _analysis,
    _basis_order,
    _dyadic_cells,
    _interval_cells,
    _subtree_reduce,
    _unit_scaled,
    haar_forward_2d,
    level_of_basis_index,
    square_function,
)
from .errors import ValidationError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# closure instances from spectra
# ---------------------------------------------------------------------------

def grid_closure_instance(phi: HaarSpectrum2D, restrict_to: DyadicRect = None):
    """Cells and weighted rectangles of the hh block, in the enumeration order;
    restricted to a dyadic rectangle, only the rectangles inside it, on its cells.

    Those are the enumeration at the rectangle's depth below the grid: on a side
    of basis index B, basis index b at level j below it is b + (B - 1) * 2^j.
    """
    shape = phi.coeffs.shape
    cells = _dyadic_cells(restrict_to, phi.depth) if restrict_to else [(0, n) for n in shape]
    sub = [hi - lo for lo, hi in cells]
    rows, cols = (b[sub[0] + sub[1] - 1:] for b in
                  _basis_order(tuple(m.bit_length() - 1 for m in sub)))
    b1, b2 = (b + (((n + lo) // m - 1) << level_of_basis_index(m)[b]) if m < n else b
              for b, (lo, _), m, n in zip((rows, cols), cells, sub, shape))  # B = (n + lo) / m
    return ClosureInstance(tuple(np.full(m, 1.0 / n) for m, n in zip(sub, shape)),
                           (_interval_cells(sub[0])[rows], _interval_cells(sub[1])[cols]),
                           np.square(phi.coeffs[b1, b2]))


def _crop(inst: ClosureInstance, cells=None, tail=(0, 0)):
    """(instance, cells): the weighted rectangles of a grid instance that lie
    inside the per-axis cell ranges (lo, hi) (the whole grid if None) and
    have generation >= tail, on those cells, and the cells as slices.

    Every cell keeps its area, so a ratio inside a dyadic rectangle is the
    full grid's; inst itself when nothing is cut.  A range one cell thick
    holds no weighted rectangle.
    """
    if cells is None and tail == (0, 0):
        return inst, (slice(None), slice(None))
    cells = cells or [(0, len(w)) for w in inst.widths]
    keep = True
    for (lo, hi), j, w, r in zip(cells, tail, inst.widths, inst.ranges):
        keep = keep & (lo <= r[:, 0]) & (r[:, 1] <= hi) & (r[:, 1] - r[:, 0] <= len(w) >> j)
    cells = tuple(slice(*c) for c in cells)
    return ClosureInstance(tuple(w[c] for w, c in zip(inst.widths, cells)),
                           tuple(r[keep] - c.start for r, c in zip(inst.ranges, cells)),
                           inst.rect_weights[keep]), cells


def bmo_d_norm_sq(phi: HaarSpectrum2D, restrict_to: DyadicRect = None):
    """Exact squared product BMO norm and an attaining cell mask.

    The mask is a boolean array over the full grid; an all-zero hh block
    yields (0.0, all-False).  Restricted to a dyadic rectangle, the norm is
    that of the symbol's weighted rectangles inside it, with the cell areas
    of the full grid.
    """
    inst = grid_closure_instance(phi, restrict_to)
    value, local_mask = best_ratio(inst)
    grid_mask = np.zeros(phi.coeffs.shape, dtype=bool)
    if local_mask is not None:
        cells = _dyadic_cells(restrict_to, phi.depth) if restrict_to else [(0, None)] * 2
        grid_mask[tuple(slice(*c) for c in cells)] = local_mask.reshape(inst.shape)
    return value, grid_mask


def bmo_d_norm_sq_bruteforce(phi: HaarSpectrum2D, restrict_to: DyadicRect = None) -> float:
    """Exhaustive maximum over all non-empty cell subsets (oracle)."""
    cells = restrict_to and _dyadic_cells(restrict_to, phi.depth)
    return best_ratio_bruteforce(_crop(grid_closure_instance(phi), cells)[0])


def _energy_levels(phi: HaarSpectrum2D):
    """(phi_R^2 / |R|, E, levels) over the basis-index pairs (b1, b2) >= 1,
    each the dyadic rectangle R = I x J: E the hh energy of the rectangles
    inside R and levels the level sum of R itself (|R| = 2^-levels)."""
    sq = np.square(phi.hh_only().coeffs)
    energy, levels = sq, np.add.outer(*(level_of_basis_index(n) for n in sq.shape))
    for axis in (0, 1):
        energy = _subtree_reduce(energy, np.add, axis)
    return sq * 2.0 ** levels, energy, levels


def _rect_energies(phi: HaarSpectrum2D):
    """(E, U, levels) of :func:`_energy_levels` and :func:`_generation_bound`."""
    ratio, energy, levels = _energy_levels(phi)
    return energy, _generation_bound(ratio, phi.depth[1]), levels


def _generation_bound(ratio, t_depth: int):
    """U[b1, b2]: the sum over generations g of the largest ratio
    phi_Q^2 / |Q| of a generation-g rectangle Q inside R.  The rectangles
    of one generation are disjoint, so those inside an Omega weigh at most
    that largest ratio times |Omega|, and E / |R| <= ||phi restricted to
    R||^2 <= U.  The peaks are stacked by one generation axis at a time:
    t_depth * n1 * n2 floats at most."""
    lv2 = level_of_basis_index(ratio.shape[1])
    upper = np.zeros_like(ratio)
    # by t-generation g2: the largest ratio of generation g2 below each column
    peak = _subtree_reduce(np.where(np.equal.outer(np.arange(t_depth), lv2)[:, None],
                                    ratio, 0.0), np.maximum, 2)
    stack, lo = np.empty((0, *peak.shape)), len(ratio) >> 1
    while lo:  # by s-generation g1 >= the level of rows [lo, 2 lo): the peaks below each row
        stack = np.concatenate((peak[None, :, lo:2 * lo],
                                np.maximum(stack[:, :, 0::2], stack[:, :, 1::2])))
        upper[lo:2 * lo] = stack.sum(axis=(0, 1))
        lo >>= 1
    return upper


def bmo_rect_norm_sq(phi: HaarSpectrum2D) -> float:
    """Rectangle-restricted variant: Omega ranges over single dyadic
    rectangles only.  Always <= the open-set norm."""
    _, energy, levels = _energy_levels(phi)
    return float((energy * 2.0 ** levels).max())


def bmo_norm_of_grid(f: GridFunction2D) -> float:
    """Convenience: sqrt of the BMO square of the function's hh spectrum."""
    phi, e = _unit_scaled(haar_forward_2d(f))
    return math.ldexp(math.sqrt(bmo_d_norm_sq(phi)[0]), e)


# ---------------------------------------------------------------------------
# logarithmic mean oscillation
# ---------------------------------------------------------------------------

def lmo_d_norm(phi: HaarSpectrum2D) -> float:
    """max over generations j of (j1+1)(j2+1) * ||Q_j phi||_BMO."""
    return _lmo_tail_search(phi, (False, False))


def lmo_directional_norm(phi: HaarSpectrum2D, axis: int) -> float:
    """max over i of (i+1) * ||Q^(axis)_i phi||_BMO for one axis."""
    if axis not in (1, 2):
        raise ValidationError("axis must be 1 or 2")
    return _lmo_tail_search(phi, (axis == 2, axis == 1))


def _lmo_tail_search(phi: HaarSpectrum2D, pinned) -> float:
    """max over tail generations (j1, j2) of (j1+1)(j2+1) * ||Q_(j1,j2) phi||_BMO;
    a pinned axis stays at level 0 (weight 1, no projection in that axis).
    A tail's squared norm is at least its hh energy (Omega the square) and
    the largest phi_Q^2 / |Q| of its rectangles (Omega = Q), and at most
    the largest upper bound U of the dyadic rectangles of its generation:
    they tile the square, and each holds the tail's rectangles inside it."""
    phi, e = _unit_scaled(phi)
    ratio, energy, _ = _energy_levels(phi)
    inst = functools.cache(lambda: grid_closure_instance(phi))  # built at the first solve
    upper = _generation_bound(ratio, phi.depth[1])
    tails, bounds = [], []
    for j1, j2 in itertools.product(*(range(1 if p else d) for p, d in zip(pinned, phi.depth))):
        gen = np.s_[(1 << j1):(2 << j1), (1 << j2):(2 << j2)]  # the rectangles of (j1, j2)
        w = (j1 + 1) * (j2 + 1)
        lower = max(float(energy[gen].sum()), float(ratio[(1 << j1):, (1 << j2):].max()))
        tails.append((w, (j1, j2)))
        bounds.append((w * math.sqrt(lower), w * math.sqrt(upper[gen].max())))
    best, _ = _pruned_max(bounds, lambda n: tails[n][0] * math.sqrt(
        best_ratio(_crop(inst(), tail=tails[n][1])[0])[0]))
    return math.ldexp(best, e)


def _pruned_max(bounds, value):
    """(max, first n attaining it) of value(n) >= 0 over the candidates n,
    given bounds lower <= value(n) <= upper on each: tried by decreasing
    lower bound, evaluated only when the upper bound can reach the best so
    far, and settled at the bound, with no evaluation, when the two are
    equal."""
    best, best_n = 0.0, 0
    for n in sorted(range(len(bounds)), key=lambda n: (-bounds[n][0], n)):
        lower, upper = bounds[n]
        if upper * (1.0 + 1e-12) > best:  # slack for the rounding of the bounds
            val = lower if lower == upper else value(n)
            if val > best or (val == best and n < best_n):
                best, best_n = val, n
    return best, best_n


def lmo_beta_char_norm(phi: HaarSpectrum2D, beta) -> float:
    """Log-weighted local Carleson maximum with per-axis weights switched off
    where beta_j == 1 (that axis is then pinned to the full interval).

    beta == (1,1) reproduces the squared BMO norm; beta == (0,0) is the full
    log-weighted characterisation.
    """
    return _lmo_char_search(phi, beta)[0]


def lmo_char_norm(phi: HaarSpectrum2D) -> float:
    """max over dyadic R = I x J and Omega inside R of
    (log(4/|I|))^2 (log(4/|J|))^2 * carleson ratio."""
    return lmo_beta_char_norm(phi, (0, 0))


def lmo_char_details(phi: HaarSpectrum2D):
    """(value, attaining rectangle) of the log-weighted characterisation."""
    return _lmo_char_search(phi, (0, 0))


def _lmo_char_search(phi: HaarSpectrum2D, beta):
    """(value, first rectangle attaining it) of the beta characterisation;
    the unit square when every weighted value is 0.  A restricted norm
    lies between E/|R| and the per-generation bound U of R."""
    beta = tuple(beta)
    if beta not in {(0, 0), (0, 1), (1, 0), (1, 1)}:
        raise ValidationError(f"beta must be a 0/1 pair, got {beta}")
    energy, upper, levels = _rect_energies(phi)
    inst = functools.cache(lambda: grid_closure_instance(phi))  # built at the first solve
    n1, n2 = energy.shape
    # per axis: the basis index of every interval, weighted (log(4 * 2^j))^2, or of the
    # unit interval alone, weighted 1; the candidates run with the s-axis outer
    sides = [np.arange(1, 2 if b else n) for b, n in zip(beta, (n1, n2))]
    weights = [np.where(b, 1.0, ((level_of_basis_index(n)[side] + 2) * LN2) ** 2)
               for b, n, side in zip(beta, (n1, n2), sides)]
    s, t = (b.ravel() for b in np.meshgrid(*sides, indexing="ij"))
    w = np.multiply.outer(*weights).ravel()
    e = w * energy[s, t]
    bounds = np.column_stack((e * 2.0 ** levels[s, t], w * upper[s, t])).tolist()
    best, n = _pruned_max(bounds, lambda n: float(w[n]) * best_ratio(
        _crop(inst(), (_interval_cells(n1)[s[n]], _interval_cells(n2)[t[n]]))[0])[0])
    return best, DyadicRect(DyadicInterval.from_basis_index(int(s[n])),
                            DyadicInterval.from_basis_index(int(t[n])))


def h1_norm(f: GridFunction2D) -> float:
    """L1 norm of the square function."""
    return float(square_function(haar_forward_2d(f)).values.mean())


# ---------------------------------------------------------------------------
# extremal staircase symbols
# ---------------------------------------------------------------------------

def _staircase_1d(interval: DyadicInterval, depth: int) -> np.ndarray:
    """1 + sum of indicators of the ancestors of the interval; equals
    level + 1 on the interval itself."""
    n = 1 << depth
    vals = np.ones(n)
    for j in range(1, interval.level + 1):
        anc = interval.ancestor(j)
        w = n >> j
        vals[anc.index * w:(anc.index + 1) * w] += 1.0
    return vals


def extremal_bmo_function(rect: DyadicRect, depth) -> GridFunction2D:
    """Product staircase b with b == (k+1)(l+1) on the rectangle, where
    (k, l) are the generation levels of its sides; the BMO norm is bounded
    uniformly in the rectangle (validated by the calibration sweep)."""
    cells = _dyadic_cells(rect, depth)
    b1 = _staircase_1d(rect.s_interval, depth[0])
    b2 = _staircase_1d(rect.t_interval, depth[1])
    out = GridFunction2D(depth, np.outer(b1, b2))
    k, l = rect.s_interval.level, rect.t_interval.level
    block = out.values[tuple(slice(*c) for c in cells)]
    assert np.all(block == (k + 1) * (l + 1))
    return out


# ---------------------------------------------------------------------------
# 1-d dyadic BMO, the tensor-product tests' reference for the closure solver
# ---------------------------------------------------------------------------

def dyadic_bmo_1d_sq(values: np.ndarray) -> float:
    """1-d dyadic BMO square of a cell-value array: max over dyadic
    intervals of the contained coefficient mass over the interval length.
    (In one parameter the open-set supremum is attained on intervals.)"""
    n = len(values)
    depth = n.bit_length() - 1
    c = _analysis(np.asarray(values, dtype=float))
    best = 0.0
    for g in range(depth):
        acc = np.zeros(1 << g)
        for j in range(g, depth):
            acc += (c[(1 << j):(2 << j)] ** 2).reshape(1 << g, -1).sum(axis=1)
        best = max(best, float(acc.max()) * (1 << g))
    return best
