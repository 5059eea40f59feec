"""Product BMO and logarithmic mean oscillation norms at finite depth.

The square of the product BMO norm is the maximum over non-empty unions of
fine-grid cells Omega of

    sum of |phi_R|^2 over rectangles contained in Omega  /  |Omega|,

computed exactly by the closure solver.  Every LMO form is one search over
dyadic rectangles R for the largest weighted restricted quantity, Omega
inside R, the weight a power of the scale logarithm of R's sides; the tail
projections Q_j reduce to it.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .closure import ClosureInstance, best_ratio, best_ratio_bruteforce
from .core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    _analysis,
    _basis_order,
    _check_axis,
    _check_depth,
    _dyadic_cells,
    _interval_cells,
    _is_int,
    _read_only,
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

_UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def _cells(phi: HaarSpectrum2D, restrict_to):
    """Per axis the cell range (lo, hi) of a dyadic rectangle, None the unit square."""
    return _dyadic_cells(restrict_to or _UNIT_SQUARE, phi.depth)


@lru_cache(maxsize=64)
def _cell_widths(m, n):
    """Read-only widths of m cells of an axis of n."""
    return _read_only(np.full(m, 1.0 / n))


def _single_shape(values) -> tuple:
    """The shape of values, refused with leading batch axes: a norm is of one function."""
    if values.ndim != 2:
        raise ValidationError(f"a norm takes a single function, got shape {values.shape}")
    return values.shape


def grid_closure_instance(phi: HaarSpectrum2D, restrict_to: DyadicRect = None):
    """Cells and weighted rectangles of the hh block, in the enumeration order;
    restricted to a dyadic rectangle, only the rectangles inside it, on its cells.

    Those are the enumeration at the rectangle's depth below the grid: on a side
    of basis index B, basis index b at level j below it is b + (B - 1) * 2^j.
    """
    shape, cells = _single_shape(phi.coeffs), _cells(phi, restrict_to)
    sub = [hi - lo for lo, hi in cells]
    rows, cols = (b[sub[0] + sub[1] - 1:] for b in
                  _basis_order(tuple(m.bit_length() - 1 for m in sub)))
    b1, b2 = (b + (((n + lo) // m - 1) << level_of_basis_index(m)[b]) if m < n else b
              for b, (lo, _), m, n in zip((rows, cols), cells, sub, shape))  # B = (n + lo) / m
    return ClosureInstance(tuple(_cell_widths(m, n) for m, n in zip(sub, shape)),
                           (_interval_cells(sub[0])[rows], _interval_cells(sub[1])[cols]),
                           np.square(phi.coeffs[b1, b2]))


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
    grid_mask[tuple(slice(*c) for c in _cells(phi, restrict_to))] = local_mask.reshape(inst.shape)
    return value, grid_mask


def bmo_d_norm_sq_bruteforce(phi: HaarSpectrum2D, restrict_to: DyadicRect = None) -> float:
    """Exhaustive maximum over all non-empty cell subsets (oracle)."""
    return best_ratio_bruteforce(grid_closure_instance(phi, restrict_to))


@lru_cache(maxsize=32)
def _depth_tables(shape):
    """Read-only (scale, t_mask) of one spectrum shape: 1 / |R| of every basis-index pair and
    the t-generation mask of _generation_bound."""
    lv = [level_of_basis_index(n) for n in shape]
    return _read_only(2.0 ** np.add.outer(*lv),
                      np.equal.outer(np.arange(lv[1][-1] + 1), lv[1])[:, None])


def _energy_levels(phi: HaarSpectrum2D):
    """(phi_R^2 / |R|, E, scale) over the basis-index pairs (b1, b2) >= 1, each
    the dyadic rectangle R = I x J: E the hh energy of the rectangles inside R
    and scale = 1 / |R|.  Only the hh block is squared: no other can overflow."""
    scale = _depth_tables(_single_shape(phi.coeffs))[0]
    sq = np.zeros(phi.coeffs.shape)
    np.square(phi.coeffs[1:, 1:], out=sq[1:, 1:])
    energy = sq.copy()
    _subtree_reduce(energy, np.add)
    _subtree_reduce(energy.T, np.add)
    return sq * scale, energy, scale


def _generation_bound(ratio):
    """U[b1, b2]: the sum over generations g of the largest ratio
    phi_Q^2 / |Q| of a generation-g rectangle Q inside R.  The rectangles
    of one generation are disjoint, so those inside an Omega weigh at most
    that largest ratio times |Omega|, and E / |R| <= ||phi restricted to
    R||^2 <= U.  The peaks are stacked by one generation axis at a time:
    t_depth * n1 * n2 floats at most."""
    upper = np.zeros_like(ratio)
    # by t-generation g2: the largest ratio of generation g2 below each column
    peak = np.where(_depth_tables(ratio.shape)[1], ratio, 0.0)
    _subtree_reduce(peak.T, np.maximum)
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
    _, energy, scale = _energy_levels(phi)
    return float((energy * scale).max())


def bmo_norm_of_grid(f: GridFunction2D) -> float:
    """Convenience: sqrt of the BMO square of the function's hh spectrum."""
    phi, e = _unit_scaled(haar_forward_2d(f))
    return math.ldexp(math.sqrt(bmo_d_norm_sq(phi)[0]), e)


# ---------------------------------------------------------------------------
# logarithmic mean oscillation
# ---------------------------------------------------------------------------

def lmo_d_norm(phi: HaarSpectrum2D) -> float:
    """max over generations j of (j1+1)(j2+1) * ||Q_j phi||_BMO."""
    return _lmo_tail_form(phi, (False, False))


def lmo_directional_norm(phi: HaarSpectrum2D, axis: int) -> float:
    """max over i of (i+1) * ||Q^(axis)_i phi||_BMO for one axis."""
    _check_axis(axis)
    return _lmo_tail_form(phi, (axis == 2, axis == 1))


def _lmo_tail_form(phi: HaarSpectrum2D, pinned) -> float:
    """max over tail generations j of (j1+1)(j2+1) * ||Q_j phi||_BMO, a pinned
    axis kept at level 0.  The generation-j rectangles tile the square and
    each holds exactly the tail's rectangles inside it, so ||Q_j phi||^2 is
    the largest squared norm of phi restricted to one of them."""
    phi, e = _unit_scaled(phi)
    try:
        return math.ldexp(_lmo_search(phi, pinned, False)[0], e)
    except OverflowError:  # past float range, as the other norms
        return math.inf


def _pruned_max(bounds, value):
    """(max, first n attaining it) of value(n) >= 0 over the candidates n,
    given bounds lower <= value(n) <= upper on each: tried by decreasing
    lower bound, evaluated only when the upper bound can reach the best so
    far, and settled at the bound, with no evaluation, when the two are
    equal.  Each rise of the best drops at once, in one array operation,
    every queued candidate whose upper bound it has reached."""
    lower, upper = np.asarray(bounds, dtype=float).T
    reach = upper * (1.0 + 1e-12)  # slack for rounding; a NaN bound is solved
    best, best_n, todo = 0.0, 0, np.argsort(-lower, kind="stable")
    todo = todo[~(reach[todo] <= best)]
    while todo.size:  # every queued candidate can still reach the best
        n, todo = int(todo[0]), todo[1:]
        val = float(lower[n]) if lower[n] == upper[n] else value(n)
        if val > best:
            best, best_n, todo = val, n, todo[~(reach[todo] <= val)]
        elif val == best and n < best_n:
            best_n = n
    return best, best_n


def lmo_beta_char_norm(phi: HaarSpectrum2D, beta) -> float:
    """Log-weighted local Carleson maximum with per-axis weights switched off
    where beta_j == 1 (that axis is then pinned to the full interval).

    beta == (1,1) reproduces the squared BMO norm; beta == (0,0) is the full
    log-weighted characterisation.
    """
    beta = tuple(beta) if np.iterable(beta) else (beta,)
    if len(beta) != 2 or not all(_is_int(b) and b in (0, 1) for b in beta):
        raise ValidationError(f"beta must be a 0/1 pair, got {beta}")
    return _lmo_search(phi, tuple(map(bool, beta)), True)[0]


def lmo_char_norm(phi: HaarSpectrum2D) -> float:
    """max over dyadic R = I x J and Omega inside R of
    (log(4/|I|))^2 (log(4/|J|))^2 * carleson ratio."""
    return lmo_beta_char_norm(phi, (0, 0))


def lmo_char_details(phi: HaarSpectrum2D):
    """(value, attaining rectangle) of the log-weighted characterisation."""
    return _lmo_search(phi, (False, False), True)


@lru_cache(maxsize=64)
def _lmo_weights(shape, pinned, char):
    """Read-only weights w(R) of the LMO candidates R on one shape, over the basis indices
    [1, n) of each axis, or [1, 2), the unit interval alone, of a pinned one: per side of
    level j, (log(4 * 2^j))^2 for the char forms and j + 1 for the tail forms; 1 if pinned."""
    return _read_only(np.multiply.outer(*(
        np.ones(1) if p else ((lv + 2) * LN2) ** 2 if char else lv + 1.0
        for p, lv in zip(pinned, (level_of_basis_index(n)[1:] for n in shape)))))


def _lmo_search(phi: HaarSpectrum2D, pinned, char):
    """(value, first dyadic rectangle R attaining it) of the max over R, the s-axis outer and
    a pinned axis at the unit interval, of w(R) * rho(R) for the char forms and
    w(R) * sqrt(rho(R)) for the tail forms, rho(R) the squared norm of phi restricted
    to R; the unit square when every weighted value is 0.  E/|R| <= rho(R) <= U(R)."""
    ratio, energy, scale = _energy_levels(phi)
    box = tuple(slice(1, 2 if p else None) for p in pinned)
    w = _lmo_weights(phi.coeffs.shape, pinned, char)
    lower, upper = energy[box], _generation_bound(ratio)[box]
    if char:
        lower, upper, form = w * lower * scale[box], w * upper, float
    else:
        lower, upper, form = w * np.sqrt(lower * scale[box]), w * np.sqrt(upper), math.sqrt
    w, cols = w.ravel().tolist(), w.shape[1]

    def rect(n):
        s, t = divmod(n, cols)
        return DyadicRect(DyadicInterval.from_basis_index(s + 1),
                          DyadicInterval.from_basis_index(t + 1))
    bounds = np.column_stack((lower.ravel(), upper.ravel()))
    best, n = _pruned_max(bounds, lambda n: w[n] * form(bmo_d_norm_sq(phi, rect(n))[0]))
    return best, rect(n)


def h1_norm(f: GridFunction2D) -> float:
    """L1 norm of the square function."""
    _single_shape(f.values)
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
    cells = _dyadic_cells(rect, depth := _check_depth(depth))
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
