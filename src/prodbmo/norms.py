"""Product BMO and logarithmic mean oscillation norms at finite depth.

The square of the product BMO norm is the maximum over non-empty unions of
fine-grid cells Omega of

    sum of |phi_R|^2 over rectangles contained in Omega  /  |Omega|,

computed exactly by the closure solver.  The LMO variants weight restricted
versions of the same quantity by powers of the scale logarithm, or measure
the decay of the tail projections Q_j.  Natural logarithms throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .closure import ClosureInstance, best_ratio, best_ratio_bruteforce
from .core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    ProjectionSelector,
    _analysis,
    apply_projection,
    haar_forward_2d,
    square_function,
)
from .errors import DegenerateRectangleError, ValidationError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# closure instances from spectra
# ---------------------------------------------------------------------------

def grid_closure_instance(phi: HaarSpectrum2D):
    """Cells and weighted rectangles of the hh block."""
    j1d, j2d = phi.depth
    n1, n2 = 1 << j1d, 1 << j2d
    blocks = [
        ([(i * (n1 >> j1), (i + 1) * (n1 >> j1)) for i in range(1 << j1)],
         [(i * (n2 >> j2), (i + 1) * (n2 >> j2)) for i in range(1 << j2)],
         phi.generation_block(j1, j2))
        for j1 in range(j1d) for j2 in range(j2d)
    ]
    return ClosureInstance.from_product_blocks((n1, n2), 2.0 ** -(j1d + j2d), blocks)


def _zoom(phi: HaarSpectrum2D, rect: DyadicRect):
    """(spectrum, k, cells): the hh rectangles of phi inside the dyadic
    rectangle I x J as a spectrum of their own, at depth q = (J1 - level I,
    J2 - level J), and the cell slices of I x J.

    The descendants l levels below basis index b are (b << l) + p for
    p < 2^l.  Only the cell area changes: it is 2^k times larger in the
    spectrum, k = level I + level J, so every ratio inside I x J is 2^k
    times the spectrum's.  A one cell thick I x J holds no hh rectangle and
    gives the spectrum None.
    """
    if rect is None:
        return phi, 0, (slice(None), slice(None))
    sides = (rect.s_interval, rect.t_interval)
    q = tuple(depth - side.level for side, depth in zip(sides, phi.depth))
    if min(q) < 0:
        raise ValidationError("restriction rectangle finer than the grid")
    cells = tuple(slice(side.index << qa, (side.index + 1) << qa) for side, qa in zip(sides, q))
    k = sides[0].level + sides[1].level
    if min(q) == 0:
        return None, k, cells
    idx = [np.concatenate([[0]] + [np.arange(side.basis_index << l, (side.basis_index + 1) << l)
                                   for l in range(qa)]) for side, qa in zip(sides, q)]
    return HaarSpectrum2D(q, phi.coeffs[np.ix_(*idx)]), k, cells


def bmo_d_norm_sq(phi: HaarSpectrum2D, restrict_to: DyadicRect = None):
    """Exact squared product BMO norm and an attaining cell mask.

    The mask is a boolean array over the full grid; an all-zero hh block
    yields (0.0, all-False).  Restricted to a dyadic rectangle, the norm is
    that of the rectangle's own sub-spectrum, rescaled to its area.
    """
    sub, k, cells = _zoom(phi, restrict_to)
    grid_mask = np.zeros((1 << phi.depth[0], 1 << phi.depth[1]), dtype=bool)
    if sub is None:
        return 0.0, grid_mask
    value, local_mask = best_ratio(grid_closure_instance(sub))
    if local_mask is not None:
        grid_mask[cells] = local_mask.reshape(grid_mask[cells].shape)
    return value * 2.0 ** k, grid_mask


def bmo_d_norm_sq_bruteforce(phi: HaarSpectrum2D, restrict_to: DyadicRect = None) -> float:
    """Exhaustive maximum over all non-empty cell subsets (oracle)."""
    sub, k, _ = _zoom(phi, restrict_to)
    if sub is None:
        return 0.0
    return best_ratio_bruteforce(grid_closure_instance(sub)) * 2.0 ** k


def bmo_rect_norm_sq(phi: HaarSpectrum2D) -> float:
    """Rectangle-restricted variant: Omega ranges over single dyadic
    rectangles only.  Always <= the open-set norm."""
    j1d, j2d = phi.depth
    sq = [[phi.generation_block(q1, q2) ** 2 for q2 in range(j2d)] for q1 in range(j1d)]
    best = 0.0
    for g1 in range(j1d):
        for g2 in range(j2d):
            acc = np.zeros((1 << g1, 1 << g2))
            for q1 in range(g1, j1d):
                for q2 in range(g2, j2d):
                    acc += (
                        sq[q1][q2]
                        .reshape(1 << g1, 1 << (q1 - g1), 1 << g2, 1 << (q2 - g2))
                        .sum(axis=(1, 3))
                    )
            if acc.size:
                best = max(best, float(acc.max()) * (2.0 ** (g1 + g2)))
    return best


def bmo_norm_of_grid(f: GridFunction2D) -> float:
    """Convenience: sqrt of the BMO square of the function's hh spectrum."""
    return math.sqrt(bmo_d_norm_sq(haar_forward_2d(f))[0])


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
    a pinned axis stays at level 0 (weight 1, no projection in that axis)."""
    j1d, j2d = phi.depth
    best = 0.0
    for j1 in range(1 if pinned[0] else j1d):
        for j2 in range(1 if pinned[1] else j2d):
            tail = apply_projection(phi, ProjectionSelector.tail(j1, j2))
            if not tail.coeffs.any():
                continue
            val = math.sqrt(bmo_d_norm_sq(tail)[0])
            best = max(best, (j1 + 1) * (j2 + 1) * val)
    return best


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
    the unit square when every weighted value is 0."""
    beta = tuple(beta)
    if beta not in {(0, 0), (0, 1), (1, 0), (1, 1)}:
        raise ValidationError(f"beta must be a 0/1 pair, got {beta}")
    j1d, j2d = phi.depth

    def axis_candidates(b, levels):
        if b == 1:
            return [(DyadicInterval(0, 0), 1.0)]
        out = []
        for j in range(levels):
            w = ((j + 2) * LN2) ** 2  # (log(4 * 2^j))^2
            for i in range(1 << j):
                out.append((DyadicInterval(j, i), w))
        return out

    best = 0.0
    best_rect = DyadicRect(DyadicInterval(0, 0), DyadicInterval(0, 0))
    for s_int, ws in axis_candidates(beta[0], j1d):
        for t_int, wt in axis_candidates(beta[1], j2d):
            rect = DyadicRect(s_int, t_int)
            val = ws * wt * bmo_d_norm_sq(phi, rect)[0]
            if val > best:
                best, best_rect = val, rect
    return best, best_rect


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
    j1d, j2d = depth
    if rect.s_interval.level > j1d or rect.t_interval.level > j2d:
        raise ValidationError("rectangle outside the grid depth")
    b1 = _staircase_1d(rect.s_interval, j1d)
    b2 = _staircase_1d(rect.t_interval, j2d)
    out = GridFunction2D(depth, np.outer(b1, b2))
    k, l = rect.s_interval.level, rect.t_interval.level
    w1, w2 = (1 << j1d) >> k, (1 << j2d) >> l
    block = out.values[
        rect.s_interval.index * w1:(rect.s_interval.index + 1) * w1,
        rect.t_interval.index * w2:(rect.t_interval.index + 1) * w2,
    ]
    assert np.all(block == (k + 1) * (l + 1))
    return out


# ---------------------------------------------------------------------------
# local growth factors and report
# ---------------------------------------------------------------------------

def growth_s(length: float) -> float:
    """s(I) = log(1/|I|) + 1 for |I| <= 1, else 1."""
    if length <= 0:
        raise DegenerateRectangleError("degenerate rectangle")
    return math.log(1.0 / length) + 1.0 if length <= 1.0 else 1.0


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


def _aligned_cell_range(lo: float, hi: float, n: int):
    """Cell index range of [lo, hi) intersected with [0, 1); endpoints inside
    the unit interval must be aligned with the cell grid."""
    lo_c = min(max(lo, 0.0), 1.0)
    hi_c = min(max(hi, 0.0), 1.0)
    if hi_c <= lo_c:
        return 0, 0
    a = lo_c * n
    b = hi_c * n
    ia, ib = round(a), round(b)
    if abs(a - ia) > 1e-9 or abs(b - ib) > 1e-9:
        raise ValidationError("rectangle is not aligned with the fine grid")
    return int(ia), int(ib)


def local_growth_report(b: GridFunction2D, rectangles):
    """Growth ratios of means and restrictions of b over (possibly
    non-dyadic, grid-aligned) rectangles, each normalised by the growth
    factor s(.) and the BMO norm of b.

    Rectangles are ((s_lo, s_hi), (t_lo, t_hi)) in real coordinates; parts
    outside the unit square are treated by zero extension.
    """
    n1, n2 = b.values.shape
    cw1, cw2 = 1.0 / n1, 1.0 / n2
    bmo_sq = bmo_d_norm_sq(haar_forward_2d(b))[0]
    bnorm = math.sqrt(bmo_sq)
    rows = []
    for (s_lo, s_hi), (t_lo, t_hi) in rectangles:
        if not (s_hi > s_lo and t_hi > t_lo):
            raise DegenerateRectangleError("degenerate rectangle")
        len_i = s_hi - s_lo
        len_j = t_hi - t_lo
        ia, ib = _aligned_cell_range(s_lo, s_hi, n1)
        ja, jb = _aligned_cell_range(t_lo, t_hi, n2)
        patch = b.values[ia:ib, ja:jb]

        mean_r = patch.sum() * cw1 * cw2 / (len_i * len_j) if patch.size else 0.0

        # m_I b as a function of t (zero extension in s)
        mi = (
            b.values[ia:ib, :].sum(axis=0) * cw1 / len_i
            if ib > ia
            else np.zeros(n2)
        )
        # m_J b as a function of s (zero extension in t)
        mj = (
            b.values[:, ja:jb].sum(axis=1) * cw2 / len_j
            if jb > ja
            else np.zeros(n1)
        )

        restr_l2 = float((patch ** 2).sum() * cw1 * cw2) if patch.size else 0.0

        # || chi_I P_J b ||_2^2 with P_J b = chi_J(t) (b - m_J b(s))
        inside = (
            float(((patch - mj[ia:ib, None]) ** 2).sum() * cw1 * cw2)
            if patch.size
            else 0.0
        )
        outside_j = max(len_j - (jb - ja) * cw2, 0.0)
        strip_proj = inside + outside_j * float((mj[ia:ib] ** 2).sum() * cw1)

        strip_mean = float((mj[ia:ib] ** 2).sum() * cw1)

        s_i, s_j = growth_s(len_i), growth_s(len_j)
        if bnorm == 0.0:
            r1 = r2 = r3 = r4 = r5 = 0.0
        else:
            r1 = abs(mean_r) / (s_i * s_j * bnorm)
            r2 = math.sqrt(dyadic_bmo_1d_sq(mi)) / (s_i * bnorm)
            r3 = restr_l2 / (s_i ** 2 * s_j ** 2 * len_i * len_j * bmo_sq)
            r4 = strip_proj / (s_i ** 2 * len_i * len_j * bmo_sq)
            r5 = strip_mean / (s_j ** 2 * s_i ** 2 * len_i * bmo_sq)
        rows.append(
            {
                "rect": ((s_lo, s_hi), (t_lo, t_hi)),
                "mean_ratio": r1,
                "slice_bmo_ratio": r2,
                "restriction_ratio": r3,
                "strip_projection_ratio": r4,
                "strip_mean_ratio": r5,
            }
        )
    return rows
