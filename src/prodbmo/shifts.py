"""Dyadic shift on the square, iterated commutators, and their block norms.

The shift in one axis sends the Haar function of an interval to the
difference of its children's Haar functions (right minus left), kills the
constant, and acts as the identity tensor factor in the other axis.  Two
nested commutators raise the occupied generation by one in each axis, so
computations embed their inputs in an ambient grid two levels deeper.
"""

from __future__ import annotations

import math

import numpy as np

from . import closure
from .core import (
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    _check_axis,
    _check_depth,
    _check_same_depth,
    haar_forward_2d,
    haar_inverse_2d,
    mean_pyramid,
)
from .errors import InsufficientHeadroomError, NonConvergenceError, ValidationError
from .linop import assemble
from .norms import (
    bmo_d_norm_sq,
    bmo_rect_norm_sq,
    lmo_d_norm,
    lmo_directional_norm,
)
from .paraproducts import NINE_PART_NAMES, ALL_NINE_TAGS, nine_part_apply


def _embedded_depth(depth, headroom) -> tuple:
    """The checked depth ``headroom`` levels deeper, whose float64 array fits the budget."""
    depth = _check_depth([j + h for j, h in zip(depth, _check_depth(headroom, "headroom", 0))])
    if (size := 8 << depth[0] + depth[1]) > closure._MAX_BYTES:  # the package's one budget
        raise ValidationError(f"embedded depth {list(depth)} needs {size} bytes, over budget")
    return depth


def embed_grid(f: GridFunction2D, headroom=(2, 2)) -> GridFunction2D:
    """f on the grid ``headroom`` levels deeper per axis, each cell repeated."""
    depth = _embedded_depth(f.depth, headroom)
    vals = np.repeat(np.repeat(f.values, 1 << headroom[0], axis=0), 1 << headroom[1], axis=1)
    return GridFunction2D(depth, vals)


def embed_spectrum(c: HaarSpectrum2D, headroom=(2, 2)) -> HaarSpectrum2D:
    """c at ``headroom`` more levels per axis, the finer coefficients zero."""
    out = HaarSpectrum2D.zeros(_embedded_depth(c.depth, headroom))
    n1, n2 = c.coeffs.shape
    out.coeffs[:n1, :n2] = c.coeffs
    return out


def shift_apply(c: HaarSpectrum2D, axis: int) -> HaarSpectrum2D:
    """Move every Haar coefficient in the chosen axis to (right child) -
    (left child); the constant in that axis is annihilated.

    Requires one level of free headroom: coefficients at the deepest level
    of the shifted axis must vanish.
    """
    out = truncating_shift(c, axis)  # checks the axis
    w = c.coeffs.swapaxes(0, axis - 3)
    if w[w.shape[0] // 2:].any():
        if not np.isfinite(w[w.shape[0] // 2:]).all():  # overflow, not a lack of depth
            raise NonConvergenceError("spectrum is not finite at the deepest level")
        raise InsufficientHeadroomError("insufficient depth headroom")
    return out


def shift_grid(f: GridFunction2D, axis: int) -> GridFunction2D:
    """Grid-level shift: analyse, move coefficients, synthesise."""
    return haar_inverse_2d(shift_apply(haar_forward_2d(f), axis))


def truncating_shift(c: HaarSpectrum2D, axis: int) -> HaarSpectrum2D:
    """Shift with the deepest level of the axis mapped to zero instead of
    raising; exact on inputs whose action chain never occupies that level
    (used when assembling the shift as a dense matrix).

    Basis index b has the children 2b (left, -) and 2b + 1 (right, +), which
    fit for 1 <= b < n/2; the slice drops the constant and the deepest level.
    """
    _check_axis(axis)
    w = c.coeffs.swapaxes(0, axis - 3)
    parents = w[1:w.shape[0] // 2]
    out = np.zeros_like(w)
    out[3::2] += parents
    out[2::2] -= parents
    return HaarSpectrum2D(c.depth, out.swapaxes(0, axis - 3))


def _grid_double_commutator(m, x: GridFunction2D) -> GridFunction2D:
    """[S1, [S2, m]] x of the grid shifts for m linear on batched grids: two
    stages of one analysis, two shifts and one synthesis, (S2 M x, S2 x, S1 x)
    then S1 (S2 M x, M S2 x) and S2 (M S1 x, S1 x); elementwise, so bit-identical
    to the eight separate grid shifts of ``tests/helpers.py::reference_double_commutator``."""
    d = x.depth
    c = haar_forward_2d(GridFunction2D(d, np.stack((m(x).values, x.values)))).coeffs
    g = haar_inverse_2d(HaarSpectrum2D(d, np.concatenate((
        shift_apply(HaarSpectrum2D(d, c), 2).coeffs,
        shift_apply(HaarSpectrum2D(d, c[1:]), 1).coeffs)))).values
    mg = m(GridFunction2D(d, g[1:])).values
    c = haar_forward_2d(GridFunction2D(d, np.concatenate((g[:1], mg, g[2:])))).coeffs
    r = haar_inverse_2d(HaarSpectrum2D(d, np.concatenate((
        shift_apply(HaarSpectrum2D(d, c[:2]), 1).coeffs,
        shift_apply(HaarSpectrum2D(d, c[2:]), 2).coeffs)))).values
    r0, r1, r2, r3 = (GridFunction2D(d, v) for v in r)
    return r0 - r1 - r2 + m(r3)


def shift_matrix(depth, axis: int):
    """Dense matrix of the (truncated) shift over the tensor basis."""
    return assemble(lambda c: truncating_shift(c, axis), depth, space="spectrum")


def iterated_commutator_apply(phi: GridFunction2D, b: GridFunction2D) -> GridFunction2D:
    """[S1, [S2, M_phi]] b computed on the ambient grid.

    phi and b share the source depth; the result lives at the ambient
    depth, two levels deeper in each axis (the double commutator's reach).
    """
    _check_same_depth(phi, b)
    return _grid_double_commutator(embed_grid(phi).multiply, embed_grid(b))


def rr_commutator_on_basis(phi: GridFunction2D, rect: DyadicRect) -> HaarSpectrum2D:
    """[S1, [S2, R_phi]] h_(I,J) in closed form, R_phi the diagonal block.

    Returns the spectrum with coefficient

        (sign e)(sign d) (m_(I,J) - m_(Ie,J) - m_(I,Jd) + m_(Ie,Jd))

    at the child slot (Ie, Jd) for each of the four child pairs, where
    sign + = +1 and sign - = -1: the shift sends h_I to h_(I+) - h_(I-),
    so S1 S2 h_(I,J) carries that product of signs onto every child, and
    R_phi multiplies each h_Q by the mean m_Q of phi.
    """
    j1d, j2d = phi.depth
    i_int, j_int = rect.s_interval, rect.t_interval
    if i_int.level + 1 > j1d - 1 or j_int.level + 1 > j2d - 1:
        raise InsufficientHeadroomError("insufficient depth headroom")
    means = mean_pyramid(phi.values)
    m = lambda a, bb: means[a.level][bb.level][a.index, bb.index]
    base = m(i_int, j_int)
    out = HaarSpectrum2D.zeros(phi.depth)
    coeffs = out.coeffs
    for i_child, sign_e in ((i_int.half_plus(), 1.0), (i_int.half_minus(), -1.0)):
        for j_child, sign_d in ((j_int.half_plus(), 1.0), (j_int.half_minus(), -1.0)):
            val = sign_e * sign_d * (
                base
                - m(i_child, j_int)
                - m(i_int, j_child)
                + m(i_child, j_child)
            )
            coeffs[i_child.basis_index, j_child.basis_index] = val
    return out


def part_commutator_apply(tag, phi_ambient: HaarSpectrum2D,
                          b_ambient: GridFunction2D) -> GridFunction2D:
    """[S1, [S2, P]] b for one nine-block operator P at ambient depth."""
    return _grid_double_commutator(lambda g: nine_part_apply(tag, phi_ambient, g), b_ambient)


#: controlling symbol norm predicted for each block's iterated commutator
PART_CONTROL = {
    "pi": "lmo",
    "delta": "bmo",
    "pi01": "lmo_1",
    "pi10": "lmo_2",
    "rr": "bmo_rect",
    "pi_r": "lmo_1",
    "delta_r": "bmo",
    "r_pi": "lmo_2",
    "r_delta": "bmo",
}


def commutator_part_norm_report(phi: GridFunction2D, b: GridFunction2D):
    """BMO norm of [S1, [S2, P]] b for each of the nine blocks P of the
    multiplication by phi, with the predicted controlling symbol norm."""
    _check_same_depth(phi, b)
    if phi.depth[0] > 3 or phi.depth[1] > 3:
        raise ValidationError("report supports source depth up to (3,3)")
    phi_amb = haar_forward_2d(embed_grid(phi))
    b_amb = embed_grid(b)

    phi_spec = haar_forward_2d(phi)
    controls = {
        "lmo": lmo_d_norm(phi_spec),
        "lmo_1": lmo_directional_norm(phi_spec, 1),
        "lmo_2": lmo_directional_norm(phi_spec, 2),
        "bmo": math.sqrt(bmo_d_norm_sq(phi_spec)[0]),
        "bmo_rect": math.sqrt(bmo_rect_norm_sq(phi_spec)),
    }
    rows = []
    for tag in ALL_NINE_TAGS:
        name = NINE_PART_NAMES[tag]
        out = part_commutator_apply(tag, phi_amb, b_amb)
        val = math.sqrt(bmo_d_norm_sq(haar_forward_2d(out))[0])
        ctrl_name = PART_CONTROL[name]
        ctrl = controls[ctrl_name]
        rows.append(
            {
                "part": name,
                "commutator_bmo": val,
                "control": ctrl_name,
                "control_value": ctrl,
                "ratio": val / ctrl if ctrl > 0 else 0.0,
            }
        )
    return rows
