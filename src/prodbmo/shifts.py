"""Dyadic shift on the square, iterated commutators, and their block norms.

The shift in one axis sends the Haar function of an interval to the
difference of its children's Haar functions (right minus left), kills the
constant, and acts as the identity tensor factor in the other axis.  Two
nested commutators raise the occupied generation by one in each axis, so
computations embed their inputs in an ambient grid two levels deeper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    PrefixTable,
    dyadic_rect_mean,
    haar_forward_2d,
    haar_inverse_2d,
)
from .errors import InsufficientHeadroomError, ValidationError
from .norms import (
    bmo_d_norm_sq,
    bmo_rect_norm_sq,
    lmo_d_norm,
    lmo_directional_norm,
)
from .paraproducts import NINE_PART_NAMES, ALL_NINE_TAGS, nine_part_apply


@dataclass(frozen=True)
class AmbientEmbedding:
    """Refinement of a source grid into a deeper ambient grid."""

    source_depth: tuple
    ambient_depth: tuple

    @classmethod
    def for_source(cls, depth, headroom=(2, 2)):
        j1, j2 = depth
        return cls(tuple(depth), (j1 + headroom[0], j2 + headroom[1]))

    def embed_grid(self, f: GridFunction2D) -> GridFunction2D:
        if tuple(f.depth) != self.source_depth:
            raise ValidationError("grid depth does not match the embedding source")
        r1 = 1 << (self.ambient_depth[0] - self.source_depth[0])
        r2 = 1 << (self.ambient_depth[1] - self.source_depth[1])
        vals = np.repeat(np.repeat(f.values, r1, axis=0), r2, axis=1)
        return GridFunction2D(self.ambient_depth, vals)

    def embed_spectrum(self, c: HaarSpectrum2D) -> HaarSpectrum2D:
        if tuple(c.depth) != self.source_depth:
            raise ValidationError("spectrum depth does not match the embedding source")
        out = np.zeros((1 << self.ambient_depth[0], 1 << self.ambient_depth[1]))
        n1, n2 = c.coeffs.shape
        out[:n1, :n2] = c.coeffs
        return HaarSpectrum2D(self.ambient_depth, out)


def shift_apply(c: HaarSpectrum2D, axis: int) -> HaarSpectrum2D:
    """Move every Haar coefficient in the chosen axis to (right child) -
    (left child); the constant in that axis is annihilated.

    Requires one level of free headroom: coefficients at the deepest level
    of the shifted axis must vanish.
    """
    out = truncating_shift(c, axis)  # checks the axis
    w = c.coeffs.swapaxes(0, axis - 3)
    if w[w.shape[0] // 2:].any():
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
    if axis not in (1, 2):
        raise ValidationError("axis must be 1 or 2")
    w = c.coeffs.swapaxes(0, axis - 3)
    parents = w[1:w.shape[0] // 2]
    out = np.zeros_like(w)
    out[3::2] += parents
    out[2::2] -= parents
    return HaarSpectrum2D(c.depth, out.swapaxes(0, axis - 3))


def double_commutator(s1, s2, m, x):
    """[s1, [s2, m]] x for any three linear maps supporting + and -."""
    return s1(s2(m(x))) - s1(m(s2(x))) - s2(m(s1(x))) + m(s2(s1(x)))


def _s1(g):
    return shift_grid(g, 1)


def _s2(g):
    return shift_grid(g, 2)


def shift_matrix(depth, axis: int):
    """Dense matrix of the (truncated) shift over the tensor basis."""
    from .linop import assemble

    return assemble(lambda c: truncating_shift(c, axis), depth, space="spectrum")


def iterated_commutator_apply(phi: GridFunction2D, b: GridFunction2D) -> GridFunction2D:
    """[S1, [S2, M_phi]] b computed on the ambient grid.

    phi and b share the source depth; the result lives at the ambient
    depth, two levels deeper in each axis (the double commutator's reach).
    """
    if phi.depth != b.depth:
        raise ValidationError(f"depth mismatch: {phi.depth} vs {b.depth}")
    emb = AmbientEmbedding.for_source(phi.depth)
    p = emb.embed_grid(phi)
    return double_commutator(_s1, _s2, p.multiply, emb.embed_grid(b))


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
    pt = PrefixTable(phi)
    m = lambda a, bb: dyadic_rect_mean(pt, DyadicRect(a, bb))
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
    def op(g):
        return nine_part_apply(tag, phi_ambient, g)

    return double_commutator(_s1, _s2, op, b_ambient)


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
    if phi.depth != b.depth:
        raise ValidationError(f"depth mismatch: {phi.depth} vs {b.depth}")
    if phi.depth[0] > 3 or phi.depth[1] > 3:
        raise ValidationError("report supports source depth up to (3,3)")
    emb = AmbientEmbedding.for_source(phi.depth)
    phi_amb = haar_forward_2d(emb.embed_grid(phi))
    b_amb = emb.embed_grid(b)

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
