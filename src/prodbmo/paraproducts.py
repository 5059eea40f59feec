"""Bilinear Haar paraproducts, their coefficient rearrangements, and the
nine-block splitting of pointwise multiplication.

The general form pairs a symbol spectrum phi with an argument f through

    sum_R  phi_R * <f, d1_I (x) d2_J> * b1_I(s) b2_J(t),

where each factor d/b is either the Haar function h or the normalised
indicator chi/|.| of the same interval.  The nine blocks of multiplication
by phi are one (phi, f, output) factor choice per axis, see
``_AXIS_FACTORS``.  The four paraproducts are the corner blocks: on a finer
axis the output is a Haar function and f enters by its mean, on a coarser
axis the output is an indicator and f enters by its Haar coefficient.  The
blocks with an equal axis also pair phi with a mean in that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import (
    GridFunction2D,
    HaarSpectrum2D,
    _analysis,
    _block_mean_layout,
    _check_depth,
    _check_same_depth,
    _generation_sum,
    haar_inverse_2d,
)
from .errors import UnsupportedSignatureError

FINER = "finer"
EQUAL = "equal"
COARSER = "coarser"

_RELATIONS = (FINER, EQUAL, COARSER)


@dataclass(frozen=True)
class NinePartTag:
    """Block of matrix elements <phi * h_(I,J), h_(I',J')> classified by the
    strict containment / equality of (I' vs I, J' vs J).

    The relation names the OUTPUT interval against the input one; outputs
    that are constant in an axis are absorbed into the coarser relation of
    that axis (the indicator-type blocks).
    """

    s_relation: str
    t_relation: str

    def __post_init__(self):
        if self.s_relation not in _RELATIONS or self.t_relation not in _RELATIONS:
            raise UnsupportedSignatureError(f"relations must be one of {_RELATIONS}")


ALL_NINE_TAGS = tuple(NinePartTag(s, t) for s in _RELATIONS for t in _RELATIONS)

#: main paraproduct: coefficients paired with rectangle means, Haar output
PI = NinePartTag(FINER, FINER)
#: adjoint: coefficients paired with coefficients, indicator output
DELTA = NinePartTag(COARSER, COARSER)
#: mixed: Haar in s, indicator in t
PI_01 = NinePartTag(FINER, COARSER)
#: mixed: indicator in s, Haar in t
PI_10 = NinePartTag(COARSER, FINER)

#: conventional names of the nine blocks
NINE_PART_NAMES = {
    PI: "pi",
    DELTA: "delta",
    PI_01: "pi01",
    PI_10: "pi10",
    NinePartTag(EQUAL, EQUAL): "rr",
    NinePartTag(FINER, EQUAL): "pi_r",
    NinePartTag(COARSER, EQUAL): "delta_r",
    NinePartTag(EQUAL, FINER): "r_pi",
    NinePartTag(EQUAL, COARSER): "r_delta",
}


#: per-axis relation -> (phi factor, f factor, output factor) kinds, with
#: 0 the Haar function and 1 the normalised indicator of the interval
_AXIS_FACTORS = {
    FINER: (0, 1, 0),
    EQUAL: (1, 0, 0),
    COARSER: (0, 0, 1),
}


def signature_by_name(name: str) -> NinePartTag:
    """The paraproduct of one of the four corner names of NINE_PART_NAMES, read in any
    case and without punctuation ("PI_01" and "pi-10" name PI_01 and PI_10)."""
    key = "".join(ch for ch in name.lower() if ch.isalnum())
    for tag, tag_name in NINE_PART_NAMES.items():
        if tag_name == key and EQUAL not in (tag.s_relation, tag.t_relation):
            return tag
    raise UnsupportedSignatureError(f"unknown signature name {name!r}")


def _factor_coeffs(x, kind) -> np.ndarray:
    """<x, d1_I (x) d2_J> in the basis-index layout, (..., n1, n2), with
    slot b the interval of basis index b >= 1 per axis.

    x is a grid function or a spectrum; kind = (k1, k2) picks d per axis,
    0 for the Haar function and 1 for the normalised indicator (the block
    mean; slot 0 repeats the level-0 mean).  A spectrum of kind (0, 0) is
    read directly.  The Haar axes are analysed before any block means are
    taken, and the s-axis means before the t-axis ones; that order fixes
    the last-bit rounding.
    """
    if isinstance(x, HaarSpectrum2D):
        if kind == (0, 0):
            return x.coeffs
        x = haar_inverse_2d(x)
    v = x.values
    for axis in (-1, -2):
        if not kind[axis]:
            v = _analysis(v, axis)
    for axis in (-2, -1):
        if kind[axis]:
            v = _block_mean_layout(v, axis)
    return v


def _bilinear(phi: HaarSpectrum2D, phi_kind, f: GridFunction2D, f_kind, beta) -> GridFunction2D:
    """sum_R <phi, a1_I (x) a2_J> <f, d1_I (x) d2_J> b1_I(s) b2_J(t) over the
    hh rectangles, each factor picked per axis by its kind (see
    :func:`_factor_coeffs`); exact at the common depth."""
    _check_same_depth(phi, f)
    a, b = _factor_coeffs(phi, phi_kind), _factor_coeffs(f, f_kind)
    out = _generation_sum(np.broadcast_shapes(phi.coeffs.shape, f.values.shape), a, b, beta)
    return GridFunction2D(f.depth, out)


def nine_part_apply(tag: NinePartTag, phi: HaarSpectrum2D, f: GridFunction2D) -> GridFunction2D:
    """Apply one block of the multiplication-by-phi operator to f.

    Each block is the bilinear form whose (phi, f, output) factors are
    picked per axis from the relation of that axis; the four corners are
    the paraproducts PI, DELTA, PI_01 and PI_10.  The blocks partition the
    matrix of pointwise multiplication over inputs in the hh span, so
    summing all nine applications reproduces phi * f on the grid whenever
    both phi and f lie in the hh span.
    """
    (p1, f1, o1), (p2, f2, o2) = _AXIS_FACTORS[tag.s_relation], _AXIS_FACTORS[tag.t_relation]
    return _bilinear(phi, (p1, p2), f, (f1, f2), (o1, o2))


def paraproduct(sig: NinePartTag, phi: HaarSpectrum2D, f: GridFunction2D) -> GridFunction2D:
    """Evaluate the paraproduct of a corner block (PI, DELTA, PI_01 or PI_10)
    on the grid; a block with an equal axis is refused.

    The sum runs over all hh rectangles of the symbol; the result is exact
    (piecewise constant at the common depth).
    """
    if EQUAL in (sig.s_relation, sig.t_relation):
        raise UnsupportedSignatureError(f"{sig} is not a paraproduct: an axis is {EQUAL!r}")
    return nine_part_apply(sig, phi, f)


def nine_part_sum(phi: HaarSpectrum2D, f: GridFunction2D) -> GridFunction2D:
    """Sum of all nine blocks; equals phi * f pointwise on hh-span inputs."""
    total = GridFunction2D.zeros(f.depth)
    for tag in ALL_NINE_TAGS:
        total = total + nine_part_apply(tag, phi, f)
    return total


# ---------------------------------------------------------------------------
# coefficient rearrangements
# ---------------------------------------------------------------------------

def sigma_k(b: HaarSpectrum2D, k) -> HaarSpectrum2D:
    """Aggregate fine-scale hh mass onto the boundary generations of the pair k = (k1, k2).

    Coefficients strictly coarser than k in both axes are kept; every other
    generation (j1, j2) is l2-aggregated onto its ancestors at generation
    (min(j1, k1), min(j2, k2)).  Non-hh blocks are zeroed.  Preserves the l2 norm of the hh block.
    """
    k1, k2 = _check_depth(k, "generation pair", 0)
    j1d, j2d = b.depth
    out = np.zeros_like(b.coeffs)
    acc = np.zeros_like(b.coeffs)  # squared mass routed to boundary slots
    for j1 in range(j1d):
        for j2 in range(j2d):
            block = b.generation_block(j1, j2)
            if not block.any():
                continue
            if j1 < k1 and j2 < k2:
                out[(1 << j1):(2 << j1), (1 << j2):(2 << j2)] = block
                continue
            m1, m2 = min(j1, k1), min(j2, k2)
            agg = (block ** 2).reshape(1 << m1, 1 << (j1 - m1), 1 << m2, 1 << (j2 - m2))
            acc[(1 << m1):(2 << m1), (1 << m2):(2 << m2)] += agg.sum(axis=(1, 3))
    out += np.sqrt(acc)
    return HaarSpectrum2D(b.depth, out)


def sigma1_k(b: HaarSpectrum2D, k: int) -> HaarSpectrum2D:
    """One-axis analogue of :func:`sigma_k`, aggregating the s-variable only.

    The t-structure is untouched (the t-boundary sits at the depth);
    non-hh blocks are zeroed.
    """
    return sigma_k(b, (k, b.depth[1]))
