"""Bilinear Haar paraproducts, their coefficient rearrangements, and the
nine-block splitting of pointwise multiplication.

The general form pairs a symbol spectrum phi with an argument f through

    sum_R  phi_R * <f, d1_I (x) d2_J> * b1_I(s) b2_J(t),

where each factor d/b is either the Haar function h or the normalised
indicator chi/|.| of the same interval.  The four supported signatures take
the inner factor to be the complement of the outer one in each axis.  The
nine blocks of multiplication by phi also pair phi with a mean in the axes
where input and output intervals are equal; each block is one (phi, f,
output) factor choice per axis, see ``_AXIS_FACTORS``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import (
    GenerationIndex,
    GridFunction2D,
    HaarSpectrum2D,
    _analysis,
    _generation_sum,
    block_means,
    haar_inverse_2d,
)
from .errors import DepthMismatchError, UnsupportedSignatureError, ValidationError


@dataclass(frozen=True)
class Signature:
    """Configuration (eps, delta, beta) of the general bilinear form.

    Supported: eps == (0,0) and delta the componentwise complement of beta.
    """

    eps: tuple
    delta: tuple
    beta: tuple

    def __post_init__(self):
        for name, v in (("eps", self.eps), ("delta", self.delta), ("beta", self.beta)):
            if tuple(v) not in {(0, 0), (0, 1), (1, 0), (1, 1)}:
                raise UnsupportedSignatureError(f"{name} must be a 0/1 pair, got {v}")
        if tuple(self.eps) != (0, 0):
            raise UnsupportedSignatureError(
                f"unsupported signature: eps={self.eps} (only (0,0) is supported)"
            )
        expected = (1 - self.beta[0], 1 - self.beta[1])
        if tuple(self.delta) != expected:
            raise UnsupportedSignatureError(
                f"unsupported signature: delta={self.delta} must complement beta={self.beta}"
            )

    @classmethod
    def from_beta(cls, beta) -> "Signature":
        beta = tuple(beta)
        return cls((0, 0), (1 - beta[0], 1 - beta[1]), beta)


#: main paraproduct: coefficients paired with rectangle means, Haar output
PI = Signature.from_beta((0, 0))
#: adjoint: coefficients paired with coefficients, indicator output
DELTA = Signature.from_beta((1, 1))
#: mixed: Haar in s, indicator in t
PI_01 = Signature.from_beta((0, 1))
#: mixed: indicator in s, Haar in t
PI_10 = Signature.from_beta((1, 0))

_SIG_BY_NAME = {"pi": PI, "delta": DELTA, "pi01": PI_01, "pi10": PI_10}


def signature_by_name(name: str) -> Signature:
    key = "".join(ch for ch in name.lower() if ch.isalnum())
    try:
        return _SIG_BY_NAME[key]
    except KeyError:
        raise UnsupportedSignatureError(f"unknown signature name {name!r}")


def _levels(v: np.ndarray, kind: int, axis: int):
    """Per-level views of v along ``axis``: the block means at levels 0..J
    (kind 1) or the Haar coefficient slices of levels 0..J-1 (kind 0)."""
    if kind:
        return block_means(v, axis)
    levels = range(v.shape[axis].bit_length() - 1)
    return [v.swapaxes(0, axis)[(1 << j):(2 << j)].swapaxes(0, axis) for j in levels]


def _factor_blocks(x, kind):
    """Per-generation blocks of <x, d1_I (x) d2_J>, as a function of (j1, j2).

    x is a grid function or a spectrum; kind = (k1, k2) picks d per axis,
    0 for the Haar function and 1 for the normalised indicator.  A spectrum
    of kind (0, 0) is read directly.  The Haar axes are analysed before any
    block means are taken; that order fixes the last-bit rounding.
    """
    if isinstance(x, HaarSpectrum2D):
        if kind == (0, 0):
            return x.generation_block
        x = haar_inverse_2d(x)
    v = x.values
    for axis in (-1, -2):
        if not kind[axis]:
            v = _analysis(v, axis)
    table = [_levels(row, kind[1], -1) for row in _levels(v, kind[0], -2)]
    return lambda j1, j2: table[j1][j2]


def _bilinear(phi: HaarSpectrum2D, phi_kind, f: GridFunction2D, f_kind, beta) -> GridFunction2D:
    """sum_R <phi, a1_I (x) a2_J> <f, d1_I (x) d2_J> b1_I(s) b2_J(t) over the
    hh rectangles, each factor picked per axis by its kind (see
    :func:`_factor_blocks`); exact at the common depth."""
    if phi.depth != f.depth:
        raise DepthMismatchError(f"depth mismatch: {phi.depth} vs {f.depth}")
    a, b = _factor_blocks(phi, phi_kind), _factor_blocks(f, f_kind)
    out = _generation_sum(np.broadcast_shapes(phi.coeffs.shape, f.values.shape), a, b, beta)
    return GridFunction2D(f.depth, out)


def paraproduct(sig: Signature, phi: HaarSpectrum2D, f: GridFunction2D) -> GridFunction2D:
    """Evaluate the bilinear form of the given signature on the grid.

    The sum runs over all hh rectangles of the symbol; the result is exact
    (piecewise constant at the common depth).
    """
    return _bilinear(phi, (0, 0), f, tuple(sig.delta), sig.beta)


# ---------------------------------------------------------------------------
# coefficient rearrangements
# ---------------------------------------------------------------------------

def sigma_k(b: HaarSpectrum2D, k) -> HaarSpectrum2D:
    """Aggregate fine-scale hh mass onto the boundary generations of k.

    Coefficients strictly coarser than k in both axes are kept; every other
    generation (j1, j2) is l2-aggregated onto its ancestors at generation
    (min(j1, k1), min(j2, k2)).  Non-hh blocks are zeroed.  Preserves the l2 norm of the hh block.
    """
    k1, k2 = k.as_tuple() if isinstance(k, GenerationIndex) else k
    if k1 < 0 or k2 < 0:
        raise ValidationError("generation indices must be >= 0")
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
    if k < 0:
        raise ValidationError("level must be >= 0")
    return sigma_k(b, (k, b.depth[1]))


# ---------------------------------------------------------------------------
# nine-block splitting of the multiplication operator
# ---------------------------------------------------------------------------

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
            raise ValueError(f"relations must be one of {_RELATIONS}")


ALL_NINE_TAGS = tuple(
    NinePartTag(s, t) for s in _RELATIONS for t in _RELATIONS
)

#: conventional names of the nine blocks
NINE_PART_NAMES = {
    NinePartTag(FINER, FINER): "pi",
    NinePartTag(COARSER, COARSER): "delta",
    NinePartTag(FINER, COARSER): "pi01",
    NinePartTag(COARSER, FINER): "pi10",
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


def nine_part_sum(phi: HaarSpectrum2D, f: GridFunction2D) -> GridFunction2D:
    """Sum of all nine blocks; equals phi * f pointwise on hh-span inputs."""
    total = GridFunction2D.zeros(f.depth)
    for tag in ALL_NINE_TAGS:
        total = total + nine_part_apply(tag, phi, f)
    return total
