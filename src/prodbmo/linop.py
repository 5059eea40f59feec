"""Dense matrices of coefficient-level operators and L2 operator norms.

A DenseOperator holds the matrix of a linear map over the tensor Haar basis
at fixed depth, in the enumeration

    cc,  hc by (level, position),  ch by (level, position),
    hh by (s-level, t-level, s-position, t-position) lexicographic.

Assembly calls the operator once, on the stacked basis vectors: the value
types carry leading batch axes, and an operator acts on each leading index
on its own.  Operator norms are largest singular values, computed by a full
singular value decomposition (assembly caps the dimension at 256).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (GridFunction2D, HaarSpectrum2D, _basis_order, _check_depth, _check_same_depth,
                   _read_only, haar_forward_2d, haar_inverse_2d)
from .errors import ValidationError

MAX_DENSE_DIM = 256  # depth (4,4)


def basis_enumeration(depth):
    """Ordered tuple of (b1, b2) basis-index pairs for the fixed enumeration."""
    return tuple(zip(*(b.tolist() for b in _basis_order(tuple(depth)))))


def spectrum_to_vector(c: HaarSpectrum2D) -> np.ndarray:
    """Coefficients in the enumeration order, along the last axis."""
    rows, cols = _basis_order(c.depth)
    return c.coeffs[..., rows, cols]


def vector_to_spectrum(v: np.ndarray, depth) -> HaarSpectrum2D:
    """Inverse of :func:`spectrum_to_vector`; leading axes of v are kept."""
    rows, cols = _basis_order(tuple(depth))
    j1d, j2d = depth
    coeffs = np.zeros(np.shape(v)[:-1] + (1 << j1d, 1 << j2d))
    coeffs[..., rows, cols] = v
    return HaarSpectrum2D(depth, coeffs)


class DenseOperator:
    """Matrix of a linear map over the tensor Haar basis at fixed depth."""

    __slots__ = ("depth", "matrix")

    def __init__(self, depth, matrix):
        matrix = np.asarray(matrix, dtype=float)
        depth = tuple(depth)
        dim = 1 << (depth[0] + depth[1])
        if matrix.shape != (dim, dim):
            raise ValidationError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        if not np.isfinite(matrix).all():
            raise ValidationError("operator produced non-finite values")
        self.depth = depth
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, c: HaarSpectrum2D) -> HaarSpectrum2D:
        _check_same_depth(c, self)
        return vector_to_spectrum(self.matrix @ spectrum_to_vector(c), self.depth)

    def __add__(self, other):
        _check_same_depth(self, other)
        return DenseOperator(self.depth, self.matrix + other.matrix)


@lru_cache(maxsize=32)
def _probe(depth, space):
    """Read-only (probe, x, y): the dim basis vectors stacked with 2.5 x - 0.75 y
    for two seeded draws, as coefficients or, for space="grid", cell values."""
    x, y = np.random.default_rng(177).standard_normal((2, 1 << (depth[0] + depth[1])))
    spec = vector_to_spectrum(np.vstack((np.eye(len(x)), 2.5 * x - 0.75 * y)), depth)
    return _read_only(haar_inverse_2d(spec).values if space == "grid" else spec.coeffs, x, y)


def assemble(op, depth, space: str = "grid") -> DenseOperator:
    """Assemble the dense matrix of a linear operator at the given depth.

    ``op`` maps GridFunction2D -> GridFunction2D (space="grid") or
    HaarSpectrum2D -> HaarSpectrum2D (space="spectrum"), and acts on each
    leading index of its argument on its own.  It is called once, on the
    dim basis vectors stacked with one random combination of them: the
    basis images are the columns, and the combination's image spot-checks
    linearity, which is the caller's contract.
    """
    depth = _check_depth(depth)
    dim = 1 << (depth[0] + depth[1])
    if dim > MAX_DENSE_DIM:
        raise ValidationError(f"dense assembly supports depths with J1 + J2 <= "
                              f"{MAX_DENSE_DIM.bit_length() - 1}, got depth {list(depth)}")
    if space not in ("grid", "spectrum"):
        raise ValidationError("space must be 'grid' or 'spectrum'")

    probe, x, y = _probe(depth, space)
    kind = GridFunction2D if space == "grid" else HaarSpectrum2D
    out = op(kind(depth, probe.copy()))
    if not isinstance(out, kind):
        raise ValidationError(f"operator must return a {kind.__name__}")
    if space == "grid":
        out = haar_forward_2d(out)
    images = spectrum_to_vector(out)
    if images.shape != (dim + 1, dim) or not np.isfinite(images).all():
        raise ValidationError("operator must map each input row to finite values")
    mat = images[:dim].T.copy()
    rhs = 2.5 * (mat @ x) - 0.75 * (mat @ y)
    scale = max(1.0, float(np.abs(rhs).max()))
    if np.abs(images[dim] - rhs).max() > 1e-9 * scale:
        raise ValidationError("operator failed the linearity spot-check")
    return DenseOperator(depth, mat)


def operator_norm(a) -> float:
    """Largest singular value by a full decomposition.

    Accepts a DenseOperator or a plain square matrix.
    """
    m = a.matrix if isinstance(a, DenseOperator) else np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("operator norm needs a square matrix")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA."""
    _check_same_depth(a, b)
    return DenseOperator(a.depth, a.matrix @ b.matrix - b.matrix @ a.matrix)
