"""Dense matrices of coefficient-level operators and L2 operator norms.

A DenseOperator holds the matrix of a linear map over the tensor Haar basis
at fixed depth, in the enumeration

    cc,  hc by (level, position),  ch by (level, position),
    hh by (s-level, t-level, s-position, t-position) lexicographic.

Operator norms are largest singular values, computed by a full singular
value decomposition (assembly caps the dimension at 256).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import GridFunction2D, HaarSpectrum2D, haar_forward_2d, haar_inverse_2d
from .errors import DepthMismatchError, ValidationError

MAX_DENSE_DIM = 256  # depth (4,4)


@lru_cache(maxsize=32)
def basis_enumeration(depth):
    """Ordered list of (b1, b2) basis-index pairs for the fixed enumeration."""
    j1d, j2d = depth
    n1, n2 = 1 << j1d, 1 << j2d
    order = [(0, 0)]
    order += [(b1, 0) for b1 in range(1, n1)]
    order += [(0, b2) for b2 in range(1, n2)]
    # (generation, index) lexicographic: (j1, j2, i1, i2)
    order += [((1 << j1) + i1, (1 << j2) + i2)
              for j1 in range(j1d) for j2 in range(j2d)
              for i1 in range(1 << j1) for i2 in range(1 << j2)]
    return tuple(order)


@lru_cache(maxsize=32)
def _enumeration_arrays(depth):
    order = basis_enumeration(depth)
    rows = np.array([p[0] for p in order])
    cols = np.array([p[1] for p in order])
    return rows, cols


def spectrum_to_vector(c: HaarSpectrum2D) -> np.ndarray:
    rows, cols = _enumeration_arrays(c.depth)
    return c.coeffs[rows, cols].copy()


def vector_to_spectrum(v: np.ndarray, depth) -> HaarSpectrum2D:
    rows, cols = _enumeration_arrays(tuple(depth))
    j1d, j2d = depth
    coeffs = np.zeros((1 << j1d, 1 << j2d))
    coeffs[rows, cols] = v
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
        if c.depth != self.depth:
            raise DepthMismatchError(f"depth mismatch: {c.depth} vs {self.depth}")
        return vector_to_spectrum(self.matrix @ spectrum_to_vector(c), self.depth)

    def compose(self, other: "DenseOperator") -> "DenseOperator":
        self._check(other)
        return DenseOperator(self.depth, self.matrix @ other.matrix)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        self._check(other)
        return DenseOperator(self.depth, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return DenseOperator(self.depth, self.matrix - other.matrix)

    def _check(self, other):
        if self.depth != other.depth:
            raise DepthMismatchError(f"depth mismatch: {self.depth} vs {other.depth}")


def assemble(op, depth, space: str = "grid", check_linearity: bool = True) -> DenseOperator:
    """Assemble the dense matrix of a linear operator at the given depth.

    ``op`` maps GridFunction2D -> GridFunction2D (space="grid") or
    HaarSpectrum2D -> HaarSpectrum2D (space="spectrum").  Columns are the
    images of the basis vectors; linearity of ``op`` is the caller's
    contract and is spot-checked on a random combination.
    """
    depth = tuple(depth)
    dim = 1 << (depth[0] + depth[1])
    if dim > MAX_DENSE_DIM:
        raise ValidationError(
            f"dense assembly supports dimension <= {MAX_DENSE_DIM}, got {dim}"
        )
    if space not in ("grid", "spectrum"):
        raise ValidationError("space must be 'grid' or 'spectrum'")

    def apply_coeffs(v):
        spec = vector_to_spectrum(v, depth)
        if space == "grid":
            out = op(haar_inverse_2d(spec))
            if not isinstance(out, GridFunction2D):
                raise ValidationError("operator must return a GridFunction2D")
            return spectrum_to_vector(haar_forward_2d(out))
        out = op(spec)
        if not isinstance(out, HaarSpectrum2D):
            raise ValidationError("operator must return a HaarSpectrum2D")
        return spectrum_to_vector(out)

    mat = np.empty((dim, dim))
    basis = np.zeros(dim)
    for col in range(dim):
        basis[col] = 1.0
        mat[:, col] = apply_coeffs(basis)
        basis[col] = 0.0
    if not np.isfinite(mat).all():
        raise ValidationError("operator produced non-finite values")

    if check_linearity:
        rng = np.random.default_rng(177)
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lhs = apply_coeffs(2.5 * x - 0.75 * y)
        rhs = 2.5 * (mat @ x) - 0.75 * (mat @ y)
        scale = max(1.0, float(np.abs(rhs).max()))
        if np.abs(lhs - rhs).max() > 1e-9 * scale:
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
    a._check(b)
    return DenseOperator(a.depth, a.matrix @ b.matrix - b.matrix @ a.matrix)
