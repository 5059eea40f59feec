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
    """Coefficients in the enumeration order, along the last axis."""
    rows, cols = _enumeration_arrays(c.depth)
    return c.coeffs[..., rows, cols]


def vector_to_spectrum(v: np.ndarray, depth) -> HaarSpectrum2D:
    """Inverse of :func:`spectrum_to_vector`; leading axes of v are kept."""
    rows, cols = _enumeration_arrays(tuple(depth))
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


def assemble(op, depth, space: str = "grid") -> DenseOperator:
    """Assemble the dense matrix of a linear operator at the given depth.

    ``op`` maps GridFunction2D -> GridFunction2D (space="grid") or
    HaarSpectrum2D -> HaarSpectrum2D (space="spectrum"), and acts on each
    leading index of its argument on its own.  It is called once, on the
    dim basis vectors stacked with one random combination of them: the
    basis images are the columns, and the combination's image spot-checks
    linearity, which is the caller's contract.
    """
    depth = tuple(depth)
    dim = 1 << (depth[0] + depth[1])
    if dim > MAX_DENSE_DIM:
        raise ValidationError(
            f"dense assembly supports dimension <= {MAX_DENSE_DIM}, got {dim}"
        )
    if space not in ("grid", "spectrum"):
        raise ValidationError("space must be 'grid' or 'spectrum'")

    rng = np.random.default_rng(177)
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    spec = vector_to_spectrum(np.vstack((np.eye(dim), 2.5 * x - 0.75 * y)), depth)
    if space == "grid":
        out = op(haar_inverse_2d(spec))
        if not isinstance(out, GridFunction2D):
            raise ValidationError("operator must return a GridFunction2D")
        out = haar_forward_2d(out)
    else:
        out = op(spec)
        if not isinstance(out, HaarSpectrum2D):
            raise ValidationError("operator must return a HaarSpectrum2D")
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
    a._check(b)
    return DenseOperator(a.depth, a.matrix @ b.matrix - b.matrix @ a.matrix)
