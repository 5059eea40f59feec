"""Dyadic lattice combinatorics and exact Haar analysis on the unit square.

Everything lives at an explicit finite depth (J1, J2): functions are
piecewise constant on a 2^J1 x 2^J2 grid over [0,1)^2, and spectra collect
the coefficients of the tensor Haar basis

    { 1, h_I } x { 1, h_J },   h_I = |I|^{-1/2} (chi_{I+} - chi_{I-}),

where I+ is the RIGHT half of the dyadic interval I.  The 1-d basis index
b = 2^j + i encodes the interval at level j (length 2^-j), position i;
b = 0 is the constant.  A 2-d spectrum is stored as a dense array indexed
by the two 1-d basis indices, so cc = C[0,0], the s-Haar block is C[1:,0],
the t-Haar block is C[0,1:] and the rectangle (hh) block is C[1:,1:].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRectangleError, DepthMismatchError, ValidationError

MAX_LEVEL = 30  # indices stay well inside int range


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Dyadic subinterval of [0,1): [index * 2^-level, (index+1) * 2^-level)."""

    level: int
    index: int

    def __post_init__(self):
        if not (0 <= self.level <= MAX_LEVEL):
            raise ValidationError(f"interval level {self.level} out of range")
        if not (0 <= self.index < (1 << self.level)):
            raise ValidationError(
                f"interval index {self.index} out of range for level {self.level}"
            )

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    @property
    def left(self) -> float:
        return self.index * 2.0 ** -self.level

    @property
    def right(self) -> float:
        return (self.index + 1) * 2.0 ** -self.level

    def half_plus(self) -> "DyadicInterval":
        """Right half (the + half)."""
        return DyadicInterval(self.level + 1, 2 * self.index + 1)

    def half_minus(self) -> "DyadicInterval":
        """Left half (the - half)."""
        return DyadicInterval(self.level + 1, 2 * self.index)

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValidationError("the unit interval has no parent")
        return DyadicInterval(self.level - 1, self.index // 2)

    def ancestor(self, level: int) -> "DyadicInterval":
        if not 0 <= level <= self.level:
            raise ValidationError("ancestor level must be in [0, level]")
        return DyadicInterval(level, self.index >> (self.level - level))

    def contains(self, other: "DyadicInterval") -> bool:
        return other.level >= self.level and other.ancestor(self.level) == self

    @property
    def basis_index(self) -> int:
        return (1 << self.level) + self.index

    @classmethod
    def from_basis_index(cls, b: int) -> "DyadicInterval":
        if b < 1:
            raise ValidationError("basis index of an interval must be >= 1")
        level = b.bit_length() - 1
        return cls(level, b - (1 << level))


@dataclass(frozen=True, order=True)
class DyadicRect:
    """Dyadic rectangle I x J with I in the s-axis and J in the t-axis."""

    s_interval: DyadicInterval
    t_interval: DyadicInterval

    @property
    def area(self) -> float:
        return self.s_interval.length * self.t_interval.length

    @property
    def generation(self) -> "GenerationIndex":
        return GenerationIndex(self.s_interval.level, self.t_interval.level)

    def contains(self, other: "DyadicRect") -> bool:
        return self.s_interval.contains(other.s_interval) and self.t_interval.contains(
            other.t_interval
        )

    @classmethod
    def from_levels(cls, j1: int, i1: int, j2: int, i2: int) -> "DyadicRect":
        return cls(DyadicInterval(j1, i1), DyadicInterval(j2, i2))


@dataclass(frozen=True)
class GenerationIndex:
    """Pair of generation levels with the componentwise partial order."""

    j1: int
    j2: int

    def __post_init__(self):
        if self.j1 < 0 or self.j2 < 0:
            raise ValidationError("generation indices must be >= 0")

    def strictly_below(self, other: "GenerationIndex") -> bool:
        """self < other: strict in BOTH coordinates."""
        return self.j1 < other.j1 and self.j2 < other.j2

    def below(self, other: "GenerationIndex") -> bool:
        """self <= other componentwise."""
        return self.j1 <= other.j1 and self.j2 <= other.j2

    def as_tuple(self):
        return (self.j1, self.j2)


def _check_grid_shape(values, depth):
    j1, j2 = depth
    if not (1 <= j1 <= MAX_LEVEL and 1 <= j2 <= MAX_LEVEL):
        raise ValidationError(f"depth {depth} out of supported range")
    if values.shape[-2:] != (1 << j1, 1 << j2):
        raise ValidationError(
            f"values shape {values.shape} does not match depth {depth}"
        )
    if not np.isfinite(values).all():
        raise ValidationError("grid values must be finite")


class GridFunction2D:
    """Piecewise-constant function on the 2^J1 x 2^J2 dyadic grid over [0,1)^2.

    Rows index s-cells, columns index t-cells; cell widths are 2^-J1 and
    2^-J2.  ``values`` may carry leading batch axes; ``integral`` and
    ``norm_l2_sq`` need a single function.  Treated as an immutable value:
    operations return new objects.
    """

    __slots__ = ("depth", "values")

    def __init__(self, depth, values):
        values = np.asarray(values, dtype=float)
        _check_grid_shape(values, tuple(depth))
        self.depth = tuple(depth)
        self.values = values

    @classmethod
    def zeros(cls, depth) -> "GridFunction2D":
        j1, j2 = depth
        return cls(depth, np.zeros((1 << j1, 1 << j2)))

    @classmethod
    def constant(cls, depth, value) -> "GridFunction2D":
        j1, j2 = depth
        return cls(depth, np.full((1 << j1, 1 << j2), float(value)))

    @property
    def cell_area(self) -> float:
        return 2.0 ** -(self.depth[0] + self.depth[1])

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def norm_l2_sq(self) -> float:
        return float((self.values ** 2).sum() * self.cell_area)

    def __add__(self, other):
        self._check_same_depth(other)
        return GridFunction2D(self.depth, self.values + other.values)

    def __sub__(self, other):
        self._check_same_depth(other)
        return GridFunction2D(self.depth, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction2D(self.depth, self.values * float(scalar))

    __rmul__ = __mul__

    def multiply(self, other) -> "GridFunction2D":
        """Pointwise product (exact for piecewise-constant functions)."""
        self._check_same_depth(other)
        return GridFunction2D(self.depth, self.values * other.values)

    def _check_same_depth(self, other):
        if self.depth != other.depth:
            raise DepthMismatchError(
                f"depth mismatch: {self.depth} vs {other.depth}"
            )


class HaarSpectrum2D:
    """Coefficients of a grid function over the tensor Haar basis.

    The dense array ``coeffs`` is indexed by the two 1-d basis indices
    (see module docstring); Parseval holds exactly:
    ||f||_2^2 == (coeffs ** 2).sum().  ``coeffs`` may carry leading batch
    axes; ``cc``, the ``*_coef`` methods and the energies need a single
    spectrum.
    """

    __slots__ = ("depth", "coeffs")

    def __init__(self, depth, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        _check_grid_shape(coeffs, tuple(depth))
        self.depth = tuple(depth)
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, depth) -> "HaarSpectrum2D":
        j1, j2 = depth
        return cls(depth, np.zeros((1 << j1, 1 << j2)))

    @property
    def cc(self) -> float:
        return float(self.coeffs[0, 0])

    def hc_coef(self, interval: DyadicInterval) -> float:
        """Coefficient of h_I (x) 1."""
        return float(self.coeffs[interval.basis_index, 0])

    def ch_coef(self, interval: DyadicInterval) -> float:
        """Coefficient of 1 (x) h_J."""
        return float(self.coeffs[0, interval.basis_index])

    def hh_coef(self, rect: DyadicRect) -> float:
        """Coefficient of h_I (x) h_J."""
        return float(
            self.coeffs[rect.s_interval.basis_index, rect.t_interval.basis_index]
        )

    def hh_block(self) -> np.ndarray:
        """View of the rectangle block (valid indices b1, b2 >= 1)."""
        return self.coeffs[..., 1:, 1:]

    def hh_energy(self) -> float:
        return float((self.coeffs[1:, 1:] ** 2).sum())

    def total_energy(self) -> float:
        return float((self.coeffs ** 2).sum())

    def hh_only(self) -> "HaarSpectrum2D":
        out = np.zeros_like(self.coeffs)
        out[..., 1:, 1:] = self.coeffs[..., 1:, 1:]
        return HaarSpectrum2D(self.depth, out)

    def generation_block(self, j1: int, j2: int) -> np.ndarray:
        """View of the hh coefficients of generation (j1, j2), shape (2^j1, 2^j2)."""
        return self.coeffs[..., (1 << j1):(2 << j1), (1 << j2):(2 << j2)]

    def with_hh_coef(self, rect: DyadicRect, value: float) -> "HaarSpectrum2D":
        out = self.coeffs.copy()
        out[rect.s_interval.basis_index, rect.t_interval.basis_index] = value
        return HaarSpectrum2D(self.depth, out)

    def copy(self) -> "HaarSpectrum2D":
        return HaarSpectrum2D(self.depth, self.coeffs.copy())

    def _check_same_depth(self, other):
        if self.depth != other.depth:
            raise DepthMismatchError(
                f"depth mismatch: {self.depth} vs {other.depth}"
            )


# ---------------------------------------------------------------------------
# fast 1-d pyramid transforms (vectorised over the other axes)
# ---------------------------------------------------------------------------

def _analysis(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Orthonormal Haar analysis along one axis of a cell-value array."""
    v = v.swapaxes(0, axis)
    n = v.shape[0]
    depth = n.bit_length() - 1
    out = np.empty_like(v)
    integ = v / n  # cell integrals, cell width 2^-depth
    for j in range(depth - 1, -1, -1):
        left = integ[0::2]
        right = integ[1::2]
        out[(1 << j):(2 << j)] = (2.0 ** (j / 2.0)) * (right - left)
        integ = left + right
    out[0] = integ[0]
    return out.swapaxes(0, axis)


def _synthesis(c: np.ndarray, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`_analysis` along the same axis."""
    c = c.swapaxes(0, axis)
    n = c.shape[0]
    depth = n.bit_length() - 1
    means = c[0:1].copy()
    for j in range(depth):
        coef = c[(1 << j):(2 << j)]
        nxt = np.empty((2 << j,) + c.shape[1:], dtype=float)
        step = (2.0 ** (j / 2.0)) * coef
        nxt[0::2] = means - step
        nxt[1::2] = means + step
        means = nxt
    return means.swapaxes(0, axis)


def haar_forward_2d(f: GridFunction2D) -> HaarSpectrum2D:
    """Full tensor Haar analysis of a grid function."""
    c = _analysis(_analysis(f.values, -1), -2)
    return HaarSpectrum2D(f.depth, c)


def haar_inverse_2d(c: HaarSpectrum2D) -> GridFunction2D:
    """Synthesis back to cell values; exact inverse of :func:`haar_forward_2d`."""
    v = _synthesis(_synthesis(c.coeffs, -1), -2)
    return GridFunction2D(c.depth, v)


@lru_cache(maxsize=64)
def level_of_basis_index(n: int) -> np.ndarray:
    """level_of[b] for b in [0, n); entry 0 is -1 (the constant)."""
    out = np.full(n, -1, dtype=np.int64)
    for b in range(1, n):
        out[b] = b.bit_length() - 1
    return out


# ---------------------------------------------------------------------------
# rectangle means via prefix sums
# ---------------------------------------------------------------------------

class PrefixTable:
    """Cumulative cell sums with a guard row/column for O(1) rectangle sums."""

    __slots__ = ("depth", "_cum")

    def __init__(self, f: GridFunction2D):
        self.depth = f.depth
        n1, n2 = f.values.shape
        cum = np.zeros((n1 + 1, n2 + 1))
        cum[1:, 1:] = f.values.cumsum(axis=0).cumsum(axis=1)
        self._cum = cum

    def cell_sum(self, s_lo: int, s_hi: int, t_lo: int, t_hi: int) -> float:
        """Sum of cell values over [s_lo, s_hi) x [t_lo, t_hi)."""
        c = self._cum
        return float(c[s_hi, t_hi] - c[s_lo, t_hi] - c[s_hi, t_lo] + c[s_lo, t_lo])


def rect_mean(p: PrefixTable, s_range, t_range) -> float:
    """Exact average of the underlying function over a cell-aligned rectangle.

    Ranges are half-open cell-index pairs (lo, hi).
    """
    s_lo, s_hi = s_range
    t_lo, t_hi = t_range
    n1, n2 = 1 << p.depth[0], 1 << p.depth[1]
    if not (0 <= s_lo < s_hi <= n1 and 0 <= t_lo < t_hi <= n2):
        raise DegenerateRectangleError("degenerate rectangle")
    count = (s_hi - s_lo) * (t_hi - t_lo)
    return p.cell_sum(s_lo, s_hi, t_lo, t_hi) / count


def dyadic_rect_mean(p: PrefixTable, rect: DyadicRect) -> float:
    """Average over a dyadic rectangle (must be within the grid depth)."""
    j1, j2 = rect.s_interval.level, rect.t_interval.level
    J1, J2 = p.depth
    if j1 > J1 or j2 > J2:
        raise ValidationError("rectangle finer than the grid")
    w1, w2 = 1 << (J1 - j1), 1 << (J2 - j2)
    i1, i2 = rect.s_interval.index, rect.t_interval.index
    return rect_mean(p, (i1 * w1, (i1 + 1) * w1), (i2 * w2, (i2 + 1) * w2))


def block_means(v: np.ndarray, axis: int):
    """List over levels j = 0..J of v block-averaged along ``axis`` to 2^j entries."""
    means = [v.swapaxes(0, axis)]
    while len(means[-1]) > 1:
        a = means[-1]
        means.append(0.5 * (a[0::2] + a[1::2]))
    return [m.swapaxes(0, axis) for m in means[::-1]]


def mean_pyramid(values: np.ndarray):
    """All block means: out[j1][j2] has shape (2^j1, 2^j2), entry = mean over
    the dyadic rectangle at generation (j1, j2)."""
    return [block_means(a, -1) for a in block_means(values, -2)]


# ---------------------------------------------------------------------------
# sums over the generations of the rectangle block
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _axis_pattern(n: int, j: int, beta: int) -> np.ndarray:
    """Per-cell values of the level-j outer factor, same for every position.

    beta == 0: Haar, -2^(j/2) on the left half of each interval, + on the
    right.  beta == 1: normalised indicator, constant 2^j.
    """
    if beta == 1:
        return np.full(n, float(1 << j))
    w = n >> j
    tile = np.empty(w)
    tile[: w // 2] = -(2.0 ** (j / 2.0))
    tile[w // 2:] = 2.0 ** (j / 2.0)
    return np.tile(tile, 1 << j)


def _generation_sum(shape, a, b, beta) -> np.ndarray:
    """Cell values of sum_R a_R b_R b1_I (x) b2_J over the hh rectangles
    R = I x J, generation by generation, as an array of ``shape``.

    a(j1, j2) and b(j1, j2) return the (..., 2^j1, 2^j2) coefficient blocks
    of generation (j1, j2); beta picks the outer factor per axis (0: Haar,
    1: normalised indicator).  Generations whose product vanishes are skipped.
    """
    out = np.zeros(shape)
    n1, n2 = shape[-2:]
    for j1 in range(n1.bit_length() - 1):
        for j2 in range(n2.bit_length() - 1):
            coef = a(j1, j2) * b(j1, j2)
            if coef.any():
                expanded = np.repeat(np.repeat(coef, n1 >> j1, axis=-2), n2 >> j2, axis=-1)
                p1 = _axis_pattern(n1, j1, beta[0])
                p2 = _axis_pattern(n2, j2, beta[1])
                out += expanded * (p1[:, None] * p2[None, :])
    return out


# ---------------------------------------------------------------------------
# projections on the rectangle block
# ---------------------------------------------------------------------------

#: upper end of an unbounded level range (no level exceeds MAX_LEVEL)
_ALL_LEVELS = MAX_LEVEL + 1


@dataclass(frozen=True)
class ProjectionSelector:
    """Idempotent diagonal action on the hh block, one level range per axis.

    Keeps the hh coefficients of the generations (j1, j2) with j1 in the
    half-open range ``s_levels`` = (lo, hi) and j2 in ``t_levels``; an
    open-set selector further keeps only the rectangles whose cells all
    lie in ``mask`` (rows of bools).  All selectors zero the cc/hc/ch
    blocks (the martingale calculus acts on the mean-zero-in-each-variable
    component).  Index arguments beyond the depth act as zero/identity.
    """

    s_levels: tuple
    t_levels: tuple
    mask: tuple = None

    @classmethod
    def expectation(cls, j1, j2):
        """Keep generations strictly below (j1, j2) in both coordinates."""
        return cls((0, j1), (0, j2))

    @classmethod
    def tail(cls, j1, j2):
        """Keep generations >= (j1, j2) in both coordinates."""
        return cls((j1, _ALL_LEVELS), (j2, _ALL_LEVELS))

    @classmethod
    def difference(cls, j1, j2):
        """Keep exactly generation (j1, j2)."""
        return cls((j1, j1 + 1), (j2, j2 + 1))

    @classmethod
    def e1(cls, i):
        return cls((0, i), (0, _ALL_LEVELS))

    @classmethod
    def q1(cls, i):
        return cls((i, _ALL_LEVELS), (0, _ALL_LEVELS))

    @classmethod
    def e2(cls, j):
        return cls((0, _ALL_LEVELS), (0, j))

    @classmethod
    def q2(cls, j):
        return cls((0, _ALL_LEVELS), (j, _ALL_LEVELS))

    @classmethod
    def band(cls, n, k):
        """Keep generations with j1 in [2^n - 1, 2^(n+1) - 2] and likewise j2."""
        return cls(((1 << n) - 1, (2 << n) - 1), ((1 << k) - 1, (2 << k) - 1))

    @classmethod
    def tail_band(cls, n, k):
        """Keep generations with j1 >= 2^n - 1 and j2 >= 2^k - 1."""
        return cls(((1 << n) - 1, _ALL_LEVELS), ((1 << k) - 1, _ALL_LEVELS))

    @classmethod
    def open_set(cls, cell_mask: np.ndarray):
        """Keep hh coefficients of rectangles whose cells all lie in the mask."""
        rows = np.asarray(cell_mask, dtype=bool).tolist()
        return cls((0, _ALL_LEVELS), (0, _ALL_LEVELS), tuple(map(tuple, rows)))


def _level_range_mask(n: int, levels) -> np.ndarray:
    """Which of the n 1-d basis indices are intervals with level in [lo, hi)."""
    lo, hi = levels
    lv = level_of_basis_index(n)
    return (lv >= max(lo, 0)) & (lv < hi)


def apply_projection(c: HaarSpectrum2D, sel: ProjectionSelector) -> HaarSpectrum2D:
    """Apply a projection selector; output keeps only the selected hh part."""
    n1, n2 = c.coeffs.shape[-2:]
    keep = np.outer(_level_range_mask(n1, sel.s_levels), _level_range_mask(n2, sel.t_levels))
    if sel.mask is not None:
        keep &= _open_set_keep(c.depth, np.array(sel.mask, dtype=bool))
    return HaarSpectrum2D(c.depth, np.where(keep, c.coeffs, 0.0))


def _open_set_keep(depth, mask: np.ndarray) -> np.ndarray:
    """keep[b1, b2]: the rectangle with basis indices (b1, b2) has all its
    cells in the mask."""
    j1d, j2d = depth
    n1, n2 = 1 << j1d, 1 << j2d
    if mask.shape != (n1, n2):
        raise ValidationError("open-set mask shape does not match depth")
    keep = np.zeros((n1, n2), dtype=bool)
    for j1 in range(j1d):
        for j2 in range(j2d):
            keep[(1 << j1):(2 << j1), (1 << j2):(2 << j2)] = mask.reshape(
                1 << j1, n1 >> j1, 1 << j2, n2 >> j2
            ).all(axis=(1, 3))
    return keep


def square_function(c: HaarSpectrum2D) -> GridFunction2D:
    """S[f] = (sum_R chi_R / |R| * |f_R|^2)^(1/2) over the hh block.

    The coefficients are scaled by an exact power of two near their max-abs
    before squaring, so the squares stay finite at any representable amplitude.
    """
    _, e = np.frexp(np.abs(c.hh_block()).max())

    def block(j1, j2):
        return np.ldexp(c.generation_block(j1, j2), -e)

    squares = _generation_sum(c.coeffs.shape, block, block, (1, 1))
    return GridFunction2D(c.depth, np.ldexp(np.sqrt(squares), e))


def conditional_expectation_grid(f: GridFunction2D, j1: int, j2: int) -> GridFunction2D:
    """Average f over the dyadic rectangles of generation (j1, j2).

    Generations at or beyond the depth leave the grid unchanged.
    """
    J1, J2 = f.depth
    j1 = min(j1, J1)
    j2 = min(j2, J2)
    means = mean_pyramid(f.values)[j1][j2]
    vals = np.repeat(np.repeat(means, 1 << (J1 - j1), axis=0), 1 << (J2 - j2), axis=1)
    return GridFunction2D(f.depth, vals)
