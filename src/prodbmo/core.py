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

import math
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
        if not (_is_int(self.level) and _is_int(self.index)):
            raise ValidationError("interval level and index must be integers")
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
        if not _is_int(b):
            raise ValidationError(f"basis index {b!r} must be an integer")
        if b < 1:
            raise ValidationError("basis index of an interval must be >= 1")
        level = int(b).bit_length() - 1
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
    def generation(self) -> tuple:
        """The generation pair (j1, j2): the levels of the two sides."""
        return (self.s_interval.level, self.t_interval.level)

    def contains(self, other: "DyadicRect") -> bool:
        return self.s_interval.contains(other.s_interval) and self.t_interval.contains(
            other.t_interval
        )

    @classmethod
    def from_levels(cls, j1: int, i1: int, j2: int, i2: int) -> "DyadicRect":
        return cls(DyadicInterval(j1, i1), DyadicInterval(j2, i2))


def _is_int(v) -> bool:
    """Whether v is an integer, numpy's included; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_depth(levels, name="depth", lo=1) -> tuple:
    """The one level-pair check, a depth by default: two integers in lo..MAX_LEVEL, as a tuple."""
    levels = tuple(levels) if np.iterable(levels) else (levels,)
    if len(levels) != 2 or not all(_is_int(j) and lo <= j <= MAX_LEVEL for j in levels):
        raise ValidationError(f"{name} {list(levels)} must be two integers in {lo}..{MAX_LEVEL}")
    return levels


def _check_axis(axis):
    """Refuse an axis other than the integer 1 or 2."""
    if not (_is_int(axis) and axis in (1, 2)):
        raise ValidationError("axis must be 1 or 2")


def _check_grid_shape(values, depth) -> tuple:
    """The checked depth, which the last two axes of values must match."""
    depth = _check_depth(depth)
    if values.shape[-2:] != (1 << depth[0], 1 << depth[1]):
        raise ValidationError(f"values shape {values.shape} does not match depth {depth}")
    return depth


def _check_same_depth(a, b):
    """Raise DepthMismatchError unless a and b share a depth."""
    if a.depth != b.depth:
        raise DepthMismatchError(f"depth mismatch: {a.depth} vs {b.depth}")


class GridFunction2D:
    """Piecewise-constant function on the 2^J1 x 2^J2 dyadic grid over [0,1)^2.

    Rows index s-cells, columns index t-cells; cell widths are 2^-J1 and
    2^-J2.  ``values`` may carry leading batch axes; ``integral`` and
    ``norm_l2_sq`` need a single function.  Treated as an immutable value:
    operations return new objects.  Finiteness is checked where values enter
    (the CLI loader): NaN is refused by the closure solve of every BMO and LMO
    norm, and inf and overflow give non-finite results (CLI exit 3).
    """

    __slots__ = ("depth", "values")

    def __init__(self, depth, values):
        values = np.asarray(values, dtype=float)
        self.depth = _check_grid_shape(values, depth)
        self.values = values

    @classmethod
    def zeros(cls, depth) -> "GridFunction2D":
        return cls.constant(depth, 0.0)

    @classmethod
    def constant(cls, depth, value) -> "GridFunction2D":
        j1, j2 = _check_depth(depth)
        return cls(depth, np.full((1 << j1, 1 << j2), float(value)))

    @property
    def cell_area(self) -> float:
        return 2.0 ** -(self.depth[0] + self.depth[1])

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def norm_l2_sq(self) -> float:
        return float((self.values ** 2).sum() * self.cell_area)

    def __add__(self, other):
        _check_same_depth(self, other)
        return GridFunction2D(self.depth, self.values + other.values)

    def __sub__(self, other):
        _check_same_depth(self, other)
        return GridFunction2D(self.depth, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction2D(self.depth, self.values * float(scalar))

    __rmul__ = __mul__

    def multiply(self, other) -> "GridFunction2D":
        """Pointwise product (exact for piecewise-constant functions)."""
        _check_same_depth(self, other)
        return GridFunction2D(self.depth, self.values * other.values)


class HaarSpectrum2D:
    """Coefficients of a grid function over the tensor Haar basis.

    The dense array ``coeffs`` is indexed by the two 1-d basis indices
    (see module docstring); Parseval holds exactly:
    ||f||_2^2 == (coeffs ** 2).sum().  ``coeffs`` may carry leading batch
    axes; ``cc``, the ``*_coef`` methods and the energies need a single
    spectrum.  Coefficients follow the finiteness rule of GridFunction2D.
    """

    __slots__ = ("depth", "coeffs")

    def __init__(self, depth, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        self.depth = _check_grid_shape(coeffs, depth)
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, depth) -> "HaarSpectrum2D":
        return cls(depth, GridFunction2D.zeros(depth).values)

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


# ---------------------------------------------------------------------------
# the basis-index layout of one axis: interval b has children 2b and 2b + 1
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    """The arrays, read-only, as one array or a tuple: every caller shares a cached table."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


@lru_cache(maxsize=64)
def level_of_basis_index(n: int) -> np.ndarray:
    """Read-only level_of[b] for b in [0, n); entry 0 is -1 (the constant)."""
    return _read_only(np.frexp(np.arange(n))[1].astype(np.int64) - 1)


@lru_cache(maxsize=64)
def _interval_cells(n: int) -> np.ndarray:
    """Read-only (n, 2) table on an axis of n cells: row b >= 1 is the half-open
    cell range of interval b, and row 0 spans the axis."""
    lv = np.maximum(level_of_basis_index(n), 0)
    lo = (np.arange(n) % (1 << lv)) * (n >> lv)
    return _read_only(np.column_stack((lo, lo + (n >> lv))))


@lru_cache(maxsize=32)
def _basis_order(depth):
    """Read-only (rows, cols): the basis-index pairs of the fixed enumeration,
    cc, then hc and ch by basis index, then hh by (j1, j2, i1, i2)."""
    n1, n2 = 1 << depth[0], 1 << depth[1]
    b1, b2 = (b.ravel() for b in np.meshgrid(np.arange(1, n1), np.arange(1, n2), indexing="ij"))
    hh = np.lexsort((b2, b1, level_of_basis_index(n2)[b2], level_of_basis_index(n1)[b1]))
    return _read_only(np.concatenate((np.arange(n1), np.zeros(n2 - 1, np.int64), b1[hh])),
                      np.concatenate((np.zeros(n1, np.int64), np.arange(1, n2), b2[hh])))


def _dyadic_cells(rect: DyadicRect, depth):
    """Per axis, the half-open cell range (lo, hi) of a dyadic rectangle on
    the grid of this depth; rectangles finer than the grid are refused."""
    sides = (rect.s_interval, rect.t_interval)
    if any(side.level > j for side, j in zip(sides, depth)):
        raise ValidationError("rectangle finer than the grid")
    return [(side.index << (j - side.level), (side.index + 1) << (j - side.level))
            for side, j in zip(sides, depth)]


def _subtree_reduce(x: np.ndarray, ufunc):
    """Replace, in place, each slot b >= 1 along x's first axis (another's: a transposed
    view) by ufunc over slot b and its descendants 2b, 2b + 1, 4b, ...; slot 0 is kept."""
    lo = len(x) >> 2  # the first slot with children
    while lo:
        ufunc(x[lo:2 * lo], ufunc(x[2 * lo:4 * lo:2], x[2 * lo + 1:4 * lo:2]), out=x[lo:2 * lo])
        lo >>= 1


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
    return rect_mean(p, *_dyadic_cells(rect, p.depth))


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


def _block_mean_layout(v: np.ndarray, axis: int) -> np.ndarray:
    """v's block means along ``axis`` in the basis-index layout: slot b >= 1
    holds the mean over interval b, slot 0 the mean over the whole axis."""
    means = block_means(v, axis)
    return np.concatenate((means[0], *means[:-1]), axis)


# ---------------------------------------------------------------------------
# sums over the generations of the rectangle block
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _axis_pattern(n: int, j: int, beta: int):
    """Read-only (slots, values) of the level-j outer factor on an axis of n cells:
    slots[cell] is the hh-block slot (basis index - 1) of the level-j
    interval holding the cell, and values the factor there.

    beta == 0: Haar, -2^(j/2) on the left half of each interval, + on the
    right.  beta == 1: normalised indicator, constant 2^j.
    """
    slots = (1 << j) - 1 + (np.arange(n) >> (n.bit_length() - 1 - j))
    if beta == 1:
        return _read_only(slots, np.full(n, float(1 << j)))
    w = n >> j
    tile = np.empty(w)
    tile[: w // 2] = -(2.0 ** (j / 2.0))
    tile[w // 2:] = 2.0 ** (j / 2.0)
    return _read_only(slots, np.tile(tile, 1 << j))


def _generation_sum(shape, a, b, beta) -> np.ndarray:
    """Cell values of sum_R a_R b_R b1_I (x) b2_J over the hh rectangles
    R = I x J, generation by generation, as an array of ``shape``.

    a and b hold the coefficients in the basis-index layout (only the hh
    block is read); beta picks the outer factor per axis (0: Haar, 1:
    normalised indicator).  Generations whose product vanishes are skipped.
    """
    out = np.zeros(shape)
    n1, n2 = shape[-2:]
    coef = a[..., 1:, 1:] * b[..., 1:, 1:]
    for j1 in range(n1.bit_length() - 1):
        rows, p1 = _axis_pattern(n1, j1, beta[0])
        for j2 in range(n2.bit_length() - 1):
            if coef[..., (1 << j1) - 1:(2 << j1) - 1, (1 << j2) - 1:(2 << j2) - 1].any():
                cols, p2 = _axis_pattern(n2, j2, beta[1])
                out += coef[..., rows[:, None], cols] * (p1[:, None] * p2[None, :])
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
    """keep[b1, b2]: the rectangle of basis indices (b1, b2) has all its cells
    in the mask.  Its mean of the 0/1 mask is a dyadic fraction, exact while
    J1 + J2 <= 52, so it is 1.0 only on an all-ones rectangle."""
    if mask.shape != (1 << depth[0], 1 << depth[1]):
        raise ValidationError("open-set mask shape does not match depth")
    return _block_mean_layout(_block_mean_layout(mask.astype(float), -2), -1) == 1.0


def _unit_scaled(c: HaarSpectrum2D):
    """(hh block of c / 2^e, e), e the exponent of the largest |hh
    coefficient|, so that squares stay finite at any representable amplitude;
    the other blocks are dropped, so a large constant cannot overflow."""
    e = math.frexp(float(np.abs(c.hh_block()).max()))[1]
    return HaarSpectrum2D(c.depth, np.ldexp(c.hh_only().coeffs, -e)), e


def square_function(c: HaarSpectrum2D) -> GridFunction2D:
    """S[f] = (sum_R chi_R / |R| * |f_R|^2)^(1/2) over the hh block, squared
    after :func:`_unit_scaled`."""
    c, e = _unit_scaled(c)
    squares = _generation_sum(c.coeffs.shape, c.coeffs, c.coeffs, (1, 1))
    return GridFunction2D(c.depth, np.ldexp(np.sqrt(squares), e))


def conditional_expectation_grid(f: GridFunction2D, j1: int, j2: int) -> GridFunction2D:
    """Average f over the dyadic rectangles of generation (j1, j2).

    Generations at or beyond the depth leave the grid unchanged.
    """
    j1, j2 = map(min, _check_depth((j1, j2), "generation pair", 0), f.depth)
    J1, J2 = f.depth
    means = mean_pyramid(f.values)[j1][j2]
    vals = np.repeat(np.repeat(means, 1 << (J1 - j1), axis=0), 1 << (J2 - j2), axis=1)
    return GridFunction2D(f.depth, vals)
