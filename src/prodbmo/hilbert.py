"""Random translated/dilated dyadic systems on the line, the grid-wise
dyadic shift, and the Monte-Carlo averaging that recovers the Hilbert
transform on step functions.

A system is parameterised by independent fair shift bits per level and a
dilation r in [1,2); intervals at level j have length r * 2^-j and offset
x_j = sum of 2^-i * bit_i over finer levels i > j, which keeps the
child/parent relations consistent.  Sampling r with density 1/(r ln 2)
turns the dr/r integral into ln 2 times a plain average, so

    H f(x)  ~  AVERAGING_FACTOR * ln 2 * mean of (S^{grid} f)(x)

over sampled grids.  The factor is pinned end-to-end against the
closed-form transform of step functions, (1/pi) log |(x-a)/(x-b)| per
indicator piece, for the shift normalisation S h_I = h_{I+} - h_{I-}.
"""

from __future__ import annotations

import math

import numpy as np

from .closure import ClosureInstance, best_ratio
from .core import GridFunction2D, haar_forward_2d
from .errors import (
    EvaluationAtJumpError,
    ValidationError,
    WindowOverflowError,
)

LN2 = math.log(2.0)

#: scale of the averaged shift against the Hilbert transform for the
#: un-normalised shift S h_I = h_{I+} - h_{I-} (equals 4 sqrt(2) / pi)
AVERAGING_FACTOR = 4.0 * math.sqrt(2.0) / math.pi


class StepFunction1D:
    """Compactly supported, piecewise-constant function on the line.

    values[i] holds on [breakpoints[i], breakpoints[i+1]); zero outside.
    """

    __slots__ = ("breakpoints", "values", "_cum")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if bp.ndim != 1 or v.ndim != 1 or len(bp) != len(v) + 1 or len(v) < 1:
            raise ValidationError("need n+1 breakpoints for n piece values")
        if not (np.isfinite(bp).all() and np.isfinite(v).all()):
            raise ValidationError("breakpoints and values must be finite")
        if not (np.diff(bp) > 0).all():
            raise ValidationError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.values = v
        cum = np.zeros(len(bp))
        cum[1:] = np.cumsum(v * np.diff(bp))
        self._cum = cum

    @classmethod
    def indicator(cls, a: float, b: float, height: float = 1.0):
        return cls([a, b], [height])

    @classmethod
    def zero(cls):
        return cls([0.0, 1.0], [0.0])

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def evaluate(self, x: float) -> float:
        bp = self.breakpoints
        if x < bp[0] or x >= bp[-1]:
            return 0.0
        i = int(np.searchsorted(bp, x, side="right")) - 1
        return float(self.values[i])

    def cdf(self, x) -> float:
        """Integral of f over (-inf, x]; piecewise linear, exact."""
        return np.interp(x, self.breakpoints, self._cum)

    def integral(self) -> float:
        return float(self._cum[-1])

    def l2_norm_sq(self) -> float:
        return float((self.values ** 2 * np.diff(self.breakpoints)).sum())

    def haar_coefficient(self, left, mid, right):
        """<f, h_I> for I = [left, right) split at mid; elementwise on arrays."""
        f = self.cdf
        return (f(right) - 2.0 * f(mid) + f(left)) / np.sqrt(right - left)

    def has_breakpoint_inside(self, left, right):
        """Whether a breakpoint lies in (left, right); elementwise on arrays."""
        bp = self.breakpoints
        return np.searchsorted(bp, right, side="left") > np.searchsorted(bp, left, side="right")


class RandomDyadicGrid:
    """Translated/dilated dyadic system truncated to levels
    [-k_coarse, k_fine]; level j intervals have length r * 2^-j."""

    __slots__ = ("k_coarse", "k_fine", "r", "bits", "_shifts")

    def __init__(self, k_coarse: int, k_fine: int, r: float, bits):
        if k_coarse < 1 or k_fine < 1:
            raise ValidationError("k_coarse and k_fine must be >= 1")
        if not (1.0 <= r < 2.0):
            raise ValidationError("dilation must lie in [1, 2)")
        bits = np.asarray(bits, dtype=np.int64)
        if bits.shape != (k_coarse + k_fine,):
            raise ValidationError(
                "need one shift bit per level in (-k_coarse, k_fine]"
            )
        if not np.isin(bits, (0, 1)).all():
            raise ValidationError("shift bits must be 0 or 1")
        self.k_coarse = k_coarse
        self.k_fine = k_fine
        self.r = float(r)
        self.bits = bits
        # x_j = sum_{i > j} 2^-i * bit_i; bits[idx] is the bit of level
        # i = idx - k_coarse + 1; suffix sums from the finest level down
        acc = 0.0
        shifts = {k_fine: 0.0}
        for idx in range(k_coarse + k_fine - 1, -1, -1):
            level = idx - k_coarse + 1
            acc += bits[idx] * 2.0 ** (-level)
            shifts[level - 1] = acc
        self._shifts = shifts

    def levels(self):
        return range(-self.k_coarse, self.k_fine + 1)

    def level_shift(self, j: int) -> float:
        return self._shifts[j]

    def interval_containing(self, x: float, j: int):
        """(left, length) of the level-j interval containing x."""
        base = 2.0 ** (-j)
        k = math.floor((x / self.r - self._shifts[j]) / base)
        left = self.r * (base * k + self._shifts[j])
        return left, self.r * base

    def intervals_overlapping(self, j: int, lo: float, hi: float):
        """(left, length) pairs of level-j intervals meeting (lo, hi)."""
        base = 2.0 ** (-j)
        length = self.r * base
        left, _ = self.interval_containing(lo, j)
        out = []
        while left < hi:
            out.append((left, length))
            left += length
        return out


def _sample_from(rng, k_coarse: int, k_fine: int) -> RandomDyadicGrid:
    bits = rng.integers(0, 2, size=k_coarse + k_fine)
    r = float(2.0 ** rng.random())
    if r >= 2.0:  # guard the half-open interval against rounding
        r = 1.0
    return RandomDyadicGrid(k_coarse, k_fine, r, bits)


def sample_grid(seed, k_coarse: int, k_fine: int) -> RandomDyadicGrid:
    """Draw a grid: fair shift bits per level, dilation with density
    1/(r ln 2) on [1,2) (i.e. r = 2^u with u uniform).  Deterministic in
    the seed; :func:`standard_grid` is the undilated, unshifted grid."""
    return _sample_from(np.random.default_rng(seed), k_coarse, k_fine)


def standard_grid(k_coarse: int, k_fine: int) -> RandomDyadicGrid:
    return RandomDyadicGrid(k_coarse, k_fine, 1.0, np.zeros(k_coarse + k_fine, dtype=int))


def _sampled_grids(seed, n: int, k_coarse: int, k_fine: int):
    """One grid per child of ``SeedSequence(seed).spawn(n)``, in spawn
    order, each drawn from its own stream."""
    return [_sample_from(np.random.default_rng(child), k_coarse, k_fine)
            for child in np.random.SeedSequence(seed).spawn(n)]


def _check_window(f: StepFunction1D, g: RandomDyadicGrid):
    lo, hi = f.support
    radius = 2.0 ** g.k_coarse
    if abs(lo) > radius or abs(hi) > radius:
        raise WindowOverflowError("window overflow")


def grid_shift_apply(f: StepFunction1D, g: RandomDyadicGrid) -> StepFunction1D:
    """S f = sum over grid intervals of <f, h_I> (h_{I+} - h_{I-}).

    Exact for step functions: only intervals with a breakpoint strictly
    inside carry a coefficient, so the sum is sparse.
    """
    _check_window(f, g)
    events = {}
    for j in g.levels():
        base = 2.0 ** (-j)
        length = g.r * base
        seen = set()
        for t in f.breakpoints:
            k = math.floor((t / g.r - g.level_shift(j)) / base)
            for kk in (k - 1, k):
                if kk in seen:
                    continue
                seen.add(kk)
                left = g.r * (base * kk + g.level_shift(j))
                if not f.has_breakpoint_inside(left, left + length):
                    continue
                coef = f.haar_coefficient(left, left + length / 2.0, left + length)
                if coef == 0.0:
                    continue
                amp = coef * math.sqrt(2.0 / length)
                q = length / 4.0
                for qi, sign in enumerate((1.0, -1.0, -1.0, 1.0)):
                    a = left + qi * q
                    events[a] = events.get(a, 0.0) + sign * amp
                    events[a + q] = events.get(a + q, 0.0) - sign * amp
    if not events:
        return StepFunction1D.zero()
    points = sorted(events)
    values = np.cumsum([events[p] for p in points])[:-1]
    return StepFunction1D(points, values)


def _shift_sums(f: StepFunction1D, grids, xs) -> np.ndarray:
    """(S f)(x) for each grid (rows) and point (columns) of grids sharing
    their levels, one level at a time; quarters follow the half-open layout,
    and intervals with no breakpoint inside or a zero coefficient add +0.0."""
    _check_window(f, grids[0])
    levels = grids[0].levels()
    r = np.array([[g.r] for g in grids])
    shifts = np.array([[g.level_shift(j) for j in levels] for g in grids])
    x = np.asarray(xs, dtype=float)[None, :]
    if not np.isfinite(x).all():
        raise ValidationError("evaluation points must be finite")
    total = np.zeros((len(grids), x.shape[1]))
    for j, shift in zip(levels, shifts.T[:, :, None]):
        base = 2.0 ** (-j)
        left = r * (base * np.floor((x / r - shift) / base) + shift)
        length = r * base
        coef = f.haar_coefficient(left, left + length / 2.0, left + length)
        pos = (x - left) / length
        sign = np.where((pos < 0.25) | (pos >= 0.75), 1.0, -1.0)
        keep = f.has_breakpoint_inside(left, left + length) & (coef != 0.0)
        total += np.where(keep, coef * sign * np.sqrt(2.0 / length), 0.0)
    return total


def shift_evaluate(f: StepFunction1D, g: RandomDyadicGrid, x: float) -> float:
    """(S f)(x) evaluated directly at one point of one grid."""
    return float(_shift_sums(f, [g], [x])[0, 0])


def analytic_hilbert_step(f: StepFunction1D, x: float) -> float:
    """Closed form: sum over pieces of value * (1/pi) log|(x-a)/(x-b)|."""
    if np.any(f.breakpoints == x):
        raise EvaluationAtJumpError("evaluation at jump")
    bp = f.breakpoints
    total = 0.0
    for i, v in enumerate(f.values):
        if v == 0.0:
            continue
        total += v * math.log(abs((x - bp[i]) / (x - bp[i + 1])))
    return total / math.pi


def mc_hilbert(f: StepFunction1D, xs, n_samples: int, seed,
               k_coarse: int = 12, k_fine: int = 12):
    """Monte-Carlo estimate of H f at each point with its standard error.

    Returns a list of (estimate, stderr):
        estimate = AVERAGING_FACTOR * ln 2 * mean of (S^grid f)(x).
    """
    if n_samples < 2:
        raise ValidationError("need at least two samples for a standard error")
    xs = [float(x) for x in xs]
    if np.isin(xs, f.breakpoints).any():
        raise EvaluationAtJumpError("evaluation at jump")
    samples = _shift_sums(f, _sampled_grids(seed, n_samples, k_coarse, k_fine), xs)
    scaled = AVERAGING_FACTOR * LN2 * samples
    est = scaled.mean(axis=0)
    err = scaled.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return list(zip(est.tolist(), err.tolist()))


# ---------------------------------------------------------------------------
# product-grid BMO of a compactly supported grid function
# ---------------------------------------------------------------------------

class _AxisSystem:
    """Intervals of one 1-d system at levels [0, j_hi] overlapping [0, 1),
    held as arrays, with contiguous fine cells one level deeper covering
    all of them."""

    def __init__(self, g: RandomDyadicGrid, j_hi: int):
        if j_hi + 1 > g.k_fine:
            raise ValidationError("levels outside the grid's range")
        self.g = g
        intervals = [(j, left, length) for j in range(j_hi + 1)
                     for left, length in g.intervals_overlapping(j, 0.0, 1.0)]
        self.levels, self.lefts, self.lengths = (np.array(col) for col in zip(*intervals))
        self.fine_level = j_hi + 1
        fine_base = 2.0 ** (-self.fine_level)
        self.fine_length = g.r * fine_base
        shift = g.level_shift(self.fine_level)
        k_lo = round((self.lefts.min() / g.r - shift) / fine_base)
        k_hi = round(((self.lefts + self.lengths).max() / g.r - shift) / fine_base)
        self.fine_k_lo = int(k_lo)
        self.n_fine = int(k_hi - k_lo)
        self._fine_base = fine_base
        self._shift = shift

    def fine_ranges(self) -> np.ndarray:
        """Local fine-cell index range (lo, hi) spanned by each interval."""
        lo = np.rint((self.lefts / self.g.r - self._shift) / self._fine_base).astype(int)
        lo = lo - self.fine_k_lo
        return np.column_stack((lo, lo + (1 << (self.fine_level - self.levels))))

    def overlap_matrix(self, edges: np.ndarray) -> np.ndarray:
        """A[i, c] = integral of h_{I_i} over the mesh cell [edges[c], edges[c+1])."""
        e0, e1 = edges[:-1], edges[1:]
        a, ln = self.lefts[:, None], self.lengths[:, None]
        mid = a + ln / 2.0
        low = np.clip(np.minimum(e1, mid) - np.maximum(e0, a), 0.0, None)
        high = np.clip(np.minimum(e1, a + ln) - np.maximum(e0, mid), 0.0, None)
        return (high - low) / np.sqrt(ln)


def _mesh_coefficients(sys1: _AxisSystem, sys2: _AxisSystem, values, edges_s, edges_t):
    """Coefficients on the product system of a function piecewise constant
    on the mesh edges_s x edges_t."""
    return sys1.overlap_matrix(edges_s) @ values @ sys2.overlap_matrix(edges_t).T


def _system_bmo_sq(sys1: _AxisSystem, sys2: _AxisSystem, coefs) -> float:
    """Squared BMO norm of the coefficients in the product system."""
    inst = ClosureInstance.from_product_blocks(
        (sys1.n_fine, sys2.n_fine), sys1.fine_length * sys2.fine_length,
        [(sys1.fine_ranges(), sys2.fine_ranges(), coefs)],
    )
    return best_ratio(inst)[0]


def product_grid_bmo_sq(b: GridFunction2D, g1: RandomDyadicGrid, g2: RandomDyadicGrid) -> float:
    """Squared BMO norm of b computed in the product of two sampled 1-d
    systems, at resolution matched to the grid of b."""
    sys1 = _AxisSystem(g1, b.depth[0])
    sys2 = _AxisSystem(g2, b.depth[1])
    n1, n2 = b.values.shape
    coefs = _mesh_coefficients(sys1, sys2, b.values,
                               np.linspace(0.0, 1.0, n1 + 1), np.linspace(0.0, 1.0, n2 + 1))
    return _system_bmo_sq(sys1, sys2, coefs)


def sampled_continuous_bmo(b: GridFunction2D, n_grids: int, seed) -> float:
    """Max of the dyadic BMO of b over sampled product grids; the first
    grid is always the standard one, and samples are nested in the seed,
    so the value is a monotone lower bound on the grid-uniform norm."""
    if n_grids < 1:
        raise ValidationError("need at least one grid")
    j_max = max(b.depth) + 2
    drawn = _sampled_grids(seed, 2 * (n_grids - 1), 2, j_max)
    grids = [(standard_grid(2, j_max), standard_grid(2, j_max))]
    grids += zip(drawn[0::2], drawn[1::2])
    return max(product_grid_bmo_sq(b, g1, g2) for g1, g2 in grids)


# ---------------------------------------------------------------------------
# mesh functions: exact commutators with sampled-grid shifts
# ---------------------------------------------------------------------------

def _mesh_for_axis(sys_shift: _AxisSystem, unit_edges: np.ndarray) -> np.ndarray:
    """Mesh refining the unit grid and the quarter structure of every
    interval of the shift system (children's halves included)."""
    pts = set(np.round(unit_edges, 15).tolist())
    # iterate the float64 arrays: numpy's round(x, 15) differs from Python's
    for a, ln in zip(sys_shift.lefts, sys_shift.lengths):
        for q in range(5):
            pts.add(round(a + q * ln / 4.0, 15))
    return np.array(sorted(pts))


def _embed_grid_on_mesh(b: GridFunction2D, edges_s, edges_t) -> np.ndarray:
    """Cell values of b on the mesh edges_s x edges_t (zero outside [0,1)^2)."""
    n1, n2 = b.values.shape
    mid_s = 0.5 * (edges_s[:-1] + edges_s[1:])
    mid_t = 0.5 * (edges_t[:-1] + edges_t[1:])
    idx_s = np.floor(mid_s * n1).astype(int)
    idx_t = np.floor(mid_t * n2).astype(int)
    vals = np.zeros((len(mid_s), len(mid_t)))
    ok_s = (mid_s > 0.0) & (mid_s < 1.0)
    ok_t = (mid_t > 0.0) & (mid_t < 1.0)
    sel_s = np.where(ok_s)[0]
    sel_t = np.where(ok_t)[0]
    vals[np.ix_(sel_s, sel_t)] = b.values[np.ix_(idx_s[sel_s], idx_t[sel_t])]
    return vals


class _MeshShift:
    """One-axis shift of mesh cell values in a fixed sampled system."""

    def __init__(self, sys_shift: _AxisSystem, edges: np.ndarray):
        self.analysis = sys_shift.overlap_matrix(edges)  # <., h_I> per mesh cell
        mids = 0.5 * (edges[:-1] + edges[1:])
        a, ln = sys_shift.lefts[:, None], sys_shift.lengths[:, None]
        pos = (mids - a) / ln
        inside = (pos >= 0.0) & (pos < 1.0)
        sign = np.where((pos < 0.25) | (pos >= 0.75), 1.0, -1.0)
        self.pattern = inside * sign * np.sqrt(2.0 / ln)

    def apply_axis0(self, w: np.ndarray) -> np.ndarray:
        return self.pattern.T @ (self.analysis @ w)

    def apply_axis1(self, w: np.ndarray) -> np.ndarray:
        return (w @ self.analysis.T) @ self.pattern


def averaged_commutator_bmo_report(phi: GridFunction2D, b: GridFunction2D,
                                   n_grids: int, seed):
    """Empirical table for the averaged-shift iterated commutator.

    The commutator [S1, [S2, M_phi]] b is computed exactly for each sampled
    product grid (levels [0, depth+2] per axis); the Monte-Carlo average,
    scaled by (AVERAGING_FACTOR * ln 2)^2, estimates the continuous
    iterated commutator.  Its BMO is then sampled over the same grids.
    Returns (rows, best, control): one row per grid holding the squared
    L2 norm of that grid's commutator output (``grid_commutator_output_l2``),
    the largest squared BMO norm of the scaled average over the sampled
    product systems, and lmo_d(phi) * ||b||_BMO.
    """
    from .norms import bmo_norm_of_grid, lmo_d_norm  # local import, no cycle
    from .shifts import double_commutator

    if phi.depth != b.depth:
        raise ValidationError(f"depth mismatch: {phi.depth} vs {b.depth}")
    j_hi = max(phi.depth) + 2
    drawn = _sampled_grids(seed, 2 * n_grids, 2, j_hi + 2)
    grids = list(zip(drawn[0::2], drawn[1::2]))

    outputs = []
    rows = []
    scale = (AVERAGING_FACTOR * LN2) ** 2
    unit1 = np.linspace(0.0, 1.0, (1 << phi.depth[0]) + 1)
    unit2 = np.linspace(0.0, 1.0, (1 << phi.depth[1]) + 1)
    for g1, g2 in grids:
        s_sys = _AxisSystem(g1, j_hi)
        t_sys = _AxisSystem(g2, j_hi)
        edges_s = _mesh_for_axis(s_sys, unit1)
        edges_t = _mesh_for_axis(t_sys, unit2)
        pm = _embed_grid_on_mesh(phi, edges_s, edges_t)
        bm = _embed_grid_on_mesh(b, edges_s, edges_t)
        s1 = _MeshShift(s_sys, edges_s)
        s2 = _MeshShift(t_sys, edges_t)
        out = double_commutator(s1.apply_axis0, s2.apply_axis1, pm.__mul__, bm)
        outputs.append((out, edges_s, edges_t))
        rows.append({"grid_commutator_output_l2": float(
            ((out ** 2) * np.outer(np.diff(edges_s), np.diff(edges_t))).sum())})

    # sampled BMO of the scaled MC average, evaluated in each sampled grid
    best = 0.0
    for g1, g2 in grids:
        sys1 = _AxisSystem(g1, phi.depth[0])
        sys2 = _AxisSystem(g2, phi.depth[1])
        coef_sum = sum(_mesh_coefficients(sys1, sys2, *out) for out in outputs)
        best = max(best, _system_bmo_sq(sys1, sys2, coef_sum * (scale / n_grids)))

    control = lmo_d_norm(haar_forward_2d(phi)) * bmo_norm_of_grid(b)
    return rows, best, control
