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
from .core import GridFunction2D
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

    def haar_coefficient(self, left: float, mid: float, right: float) -> float:
        """<f, h_I> for I = [left, right) split at mid."""
        f = self.cdf
        return (f(right) - 2.0 * f(mid) + f(left)) / math.sqrt(right - left)

    def has_breakpoint_inside(self, left: float, right: float) -> bool:
        bp = self.breakpoints
        lo = int(np.searchsorted(bp, left, side="right"))
        hi = int(np.searchsorted(bp, right, side="left"))
        return hi > lo


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


def shift_evaluate(f: StepFunction1D, g: RandomDyadicGrid, x: float) -> float:
    """(S f)(x) evaluated directly; quarters follow the half-open layout."""
    _check_window(f, g)
    total = 0.0
    for j in g.levels():
        left, length = g.interval_containing(x, j)
        if not f.has_breakpoint_inside(left, left + length):
            continue
        coef = f.haar_coefficient(left, left + length / 2.0, left + length)
        if coef == 0.0:
            continue
        pos = (x - left) / length
        sign = 1.0 if (pos < 0.25 or pos >= 0.75) else -1.0
        total += coef * sign * math.sqrt(2.0 / length)
    return total


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
    for x in xs:
        if np.any(f.breakpoints == x):
            raise EvaluationAtJumpError("evaluation at jump")
    children = np.random.SeedSequence(seed).spawn(n_samples)
    samples = np.empty((n_samples, len(xs)))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        g = _sample_from(rng, k_coarse, k_fine)
        for jx, x in enumerate(xs):
            samples[i, jx] = shift_evaluate(f, g, x)
    scaled = AVERAGING_FACTOR * LN2 * samples
    est = scaled.mean(axis=0)
    err = scaled.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return list(zip(est.tolist(), err.tolist()))


# ---------------------------------------------------------------------------
# product-grid BMO of a compactly supported grid function
# ---------------------------------------------------------------------------

class _AxisSystem:
    """Intervals of one 1-d system at levels [j_lo, j_hi] overlapping a
    span, with contiguous fine cells one level deeper covering all of them."""

    def __init__(self, g: RandomDyadicGrid, j_lo: int, j_hi: int, lo: float, hi: float):
        if j_lo < -g.k_coarse or j_hi + 1 > g.k_fine:
            raise ValidationError("levels outside the grid's range")
        self.g = g
        self.intervals = []  # (level, left, length)
        for j in range(j_lo, j_hi + 1):
            for left, length in g.intervals_overlapping(j, lo, hi):
                self.intervals.append((j, left, length))
        self.fine_level = j_hi + 1
        fine_base = 2.0 ** (-self.fine_level)
        self.fine_length = g.r * fine_base
        span_lo = min(a for (_, a, _) in self.intervals)
        span_hi = max(a + ln for (_, a, ln) in self.intervals)
        shift = g.level_shift(self.fine_level)
        k_lo = round((span_lo / g.r - shift) / fine_base)
        k_hi = round((span_hi / g.r - shift) / fine_base)
        self.fine_k_lo = int(k_lo)
        self.n_fine = int(k_hi - k_lo)
        self._fine_base = fine_base
        self._shift = shift

    def fine_ranges(self):
        """Local fine-cell index range (lo, hi) spanned by each interval."""
        out = []
        for j, left, _ in self.intervals:
            lo = int(round((left / self.g.r - self._shift) / self._fine_base)) - self.fine_k_lo
            out.append((lo, lo + (1 << (self.fine_level - j))))
        return out

    def overlap_matrix(self, edges: np.ndarray) -> np.ndarray:
        """A[i, c] = integral of h_{I_i} over the mesh cell [edges[c], edges[c+1])."""
        e0 = edges[:-1]
        e1 = edges[1:]
        out = np.zeros((len(self.intervals), len(e0)))
        for i, (j, a, ln) in enumerate(self.intervals):
            mid = a + ln / 2.0
            low = np.clip(np.minimum(e1, mid) - np.maximum(e0, a), 0.0, None)
            high = np.clip(np.minimum(e1, a + ln) - np.maximum(e0, mid), 0.0, None)
            out[i] = (high - low) / math.sqrt(ln)
        return out


def _grid_function_coefficients(b: GridFunction2D, sys1: _AxisSystem, sys2: _AxisSystem):
    n1, n2 = b.values.shape
    edges1 = np.linspace(0.0, 1.0, n1 + 1)
    edges2 = np.linspace(0.0, 1.0, n2 + 1)
    a1 = sys1.overlap_matrix(edges1)
    a2 = sys2.overlap_matrix(edges2)
    return a1 @ b.values @ a2.T


def product_grid_bmo_sq(b: GridFunction2D, g1: RandomDyadicGrid, g2: RandomDyadicGrid) -> float:
    """Squared BMO norm of b computed in the product of two sampled 1-d
    systems, at resolution matched to the grid of b."""
    j1d, j2d = b.depth
    sys1 = _AxisSystem(g1, 0, j1d, 0.0, 1.0)
    sys2 = _AxisSystem(g2, 0, j2d, 0.0, 1.0)
    coefs = _grid_function_coefficients(b, sys1, sys2)
    inst = ClosureInstance.from_product_blocks(
        (sys1.n_fine, sys2.n_fine), sys1.fine_length * sys2.fine_length,
        [(sys1.fine_ranges(), sys2.fine_ranges(), coefs)],
    )
    value, _ = best_ratio(inst)
    return value


def sampled_continuous_bmo(b: GridFunction2D, n_grids: int, seed) -> float:
    """Max of the dyadic BMO of b over sampled product grids; the first
    grid is always the standard one, and samples are nested in the seed,
    so the value is a monotone lower bound on the grid-uniform norm."""
    if n_grids < 1:
        raise ValidationError("need at least one grid")
    j_max = max(b.depth) + 2
    grids = [(standard_grid(2, j_max), standard_grid(2, j_max))]
    children = np.random.SeedSequence(seed).spawn(2 * (n_grids - 1))
    for i in range(n_grids - 1):
        g1 = _sample_from(np.random.default_rng(children[2 * i]), 2, j_max)
        g2 = _sample_from(np.random.default_rng(children[2 * i + 1]), 2, j_max)
        grids.append((g1, g2))
    return max(product_grid_bmo_sq(b, g1, g2) for g1, g2 in grids)


# ---------------------------------------------------------------------------
# mesh functions: exact commutators with sampled-grid shifts
# ---------------------------------------------------------------------------

class MeshFunction2D:
    """Piecewise-constant function on a product of non-uniform 1-d meshes."""

    __slots__ = ("edges_s", "edges_t", "values")

    def __init__(self, edges_s, edges_t, values):
        self.edges_s = np.asarray(edges_s, dtype=float)
        self.edges_t = np.asarray(edges_t, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.edges_s) - 1, len(self.edges_t) - 1):
            raise ValidationError("mesh value shape mismatch")

    def multiply(self, other: "MeshFunction2D") -> "MeshFunction2D":
        return MeshFunction2D(self.edges_s, self.edges_t, self.values * other.values)

    def __sub__(self, other):
        return MeshFunction2D(self.edges_s, self.edges_t, self.values - other.values)

    def __add__(self, other):
        return MeshFunction2D(self.edges_s, self.edges_t, self.values + other.values)


def _mesh_for_axis(sys_shift: _AxisSystem, unit_edges: np.ndarray) -> np.ndarray:
    """Mesh refining the unit grid and the quarter structure of every
    interval of the shift system (children's halves included)."""
    pts = set(np.round(unit_edges, 15).tolist())
    for (j, a, ln) in sys_shift.intervals:
        for q in range(5):
            pts.add(round(a + q * ln / 4.0, 15))
    return np.array(sorted(pts))


def _embed_grid_on_mesh(b: GridFunction2D, edges_s, edges_t) -> MeshFunction2D:
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
    return MeshFunction2D(edges_s, edges_t, vals)


class _MeshShift:
    """One-axis shift of mesh functions in a fixed sampled system."""

    def __init__(self, sys_shift: _AxisSystem, edges: np.ndarray):
        self.analysis = sys_shift.overlap_matrix(edges)  # <., h_I> per mesh cell
        mids = 0.5 * (edges[:-1] + edges[1:])
        pat = np.zeros((len(sys_shift.intervals), len(mids)))
        for i, (j, a, ln) in enumerate(sys_shift.intervals):
            pos = (mids - a) / ln
            inside = (pos >= 0.0) & (pos < 1.0)
            sign = np.where((pos < 0.25) | (pos >= 0.75), 1.0, -1.0)
            pat[i] = inside * sign * math.sqrt(2.0 / ln)
        self.pattern = pat

    def apply_axis0(self, w: np.ndarray) -> np.ndarray:
        coefs = self.analysis @ w
        return self.pattern.T @ coefs

    def apply_axis1(self, w: np.ndarray) -> np.ndarray:
        coefs = w @ self.analysis.T
        return coefs @ self.pattern


def averaged_commutator_bmo_report(phi: GridFunction2D, b: GridFunction2D,
                                   n_grids: int, seed, j_lo: int = 0):
    """Empirical table for the averaged-shift iterated commutator.

    The commutator [S1, [S2, M_phi]] b is computed exactly for each sampled
    product grid (levels [j_lo, depth+2] per axis); the Monte-Carlo average,
    scaled by (AVERAGING_FACTOR * ln 2)^2, estimates the continuous
    iterated commutator.  Its BMO is then sampled over the same grids.
    Returns (rows, sampled_bmo_sq_of_average):  rows carry the per-grid
    commutator BMO values.
    """
    from .norms import bmo_norm_of_grid, lmo_d_norm  # local import, no cycle
    from .core import haar_forward_2d
    from .shifts import double_commutator

    if phi.depth != b.depth:
        raise ValidationError(f"depth mismatch: {phi.depth} vs {b.depth}")
    j_hi = max(phi.depth) + 2
    children = np.random.SeedSequence(seed).spawn(2 * n_grids)
    grids = []
    for i in range(n_grids):
        g1 = _sample_from(np.random.default_rng(children[2 * i]), max(2, -j_lo + 1), j_hi + 2)
        g2 = _sample_from(np.random.default_rng(children[2 * i + 1]), max(2, -j_lo + 1), j_hi + 2)
        grids.append((g1, g2))

    shift_systems = []
    outputs = []
    rows = []
    scale = (AVERAGING_FACTOR * LN2) ** 2
    unit1 = np.linspace(0.0, 1.0, (1 << phi.depth[0]) + 1)
    unit2 = np.linspace(0.0, 1.0, (1 << phi.depth[1]) + 1)
    for g1, g2 in grids:
        s_sys = _AxisSystem(g1, j_lo, j_hi, 0.0, 1.0)
        t_sys = _AxisSystem(g2, j_lo, j_hi, 0.0, 1.0)
        shift_systems.append((s_sys, t_sys))
        edges_s = _mesh_for_axis(s_sys, unit1)
        edges_t = _mesh_for_axis(t_sys, unit2)
        pm = _embed_grid_on_mesh(phi, edges_s, edges_t)
        bm = _embed_grid_on_mesh(b, edges_s, edges_t)
        s1 = _MeshShift(s_sys, edges_s)
        s2 = _MeshShift(t_sys, edges_t)

        def S1(m):
            return MeshFunction2D(edges_s, edges_t, s1.apply_axis0(m.values))

        def S2(m):
            return MeshFunction2D(edges_s, edges_t, s2.apply_axis1(m.values))

        out = double_commutator(S1, S2, pm.multiply, bm)
        outputs.append(out)
        rows.append({"grid_commutator_output_l2": float(
            ((out.values ** 2)
             * np.outer(np.diff(edges_s), np.diff(edges_t))).sum())})

    # sampled BMO of the scaled MC average, evaluated in each sampled grid
    best = 0.0
    for (s_sys, t_sys) in shift_systems:
        bmo_sys1 = _AxisSystem(s_sys.g, 0, phi.depth[0], 0.0, 1.0)
        bmo_sys2 = _AxisSystem(t_sys.g, 0, phi.depth[1], 0.0, 1.0)
        coef_sum = None
        for out in outputs:
            a1 = bmo_sys1.overlap_matrix(out.edges_s)
            a2 = bmo_sys2.overlap_matrix(out.edges_t)
            c = a1 @ out.values @ a2.T
            coef_sum = c if coef_sum is None else coef_sum + c
        coefs = coef_sum * (scale / n_grids)
        inst = ClosureInstance.from_product_blocks(
            (bmo_sys1.n_fine, bmo_sys2.n_fine),
            bmo_sys1.fine_length * bmo_sys2.fine_length,
            [(bmo_sys1.fine_ranges(), bmo_sys2.fine_ranges(), coefs)],
        )
        value, _ = best_ratio(inst)
        best = max(best, value)

    control = lmo_d_norm(haar_forward_2d(phi)) * bmo_norm_of_grid(b)
    return rows, best, control
