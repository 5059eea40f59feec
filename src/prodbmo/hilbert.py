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

import functools
import math

import numpy as np

from .errors import (
    EvaluationAtJumpError,
    ValidationError,
    WindowOverflowError,
)

LN2 = math.log(2.0)

#: scale of the averaged shift against the Hilbert transform for the
#: un-normalised shift S h_I = h_{I+} - h_{I-} (equals 4 sqrt(2) / pi)
AVERAGING_FACTOR = 4.0 * math.sqrt(2.0) / math.pi

# levels x grids x points per block of mc_hilbert samples: the point kernel holds
# about ten float64 temporaries of this size, so memory stays flat in the samples
_BLOCK_ELEMENTS = 1 << 16


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
        if not math.isfinite(x):
            raise ValidationError("evaluation points must be finite")
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
        """<f, h_I> for I = [left, right) split at mid; elementwise on arrays.
        An interval shorter than the float spacing at its ends (right == left)
        has +0.0."""
        f_right, f_mid, f_left = self.cdf(np.stack(np.broadcast_arrays(right, mid, left)))
        coef, width = f_right - 2.0 * f_mid + f_left, np.sqrt(right - left)
        return np.divide(coef, width, out=np.zeros_like(coef), where=width > 0.0)[()]

    def has_breakpoint_inside(self, left, right):
        """Whether a breakpoint lies in (left, right); elementwise on arrays."""
        bp = self.breakpoints  # the first breakpoint past left lies before right
        return np.append(bp, np.inf)[np.searchsorted(bp, left, side="right")] < right


def _left_ends(x, r, shift, base, step=0.0):
    """Left end of the interval of length r * base and offset r * shift
    that contains x (step 0), or lies ``step`` lengths to its right;
    elementwise.  Fractional steps give points inside that interval."""
    return r * (base * (np.floor((x / r - shift) / base) + step) + shift)


def _shift_values(pos, length):
    """h_{I+} - h_{I-} at relative position pos in an interval I of the
    given length: +sqrt(2/|I|) on the outer quarters, - on the inner two
    (half-open layout); elementwise, with no test that pos lies in [0, 1)."""
    return np.where((pos < 0.25) | (pos >= 0.75), 1.0, -1.0) * np.sqrt(2.0 / length)


def _check_levels(k_coarse: int, k_fine: int):
    if not (all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1
                for k in (k_coarse, k_fine)) and k_coarse + k_fine <= 53):
        raise ValidationError("need integers k_coarse, k_fine >= 1 and k_coarse + k_fine <= 53")


def _level_offsets(bits, k_coarse: int, k_fine: int) -> np.ndarray:
    """Offsets x_j = sum_{i > j} 2^-i * bit_i of levels -k_coarse..k_fine along the last
    axis (bits[..., idx] is the bit of level idx - k_coarse + 1): exact suffix sums."""
    terms = np.ldexp(bits, -np.arange(1 - k_coarse, k_fine + 1))
    sums = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate((sums, np.zeros(sums.shape[:-1] + (1,))), axis=-1)


class RandomDyadicGrid:
    """Translated/dilated dyadic system truncated to levels
    [-k_coarse, k_fine]; level j intervals have length r * 2^-j and offset
    r * offsets[j + k_coarse]."""

    __slots__ = ("k_coarse", "k_fine", "r", "bits", "offsets")

    def __init__(self, k_coarse: int, k_fine: int, r: float, bits):
        _check_levels(k_coarse, k_fine)
        if not (1.0 <= r < 2.0):
            raise ValidationError("dilation must lie in [1, 2)")
        bits = np.asarray(bits, dtype=np.int64)
        if bits.shape != (k_coarse + k_fine,):
            raise ValidationError("need one shift bit per level in (-k_coarse, k_fine]")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValidationError("shift bits must be 0 or 1")
        self.k_coarse, self.k_fine, self.r, self.bits = k_coarse, k_fine, float(r), bits
        self.offsets = _level_offsets(bits, k_coarse, k_fine)

    def levels(self):
        return range(-self.k_coarse, self.k_fine + 1)

    def level_shift(self, j: int) -> float:
        if not -self.k_coarse <= j <= self.k_fine:
            raise ValidationError(f"level {j} outside [-{self.k_coarse}, {self.k_fine}]")
        return float(self.offsets[j + self.k_coarse])

    def interval_containing(self, x: float, j: int):
        """(left, length) of the level-j interval containing x."""
        base = 2.0 ** (-j)
        return _left_ends(x, self.r, self.level_shift(j), base), self.r * base


_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's default multiplier
#: SeedSequence.generate_state hashes its word i with 0x8B51F9DD * 0x58F38DED^i and ^(i+1)
_STATE_CONSTS = np.array([0x8B51F9DD * 0x58F38DED ** i & _M32 for i in range(9)], np.uint32)


def _word_count(entropy) -> int:
    """How many uint32 words SeedSequence makes of an int or a sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        return max(-(-int(entropy).bit_length() // 32), 1)
    return sum(_word_count(v) for v in entropy)


def _child_pools(seq: np.random.SeedSequence, start: int, n: int) -> np.ndarray:
    """(n, pool_size) uint32 pools of the children start, ..., start + n - 1 of
    ``seq``, as ``seq.spawn`` makes them.  A child's entropy words are the parent's,
    padded with zeros to the pool size, then the parent's spawn key and the child
    index, so SeedSequence's mix_entropy reaches the index word with ``seq.pool``
    and the hash constant 0x43B0D7E5 * 0x931E8875^(words hashed so far)."""
    if start + n > 1 << 32:  # a larger index takes two key words
        raise ValidationError("child indices past 2^32 - 1 are not supported")
    size, index = seq.pool_size, np.arange(start, start + n, dtype=np.uint32)
    hashed = size * (max(_word_count(seq.entropy), size) + _word_count(seq.spawn_key))
    const, pool = 0x43B0D7E5 * pow(0x931E8875, hashed, 1 << 32) & _M32, seq.pool.tolist()
    for dst in range(size):  # hashmix the index, mix it into each pool word (mod 2^32)
        nxt = const * 0x931E8875 & _M32
        value = (index ^ const) * nxt
        value ^= value >> 16
        value = (0xCA01F9DD * pool[dst] & _M32) - 0x4973F715 * value
        pool[dst], const = value ^ value >> 16, nxt
    return np.stack(pool, axis=1)


@functools.lru_cache(maxsize=None)
def _pcg_states_map(outputs: int):
    """(K, B): ``K @ limbs + B`` holds, in row k * outputs + m, limb k (16 bits,
    before carries) of PCG64's state at its draw m + 1, from the 16-bit limbs of
    the seed's (state, sequence).  Seeding's two steps and m + 1 draws make it
    M^(m+2) state + G (2 sequence + 1) mod 2^128, G = 1 + M + ... + M^(m+2)."""
    K, B = np.zeros((8, outputs, 2, 8)), np.zeros((8, outputs, 1))
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for m in range(outputs):
        power = power * _PCG_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        for v, const in enumerate((power, 2 * total % (1 << 128))):
            for i in range(8):
                K[i:, m, v, i] = [const >> 16 * k & 0xFFFF for k in range(8 - i)]
        B[:, m, 0] = [total >> 16 * k & 0xFFFF for k in range(8)]
    K, B = K.reshape(-1, 16), B.reshape(-1, 1)
    K.flags.writeable = B.flags.writeable = False  # shared by every draw
    return K, B


def _draw_grids(pools, k_coarse: int, k_fine: int):
    """Shift bits (n, levels) and dilations (n, 1) of one grid per row of
    SeedSequence pools, bit for bit as ``default_rng`` of that sequence draws
    them: ``integers(0, 2, size=levels)``, then ``2.0 ** random()``."""
    _check_levels(k_coarse, k_fine)  # once per batch, before the draw
    n, outputs = len(pools), (k_coarse + k_fine + 1) // 2 + 1
    # generate_state(4, np.uint64): eight hashed words cycling through the pool
    words = (pools[:, np.arange(8) % pools.shape[1]] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    words ^= words >> 16
    # PCG64 seeds state (w0 w1 : w2 w3) and sequence (w4 w5 : w6 w7), high : low; in
    # 16-bit limbs the map's terms and sums are integers below 2^37, exact in float64
    words = words[:, [2, 3, 0, 1, 6, 7, 4, 5]]
    limbs = np.stack((words & 0xFFFF, words >> 16), axis=-1).reshape(n, 16)
    K, B = _pcg_states_map(outputs)
    state = (K @ limbs.T + B).astype(np.uint64).reshape(8, outputs, n)
    for k in range(7):
        state[k + 1] += state[k] >> 16
    state = (state & 0xFFFF) << np.tile(np.arange(0, 64, 16, dtype=np.uint64), 2)[:, None, None]
    # XSL-RR output: (high ^ low) rotated right by the state's top six bits
    xored, rot = state[:4].sum(axis=0) ^ state[4:].sum(axis=0), state[7] >> 58
    raw = xored >> rot | xored << (64 - rot & 63)
    # integers(0, 2): the top bit of each output's low, then high 32-bit half
    bits = np.stack((raw[:-1] >> 31 & 1, raw[:-1] >> 63), axis=1).reshape(2 * outputs - 2, n)
    bits = bits.T[:, :k_coarse + k_fine].astype(np.int64, order="C")
    # random(): the next output's top 53 bits; r = 2.0 ** u on Python floats, which
    # np.power and np.exp2 round differently for a few percent of u
    r = np.array([2.0 ** u for u in ((raw[-1] >> 11) * 2.0 ** -53).tolist()]).reshape(n, 1)
    r[r >= 2.0] = 1.0  # guard the half-open interval against rounding
    return bits, r


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``SeedSequence(seed)``; None, bools and what it refuses raise ``ValidationError``."""
    if seed is None:  # SeedSequence(None) draws fresh OS entropy
        raise ValidationError("bad seed: None draws OS entropy; pass an explicit seed")
    if any(isinstance(v, bool) for v in (seed if isinstance(seed, (list, tuple)) else [seed])):
        raise ValidationError(f"bad seed: {seed!r} holds a bool, not an integer")
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad seed: {exc}") from exc


def sample_grid(seed, k_coarse: int, k_fine: int) -> RandomDyadicGrid:
    """Draw a grid: fair shift bits per level, dilation with density
    1/(r ln 2) on [1,2) (i.e. r = 2^u with u uniform).  Deterministic in
    the seed (an int, a sequence of ints or a ``SeedSequence``), drawn as
    ``default_rng(seed)`` would draw it; :func:`standard_grid` is the
    undilated, unshifted grid."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = _seed_sequence(seed)
    bits, r = _draw_grids(seed.pool[None], k_coarse, k_fine)
    return RandomDyadicGrid(k_coarse, k_fine, r[0, 0], bits[0])


def standard_grid(k_coarse: int, k_fine: int) -> RandomDyadicGrid:
    _check_levels(k_coarse, k_fine)
    return RandomDyadicGrid(k_coarse, k_fine, 1.0, np.zeros(k_coarse + k_fine, dtype=int))


def _check_window(f: StepFunction1D, k_coarse: int):
    lo, hi = f.support
    radius = 2.0 ** k_coarse
    if abs(lo) > radius or abs(hi) > radius:
        raise WindowOverflowError("window overflow")


def grid_shift_apply(f: StepFunction1D, g: RandomDyadicGrid) -> StepFunction1D:
    """S f = sum over grid intervals of <f, h_I> (h_{I+} - h_{I-}).

    Exact for step functions: only intervals with a breakpoint strictly
    inside carry a coefficient, so S f is constant between their quarter
    points; each piece holds :func:`shift_evaluate` at its midpoint.
    """
    _check_window(f, g.k_coarse)
    base = np.ldexp(1.0, -np.arange(-g.k_coarse, g.k_fine + 1))[:, None, None, None]
    # candidates k - 1 and k per breakpoint and level; each quarter point is r times an
    # exact dyadic number, so a point that two levels share is one float
    steps = np.array([-1.0, 0.0])[:, None, None] + np.arange(5)[:, None] / 4.0
    quarters = _left_ends(f.breakpoints, g.r, g.offsets[:, None, None, None], base, steps)
    left, length = quarters[:, :, 0], g.r * base[:, :, 0]
    carries = (f.has_breakpoint_inside(left, left + length)
               & (f.haar_coefficient(left, left + length / 2.0, left + length) != 0.0))
    points = np.unique(np.moveaxis(quarters, 2, -1)[carries])
    if points.size == 0:
        return StepFunction1D.zero()
    return StepFunction1D(points, _shift_sums(f, g.k_coarse, g.r, g.offsets[None],
                                              0.5 * (points[:-1] + points[1:]))[0])


def _shift_sums(f: StepFunction1D, k_coarse: int, r, offsets, xs) -> np.ndarray:
    """(S f)(x) for each grid (rows of offsets, (grids, levels), and of r,
    broadcast to (grids, 1)) and point (columns) in one levels x grids x points
    broadcast; intervals with no breakpoint inside or a zero coefficient add +0.0,
    so the levels past reach, which add only such terms, are skipped.  With u = 2^-53,
    the computed ends of a level-j interval (length r 2^-j < 2^(1-j), offset in
    [0, 2^-j)) lie within 6u (|x| + length) of an interval of that length holding x,
    so no breakpoint lies inside if length (1 + 6u) + 6u |x| <= d, the distance from x
    to the breakpoints (computed within a factor 1 +- u).  reach = d (1 - 16u) - 16u |x|
    leaves room for both and for its own rounding: level j adds nothing at x if
    2^(1-j) <= reach.  The levels past the block's least reach are skipped, and each
    point's own levels past reach are masked, so a far point meets no fine level."""
    _check_window(f, k_coarse)
    x = np.asarray(xs, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("evaluation points must be finite")
    bp = f.breakpoints
    near = np.searchsorted(bp[1:-1], x) + 1  # bp[near - 1] < x <= bp[near], or an end pair
    gap = np.minimum(np.abs(x - bp[near - 1]), np.abs(bp[near] - x))
    reach = gap * (1.0 - 2.0 ** -49) - 2.0 ** -49 * np.abs(x)
    least = reach.min(initial=2.0 ** 1023)
    # levels l = j + k_coarse with 2^(k_coarse + 1 - l) > least, read off least's exponent
    levels = max(k_coarse + 2 - math.frexp(least)[1], 0) if least > 0.0 else offsets.shape[1]
    if levels == 0:  # no points, or every point beyond reach
        return np.zeros((offsets.shape[0], x.size))
    base = np.ldexp(1.0, k_coarse - np.arange(offsets.shape[1]))[:levels, None, None]
    seen = 2.0 * base > reach  # the same test per point; a masked point is located at 0
    x = np.where(seen, x, 0.0)
    left = _left_ends(x, r, offsets.T[:levels, :, None], base)
    length = r * base
    coef = f.haar_coefficient(left, left + length / 2.0, left + length)
    keep = seen & f.has_breakpoint_inside(left, left + length) & (coef != 0.0)
    terms = np.where(keep, coef * _shift_values((x - left) / length, length), 0.0)
    # levels in order, coarse to fine, from +0.0 (np.sum may pair them up instead)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def shift_evaluate(f: StepFunction1D, g: RandomDyadicGrid, x: float) -> float:
    """(S f)(x) evaluated directly at one point of one grid."""
    return float(_shift_sums(f, g.k_coarse, g.r, g.offsets[None], [x])[0, 0])


def analytic_hilbert_step(f: StepFunction1D, x: float) -> float:
    """Closed form: sum over pieces of value * (1/pi) log|(x-a)/(x-b)|."""
    if not math.isfinite(x):
        raise ValidationError("evaluation points must be finite")
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
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValidationError("need an integer count of at least two samples for a standard error")
    if n_samples > 1 << 32:  # a child index past 2^32 - 1 takes two spawn-key words
        raise ValidationError("need at most 2^32 samples")
    xs = [float(x) for x in xs]
    if np.isin(xs, f.breakpoints).any():
        raise EvaluationAtJumpError("evaluation at jump")
    _check_levels(k_coarse, k_fine)
    seeds = _seed_sequence(seed)
    step = max(1, _BLOCK_ELEMENTS // ((k_coarse + k_fine + 1) * max(len(xs), 1)))
    blocks = []
    for i in range(0, n_samples, step):  # the children of spawn(n_samples), a block at a time
        bits, r = _draw_grids(_child_pools(seeds, i, min(step, n_samples - i)), k_coarse, k_fine)
        blocks.append(_shift_sums(f, k_coarse, r, _level_offsets(bits, k_coarse, k_fine), xs))
    samples = np.concatenate(blocks)
    scaled = AVERAGING_FACTOR * LN2 * samples
    est = scaled.mean(axis=0)
    err = scaled.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return list(zip(est.tolist(), err.tolist()))
