"""Random dyadic systems, the grid shift, and the averaged Hilbert transform."""

import math
import warnings

import numpy as np
import pytest

from helpers import reference_draw_grids, reference_grid_shift_apply, reference_shift_sums
from prodbmo import hilbert
from prodbmo.errors import (
    EvaluationAtJumpError,
    ValidationError,
    WindowOverflowError,
)
from prodbmo.hilbert import (
    AVERAGING_FACTOR,
    LN2,
    RandomDyadicGrid,
    StepFunction1D,
    analytic_hilbert_step,
    grid_shift_apply,
    mc_hilbert,
    sample_grid,
    shift_evaluate,
    standard_grid,
)


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

def test_step_function_validation():
    with pytest.raises(ValidationError):
        StepFunction1D([0.0, 0.0], [1.0])
    with pytest.raises(ValidationError):
        StepFunction1D([0.0, 1.0], [1.0, 2.0])


def test_step_function_cdf_and_eval():
    f = StepFunction1D([0.0, 1.0, 3.0], [2.0, -1.0])
    assert f.evaluate(-0.5) == 0.0
    assert f.evaluate(0.5) == 2.0
    assert f.evaluate(2.0) == -1.0
    assert f.evaluate(3.0) == 0.0
    assert f.cdf(0.5) == pytest.approx(1.0)
    assert f.cdf(2.0) == pytest.approx(2.0 - 1.0)
    assert f.integral() == pytest.approx(0.0)
    assert f.l2_norm_sq() == pytest.approx(4.0 + 2.0)


def test_step_function_evaluate_rejects_non_finite_points():
    f = StepFunction1D([0.0, 0.3, 1.0], [1.0, -2.0])
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="evaluation points must be finite"):
            f.evaluate(x)


def test_step_haar_coefficient_closed_form():
    f = StepFunction1D.indicator(0.0, 1.0)
    # <chi_[0,1], h_[0,2)> with split at 1: right mass 0, left mass 1
    val = f.haar_coefficient(0.0, 1.0, 2.0)
    assert val == pytest.approx(-1.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------

def test_sample_grid_deterministic():
    g1 = sample_grid(5, 4, 4)
    g2 = sample_grid(5, 4, 4)
    assert g1.r == g2.r
    assert np.all(g1.bits == g2.bits)
    g3 = sample_grid(6, 4, 4)
    assert g3.r != g1.r or not np.all(g3.bits == g1.bits)


#: seeds of one to five entropy words, and a list of them
DRAW_SEEDS = [0, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 5, 2 ** 130 + 7, [3, 2 ** 40, 0]]


def test_array_draw_matches_the_generator_loop():
    """The array draw gives, bit for bit, the shift bits and dilations of a
    ``default_rng`` per spawned child: every seed width, a spawned parent read
    from child 5 on, every window of 2 to 53 levels, and ``sample_grid`` on
    seeds and on SeedSequence children.  The child pools are those of
    ``SeedSequence.spawn``."""
    spawned = np.random.SeedSequence(17).spawn(3)[2]
    for seq, start in [(np.random.SeedSequence(s), 0) for s in DRAW_SEEDS] + [(spawned, 5)]:
        parent = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key)
        children = parent.spawn(start + 6)[start:]
        pools = hilbert._child_pools(seq, start, 6)
        assert pools.dtype == np.uint32
        assert pools.tolist() == [child.pool.tolist() for child in children]
        for k in range(2, 54):
            bits, r = hilbert._draw_grids(pools, k // 2, k - k // 2)
            ref_bits, ref_r = reference_draw_grids(children, k // 2, k - k // 2)
            assert bits.dtype == ref_bits.dtype and (bits == ref_bits).all()
            assert r.tobytes() == ref_r.tobytes()
    for seed in DRAW_SEEDS + np.random.SeedSequence(4).spawn(3):
        g = sample_grid(seed, 3, 9)
        ref_bits, ref_r = reference_draw_grids([seed], 3, 9)
        assert g.bits.tolist() == ref_bits[0].tolist()
        assert np.float64(g.r).tobytes() == ref_r[0].tobytes()


def test_child_indices_take_one_key_word():
    """Child 2^32 - 1 is the last one drawn; a later index would take two words."""
    seq = np.random.SeedSequence(1)
    last = hilbert._child_pools(seq, 2 ** 32 - 3, 3)[-1]
    assert last.tolist() == np.random.SeedSequence(1, spawn_key=(2 ** 32 - 1,)).pool.tolist()
    with pytest.raises(ValidationError):
        hilbert._child_pools(seq, 2 ** 32 - 3, 4)
    with pytest.raises(ValidationError):
        mc_hilbert(StepFunction1D.indicator(0.0, 1.0), [2.0], 2 ** 32 + 1, 0)


def _loop_offsets(g):
    """Reference offsets x_j = sum_{i > j} 2^-i * bit_i as per-level suffix
    sums from the finest level down, one level at a time."""
    acc = 0.0
    shifts = {g.k_fine: 0.0}
    for idx in range(g.k_coarse + g.k_fine - 1, -1, -1):
        level = idx - g.k_coarse + 1
        acc += g.bits[idx] * 2.0 ** (-level)
        shifts[level - 1] = acc
    return shifts


def test_level_offsets_match_per_level_loop():
    for seed in range(300):
        g = sample_grid(seed, 1 + seed % 13, 1 + (7 * seed) % 17)
        ref = _loop_offsets(g)
        assert [g.level_shift(j) for j in g.levels()] == [ref[j] for j in g.levels()]


def test_grid_rejects_bad_sizes_bits_and_levels():
    RandomDyadicGrid(30, 23, 1.0, np.ones(53, dtype=int))
    for k_coarse, k_fine in [(30, 24), (1100, 12), (12, 2000)]:
        with pytest.raises(ValidationError):
            RandomDyadicGrid(k_coarse, k_fine, 1.0, np.zeros(k_coarse + k_fine, dtype=int))
    with pytest.raises(ValidationError):
        RandomDyadicGrid(2, 2, 1.0, [0, 1, 2, 0])
    g = standard_grid(2, 3)
    for j in (-3, 4):
        with pytest.raises(ValidationError):
            g.level_shift(j)


def test_bool_level_counts_are_refused():
    for k_coarse, k_fine in ((True, 3), (3, False)):
        with pytest.raises(ValidationError, match="integers"):
            hilbert._check_levels(k_coarse, k_fine)
    with pytest.raises(ValidationError, match="integers"):
        standard_grid(True, 3)


@pytest.mark.parametrize("call", [
    lambda f: mc_hilbert(f, [2.0], 4.0, 1),
    lambda f: mc_hilbert(f, [2.0], 4, 1, k_coarse=6.0),
    lambda f: sample_grid(1, 2.0, 3),
    lambda f: standard_grid(2.0, 3),
    lambda f: RandomDyadicGrid(2.0, 2, 1.0, [0, 1, 0, 1]),
], ids=["mc-samples", "mc-k_coarse", "sample_grid", "standard_grid", "RandomDyadicGrid"])
def test_non_integer_level_and_sample_counts_are_refused(call):
    with pytest.raises(ValidationError, match="integer"):
        call(StepFunction1D.indicator(0.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda f: mc_hilbert(f, [2.0], 4, -1),
    lambda f: sample_grid(-1, 2, 3),
    lambda f: mc_hilbert(f, [2.0], 4, 1.5),
    lambda f: mc_hilbert(f, [2.0], 4, None),
    lambda f: sample_grid(None, 2, 3),
    lambda f: mc_hilbert(f, [2.0], 4, True),
    lambda f: sample_grid(True, 1, 3),
    lambda f: sample_grid([1, True], 1, 3),
], ids=["mc-negative", "sample_grid-negative", "mc-float", "mc-none", "sample_grid-none",
        "mc-bool", "sample_grid-bool", "sample_grid-bool-word"])
def test_bad_seeds_are_refused(call):
    with pytest.raises(ValidationError, match="seed"):
        call(StepFunction1D.indicator(0.0, 1.0))


def test_numpy_integer_level_and_sample_counts_are_accepted():
    f, four = StepFunction1D.indicator(0.0, 1.0), np.int64(4)
    assert mc_hilbert(f, [2.0], four, 1, k_coarse=four, k_fine=four) == mc_hilbert(
        f, [2.0], 4, 1, k_coarse=4, k_fine=4)
    assert standard_grid(four, np.int32(3)).offsets.tolist() == [0.0] * 8
    assert sample_grid(1, four, 3).r == sample_grid(1, 4, 3).r


def test_grid_interval_nesting():
    g = sample_grid(11, 4, 4)
    for x in [-1.3, 0.0, 0.7, 2.5]:
        for j in range(-3, 4):
            left, length = g.interval_containing(x, j)
            assert left <= x < left + length
            # the level-(j+1) interval containing x sits inside this one
            cl, clen = g.interval_containing(x, j + 1)
            assert left - 1e-12 <= cl and cl + clen <= left + length + 1e-12


def test_dilation_density():
    # r = 2^u with u uniform: P(r <= x) = log2(x); KS distance well under 1e-2
    rng = np.random.default_rng(123)
    rs = np.sort(2.0 ** rng.random(100000))
    emp = np.arange(1, len(rs) + 1) / len(rs)
    assert np.abs(emp - np.log2(rs)).max() < 0.01


def test_grid_shift_of_grid_haar_function():
    g = standard_grid(2, 6)
    f = StepFunction1D([0.0, 0.5, 1.0], [-1.0, 1.0])  # h_[0,1)
    out = grid_shift_apply(f, g)
    # S h_I = h_(I+) - h_(I-): quarters (+,-,-,+) * sqrt(2)
    probes = [0.1, 0.3, 0.6, 0.9]
    expect = [math.sqrt(2.0), -math.sqrt(2.0), -math.sqrt(2.0), math.sqrt(2.0)]
    for x, v in zip(probes, expect):
        assert out.evaluate(x) == pytest.approx(v, abs=1e-12)
        assert shift_evaluate(f, g, x) == pytest.approx(v, abs=1e-12)


def test_grid_shift_of_grid_aligned_indicator_vanishes():
    g = standard_grid(2, 4)
    f = StepFunction1D.indicator(0.0, 4.0)  # one whole coarsest interval
    out = grid_shift_apply(f, g)
    assert out.l2_norm_sq() == 0.0


def test_grid_shift_energy_identity():
    """||S f||^2 = 2 sum <f, h_I>^2 over the truncated level range."""
    for seed in [3, 4]:
        g = sample_grid(seed, 6, 8)
        f = StepFunction1D([0.0, 0.35, 1.0], [1.0, -0.5])
        out = grid_shift_apply(f, g)
        total = 0.0
        for j in g.levels():
            left0, length = g.interval_containing(f.support[0], j)
            left = left0
            while left < f.support[1]:
                c = f.haar_coefficient(left, left + length / 2.0, left + length)
                total += c * c
                left += length
        assert out.l2_norm_sq() == pytest.approx(2.0 * total, rel=1e-10)


def test_grid_shift_matches_pointwise_evaluation():
    """Each piece of S f holds the point kernel's value at its midpoint
    exactly; the pieces are no shorter than a finest-level quarter (no
    rounding twins of a quarter point), and S f matches the kernel between
    midpoints too."""
    rng = np.random.default_rng(31)
    for seed, f in [(77, StepFunction1D([-0.5, 0.1, 0.4, 1.2], [0.7, -1.1, 2.0])),
                    (5, StepFunction1D([0.0, 0.35, 1.0], [1.0, -0.5]))]:
        g = sample_grid(seed, 5, 7)
        out = grid_shift_apply(f, g)
        bp = out.breakpoints
        assert np.diff(bp).min() >= g.r * 2.0 ** -g.k_fine / 4.0 * (1.0 - 1e-12)
        for m in 0.5 * (bp[:-1] + bp[1:]):
            assert out.evaluate(m) == shift_evaluate(f, g, m)
        for x in rng.uniform(-3.0, 3.0, size=50):
            direct = shift_evaluate(f, g, float(x))
            assert out.evaluate(float(x)) == pytest.approx(direct, abs=1e-10)


def test_window_overflow():
    g = sample_grid(1, 2, 4)  # coarsest length ~4
    f = StepFunction1D.indicator(0.0, 10.0)
    with pytest.raises(WindowOverflowError):
        grid_shift_apply(f, g)


def test_grid_shift_linearity():
    g = sample_grid(13, 5, 6)
    f1 = StepFunction1D([0.0, 0.5, 1.0], [1.0, -2.0])
    f2 = StepFunction1D([0.25, 0.75], [3.0])
    combo = StepFunction1D(
        [0.0, 0.25, 0.5, 0.75, 1.0], [2.0, 2.0 + 1.5, -4.0 + 1.5, -4.0]
    )  # 2*f1 + 0.5*f2
    for x in [-0.9, 0.1, 0.6, 1.3, 2.2]:
        lhs = shift_evaluate(combo, g, x)
        rhs = 2.0 * shift_evaluate(f1, g, x) + 0.5 * shift_evaluate(f2, g, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _translate_grid(g, m):
    """The system translated by m fine steps (delta = r * m * 2^-k_fine):
    recover the translated shift bits from the reduced offsets."""
    delta0 = m * 2.0 ** -g.k_fine
    bits = []
    for idx in range(g.k_coarse + g.k_fine):
        i = idx - g.k_coarse + 1  # the bit couples levels i-1 and i
        xi = (g.level_shift(i) + delta0) % (2.0 ** -i)
        xprev = (g.level_shift(i - 1) + delta0) % (2.0 ** -(i - 1))
        step = (xprev - xi) % (2.0 ** -(i - 1))
        bits.append(int(round(step * 2.0 ** i)))
    return RandomDyadicGrid(g.k_coarse, g.k_fine, g.r, bits), g.r * delta0


def test_grid_shift_translation_covariance():
    """Translating f and the grid bits together commutes with the shift."""
    g = sample_grid(29, 5, 6)
    g2, delta = _translate_grid(g, 37)
    # the translated system's intervals are the originals moved by delta
    for x in [-0.7, 0.1, 0.9]:
        for j in [-2, 0, 3]:
            left, _ = g.interval_containing(x, j)
            left2, _ = g2.interval_containing(x + delta, j)
            assert left2 == pytest.approx(left + delta, abs=1e-12)
    f = StepFunction1D([0.0, 0.3, 1.0], [1.0, -0.7])
    moved = StepFunction1D(f.breakpoints + delta, f.values)
    for x in [-0.4, 0.2, 0.8, 1.6]:
        assert shift_evaluate(moved, g2, x + delta) == pytest.approx(
            shift_evaluate(f, g, x), abs=1e-11
        )


# ---------------------------------------------------------------------------
# analytic transform of step functions
# ---------------------------------------------------------------------------

def test_analytic_indicator():
    f = StepFunction1D.indicator(0.0, 1.0)
    assert analytic_hilbert_step(f, 2.0) == pytest.approx(math.log(2.0) / math.pi)
    assert analytic_hilbert_step(f, 0.25) == pytest.approx(
        -math.log(3.0) / math.pi
    )


def test_analytic_odd_symmetry():
    f = StepFunction1D.indicator(-1.0, 1.0)
    assert analytic_hilbert_step(f, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_analytic_linearity_and_jump_error():
    f = StepFunction1D([0.0, 1.0, 2.0], [1.0, 2.0])
    a = StepFunction1D.indicator(0.0, 1.0)
    b = StepFunction1D.indicator(1.0, 2.0, height=2.0)
    x = 3.7
    assert analytic_hilbert_step(f, x) == pytest.approx(
        analytic_hilbert_step(a, x) + analytic_hilbert_step(b, x)
    )
    with pytest.raises(EvaluationAtJumpError):
        analytic_hilbert_step(f, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_analytic_hilbert_step_rejects_non_finite_points(x):
    with pytest.raises(ValidationError, match="evaluation points must be finite"):
        analytic_hilbert_step(StepFunction1D([0.0, 1.0], [1.0]), x)


# ---------------------------------------------------------------------------
# Monte-Carlo averaging
# ---------------------------------------------------------------------------

def test_mc_zero_function():
    out = mc_hilbert(StepFunction1D.zero(), [2.0, -3.0], 16, 0, k_coarse=4, k_fine=4)
    for est, err in out:
        assert est == 0.0 and err == 0.0


def test_mc_rejects_breakpoints():
    f = StepFunction1D.indicator(0.0, 1.0)
    with pytest.raises(EvaluationAtJumpError):
        mc_hilbert(f, [1.0], 16, 0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_mc_and_shift_evaluate_reject_non_finite_points(x):
    f = StepFunction1D.indicator(0.0, 1.0)
    with pytest.raises(ValidationError):
        mc_hilbert(f, [2.0, x], 16, 0, k_coarse=4, k_fine=4)
    with pytest.raises(ValidationError):
        shift_evaluate(f, standard_grid(4, 4), x)


def test_mc_deterministic_in_seed():
    f = StepFunction1D.indicator(0.0, 1.0)
    a = mc_hilbert(f, [2.0], 64, 9, k_coarse=6, k_fine=6)
    b = mc_hilbert(f, [2.0], 64, 9, k_coarse=6, k_fine=6)
    assert a == b


def test_mc_matches_analytic_oracle_quick():
    f = StepFunction1D.indicator(0.0, 1.0)
    (est, err), = mc_hilbert(f, [2.0], 400, 11, k_coarse=10, k_fine=10)
    oracle = analytic_hilbert_step(f, 2.0)
    assert abs(est - oracle) <= 3.0 * err + 0.01
    assert err < 0.12


def test_mc_truncation_budget_shrinks():
    """Coupled draws across nested level windows [-k, k]: the windows share
    bits and dilation, so estimates differ exactly by the extra levels, and
    the added mass shrinks four-fold per two-level step."""
    f = StepFunction1D.indicator(0.0, 1.0)
    oracle = analytic_hilbert_step(f, 2.0)
    x = 2.0
    n = 400
    children = np.random.SeedSequence(33).spawn(n)
    sums = {8: 0.0, 10: 0.0, 12: 0.0}
    for child in children:
        rng = np.random.default_rng(child)
        # draw one grid at the widest window, then restrict by slicing bits
        bits = rng.integers(0, 2, size=24)
        r = float(2.0 ** rng.random())
        for k in (8, 10, 12):
            g = RandomDyadicGrid(k, 12, r, bits[12 - k:])
            sums[k] += shift_evaluate(f, g, x)
    ests = {k: AVERAGING_FACTOR * LN2 * s / n for k, s in sums.items()}
    d_coarse = abs(ests[10] - ests[8])
    d_fine = abs(ests[12] - ests[10])
    # per-draw tail bound: sum over added levels of sqrt(2)/length
    assert d_fine <= 2e-3
    assert d_coarse <= 1.1e-2
    for k in (8, 10, 12):
        assert abs(ests[k] - oracle) <= 0.1  # coupled runs stay near the oracle


def _scalar_shift_evaluate(f, g, x):
    """Reference (S f)(x): one level at a time, one grid and one point."""
    bp = f.breakpoints
    total = 0.0
    for j in g.levels():
        left, length = g.interval_containing(x, j)
        right = left + length
        if np.searchsorted(bp, right, side="left") <= np.searchsorted(bp, left, side="right"):
            continue
        coef = (f.cdf(right) - 2.0 * f.cdf(left + length / 2.0) + f.cdf(left)) / math.sqrt(
            right - left)
        if coef == 0.0:
            continue
        pos = (x - left) / length
        sign = 1.0 if (pos < 0.25 or pos >= 0.75) else -1.0
        total += coef * sign * math.sqrt(2.0 / length)
    return total


@pytest.mark.parametrize("k", [(4, 4), (6, 6), (12, 12), (1, 52), (30, 23)])
def test_mc_and_shift_evaluate_match_scalar_reference(k):
    """The one-pass average equals the per-grid, per-point loop bit for bit,
    on the grids of ``sample_grid`` over the spawned seed sequence, up to
    the extremes of the 53-level window."""
    f = StepFunction1D([-0.75, 0.1, 0.4, 1.2], [0.7, -1.1, 2.0])
    xs = [-5.0, -0.75 - 1e-9, 0.1 + 1e-12, 0.25, 0.4 - 2e-10, 1.2 + 1e-9, 3.5, 9.0]
    seed, n = 2024, 40
    grids = [sample_grid(child, *k) for child in np.random.SeedSequence(seed).spawn(n)]
    samples = np.array([[_scalar_shift_evaluate(f, g, x) for x in xs] for g in grids])
    for g, row in zip(grids, samples):
        assert [shift_evaluate(f, g, x) for x in xs] == row.tolist()
    scaled = AVERAGING_FACTOR * LN2 * samples
    expect = list(zip(scaled.mean(axis=0).tolist(),
                      (scaled.std(axis=0, ddof=1) / math.sqrt(n)).tolist()))
    assert mc_hilbert(f, xs, n, seed, k_coarse=k[0], k_fine=k[1]) == expect


def test_intervals_below_the_float_spacing_add_zero_without_a_warning():
    """At the top of the 53-level window the finest intervals at |x| >= 1
    are shorter than the float spacing at their ends (right == left): their
    coefficient is +0.0, with no 0/0."""
    f = StepFunction1D([-0.75, 0.1, 0.4, 1.2], [0.7, -1.1, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef = f.haar_coefficient(np.array([9.0]), np.array([9.0]), np.array([9.0]))
        assert coef.tolist() == [0.0] and math.copysign(1.0, coef[0]) == 1.0
        mc_hilbert(f, [-5.0, 9.0], 40, 2024, k_coarse=1, k_fine=52)


def test_mc_sample_blocks_do_not_change_the_result(monkeypatch):
    """Samples split into uneven blocks (7 samples of 25 levels x 8 points,
    then 5) give the unsplit result bit for bit."""
    f = StepFunction1D([-0.75, 0.1, 0.4, 1.2], [0.7, -1.1, 2.0])
    xs = [-5.0, -0.7, 0.15, 0.25, 0.39, 1.3, 3.5, 9.0]
    whole = mc_hilbert(f, xs, 40, 2024)
    monkeypatch.setattr(hilbert, "_BLOCK_ELEMENTS", 7 * 25 * 8 + 13)
    assert mc_hilbert(f, xs, 40, 2024) == whole


def _edge_breakpoints(k_coarse):
    """Breakpoints at 0, about 1, about 1e3 and just inside the window's
    radius 2^k_coarse, those the window holds."""
    radius = 2.0 ** k_coarse
    return [b for b in (-1.0, 0.0, 1.0 + 2.0 ** -30, 1e3 + 1.0 / 3.0, radius * (1.0 - 2.0 ** -20))
            if abs(b) <= radius]


def _edge_points(bp, k_coarse, k_fine):
    """Points 1, 2, 4, ..., 64 ulps from each breakpoint (a subnormal distance
    from 0), and 2^(1-j) (1 - ulp), 2^(1-j) and 2^(1-j) (1 + 2 ulp) from it."""
    xs = []
    for b in bp:
        for k in 2 ** np.arange(7):
            xs += [b + k * np.spacing(b), b - k * np.spacing(b)]
        for j in range(-k_coarse, k_fine + 1):
            for d in np.ldexp(1.0, 1 - j) * np.array([1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -51]):
                xs += [b + d, b - d]
    return [x for x in xs if x not in bp]


def _edge_grids(k_coarse, k_fine, n=5):
    """Shift bits and dilations of n sampled grids and of one with r the float below 2."""
    bits, r = hilbert._draw_grids(hilbert._child_pools(np.random.SeedSequence(99), 0, n),
                                  k_coarse, k_fine)
    bits = np.vstack((bits, np.random.default_rng(7).integers(0, 2, k_coarse + k_fine)))
    return bits, np.vstack((r, [[np.nextafter(2.0, 0.0)]]))


@pytest.mark.parametrize("k", [(1, 52), (30, 23), (12, 12), (4, 4)])
def test_level_skipping_kernel_matches_the_reference_bytes(k):
    """The kernel that skips the levels past reach gives the every-level
    reference byte for byte: points some ulps from a breakpoint at 0 (a
    subnormal distance), about 1, 1e3 and 2^k_coarse, points 2^(1-j) (1 +- ulp)
    away, points past every level and no points; on the step-function shift too."""
    bp = _edge_breakpoints(k[0])
    f = StepFunction1D(bp, np.arange(1.0, len(bp)) * (-1.5) ** np.arange(len(bp) - 1))
    bits, r = _edge_grids(*k)
    offsets = hilbert._level_offsets(bits, *k)
    xs = _edge_points(bp, *k)
    far = [2.0 ** (k[0] + 3) + 0.5, -3.0 * 2.0 ** (k[0] + 2)]
    # beside a point 1 ulp from -1, points whose finest intervals overflow the reference
    overflowing = xs[:1] + [1e308, -1e308]
    for block in [[x] for x in xs] + [xs[:40], far, far[:1] + xs[-1:], overflowing, []]:
        got = hilbert._shift_sums(f, k[0], r, offsets, block)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_shift_sums(f, k[0], r, offsets, block)
        assert got.tobytes() == ref.tobytes()
        assert got.shape == (len(r), len(block))
    for ri, row in zip(r[:, 0], bits):
        g = RandomDyadicGrid(k[0], k[1], ri, row)
        got, ref = grid_shift_apply(f, g), reference_grid_shift_apply(f, g)
        assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
        assert got.values.tobytes() == ref.values.tobytes()


def test_level_skipping_keeps_the_rounding_margin():
    """A breakpoint exactly 2^(1-j) = 512 (j = -8) from x at |x| ~ 760 lies
    strictly inside the computed level-j interval when r is the float below 2:
    the interval's rounded ends reach past x.  Skipping every level with
    2^(1-j) <= d, with no margin, would drop that level's term."""
    x, b = -760.63232421875, -248.63232421874997
    assert b - x == 512.0
    g = RandomDyadicGrid(12, 12, np.nextafter(2.0, 0.0),
                         [int(c) for c in np.binary_repr(14170865, width=24)])
    left, length = g.interval_containing(x, -8)
    assert left < b < left + length
    f = StepFunction1D([b, b + 1.0], [1.0])
    ref = reference_shift_sums(f, 12, g.r, g.offsets[None], [x])
    assert shift_evaluate(f, g, x) == ref[0, 0]


def test_a_far_point_beside_a_near_point_meets_no_fine_level():
    """A point 1e-9 from a breakpoint keeps all 35 levels for its block; the
    far point beside it is masked at the levels past its own reach, so its
    intervals are never located at 2^-30, where they would overflow."""
    f = StepFunction1D([0.0, 0.3, 1.0], [1.0, -2.0])
    near = 0.3 + 1e-9
    pairs = mc_hilbert(f, [near, 1e300], 4, 0, k_coarse=4, k_fine=30)
    assert pairs[0] == mc_hilbert(f, [near], 4, 0, k_coarse=4, k_fine=30)[0]
    assert pairs[1] == (0.0, 0.0)


def test_bench_like_item_skips_the_far_levels(monkeypatch):
    """On a bench-like item (points at least 0.05 from the breakpoints of a
    step function on [0, 1], levels (12, 12)) the kernel locates intervals on
    at most 19 of the 25 levels."""
    counts = []

    def counting_left_ends(x, r, shift, base, step=0.0):
        counts.append(np.shape(shift)[0])
        return left_ends(x, r, shift, base, step)

    left_ends = hilbert._left_ends
    monkeypatch.setattr(hilbert, "_left_ends", counting_left_ends)
    f = StepFunction1D([0.0, 0.21, 0.48, 0.8, 1.0], [0.3, -1.2, 0.8, 2.0])
    mc_hilbert(f, [-0.3, 0.35, 1.42], 128, 5)
    assert counts and max(counts) <= 19


def test_seeded_sampled_outputs_are_pinned():
    """Pinned seeded outputs: a change in how the grids are drawn from the
    seed (stream per sample, draw order) moves them.  mc_hilbert does no
    matrix products and is compared exactly."""
    pairs = mc_hilbert(StepFunction1D.indicator(0, 1), [2.0, -0.5], 64, 9,
                       k_coarse=6, k_fine=6)
    assert pairs == [(0.15336484837856001, 0.05433697432993126),
                     (-0.19875218437964604, 0.07283469889740851)]
