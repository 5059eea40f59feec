"""Haar analysis, projections, rectangle means: exact identities."""

import numpy as np
import pytest

from prodbmo import hilbert, linop, norms
from prodbmo.core import (
    _axis_pattern,
    _basis_order,
    _interval_cells,
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    PrefixTable,
    ProjectionSelector,
    apply_projection,
    conditional_expectation_grid,
    dyadic_rect_mean,
    haar_forward_2d,
    haar_inverse_2d,
    level_of_basis_index,
    rect_mean,
    square_function,
)
from prodbmo.errors import DegenerateRectangleError, ValidationError

RNG = np.random.default_rng(42)

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def random_grid(depth, rng=RNG):
    j1, j2 = depth
    return GridFunction2D(depth, rng.standard_normal((1 << j1, 1 << j2)))


# ---------------------------------------------------------------------------
# dyadic combinatorics
# ---------------------------------------------------------------------------

def test_interval_children_and_parent():
    i = DyadicInterval(2, 1)  # [1/4, 1/2)
    assert i.length == 0.25 and i.left == 0.25
    assert i.half_minus() == DyadicInterval(3, 2)
    assert i.half_plus() == DyadicInterval(3, 3)
    assert i.half_plus().parent() == i
    assert i.half_minus().parent() == i
    with pytest.raises(ValidationError):
        DyadicInterval(0, 0).parent()
    with pytest.raises(ValidationError):
        DyadicInterval(1, 2)


def test_bool_depth_is_refused():
    """bool is an int, but True is no level count."""
    for depth in ((True, 2), (2, False), (np.True_, 2)):
        with pytest.raises(ValidationError, match="two integers"):
            GridFunction2D(depth, np.zeros((2, 4)))


def test_bool_and_non_integer_interval_values_are_refused():
    """True builds no level-1 interval and 1.0 no index: both are refused like
    1.5, with ValidationError; numpy integers stay accepted."""
    for call in (lambda: DyadicInterval(True, 1), lambda: DyadicInterval(2, 1.0),
                 lambda: DyadicInterval(1.5, 0), lambda: DyadicInterval(np.True_, 0),
                 lambda: DyadicRect.from_levels(True, 0, 1, 1)):
        with pytest.raises(ValidationError, match="must be integers"):
            call()
    assert DyadicInterval(np.int64(2), np.int32(1)) == DyadicInterval(2, 1)


def test_interval_halves_orientation():
    # the + half is the right half
    i = DyadicInterval(0, 0)
    assert i.half_plus().left == 0.5
    assert i.half_minus().left == 0.0


def test_interval_basis_index_roundtrip():
    for level in range(4):
        for idx in range(1 << level):
            i = DyadicInterval(level, idx)
            assert DyadicInterval.from_basis_index(i.basis_index) == i


def test_interval_containment():
    i = DyadicInterval(1, 0)
    assert i.contains(DyadicInterval(2, 1))
    assert not i.contains(DyadicInterval(2, 2))
    assert not i.contains(DyadicInterval(0, 0))


def test_rect_area():
    r = DyadicRect.from_levels(1, 0, 2, 3)
    assert r.area == 2.0 ** -3
    assert r.generation == (1, 2)


def test_cached_layout_tables_are_read_only():
    """Every caller shares the cached tables, so none may write into them: core's
    per-axis tables, the LMO searches' tables, the assembly probe and the PCG map."""
    scale, t_mask, starts = norms._depth_tables((8, 4))
    tables = [level_of_basis_index(8), _interval_cells(8), *_basis_order((2, 3)),
              *_axis_pattern(8, 1, 0), *_axis_pattern(8, 2, 1), scale, t_mask, *starts,
              *norms._char_candidates((8, 4), (0, 0)), *norms._char_candidates((8, 4), (1, 0)),
              *linop._probe((2, 1), "grid"), *linop._probe((1, 2), "spectrum"),
              *hilbert._pcg_states_map(3)]
    assert len(tables) == 28
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0
    assert level_of_basis_index(8).tolist() == [-1, 0, 1, 1, 2, 2, 2, 2]


# ---------------------------------------------------------------------------
# forward / inverse transform
# ---------------------------------------------------------------------------

def test_forward_constant():
    f = GridFunction2D.constant((1, 1), 1.0)
    c = haar_forward_2d(f)
    assert c.cc == 1.0
    rest = c.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.all(rest == 0.0)


def test_forward_product_haar():
    f = GridFunction2D((1, 1), [[1.0, -1.0], [-1.0, 1.0]])
    c = haar_forward_2d(f)
    assert c.hh_coef(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-15)
    assert abs(c.cc) < 1e-15
    assert c.total_energy() == pytest.approx(1.0, rel=1e-14)


def test_forward_one_dimensional_slice():
    # f(s,t) = 3 for s < 1/2, 1 for s >= 1/2:  integral 2, and against the
    # right-positive Haar function the slice coefficient is -1
    f = GridFunction2D((1, 1), [[3.0, 3.0], [1.0, 1.0]])
    c = haar_forward_2d(f)
    assert c.cc == pytest.approx(2.0, abs=1e-15)
    assert c.hc_coef(DyadicInterval(0, 0)) == pytest.approx(-1.0, abs=1e-15)
    assert c.ch_coef(DyadicInterval(0, 0)) == pytest.approx(0.0, abs=1e-15)
    assert np.all(c.hh_block() == 0.0)


def test_inverse_single_rectangle():
    c = HaarSpectrum2D.zeros((1, 1)).with_hh_coef(UNIT_SQUARE, 1.0)
    g = haar_inverse_2d(c)
    assert np.allclose(g.values, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_inverse_constant():
    c = HaarSpectrum2D.zeros((2, 2))
    c.coeffs[0, 0] = 5.0
    g = haar_inverse_2d(c)
    assert np.allclose(g.values, 5.0)


def test_roundtrip_random_spectrum():
    rng = np.random.default_rng(1)
    c = HaarSpectrum2D((2, 2), rng.standard_normal((4, 4)))
    back = haar_forward_2d(haar_inverse_2d(c))
    assert np.abs(back.coeffs - c.coeffs).max() < 1e-12


def test_parseval_many_depths():
    rng = np.random.default_rng(7)
    for depth in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        for _ in range(20):
            f = random_grid(depth, rng)
            c = haar_forward_2d(f)
            assert c.total_energy() == pytest.approx(f.norm_l2_sq(), rel=1e-12)
            back = haar_inverse_2d(c)
            assert np.abs(back.values - f.values).max() < 1e-12


# ---------------------------------------------------------------------------
# prefix table means
# ---------------------------------------------------------------------------

def test_rect_mean_small():
    f = GridFunction2D((1, 1), [[1.0, 2.0], [3.0, 4.0]])
    p = PrefixTable(f)
    assert rect_mean(p, (0, 2), (0, 2)) == pytest.approx(2.5)
    # left column in s: rows {0}
    assert rect_mean(p, (0, 1), (0, 2)) == pytest.approx(1.5)


def test_rect_mean_degenerate():
    p = PrefixTable(GridFunction2D.constant((1, 1), 1.0))
    with pytest.raises(DegenerateRectangleError):
        rect_mean(p, (1, 1), (0, 2))


def test_rect_mean_against_naive():
    rng = np.random.default_rng(3)
    f = random_grid((3, 3), rng)
    p = PrefixTable(f)
    for _ in range(1000):
        s = sorted(rng.integers(0, 9, size=2).tolist())
        t = sorted(rng.integers(0, 9, size=2).tolist())
        if s[0] == s[1] or t[0] == t[1]:
            continue
        naive = f.values[s[0]:s[1], t[0]:t[1]].mean()
        assert rect_mean(p, tuple(s), tuple(t)) == pytest.approx(naive, abs=1e-13)


def test_dyadic_rect_mean():
    f = GridFunction2D((2, 2), np.arange(16, dtype=float).reshape(4, 4))
    p = PrefixTable(f)
    r = DyadicRect.from_levels(1, 1, 0, 0)  # s in [1/2,1), all t
    assert dyadic_rect_mean(p, r) == pytest.approx(f.values[2:4, :].mean())


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_expectation_zero_generation():
    c = HaarSpectrum2D((2, 2), RNG.standard_normal((4, 4)))
    out = apply_projection(c, ProjectionSelector.expectation(0, 0))
    assert np.all(out.coeffs == 0.0)


def test_tail_kills_coarse_coefficient():
    c = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(UNIT_SQUARE, 1.0)
    out = apply_projection(c, ProjectionSelector.tail(1, 1))
    assert np.all(out.coeffs == 0.0)


def test_projections_zero_non_hh():
    c = HaarSpectrum2D((2, 2), np.ones((4, 4)))
    out = apply_projection(c, ProjectionSelector.tail(0, 0))
    assert np.all(out.coeffs[0, :] == 0.0)
    assert np.all(out.coeffs[:, 0] == 0.0)
    assert np.all(out.hh_block() == 1.0)


def test_four_way_splitting_identity():
    """E_k + E1 Q2 + Q1 E2 + Q_k reproduces the hh block for every k."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = HaarSpectrum2D((3, 3), rng.standard_normal((8, 8)))
        hh = c.hh_only().coeffs
        for k1 in range(4):
            for k2 in range(4):
                parts = (
                    apply_projection(c, ProjectionSelector.expectation(k1, k2)).coeffs
                    + apply_projection(
                        apply_projection(c, ProjectionSelector.e1(k1)),
                        ProjectionSelector.q2(k2),
                    ).coeffs
                    + apply_projection(
                        apply_projection(c, ProjectionSelector.q1(k1)),
                        ProjectionSelector.e2(k2),
                    ).coeffs
                    + apply_projection(c, ProjectionSelector.tail(k1, k2)).coeffs
                )
                assert np.abs(parts - hh).max() <= 1e-14


def test_projection_idempotence_and_orthogonality():
    rng = np.random.default_rng(13)
    c = HaarSpectrum2D((3, 3), rng.standard_normal((8, 8)))
    e = ProjectionSelector.expectation(2, 1)
    once = apply_projection(c, e)
    twice = apply_projection(once, e)
    assert np.all(once.coeffs == twice.coeffs)
    d1 = apply_projection(c, ProjectionSelector.difference(1, 1))
    d2 = apply_projection(d1, ProjectionSelector.difference(2, 1))
    assert np.all(d2.coeffs == 0.0)


def test_band_projections():
    rng = np.random.default_rng(17)
    c = HaarSpectrum2D((4, 4), rng.standard_normal((16, 16)))
    # band (N,K) = (1,0): levels j1 in [1,2], j2 in [0,0]
    out = apply_projection(c, ProjectionSelector.band(1, 0))
    for j1 in range(4):
        for j2 in range(4):
            block = out.coeffs[(1 << j1):(2 << j1), (1 << j2):(2 << j2)]
            expect = 1 <= j1 <= 2 and j2 == 0
            assert block.any() == expect
    # tail band keeps exactly the quadrant above the band corner
    tb = apply_projection(c, ProjectionSelector.tail_band(1, 1))
    for j1 in range(4):
        for j2 in range(4):
            block = tb.coeffs[(1 << j1):(2 << j1), (1 << j2):(2 << j2)]
            assert block.any() == (j1 >= 1 and j2 >= 1)


def _selector_cases(depth):
    """(selector, rule) for every constructor over arguments -1..depth+1
    (0..depth+1 for the bands); rule(l1, l2) says whether the generation
    (l1, l2) is kept, written from the constructor docstrings."""
    j1d, j2d = depth
    cases = []
    for a in range(-1, j1d + 2):
        cases += [
            (ProjectionSelector.e1(a), lambda l1, l2, a=a: l1 < a),
            (ProjectionSelector.q1(a), lambda l1, l2, a=a: l1 >= a),
        ]
        for b in range(-1, j2d + 2):
            cases += [
                (ProjectionSelector.expectation(a, b),
                 lambda l1, l2, a=a, b=b: l1 < a and l2 < b),
                (ProjectionSelector.tail(a, b),
                 lambda l1, l2, a=a, b=b: l1 >= a and l2 >= b),
                (ProjectionSelector.difference(a, b),
                 lambda l1, l2, a=a, b=b: l1 == a and l2 == b),
            ]
            if a >= 0 and b >= 0:
                cases += [
                    (ProjectionSelector.band(a, b),
                     lambda l1, l2, a=a, b=b: 2 ** a - 1 <= l1 <= 2 ** (a + 1) - 2
                     and 2 ** b - 1 <= l2 <= 2 ** (b + 1) - 2),
                    (ProjectionSelector.tail_band(a, b),
                     lambda l1, l2, a=a, b=b: l1 >= 2 ** a - 1 and l2 >= 2 ** b - 1),
                ]
    for b in range(-1, j2d + 2):
        cases += [
            (ProjectionSelector.e2(b), lambda l1, l2, b=b: l2 < b),
            (ProjectionSelector.q2(b), lambda l1, l2, b=b: l2 >= b),
        ]
    return cases


@pytest.mark.parametrize("depth", [(3, 2), (1, 4)])
def test_selectors_keep_exactly_their_generations(depth):
    """Every selector keeps the hh entries of the generations its docstring
    names, unchanged, and zeroes everything else (the cc/hc/ch blocks too)."""
    n1, n2 = 1 << depth[0], 1 << depth[1]
    c = HaarSpectrum2D(depth, 1.0 + np.arange(n1 * n2, dtype=float).reshape(n1, n2))
    for sel, rule in _selector_cases(depth):
        out = apply_projection(c, sel).coeffs
        for b1 in range(n1):
            for b2 in range(n2):
                kept = b1 >= 1 and b2 >= 1 and rule(
                    b1.bit_length() - 1, b2.bit_length() - 1
                )
                assert out[b1, b2] == (c.coeffs[b1, b2] if kept else 0.0), (sel, b1, b2)


@pytest.mark.parametrize("depth", [(1, 1), (2, 4), (4, 3), (3, 3), (5, 5)])
def test_open_set_selector_matches_containment_loop(depth):
    rng = np.random.default_rng(23)
    n1, n2 = 1 << depth[0], 1 << depth[1]
    c = HaarSpectrum2D(depth, 1.0 + np.arange(n1 * n2, dtype=float).reshape(n1, n2))
    for p in (0.5, 0.8, 0.9, 0.95, 1.0):
        for _ in range(4):
            mask = rng.random((n1, n2)) < p
            out = apply_projection(c, ProjectionSelector.open_set(mask)).coeffs
            expect = np.zeros((n1, n2))
            for j1 in range(depth[0]):
                for i1 in range(1 << j1):
                    for j2 in range(depth[1]):
                        for i2 in range(1 << j2):
                            w1, w2 = n1 >> j1, n2 >> j2
                            cells = mask[i1 * w1:(i1 + 1) * w1, i2 * w2:(i2 + 1) * w2]
                            b1, b2 = (1 << j1) + i1, (1 << j2) + i2
                            if cells.all():
                                expect[b1, b2] = c.coeffs[b1, b2]
            assert np.array_equal(out, expect)


def test_open_set_projection_contraction():
    rng = np.random.default_rng(19)
    c = HaarSpectrum2D((2, 2), rng.standard_normal((4, 4)))
    mask = rng.random((4, 4)) < 0.5
    out = apply_projection(c, ProjectionSelector.open_set(mask))
    assert out.total_energy() <= c.hh_energy() + 1e-15
    # full mask keeps the whole hh block
    full = apply_projection(c, ProjectionSelector.open_set(np.ones((4, 4), bool)))
    assert np.all(full.coeffs == c.hh_only().coeffs)


def test_open_set_projection_containment_rule():
    c = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(
        DyadicRect.from_levels(1, 0, 1, 0), 1.0
    )
    mask = np.zeros((4, 4), bool)
    mask[:2, :2] = True  # exactly [0,1/2) x [0,1/2)
    kept = apply_projection(c, ProjectionSelector.open_set(mask))
    assert kept.hh_coef(DyadicRect.from_levels(1, 0, 1, 0)) == 1.0
    mask[0, 0] = False  # remove one cell: rectangle no longer inside
    dropped = apply_projection(c, ProjectionSelector.open_set(mask))
    assert np.all(dropped.coeffs == 0.0)


# ---------------------------------------------------------------------------
# square function
# ---------------------------------------------------------------------------

def test_square_function_of_unit_haar():
    c = HaarSpectrum2D.zeros((1, 1)).with_hh_coef(UNIT_SQUARE, 1.0)
    s = square_function(c)
    assert np.allclose(s.values, 1.0)


def test_square_function_zero():
    s = square_function(HaarSpectrum2D.zeros((2, 2)))
    assert np.all(s.values == 0.0)


def test_square_function_parseval():
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = HaarSpectrum2D((2, 2), rng.standard_normal((4, 4)))
        s = square_function(c)
        assert GridFunction2D(s.depth, s.values ** 2).integral() == pytest.approx(
            c.hh_energy(), rel=1e-12
        )


def test_conditional_expectation_grid():
    rng = np.random.default_rng(29)
    f = random_grid((2, 2), rng)
    e = conditional_expectation_grid(f, 1, 1)
    # constant on 2x2 blocks, with the block means
    assert e.values[0, 0] == pytest.approx(f.values[:2, :2].mean())
    assert np.all(e.values[:2, :2] == e.values[0, 0])
    assert conditional_expectation_grid(f, 5, 5).values == pytest.approx(f.values)
