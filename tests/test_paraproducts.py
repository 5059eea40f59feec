"""Paraproducts, coefficient rearrangements, and the nine-block splitting."""

import numpy as np
import pytest

from helpers import (
    all_hh_rects,
    grid_inner,
    haar_rect_grid,
    haar_values_1d,
    indicator_values_1d,
    random_grid,
    random_hh_grid,
    random_hh_spectrum,
    random_spectrum,
    reference_bilinear,
    reference_generation_sum,
)
from prodbmo.core import (
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
    _unit_scaled,
    square_function,
)
from prodbmo.errors import DepthMismatchError, UnsupportedSignatureError, ValidationError
from prodbmo.paraproducts import (
    _AXIS_FACTORS,
    ALL_NINE_TAGS,
    COARSER,
    DELTA,
    EQUAL,
    FINER,
    PI,
    PI_01,
    PI_10,
    NINE_PART_NAMES,
    NinePartTag,
    nine_part_apply,
    nine_part_sum,
    paraproduct,
    sigma1_k,
    sigma_k,
    signature_by_name,
)

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def unit_haar_spectrum(depth):
    return HaarSpectrum2D.zeros(depth).with_hh_coef(UNIT_SQUARE, 1.0)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

CORNERS = (PI, DELTA, PI_01, PI_10)


def factor_kinds(tag):
    """((phi kinds), (f kinds), (output kinds)) of a block, one entry per axis."""
    return tuple(zip(_AXIS_FACTORS[tag.s_relation], _AXIS_FACTORS[tag.t_relation]))


@pytest.mark.parametrize("name,tag", [
    ("pi", PI), ("PI", PI), ("delta", DELTA), ("Delta", DELTA), ("pi01", PI_01),
    ("PI_01", PI_01), ("pi10", PI_10), ("pi-10", PI_10), ("P.I. 10", PI_10),
])
def test_signature_by_name_reads_the_corner_names_in_any_case(name, tag):
    assert signature_by_name(name) == tag


@pytest.mark.parametrize("name", ["rr", "pi_r", "delta_r", "r_pi", "r_delta", "bogus", "",
                                  "pi00", "sigma"])
def test_signature_by_name_refuses_the_other_blocks_and_junk(name):
    with pytest.raises(UnsupportedSignatureError):
        signature_by_name(name)


@pytest.mark.parametrize("tag", [t for t in ALL_NINE_TAGS if t not in CORNERS],
                         ids=lambda t: NINE_PART_NAMES[t])
def test_paraproduct_refuses_a_block_with_an_equal_axis(tag):
    phi = unit_haar_spectrum((1, 1))
    with pytest.raises(UnsupportedSignatureError):
        paraproduct(tag, phi, GridFunction2D.constant((1, 1), 1.0))


def test_nine_part_tag_refuses_an_unknown_relation():
    with pytest.raises(UnsupportedSignatureError) as err:
        NinePartTag("finer", "sideways")
    assert isinstance(err.value, ValidationError)


# ---------------------------------------------------------------------------
# the four named paraproducts
# ---------------------------------------------------------------------------

def test_pi_on_constant_returns_symbol():
    phi = unit_haar_spectrum((1, 1))
    f = GridFunction2D.constant((1, 1), 1.0)
    out = paraproduct(PI, phi, f)
    assert np.allclose(out.values, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_delta_on_matching_haar_is_constant():
    phi = unit_haar_spectrum((1, 1))
    f = haar_inverse_2d(phi)
    out = paraproduct(DELTA, phi, f)
    assert np.allclose(out.values, 1.0, atol=1e-14)


def test_pi01_mixed_example():
    # symbol h_(unit square), argument 1 (x) h_[0,1): output h (x) 1
    phi = unit_haar_spectrum((1, 1))
    f_coeffs = HaarSpectrum2D.zeros((1, 1))
    f_coeffs.coeffs[0, 1] = 1.0
    f = haar_inverse_2d(f_coeffs)
    out = paraproduct(PI_01, phi, f)
    expect = np.outer(haar_values_1d(DyadicInterval(0, 0), 2), np.ones(2))
    assert np.allclose(out.values, expect, atol=1e-14)


def test_depth_mismatch_rejected():
    phi = unit_haar_spectrum((1, 1))
    f = GridFunction2D.constant((2, 2), 1.0)
    with pytest.raises(DepthMismatchError):
        paraproduct(PI, phi, f)


def naive_paraproduct(sig, phi, f):
    """Direct evaluation of the defining sum, rectangle by rectangle."""
    _, f_kind, out_kind = factor_kinds(sig)
    depth = f.depth
    n1, n2 = f.values.shape
    pt = PrefixTable(f)
    t_haar = {}  # f_J(s) per interval J as cell arrays
    s_haar = {}
    out = np.zeros((n1, n2))
    cell_w1, cell_w2 = 1.0 / n1, 1.0 / n2
    for rect in all_hh_rects(depth):
        w = phi.hh_coef(rect)
        if w == 0.0:
            continue
        i_int, j_int = rect.s_interval, rect.t_interval
        if f_kind == (1, 1):
            inner = dyadic_rect_mean(pt, rect)
        elif f_kind == (0, 0):
            hr = haar_rect_grid(rect, depth)
            inner = grid_inner(f, hr)
        elif f_kind == (1, 0):
            # m_I(f_J): t-Haar coefficient per s-cell, then mean over I
            hj = haar_values_1d(j_int, n2)
            f_j = f.values @ hj * cell_w2
            w1 = n1 >> i_int.level
            inner = f_j[i_int.index * w1:(i_int.index + 1) * w1].mean()
        else:
            hi = haar_values_1d(i_int, n1)
            f_i = f.values.T @ hi * cell_w1
            w2 = n2 >> j_int.level
            inner = f_i[j_int.index * w2:(j_int.index + 1) * w2].mean()
        s_fac = (
            haar_values_1d(i_int, n1)
            if out_kind[0] == 0
            else indicator_values_1d(i_int, n1)
        )
        t_fac = (
            haar_values_1d(j_int, n2)
            if out_kind[1] == 0
            else indicator_values_1d(j_int, n2)
        )
        out += w * inner * np.outer(s_fac, t_fac)
    return out


@pytest.mark.parametrize("sig", [PI, DELTA, PI_01, PI_10])
def test_paraproducts_match_naive_sum(sig):
    rng = np.random.default_rng(5)
    for depth in [(2, 2), (2, 3)]:
        phi = random_hh_spectrum(depth, rng)
        f = random_grid(depth, rng)
        fast = paraproduct(sig, phi, f)
        slow = naive_paraproduct(sig, phi, f)
        assert np.abs(fast.values - slow).max() < 1e-11


def test_paraproduct_bilinearity():
    rng = np.random.default_rng(31)
    depth = (2, 2)
    p1, p2 = random_hh_spectrum(depth, rng), random_hh_spectrum(depth, rng)
    f1, f2 = random_grid(depth, rng), random_grid(depth, rng)
    for sig in (PI, DELTA, PI_01, PI_10):
        mixed_sym = HaarSpectrum2D(depth, 2.0 * p1.coeffs - 3.0 * p2.coeffs)
        lhs = paraproduct(sig, mixed_sym, f1).values
        rhs = 2.0 * paraproduct(sig, p1, f1).values - 3.0 * paraproduct(sig, p2, f1).values
        assert np.abs(lhs - rhs).max() < 1e-12
        mixed_arg = GridFunction2D(depth, 0.5 * f1.values + 4.0 * f2.values)
        lhs = paraproduct(sig, p1, mixed_arg).values
        rhs = 0.5 * paraproduct(sig, p1, f1).values + 4.0 * paraproduct(sig, p1, f2).values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_pi_delta_adjoint_relation():
    rng = np.random.default_rng(37)
    depth = (2, 2)
    phi = random_hh_spectrum(depth, rng)
    for _ in range(5):
        f = random_hh_grid(depth, rng)
        g = random_hh_grid(depth, rng)
        lhs = grid_inner(paraproduct(PI, phi, f), g)
        rhs = grid_inner(f, paraproduct(DELTA, phi, g))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# sigma rearrangements
# ---------------------------------------------------------------------------

def test_sigma_k_aggregates_to_corner():
    depth = (2, 2)
    r0 = DyadicRect.from_levels(1, 0, 1, 0)  # [0,1/2) x [0,1/2)
    b = HaarSpectrum2D.zeros(depth).with_hh_coef(r0, 1.0)
    out = sigma_k(b, (0, 0))
    expect = HaarSpectrum2D.zeros(depth).with_hh_coef(UNIT_SQUARE, 1.0)
    assert np.all(out.coeffs == expect.coeffs)


def test_sigma_k_boundary_identity():
    depth = (2, 2)
    r0 = DyadicRect.from_levels(1, 0, 1, 0)
    b = HaarSpectrum2D.zeros(depth).with_hh_coef(r0, 1.0)
    out = sigma_k(b, (1, 1))
    assert np.all(out.coeffs == b.coeffs)


def test_sigma_k_preserves_hh_mass_and_averages_square_function():
    rng = np.random.default_rng(41)
    depth = (3, 3)
    for _ in range(5):
        b = random_spectrum(depth, rng)
        s2_b = GridFunction2D(depth, square_function(b.hh_only()).values ** 2)
        for k1 in range(4):
            for k2 in range(4):
                sk = sigma_k(b, (k1, k2))
                assert sk.total_energy() == pytest.approx(b.hh_energy(), rel=1e-12)
                s2_sk = square_function(sk).values ** 2
                avg = conditional_expectation_grid(s2_b, k1, k2).values
                assert np.abs(s2_sk - avg).max() < 1e-12


def test_sigma1_moves_single_coefficient():
    depth = (2, 2)
    b = HaarSpectrum2D.zeros(depth).with_hh_coef(
        DyadicRect.from_levels(1, 1, 1, 0), 1.0
    )
    out = sigma1_k(b, 0)
    expect = HaarSpectrum2D.zeros(depth).with_hh_coef(
        DyadicRect.from_levels(0, 0, 1, 0), 1.0
    )
    assert np.all(out.coeffs == expect.coeffs)


def test_sigma1_identity_beyond_depth():
    rng = np.random.default_rng(43)
    b = random_spectrum((2, 2), rng)
    out = sigma1_k(b, 5)
    assert np.all(out.coeffs == b.hh_only().coeffs)


def test_sigma1_preserves_hh_mass():
    rng = np.random.default_rng(47)
    b = random_spectrum((3, 2), rng)
    for k in range(4):
        assert sigma1_k(b, k).total_energy() == pytest.approx(b.hh_energy(), rel=1e-12)


# ---------------------------------------------------------------------------
# nine-block splitting
# ---------------------------------------------------------------------------

def test_rr_block_zero_mean_symbol():
    phi = unit_haar_spectrum((1, 1))
    f = haar_inverse_2d(phi)
    out = nine_part_apply(NinePartTag(EQUAL, EQUAL), phi, f)
    assert np.abs(out.values).max() < 1e-14


@pytest.mark.parametrize("depth", [(2, 2), (2, 3), (3, 2)])
def test_equal_equal_block_is_diagonal_in_the_haar_basis(depth):
    """(equal, equal) realises sum_R f_R m_R(phi) h_R."""
    rng = np.random.default_rng(71)
    n1, n2 = 1 << depth[0], 1 << depth[1]
    for _ in range(3):
        phi = random_spectrum(depth, rng)
        f = random_grid(depth, rng)
        pt = PrefixTable(haar_inverse_2d(phi))
        f_spec = haar_forward_2d(f)
        direct = np.zeros((n1, n2))
        for rect in all_hh_rects(depth):
            direct += (
                f_spec.hh_coef(rect)
                * dyadic_rect_mean(pt, rect)
                * np.outer(haar_values_1d(rect.s_interval, n1),
                           haar_values_1d(rect.t_interval, n2))
            )
        out = nine_part_apply(NinePartTag(EQUAL, EQUAL), phi, f).values
        assert np.abs(out - direct).max() <= 1e-12


def test_pi_r_block_vanishes_on_unit_haar():
    phi = unit_haar_spectrum((1, 1))
    f = haar_inverse_2d(phi)
    out = nine_part_apply(NinePartTag(FINER, EQUAL), phi, f)
    assert np.abs(out.values).max() < 1e-14


@pytest.mark.parametrize("depth", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_nine_part_sum_is_pointwise_product(depth):
    rng = np.random.default_rng(53)
    for _ in range(5):
        phi = random_hh_spectrum(depth, rng)
        f = random_hh_grid(depth, rng)
        total = nine_part_sum(phi, f)
        product = haar_inverse_2d(phi).multiply(f)
        assert np.abs(total.values - product.values).max() < 1e-10


def test_nine_part_corner_blocks_are_the_named_paraproducts():
    rng = np.random.default_rng(59)
    depth = (2, 2)
    phi = random_hh_spectrum(depth, rng)
    f = random_grid(depth, rng)
    for tag, sig in [
        (NinePartTag(FINER, FINER), PI),
        (NinePartTag(COARSER, COARSER), DELTA),
        (NinePartTag(FINER, COARSER), PI_01),
        (NinePartTag(COARSER, FINER), PI_10),
    ]:
        assert np.abs(
            nine_part_apply(tag, phi, f).values - paraproduct(sig, phi, f).values
        ).max() < 1e-12


def _generation_sum_inputs(depth, leads, case, rng):
    """(phi, f) with leading axes leads = (phi's, f's): Gaussian, with the
    hh generation (J1 - 1, 0) of phi all zero, or with about half of the
    entries of each -0.0."""
    n1, n2 = 1 << depth[0], 1 << depth[1]
    c = rng.standard_normal(leads[0] + (n1, n2))
    v = rng.standard_normal(leads[1] + (n1, n2))
    if case == "zero generation":
        c[..., n1 >> 1:, 1:2] = 0.0
    if case == "negative zero":
        c[rng.random(c.shape) < 0.5] = -0.0
        v[rng.random(v.shape) < 0.5] = -0.0
    return HaarSpectrum2D(depth, c), GridFunction2D(depth, v)


@pytest.mark.parametrize("case", ["gaussian", "zero generation", "negative zero"])
@pytest.mark.parametrize("leads", [((), ()), ((), (3,)), ((2, 1), (3,))],
                         ids=["single", "batched f", "batched both"])
@pytest.mark.parametrize("depth", [(1, 1), (2, 3), (4, 2), (4, 4)])
def test_generation_sum_is_byte_identical_to_the_repeat_reference(depth, leads, case):
    """The basis-layout generation sum keeps every product and sum of the
    per-generation np.repeat loop in its order: the outputs of the four
    paraproducts, the nine blocks and the square function agree bit for bit."""
    phi, f = _generation_sum_inputs(depth, leads, case, np.random.default_rng(61))
    for sig in (PI, DELTA, PI_01, PI_10):
        _, f_kind, out_kind = factor_kinds(sig)
        ref = reference_bilinear(phi, (0, 0), f, f_kind, out_kind)
        assert paraproduct(sig, phi, f).values.tobytes() == ref.tobytes()
    for tag in ALL_NINE_TAGS:
        (p1, f1, o1), (p2, f2, o2) = _AXIS_FACTORS[tag.s_relation], _AXIS_FACTORS[tag.t_relation]
        ref = reference_bilinear(phi, (p1, p2), f, (f1, f2), (o1, o2))
        assert nine_part_apply(tag, phi, f).values.tobytes() == ref.tobytes()
    unit, e = _unit_scaled(phi)
    squares = reference_generation_sum(unit.coeffs.shape, unit.generation_block,
                                       unit.generation_block, (1, 1))
    ref = np.ldexp(np.sqrt(squares), e)
    assert square_function(phi).values.tobytes() == ref.tobytes()


def _display_sum(phi, f, coef_mode, square_axis):
    """Direct evaluation of a displayed one-sided block formula.

    coef_mode 'tmean': coefficient m_J(phi_I) * f_(I,J)
    coef_mode 'smean': coefficient m_I(phi_J) * f_(I,J)
    square_axis 's'|'t': which axis carries the squared (indicator) factor.
    """
    depth = f.depth
    n1, n2 = f.values.shape
    phi_grid = haar_inverse_2d(phi)
    f_spec = haar_forward_2d(f)
    out = np.zeros((n1, n2))
    for rect in all_hh_rects(depth):
        fij = f_spec.hh_coef(rect)
        if fij == 0.0:
            continue
        i_int, j_int = rect.s_interval, rect.t_interval
        if coef_mode == "tmean":
            hi = haar_values_1d(i_int, n1)
            phi_i = phi_grid.values.T @ hi / n1  # function of t
            w2 = n2 >> j_int.level
            coef = phi_i[j_int.index * w2:(j_int.index + 1) * w2].mean()
        else:
            hj = haar_values_1d(j_int, n2)
            phi_j = phi_grid.values @ hj / n2  # function of s
            w1 = n1 >> i_int.level
            coef = phi_j[i_int.index * w1:(i_int.index + 1) * w1].mean()
        if square_axis == "t":
            pattern = np.outer(haar_values_1d(i_int, n1), indicator_values_1d(j_int, n2))
        else:
            pattern = np.outer(indicator_values_1d(i_int, n1), haar_values_1d(j_int, n2))
        out += fij * coef * pattern
    return out


def test_one_sided_blocks_reconciled_against_displays():
    """The (coarser, equal) block realises the t-mean coefficient with the
    squared factor in s; its s<->t mirror realises the other two choices.
    The printed combination 'tmean coefficient + squared factor in t'
    matches neither block: the square sits on the wrong axis there, and the
    discrepancy is recorded by the final assertions."""
    rng = np.random.default_rng(61)
    depth = (2, 2)
    phi = random_hh_spectrum(depth, rng)
    f = random_hh_grid(depth, rng)

    coarser_equal = nine_part_apply(NinePartTag(COARSER, EQUAL), phi, f).values
    equal_coarser = nine_part_apply(NinePartTag(EQUAL, COARSER), phi, f).values

    assert np.abs(coarser_equal - _display_sum(phi, f, "tmean", "s")).max() < 1e-12
    assert np.abs(equal_coarser - _display_sum(phi, f, "smean", "t")).max() < 1e-12

    printed = _display_sum(phi, f, "tmean", "t")
    assert np.abs(printed - coarser_equal).max() > 1e-6
    assert np.abs(printed - equal_coarser).max() > 1e-6


def test_equal_finer_block_matches_mirror_display():
    """(finer, equal) realises m_J(phi_I) m_I(f_J) h_I h_J; (equal, finer)
    is its s<->t mirror."""
    rng = np.random.default_rng(67)
    depth = (2, 2)
    phi = random_hh_spectrum(depth, rng)
    f = random_hh_grid(depth, rng)
    n1, n2 = f.values.shape
    phi_grid = haar_inverse_2d(phi)

    def direct(tag):
        out = np.zeros((n1, n2))
        for rect in all_hh_rects(depth):
            i_int, j_int = rect.s_interval, rect.t_interval
            hi, hj = haar_values_1d(i_int, n1), haar_values_1d(j_int, n2)
            if tag == "finer_equal":
                phi_i = phi_grid.values.T @ hi / n1
                w2 = n2 >> j_int.level
                a = phi_i[j_int.index * w2:(j_int.index + 1) * w2].mean()
                f_j = f.values @ hj / n2
                w1 = n1 >> i_int.level
                bb = f_j[i_int.index * w1:(i_int.index + 1) * w1].mean()
            else:
                phi_j = phi_grid.values @ hj / n2
                w1 = n1 >> i_int.level
                a = phi_j[i_int.index * w1:(i_int.index + 1) * w1].mean()
                f_i = f.values.T @ hi / n1
                w2 = n2 >> j_int.level
                bb = f_i[j_int.index * w2:(j_int.index + 1) * w2].mean()
            out += a * bb * np.outer(hi, hj)
        return out

    assert np.abs(
        nine_part_apply(NinePartTag(FINER, EQUAL), phi, f).values
        - direct("finer_equal")
    ).max() < 1e-12
    assert np.abs(
        nine_part_apply(NinePartTag(EQUAL, FINER), phi, f).values
        - direct("equal_finer")
    ).max() < 1e-12
