"""Dyadic shifts, iterated commutators, and the nine-block norm table."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    grid_inner,
    haar_values_1d,
    indicator_values_1d,
    random_hh_grid,
    random_hh_spectrum,
    reference_double_commutator,
    reference_iterated_commutator_apply,
    reference_part_commutator_apply,
)
from prodbmo import shifts
from prodbmo.calibration import CALIBRATED
from prodbmo.core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    PrefixTable,
    dyadic_rect_mean,
    haar_forward_2d,
    haar_inverse_2d,
)
from prodbmo.errors import InsufficientHeadroomError
from prodbmo.linop import assemble, commutator, spectrum_to_vector, vector_to_spectrum
from prodbmo.norms import bmo_d_norm_sq, bmo_norm_of_grid, bmo_rect_norm_sq, lmo_d_norm
from prodbmo.paraproducts import ALL_NINE_TAGS, nine_part_apply
from prodbmo.shifts import (
    commutator_part_norm_report,
    embed_grid,
    embed_spectrum,
    iterated_commutator_apply,
    part_commutator_apply,
    rr_commutator_on_basis,
    shift_apply,
    shift_grid,
    shift_matrix,
    truncating_shift,
)

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def hc_spectrum(depth, interval):
    c = HaarSpectrum2D.zeros(depth)
    c.coeffs[interval.basis_index, 0] = 1.0
    return c


# ---------------------------------------------------------------------------
# the shift on spectra
# ---------------------------------------------------------------------------

def test_shift_moves_to_children():
    c = hc_spectrum((2, 2), DyadicInterval(0, 0))
    out = shift_apply(c, 1)
    # +1 at the right child, -1 at the left child
    assert out.coeffs[DyadicInterval(1, 1).basis_index, 0] == 1.0
    assert out.coeffs[DyadicInterval(1, 0).basis_index, 0] == -1.0
    assert np.count_nonzero(out.coeffs) == 2


def test_shift_twice_grandchildren_signs():
    c = hc_spectrum((3, 3), DyadicInterval(0, 0))
    out = shift_apply(shift_apply(c, 1), 1)
    # S^2 h = h_(++) - h_(+-) - h_(-+) + h_(--): left-to-right (+,-,-,+)
    got = [out.coeffs[DyadicInterval(2, i).basis_index, 0] for i in range(4)]
    assert got == [1.0, -1.0, -1.0, 1.0]


def test_shift_kills_constant_and_opposite_axis():
    c = HaarSpectrum2D.zeros((2, 2))
    c.coeffs[0, 0] = 2.0  # constant
    c.coeffs[0, 1] = 3.0  # 1 (x) h: has no s-Haar content
    out = shift_apply(c, 1)
    assert np.all(out.coeffs == 0.0)


def test_shift_doubles_energy():
    rng = np.random.default_rng(3)
    c = random_hh_spectrum((3, 3), rng)
    c.coeffs[4:, :] = 0.0  # clear the two deepest s-levels for headroom
    c.coeffs[2:4, :] = 0.0
    out = shift_apply(c, 1)
    assert out.total_energy() == pytest.approx(2.0 * c.total_energy(), rel=1e-12)


def test_shift_headroom_error():
    c = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(
        DyadicRect.from_levels(1, 0, 0, 0), 1.0
    )
    with pytest.raises(InsufficientHeadroomError):
        shift_apply(c, 1)
    # the same content is fine in the other axis
    shift_apply(c, 2)


@pytest.mark.parametrize("depth", [(1, 1), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("axis", [1, 2])
def test_shift_matches_child_loop(depth, axis):
    rng = np.random.default_rng(17)
    c = rng.standard_normal((1 << depth[0], 1 << depth[1]))
    n = c.shape[axis - 1]

    def at(b):
        return (b, slice(None)) if axis == 1 else (slice(None), b)

    expected = np.zeros_like(c)
    for b in range(1, n):
        interval = DyadicInterval.from_basis_index(b)
        plus, minus = interval.half_plus().basis_index, interval.half_minus().basis_index
        if plus < n:
            expected[at(plus)] += c[at(b)]
            expected[at(minus)] -= c[at(b)]
    assert np.array_equal(truncating_shift(HaarSpectrum2D(depth, c), axis).coeffs, expected)
    with pytest.raises(InsufficientHeadroomError):
        shift_apply(HaarSpectrum2D(depth, c), axis)
    c[at(slice(n // 2, n))] = 0.0  # the deepest level of the axis
    assert np.array_equal(shift_apply(HaarSpectrum2D(depth, c), axis).coeffs, expected)


def test_shift_matrix_columns_are_signed_units():
    m = shift_matrix((2, 2), 1).matrix
    assert np.isin(m, (-1.0, 0.0, 1.0)).all()
    col = spectrum_to_vector(hc_spectrum((2, 2), DyadicInterval(0, 0)))
    out = vector_to_spectrum(m @ col, (2, 2))
    assert out.coeffs[DyadicInterval(1, 1).basis_index, 0] == 1.0
    assert out.coeffs[DyadicInterval(1, 0).basis_index, 0] == -1.0


# ---------------------------------------------------------------------------
# ambient embedding
# ---------------------------------------------------------------------------

def test_embedding_preserves_values_and_coefficients():
    rng = np.random.default_rng(5)
    f = GridFunction2D((2, 2), rng.standard_normal((4, 4)))
    big = embed_grid(f)
    assert big.depth == (3, 3)
    assert big.values[0, 0] == f.values[0, 0]
    assert big.integral() == pytest.approx(f.integral(), rel=1e-14)
    spec_direct = haar_forward_2d(big)
    spec_padded = embed_spectrum(haar_forward_2d(f))
    assert np.abs(spec_direct.coeffs - spec_padded.coeffs).max() < 1e-13


# ---------------------------------------------------------------------------
# iterated commutator
# ---------------------------------------------------------------------------

def test_commutator_with_constant_symbol_vanishes():
    rng = np.random.default_rng(7)
    phi = GridFunction2D.constant((2, 2), 3.5)
    b = GridFunction2D((2, 2), rng.standard_normal((4, 4)))
    out = iterated_commutator_apply(phi, b)
    assert np.abs(out.values).max() < 1e-12


def test_commutator_matches_matrix_oracle():
    phi = haar_inverse_2d(
        HaarSpectrum2D.zeros((1, 1)).with_hh_coef(UNIT_SQUARE, 1.0)
    )
    b = haar_inverse_2d(
        HaarSpectrum2D.zeros((1, 1)).with_hh_coef(UNIT_SQUARE, 1.0)
    )
    out = iterated_commutator_apply(phi, b)

    ambient = out.depth
    phi_amb = embed_grid(phi)
    m_phi = assemble(lambda g: phi_amb.multiply(g), ambient, space="grid")
    s1 = shift_matrix(ambient, 1)
    s2 = shift_matrix(ambient, 2)
    comm = commutator(s1, commutator(s2, m_phi))
    vec = spectrum_to_vector(haar_forward_2d(embed_grid(b)))
    expect = haar_inverse_2d(vector_to_spectrum(comm.matrix @ vec, ambient))
    assert np.abs(out.values - expect.values).max() < 1e-10


def test_commutator_bilinear():
    rng = np.random.default_rng(11)
    depth = (2, 2)
    p1 = GridFunction2D(depth, rng.standard_normal((4, 4)))
    p2 = GridFunction2D(depth, rng.standard_normal((4, 4)))
    b = GridFunction2D(depth, rng.standard_normal((4, 4)))
    mixed = GridFunction2D(depth, 2.0 * p1.values - 0.5 * p2.values)
    lhs = iterated_commutator_apply(mixed, b).values
    rhs = (
        2.0 * iterated_commutator_apply(p1, b).values
        - 0.5 * iterated_commutator_apply(p2, b).values
    )
    assert np.abs(lhs - rhs).max() < 1e-12
    b2 = GridFunction2D(depth, rng.standard_normal((4, 4)))
    mixed_b = GridFunction2D(depth, 0.25 * b.values + 3.0 * b2.values)
    lhs = iterated_commutator_apply(p1, mixed_b).values
    rhs = (
        0.25 * iterated_commutator_apply(p1, b).values
        + 3.0 * iterated_commutator_apply(p1, b2).values
    )
    assert np.abs(lhs - rhs).max() < 1e-12


def test_commutator_splits_over_nine_parts():
    rng = np.random.default_rng(13)
    depth = (2, 2)
    phi = random_hh_grid(depth, rng)
    b = random_hh_grid(depth, rng)
    phi_amb = haar_forward_2d(embed_grid(phi))
    b_amb = embed_grid(b)
    total = GridFunction2D.zeros(b_amb.depth)
    for tag in ALL_NINE_TAGS:
        total = total + part_commutator_apply(tag, phi_amb, b_amb)
    whole = iterated_commutator_apply(phi, b)
    assert np.abs(total.values - whole.values).max() < 1e-10


# ---------------------------------------------------------------------------
# the staged evaluation against the eight-shift reference
# ---------------------------------------------------------------------------

def _symbol_grid(kind, depth, rng):
    shape = (1 << depth[0], 1 << depth[1])
    if kind == "gaussian":
        return GridFunction2D(depth, rng.standard_normal(shape))
    if kind == "sparse":  # 30% of the hh coefficients non-zero
        c = random_hh_spectrum(depth, rng)
        c.coeffs[rng.random(shape) >= 0.3] = 0.0
        return haar_inverse_2d(c)
    if kind == "integer":
        return GridFunction2D(depth, rng.integers(-3, 4, shape).astype(float))
    v = rng.standard_normal(shape)  # "negative_zero"
    v[rng.random(shape) < 0.5] = -0.0
    return GridFunction2D(depth, v)


def _assert_same_bytes(got, want):
    assert got.depth == want.depth
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "sparse", "integer", "negative_zero"])
@pytest.mark.parametrize("depth", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 4)])
def test_staged_commutator_is_bit_identical_to_the_eight_shift_reference(depth, kind):
    rng = np.random.default_rng([depth[0], depth[1], len(kind)])
    for _ in range(2):
        phi, b = _symbol_grid(kind, depth, rng), _symbol_grid(kind, depth, rng)
        if kind == "negative_zero":
            assert np.signbit(phi.values[phi.values == 0]).any()
        _assert_same_bytes(iterated_commutator_apply(phi, b),
                           reference_iterated_commutator_apply(phi, b))
        phi_amb, b_amb = haar_forward_2d(embed_grid(phi)), embed_grid(b)
        for tag in ALL_NINE_TAGS:
            _assert_same_bytes(part_commutator_apply(tag, phi_amb, b_amb),
                               reference_part_commutator_apply(tag, phi_amb, b_amb))


@pytest.mark.parametrize("depth", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
def test_one_level_deeper_is_the_double_commutators_whole_reach(depth):
    """On inputs embedded two levels deeper, the eight-shift reference gives the
    one-level result embedded once more, bit for bit: the second level stays zero.
    The same holds for each of the nine blocks."""
    rng = np.random.default_rng([19, *depth])
    for _ in range(2):
        phi, b = _symbol_grid("gaussian", depth, rng), _symbol_grid("gaussian", depth, rng)
        _assert_same_bytes(embed_grid(iterated_commutator_apply(phi, b)),
                           reference_double_commutator(embed_grid(embed_grid(phi)).multiply,
                                                       embed_grid(embed_grid(b))))
        phi_amb, b_amb = embed_spectrum(haar_forward_2d(phi)), embed_grid(b)
        for tag in ALL_NINE_TAGS:
            _assert_same_bytes(embed_grid(part_commutator_apply(tag, phi_amb, b_amb)),
                               reference_part_commutator_apply(tag, embed_spectrum(phi_amb),
                                                               embed_grid(b_amb)))


@pytest.mark.parametrize("depth", [(2, 2), (2, 3), (3, 3)])
def test_batched_commutator_and_embeddings_equal_the_stacked_single_ones(depth):
    """Stacked (phi, b) pairs give the stacked per-pair commutators, and the batched
    embeddings the stacked single embeddings, bit for bit."""
    rng = np.random.default_rng([23, *depth])
    shape = (3, 1 << depth[0], 1 << depth[1])
    phi, b = (GridFunction2D(depth, rng.standard_normal(shape)) for _ in range(2))
    spec = haar_forward_2d(b)
    pairs = [(GridFunction2D(depth, p), GridFunction2D(depth, x))
             for p, x in zip(phi.values, b.values)]

    def array(x):
        return x.values if isinstance(x, GridFunction2D) else x.coeffs

    for got, singles in [
            (iterated_commutator_apply(phi, b), [iterated_commutator_apply(*p) for p in pairs]),
            (embed_grid(b), [embed_grid(x) for _, x in pairs]),
            (embed_spectrum(spec), [embed_spectrum(HaarSpectrum2D(depth, c))
                                    for c in spec.coeffs])]:
        assert got.depth == singles[0].depth == (depth[0] + 1, depth[1] + 1)
        assert array(got).tobytes() == np.stack([array(s) for s in singles]).tobytes()


@pytest.mark.parametrize("depth", [(5, 5), (6, 6)])
def test_double_commutator_peak_is_within_its_budgeted_arrays(depth):
    """The traced peak of the double commutator, the whole product and each of the
    nine blocks, stays within the ``_PEAK_ARRAYS`` ambient-size arrays that its memory
    refusal budgets, and above three quarters of them, so the constant is measured."""
    rng = np.random.default_rng([29, *depth])
    phi, b = _symbol_grid("gaussian", depth, rng), _symbol_grid("gaussian", depth, rng)
    phi_amb, b_amb = embed_spectrum(haar_forward_2d(phi)), embed_grid(b)
    budget = shifts._PEAK_ARRAYS * b_amb.values.nbytes

    def peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert 0.75 * budget < peak(lambda: iterated_commutator_apply(phi, b)) <= budget
    for tag in ALL_NINE_TAGS:
        assert peak(lambda: part_commutator_apply(tag, phi_amb, b_amb)) <= budget


def _outer(s_vals, t_vals):
    return GridFunction2D((3, 3), np.outer(s_vals, t_vals))


_UNIT = DyadicInterval(0, 0)
_FINE = DyadicInterval(2, 1)  # the deepest level of a depth-3 axis
_ONES = np.ones(8)

#: (symbol p, input x) on the unembedded depth-(3,3) grid.  For M the
#: multiplication by p, each case named after a stage fails the headroom
#: check of that one batched shift of the staged evaluation only: stage 1 shifts (M x, x) by S2
#: and x by S1, stage 2 (S2 M x, M S2 x) by S1 and (M S1 x, S1 x) by S2.  The
#: last case has one free level per axis, and no shift fails.
_HEADROOM_CASES = {
    "any (Gaussian)": lambda rng: (
        GridFunction2D((3, 3), rng.standard_normal((8, 8))),
        GridFunction2D((3, 3), rng.standard_normal((8, 8)))),
    "stage 1 S2": lambda rng: (
        GridFunction2D.constant((3, 3), 1.0), _outer(_ONES, haar_values_1d(_FINE, 8))),
    "stage 1 S1": lambda rng: (
        GridFunction2D.constant((3, 3), 1.0), _outer(haar_values_1d(_FINE, 8), _ONES)),
    "stage 2 S1": lambda rng: (
        _outer(haar_values_1d(_FINE, 8), _ONES),
        _outer(haar_values_1d(_UNIT, 8), haar_values_1d(_UNIT, 8))),
    "stage 2 S2": lambda rng: (
        _outer(indicator_values_1d(DyadicInterval(1, 0), 8), haar_values_1d(_FINE, 8)),
        _outer(1.0 + haar_values_1d(_UNIT, 8), haar_values_1d(_UNIT, 8))),
    "none": lambda rng: tuple(
        embed_grid(GridFunction2D((2, 2), rng.standard_normal((4, 4))))
        for _ in range(2)),
}


def _assert_same_outcome(staged, reference):
    """Run both evaluations; both raise InsufficientHeadroomError or both
    return the same bytes.  Returns whether the reference raised."""
    def outcome(fn):
        try:
            return fn()
        except InsufficientHeadroomError:
            return None
    want, got = outcome(reference), outcome(staged)
    assert (got is None) == (want is None)
    if want is not None:
        _assert_same_bytes(got, want)
    return want is None


@pytest.mark.parametrize("case", list(_HEADROOM_CASES))
def test_staged_commutator_checks_headroom_where_the_reference_does(case):
    """Every shift of the staged evaluation keeps its headroom check: on an
    unembedded grid it raises exactly when the eight-shift reference does."""
    p, x = _HEADROOM_CASES[case](np.random.default_rng(17))
    raised = _assert_same_outcome(lambda: shifts._grid_double_commutator(p.multiply, x),
                                  lambda: reference_double_commutator(p.multiply, x))
    assert raised == (case != "none")
    p_spec = haar_forward_2d(p)
    for tag in ALL_NINE_TAGS:
        _assert_same_outcome(lambda: part_commutator_apply(tag, p_spec, x),
                             lambda: reference_part_commutator_apply(tag, p_spec, x))


# ---------------------------------------------------------------------------
# the diagonal-block commutator on basis functions
# ---------------------------------------------------------------------------

def test_rr_commutator_worked_example():
    phi = GridFunction2D.zeros((2, 2))
    phi.values[:2, :2] = 1.0  # chi_[0,1/2)^2
    out = rr_commutator_on_basis(phi, UNIT_SQUARE)
    plus = DyadicInterval(1, 1)
    minus = DyadicInterval(1, 0)
    # On R = [0,1)^2: m_R = 1/4, m_(I-,J) = m_(I,J-) = 1/2, m_(I-,J-) = 1 and
    # 0 elsewhere, so the four-term differences on (++, +-, -+, --) are
    # (1/4, -1/4, -1/4, 1/4); the shift orientation (sign e)(sign d) =
    # (+1, -1, -1, +1) makes every coefficient of the commutator 1/4.
    assert out.hh_coef(DyadicRect(plus, plus)) == 0.25
    assert out.hh_coef(DyadicRect(plus, minus)) == 0.25
    assert out.hh_coef(DyadicRect(minus, plus)) == 0.25
    assert out.hh_coef(DyadicRect(minus, minus)) == 0.25


def test_rr_commutator_constant_symbol():
    phi = GridFunction2D.constant((2, 2), 7.0)
    out = rr_commutator_on_basis(phi, UNIT_SQUARE)
    assert np.all(out.coeffs == 0.0)


def test_rr_commutator_headroom():
    phi = GridFunction2D.zeros((2, 2))
    with pytest.raises(InsufficientHeadroomError):
        rr_commutator_on_basis(phi, DyadicRect.from_levels(1, 0, 1, 0))


from helpers import matrix_rr_commutator_image as _matrix_rr_commutator_image


def test_rr_commutator_vs_matrix_oracle_orientation():
    """The assembled commutator equals the unoriented four-term sum
    m_R - m_(Ie,J) - m_(I,Jd) + m_(Ie,Jd) times (sign e)(sign d): the two
    agree on the pure children and differ by sign on the mixed ones.  The
    closed form carries that orientation and matches the operator."""
    rng = np.random.default_rng(17)
    depth = (3, 3)
    for _ in range(5):
        phi = GridFunction2D(depth, rng.standard_normal((8, 8)))
        pt = PrefixTable(phi)
        for rect in [
            UNIT_SQUARE,
            DyadicRect.from_levels(1, 0, 0, 0),
            DyadicRect.from_levels(1, 1, 1, 0),
        ]:
            formula = rr_commutator_on_basis(phi, rect)
            oracle = _matrix_rr_commutator_image(phi, rect, depth)
            i_int, j_int = rect.s_interval, rect.t_interval
            ip, im = i_int.half_plus(), i_int.half_minus()
            jp, jm = j_int.half_plus(), j_int.half_minus()
            for (ic, jc, sign) in [
                (ip, jp, 1.0),
                (ip, jm, -1.0),
                (im, jp, -1.0),
                (im, jm, 1.0),
            ]:
                unoriented = (
                    dyadic_rect_mean(pt, rect)
                    - dyadic_rect_mean(pt, DyadicRect(ic, j_int))
                    - dyadic_rect_mean(pt, DyadicRect(i_int, jc))
                    + dyadic_rect_mean(pt, DyadicRect(ic, jc))
                )
                r = DyadicRect(ic, jc)
                assert oracle.hh_coef(r) == pytest.approx(
                    sign * unoriented, abs=1e-11
                )
                assert formula.hh_coef(r) == pytest.approx(
                    oracle.hh_coef(r), abs=1e-11
                )


def test_rr_commutator_images_orthogonal():
    """Images of distinct basis rectangles stay pairwise orthogonal."""
    depth = (4, 4)
    rng = np.random.default_rng(19)
    phi = GridFunction2D(depth, rng.standard_normal((16, 16)))
    rects = [
        DyadicRect.from_levels(j1, i1, j2, i2)
        for j1 in range(2)
        for i1 in range(1 << j1)
        for j2 in range(2)
        for i2 in range(1 << j2)
    ]
    images = [
        haar_inverse_2d(_matrix_rr_commutator_image(phi, r, depth)) for r in rects
    ]
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            assert abs(grid_inner(images[a], images[b])) <= 1e-12


# ---------------------------------------------------------------------------
# block norm report
# ---------------------------------------------------------------------------

def test_part_report_zero_symbol():
    b = GridFunction2D.constant((2, 2), 1.0)
    rows = commutator_part_norm_report(GridFunction2D.zeros((2, 2)), b)
    assert len(rows) == 9
    assert all(row["commutator_bmo"] == 0.0 for row in rows)


def test_part_report_reproducible_from_matrices():
    rng = np.random.default_rng(23)
    depth = (2, 2)
    phi = random_hh_grid(depth, rng)
    b = random_hh_grid(depth, rng)
    rows = {r["part"]: r for r in commutator_part_norm_report(phi, b)}
    assert all(np.isfinite(r["commutator_bmo"]) for r in rows.values())
    # check one block against assembled matrices at the ambient depth
    phi_amb = haar_forward_2d(embed_grid(phi))
    ambient = phi_amb.depth
    from prodbmo.paraproducts import EQUAL, NinePartTag

    rr = assemble(
        lambda g: nine_part_apply(NinePartTag(EQUAL, EQUAL), phi_amb, g),
        ambient,
        space="grid",
    )
    s1 = shift_matrix(ambient, 1)
    s2 = shift_matrix(ambient, 2)
    comm = commutator(s1, commutator(s2, rr))
    vec = spectrum_to_vector(haar_forward_2d(embed_grid(b)))
    out = vector_to_spectrum(comm.matrix @ vec, ambient)
    expect = math.sqrt(bmo_d_norm_sq(out)[0])
    assert rows["rr"]["commutator_bmo"] == pytest.approx(expect, rel=1e-9)


def test_part_report_squares_only_after_scaling():
    """At amplitude 1 every row is the one of the unscaled squares; at phi * 2^520,
    whose squares overflow, every commutator norm and control value is exactly
    2^520 times its unit value and every ratio is unchanged."""
    rng = np.random.default_rng(31)
    phi, b = random_hh_grid((2, 2), rng), random_hh_grid((2, 2), rng)
    rows = commutator_part_norm_report(phi, b)
    phi_amb, b_amb = haar_forward_2d(embed_grid(phi)), embed_grid(b)
    unscaled = {"bmo": math.sqrt(bmo_d_norm_sq(haar_forward_2d(phi))[0]),
                "bmo_rect": math.sqrt(bmo_rect_norm_sq(haar_forward_2d(phi)))}
    for row, tag in zip(rows, ALL_NINE_TAGS):
        out = haar_forward_2d(part_commutator_apply(tag, phi_amb, b_amb))
        assert row["commutator_bmo"] == math.sqrt(bmo_d_norm_sq(out)[0])
        assert row["control_value"] == unscaled.get(row["control"], row["control_value"])
    big = commutator_part_norm_report(GridFunction2D((2, 2), np.ldexp(phi.values, 520)), b)
    for row, scaled in zip(rows, big):
        assert scaled["commutator_bmo"] == math.ldexp(row["commutator_bmo"], 520)
        assert scaled["control_value"] == math.ldexp(row["control_value"], 520)
        assert scaled["ratio"] == row["ratio"]


def test_part_report_ratios_bounded():
    rng = np.random.default_rng(29)
    depth = (2, 2)
    for _ in range(3):
        phi = random_hh_grid(depth, rng)
        b = random_hh_grid(depth, rng)
        rows = commutator_part_norm_report(phi, b)
        for row in rows:
            assert row["ratio"] < 25.0


def test_single_shift_block_commutators_match_matrices():
    """[S2, P] for the one-sided blocks agrees with the assembled matrix
    commutator (the normative definition of those left-hand sides)."""
    from prodbmo.paraproducts import COARSER, EQUAL, NinePartTag

    rng = np.random.default_rng(37)
    depth = (3, 3)
    phi_spec = random_hh_spectrum((2, 2), rng)
    phi_amb = embed_spectrum(phi_spec)
    s2 = shift_matrix(depth, 2)
    for tag in (NinePartTag(COARSER, EQUAL), NinePartTag(EQUAL, COARSER)):
        op = assemble(
            lambda g: nine_part_apply(tag, phi_amb, g), depth, space="grid",
        )
        comm = commutator(s2, op)
        for _ in range(5):
            b = random_hh_spectrum((2, 2), rng)
            b_grid = haar_inverse_2d(embed_spectrum(b))
            direct = (
                shift_grid(nine_part_apply(tag, phi_amb, b_grid), 2)
                - nine_part_apply(tag, phi_amb, shift_grid(b_grid, 2))
            )
            vec = spectrum_to_vector(haar_forward_2d(b_grid))
            via_matrix = haar_inverse_2d(
                vector_to_spectrum(comm.matrix @ vec, depth)
            )
            assert np.abs(direct.values - via_matrix.values).max() < 1e-11


def test_tilde_transform_identities_report():
    """The grandchild-reindexed (tilde) rewriting of the single-shift
    commutators.  The middle display

        (1/(2 sqrt 2)) sum b_IJ phi_IJ h_I^2(s) (signed chi/|.| combo)(t)

    equals [S2, P_(coarser,equal)] b (asserted).  Its distance from
    [S2, P_(equal,coarser)] b is reported, not asserted.

    Sign of the combo: P = P_(coarser,equal) sends h_I (x) h_K to
    m_K(phi_I) h_I^2 (x) h_K, with phi_I(t) = <phi(., t), h_I> and
    h_I^2 = chi_I / |I|.  As S h_J = h_(J+) - h_(J-),

        [S2, P] h_I (x) h_J = h_I^2 (x) ((m_J - m_(J+)) h_(J+) - (m_J - m_(J-)) h_(J-))
                            = -phi_IJ |J|^(-1/2) h_I^2 (x) (h_(J+) + h_(J-)),

    because m_(J+-) - m_J = +-phi_IJ |J|^(-1/2).  Writing
    h_(Je) = |J|^(1/2) / (2 sqrt 2) (chi_(Je+)/|Je+| - chi_(Je-)/|Je-|) puts
    the signs (-1, +1, -1, +1) on the grandchildren (J-+, J--, J++, J+-).
    """
    from prodbmo.core import DyadicRect as DR
    from prodbmo.paraproducts import COARSER, EQUAL, NinePartTag
    from helpers import indicator_values_1d

    src = (2, 2)
    depth = (4, 4)
    n1, n2 = 1 << depth[0], 1 << depth[1]
    scale = 1.0 / (2.0 * math.sqrt(2.0))

    def src_rects():
        for j1 in range(src[0]):
            for i1 in range(1 << j1):
                for j2 in range(src[1]):
                    for i2 in range(1 << j2):
                        yield DR.from_levels(j1, i1, j2, i2)

    def grandchild_signs(rect):
        jm, jp = rect.t_interval.half_minus(), rect.t_interval.half_plus()
        return [(jm.half_plus(), -1.0), (jm.half_minus(), 1.0),
                (jp.half_plus(), -1.0), (jp.half_minus(), 1.0)]

    print("\ntilde-identity report (max abs differences):")
    for seed in (41, 5, 99):
        rng = np.random.default_rng(seed)
        phi_spec = random_hh_spectrum(src, rng)
        b_spec = random_hh_spectrum(src, rng)
        phi_amb = embed_spectrum(embed_spectrum(phi_spec))
        b_grid = haar_inverse_2d(embed_spectrum(embed_spectrum(b_spec)))

        middle = np.zeros((n1, n2))
        for rect in src_rects():
            w = phi_spec.hh_coef(rect) * b_spec.hh_coef(rect)
            combo = sum(sign * indicator_values_1d(g, n2)
                        for g, sign in grandchild_signs(rect))
            middle += w * np.outer(indicator_values_1d(rect.s_interval, n1), combo)
        middle *= scale

        diffs = {}
        for tag, name in [
            (NinePartTag(COARSER, EQUAL), "coarser_equal"),
            (NinePartTag(EQUAL, COARSER), "equal_coarser"),
        ]:
            lhs = (
                shift_grid(nine_part_apply(tag, phi_amb, b_grid), 2)
                - nine_part_apply(tag, phi_amb, shift_grid(b_grid, 2))
            ).values
            diffs[f"middle_vs_[S2,{name}]"] = float(np.abs(middle - lhs).max())
        for k, v in diffs.items():
            print(f"  seed {seed} {k}: {v:.3e}")
        assert diffs["middle_vs_[S2,coarser_equal]"] <= 1e-12


def test_commutator_bmo_experiment_shared_constant():
    """bmo([S1,[S2,M_phi]]b) <= C * lmo(phi) * bmo(b) with the calibrated C
    shared across depths (2,2) and (3,3)."""
    from prodbmo.calibration import CALIBRATED, random_hh_symbol

    bound = CALIBRATED["shift_commutator_bound"]
    rng = np.random.default_rng(31)
    for depth in [(2, 2), (3, 3)]:
        for _ in range(10):
            phi = haar_inverse_2d(random_hh_symbol(depth, rng))
            b = haar_inverse_2d(random_hh_symbol(depth, rng))
            denom = lmo_d_norm(haar_forward_2d(phi)) * math.sqrt(
                bmo_d_norm_sq(haar_forward_2d(b))[0]
            )
            out = iterated_commutator_apply(phi, b)
            num = math.sqrt(bmo_d_norm_sq(haar_forward_2d(out))[0])
            assert num <= bound * denom


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_commutator_witness_reads_one_ulp_above_the_calibrated_constant(d):
    """phi = b = h_[0,1)^2 at depth (d, d): the commutator bound ratio is
    pinned to its double, 1 ulp above the calibrated 2.00, which is a
    maximum over Gaussian draws and not a worst case."""
    h = haar_inverse_2d(HaarSpectrum2D.zeros((d, d)).with_hh_coef(UNIT_SQUARE, 1.0))
    out = iterated_commutator_apply(h, h)
    ratio = bmo_norm_of_grid(out) / (lmo_d_norm(haar_forward_2d(h)) * bmo_norm_of_grid(h))
    assert ratio == 2.0000000000000004
    assert ratio == math.nextafter(CALIBRATED["shift_commutator_bound"], math.inf)
