"""Dense assembly, operator norms, commutators."""

import numpy as np
import pytest

from helpers import random_hh_spectrum, random_spectrum, verify_against
from prodbmo.calibration import lemma_core_norms
from prodbmo.core import (
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    ProjectionSelector,
    apply_projection,
    haar_forward_2d,
    haar_inverse_2d,
)
from prodbmo.errors import DepthMismatchError, ValidationError
from prodbmo.linop import (
    DenseOperator,
    assemble,
    basis_enumeration,
    commutator,
    operator_norm,
    spectrum_to_vector,
    vector_to_spectrum,
)
from prodbmo.paraproducts import (
    ALL_NINE_TAGS,
    DELTA,
    PI,
    PI_01,
    PI_10,
    nine_part_apply,
    paraproduct,
)
from prodbmo.shifts import shift_apply, truncating_shift

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def pad4(m):
    out = np.zeros((4, 4))
    out[: m.shape[0], : m.shape[1]] = m
    return out


# ---------------------------------------------------------------------------
# enumeration and assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [(1, 1), (2, 2), (1, 3), (3, 2), (4, 4)])
def test_enumeration_layout(depth):
    j1d, j2d = depth
    n1, n2 = 1 << j1d, 1 << j2d
    expect = [(0, 0)]
    expect += [(b1, 0) for b1 in range(1, n1)]  # hc by (level, position)
    expect += [(0, b2) for b2 in range(1, n2)]  # ch
    # hh by (s-level, t-level, s-pos, t-pos)
    expect += [((1 << j1) + i1, (1 << j2) + i2)
               for j1 in range(j1d) for j2 in range(j2d)
               for i1 in range(1 << j1) for i2 in range(1 << j2)]
    order = basis_enumeration(depth)
    assert type(order) is tuple and order == tuple(expect)
    assert all(type(b) is int for pair in order for b in pair)
    c = random_spectrum(depth, np.random.default_rng(3))
    assert np.array_equal(spectrum_to_vector(c), [c.coeffs[b1, b2] for b1, b2 in expect])


def test_vector_roundtrip():
    rng = np.random.default_rng(2)
    c = random_spectrum((2, 2), rng)
    v = spectrum_to_vector(c)
    back = vector_to_spectrum(v, (2, 2))
    assert np.all(back.coeffs == c.coeffs)


def test_assemble_identity():
    ident = assemble(lambda c: c, (1, 1), space="spectrum")
    assert np.allclose(ident.matrix, np.eye(4))


def test_assemble_difference_projection_is_rank_one():
    op = assemble(
        lambda c: apply_projection(c, ProjectionSelector.difference(0, 0)),
        (1, 1),
        space="spectrum",
    )
    expect = np.zeros((4, 4))
    # the single hh slot is the last entry of the enumeration at depth (1,1)
    expect[3, 3] = 1.0
    assert np.allclose(op.matrix, expect)


def test_assemble_paraproduct_column():
    phi = HaarSpectrum2D.zeros((1, 1)).with_hh_coef(UNIT_SQUARE, 1.0)
    op = assemble(lambda f: paraproduct(PI, phi, f), (1, 1), space="grid")
    v = np.zeros(4)
    v[0] = 1.0  # the constant function
    out = vector_to_spectrum(op.matrix @ v, (1, 1))
    assert out.hh_coef(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-13)
    assert out.total_energy() == pytest.approx(1.0, rel=1e-12)


def test_assemble_rejects_nonlinear():
    with pytest.raises(ValidationError):
        assemble(
            lambda c: HaarSpectrum2D(c.depth, c.coeffs ** 2 + 1.0),
            (1, 1),
            space="spectrum",
        )


def test_verify_against_utility():
    rng = np.random.default_rng(3)
    phi = random_hh_spectrum((2, 2), rng)
    op = lambda f: paraproduct(PI, phi, f)
    dense = assemble(op, (2, 2), space="grid")
    worst = verify_against(dense, op, space="grid", n_samples=20, tol=1e-11)
    assert worst < 1e-11


def test_assemble_depth_cap():
    with pytest.raises(ValidationError):
        assemble(lambda c: c, (5, 5), space="spectrum")


# ---------------------------------------------------------------------------
# batch contract: one call on stacked inputs equals one call per input
# ---------------------------------------------------------------------------

def _assemble_by_columns(op, depth, space):
    """Reference assembly: one call of ``op`` per basis column."""
    dim = 1 << (depth[0] + depth[1])
    mat = np.empty((dim, dim))
    for col in range(dim):
        spec = vector_to_spectrum(np.eye(dim)[col], depth)
        if space == "grid":
            out = haar_forward_2d(op(haar_inverse_2d(spec)))
        else:
            out = op(spec)
        mat[:, col] = spectrum_to_vector(out)
    return mat


@pytest.mark.parametrize("space", ["grid", "spectrum"])
def test_assemble_calls_op_once(space):
    calls = []

    def op(x):
        calls.append(x)
        return x

    assemble(op, (2, 2), space=space)
    assert len(calls) == 1


@pytest.mark.parametrize("space", ["grid", "spectrum"])
def test_assemble_hands_op_a_fresh_probe(space):
    """The stacked probe is built once per (depth, space); an op that writes
    into its argument must not change what the next assembly sees."""
    def op(x):
        data = x.values if space == "grid" else x.coeffs
        data *= 2.0
        return x

    first, second = (assemble(op, (2, 3), space=space).matrix for _ in range(2))
    assert np.array_equal(first, second)
    assert np.array_equal(first, 2.0 * assemble(lambda x: x, (2, 3), space=space).matrix)


@pytest.mark.parametrize("depth", [(1, 1), (2, 3), (3, 3)])
def test_assemble_equals_column_loop(depth):
    rng = np.random.default_rng(31)
    phi = random_hh_spectrum(depth, rng)
    sel = ProjectionSelector.expectation(1, 2)
    cases = [
        (lambda f: paraproduct(PI, phi, f), "grid"),
        (lambda c: apply_projection(c, sel), "spectrum"),
        (lambda c: truncating_shift(c, 1), "spectrum"),
        (lambda c: truncating_shift(c, 2), "spectrum"),
    ]
    for op, space in cases:
        assert np.all(assemble(op, depth, space=space).matrix
                      == _assemble_by_columns(op, depth, space))


def test_assemble_rejects_op_mixing_batch_rows():
    with pytest.raises(ValidationError):
        assemble(
            lambda c: HaarSpectrum2D(c.depth, np.roll(c.coeffs, 1, axis=0)),
            (2, 2),
            space="spectrum",
        )


def _batch_and_rows(depth, seed, headroom=False):
    """A stacked batch of 3 random spectra and the 3 spectra on their own;
    with ``headroom`` the deepest level of each axis is zero."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, 1 << depth[0], 1 << depth[1]))
    if headroom:
        coeffs[:, (1 << depth[0]) // 2:, :] = 0.0
        coeffs[:, :, (1 << depth[1]) // 2:] = 0.0
    return HaarSpectrum2D(depth, coeffs), [HaarSpectrum2D(depth, c) for c in coeffs]


def _assert_rowwise(batched, singles):
    field = "values" if isinstance(batched, GridFunction2D) else "coeffs"
    assert getattr(batched, field).shape[0] == len(singles)
    for row, single in zip(getattr(batched, field), singles):
        assert np.all(row == getattr(single, field))


@pytest.mark.parametrize("depth", [(1, 1), (2, 3), (3, 2)])
def test_batched_haar_transforms_match_rows(depth):
    spec, rows = _batch_and_rows(depth, 41)
    grid = haar_inverse_2d(spec)
    _assert_rowwise(grid, [haar_inverse_2d(c) for c in rows])
    _assert_rowwise(haar_forward_2d(grid), [haar_forward_2d(haar_inverse_2d(c)) for c in rows])


def test_batched_projections_match_rows():
    depth = (3, 2)
    spec, rows = _batch_and_rows(depth, 43)
    mask = np.random.default_rng(44).random((8, 4)) < 0.6
    for sel in (ProjectionSelector.expectation(2, 1), ProjectionSelector.tail(1, 1),
                ProjectionSelector.open_set(mask)):
        _assert_rowwise(apply_projection(spec, sel), [apply_projection(c, sel) for c in rows])


def test_batched_paraproducts_and_nine_parts_match_rows():
    depth = (2, 3)
    spec, rows = _batch_and_rows(depth, 47)
    phi = random_spectrum(depth, np.random.default_rng(48))
    f = haar_inverse_2d(spec)
    singles = [haar_inverse_2d(c) for c in rows]
    for sig in (PI, DELTA, PI_01, PI_10):
        _assert_rowwise(paraproduct(sig, phi, f), [paraproduct(sig, phi, g) for g in singles])
    for tag in ALL_NINE_TAGS:
        _assert_rowwise(nine_part_apply(tag, phi, f),
                        [nine_part_apply(tag, phi, g) for g in singles])


def test_batched_shifts_match_rows():
    spec, rows = _batch_and_rows((3, 3), 53, headroom=True)
    for axis in (1, 2):
        _assert_rowwise(truncating_shift(spec, axis), [truncating_shift(c, axis) for c in rows])
        _assert_rowwise(shift_apply(spec, axis), [shift_apply(c, axis) for c in rows])


def test_dense_apply_spectrum():
    rng = np.random.default_rng(23)
    a = DenseOperator((1, 1), rng.standard_normal((4, 4)))
    c = random_spectrum((1, 1), rng)
    out = a.apply(c)
    assert np.allclose(
        spectrum_to_vector(out), a.matrix @ spectrum_to_vector(c)
    )


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_norm_nilpotent_shear():
    assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_norm_diagonal():
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_norm_random_vs_svd():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = rng.standard_normal((50, 50))
        assert operator_norm(m) == pytest.approx(
            np.linalg.svd(m, compute_uv=False)[0], abs=1e-9
        )


def test_norm_transpose_invariance():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((30, 30))
    assert operator_norm(m) == pytest.approx(operator_norm(m.T), abs=1e-9)


def test_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def test_commutator_self_is_zero():
    rng = np.random.default_rng(13)
    a = DenseOperator((1, 1), rng.standard_normal((4, 4)))
    assert np.all(commutator(a, a).matrix == 0.0)


def test_commutator_two_by_two():
    a = DenseOperator((1, 1), pad4(np.diag([1.0, 2.0])))
    b = DenseOperator((1, 1), pad4(np.array([[0.0, 1.0], [0.0, 0.0]])))
    expect = pad4(np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert np.allclose(commutator(a, b).matrix, expect)


def test_commutator_bilinearity():
    rng = np.random.default_rng(17)
    a, b, c = (DenseOperator((1, 1), rng.standard_normal((4, 4))) for _ in range(3))
    lhs = commutator(a + b, c).matrix
    rhs = commutator(a, c).matrix + commutator(b, c).matrix
    assert np.abs(lhs - rhs).max() < 1e-12
    # Jacobi identity
    jac = (
        commutator(a, commutator(b, c)).matrix
        + commutator(b, commutator(c, a)).matrix
        + commutator(c, commutator(a, b)).matrix
    )
    assert np.abs(jac).max() < 1e-10


def test_commutator_depth_mismatch():
    a = DenseOperator((1, 1), np.eye(4))
    b = DenseOperator((2, 2), np.eye(16))
    with pytest.raises(DepthMismatchError):
        commutator(a, b)


# ---------------------------------------------------------------------------
# operator-norm identity for the expectation-truncated paraproduct
# ---------------------------------------------------------------------------

def test_truncated_paraproduct_norm_identity_spot():
    """||Pi_b E_k|| equals ||Pi_(sigma_k b)|| on the hh span, exactly."""
    rng = np.random.default_rng(19)
    for _ in range(3):
        b = random_hh_spectrum((3, 3), rng)
        for k in [(0, 0), (1, 2), (2, 2), (3, 3)]:
            lhs, rhs = lemma_core_norms(b, k)
            assert lhs == pytest.approx(rhs, abs=1e-8)


@pytest.mark.parametrize("depth", [(1, 2, 3), (2,), 2, (1.5, 2), (2.0, 2), (0, 2), (2, 31), "22"])
def test_malformed_depth_is_a_validation_error(depth):
    """One depth check: two integers in 1..MAX_LEVEL, in both value types and
    in assembly, with the same error type (a 3-tuple used to raise a
    ValueError from unpacking, a float level a TypeError)."""
    for build in (lambda: GridFunction2D(depth, np.zeros((2, 4))),
                  lambda: HaarSpectrum2D(depth, np.zeros((2, 4))),
                  lambda: assemble(lambda f: f, depth)):
        with pytest.raises(ValidationError, match="two integers"):
            build()
