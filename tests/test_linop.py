"""Dense assembly, operator norms, commutators."""

import numpy as np
import pytest

from helpers import random_hh_spectrum, random_spectrum, verify_against
from prodbmo.calibration import lemma_core_norms
from prodbmo.core import (
    DyadicRect,
    HaarSpectrum2D,
    ProjectionSelector,
    apply_projection,
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
from prodbmo.paraproducts import PI, paraproduct

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def pad4(m):
    out = np.zeros((4, 4))
    out[: m.shape[0], : m.shape[1]] = m
    return out


# ---------------------------------------------------------------------------
# enumeration and assembly
# ---------------------------------------------------------------------------

def test_enumeration_layout():
    order = basis_enumeration((2, 2))
    assert order[0] == (0, 0)
    assert order[1:4] == ((1, 0), (2, 0), (3, 0))  # hc by (level, position)
    assert order[4:7] == ((0, 1), (0, 2), (0, 3))  # ch
    assert len(order) == 16
    # hh sorted by (s-level, t-level, s-pos, t-pos): first is (1,1)
    assert order[7] == (1, 1)


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
