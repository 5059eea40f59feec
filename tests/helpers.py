"""Shared test utilities: random inputs and naive reference computations."""

import numpy as np

from prodbmo.core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    haar_inverse_2d,
)


def random_spectrum(depth, rng):
    j1, j2 = depth
    return HaarSpectrum2D(depth, rng.standard_normal((1 << j1, 1 << j2)))


def random_hh_spectrum(depth, rng):
    c = random_spectrum(depth, rng)
    return c.hh_only()


def random_grid(depth, rng):
    j1, j2 = depth
    return GridFunction2D(depth, rng.standard_normal((1 << j1, 1 << j2)))


def random_hh_grid(depth, rng):
    return haar_inverse_2d(random_hh_spectrum(depth, rng))


def grid_inner(f, g):
    """L2 inner product of two grid functions."""
    return float((f.values * g.values).sum()) * f.cell_area


def all_hh_rects(depth):
    j1d, j2d = depth
    out = []
    for j1 in range(j1d):
        for i1 in range(1 << j1):
            for j2 in range(j2d):
                for i2 in range(1 << j2):
                    out.append(DyadicRect(DyadicInterval(j1, i1), DyadicInterval(j2, i2)))
    return out


def haar_values_1d(interval, n):
    """Cell values of h_I on a 2^J grid (right half positive)."""
    vals = np.zeros(n)
    w = n >> interval.level
    lo = interval.index * w
    amp = 2.0 ** (interval.level / 2.0)
    vals[lo:lo + w // 2] = -amp
    vals[lo + w // 2:lo + w] = amp
    return vals


def indicator_values_1d(interval, n):
    """Cell values of chi_I / |I|."""
    vals = np.zeros(n)
    w = n >> interval.level
    lo = interval.index * w
    vals[lo:lo + w] = float(1 << interval.level)
    return vals


def haar_rect_grid(rect, depth):
    """h_R as a grid function."""
    n1, n2 = 1 << depth[0], 1 << depth[1]
    vals = np.outer(
        haar_values_1d(rect.s_interval, n1), haar_values_1d(rect.t_interval, n2)
    )
    return GridFunction2D(depth, vals)


def matrix_rr_commutator_image(phi, rect, depth):
    """[S1, [S2, R_R(phi)]] h_rect via assembled dense matrices (oracle)."""
    from prodbmo.core import HaarSpectrum2D, haar_forward_2d
    from prodbmo.linop import assemble, commutator, spectrum_to_vector, vector_to_spectrum
    from prodbmo.paraproducts import EQUAL, NinePartTag, nine_part_apply
    from prodbmo.shifts import shift_matrix

    spec = haar_forward_2d(phi)
    rr = assemble(
        lambda g: nine_part_apply(NinePartTag(EQUAL, EQUAL), spec, g),
        depth,
        space="grid",
    )
    comm = commutator(
        shift_matrix(depth, 1), commutator(shift_matrix(depth, 2), rr)
    )
    e = HaarSpectrum2D.zeros(depth).with_hh_coef(rect, 1.0)
    return vector_to_spectrum(comm.matrix @ spectrum_to_vector(e), depth)


def verify_against(dense, op, space="grid", n_samples=20, tol=1e-11, seed=7):
    """Max deviation between the matrix action and the functional form on
    random inputs; raises if it exceeds ``tol``."""
    from prodbmo.core import haar_forward_2d
    from prodbmo.errors import ValidationError
    from prodbmo.linop import spectrum_to_vector, vector_to_spectrum

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        v = rng.standard_normal(dense.dim)
        spec = vector_to_spectrum(v, dense.depth)
        if space == "grid":
            out = spectrum_to_vector(haar_forward_2d(op(haar_inverse_2d(spec))))
        else:
            out = spectrum_to_vector(op(spec))
        worst = max(worst, float(np.abs(dense.matrix @ v - out).max()))
    if worst > tol:
        raise ValidationError(
            f"matrix/functional mismatch {worst} exceeds tolerance {tol}"
        )
    return worst
