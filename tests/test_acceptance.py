"""Acceptance suite: each criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from helpers import matrix_rr_commutator_image
from prodbmo.calibration import (
    CALIBRATED,
    NECESSITY_CHAIN_CONSTANT_SQ,
    delta_operator_ratio,
    delta_probe_set,
    lemma_core_norms,
    lmo_ratio,
    lmo_ratio_interval,
    pi_bound_ratio,
    random_hh_symbol,
)
from prodbmo.core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    ProjectionSelector,
    apply_projection,
    conditional_expectation_grid,
    haar_forward_2d,
    haar_inverse_2d,
    square_function,
)
from prodbmo.hilbert import StepFunction1D, analytic_hilbert_step, mc_hilbert
from prodbmo.norms import (
    bmo_d_norm_sq,
    bmo_d_norm_sq_bruteforce,
    extremal_bmo_function,
    lmo_char_details,
)
from prodbmo.paraproducts import PI, nine_part_sum, paraproduct, sigma_k
from prodbmo.shifts import rr_commutator_on_basis

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_parseval_roundtrip():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst_rel = 0.0
    worst_rt = 0.0
    for _ in range(1000):
        j1 = int(rng.integers(1, 5))
        j2 = int(rng.integers(1, 5))
        f = GridFunction2D((j1, j2), rng.standard_normal((1 << j1, 1 << j2)))
        c = haar_forward_2d(f)
        rel = abs(c.total_energy() - f.norm_l2_sq()) / f.norm_l2_sq()
        rt = np.abs(haar_inverse_2d(c).values - f.values).max()
        worst_rel = max(worst_rel, rel)
        worst_rt = max(worst_rt, rt)
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-12 and worst_rt <= 1e-12 and elapsed < 5.0
    assert report(
        1,
        ok,
        f"parseval rel err {worst_rel:.2e} (<=1e-12), roundtrip {worst_rt:.2e} "
        f"(<=1e-12), {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_four_way_splitting():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        c = HaarSpectrum2D((3, 3), rng.standard_normal((8, 8)))
        hh = c.hh_only().coeffs
        for k1 in range(4):
            for k2 in range(4):
                total = (
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
                worst = max(worst, float(np.abs(total - hh).max()))
    assert report(2, worst <= 1e-14, f"four-way splitting max abs err {worst:.2e} (<=1e-14)")


def test_criterion_3_truncated_paraproduct_identity():
    rng = np.random.default_rng(1003)
    depth = (3, 3)
    t0 = time.monotonic()
    worst_norm = 0.0
    worst_iso = 0.0
    worst_sq = 0.0
    for _ in range(20):
        b = random_hh_symbol(depth, rng)
        s2_b = GridFunction2D(depth, square_function(b.hh_only()).values ** 2)
        for k1 in range(4):
            for k2 in range(4):
                lhs, rhs = lemma_core_norms(b, (k1, k2))
                sb = sigma_k(b, (k1, k2))
                worst_norm = max(worst_norm, abs(lhs - rhs))
                worst_iso = max(
                    worst_iso,
                    abs(sb.total_energy() - b.hh_energy()) / b.hh_energy(),
                )
                avg = conditional_expectation_grid(s2_b, k1, k2).values
                worst_sq = max(
                    worst_sq,
                    float(np.abs(square_function(sb).values ** 2 - avg).max()),
                )
    elapsed = time.monotonic() - t0
    ok = worst_norm <= 1e-8 and worst_iso <= 1e-12 and worst_sq <= 1e-12 and elapsed < 60.0
    assert report(
        3,
        ok,
        f"operator-norm identity max diff {worst_norm:.2e} (<=1e-8), "
        f"isometry rel err {worst_iso:.2e} (<=1e-12), square-function "
        f"averaging max err {worst_sq:.2e} (<=1e-12), {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_bmo_solver_vs_oracle():
    rng = np.random.default_rng(1004)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        phi = random_hh_symbol((2, 2), rng)
        fast, _ = bmo_d_norm_sq(phi)
        slow = bmo_d_norm_sq_bruteforce(phi)
        worst = max(worst, abs(fast - slow))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    assert report(
        4, ok,
        f"solver vs exhaustive max abs diff {worst:.2e} (<=1e-12), {elapsed:.1f}s (<30s)",
    )


def test_criterion_5_nine_part_sum():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for depth, n in [((2, 2), 50), ((3, 3), 20)]:
        for _ in range(n):
            phi = random_hh_symbol(depth, rng)
            f = haar_inverse_2d(random_hh_symbol(depth, rng))
            total = nine_part_sum(phi, f)
            product = haar_inverse_2d(phi).multiply(f)
            worst = max(worst, float(np.abs(total.values - product.values).max()))
    assert report(5, worst <= 1e-10, f"nine-block sum max abs err {worst:.2e} (<=1e-10)")


def test_criterion_6_rr_commutator_formula():
    depth = (3, 3)
    # worked example on phi = chi_[0,1/2)^2 and R = [0,1)^2.  The means are
    # m_R = 1/4, m_(I-,J) = m_(I,J-) = 1/2, m_(I-,J-) = 1 and 0 elsewhere, so
    # the four-term differences on (++, +-, -+, --) are (1/4, -1/4, -1/4, 1/4);
    # the shift orientation (sign e)(sign d) = (+1, -1, -1, +1) makes every
    # coefficient of the commutator 1/4.
    phi0 = GridFunction2D.zeros((2, 2))
    phi0.values[:2, :2] = 1.0
    out = rr_commutator_on_basis(phi0, UNIT_SQUARE)
    plus, minus = DyadicInterval(1, 1), DyadicInterval(1, 0)
    worked = (
        out.hh_coef(DyadicRect(plus, plus)) == 0.25
        and out.hh_coef(DyadicRect(plus, minus)) == 0.25
        and out.hh_coef(DyadicRect(minus, plus)) == 0.25
        and out.hh_coef(DyadicRect(minus, minus)) == 0.25
    )
    report(6, worked, "worked example coefficients (1/4, 1/4, 1/4, 1/4) exact")

    # formula vs assembled commutator over all rectangles of the (2,2) lattice
    rng = np.random.default_rng(1006)
    rects = [
        DyadicRect.from_levels(j1, i1, j2, i2)
        for j1 in range(2)
        for i1 in range(1 << j1)
        for j2 in range(2)
        for i2 in range(1 << j2)
    ]
    worst = 0.0
    worst_unoriented = 0.0
    for _ in range(20):
        phi = GridFunction2D(depth, rng.standard_normal((8, 8)))
        for rect in rects:
            formula = rr_commutator_on_basis(phi, rect)
            oracle = matrix_rr_commutator_image(phi, rect, depth)
            worst = max(worst, float(np.abs(formula.coeffs - oracle.coeffs).max()))
            unoriented = formula.coeffs.copy()
            ip = rect.s_interval.half_plus().basis_index
            im = rect.s_interval.half_minus().basis_index
            jp = rect.t_interval.half_plus().basis_index
            jm = rect.t_interval.half_minus().basis_index
            unoriented[ip, jm] *= -1.0
            unoriented[im, jp] *= -1.0
            worst_unoriented = max(
                worst_unoriented, float(np.abs(unoriented - oracle.coeffs).max())
            )
    ok = worst <= 1e-11
    report(
        6,
        ok,
        f"formula vs assembled commutator max abs diff {worst:.2e} (<=1e-11); "
        f"the unoriented four-term pattern is {worst_unoriented:.2e} away "
        "from the operator on the mixed children",
    )
    assert worked
    assert ok, (
        "the closed form does not match the assembled commutator "
        f"(max abs diff {worst:.2e})"
    )


def test_criterion_7_rr_commutator_orthogonality():
    rng = np.random.default_rng(1007)
    depth = (4, 4)
    rects = [
        DyadicRect.from_levels(j1, i1, j2, i2)
        for j1 in range(2)
        for i1 in range(1 << j1)
        for j2 in range(2)
        for i2 in range(1 << j2)
    ]
    worst = 0.0
    for _ in range(3):
        phi = GridFunction2D(depth, rng.standard_normal((16, 16)))
        images = [
            matrix_rr_commutator_image(phi, r, depth).coeffs.reshape(-1)
            for r in rects
        ]
        for a in range(len(images)):
            for b in range(a + 1, len(images)):
                worst = max(worst, abs(float(images[a] @ images[b])))
    assert report(
        7, worst <= 1e-12,
        f"pairwise inner products of commutator images {worst:.2e} (<=1e-12)",
    )


def test_criterion_8_main_boundedness_directions():
    # (a) necessity: the staircase lower-bound chain with the derived constant
    rng = np.random.default_rng(1008)
    depth = (3, 3)
    ok_a = True
    worst_gap = 0.0
    for _ in range(50):
        phi = random_hh_symbol(depth, rng)
        value, rect = lmo_char_details(phi)
        b = extremal_bmo_function(rect, depth)
        pib = paraproduct(PI, phi, b)
        bound = NECESSITY_CHAIN_CONSTANT_SQ * bmo_d_norm_sq(haar_forward_2d(pib))[0]
        ok_a &= value <= bound * (1.0 + 1e-9)
        worst_gap = max(worst_gap, value / bound)
    report(
        "8a", ok_a,
        f"necessity chain: lmo_char <= (2 ln 2)^4 * bmo(Pi_phi b); "
        f"max attained fraction {worst_gap:.3f} (<=1)",
    )

    # (b) sufficiency trend: one shared bound across depths
    bound = CALIBRATED["pi_bound_constant"]
    worst = {}
    for depth in [(2, 2), (3, 3), (4, 4)]:
        worst[depth] = max(pi_bound_ratio(depth, rng) for _ in range(100))
    ok_b = all(w <= bound for w in worst.values())
    report(
        "8b", ok_b,
        "sufficiency trend: max ratios per depth "
        + ", ".join(f"{d}: {w:.3f}" for d, w in worst.items())
        + f" all <= pinned {bound}",
    )
    assert ok_a and ok_b


def test_criterion_9_adjoint_paraproduct_two_sided():
    lo = CALIBRATED["delta_bound_lo"]
    hi = CALIBRATED["delta_bound_hi"]
    depth = (2, 2)
    probes = delta_probe_set(depth)
    rng = np.random.default_rng(1009)  # fresh seed, calibration used another
    ok = True
    observed = []
    for _ in range(50):
        phi = random_hh_symbol(depth, rng)
        norm = math.sqrt(bmo_d_norm_sq(phi)[0])
        if norm == 0.0:
            continue
        ratio = delta_operator_ratio(phi, probes) / norm
        observed.append(ratio)
        ok &= lo <= ratio <= hi
    assert report(
        9, ok,
        f"adjoint paraproduct two-sided: ratios in [{min(observed):.3f}, "
        f"{max(observed):.3f}] within pinned [{lo}, {hi}]",
    )


def test_criterion_10_monte_carlo_hilbert():
    f = StepFunction1D.indicator(0.0, 1.0)
    xs = [-0.5, 0.25, 1.5, 2.0]
    oracles = [analytic_hilbert_step(f, x) for x in xs]
    t0 = time.monotonic()
    ok = True
    lines = []
    for seed in (1, 2, 3):
        results = mc_hilbert(f, xs, 2000, seed, k_coarse=12, k_fine=12)
        for x, oracle, (est, err) in zip(xs, oracles, results):
            cell_ok = abs(est - oracle) <= 3.0 * err + 0.01 and err <= 0.05
            ok &= cell_ok
            lines.append(
                f"seed {seed} x={x}: est {est:+.4f} oracle {oracle:+.4f} "
                f"stderr {err:.4f} {'ok' if cell_ok else 'VIOLATION'}"
            )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert report(
        10, ok,
        f"averaged-shift estimates within 3*stderr + 0.01 in all 12 cells, "
        f"{elapsed:.1f}s (<120s)\n    " + "\n    ".join(lines),
    )


def test_criterion_11_lmo_equivalence_interval():
    lo, hi = lmo_ratio_interval(3)
    rng = np.random.default_rng(1011)  # fresh seed
    ratios = [lmo_ratio((3, 3), rng) for _ in range(200)]
    violations = sum(1 for r in ratios if not (lo <= r <= hi))
    assert report(
        11, violations == 0,
        f"ratio lmo_char/lmo_d^2 in [{min(ratios):.5f}, {max(ratios):.5f}] "
        f"within pinned [{lo}, {hi}] (width {hi - lo:.2f}); "
        f"violations {violations}/200",
    )
