"""Calibrated empirical constants used by the verification suite.

The boundedness statements realised here are norm equivalences with
unquantified constants; the frozen values below pin them numerically.
Each was produced by the sweep in :func:`recompute` (run
``python -m prodbmo.calibration``) and widened by a safety margin so that
fresh random draws from the same generators stay inside.  Tests treat the
frozen values as the contract; regenerate and widen them only when the
solvers or generators change.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .core import (
    DyadicInterval,
    DyadicRect,
    HaarSpectrum2D,
    ProjectionSelector,
    apply_projection,
    haar_forward_2d,
    haar_inverse_2d,
    mean_pyramid,
)
from .errors import ValidationError
from .linop import assemble, operator_norm
from .norms import (
    bmo_d_norm_sq,
    bmo_norm_of_grid,
    extremal_bmo_function,
    lmo_char_norm,
    lmo_d_norm,
)
from .paraproducts import DELTA, PI, paraproduct, sigma_k
from .shifts import iterated_commutator_apply

LN2 = math.log(2.0)

#: exact constant of the necessity chain: each scale weight log(4/|I|)
#: = (k+2) log 2 is at most 2 log 2 * (k+1), squared per axis
NECESSITY_CHAIN_CONSTANT_SQ = (2.0 * LN2) ** 4

CALIBRATED = {
    # max BMO norm of the staircase symbols over every rectangle, depths <= (4,4);
    # observed 1.4336, converging towards ~2 with depth (deterministic sweep)
    "extremal_norm_bound": 1.45,
    # growth sweep: worst |m_Q b| / ((k1+1)(k2+1) ||b||) over the family;
    # observed exactly 9.0, depth-stable (deterministic sweep)
    "extremal_growth_bound": 9.5,
    # sharpness: the defining-rectangle ratio the family attains; observed 0.6975
    "extremal_growth_sharpness": 0.65,
    # ratio lmo_char / lmo_d^2: certified bracket per depth D is
    # [((D+1)/D)^4, 16] * (ln 2)^4; the sweep attains the floor exactly
    # (0.72955 at depth 3, 1.16860 at depth 2) and 2000 draws at depth 3
    # never exceeded the structural plateau 0.92334
    "lmo_ratio_lo_depth2": 1.10,
    "lmo_ratio_hi_depth2": 3.70,
    "lmo_ratio_lo_depth3": 0.70,
    "lmo_ratio_hi_depth3": 3.70,
    # sup over depths (2,2),(3,3),(4,4) of bmo(Pi_phi b) / (lmo(phi) bmo(b));
    # observed <= 0.219 across seeds
    "pi_bound_constant": 0.40,
    # two-sided constants of the adjoint paraproduct against the probe set,
    # ratios M(phi) / ||phi||_bmo at depth (2,2); observed [0.103, 0.524]
    "delta_bound_lo": 0.05,
    "delta_bound_hi": 0.80,
    # shared constant of the iterated-commutator experiment at (2,2), (3,3), a bound
    # over Gaussian draws (observed <= 1.332 across seeds), not a worst case: the
    # witness phi = b = h_[0,1)^2 reads 2.0000000000000004, 1 ulp above, at depths 1-4
    "shift_commutator_bound": 2.00,
}

#: the square depths (d, d) each bound constant's sweep covers, and the only ones it is checked at
CALIBRATED_DEPTHS = {
    "pi_bound_constant": (2, 3, 4),
    "shift_commutator_bound": (2, 3),
}


def random_hh_symbol(depth, rng) -> HaarSpectrum2D:
    """The reference symbol distribution: iid standard normal hh block."""
    j1, j2 = depth
    c = np.zeros((1 << j1, 1 << j2))
    c[1:, 1:] = rng.standard_normal(((1 << j1) - 1, (1 << j2) - 1))
    return HaarSpectrum2D(depth, c)


def delta_probe_set(depth):
    """Fixed 20-element probe family for the adjoint-paraproduct bounds:
    single product Haar functions, staircases, and seeded hh-span draws."""
    j1d, j2d = depth
    probes = []
    for (j1, i1, j2, i2) in [
        (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (1, 1, 1, 1),
        (1, 0, 1, 1), (0, 0, j2d - 1, 0), (j1d - 1, 0, 0, 0),
        (j1d - 1, (1 << (j1d - 1)) - 1, j2d - 1, (1 << (j2d - 1)) - 1),
    ]:
        c = HaarSpectrum2D.zeros(depth).with_hh_coef(
            DyadicRect(DyadicInterval(j1, i1), DyadicInterval(j2, i2)), 1.0
        )
        probes.append(haar_inverse_2d(c))
    for (j1, j2) in [(1, 1), (j1d, j2d), (1, j2d), (j1d, 1)]:
        probes.append(
            extremal_bmo_function(DyadicRect.from_levels(j1, 0, j2, 0), depth)
        )
    rng = np.random.default_rng(987654321)
    while len(probes) < 20:
        probes.append(haar_inverse_2d(random_hh_symbol(depth, rng)))
    return probes[:20]


def delta_operator_ratio(phi: HaarSpectrum2D, probes) -> float:
    """max over the probe set of bmo(Delta_phi b) / bmo(b)."""
    best = 0.0
    for b in probes:
        denom = bmo_norm_of_grid(b)
        if denom == 0.0:
            continue
        best = max(best, bmo_norm_of_grid(paraproduct(DELTA, phi, b)) / denom)
    return best


# ---------------------------------------------------------------------------
# bound ratios, shared by the sweeps and the CLI experiments
# ---------------------------------------------------------------------------

def pi_bound_ratio(depth, rng) -> float:
    """bmo(Pi_phi b) / (lmo(phi) bmo(b)) for a fresh (phi, b) draw; 0.0 when
    the denominator vanishes."""
    phi = random_hh_symbol(depth, rng)
    b = haar_inverse_2d(random_hh_symbol(depth, rng))
    denom = lmo_d_norm(phi) * bmo_norm_of_grid(b)
    if not denom > 0:
        return 0.0
    return bmo_norm_of_grid(paraproduct(PI, phi, b)) / denom


def commutator_bound_ratio(depth, rng) -> float:
    """bmo([S1, [S2, M_phi]] b) / (lmo(phi) bmo(b)) for a fresh (phi, b)
    draw; 0.0 when the denominator vanishes."""
    phi = haar_inverse_2d(random_hh_symbol(depth, rng))
    b = haar_inverse_2d(random_hh_symbol(depth, rng))
    denom = lmo_d_norm(haar_forward_2d(phi)) * bmo_norm_of_grid(b)
    if not denom > 0:
        return 0.0
    return bmo_norm_of_grid(iterated_commutator_apply(phi, b)) / denom


def lmo_ratio(depth, rng) -> float:
    """lmo_char(phi) / lmo_d(phi)^2 for a fresh symbol draw."""
    phi = random_hh_symbol(depth, rng)
    return lmo_char_norm(phi) / lmo_d_norm(phi) ** 2


def lemma_core_norms(b: HaarSpectrum2D, k):
    """(||Pi_b E_k||, ||Pi_(sigma_k b) P_hh||) as assembled grid operators,
    E_k keeping the generations strictly below k and P_hh the whole hh
    block; the lemma says the two norms agree."""
    ek = ProjectionSelector.expectation(*k)
    hh = ProjectionSelector.tail(0, 0)
    lhs_op = assemble(
        lambda f: paraproduct(PI, b, haar_inverse_2d(apply_projection(haar_forward_2d(f), ek))),
        b.depth,
    )
    sb = sigma_k(b, k)
    rhs_op = assemble(
        lambda f: paraproduct(PI, sb, haar_inverse_2d(apply_projection(haar_forward_2d(f), hh))),
        b.depth,
    )
    return operator_norm(lhs_op), operator_norm(rhs_op)


def staircase_growth(rect: DyadicRect, depth):
    """Growth of the staircase symbol b of ``rect``.

    Returns (bmo(b), ratios, attained): ratios maps each generation
    (k1, k2) to max_Q |m_Q b| / ((k1+1)(k2+1) bmo(b)) over the rectangles Q
    of that generation, and attained is the same quotient on ``rect``
    itself.  A vanishing norm gives (0.0, {}, None).
    """
    b = extremal_bmo_function(rect, depth)
    bnorm = bmo_norm_of_grid(b)
    if bnorm == 0.0:
        return bnorm, {}, None
    means = mean_pyramid(b.values)
    ratios = {(k1, k2): float(np.abs(means[k1][k2]).max()) / ((k1 + 1) * (k2 + 1) * bnorm)
              for k1 in range(depth[0] + 1) for k2 in range(depth[1] + 1)}
    s, t = rect.s_interval, rect.t_interval
    attained = float(means[s.level][t.level][s.index, t.index]) / (
        (s.level + 1) * (t.level + 1) * bnorm)
    return bnorm, ratios, attained


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_extremal(max_depth=(4, 4)):
    runs = [staircase_growth(DyadicRect(*map(DyadicInterval.from_basis_index, b)), (d, d))
            for d in range(2, max_depth[0] + 1) for b in product(range(1, 2 << d), repeat=2)]
    live = [(ratios, att) for bnorm, ratios, att in runs if bnorm]  # the constant has no growth
    return {
        "extremal_norm_bound": max(bnorm for bnorm, _, _ in runs),
        "extremal_growth_bound": max(max(ratios.values()) for ratios, _ in live),
        "extremal_growth_sharpness": min(att for _, att in live),
    }


def lmo_ratio_interval(depth: int):
    """Pinned (c1, c2) for the lmo_char / lmo_d^2 ratio at the given depth."""
    try:
        return (
            CALIBRATED[f"lmo_ratio_lo_depth{depth}"],
            CALIBRATED[f"lmo_ratio_hi_depth{depth}"],
        )
    except KeyError:
        raise ValidationError(f"no calibrated ratio interval for depth {depth}")


def bound_constant(key: str, depth: int) -> float:
    """CALIBRATED[key] for a bound checked at square depth (depth, depth)."""
    if depth not in CALIBRATED_DEPTHS[key]:
        raise ValidationError(
            f"{key} is calibrated at depths {CALIBRATED_DEPTHS[key]} only, got {depth}")
    return CALIBRATED[key]


def sweep_lmo_ratio(n=200, depth=(3, 3), seed=20240501):
    ratios = _sweep_bound([depth], lmo_ratio, n, seed)
    key = depth[0]
    return {
        f"lmo_ratio_lo_depth{key}": min(ratios),
        f"lmo_ratio_hi_depth{key}": max(ratios),
    }


def _sweep_bound(depths, ratio, n, seed):
    """ratio(depth, rng) over n draws per depth, in order, from one seeded rng;
    a draw of None (nothing to bound) is left out."""
    rng = np.random.default_rng(seed)
    draws = [ratio(d, rng) for d in depths for _ in range(n)]
    return [r for r in draws if r is not None]


def sweep_pi_bound(n=100, seed=20240502):
    depths = [(d, d) for d in CALIBRATED_DEPTHS["pi_bound_constant"]]
    return {"pi_bound_constant": max(_sweep_bound(depths, pi_bound_ratio, n, seed))}


def sweep_delta_bounds(n=50, depth=(2, 2), seed=20240503):
    probes = delta_probe_set(depth)

    def ratio(d, rng):
        phi = random_hh_symbol(d, rng)
        norm = math.sqrt(bmo_d_norm_sq(phi)[0])
        return delta_operator_ratio(phi, probes) / norm if norm else None

    ratios = _sweep_bound([depth], ratio, n, seed)
    return {"delta_bound_lo": min(ratios), "delta_bound_hi": max(ratios)}


def sweep_shift_commutator(n=100, seed=20240504):
    depths = [(d, d) for d in CALIBRATED_DEPTHS["shift_commutator_bound"]]
    return {"shift_commutator_bound": max(_sweep_bound(depths, commutator_bound_ratio, n, seed))}


def recompute(verbose=True):
    """Re-run every sweep and report raw values (no margins applied)."""
    out = {}
    out.update(sweep_extremal())
    out.update(sweep_lmo_ratio())
    out.update(sweep_pi_bound())
    out.update(sweep_delta_bounds())
    out.update(sweep_shift_commutator())
    if verbose:
        for k, v in out.items():
            frozen = CALIBRATED.get(k)
            print(f"{k:32s} raw={v:.6f} frozen={frozen}")
    return out


if __name__ == "__main__":
    recompute()
