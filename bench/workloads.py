"""Seeded inputs, item runners and per-item correctness checks.

Each workload turns a seed into a pool of items with numpy and the
package's reference symbol generator, runs one item at a time through the
package, and checks every result against a bound or identity that holds
for any seed.  Package functions are always looked up on their module at
call time (``norms.bmo_d_norm_sq``, never a bound local name), so the
tracer's wrappers see every call the workloads make.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from prodbmo import calibration, core, hilbert, linop, norms, paraproducts, shifts

#: items generated per run; a run wraps around the pool only if it is
#: many times faster than the package is today
POOL_SIZE = 2048

#: relative slack for comparing two evaluations of the same exact quantity
#: whose floating-point sums run in a different order
REL_EQ = 1e-11

LN2 = math.log(2.0)


class CheckFailure(Exception):
    """An item's output broke the bound or identity it must satisfy."""


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

def carleson_ratio(spec, grid_mask) -> float:
    """g(Omega): hh energy of the rectangles inside the cell set, over its area.

    Independent of the package's closure code: containment is read off the
    boolean grid mask block by block.
    """
    j1d, j2d = spec.depth
    n1, n2 = grid_mask.shape
    total = 0.0
    for j1 in range(j1d):
        for j2 in range(j2d):
            inside = grid_mask.reshape(1 << j1, n1 >> j1, 1 << j2, n2 >> j2).all(axis=(1, 3))
            block = spec.coeffs[1 << j1:2 << j1, 1 << j2:2 << j2]
            total += float((block[inside] ** 2).sum())
    return total / (int(grid_mask.sum()) * 2.0 ** -(j1d + j2d))


def check_exact_bmo(spec, value, grid_mask) -> None:
    """The returned BMO square is attained by the returned cell set, and the
    rectangle-only maximum does not exceed it."""
    if not grid_mask.any():
        if value != 0.0 or spec.coeffs[1:, 1:].any():
            raise CheckFailure(f"empty maximiser with value {value!r}")
        return
    g = carleson_ratio(spec, grid_mask)
    if not abs(g - value) <= REL_EQ * max(abs(g), abs(value)):
        raise CheckFailure(f"g(Omega) = {g!r} but bmo_d_norm_sq returned {value!r}")
    rect = norms.bmo_rect_norm_sq(spec)
    if not rect <= value * (1.0 + REL_EQ):
        raise CheckFailure(f"bmo_rect_norm_sq {rect!r} exceeds bmo_d_norm_sq {value!r}")


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Pool generation, one item's package work, and its check.

    ``make_pool(rng)`` returns the items and the arrays they were made
    from; ``run(item)`` is the timed package work; ``check(item, out)``
    raises :class:`CheckFailure`.  ``warmup`` lists the pool indices run
    once before timing, one per distinct input shape.
    """

    name = ""
    warmup = (0,)

    def make_pool(self, rng):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError


class LmoEquivalence(Workload):
    """Both LMO characterisations of one depth-(3,3) symbol, plus its BMO."""

    name = "lmo-equivalence"
    depth = (3, 3)

    def make_pool(self, rng):
        items = [calibration.random_hh_symbol(self.depth, rng) for _ in range(POOL_SIZE)]
        return items, [phi.coeffs for phi in items]

    def run(self, phi):
        bmo_sq, mask = norms.bmo_d_norm_sq(phi)
        return bmo_sq, mask, norms.lmo_d_norm(phi), norms.lmo_char_norm(phi)

    def check(self, phi, out):
        bmo_sq, mask, lmo_d, lmo_char = out
        check_exact_bmo(phi, bmo_sq, mask)
        # the (0,0) tail of an hh symbol is the symbol itself, and the unit
        # square carries the log weight (2 ln 2)^4 in the characterisation
        if not lmo_d >= math.sqrt(bmo_sq) * (1.0 - REL_EQ):
            raise CheckFailure(f"lmo_d_norm {lmo_d!r} below the BMO norm")
        if not lmo_char >= (2.0 * LN2) ** 4 * bmo_sq * (1.0 - REL_EQ):
            raise CheckFailure(f"lmo_char_norm {lmo_char!r} below the unit-square term")
        lo, hi = calibration.lmo_ratio_interval(self.depth[0])
        ratio = lmo_char / lmo_d ** 2
        if not lo <= ratio <= hi:
            raise CheckFailure(f"LMO ratio {ratio!r} outside [{lo}, {hi}]")


class CommutatorBound(Workload):
    """[S1, [S2, M_phi]] b and the norms of the calibrated commutator bound.

    Items with index 3 mod 4 have source depth (3,3), the rest (2,2): the
    mix is fixed by position, not drawn, so every seed has the same number
    of large closure networks.
    """

    name = "commutator-bound"
    warmup = (0, 3)

    @staticmethod
    def depth_of(i):
        return (3, 3) if i % 4 == 3 else (2, 2)

    def make_pool(self, rng):
        items, arrays = [], []
        for i in range(POOL_SIZE):
            d = self.depth_of(i)
            phi = calibration.random_hh_symbol(d, rng)
            b = calibration.random_hh_symbol(d, rng)
            items.append((phi, b))
            arrays += [phi.coeffs, b.coeffs]
        return items, arrays

    def run(self, item):
        phi_spec, b_spec = item
        phi = core.haar_inverse_2d(phi_spec)
        b = core.haar_inverse_2d(b_spec)
        out = core.haar_forward_2d(shifts.iterated_commutator_apply(phi, b))
        out_sq, out_mask = norms.bmo_d_norm_sq(out)
        lmo = norms.lmo_d_norm(core.haar_forward_2d(phi))
        b_fwd = core.haar_forward_2d(b)
        b_sq, b_mask = norms.bmo_d_norm_sq(b_fwd)
        return out, out_sq, out_mask, lmo, b_fwd, b_sq, b_mask

    def check(self, item, out):
        out_spec, out_sq, out_mask, lmo, b_fwd, b_sq, b_mask = out
        check_exact_bmo(out_spec, out_sq, out_mask)
        check_exact_bmo(b_fwd, b_sq, b_mask)
        bound = calibration.CALIBRATED["shift_commutator_bound"]
        denom = lmo * math.sqrt(b_sq)
        if not denom > 0.0:
            raise CheckFailure("zero denominator for a non-zero symbol")
        ratio = math.sqrt(out_sq) / denom
        if not ratio <= bound:
            raise CheckFailure(f"commutator ratio {ratio!r} exceeds {bound}")


class LemmaCore(Workload):
    """Norms of Pi_b E_k and Pi_{sigma_k b} on the hh block, which agree.

    The generation k cycles through all 16 pairs at depth (3,3) by item
    position, so each seed runs the same mix of k.
    """

    name = "lemma-core"
    depth = (3, 3)
    tol = 1e-8

    def make_pool(self, rng):
        items = []
        for i in range(POOL_SIZE):
            k = divmod(i % 16, 4)
            items.append((calibration.random_hh_symbol(self.depth, rng), k))
        return items, [b.coeffs for b, _ in items] + [np.array([k for _, k in items])]

    def run(self, item):
        b, k = item
        pi = paraproducts.PI
        ek = core.ProjectionSelector.expectation(*k)
        hh = core.ProjectionSelector.tail(0, 0)

        def lhs(f):
            low = core.apply_projection(core.haar_forward_2d(f), ek)
            return paraproducts.paraproduct(pi, b, core.haar_inverse_2d(low))

        sb = paraproducts.sigma_k(b, k)

        def rhs(f):
            top = core.apply_projection(core.haar_forward_2d(f), hh)
            return paraproducts.paraproduct(pi, sb, core.haar_inverse_2d(top))

        return (linop.operator_norm(linop.assemble(lhs, self.depth)),
                linop.operator_norm(linop.assemble(rhs, self.depth)))

    def check(self, item, out):
        lhs, rhs = out
        if not abs(lhs - rhs) <= self.tol:
            raise CheckFailure(f"|lhs - rhs| = {abs(lhs - rhs)!r} > {self.tol}")


class McHilbert(Workload):
    """Averaged-shift estimate of H f at three points of a step function.

    f has 3 to 6 pieces on [0, 1) with standard normal values; the points
    lie in [-0.5, 1.5] at least ``margin`` from every breakpoint, away from
    the logarithmic singularities of H f.
    """

    name = "mc-hilbert"
    n_samples = 128
    n_points = 3
    margin = 0.05
    z = 5.0

    def make_pool(self, rng):
        items, arrays = [], []
        for _ in range(POOL_SIZE):
            pieces = int(rng.integers(3, 7))
            inner = np.sort(rng.uniform(0.0, 1.0, pieces - 1))
            bp = np.concatenate(([0.0], inner, [1.0]))
            values = rng.standard_normal(pieces)
            xs = []
            while len(xs) < self.n_points:
                x = float(rng.uniform(-0.5, 1.5))
                if np.abs(bp - x).min() >= self.margin:
                    xs.append(x)
            mc_seed = int(rng.integers(0, 2 ** 63))
            items.append((hilbert.StepFunction1D(bp, values), xs, mc_seed))
            arrays += [bp, values, np.array(xs), np.array([mc_seed])]
        return items, arrays

    def run(self, item):
        f, xs, mc_seed = item
        return hilbert.mc_hilbert(f, xs, self.n_samples, mc_seed)

    def check(self, item, out):
        f, xs, _ = item
        for x, (est, err) in zip(xs, out):
            exact = hilbert.analytic_hilbert_step(f, x)
            if not abs(est - exact) <= self.z * err:
                raise CheckFailure(
                    f"H f({x!r}): estimate {est!r} vs exact {exact!r}, stderr {err!r}"
                )


WORKLOADS = {w.name: w for w in (LmoEquivalence(), CommutatorBound(), LemmaCore(), McHilbert())}


def make_inputs(workload: Workload, seed: int):
    """(items, sha256 hex digest of the arrays they were made from)."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    items, arrays = workload.make_pool(rng)
    return items, _digest(arrays)
