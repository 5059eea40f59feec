"""BMO/LMO norms: solver vs exhaustive oracle, scale weights, growth."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceFlowNetwork,
    indicator_values_1d,
    random_grid,
    random_hh_grid,
    random_hh_spectrum,
    reference_bmo_rect_norm_sq,
    reference_crop,
    reference_lmo_bounds,
    reference_pruned_max,
)
from prodbmo import closure, norms, shifts
from prodbmo.closure import ClosureInstance, _FlowNetwork, best_ratio, best_ratio_bruteforce
from prodbmo.core import (
    DyadicInterval,
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    ProjectionSelector,
    _dyadic_cells,
    apply_projection,
    haar_forward_2d,
    square_function,
)
from prodbmo.errors import ValidationError
from prodbmo.norms import (
    _energy_levels,
    _generation_bound,
    _pruned_max,
    bmo_d_norm_sq,
    bmo_d_norm_sq_bruteforce,
    bmo_norm_of_grid,
    bmo_rect_norm_sq,
    dyadic_bmo_1d_sq,
    extremal_bmo_function,
    h1_norm,
    lmo_beta_char_norm,
    lmo_char_details,
    lmo_char_norm,
    lmo_d_norm,
    lmo_directional_norm,
)

UNIT_SQUARE = DyadicRect.from_levels(0, 0, 0, 0)
QUARTER = DyadicRect.from_levels(1, 0, 1, 0)  # [0,1/2) x [0,1/2)
LN4 = math.log(4.0)


def unit_haar(depth):
    return HaarSpectrum2D.zeros(depth).with_hh_coef(UNIT_SQUARE, 1.0)


def quarter_haar(depth):
    return HaarSpectrum2D.zeros(depth).with_hh_coef(QUARTER, 1.0)


# ---------------------------------------------------------------------------
# closure machinery
# ---------------------------------------------------------------------------

def test_closure_instance_validation():
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0, -1.0],), ([[0, 1]],), [1.0])
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0],), ([[0, 1]],), [-1.0])
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0],), ([[0, 0]],), [1.0])
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0],), ([[0, 2]],), [1.0])
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0], [1.0]), ([[0, 1]],), [1.0])


def test_closure_instance_refuses_nan_weights():
    """A NaN weight is not a zero weight: it used to be dropped by the solve,
    which returned (0.5, [True, True]) here."""
    with pytest.raises(ValidationError):
        ClosureInstance(([1.0, 1.0],), ([[0, 1], [0, 2]],), [math.nan, 1.0])


def test_bruteforce_of_overflowing_weights_is_inf():
    """Squares of 1e308 overflow to inf weights; a rectangle outside a cell
    set adds 0, not 0 * inf = nan, so the maximum is inf, with no warning
    under the CLI's overflow setting."""
    phi = HaarSpectrum2D((2, 2), np.full((4, 4), 1e308))
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bmo_d_norm_sq_bruteforce(phi) == math.inf


@pytest.mark.parametrize("depth", [(2, 2), (3, 3)])
def test_nan_symbol_gives_no_finite_norm(depth):
    """One NaN hh coefficient, inside QUARTER: every norm whose search reaches
    it raises ValidationError or returns NaN, never a finite value."""
    phi = random_hh_spectrum(depth, np.random.default_rng(26))
    phi = phi.with_hh_coef(QUARTER, math.nan)
    norms_of_phi = [
        lambda: bmo_d_norm_sq(phi)[0], lambda: bmo_d_norm_sq(phi, QUARTER)[0],
        lambda: bmo_d_norm_sq_bruteforce(phi, QUARTER), lambda: bmo_rect_norm_sq(phi),
        lambda: lmo_d_norm(phi), lambda: lmo_directional_norm(phi, 1),
        lambda: lmo_directional_norm(phi, 2), lambda: lmo_char_norm(phi),
    ] + [lambda beta=beta: lmo_beta_char_norm(phi, beta)
         for beta in ((0, 0), (0, 1), (1, 0), (1, 1))]
    if depth == (2, 2):
        norms_of_phi.append(lambda: bmo_d_norm_sq_bruteforce(phi))
    for norm in norms_of_phi:
        try:
            value = norm()
        except ValidationError:
            continue
        assert math.isnan(value)


def test_closure_simple_tradeoff():
    # one cheap high-weight rect vs a rect needing an extra cell
    inst = ClosureInstance(
        widths=([1.0, 1.0],),
        ranges=([[0, 1], [0, 2]],),
        rect_weights=[3.0, 1.0],
    )
    value, mask = best_ratio(inst)
    # {cell 0}: 3/1 = 3   beats   {0,1}: 4/2 = 2
    assert value == pytest.approx(3.0)
    assert mask.tolist() == [True, False]
    assert best_ratio_bruteforce(inst) == pytest.approx(3.0)


def test_closure_prefers_joint_selection():
    inst = ClosureInstance(
        widths=([1.0, 1.0],),
        ranges=([[0, 1], [1, 2], [0, 2]],),
        rect_weights=[3.0, 3.0, 5.0],
    )
    value, mask = best_ratio(inst)
    assert value == pytest.approx(5.5)  # everything: 11/2
    assert mask.tolist() == [True, True]
    assert best_ratio_bruteforce(inst) == pytest.approx(5.5)


def test_closure_random_vs_bruteforce():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n1 = int(rng.integers(1, 5))
        shape = (n1, int(rng.integers(2 if n1 == 1 else 1, 16 // n1 + 1)))
        nr = int(rng.integers(1, 7))
        ranges = []
        for n in shape:
            lo = rng.integers(0, n, size=nr)
            ranges.append(np.column_stack((lo, rng.integers(lo + 1, n + 1))))
        inst = ClosureInstance(
            widths=tuple(rng.random(n) + 0.1 for n in shape),
            ranges=tuple(ranges),
            rect_weights=rng.random(nr),
        )
        value, mask = best_ratio(inst)
        assert value == pytest.approx(best_ratio_bruteforce(inst), rel=1e-12)
        assert inst.ratio(mask) == pytest.approx(value, rel=1e-12)


def test_closure_ratio_matches_per_rectangle_loop():
    """Cells, containment and the rectangle-order weight sum of the range
    form equal a per-rectangle loop over explicit cell lists."""
    rng = np.random.default_rng(102)
    for shape in [(5,), (3, 4), (6, 2), (2, 3, 3)]:
        nr = 12
        ranges = []
        for n in shape:
            lo = rng.integers(0, n, size=nr)
            ranges.append(np.column_stack((lo, rng.integers(lo + 1, n + 1))))
        widths = tuple(rng.integers(1, 8, size=n) / 8.0 for n in shape)  # exact area sums
        weights = rng.random(nr) * (rng.random(nr) < 0.7)
        inst = ClosureInstance(widths, tuple(ranges), weights)
        areas = widths[0]
        for w in widths[1:]:
            areas = np.multiply.outer(areas, w)
        for r in range(nr):
            axes = [np.arange(*rg[r]) for rg in ranges]
            cells = np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), shape).ravel()
            assert np.array_equal(inst.rect_cells[r], cells)
        assert inst.rect_cells is inst.rect_cells  # split once, then read per rectangle
        for _ in range(20):
            mask = rng.random(inst.n_cells) < 0.6
            if not mask.any():
                continue
            total = 0.0
            for w, cells in zip(weights, inst.rect_cells):
                if w != 0.0 and mask[cells].all():
                    total += w
            assert inst.ratio(mask) == total / areas.ravel()[mask].sum()


#: nodes s, a, b, t; arcs 0 s->a, 2 s->b, 4 a->b, 6 a->t, 8 b->t and each odd arc the reverse
HAND_ARCS = (((0, 2), (1, 4, 6), (3, 5, 8), (7, 9)), (1, 0, 2, 0, 2, 1, 3, 1, 3, 2))


def test_max_flow_is_exact_on_fraction_capacities():
    """The flow total starts at an exact 0, so exact capacities give an exact
    max flow: s -> a 1/2, s -> b 1/3, a -> b 1/7, a -> t 1/5, b -> t 2/3,
    whose min cut {s, a} costs 1/3 + 1/7 + 1/5 = 71/105."""
    caps = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(2, 3)]
    net = _FlowNetwork(*HAND_ARCS)
    net.cap = [c for cap in caps for c in (cap, Fraction(0))]
    flow, level = net.max_flow(0, 3, 0)
    assert type(flow) is Fraction and flow == Fraction(71, 105)
    assert [v >= 0 for v in level] == [True, True, False, False]


def _kernel_sweep():
    """Closure instances on which the flow kernel is compared with the
    reference: Gaussian, 30%-sparse, integer-tied and staircase symbols at
    depths 2-6, each whole, restricted to a tail and to a dyadic rectangle,
    one random 3-axis instance, and the spectra of [S1, [S2, M_phi]] b for two
    (2,2) and two (3,3) Gaussian pairs (phi, b), whose 49 and 225 non-zero
    rectangles cut the grid into 4 x 4 and 8 x 8 atoms, and 50 whole (3,3) and
    50 whole (4,4) Gaussian grids: the source visits the finest rectangles
    first, so most solves end after one phase, and about 30% of these still
    take a second one."""
    rng = np.random.default_rng(2201)
    instances = []
    for depth in [(2, 2), (3, 2), (2, 4), (3, 3), (4, 4), (5, 3), (6, 6)]:
        gauss = random_hh_spectrum(depth, rng).coeffs
        stair = haar_forward_2d(extremal_bmo_function(
            DyadicRect.from_levels(depth[0], 1, depth[1], 2), depth)).hh_only().coeffs
        symbols = [stair, gauss] if depth == (6, 6) else [
            stair, gauss, gauss * (rng.random(gauss.shape) < 0.3), np.rint(2.0 * gauss)]
        for coeffs in symbols:
            phi = HaarSpectrum2D(depth, coeffs)
            full = norms.grid_closure_instance(phi)
            instances += [full, reference_crop(full, [(0, n) for n in phi.coeffs.shape], (1, 1)),
                          norms.grid_closure_instance(phi, DyadicRect.from_levels(1, 0, 1, 1))]
    ranges = []
    for n in (3, 4, 3):
        lo = rng.integers(0, n, size=12)
        ranges.append(np.column_stack((lo, rng.integers(lo + 1, n + 1))))
    instances.append(ClosureInstance(tuple(rng.random(n) + 0.1 for n in (3, 4, 3)),
                                     tuple(ranges), rng.random(12) * (rng.random(12) < 0.8)))
    for depth in [(2, 2), (2, 2), (3, 3), (3, 3)]:
        phi, b = random_hh_grid(depth, rng), random_hh_grid(depth, rng)
        instances.append(norms.grid_closure_instance(
            haar_forward_2d(shifts.iterated_commutator_apply(phi, b))))
    for depth in [(3, 3), (4, 4)] * 50:
        instances.append(norms.grid_closure_instance(random_hh_spectrum(depth, rng)))
    return instances


def _same_max_flow(net, reference, s, t, eps):
    """net's max flow, after the reference kernel, run from the same
    capacities, gave the same flow, last-BFS levels, residual capacities
    and phase and path counts."""
    reference.cap = list(net.cap)
    flow, level = _FlowNetwork.max_flow(net, s, t, eps)
    ref_flow, ref_level = reference.max_flow(s, t, eps)
    assert type(flow) is type(ref_flow) and flow == ref_flow and level == ref_level
    assert net.cap == reference.cap
    assert (net.phases, net.paths) == (reference.phases, reference.paths)
    return flow, level


class _CheckedFlowNetwork(_FlowNetwork):
    """The package kernel, each max flow checked against the reference."""

    solves = []

    def __init__(self, head, to):
        super().__init__(head, to)
        self.reference = ReferenceFlowNetwork(head, to)

    def max_flow(self, s, t, eps):
        self.solves.append(self)
        return _same_max_flow(self, self.reference, s, t, eps)


def test_flow_kernel_matches_the_reference_kernel(monkeypatch):
    """The Dinic loops, rewritten for speed, push the same paths as the
    reference loops in tests/helpers.py: on every max flow of a seeded sweep
    the flow, the last BFS's levels, the residual capacities and the phase
    and path counts are equal, and best_ratio's values and masks are ==."""
    instances = _kernel_sweep()
    monkeypatch.setattr(closure, "_FlowNetwork", ReferenceFlowNetwork)
    expected = _solved_cold(instances)
    monkeypatch.setattr(closure, "_FlowNetwork", _CheckedFlowNetwork)
    monkeypatch.setattr(_CheckedFlowNetwork, "solves", [])
    _assert_same_solves(instances, expected)
    nets = _CheckedFlowNetwork.solves
    assert len(nets) > 70 and sum(net.phases > 1 for net in nets) > 40
    assert sum(net.paths for net in nets) > 10_000


class _CountingFlowNetwork(_FlowNetwork):
    """The package kernel, keeping every network it builds and counting its
    _dfs walks."""

    nets = []

    def __init__(self, head, to):
        super().__init__(head, to)
        self.walks = 0
        self.nets.append(self)

    def _dfs(self, s, t, level, it, eps):
        self.walks += 1
        return super()._dfs(s, t, level, it, eps)


def _work(nets):
    """(phases, _dfs walks) summed over nets."""
    return sum(net.phases for net in nets), sum(net.walks for net in nets)


def test_source_order_changes_only_the_work(monkeypatch):
    """The source visits its rectangles finest first only to save work: with
    its arcs back in id order, the enumeration order that visits the coarsest
    rectangle first, best_ratio gives == values and masks on the kernel sweep,
    and the shipped order takes strictly fewer phases and _dfs walks."""
    instances = _kernel_sweep()
    monkeypatch.setattr(closure, "_FlowNetwork", _CountingFlowNetwork)
    monkeypatch.setattr(_CountingFlowNetwork, "nets", [])
    shipped = [best_ratio(inst) for inst in instances]
    shipped_work = _work(_CountingFlowNetwork.nets)
    structure = closure._structure

    def enumeration_order(inst, active):
        s = structure(inst, active)
        return SimpleNamespace(**{**vars(s), "head": (tuple(sorted(s.head[0])), *s.head[1:])})

    monkeypatch.setattr(closure, "_structure", enumeration_order)
    monkeypatch.setattr(_CountingFlowNetwork, "nets", [])
    _assert_same_solves(instances, shipped)
    enumerated_work = _work(_CountingFlowNetwork.nets)
    assert all(a < b for a, b in zip(shipped_work, enumerated_work))


def test_flow_kernel_matches_the_reference_on_fraction_capacities():
    """Exact capacities take the same paths through both kernels: the
    hand-sized network of the exact max-flow test and a (3,3) grid network
    whose weights, rect -> cell capacities and lam are Fractions."""
    net = _FlowNetwork(*HAND_ARCS)
    caps = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(2, 3)]
    net.cap = [c for cap in caps for c in (cap, Fraction(0))]
    assert _same_max_flow(net, ReferenceFlowNetwork(*HAND_ARCS), 0, 3, 0)[0] == Fraction(71, 105)
    inst = norms.grid_closure_instance(random_hh_spectrum((3, 3), np.random.default_rng(2202)))
    active = np.flatnonzero(inst.rect_weights > 0.0)
    s = closure._structure(inst, active)
    weights = [Fraction(w) for w in inst.rect_weights[active]]
    nr, nc, n_req = s.first.size, s.cell_areas.size, s.cells.size
    lam = Fraction(best_ratio(inst)[0]) * Fraction(9, 10)
    net = _FlowNetwork(s.head, s.to)
    net.cap = [Fraction(0)] * (2 * (nr + n_req + nc))
    net.cap[0:2 * nr:2] = weights
    net.cap[2 * nr:-2 * nc:2] = [2 * sum(weights)] * n_req
    net.cap[-2 * nc::2] = [lam * Fraction(a) for a in s.cell_areas]
    flow, level = _same_max_flow(net, ReferenceFlowNetwork(s.head, s.to), 0, net.n - 1, 0)
    assert type(flow) is Fraction and 0 < flow < sum(weights) and net.paths > nr


class _PhaseLevelNetwork(_FlowNetwork):
    """The package kernel, recording for every phase the sink's level and how
    many other nodes its BFS put at that level."""

    def __init__(self, head, to, seen):
        super().__init__(head, to)
        self.seen = seen

    def _bfs(self, s, t, eps):
        level = super()._bfs(s, t, eps)
        if level[t] >= 0:
            self.seen.append((level[t], level.count(level[t]) - 1))
        return level


def _random_digraph(rng):
    """(head, to) of a random digraph on 3-8 nodes, s = 0 and t = the last node,
    with at least one parallel arc, one arc into s and one out of t."""
    n = int(rng.integers(3, 9))
    ends = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2)).tolist()
    ends += [[int(rng.integers(n)), 0], [n - 1, int(rng.integers(n))], ends[0]]
    head = [[] for _ in range(n)]
    for k, (u, v) in enumerate(ends):  # arc 2k: u -> v, arc 2k + 1 its reverse
        head[u].append(2 * k)
        head[v].append(2 * k + 1)
    return tuple(map(tuple, head)), tuple(x for u, v in ends for x in (v, u))


def test_flow_kernel_matches_the_reference_on_random_digraphs():
    """Both kernels push the same paths on seeded random digraphs with parallel
    arcs, arcs into s and out of t and residual capacity on some reverse arcs:
    float capacities with some at or just below eps, and Fraction capacities
    with eps = 0.  The sweep reaches the three-arc phase, with and without
    another node at the sink's level 3, and the path walk with the sink at
    level 2 and at level 4 or more."""
    rng = np.random.default_rng(2204)
    eps = 1e-3
    for exact in (False, True):
        phases = []
        for _ in range(300):
            head, to = _random_digraph(rng)
            net = _PhaseLevelNetwork(head, to, phases)
            if exact:
                net.cap = [Fraction(int(a), int(b)) for a, b in zip(
                    rng.integers(-4, 9, len(to)).clip(0), rng.integers(1, 8, len(to)))]
            else:
                low = rng.choice([0.0, eps / 2, eps], len(to))
                net.cap = np.where(rng.random(len(to)) < 0.4, low, rng.random(len(to))).tolist()
            reference = ReferenceFlowNetwork(head, to)
            _same_max_flow(net, reference, 0, len(head) - 1, 0 if exact else eps)
        sink_levels = [lv for lv, _ in phases]
        assert sink_levels.count(3) > 20 and sum(lv == 3 and others for lv, others in phases) > 5
        assert sink_levels.count(2) > 20 and sum(lv >= 4 for lv in sink_levels) > 10


def _solved_cold(instances):
    """best_ratio of each instance, each on an empty structure cache."""
    out = []
    for inst in instances:
        closure._STRUCTURES.clear()
        out.append(best_ratio(inst))
    closure._STRUCTURES.clear()
    return out


def _assert_same_solves(instances, expected):
    for inst, (value, mask) in zip(instances, expected):
        got, got_mask = best_ratio(inst)
        assert got == value and np.array_equal(got_mask, mask)


def test_structure_cache_is_transparent():
    """Solved cold and then warm, every value and mask is ==: Gaussian and
    30%-sparse symbols at depths 2-5, whole and restricted to an LMO tail and to
    a dyadic rectangle, and random instances on 1-3 axes."""
    rng = np.random.default_rng(2101)
    instances = []
    for depth in [(2, 2), (2, 3), (3, 3), (4, 2), (4, 4), (5, 3), (5, 5)]:
        for keep in (1.0, 0.3):
            coeffs = random_hh_spectrum(depth, rng).coeffs
            phi = HaarSpectrum2D(depth, coeffs * (rng.random(coeffs.shape) < keep))
            full = norms.grid_closure_instance(phi)
            instances += [full, reference_crop(full, [(0, n) for n in phi.coeffs.shape], (1, 1)),
                          norms.grid_closure_instance(phi, DyadicRect.from_levels(1, 0, 1, 1))]
    for shape in [(7,), (3, 4), (2, 3, 2)]:
        ranges = []
        for n in shape:
            lo = rng.integers(0, n, size=9)
            ranges.append(np.column_stack((lo, rng.integers(lo + 1, n + 1))))
        instances.append(ClosureInstance(tuple(rng.random(n) + 0.1 for n in shape),
                                         tuple(ranges), rng.random(9) * (rng.random(9) < 0.7)))
    cold = _solved_cold(instances)
    _assert_same_solves(instances, cold)  # fills the cache
    held = dict(closure._STRUCTURES)
    _assert_same_solves(instances, cold)
    assert len(held) > 40 and closure._STRUCTURES.keys() == held.keys()
    assert all(closure._STRUCTURES[key] is s for key, s in held.items())


def test_structure_cache_reads_the_weights_of_each_solve():
    """Instances on one grid and one set of rectangles, with other weights
    and other zero patterns (so other active sets, some of one size), solved
    in sequence, equal their cold answers."""
    rng = np.random.default_rng(2102)
    base = norms.grid_closure_instance(random_hh_spectrum((3, 3), rng))
    n = base.rect_weights.size
    weights = [rng.standard_normal(n) ** 2 * (rng.random(n) < keep)
               for keep in [1.0, 0.5, 1.0, 0.2, 0.0, 0.7]]
    weights += [weights[1][::-1], 3.0 * weights[1], np.roll(weights[3], 1), weights[0][::-1]]
    instances = [ClosureInstance(base.widths, base.ranges, w) for w in weights]
    _assert_same_solves(instances, _solved_cold(instances))


def test_cached_adjacency_shares_one_int_per_node():
    """The arc ends of the cached adjacency refer to one int object per node of
    the flow network: a dense (5,5) structure, whose 1,219 nodes lie mostly past
    the ints CPython shares by itself (-5..256), holds 6,400 rect -> cell arcs."""
    inst = norms.grid_closure_instance(random_hh_spectrum((5, 5), np.random.default_rng(2107)))
    s = closure._structure(inst, np.flatnonzero(inst.rect_weights > 0.0))
    n_nodes = len(s.head)
    assert n_nodes > 257 and s.n_arcs == 6400
    assert len({id(v) for v in s.to}) <= n_nodes
    assert sorted(set(s.to)) == list(range(n_nodes))


def test_cached_structures_are_read_only():
    closure._STRUCTURES.clear()
    bmo_d_norm_sq(random_hh_spectrum((3, 3), np.random.default_rng(2103)))
    (structure,) = closure._STRUCTURES.values()
    arrays = [a for v in vars(structure).values()
              for a in (v if isinstance(v, (list, tuple)) else (v,)) if isinstance(a, np.ndarray)]
    assert len(arrays) > 15
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_cached_tables_are_read_only_and_outlast_a_refused_solve():
    """The LMO searches' per-depth tables are read-only and the cached flow
    adjacency is tuples, so no solve can change them: a sequence of solves
    on one geometry, one of them refused for a NaN weight, returns == to the
    same solves each run on an empty cache."""
    phi = random_hh_spectrum((3, 3), np.random.default_rng(2106))
    for a in (*norms._depth_tables(phi.coeffs.shape),
              norms._lmo_weights(phi.coeffs.shape, (False, False), True)):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    nan, flipped = phi.coeffs.copy(), phi.coeffs.copy()
    nan[3, 5] = np.nan
    flipped[1:, 1:] = phi.coeffs[:0:-1, :0:-1]
    phis = [HaarSpectrum2D((3, 3), c) for c in (phi.coeffs, 2.0 * phi.coeffs, nan, flipped)]
    phis.append(phi)

    def solve(p):
        try:
            return bmo_d_norm_sq(p)
        except ValidationError as exc:
            return str(exc)

    cold = []
    for p in phis:
        closure._STRUCTURES.clear()
        cold.append(solve(p))
    closure._STRUCTURES.clear()
    warm = [solve(p) for p in phis]
    (structure,) = closure._STRUCTURES.values()
    assert type(structure.head) is tuple and all(type(arcs) is tuple for arcs in structure.head)
    assert type(structure.to) is tuple and len(structure.to) == sum(map(len, structure.head))
    assert "non-negative" in cold[2] and warm[2] == cold[2]
    for (value, mask), (got, got_mask) in zip(cold[:2] + cold[3:], warm[:2] + warm[3:]):
        assert got == value and np.array_equal(got_mask, mask)
    closure._STRUCTURES.clear()


def test_structure_cache_holds_at_most_the_byte_bound(monkeypatch):
    """The cache drops its least recently used geometries to hold structures
    whose memory estimates sum to at most _MAX_BYTES; the half-sparse (3,3)
    structures here are estimated at 27-44 KB each."""
    monkeypatch.setattr(closure, "_MAX_BYTES", 200_000)
    closure._STRUCTURES.clear()
    rng = np.random.default_rng(2104)
    for _ in range(20):
        coeffs = random_hh_spectrum((3, 3), rng).coeffs
        phi = HaarSpectrum2D((3, 3), coeffs * (rng.random(coeffs.shape) < 0.5))
        bmo_d_norm_sq(phi)
        held = sum(s.bytes for s in closure._STRUCTURES.values())
        assert held == closure._STRUCTURES.bytes <= 200_000
    assert 1 < len(closure._STRUCTURES) < 20
    closure._STRUCTURES.clear()


def test_structure_cache_estimate_bounds_its_memory():
    """The summed estimates of the cached structures are at least the memory
    that caching them takes, traced from an empty cache over 200 distinct
    30%-sparse (3,3) symbols and one dense (6,6) symbol."""
    rng = np.random.default_rng(2105)
    phis = []
    for _ in range(200):
        coeffs = random_hh_spectrum((3, 3), rng).coeffs
        phis.append(HaarSpectrum2D((3, 3), coeffs * (rng.random(coeffs.shape) < 0.3)))
    phis.append(random_hh_spectrum((6, 6), rng))
    closure._STRUCTURES.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for phi in phis:
            bmo_d_norm_sq(phi)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(closure._STRUCTURES) == len(phis)
    assert closure._STRUCTURES.bytes >= grown > 0
    closure._STRUCTURES.clear()


# ---------------------------------------------------------------------------
# product BMO
# ---------------------------------------------------------------------------

def test_bmo_unit_haar():
    val, mask = bmo_d_norm_sq(unit_haar((1, 1)))
    assert val == pytest.approx(1.0)
    assert mask.all()  # the only rectangle needs every cell


def test_bmo_quarter_haar():
    val, mask = bmo_d_norm_sq(quarter_haar((2, 2)))
    assert val == pytest.approx(4.0)
    expect = np.zeros((4, 4), bool)
    expect[:2, :2] = True
    assert np.array_equal(mask, expect)
    assert bmo_d_norm_sq_bruteforce(quarter_haar((2, 2))) == pytest.approx(4.0)


def test_bmo_small_beats_large():
    phi = unit_haar((2, 2)).with_hh_coef(QUARTER, 1.0)
    val, mask = bmo_d_norm_sq(phi)
    assert val == pytest.approx(4.0)  # quarter: 1/(1/4) beats full: 2/1
    assert bmo_d_norm_sq_bruteforce(phi) == pytest.approx(4.0)


def test_bmo_zero_symbol():
    val, mask = bmo_d_norm_sq(HaarSpectrum2D.zeros((2, 2)))
    assert val == 0.0
    assert not mask.any()
    assert bmo_d_norm_sq_bruteforce(HaarSpectrum2D.zeros((2, 2))) == 0.0


def test_bmo_single_fine_coefficient():
    r = DyadicRect.from_levels(1, 1, 1, 0)
    phi = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(r, 1.0)
    assert bmo_d_norm_sq_bruteforce(phi) == pytest.approx(1.0 / r.area)
    assert bmo_d_norm_sq(phi)[0] == pytest.approx(1.0 / r.area)


def test_bmo_solver_vs_oracle_random():
    rng = np.random.default_rng(103)
    for _ in range(25):
        phi = random_hh_spectrum((2, 2), rng)
        val, _ = bmo_d_norm_sq(phi)
        assert val == pytest.approx(bmo_d_norm_sq_bruteforce(phi), abs=1e-12)


def test_bmo_restricted_vs_oracle():
    rng = np.random.default_rng(107)
    for _ in range(10):
        phi = random_hh_spectrum((3, 3), rng)
        r = DyadicRect.from_levels(1, 1, 1, 0)
        val, mask = bmo_d_norm_sq(phi, restrict_to=r)
        assert val == pytest.approx(bmo_d_norm_sq_bruteforce(phi, restrict_to=r), abs=1e-12)
        # attaining cells stay inside the restriction [1/2,1) x [0,1/2)
        outside = mask.copy()
        outside[4:8, 0:4] = False
        assert not outside.any()


def test_bmo_monotone_in_weights():
    rng = np.random.default_rng(109)
    phi = random_hh_spectrum((2, 2), rng)
    base, _ = bmo_d_norm_sq(phi)
    bumped = phi.copy()
    bumped.coeffs[1, 1] = abs(bumped.coeffs[1, 1]) + 1.0
    assert bmo_d_norm_sq(bumped)[0] >= base - 1e-12


def test_bmo_quadratic_scaling():
    rng = np.random.default_rng(113)
    phi = random_hh_spectrum((2, 2), rng)
    base, _ = bmo_d_norm_sq(phi)
    scaled = HaarSpectrum2D(phi.depth, 3.0 * phi.coeffs)
    assert bmo_d_norm_sq(scaled)[0] == pytest.approx(9.0 * base, rel=1e-12)


@pytest.mark.parametrize("depth", [(2, 2), (3, 3), (4, 2)])
def test_bmo_and_lmo_scale_exactly_by_powers_of_two(depth):
    # the closure's cut threshold and its effectively infinite capacity both
    # follow the weights, so a power-of-two amplitude changes no rounding
    rng = np.random.default_rng(131)
    phi = random_hh_spectrum(depth, rng)
    value, mask = bmo_d_norm_sq(phi)
    lmo_d, lmo_char = lmo_d_norm(phi), lmo_char_norm(phi)
    for k in (-480, -33, -3, 0, 7, 480):
        scaled = HaarSpectrum2D(depth, phi.coeffs * 2.0 ** k)
        v, m = bmo_d_norm_sq(scaled)
        assert v == math.ldexp(value, 2 * k)
        assert np.array_equal(m, mask)
        assert lmo_d_norm(scaled) == math.ldexp(lmo_d, k)
        assert lmo_char_norm(scaled) == math.ldexp(lmo_char, 2 * k)
    for c in (1e-10, 1e150):
        scaled = HaarSpectrum2D(depth, phi.coeffs * c)
        assert bmo_d_norm_sq(scaled)[0] == pytest.approx(value * c * c, rel=1e-12)
        assert lmo_d_norm(scaled) == pytest.approx(lmo_d * c, rel=1e-12)
        assert lmo_char_norm(scaled) == pytest.approx(lmo_char * c * c, rel=1e-12)
    # only the hh block is scaled: a huge constant beside a tiny hh block stays finite
    tiny = HaarSpectrum2D(depth, phi.coeffs * 2.0 ** -480)
    tiny.coeffs[0, 0] = 1e300
    assert lmo_d_norm(tiny) == math.ldexp(lmo_d, -480)
    assert np.isfinite(square_function(tiny).values).all()


def test_bmo_invariant_under_dilation_into_a_rectangle():
    # carrying psi into a dyadic R of a deeper grid, h_Q -> h_(R's copy of Q)
    # with coefficient psi_Q sqrt(|R|), keeps every Carleson ratio; so open-set
    # values certified by brute force at (2,2) hold at any depth
    rng = np.random.default_rng(137)
    symbols = []
    while len(symbols) < 3:
        c = np.zeros((4, 4))
        c[1:, 1:] = rng.standard_normal((3, 3)) * (rng.random((3, 3)) < 0.5)
        psi = HaarSpectrum2D((2, 2), c)
        brute = bmo_d_norm_sq_bruteforce(psi)
        if brute > bmo_rect_norm_sq(psi) * (1.0 + 1e-9):
            symbols.append((psi, brute))
    for (psi, brute), depth, (k1, k2) in zip(
        symbols, [(5, 5), (6, 6), (6, 5)], [(2, 3), (4, 3), (1, 0)]
    ):
        i1, i2 = int(rng.integers(1 << k1)), int(rng.integers(1 << k2))
        r = DyadicRect.from_levels(k1, i1, k2, i2)
        phi = HaarSpectrum2D.zeros(depth)
        for b1 in range(1, 4):
            for b2 in range(1, 4):
                s, t = DyadicInterval.from_basis_index(b1), DyadicInterval.from_basis_index(b2)
                image = DyadicRect.from_levels(k1 + s.level, (i1 << s.level) + s.index,
                                               k2 + t.level, (i2 << t.level) + t.index)
                phi = phi.with_hh_coef(image, psi.coeffs[b1, b2] * math.sqrt(r.area))
        assert bmo_d_norm_sq(phi)[0] == pytest.approx(brute, rel=1e-12)
        val, mask = bmo_d_norm_sq(phi, restrict_to=r)
        assert val == pytest.approx(brute, rel=1e-12)
        w1, w2 = 1 << (depth[0] - k1), 1 << (depth[1] - k2)
        outside = mask.copy()
        outside[i1 * w1:(i1 + 1) * w1, i2 * w2:(i2 + 1) * w2] = False
        assert mask.any() and not outside.any()
        sibling = DyadicRect.from_levels(k1, i1 ^ 1, k2, i2)
        assert bmo_d_norm_sq(phi, restrict_to=sibling)[0] == 0.0


def _cells_of(rect, depth):
    """Boolean cell mask of a dyadic rectangle on the grid of the given depth."""
    return np.outer(indicator_values_1d(rect.s_interval, 1 << depth[0]),
                    indicator_values_1d(rect.t_interval, 1 << depth[1])) > 0


@pytest.mark.parametrize("depth", [(3, 3), (4, 2), (2, 4)])
def test_restricted_norm_equals_norm_of_open_set_projection(depth):
    """A norm restricted to R is the norm of the symbol projected onto the
    rectangles inside R, a reference built by the open-set selector and not
    by the restricted closure instance: value and mask are == for every
    dyadic R, one cell thick ones included."""
    rng = np.random.default_rng(1900 + 10 * depth[0] + depth[1])
    for density in (1.0, 0.3):
        c = random_hh_spectrum(depth, rng).coeffs
        phi = HaarSpectrum2D(depth, c * (rng.random(c.shape) < density))
        for l1, l2 in itertools.product(range(depth[0] + 1), range(depth[1] + 1)):
            for i1, i2 in itertools.product(range(1 << l1), range(1 << l2)):
                r = DyadicRect.from_levels(l1, i1, l2, i2)
                value, mask = bmo_d_norm_sq(phi, restrict_to=r)
                ref_value, ref_mask = bmo_d_norm_sq(
                    apply_projection(phi, ProjectionSelector.open_set(_cells_of(r, depth))))
                assert value == ref_value
                assert np.array_equal(mask, ref_mask)


def test_restricted_instance_equals_the_crop_of_the_full_instance():
    """A restricted grid_closure_instance builds only the rectangles inside R,
    yet its widths, ranges and weights are tobytes()-equal to the reference
    crop of the full instance, in the same order, for every dyadic R at
    depths up to (3,4)."""
    rng = np.random.default_rng(2203)
    for depth in itertools.product(range(1, 4), range(1, 5)):
        c = random_hh_spectrum(depth, rng).coeffs
        phi = HaarSpectrum2D(depth, c * (rng.random(c.shape) < 0.7))
        full = norms.grid_closure_instance(phi)
        for l1, l2 in itertools.product(range(depth[0] + 1), range(depth[1] + 1)):
            for i1, i2 in itertools.product(range(1 << l1), range(1 << l2)):
                r = DyadicRect.from_levels(l1, i1, l2, i2)
                got = norms.grid_closure_instance(phi, r)
                want = reference_crop(full, _dyadic_cells(r, depth), (0, 0))
                for a, b in zip((*got.widths, *got.ranges, got.rect_weights),
                                (*want.widths, *want.ranges, want.rect_weights)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    with pytest.raises(ValidationError, match="finer than the grid"):
        norms.grid_closure_instance(phi, DyadicRect.from_levels(4, 0, 0, 0))


def test_disjoint_supports_take_the_largest_norm():
    """Symbols supported in pairwise disjoint dyadic rectangles R_i, at a
    depth beyond brute force: the norm of the sum is the largest of their
    norms (an Omega splits into its parts inside each R_i, and its ratio is
    at most the largest of theirs), and restricted to R_i the sum has the
    norm and mask of phi_i alone."""
    depth = (6, 6)
    rng = np.random.default_rng(1951)
    rects = [DyadicRect.from_levels(1, 0, 1, 0), DyadicRect.from_levels(2, 2, 1, 1),
             DyadicRect.from_levels(1, 1, 2, 0), DyadicRect.from_levels(3, 7, 2, 3)]
    parts = [apply_projection(random_hh_spectrum(depth, rng),
                              ProjectionSelector.open_set(_cells_of(r, depth)))
             for r in rects]
    total = HaarSpectrum2D(depth, sum(p.coeffs for p in parts))
    assert bmo_d_norm_sq(total)[0] == pytest.approx(
        max(bmo_d_norm_sq(p)[0] for p in parts), rel=1e-12)
    for r, p in zip(rects, parts):
        value, mask = bmo_d_norm_sq(total, restrict_to=r)
        part_value, part_mask = bmo_d_norm_sq(p, restrict_to=r)
        assert value == part_value
        assert np.array_equal(mask, part_mask)


@pytest.mark.parametrize("depth", [(1, 1), (2, 3), (4, 2), (4, 4)])
def test_rect_norm_below_open_norm(depth):
    """The rectangular norm is the largest hh energy inside a dyadic
    rectangle over its area, summed rectangle by rectangle."""
    rng = np.random.default_rng(127)
    rects = [DyadicRect.from_levels(j1, i1, j2, i2)
             for j1 in range(depth[0]) for i1 in range(1 << j1)
             for j2 in range(depth[1]) for i2 in range(1 << j2)]
    for density in (1.0, 0.3):
        for _ in range(3):
            c = random_hh_spectrum(depth, rng).coeffs
            phi = HaarSpectrum2D(depth, c * (rng.random(c.shape) < density))
            expect = max(sum(phi.hh_coef(q) ** 2 for q in rects if r.contains(q)) / r.area
                         for r in rects)
            rect = bmo_rect_norm_sq(phi)
            assert rect == pytest.approx(expect, rel=1e-14, abs=0.0)
            assert rect <= bmo_d_norm_sq(phi)[0] + 1e-12
    # equality when a single rectangle carries all the weight
    assert bmo_rect_norm_sq(quarter_haar((2, 2))) == pytest.approx(4.0)
    assert bmo_rect_norm_sq(unit_haar((1, 1))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# LMO variants
# ---------------------------------------------------------------------------

def test_lmo_d_examples():
    assert lmo_d_norm(unit_haar((1, 1))) == pytest.approx(1.0)
    assert lmo_d_norm(quarter_haar((2, 2))) == pytest.approx(8.0)  # (2)(2) * 2
    assert lmo_d_norm(HaarSpectrum2D.zeros((2, 2))) == 0.0


def test_lmo_char_examples():
    assert lmo_char_norm(unit_haar((1, 1))) == pytest.approx(LN4 ** 4)
    assert lmo_char_norm(HaarSpectrum2D.zeros((2, 2))) == 0.0


def test_lmo_directional_examples():
    assert lmo_directional_norm(unit_haar((1, 1)), 1) == pytest.approx(1.0)
    assert lmo_directional_norm(quarter_haar((2, 2)), 1) == pytest.approx(4.0)
    assert lmo_directional_norm(HaarSpectrum2D.zeros((2, 2)), 2) == 0.0


@pytest.mark.parametrize("depth", [(3, 2), (2, 3)])
def test_lmo_directional_matches_tail_projection_loop(depth):
    """The docstring's definition, max over i of (i+1) * ||Q^(axis)_i phi||_BMO,
    written with the one-axis tail selectors q1/q2."""
    rng = np.random.default_rng(71)
    for _ in range(3):
        phi = random_hh_spectrum(depth, rng)
        for axis, q in ((1, ProjectionSelector.q1), (2, ProjectionSelector.q2)):
            expected = max(
                (i + 1) * math.sqrt(bmo_d_norm_sq(apply_projection(phi, q(i)))[0])
                for i in range(depth[axis - 1])
            )
            assert lmo_directional_norm(phi, axis) == expected


def test_lmo_beta_reductions():
    rng = np.random.default_rng(131)
    phi = random_hh_spectrum((2, 2), rng)
    assert lmo_beta_char_norm(phi, (1, 1)) == pytest.approx(bmo_d_norm_sq(phi)[0])
    assert lmo_beta_char_norm(phi, (0, 0)) == pytest.approx(lmo_char_norm(phi))
    assert lmo_beta_char_norm(unit_haar((1, 1)), (0, 1)) == pytest.approx(LN4 ** 2)


def _lmo_tail_exhaustive(phi, pinned):
    """Every tail solved, in generation order."""
    best = 0.0
    for j1 in range(1 if pinned[0] else phi.depth[0]):
        for j2 in range(1 if pinned[1] else phi.depth[1]):
            tail = apply_projection(phi, ProjectionSelector.tail(j1, j2))
            if tail.coeffs.any():
                best = max(best, (j1 + 1) * (j2 + 1) * math.sqrt(bmo_d_norm_sq(tail)[0]))
    return best


def _lmo_char_exhaustive(phi, beta):
    """Every dyadic rectangle solved; the first strict maximum in level,
    then index order, s-axis outer."""
    sides = [[(DyadicInterval(0, 0), 1.0)] if b else
             [(DyadicInterval(j, i), ((j + 2) * math.log(2.0)) ** 2)
              for j in range(depth) for i in range(1 << j)]
             for b, depth in zip(beta, phi.depth)]
    best, best_rect = 0.0, DyadicRect(DyadicInterval(0, 0), DyadicInterval(0, 0))
    for s, ws in sides[0]:
        for t, wt in sides[1]:
            val = ws * wt * bmo_d_norm_sq(phi, DyadicRect(s, t))[0]
            if val > best:
                best, best_rect = val, DyadicRect(s, t)
    return best, best_rect


@pytest.mark.parametrize("depth", [(1, 1), (1, 3), (3, 2), (3, 3), (4, 4)])
def test_pruned_lmo_searches_equal_exhaustive_search(depth):
    """Bound pruning skips only solves that cannot change the maximum or the
    first rectangle attaining it: values and rectangles are ==."""
    rng = np.random.default_rng(1700 + 10 * depth[0] + depth[1])
    shape = (1 << depth[0], 1 << depth[1])
    symbols = [np.zeros(shape)]
    for density in (1.0, 0.3, 0.1):
        c = np.zeros(shape)
        c[1:, 1:] = rng.standard_normal((shape[0] - 1, shape[1] - 1))
        c[1:, 1:] *= rng.random(c[1:, 1:].shape) < density
        symbols.append(c)
    for b1, b2 in [(1, 1), (shape[0] - 1, shape[1] - 1), (1, shape[1] - 1)]:
        c = np.zeros(shape)  # one coefficient: many candidates tie
        c[b1, b2] = 1.5
        symbols.append(c)
    for c in symbols:
        phi = HaarSpectrum2D(depth, c)
        values = [lmo_char_details(phi)[0], bmo_rect_norm_sq(phi)]
        assert lmo_char_details(phi) == _lmo_char_exhaustive(phi, (0, 0))
        for beta in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            values.append(lmo_beta_char_norm(phi, beta))
            assert values[-1] == _lmo_char_exhaustive(phi, beta)[0]
        values += [lmo_d_norm(phi), lmo_directional_norm(phi, 1), lmo_directional_norm(phi, 2)]
        assert values[-3] == _lmo_tail_exhaustive(phi, (False, False))
        assert values[-2] == _lmo_tail_exhaustive(phi, (False, True))
        assert values[-1] == _lmo_tail_exhaustive(phi, (True, False))
        assert all(type(v) is float for v in values)  # not np.float64, whose repr differs


def _descends(a, b):
    """Whether 1-d basis index a is b or below it."""
    shift = a.bit_length() - b.bit_length()
    return shift >= 0 and a >> shift == b


@pytest.mark.parametrize("depth", [(1, 1), (1, 3), (3, 2), (3, 3), (4, 4)])
def test_per_generation_bounds_enclose_every_restricted_and_tail_norm(depth):
    """For every dyadic R, E/|R| <= ||phi restricted to R||^2 <= U(R), and
    for every tail j (the pinned, directional tails are (0, j2) and (j1, 0))
    its energy <= its squared norm <= the largest U of generation j; that
    squared norm == the largest restricted one over the generation-j
    rectangles, the identity the LMO search rests on.  Each U is also at
    most E 2^deep, the energy times 2 to the deepest level sum of a weighted
    rectangle, recomputed here from the coefficients."""
    rng = np.random.default_rng(1800 + 10 * depth[0] + depth[1])
    n1, n2 = 1 << depth[0], 1 << depth[1]
    symbols = []
    for density in (1.0, 0.3):
        c = np.zeros((n1, n2))
        c[1:, 1:] = rng.standard_normal((n1 - 1, n2 - 1)) * (rng.random((n1 - 1, n2 - 1)) < density)
        symbols.append(c)
    for b1, b2 in [(1, 1), (n1 - 1, 1)]:
        c = np.zeros((n1, n2))
        c[b1, b2] = 0.8
        symbols.append(c)
    slack = 1.0 + 1e-12
    for c in symbols:
        phi = HaarSpectrum2D(depth, c)
        upper = _generation_bound(_energy_levels(phi)[0])
        weighted = [(a1, a2, a1.bit_length() + a2.bit_length() - 2, c[a1, a2] ** 2)
                    for a1, a2 in zip(*map(np.ndarray.tolist, np.nonzero(c)))]

        def check(members, value, up, area):
            energy = sum(w for *_, w in members)
            deep = max((q for _, _, q, _ in members), default=-1)
            assert energy / area <= value * slack
            assert value <= up * slack
            assert up <= energy * 2.0 ** deep * slack

        restricted = np.zeros((n1, n2))
        for b1, b2 in itertools.product(range(1, n1), range(1, n2)):
            rect = DyadicRect(DyadicInterval.from_basis_index(b1), DyadicInterval.from_basis_index(b2))
            members = [m for m in weighted if _descends(m[0], b1) and _descends(m[1], b2)]
            restricted[b1, b2] = bmo_d_norm_sq(phi, rect)[0]
            check(members, restricted[b1, b2], upper[b1, b2],
                  2.0 ** (2 - b1.bit_length() - b2.bit_length()))
        for j1, j2 in itertools.product(range(depth[0]), range(depth[1])):
            members = [m for m in weighted if m[0] >> j1 and m[1] >> j2]
            tail = apply_projection(phi, ProjectionSelector.tail(j1, j2))
            value = bmo_d_norm_sq(tail)[0] if members else 0.0
            check(members, value, upper[1 << j1:2 << j1, 1 << j2:2 << j2].max(), 1.0)
            assert value == restricted[1 << j1:2 << j1, 1 << j2:2 << j2].max()


@pytest.mark.parametrize("depth, tail_solves, rect_solves", [((3, 3), 23, 22), ((4, 4), 22, 20)])
def test_lmo_searches_solve_about_one_closure_per_symbol(depth, tail_solves, rect_solves,
                                                         monkeypatch):
    """On 20 seeded Gaussian symbols the per-generation bounds prune all but
    about one solve per search; the looser bound E 2^deep would leave 88 and
    78 solves at (3,3), 238 and 338 at (4,4)."""
    count = [0]
    solve = norms.best_ratio

    def counted(inst):
        count[0] += 1
        return solve(inst)

    monkeypatch.setattr(norms, "best_ratio", counted)
    solves = [0, 0]
    for i in range(20):
        phi = random_hh_spectrum(depth, np.random.default_rng(1750 + 10 * depth[0] + i))
        for k, search in enumerate((lmo_d_norm, lmo_char_norm)):
            before = count[0]
            search(phi)
            solves[k] += count[0] - before
    assert solves[0] <= tail_solves and solves[1] <= rect_solves


def test_pruned_max_keeps_the_first_index_among_ties():
    """Candidates run by decreasing lower bound; equal bounds settle a
    candidate without evaluating it, an upper bound below the best skips
    one, and an equal value at a lower index wins.  On seeded tied bounds
    the result and the candidates evaluated, in order, are those of the
    one-candidate-at-a-time reference loop."""
    values = [5.0, 5.0, 2.0, 0.0]
    seen = []

    def value(n):
        seen.append(n)
        return values[n]

    assert _pruned_max([(1.0, 5.0), (5.0, 5.0), (2.0, 2.0), (0.0, 0.0)], value) == (5.0, 0)
    assert seen == [0]
    seen.clear()  # a lower bound below the upper one, if only by one ulp, is evaluated
    assert _pruned_max([(4.0, 4.0), (math.nextafter(5.0, 0.0), 5.0)], value) == (5.0, 1)
    assert seen == [1]
    rng = np.random.default_rng(1950)  # small integers: many tied bounds and values
    for size in range(1, 40):
        for _ in range(10):
            lower = rng.integers(0, 6, size).astype(float)
            upper = lower + rng.integers(0, 3, size) * (rng.random(size) < 0.7)
            values = lower + np.floor(rng.random(size) * (upper - lower + 1))
            bounds = np.column_stack((lower, upper))
            runs = []
            for search in (_pruned_max, reference_pruned_max):
                seen.clear()
                runs.append((search(bounds, value), list(seen)))
            assert runs[0] == runs[1]


@pytest.mark.parametrize("d1", range(1, 7))
def test_equal_bounds_settle_a_candidate_at_its_solved_value(d1, monkeypatch):
    """Wherever a candidate's lower and upper bounds are equal, the closure
    solve that _pruned_max skips gives back that same float, and every
    candidate it solves lies between its bounds, for both searches, all four
    beta and both directional norms, on Gaussian, sparse, integer-tied and
    staircase symbols of depth (d1, 1..6)."""
    settled = []
    pruned_max = norms._pruned_max
    slack = 1.0 + 1e-12

    def checked(bounds, value):
        def enclosed(n):
            lower, upper = bounds[n]
            solved = value(n)
            assert lower <= solved * slack and solved <= upper * slack
            return solved

        settled.extend((lower, value(n)) for n, (lower, upper) in enumerate(bounds)
                       if lower == upper)
        return pruned_max(bounds, enclosed)

    monkeypatch.setattr(norms, "_pruned_max", checked)
    rng = np.random.default_rng(1900 + d1)
    for d2 in range(1, 7):
        shape = (1 << d1, 1 << d2)
        gauss = np.zeros(shape)
        gauss[1:, 1:] = rng.standard_normal((shape[0] - 1, shape[1] - 1))
        tied = rng.integers(-2, 3, shape) * (rng.random(shape) < 0.6)
        s, t = (DyadicInterval(j, int(rng.integers(1 << j)))
                for j in (int(rng.integers(d1 + 1)), int(rng.integers(d2 + 1))))
        stair = haar_forward_2d(extremal_bmo_function(DyadicRect(s, t), (d1, d2))).coeffs
        for c in (gauss, gauss * (rng.random(shape) < 0.2), tied, stair):
            phi = HaarSpectrum2D((d1, d2), c)
            lmo_d_norm(phi), lmo_directional_norm(phi, 1), lmo_directional_norm(phi, 2)
            for beta in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                lmo_beta_char_norm(phi, beta)
    assert settled and all(lower == solved for lower, solved in settled)


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, RuntimeError, RuntimeWarning) as exc:  # warnings raise in the suite
        return type(exc), str(exc)


def test_lmo_search_bounds_and_values_equal_the_reference(monkeypatch):
    """The LMO searches, on their per-depth tables, return the same values,
    attaining rectangles and errors as the reference in tests/helpers.py,
    which rebuilt every table per call, and the char forms build the same
    bounds: both pinned axes, all four beta and bmo_rect_norm_sq, on
    Gaussian, 60%-sparse, integer and staircase symbols at amplitudes 1 and
    2^+-600.  The tail forms are compared by value: the reference searches
    whole tails, the package the dyadic rectangles that tile them."""
    seen = []
    pruned_max = norms._pruned_max

    def recorded(bounds, value):
        seen.append(bounds)
        return pruned_max(bounds, value)

    monkeypatch.setattr(norms, "_pruned_max", recorded)
    rng = np.random.default_rng(3001)
    searches = [(dict(pinned=(False, False)), lmo_d_norm),
                (dict(pinned=(False, True)), lambda phi: lmo_directional_norm(phi, 1)),
                (dict(pinned=(True, False)), lambda phi: lmo_directional_norm(phi, 2)),
                (dict(beta=(0, 0)), lmo_char_details)]
    searches += [(dict(beta=beta), lambda phi, beta=beta: lmo_beta_char_norm(phi, beta))
                 for beta in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    compared, raised = 0, 0
    for depth in [(1, 1), (1, 3), (2, 2), (3, 3), (5, 2), (2, 4), (3, 6)]:
        gauss = random_hh_spectrum(depth, rng).coeffs
        tied = rng.integers(-2, 3, gauss.shape) * (gauss != 0.0)
        stair = haar_forward_2d(extremal_bmo_function(
            DyadicRect.from_levels(depth[0], 1, depth[1], 1), depth)).hh_only().coeffs
        for c in (gauss, gauss * (rng.random(gauss.shape) < 0.4), tied, stair):
            for amplitude in (1.0, 2.0 ** 600, 2.0 ** -600):
                phi = HaarSpectrum2D(depth, amplitude * c)
                assert (_outcome(lambda: bmo_rect_norm_sq(phi))
                        == _outcome(lambda: reference_bmo_rect_norm_sq(phi)))
                for kind, search in searches:
                    expected = _outcome(lambda: reference_lmo_bounds(phi, **kind))
                    seen.clear()
                    got = _outcome(lambda: search(phi))
                    if isinstance(expected[0], type):
                        assert got == expected
                        raised += 1
                        continue
                    bounds, value, at = expected
                    assert got == ((value, at) if search is lmo_char_details else value)
                    if "beta" in kind:
                        assert [s.tolist() for s in seen] == [bounds]
                        compared += len(bounds)
    assert compared > 3000 and raised > 10


@pytest.mark.parametrize("depth", [(1, 1), (3, 3), (4, 2)])
def test_lmo_bounds_square_only_the_hh_block(depth):
    """cc, hc and ch coefficients of 1e200, whose squares overflow, leave
    the LMO and rectangle norms warning-free (warnings fail the suite) and
    equal to those of the hh block alone."""
    phi = random_hh_spectrum(depth, np.random.default_rng(3002))
    loud = phi.coeffs.copy()
    loud[0, :] = loud[:, 0] = 1e200
    loud = HaarSpectrum2D(depth, loud)
    for norm in (lmo_d_norm, lambda p: lmo_directional_norm(p, 1),
                 lambda p: lmo_directional_norm(p, 2), lmo_char_norm, bmo_rect_norm_sq):
        assert norm(loud) == norm(phi)


def test_lmo_and_grid_bmo_homogeneous_at_extreme_amplitudes():
    """Squares are taken after an exact power-of-two rescaling, so the norms
    stay finite and homogeneous wherever the inputs are representable."""
    rng = np.random.default_rng(157)
    phi = random_hh_spectrum((3, 3), rng)
    f = random_grid((3, 3), rng)
    lmo, bmo = lmo_d_norm(phi), bmo_norm_of_grid(f)
    for a in (1e-300, 1e-200, 1e-160, 1e-100, 1e100, 1e155, 1e200, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled_lmo = lmo_d_norm(HaarSpectrum2D(phi.depth, a * phi.coeffs))
            scaled_bmo = bmo_norm_of_grid(GridFunction2D(f.depth, a * f.values))
        assert math.isfinite(scaled_lmo) and math.isfinite(scaled_bmo)
        assert scaled_lmo == pytest.approx(a * lmo, rel=1e-12, abs=0.0)
        assert scaled_bmo == pytest.approx(a * bmo, rel=1e-12, abs=0.0)


def test_h1_norm_examples():
    f = GridFunction2D((1, 1), [[1.0, -1.0], [-1.0, 1.0]])
    assert h1_norm(f) == pytest.approx(1.0)
    assert h1_norm(GridFunction2D.zeros((2, 2))) == 0.0
    # corner indicator mean-removed in both variables equals h_R / 4,
    # so the square function is constant 1/4
    g = GridFunction2D((1, 1), np.outer([0.5, -0.5], [0.5, -0.5]))
    assert h1_norm(g) == pytest.approx(0.25)


@pytest.mark.parametrize("depth", [(1, 1), (3, 3), (4, 2), (5, 5)])
def test_square_function_and_h1_scale_exactly_by_powers_of_two(depth):
    """Scaling by 2^k is exact in floating point, so S[2^k f] == 2^k S[f]
    bit for bit, also where the squared coefficients leave the float range
    (about 2^±1022) while S[f] itself does not."""
    rng = np.random.default_rng(sum(depth))
    spec = HaarSpectrum2D(depth, rng.standard_normal((1 << depth[0], 1 << depth[1])))
    f = random_grid(depth, rng)
    base, h1 = square_function(spec).values, h1_norm(f)
    for k in (-520, -3, 0, 7, 520):
        scale = 2.0 ** k
        scaled = square_function(HaarSpectrum2D(depth, spec.coeffs * scale)).values
        assert np.array_equal(scaled, base * scale)
        assert h1_norm(f * scale) == h1 * scale


# ---------------------------------------------------------------------------
# extremal staircases and growth
# ---------------------------------------------------------------------------

def test_extremal_unit_square_is_constant():
    b = extremal_bmo_function(UNIT_SQUARE, (2, 2))
    assert np.all(b.values == 1.0)


def test_extremal_half_strip():
    r = DyadicRect(DyadicInterval(1, 0), DyadicInterval(0, 0))
    b = extremal_bmo_function(r, (2, 2))
    assert np.all(b.values[:2, :] == 2.0)
    assert np.all(b.values[2:, :] == 1.0)


def test_extremal_deep_corner():
    r = DyadicRect.from_levels(2, 0, 2, 0)
    b = extremal_bmo_function(r, (3, 3))
    assert np.all(b.values[:2, :2] == 9.0)


def test_extremal_norm_uniformly_bounded_small_sweep():
    worst = 0.0
    for depth in [(2, 2), (3, 3)]:
        for j1 in range(depth[0] + 1):
            for j2 in range(depth[1] + 1):
                for i1 in range(1 << j1):
                    for i2 in range(1 << j2):
                        r = DyadicRect.from_levels(j1, i1, j2, i2)
                        b = extremal_bmo_function(r, depth)
                        val = math.sqrt(bmo_d_norm_sq(haar_forward_2d(b))[0])
                        worst = max(worst, val)
    # uniform bound over rectangles; the calibration sweep pins it at (4,4)
    assert worst < 2.0


def test_dyadic_bmo_1d():
    # one coarse coefficient: mass 1 on [0,1)
    h = np.array([-1.0, -1.0, 1.0, 1.0])
    assert dyadic_bmo_1d_sq(h) == pytest.approx(1.0)
    # single fine Haar at level 1: mass 1 on interval of length 1/2
    h2 = np.array([-math.sqrt(2.0), math.sqrt(2.0), 0.0, 0.0])
    assert dyadic_bmo_1d_sq(h2) == pytest.approx(2.0)


@pytest.mark.parametrize("depth", [(2, 2), (3, 3), (4, 2), (2, 5), (5, 5)])
def test_bmo_of_tensor_product_factorises(depth):
    """A depth-free oracle for the closure solver: the hh part of a tensor
    product a (x) b has product BMO square equal to the product of the
    1-d dyadic BMO squares of a and b."""
    rng = np.random.default_rng(1000 * depth[0] + depth[1])
    a = rng.standard_normal(1 << depth[0])
    b = rng.standard_normal(1 << depth[1])
    spec = haar_forward_2d(GridFunction2D(depth, np.outer(a, b)))
    hh = apply_projection(spec, ProjectionSelector.tail(0, 0))
    assert bmo_d_norm_sq(hh)[0] == pytest.approx(
        dyadic_bmo_1d_sq(a) * dyadic_bmo_1d_sq(b), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_bmo_of_staircase(n):
    """A depth-free oracle where open sets beat rectangles: n + 1 Haar
    functions of weight 2^-n on the staircase [0, 2^-k) x [0, 2^(k-n)),
    k = 0..n, whose union has area (n + 2) 2^-(n+1), so the product BMO
    square is 2(n+1)/(n+2) while every single rectangle gives 1."""
    depth = (n + 1, n + 1)
    phi = HaarSpectrum2D.zeros(depth)
    expected = np.zeros((1 << (n + 1), 1 << (n + 1)), dtype=bool)
    for k in range(n + 1):
        phi = phi.with_hh_coef(DyadicRect.from_levels(k, 0, n - k, 0), 2.0 ** (-n / 2))
        expected[:1 << (n + 1 - k), :1 << (k + 1)] = True
    value, mask = bmo_d_norm_sq(phi)
    assert value == pytest.approx(2 * (n + 1) / (n + 2), rel=1e-12)
    assert np.array_equal(mask, expected)
    assert bmo_rect_norm_sq(phi) == pytest.approx(1.0, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]).flatmap(
    lambda depth: st.tuples(st.just(depth), st.lists(
        st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        min_size=1 << sum(depth), max_size=1 << sum(depth)))))
def test_bmo_matches_bruteforce_and_axis_swap(drawn):
    """On sparse symbols of at most 16 cells the solver meets the
    exhaustive oracle, and swapping the axes transposes the problem."""
    depth, coefs = drawn
    coefs = np.reshape(coefs, (1 << depth[0], 1 << depth[1]))
    value, mask = bmo_d_norm_sq(HaarSpectrum2D(depth, coefs))
    swapped, swapped_mask = bmo_d_norm_sq(HaarSpectrum2D(depth[::-1], coefs.T))
    assert value == pytest.approx(bmo_d_norm_sq_bruteforce(HaarSpectrum2D(depth, coefs)),
                                  rel=1e-12, abs=0.0)
    assert swapped == pytest.approx(value, rel=1e-12, abs=0.0)
    assert np.array_equal(swapped_mask, mask.T)


@pytest.fixture
def flow_count(monkeypatch):
    """Counts the max-flow solves of the closure."""
    count = [0]
    solve = _FlowNetwork.max_flow

    def counted(self, *args):
        count[0] += 1
        return solve(self, *args)

    monkeypatch.setattr(_FlowNetwork, "max_flow", counted)
    return count


@pytest.mark.parametrize("depth", [(3, 3), (4, 2), (5, 5)])
def test_warm_start_certifies_a_tensor_symbol_in_one_flow(depth, flow_count):
    """A tensor product attains its norm on a rectangle, the warm start, so
    the first flow is the certificate."""
    rng = np.random.default_rng(90 + depth[0])
    a, b = rng.standard_normal(1 << depth[0]), rng.standard_normal(1 << depth[1])
    hh = apply_projection(haar_forward_2d(GridFunction2D(depth, np.outer(a, b))),
                          ProjectionSelector.tail(0, 0))
    assert bmo_d_norm_sq(hh)[0] == pytest.approx(
        dyadic_bmo_1d_sq(a) * dyadic_bmo_1d_sq(b), rel=1e-12)
    assert flow_count[0] == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_warm_start_solves_a_staircase_in_two_flows(n, flow_count):
    """Open set beats every rectangle: one flow improves the warm start to
    the staircase, the second certifies it."""
    phi = HaarSpectrum2D.zeros((n + 1, n + 1))
    for k in range(n + 1):
        phi = phi.with_hh_coef(DyadicRect.from_levels(k, 0, n - k, 0), 2.0 ** (-n / 2))
    assert bmo_d_norm_sq(phi)[0] == pytest.approx(2 * (n + 1) / (n + 2), rel=1e-12)
    assert flow_count[0] == 2


def test_dinkelbach_settles_at_the_certified_value(monkeypatch):
    """With a negative tolerance the flow certificate cannot fire, so a solve that
    returns left by the settle exit, when a round no longer raises the ratio: each
    value is the certified one, and the ratio of the returned mask."""
    rng = np.random.default_rng(37)
    phis = [random_hh_spectrum((3, 3), rng) for _ in range(10)]
    certified = [bmo_d_norm_sq(phi)[0] for phi in phis]
    monkeypatch.setattr(closure, "_REL_TOL", -1e-9)
    for phi, expected in zip(phis, certified):
        value, mask = bmo_d_norm_sq(phi)
        assert value == expected
        assert norms.grid_closure_instance(phi).ratio(mask.ravel()) == value


@pytest.mark.parametrize("depth", [(3, 3), (3, 2)])
def test_closure_returns_the_largest_optimal_set(depth):
    """Two disjoint squares of equal weight are each optimal, and so is
    their union: the returned mask is the union, in both axis orders."""
    phi = HaarSpectrum2D.zeros(depth)
    phi = phi.with_hh_coef(DyadicRect.from_levels(1, 0, 1, 0), 0.7)
    phi = phi.with_hh_coef(DyadicRect.from_levels(1, 1, 1, 1), 0.7)
    n1, n2 = 1 << depth[0], 1 << depth[1]
    expected = np.zeros((n1, n2), dtype=bool)
    expected[:n1 // 2, :n2 // 2] = expected[n1 // 2:, n2 // 2:] = True
    value, mask = bmo_d_norm_sq(phi)
    assert value == pytest.approx(4 * 0.49, rel=1e-12)
    assert np.array_equal(mask, expected)
    swapped, swapped_mask = bmo_d_norm_sq(HaarSpectrum2D(depth[::-1], phi.coeffs.T))
    assert swapped == value
    assert np.array_equal(swapped_mask, mask.T)


def test_best_ratio_refuses_a_network_above_its_memory_estimate(monkeypatch):
    """A network is also refused by its memory estimate, 225 bytes per arc
    plus 475 per rectangle or atom, before it is built: the dense (4,4)
    symbol's 1,024 arcs, 225 rectangles and 64 atoms come to 367,675 bytes.
    The refusal holds once the geometry is cached too."""
    phi = random_hh_spectrum((4, 4), np.random.default_rng(71))
    closure._STRUCTURES.clear()
    monkeypatch.setattr(closure, "_MAX_BYTES", 367_674)
    with pytest.raises(ValidationError, match="1024 arcs and 289 rectangles and atoms"):
        bmo_d_norm_sq(phi)
    monkeypatch.setattr(closure, "_MAX_BYTES", 367_675)
    assert bmo_d_norm_sq(phi)[0] > 0.0
    assert [s.n_arcs for s in closure._STRUCTURES.values()] == [1024]
    monkeypatch.setattr(closure, "_MAX_BYTES", 367_674)
    with pytest.raises(ValidationError, match="1024 arcs and 289 rectangles and atoms"):
        bmo_d_norm_sq(phi)


def _extremal_growth_sweep(depth):
    """{rect: (||b||, ratios, attained)} for the staircase b of every dyadic
    rectangle at the depth, by a per-rectangle PrefixTable loop: ratios[k1, k2]
    is max |m_Q b| / ((k1+1)(k2+1) ||b||) over the rectangles Q of generation
    (k1, k2), and attained the signed quotient on the rectangle itself;
    (0.0, {}, None) when ||b|| vanishes."""
    from prodbmo.core import PrefixTable, dyadic_rect_mean

    generations = list(itertools.product(range(depth[0] + 1), range(depth[1] + 1)))
    out = {}
    for j1, j2 in generations:
        for i1, i2 in itertools.product(range(1 << j1), range(1 << j2)):
            r = DyadicRect.from_levels(j1, i1, j2, i2)
            b = extremal_bmo_function(r, depth)
            bnorm = math.sqrt(bmo_d_norm_sq(haar_forward_2d(b))[0])
            if bnorm == 0.0:
                out[r] = (0.0, {}, None)
                continue
            pt = PrefixTable(b)
            ratios = {}
            for k1, k2 in generations:
                worst = max(abs(dyadic_rect_mean(pt, DyadicRect.from_levels(k1, p1, k2, p2)))
                            for p1 in range(1 << k1) for p2 in range(1 << k2))
                ratios[k1, k2] = worst / ((k1 + 1) * (k2 + 1) * bnorm)
            out[r] = (bnorm, ratios, dyadic_rect_mean(pt, r) / ((j1 + 1) * (j2 + 1) * bnorm))
    return out


def test_growth_of_means_over_extremal_family():
    """The growth constant of the staircase family is depth-uniform (the
    shallow members dominate) and the bound is attained up to a constant;
    the calibration's pyramid reads equal the per-rectangle loop exactly."""
    from prodbmo.calibration import staircase_growth

    worst, attained = {}, {}
    for depth in ((2, 2), (3, 3)):
        sweep = _extremal_growth_sweep(depth)
        for r, expected in sweep.items():
            assert staircase_growth(r, depth) == expected, (depth, r)
        family = [v for r, v in sweep.items()
                  if r.s_interval.index == r.t_interval.index == 0 and v[0] > 0.0]
        worst[depth] = max(max(ratios.values()) for _, ratios, _ in family)
        attained[depth] = max(abs(a) for _, _, a in family)
    assert worst[3, 3] <= worst[2, 2] + 1e-9  # no growth with depth
    assert worst[2, 2] < 10.0  # pinned by the calibration sweep
    assert min(attained.values()) > 0.5  # sharpness
