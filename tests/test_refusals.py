"""Input refusals that no other test reaches: each raises a ValidationError."""

import json

import numpy as np
import pytest

from prodbmo import calibration, closure, norms, shifts
from prodbmo.cli import cli_dispatch, load_function_file, save_function_file
from prodbmo.closure import ClosureInstance
from prodbmo.core import (DyadicInterval, DyadicRect, GridFunction2D, HaarSpectrum2D,
                          ProjectionSelector, apply_projection, conditional_expectation_grid,
                          haar_forward_2d)
from prodbmo.errors import ValidationError
from prodbmo.hilbert import RandomDyadicGrid, StepFunction1D
from prodbmo.linop import DenseOperator, assemble, operator_norm
from prodbmo.norms import extremal_bmo_function, lmo_beta_char_norm, lmo_directional_norm
from prodbmo.paraproducts import ALL_NINE_TAGS, sigma1_k, sigma_k
from prodbmo.shifts import (embed_grid, embed_spectrum, iterated_commutator_apply,
                            part_commutator_apply, truncating_shift)


def _nan_grid(g):
    return GridFunction2D(g.depth, np.full_like(g.values, np.nan))


#: each public norm called on a batch of three (2,2) spectra (grids for the grid norms)
BATCHED_NORMS = {
    "bmo_d_norm_sq": norms.bmo_d_norm_sq,
    "bmo_d_norm_sq_bruteforce": norms.bmo_d_norm_sq_bruteforce,
    "bmo_rect_norm_sq": norms.bmo_rect_norm_sq,
    "bmo_norm_of_grid": lambda c: norms.bmo_norm_of_grid(GridFunction2D(c.depth, c.coeffs)),
    "h1_norm": lambda c: norms.h1_norm(GridFunction2D(c.depth, c.coeffs)),
    "lmo_d_norm": norms.lmo_d_norm,
    "lmo_directional_norm": lambda c: norms.lmo_directional_norm(c, 1),
    "lmo_beta_char_norm": lambda c: norms.lmo_beta_char_norm(c, (1, 0)),
    "lmo_char_norm": norms.lmo_char_norm,
    "lmo_char_details": norms.lmo_char_details,
}


def _function_file_one_value_short(tmp_path):
    """A (1, 2) function file with 7 values (the CLI exits 2 on it, see
    ``test_cli.py::test_malformed_input_file_exit_2``)."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"depth": [1, 2], "values": [0.0] * 7}))
    load_function_file(str(path))


#: id -> (message, call(tmp_path)): the call raises a ValidationError with the message
REFUSALS = {
    "interval-level-31": ("level 31 out of range", lambda _: DyadicInterval(31, 0)),
    "ancestor-below-level": ("ancestor level", lambda _: DyadicInterval(2, 1).ancestor(3)),
    "basis-index-0": ("must be >= 1", lambda _: DyadicInterval.from_basis_index(0)),
    "grid-shape": ("does not match depth", lambda _: GridFunction2D((2, 2), np.zeros((3, 4)))),
    "open-set-mask-shape": ("mask shape", lambda _: apply_projection(
        HaarSpectrum2D.zeros((2, 2)), ProjectionSelector.open_set(np.ones((4, 2), bool)))),
    "operator-shape": ("matrix shape", lambda _: DenseOperator((1, 1), np.zeros((3, 3)))),
    "operator-nan": ("non-finite", lambda _: DenseOperator((1, 1), np.full((4, 4), np.nan))),
    "assemble-space": ("space must be", lambda _: assemble(lambda c: c, (1, 1), space="bogus")),
    "assemble-wrong-type": ("must return a GridFunction2D",
                            lambda _: assemble(haar_forward_2d, (1, 1), space="grid")),
    "assemble-non-finite": ("finite values", lambda _: assemble(_nan_grid, (1, 1))),
    "assemble-depth-5-5": (r"J1 \+ J2 <= 8, got depth \[5, 5\]",
                           lambda _: assemble(lambda f: f, (5, 5))),
    "norm-of-non-square": ("square matrix", lambda _: operator_norm(np.zeros((2, 3)))),
    "step-nan-breakpoint": ("must be finite", lambda _: StepFunction1D([0.0, np.nan], [1.0])),
    "grid-dilation-2": ("dilation", lambda _: RandomDyadicGrid(1, 1, 2.0, [0, 0])),
    "grid-one-bit-short": ("one shift bit per level",
                           lambda _: RandomDyadicGrid(1, 1, 1.0, [0])),
    "lmo-axis-3": ("axis must be 1 or 2",
                   lambda _: lmo_directional_norm(HaarSpectrum2D.zeros((2, 2)), 3)),
    "shift-axis-3": ("axis must be 1 or 2",
                     lambda _: truncating_shift(HaarSpectrum2D.zeros((2, 2)), 3)),
    "lmo-axis-true": ("axis must be 1 or 2",
                      lambda _: lmo_directional_norm(HaarSpectrum2D.zeros((2, 2)), True)),
    "shift-axis-true": ("axis must be 1 or 2",
                        lambda _: truncating_shift(HaarSpectrum2D.zeros((2, 2)), True)),
    "sigma-level-1.5": ("generation pair", lambda _: sigma_k(HaarSpectrum2D.zeros((2, 2)),
                                                             (1.5, 1))),
    "sigma-one-level": ("generation pair",
                        lambda _: sigma_k(HaarSpectrum2D.zeros((2, 2)), (1,))),
    "sigma-level-true": ("generation pair",
                         lambda _: sigma_k(HaarSpectrum2D.zeros((2, 2)), (True, 1))),
    "sigma1-level-1.5": ("generation pair",
                         lambda _: sigma1_k(HaarSpectrum2D.zeros((2, 2)), 1.5)),
    "embedded-depth-31": (r"depth \[31, 2\]", lambda _: embed_spectrum(  # allocates nothing
        HaarSpectrum2D((30, 1), np.broadcast_to(0.0, (1 << 30, 2))))),
    "ratio-of-empty-set": ("empty cell set", lambda _: ClosureInstance(
        (np.ones(2), np.ones(2)), (np.array([[0, 2]]), np.array([[0, 1]])), np.ones(1),
    ).ratio(np.zeros(4, bool))),
    "closure-no-axis": ("at least one axis", lambda _: ClosureInstance((), (), [])),
    "closure-axis-of-no-cells": ("each of at least one cell", lambda _: ClosureInstance(
        (np.ones(2), np.ones(0)), (np.zeros((0, 2)), np.zeros((0, 2))), [])),
    "no-ratio-interval-at-depth-4": ("depth 4", lambda _: calibration.lmo_ratio_interval(4)),
    "no-pi-bound-at-depth-5": ("not depth 5", lambda _: calibration.bound_constant(
        "pi_bound_constant", 5)),
    "function-file-value-count": ("7 values, expected 8", _function_file_one_value_short),
    **{f"batched-{name}": ("single function", lambda _, norm=norm: norm(HaarSpectrum2D(
        (2, 2), np.random.default_rng(0).standard_normal((3, 4, 4)))))
       for name, norm in BATCHED_NORMS.items()},
    **{f"beta-{name}": ("beta must be a 0/1 pair", lambda _, beta=beta: lmo_beta_char_norm(
        HaarSpectrum2D.zeros((2, 2)), beta))
       for name, beta in [("bool", (True, 0)), ("numpy-bool", (np.True_, 0)),
                          ("float", (1.0, 0.0)), ("scalar", 1)]},
    **{f"{name}-depth-{depth}": ("must be two integers", lambda _, make=make, depth=depth: make(
        depth)) for name, make in [("grid-zeros", GridFunction2D.zeros),
                                   ("grid-constant", lambda d: GridFunction2D.constant(d, 1.0)),
                                   ("spectrum-zeros", HaarSpectrum2D.zeros)]
       for depth in [3, (1.5, 2), (40, 40)]},
    **{f"{name}-depth-{depth}": ("must be two integers", lambda _, make=make, depth=depth: make(
        DyadicRect.from_levels(1, 0, 1, 0), depth))
       for name, make in [("staircase", extremal_bmo_function),
                          ("staircase-growth", calibration.staircase_growth)]
       for depth in [3, (1.5, 2), (2,)]},
    **{f"expectation-generation-{pair}": ("generation pair", lambda _, pair=pair:
                                          conditional_expectation_grid(
                                              GridFunction2D.zeros((2, 2)), *pair))
       for pair in [(1.5, 1), (-1, 0)]},
}


@pytest.mark.parametrize("message, call", REFUSALS.values(), ids=REFUSALS)
def test_input_is_refused(tmp_path, message, call):
    with pytest.raises(ValidationError, match=message) as exc:
        call(tmp_path)
    assert type(exc.value) is ValidationError


@pytest.mark.parametrize("embed, f", [(embed_grid, GridFunction2D.zeros((2, 2))),
                                      (embed_spectrum, HaarSpectrum2D.zeros((2, 2)))])
def test_embedding_above_the_memory_budget_is_refused(monkeypatch, embed, f):
    """An embedded array above the package's memory budget is refused before it is
    allocated: (2,2) embedded one level deeper is 64 float64 values, 512 bytes."""
    monkeypatch.setattr(closure, "_MAX_BYTES", 511)
    with pytest.raises(ValidationError, match="needs 512 bytes"):
        embed(f)
    monkeypatch.setattr(closure, "_MAX_BYTES", 512)
    assert embed(f).depth == (3, 3)


@pytest.mark.parametrize("budget", [512, 16_383])
def test_double_commutator_above_the_memory_budget_is_refused(tmp_path, capsys, monkeypatch,
                                                               budget):
    """The double commutator holds up to 32 ambient-size arrays at its peak, so with 32
    of them over the budget it is refused before an input is embedded or a stage runs, and
    the CLI exits 2 and writes no file: a (2,2) source's ambient array is 512 bytes."""
    rng = np.random.default_rng(3)
    phi, b = (GridFunction2D((2, 2), rng.standard_normal((4, 4))) for _ in range(2))
    phi_amb, b_amb = embed_spectrum(haar_forward_2d(phi)), embed_grid(b)
    monkeypatch.setattr(closure, "_MAX_BYTES", 16_384)
    assert iterated_commutator_apply(phi, b).depth == (3, 3)
    assert part_commutator_apply(ALL_NINE_TAGS[0], phi_amb, b_amb).depth == (3, 3)
    monkeypatch.setattr(closure, "_MAX_BYTES", budget)
    monkeypatch.setattr(shifts, "embed_grid", None)  # neither may embed nor run a stage
    monkeypatch.setattr(shifts, "_grid_double_commutator", None)
    with pytest.raises(ValidationError, match=r"depth \[3, 3\] needs 16384 bytes"):
        iterated_commutator_apply(phi, b)
    for tag in ALL_NINE_TAGS:
        with pytest.raises(ValidationError, match="needs 16384 bytes"):
            part_commutator_apply(tag, phi_amb, b_amb)
    paths = [str(tmp_path / name) for name in ("phi.json", "b.json", "out.json")]
    save_function_file(paths[0], (2, 2), phi.values)
    save_function_file(paths[1], (2, 2), b.values)
    capsys.readouterr()
    assert cli_dispatch(["commutator", "--mode", "dyadic", "--phi", paths[0], "--b", paths[1],
                         "--output", paths[2]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "16384 bytes" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()
