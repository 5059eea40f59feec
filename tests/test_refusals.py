"""Input refusals that no other test reaches: each raises a ValidationError."""

import json

import numpy as np
import pytest

from prodbmo import calibration, closure
from prodbmo.cli import load_function_file
from prodbmo.closure import ClosureInstance
from prodbmo.core import (DyadicInterval, DyadicRect, GridFunction2D, HaarSpectrum2D,
                          ProjectionSelector, apply_projection, conditional_expectation_grid,
                          haar_forward_2d)
from prodbmo.errors import ValidationError
from prodbmo.hilbert import RandomDyadicGrid, StepFunction1D
from prodbmo.linop import DenseOperator, assemble, operator_norm
from prodbmo.norms import extremal_bmo_function, lmo_beta_char_norm, lmo_directional_norm
from prodbmo.paraproducts import sigma1_k, sigma_k
from prodbmo.shifts import embed_grid, embed_spectrum, truncating_shift


def _nan_grid(g):
    return GridFunction2D(g.depth, np.full_like(g.values, np.nan))


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
    "headroom-negative": ("headroom", lambda _: embed_grid(GridFunction2D.zeros((2, 2)),
                                                           (-1, 1))),
    "headroom-1.5": ("headroom", lambda _: embed_spectrum(HaarSpectrum2D.zeros((2, 2)),
                                                          (1.5, 1))),
    "headroom-40": ("headroom", lambda _: embed_grid(GridFunction2D.zeros((2, 2)), (40, 40))),
    "embedded-depth-31": (r"depth \[31, 3\]", lambda _: embed_spectrum(
        HaarSpectrum2D.zeros((2, 2)), (29, 1))),
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
    allocated: (2,2) with headroom (2,2) is 256 float64 values, 2,048 bytes."""
    monkeypatch.setattr(closure, "_MAX_BYTES", 2047)
    with pytest.raises(ValidationError, match="needs 2048 bytes"):
        embed(f, (2, 2))
    monkeypatch.setattr(closure, "_MAX_BYTES", 2048)
    assert embed(f, (2, 2)).depth == (4, 4)
