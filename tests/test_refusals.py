"""Input refusals that no other test reaches: each raises a ValidationError."""

import json

import numpy as np
import pytest

from prodbmo import calibration
from prodbmo.cli import load_function_file
from prodbmo.closure import ClosureInstance
from prodbmo.core import (DyadicInterval, GridFunction2D, HaarSpectrum2D, ProjectionSelector,
                          apply_projection, haar_forward_2d)
from prodbmo.errors import ValidationError
from prodbmo.hilbert import RandomDyadicGrid, StepFunction1D
from prodbmo.linop import DenseOperator, assemble, operator_norm
from prodbmo.norms import lmo_directional_norm
from prodbmo.shifts import truncating_shift


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
    "norm-of-non-square": ("square matrix", lambda _: operator_norm(np.zeros((2, 3)))),
    "step-nan-breakpoint": ("must be finite", lambda _: StepFunction1D([0.0, np.nan], [1.0])),
    "grid-dilation-2": ("dilation", lambda _: RandomDyadicGrid(1, 1, 2.0, [0, 0])),
    "grid-one-bit-short": ("one shift bit per level",
                           lambda _: RandomDyadicGrid(1, 1, 1.0, [0])),
    "lmo-axis-3": ("axis must be 1 or 2",
                   lambda _: lmo_directional_norm(HaarSpectrum2D.zeros((2, 2)), 3)),
    "shift-axis-3": ("axis must be 1 or 2",
                     lambda _: truncating_shift(HaarSpectrum2D.zeros((2, 2)), 3)),
    "ratio-of-empty-set": ("empty cell set", lambda _: ClosureInstance(
        (np.ones(2), np.ones(2)), (np.array([[0, 2]]), np.array([[0, 1]])), np.ones(1),
    ).ratio(np.zeros(4, bool))),
    "no-ratio-interval-at-depth-4": ("depth 4", lambda _: calibration.lmo_ratio_interval(4)),
    "function-file-value-count": ("7 values, expected 8", _function_file_one_value_short),
}


@pytest.mark.parametrize("message, call", REFUSALS.values(), ids=REFUSALS)
def test_input_is_refused(tmp_path, message, call):
    with pytest.raises(ValidationError, match=message) as exc:
        call(tmp_path)
    assert type(exc.value) is ValidationError
