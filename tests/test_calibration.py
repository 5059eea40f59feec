"""Calibration sweeps: small runs stay on the contract side of the frozen
constants."""

from prodbmo.calibration import (
    CALIBRATED,
    sweep_delta_bounds,
    sweep_extremal,
    sweep_lmo_ratio,
    sweep_pi_bound,
    sweep_shift_commutator,
)

LOWER_BOUNDS = {"extremal_growth_sharpness", "lmo_ratio_lo_depth3", "delta_bound_lo"}


def test_small_sweeps_respect_frozen_constants():
    raw = {}
    raw.update(sweep_extremal((3, 3)))
    raw.update(sweep_lmo_ratio(n=3))
    raw.update(sweep_pi_bound(n=1))
    raw.update(sweep_delta_bounds(n=2))
    raw.update(sweep_shift_commutator(n=2))
    assert set(raw) == set(CALIBRATED) - {"lmo_ratio_lo_depth2", "lmo_ratio_hi_depth2"}
    for key, value in raw.items():
        if key in LOWER_BOUNDS:
            assert CALIBRATED[key] <= value, key
        else:
            assert value <= CALIBRATED[key], key
