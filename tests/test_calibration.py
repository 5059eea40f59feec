"""Calibration: the fixed run reproduces every frozen constant, on its contract side."""

from prodbmo.calibration import CALIBRATED, recompute

LOWER_BOUNDS = {"extremal_growth_sharpness", "lmo_ratio_lo_depth2", "lmo_ratio_lo_depth3",
                "delta_bound_lo"}


def test_recompute_is_pinned_exactly(capsys):
    """Every raw calibration value, compared by repr: a change of the last bit fails.
    There is one per frozen constant, on its contract side, and the report prints one
    raw and frozen line per value."""
    out = recompute()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(out)
    assert all(f"raw={v:.6f} frozen={CALIBRATED[k]}" in line
               for (k, v), line in zip(out.items(), lines))
    assert set(out) == set(CALIBRATED)
    for key, value in out.items():
        if key in LOWER_BOUNDS:
            assert CALIBRATED[key] <= value, key
        else:
            assert value <= CALIBRATED[key], key
    assert repr(out) == repr({
        "extremal_norm_bound": 1.43359375,
        "extremal_growth_bound": 9.0,
        "extremal_growth_sharpness": 0.6975476839237057,
        "lmo_ratio_lo_depth2": 1.1686026865768593,
        "lmo_ratio_hi_depth2": 2.3325812080670647,
        "lmo_ratio_lo_depth3": 0.7295529041638189,
        "lmo_ratio_hi_depth3": 0.9233403943323335,
        "pi_bound_constant": 0.18367480580014547,
        "delta_bound_lo": 0.10309914676686417,
        "delta_bound_hi": 0.5238963702699564,
        "shift_commutator_bound": 1.184137728063088,
    })
