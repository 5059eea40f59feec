"""CLI surface: file round-trips, exit codes, deterministic experiment runs."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import prodbmo

from prodbmo import closure
from prodbmo.cli import (
    cli_dispatch,
    load_function_file,
    save_function_file,
)
from prodbmo.core import DyadicRect, GridFunction2D, HaarSpectrum2D, haar_inverse_2d

QUARTER = DyadicRect.from_levels(1, 0, 1, 0)


def write_quarter_haar_grid(path):
    spec = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(QUARTER, 1.0)
    grid = haar_inverse_2d(spec)
    save_function_file(str(path), (2, 2), grid.values, kind="grid")


def write_step_function(path):
    path.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [1.0]}))


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, so a traceback shows on stderr."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(prodbmo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "prodbmo.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_unknown_subcommand_exit_64(capsys):
    assert cli_dispatch(["frobnicate"]) == 64


def test_help_exit_0(capsys):
    assert cli_dispatch(["--help"]) == 0


def test_missing_file_exit_2(tmp_path, capsys):
    assert cli_dispatch(["bmo", "--input", str(tmp_path / "nope.json")]) == 2


def test_bad_flags_exit_2(tmp_path, capsys):
    assert cli_dispatch(["haar", "--forward"]) == 2


def test_haar_roundtrip_files(tmp_path, capsys):
    rng = np.random.default_rng(1)
    f = GridFunction2D((2, 2), rng.standard_normal((4, 4)))
    src = tmp_path / "f.json"
    fwd = tmp_path / "fwd.json"
    back = tmp_path / "back.json"
    save_function_file(str(src), (2, 2), f.values)
    assert cli_dispatch(["haar", "--forward", "--input", str(src),
                         "--output", str(fwd)]) == 0
    assert cli_dispatch(["haar", "--inverse", "--input", str(fwd),
                         "--output", str(back)]) == 0
    _, values, kind = load_function_file(str(back))
    assert kind == "grid"
    assert np.abs(values - f.values).max() < 1e-12


def test_function_file_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((4, 4))
    p = tmp_path / "v.json"
    save_function_file(str(p), (2, 2), values)
    _, loaded, _ = load_function_file(str(p))
    assert np.array_equal(loaded, values)  # bit-exact through JSON repr


def test_bmo_exact_matches_worked_example(tmp_path, capsys):
    src = tmp_path / "phi.json"
    out = tmp_path / "res.json"
    write_quarter_haar_grid(src)
    code = cli_dispatch(["bmo", "--input", str(src), "--method", "exact",
                         "--output", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["norm_sq"] == pytest.approx(4.0, abs=1e-12)
    assert sorted(res["omega_cells"]) == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_bmo_above_the_memory_estimate_exit_2(tmp_path, capsys, monkeypatch):
    """A symbol whose closure network exceeds the memory estimate is refused
    as a validation error, before the network is built: the dense (4,4)
    network of 1,024 arcs is estimated at 367,675 bytes."""
    monkeypatch.setattr(closure, "_MAX_BYTES", 367_674)
    src = tmp_path / "phi.json"
    values = np.random.default_rng(5).standard_normal((16, 16))
    save_function_file(str(src), (4, 4), values, kind="grid")
    assert cli_dispatch(["bmo", "--input", str(src), "--method", "exact"]) == 2
    err = capsys.readouterr().err
    assert "1024 arcs" in err and "Traceback" not in err


def test_bmo_brute_and_rect(tmp_path, capsys):
    src = tmp_path / "phi.json"
    write_quarter_haar_grid(src)
    for method in ("brute", "rect"):
        out = tmp_path / f"{method}.json"
        assert cli_dispatch(["bmo", "--input", str(src), "--method", method,
                             "--output", str(out)]) == 0
        assert json.loads(out.read_text())["norm_sq"] == pytest.approx(4.0)


def test_lmo_methods(tmp_path, capsys):
    src = tmp_path / "phi.json"
    write_quarter_haar_grid(src)
    out = tmp_path / "lmo.json"
    assert cli_dispatch(["lmo", "--input", str(src), "--method", "def",
                         "--output", str(out)]) == 0
    assert json.loads(out.read_text())["norm"] == pytest.approx(8.0)
    assert cli_dispatch(["lmo", "--input", str(src), "--method", "dir",
                         "--axis", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["norm"] == pytest.approx(4.0)
    assert cli_dispatch(["lmo", "--input", str(src), "--method", "beta",
                         "--beta", "1,1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["norm_sq_weighted"] == pytest.approx(4.0)


@pytest.mark.parametrize("argv", [
    ["bmo", "--method", "exact"], ["bmo", "--method", "rect"], ["bmo", "--method", "brute"],
    ["lmo", "--method", "char"],
])
def test_overflowing_result_exit_3(tmp_path, capsys, argv):
    """Squares of hh coefficients near 1e200 overflow float64: the command
    fails as numerical instead of printing Infinity or NaN, which is not JSON,
    and without a numpy RuntimeWarning ahead of its message."""
    src, out = tmp_path / "phi.json", tmp_path / "res.json"
    c = np.zeros((4, 4))
    c[1:, 1:] = 1e200 * np.arange(1, 10).reshape(3, 3)
    save_function_file(str(src), (2, 2), c, kind="spectrum")
    for extra in ([], ["--output", str(out)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_dispatch([*argv, "--input", str(src), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err
        assert "Traceback" not in captured.err
    assert not out.exists()


def test_paraproduct_and_sigma_commands(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    write_quarter_haar_grid(phi)
    arg = tmp_path / "one.json"
    save_function_file(str(arg), (2, 2), np.ones((4, 4)))
    out = tmp_path / "out.json"
    assert cli_dispatch(["paraproduct", "--sig", "pi", "--symbol", str(phi),
                         "--input", str(arg), "--output", str(out)]) == 0
    _, values, _ = load_function_file(str(out))
    spec = HaarSpectrum2D.zeros((2, 2)).with_hh_coef(QUARTER, 1.0)
    assert np.abs(values - haar_inverse_2d(spec).values).max() < 1e-12

    sig_out = tmp_path / "sigma.json"
    assert cli_dispatch(["sigma", "--input", str(phi), "--k", "0,0",
                         "--output", str(sig_out)]) == 0
    _, coeffs, kind = load_function_file(str(sig_out))
    assert kind == "spectrum"
    assert coeffs[1, 1] == pytest.approx(1.0)  # aggregated to the unit square

    # one-axis rearrangement through the CLI
    assert cli_dispatch(["sigma", "--input", str(phi), "--k", "0",
                         "--axis", "1", "--output", str(sig_out)]) == 0
    _, coeffs, _ = load_function_file(str(sig_out))
    assert coeffs[1, 2] == pytest.approx(1.0)  # s aggregated, t untouched


def test_opnorm_shift(tmp_path, capsys):
    out = tmp_path / "n.json"
    assert cli_dispatch(["opnorm", "--kind", "shift", "--axis", "1",
                         "--depth", "2,2", "--output", str(out)]) == 0
    # the truncated shift doubles energy on shiftable content
    assert json.loads(out.read_text())["operator_norm"] == pytest.approx(
        np.sqrt(2.0), abs=1e-9
    )


def test_commutator_commands(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    b = tmp_path / "b.json"
    write_quarter_haar_grid(phi)
    write_quarter_haar_grid(b)
    out = tmp_path / "comm.json"
    assert cli_dispatch(["commutator", "--mode", "dyadic", "--phi", str(phi),
                         "--b", str(b), "--output", str(out)]) == 0
    depth, _, _ = load_function_file(str(out))
    assert depth == (4, 4)
    rep = tmp_path / "report.json"
    assert cli_dispatch(["commutator", "--mode", "report", "--phi", str(phi),
                         "--b", str(b), "--output", str(rep)]) == 0
    rows = json.loads(rep.read_text())["rows"]
    assert len(rows) == 9


def test_hilbert_oracle_and_mc(tmp_path, capsys):
    f = tmp_path / "step.json"
    write_step_function(f)
    out = tmp_path / "h.json"
    assert cli_dispatch(["hilbert", "--mode", "oracle", "--function", str(f),
                         "--x", "2.0,-0.5", "--output", str(out)]) == 0
    vals = json.loads(out.read_text())["values"]
    assert vals[0] == pytest.approx(np.log(2.0) / np.pi)
    # mc without a seed is a validation error
    assert cli_dispatch(["hilbert", "--mode", "mc", "--function", str(f),
                         "--x", "2.0"]) == 2
    assert cli_dispatch(["hilbert", "--mode", "mc", "--function", str(f),
                         "--x", "2.0", "--samples", "64", "--seed", "3",
                         "--k-coarse", "6", "--k-fine", "6",
                         "--output", str(out)]) == 0
    res = json.loads(out.read_text())
    assert len(res["estimates"]) == 1 and res["stderr"][0] > 0.0


def test_experiment_lemma_core_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["experiment", "lemma-core", "--depth", "2", "--trials", "2",
            "--seed", "7"]
    assert cli_dispatch(argv + ["--output", str(out1)]) == 0
    assert cli_dispatch(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["trial", "k1", "k2", "lhs_norm", "rhs_norm",
                      "abs_diff", "tol", "ok"]
    assert len(lines) - 1 == 2 * 9  # trials x (depth+1)^2
    for line in lines[1:]:
        assert line.split(",")[-1] == "1"


#: the six seeded experiment commands of the README and the sha256 of their CSVs
README_EXPERIMENT_DIGESTS = {
    "lemma-core --depth 3 --trials 20 --seed 7":
        "cfe876904d21ac176c17448356f3117d51501f3e19de9c50ca9e65052d16c1e0",
    "nine-part --depth 2 --trials 50 --seed 1":
        "e7230f4e9f367803a3888c9affea8037cc6288c94008634ceb4d3d0fc4984ea4",
    "lmo-equivalence --depth 3 --trials 200 --seed 5":
        "0cb1536a02e570fea79075725e49811b07e45741a508b05c50b38ac32ddd45c7",
    "growth --depth 3 --trials 1 --seed 0":
        "8f34c8434e484fd75c60045360d5d5bf00868c594af54a584c5b09e5e4946afe",
    "paraproduct-bound --depth 3 --trials 100 --seed 2":
        "9aa3af13dd97c8617edc640f4e19c60a3e7b37f80c8e320b9a9498fb37cac3ae",
    "commutator-bound --depth 2 --trials 50 --seed 3":
        "c7058bc3a75f2e4249b2f0697907e719e41a191e1b5d30ba9250d54f6cf266fc",
}


@pytest.mark.parametrize("command", README_EXPERIMENT_DIGESTS)
def test_readme_experiment_csvs_are_byte_identical(tmp_path, capsys, command):
    """Seeded commands stay byte-identical: each README experiment writes the
    CSV it wrote when the digests were pinned.  Measured with numpy 2.4.6 on
    scipy-openblas 0.3.31 (OpenBLAS, Haswell kernels, 64-bit ints), the same
    with OPENBLAS_NUM_THREADS=1 or unset; another numpy or BLAS build may
    round the SVD or the flow sums differently in the last digit."""
    out = tmp_path / "out.csv"
    assert cli_dispatch(["experiment", *command.split(), "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == README_EXPERIMENT_DIGESTS[command]


@pytest.mark.parametrize("name,flags", [
    ("nine-part", ["--depth", "2", "--trials", "3"]),
    ("lmo-equivalence", ["--depth", "2", "--trials", "3"]),
    ("growth", ["--depth", "2", "--trials", "1"]),
    ("paraproduct-bound", ["--depth", "2", "--trials", "3"]),
    ("commutator-bound", ["--depth", "2", "--trials", "2"]),
])
def test_experiments_all_pass(tmp_path, capsys, name, flags):
    out = tmp_path / "t.csv"
    code = cli_dispatch(["experiment", name, *flags, "--seed", "11",
                         "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert all(line.split(",")[-1] == "1" for line in lines[1:])
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)  # every cell below the header parses as a number


@pytest.mark.parametrize("name,flags", [
    ("nine-part", ["--trials", "0"]),
    ("nine-part", ["--trials", "-1"]),
    ("growth", ["--depth", "0"]),
    ("growth", ["--depth", "-1"]),
    ("nine-part", ["--depth", "-1"]),
    ("paraproduct-bound", ["--depth", "-1"]),
    ("commutator-bound", ["--depth", "-1"]),
    ("lemma-core", ["--depth", "-1"]),
])
def test_experiment_rejects_empty_or_invalid_sizes(tmp_path, capsys, name, flags):
    # an empty table must not be reported as all_ok
    out = tmp_path / "t.csv"
    code = cli_dispatch(["experiment", name, *flags, "--seed", "1",
                         "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "all_ok" not in capsys.readouterr().out


@pytest.mark.parametrize("command,text", [
    pytest.param("bmo", json.dumps({"values": [0.0] * 4}), id="no-depth"),
    pytest.param("bmo", "not json", id="not-json"),
    pytest.param("bmo", json.dumps({"depth": [1, 1], "values": ["a", "b", "c", "d"]}),
                 id="string-values"),
    pytest.param("hilbert", json.dumps({"values": [1.0]}), id="no-breakpoints"),
    pytest.param("bmo", json.dumps({"depth": [-1, 2], "values": [1.0]}),
                 id="negative-depth"),
    pytest.param("bmo", json.dumps({"depth": [2], "values": [0.0] * 4}), id="one-depth"),
    pytest.param("bmo", json.dumps({"depth": [2, 2, 2], "values": [0.0] * 16}),
                 id="three-depths"),
    pytest.param("bmo", '{"depth": [1e400, 2], "values": [0.0, 0.0, 0.0, 0.0]}',
                 id="overflowing-depth"),
    pytest.param("bmo", json.dumps({"depth": [1, 1], "kind": "bogus", "values": [0.0] * 4}),
                 id="unknown-kind"),
    pytest.param("bmo", '{"depth": [1, 1], "values": [NaN, 0, 0, 0]}', id="grid-nan"),
    pytest.param("bmo", '{"depth": [1, 1], "values": [0, Infinity, 0, 0]}', id="grid-inf"),
    pytest.param("bmo", '{"depth": [1, 1], "kind": "spectrum", "values": [NaN, 0, 0, 0]}',
                 id="spectrum-nan"),
    pytest.param("bmo", '{"depth": [1, 1], "kind": "spectrum", "values": [0, 0, 0, -Infinity]}',
                 id="spectrum-inf"),
])
def test_malformed_input_file_exit_2(tmp_path, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    if command == "bmo":
        argv = ["bmo", "--input", str(path)]
    else:
        argv = ["hilbert", "--mode", "oracle", "--function", str(path), "--x", "2.0"]
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(["opnorm", "--kind", "projection", "--selector", "X:1,2"], id="selector-letter"),
    pytest.param(["opnorm", "--kind", "projection", "--selector", "E1,2"], id="selector-colon"),
    pytest.param(["opnorm", "--kind", "projection", "--selector", "E:a,b"], id="selector-index"),
    pytest.param(["opnorm", "--kind", "shift", "--depth", "a,b"], id="depth"),
    pytest.param(["bmo", "--input", "{grid}", "--restrict", "1,2"], id="restrict-count"),
    pytest.param(["bmo", "--input", "{grid}", "--restrict", "a,b,c,d"], id="restrict-int"),
    pytest.param(["bmo", "--input", "{grid}", "--restrict", "3,0,0,0", "--output", "{out}"],
                 id="restrict-finer-than-grid"),
    pytest.param(["bmo", "--input", "{grid}", "--method", "brute", "--restrict", "0,0,3,0",
                  "--output", "{out}"], id="restrict-brute-finer-than-grid"),
    pytest.param(["lmo", "--input", "{grid}", "--method", "beta", "--beta", "x"], id="beta"),
    pytest.param(["sigma", "--input", "{grid}", "--axis", "1", "--k", "a",
                  "--output", "{out}"], id="sigma-k"),
    pytest.param(["hilbert", "--mode", "oracle", "--function", "{step}", "--x", "abc"], id="x"),
    pytest.param(["sigma", "--input", "{grid}", "--axis", "1", "--k", "-2",
                  "--output", "{out}"], id="sigma-negative-level"),
    pytest.param(["sigma", "--input", "{grid}", "--k=-1,0", "--output", "{out}"],
                 id="sigma-negative-generation"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "nan",
                  "--samples", "4", "--seed", "1", "--output", "{out}"], id="mc-x-nan"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "inf",
                  "--samples", "4", "--seed", "1", "--output", "{out}"], id="mc-x-inf"),
    pytest.param(["hilbert", "--mode", "oracle", "--function", "{step}", "--x", "nan",
                  "--output", "{out}"], id="oracle-x-nan"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "4", "--seed", "-1", "--output", "{out}"], id="mc-negative-seed"),
    pytest.param(["experiment", "nine-part", "--depth", "2", "--trials", "1", "--seed", "-3",
                  "--output", "{out}"], id="experiment-negative-seed"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "4", "--seed", "1", "--k-coarse", "1100", "--output", "{out}"],
                 id="mc-k-coarse-1100"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "4", "--seed", "1", "--k-fine", "2000", "--output", "{out}"],
                 id="mc-k-fine-2000"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "4", "--seed", "1", "--k-coarse", "-100", "--output", "{out}"],
                 id="mc-k-coarse-negative"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "4", "--seed", "1", "--k-coarse", "0", "--k-fine", "-5",
                  "--output", "{out}"], id="mc-k-fine-negative"),
    pytest.param(["hilbert", "--mode", "mc", "--function", "{step}", "--x", "2.0",
                  "--samples", "100001", "--seed", "1", "--output", "{out}"],
                 id="mc-samples-over-cap"),
    pytest.param(["opnorm", "--kind", "shift", "--axis", "1", "--depth=-1,2"],
                 id="opnorm-shift-negative-depth"),
    pytest.param(["opnorm", "--kind", "projection", "--selector", "E:1,1", "--depth=-1,2"],
                 id="opnorm-projection-negative-depth"),
    pytest.param(["opnorm", "--kind", "paraproduct", "--sig", "pi"],
                 id="opnorm-paraproduct-no-symbol"),
    pytest.param(["commutator", "--mode", "dyadic", "--phi", "{grid}", "--b", "{grid}"],
                 id="commutator-dyadic-no-output"),
    pytest.param(["bmo", "--input", "{dir}"], id="bmo-input-directory"),
    pytest.param(["bmo", "--input", "{grid}", "--output", "{dir}"], id="bmo-output-directory"),
    pytest.param(["sigma", "--input", "{grid}", "--k", "1,1", "--output", "{dir}"],
                 id="sigma-output-directory"),
] + [
    pytest.param(["experiment", name, "--depth", depth, "--trials", "1", "--seed", "0",
                  "--output", "{out}"], id=f"experiment-{name}-uncalibrated-depth-{depth}")
    for name, depth in [("commutator-bound", "1"), ("commutator-bound", "4"),
                        ("paraproduct-bound", "1")]
] + [
    pytest.param(["experiment", name, "--depth", depth, "--trials", "1", "--seed", "0",
                  "--output", "{out}"], id=f"experiment-{name}-depth-{depth}")
    for name in ("growth", "paraproduct-bound", "lemma-core", "nine-part",
                 "commutator-bound", "lmo-equivalence")
    for depth in ("6", "40")
])
def test_malformed_argument_exit_2(tmp_path, argv):
    write_quarter_haar_grid(tmp_path / "grid.json")
    write_step_function(tmp_path / "step.json")
    (tmp_path / "dir").mkdir()
    paths = {"grid": tmp_path / "grid.json", "step": tmp_path / "step.json",
             "out": tmp_path / "out.json", "dir": tmp_path / "dir"}
    argv = [a.format(**paths) for a in argv]
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()
