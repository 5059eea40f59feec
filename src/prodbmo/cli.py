"""Command-line surface: norms, transforms, operators, and experiment runs.

All structured results are JSON (sorted keys, no timestamps); experiment
sweeps emit CSV tables whose columns include the tolerance or calibrated
constant they assert, so the tables are self-verifying.  Stochastic
subcommands require an explicit seed.  Files are written atomically
(temp + rename).

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from . import calibration
from .core import (
    DyadicRect,
    GridFunction2D,
    HaarSpectrum2D,
    ProjectionSelector,
    _check_depth,
    apply_projection,
    haar_forward_2d,
    haar_inverse_2d,
)
from .errors import NonConvergenceError, ValidationError
from .hilbert import (
    StepFunction1D,
    analytic_hilbert_step,
    mc_hilbert,
)
from .linop import assemble, operator_norm
from .norms import (
    bmo_d_norm_sq,
    bmo_d_norm_sq_bruteforce,
    bmo_rect_norm_sq,
    lmo_beta_char_norm,
    lmo_char_details,
    lmo_d_norm,
    lmo_directional_norm,
)
from .paraproducts import (
    paraproduct,
    nine_part_sum,
    sigma1_k,
    sigma_k,
    signature_by_name,
)
from .shifts import iterated_commutator_apply, commutator_part_norm_report, shift_matrix

#: command -> its line in the usage text, in the order listed there
COMMANDS = {
    "haar": "forward/inverse Haar transform of a function file",
    "bmo": "product BMO norm (exact / brute / rect)",
    "lmo": "logarithmic mean oscillation norms (def / char / dir / beta)",
    "paraproduct": "apply a paraproduct to a function file",
    "opnorm": "operator norm of a named operator",
    "sigma": "coefficient rearrangement sigma_k / one-axis variant",
    "commutator": "iterated shift commutator (dyadic) or block norm report",
    "hilbert": "Monte-Carlo averaged-shift transform or analytic oracle",
    "experiment": "deterministic experiment sweeps emitting CSV tables",
}

USAGE = "usage: prodbmo <command> [options]\n\ncommands:\n" + "".join(
    f"  {name:12} {text}\n" for name, text in COMMANDS.items())

# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    """Standard JSON only: a result that overflowed float64 is a numerical failure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonConvergenceError(f"result is not finite: {exc}") from exc


def emit(obj, output: str = None) -> None:
    text = dump_json(obj)
    if output:
        atomic_write(output, text)
    else:
        sys.stdout.write(text)


def save_function_file(path: str, depth, values, kind: str = "grid") -> None:
    payload = {
        "depth": [int(depth[0]), int(depth[1])],
        "kind": kind,
        "values": np.asarray(values, dtype=float).reshape(-1).tolist(),
    }
    atomic_write(path, dump_json(payload))


def _read_json(path: str, what: str, read):
    """read(payload) of the JSON file at path; a payload that does not parse or
    that read cannot use is a malformed ``what`` file."""
    with open(path) as fh:
        try:
            return read(json.load(fh))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(f"malformed {what} file {path}: {exc!r}") from exc


def load_function_file(path: str):
    """(depth, values, kind); values enter the package here, so NaN and inf stop here."""
    depth, values, kind = _read_json(path, "function", lambda p: (
        p["depth"], np.asarray(p["values"], dtype=float), p.get("kind", "grid")))
    depth = _check_depth(depth)
    if not np.isfinite(values).all():
        raise ValidationError(f"function file {path} values must be finite")
    n1, n2 = 1 << depth[0], 1 << depth[1]
    if values.size != n1 * n2:
        raise ValidationError(f"function file holds {values.size} values, expected {n1 * n2}")
    if kind not in ("grid", "spectrum"):
        raise ValidationError(f"function file kind must be 'grid' or 'spectrum', got {kind!r}")
    return depth, values.reshape(n1, n2), kind


def load_grid(path: str) -> GridFunction2D:
    depth, values, kind = load_function_file(path)
    if kind == "spectrum":
        return haar_inverse_2d(HaarSpectrum2D(depth, values))
    return GridFunction2D(depth, values)


def load_spectrum(path: str) -> HaarSpectrum2D:
    depth, values, kind = load_function_file(path)
    if kind == "spectrum":
        return HaarSpectrum2D(depth, values)
    return haar_forward_2d(GridFunction2D(depth, values))


def parse_ints(text: str, n: int = 2):
    """Exactly n comma-separated integers, as a tuple."""
    try:
        parts = tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        parts = ()
    if len(parts) != n:
        raise ValidationError(f"expected {n} comma-separated integers, got {text!r}")
    return parts


def non_negative_int(text: str) -> int:
    """Argument type of the seeds: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v):
    # numpy scalars included: under numpy 2 their repr reads np.float64(...)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_haar(args) -> int:
    depth, values, kind = load_function_file(args.input)
    direction, expected = ("forward", "grid") if args.forward else ("inverse", "spectrum")
    if kind != expected:
        raise ValidationError(f"haar --{direction} reads a {expected} file, got kind {kind!r}")
    if args.forward:
        spec = haar_forward_2d(GridFunction2D(depth, values))
        save_function_file(args.output, depth, spec.coeffs, kind="spectrum")
    else:
        grid = haar_inverse_2d(HaarSpectrum2D(depth, values))
        save_function_file(args.output, depth, grid.values, kind="grid")
    emit({"config": {"input": args.input, "output": args.output, "direction": direction},
          "depth": list(depth)})
    return 0


def cmd_bmo(args) -> int:
    if args.restrict and args.method == "rect":
        raise ValidationError("--restrict applies to --method exact and brute, not rect")
    phi = load_spectrum(args.input)
    restrict = None
    if args.restrict:
        restrict = DyadicRect.from_levels(*parse_ints(args.restrict, 4))
    if args.method == "exact":
        value, mask = bmo_d_norm_sq(phi, restrict)
        cells = [[int(r), int(c)] for r, c in zip(*np.nonzero(mask))]
        result = {"norm_sq": value, "omega_cells": cells}
    elif args.method == "brute":
        result = {"norm_sq": bmo_d_norm_sq_bruteforce(phi, restrict)}
    else:
        result = {"norm_sq": bmo_rect_norm_sq(phi)}
    result["config"] = {"input": args.input, "method": args.method,
                        "restrict": args.restrict}
    emit(result, args.output)
    return 0


def cmd_lmo(args) -> int:
    phi = load_spectrum(args.input)
    if args.method == "def":
        result = {"norm": lmo_d_norm(phi)}
    elif args.method == "char":
        value, rect = lmo_char_details(phi)
        result = {
            "norm_sq_weighted": value,
            "attaining_rect": [rect.s_interval.level, rect.s_interval.index,
                               rect.t_interval.level, rect.t_interval.index],
        }
    elif args.method == "dir":
        result = {"norm": lmo_directional_norm(phi, args.axis)}
    else:
        beta = parse_ints(args.beta)
        result = {"norm_sq_weighted": lmo_beta_char_norm(phi, beta)}
    result["config"] = {"input": args.input, "method": args.method,
                        "axis": args.axis, "beta": args.beta}
    emit(result, args.output)
    return 0


def cmd_paraproduct(args) -> int:
    sig = signature_by_name(args.sig)
    phi = load_spectrum(args.symbol)
    f = load_grid(args.input)
    out = paraproduct(sig, phi, f)
    save_function_file(args.output, out.depth, out.values, kind="grid")
    emit({"config": {"sig": args.sig, "symbol": args.symbol,
                     "input": args.input, "output": args.output},
          "output_l2_sq": out.norm_l2_sq()})
    return 0


def cmd_opnorm(args) -> int:
    if args.kind == "paraproduct":
        if args.symbol is None:
            raise ValidationError("--kind paraproduct requires --symbol")
        sig = signature_by_name(args.sig)
        phi = load_spectrum(args.symbol)
        op = assemble(lambda f: paraproduct(sig, phi, f), phi.depth, space="grid")
        norm = operator_norm(op)
        config = {"kind": args.kind, "sig": args.sig, "symbol": args.symbol}
    elif args.kind == "shift":
        depth = parse_ints(args.depth)
        norm = operator_norm(shift_matrix(depth, args.axis))
        config = {"kind": args.kind, "axis": args.axis, "depth": args.depth}
    else:  # projection
        depth = parse_ints(args.depth)
        kind, _, idx = args.selector.partition(":")
        selectors = {
            "E": ProjectionSelector.expectation,
            "Q": ProjectionSelector.tail,
            "D": ProjectionSelector.difference,
        }
        if kind not in selectors:
            raise ValidationError(
                f"selector must be E:j1,j2, Q:j1,j2 or D:j1,j2, got {args.selector!r}"
            )
        sel = selectors[kind](*parse_ints(idx))
        op = assemble(lambda c: apply_projection(c, sel), depth, space="spectrum")
        norm = operator_norm(op)
        config = {"kind": args.kind, "selector": args.selector, "depth": args.depth}
    emit({"operator_norm": norm, "config": config}, args.output)
    return 0


def cmd_sigma(args) -> int:
    b = load_spectrum(args.input)
    if args.axis is None:
        out = sigma_k(b, parse_ints(args.k))
    else:
        if args.axis != 1:
            raise ValidationError("the one-axis rearrangement aggregates axis 1")
        out = sigma1_k(b, parse_ints(args.k, 1)[0])
    save_function_file(args.output, out.depth, out.coeffs, kind="spectrum")
    emit({"config": {"input": args.input, "k": args.k, "axis": args.axis,
                     "output": args.output},
          "hh_energy": out.total_energy()})
    return 0


def cmd_commutator(args) -> int:
    if args.mode == "dyadic" and not args.output:
        raise ValidationError("--mode dyadic writes a grid file and requires --output")
    phi = load_grid(args.phi)
    b = load_grid(args.b)
    if args.mode == "dyadic":
        out = iterated_commutator_apply(phi, b)
        save_function_file(args.output, out.depth, out.values, kind="grid")
        emit({"config": {"mode": args.mode, "phi": args.phi, "b": args.b,
                         "output": args.output},
              "ambient_depth": list(out.depth),
              "output_l2_sq": out.norm_l2_sq()})
    else:
        rows = commutator_part_norm_report(phi, b)
        emit({"config": {"mode": args.mode, "phi": args.phi, "b": args.b},
              "rows": rows}, args.output)
    return 0


def load_step_function(path: str) -> StepFunction1D:
    return StepFunction1D(*_read_json(path, "step-function", lambda p: (
        np.asarray(p["breakpoints"], dtype=float), np.asarray(p["values"], dtype=float))))


def cmd_hilbert(args) -> int:
    f = load_step_function(args.function)
    try:
        xs = [float(v) for v in args.x.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ValidationError(f"--x must be comma-separated numbers, got {args.x!r}") from exc
    if not np.isfinite(xs).all():
        raise ValidationError(f"--x must be finite, got {args.x!r}")
    if args.mode == "oracle":
        result = {"points": xs, "values": [analytic_hilbert_step(f, x) for x in xs]}
    else:
        if args.seed is None:
            raise ValidationError("Monte-Carlo mode requires --seed")
        if args.samples > 100_000:  # a sample holds about 0.1 KB with three points
            raise ValidationError(f"--samples must be at most 100000, got {args.samples}")
        pairs = mc_hilbert(f, xs, args.samples, args.seed,
                           k_coarse=args.k_coarse, k_fine=args.k_fine)
        result = {
            "points": xs,
            "estimates": [p[0] for p in pairs],
            "stderr": [p[1] for p in pairs],
        }
    result["config"] = {
        "mode": args.mode, "function": args.function, "x": args.x,
        "samples": args.samples, "seed": args.seed,
        "k_coarse": args.k_coarse, "k_fine": args.k_fine,
    }
    emit(result, args.output)
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _experiment_growth(depth, trials, seed):
    bound = calibration.CALIBRATED["extremal_growth_bound"]
    rows = []
    for j1 in range(1, depth + 1):
        for j2 in range(1, depth + 1):
            r = DyadicRect.from_levels(j1, 0, j2, 0)
            _, ratios, _ = calibration.staircase_growth(r, (depth, depth))
            for (k1, k2), ratio in ratios.items():
                rows.append([j1, j2, k1, k2, ratio, bound, int(ratio <= bound)])
    header = ["rect_j1", "rect_j2", "gen_k1", "gen_k2", "ratio", "bound", "ok"]
    return header, rows


def _seeded_experiment(columns, kernel, limits, depth, trials, seed,
                       values=lambda value: [[value]]):
    """Rows [trial t, *value, *limits(depth), ok] for every value of values(draw t),
    the draws kernel((depth, depth), rng) from one seeded rng; ok when the value's
    last entry lies within the limits, an optional lower bound and an upper bound."""
    bounds = limits(depth)
    lo, hi = (-math.inf, *bounds)[-2:]
    draws = calibration._sweep_bound([(depth, depth)], kernel, trials, seed)
    return ["trial", *columns, "ok"], [[t, *v, *bounds, int(lo <= v[-1] <= hi)]
                                       for t, draw in enumerate(draws) for v in values(draw)]


def _lemma_core_values(b):
    """[k1, k2, lhs, rhs, |lhs - rhs|] of calibration.lemma_core_norms at every k."""
    return [[k1, k2, lhs, rhs, abs(lhs - rhs)]
            for k1 in range(b.depth[0] + 1) for k2 in range(b.depth[1] + 1)
            for lhs, rhs in [calibration.lemma_core_norms(b, (k1, k2))]]


def _nine_part_error(depth, rng) -> float:
    """max |sum of the nine parts of phi f - phi f| for a fresh (phi, f) draw."""
    phi = calibration.random_hh_symbol(depth, rng)
    f = haar_inverse_2d(calibration.random_hh_symbol(depth, rng))
    product = haar_inverse_2d(phi).multiply(f)
    return float(np.abs(nine_part_sum(phi, f).values - product.values).max())


def _bound(key):
    return lambda depth: (calibration.bound_constant(key, depth),)


#: experiment name -> runner(depth, trials, seed) returning (header, rows)
EXPERIMENTS = {
    "growth": _experiment_growth,
    "paraproduct-bound": partial(_seeded_experiment, ["ratio", "bound"],
                                 calibration.pi_bound_ratio, _bound("pi_bound_constant")),
    "lemma-core": partial(
        _seeded_experiment, ["k1", "k2", "lhs_norm", "rhs_norm", "abs_diff", "tol"],
        calibration.random_hh_symbol, lambda depth: (1e-8,), values=_lemma_core_values),
    "nine-part": partial(_seeded_experiment, ["max_abs_err", "tol"], _nine_part_error,
                         lambda depth: (1e-10,)),
    "commutator-bound": partial(_seeded_experiment, ["ratio", "bound"],
                                calibration.commutator_bound_ratio,
                                _bound("shift_commutator_bound")),
    "lmo-equivalence": partial(_seeded_experiment, ["ratio", "c1", "c2"],
                               calibration.lmo_ratio, calibration.lmo_ratio_interval),
}


def cmd_experiment(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    # bounds growth and nine-part (0.04 s and 0.12 s for 20 trials at 5, one Xeon core);
    # the others stop sooner: calibrated depths, lemma-core's dense assembly at 4
    if not 1 <= args.depth <= 5:
        raise ValidationError(f"--depth must be in 1..5, got {args.depth}")
    header, rows = EXPERIMENTS[args.name](args.depth, args.trials, args.seed)
    write_csv(args.output, header, rows)
    ok = bool(rows) and all(row[-1] == 1 for row in rows)
    emit({
        "config": {"experiment": args.name, "depth": args.depth,
                   "trials": args.trials, "seed": args.seed,
                   "output": args.output},
        "rows": len(rows),
        "all_ok": bool(ok),
    })
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prodbmo", usage=USAGE)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("haar")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--forward", action="store_true")
    mode.add_argument("--inverse", action="store_true")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("bmo")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["exact", "brute", "rect"], default="exact")
    p.add_argument("--restrict", help="j1,i1,j2,i2 of a restriction rectangle")
    p.add_argument("--output")
    p.set_defaults(func=cmd_bmo)

    p = sub.add_parser("lmo")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["def", "char", "dir", "beta"], default="def")
    p.add_argument("--axis", type=int, default=1)
    p.add_argument("--beta", default="0,0")
    p.add_argument("--output")
    p.set_defaults(func=cmd_lmo)

    p = sub.add_parser("paraproduct")
    p.add_argument("--sig", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_paraproduct)

    p = sub.add_parser("opnorm")
    p.add_argument("--kind", choices=["paraproduct", "shift", "projection"],
                   required=True)
    p.add_argument("--sig", default="pi")
    p.add_argument("--symbol")
    p.add_argument("--axis", type=int, default=1)
    p.add_argument("--selector", default="Q:0,0")
    p.add_argument("--depth", default="2,2")
    p.add_argument("--output")
    p.set_defaults(func=cmd_opnorm)

    p = sub.add_parser("sigma")
    p.add_argument("--input", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--axis", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("commutator")
    p.add_argument("--mode", choices=["dyadic", "report"], default="dyadic")
    p.add_argument("--phi", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("hilbert")
    p.add_argument("--mode", choices=["mc", "oracle"], required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=non_negative_int)
    p.add_argument("--k-coarse", type=int, default=12)
    p.add_argument("--k-fine", type=int, default=12)
    p.add_argument("--output")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("experiment")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def cli_dispatch(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    if argv[0] not in COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        # a result that overflows float64 is refused by dump_json (exit 3)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NonConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
