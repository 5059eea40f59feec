#!/usr/bin/env python3
"""prodbmo benchmark: a workload per process, closed loop, one item in flight.

    python3 bench/run.py --workload lemma-core --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it holding ``src/prodbmo``).
With ``--trace 0`` it runs items for ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it runs items untraced for half the
time, then the same items again with a span around every call into each
layer, and reports per-layer calls, self time and sizes per item.  Every
item is checked; the last stdout line is the JSON result, the lines before
it a readable table and the environment.  Results (and spans, when traced)
are also written under ``.bench_out/``.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# pinned before numpy is imported, here and in every set-up probe
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: p90 needs at least ten samples above it
MIN_ITEMS = 100
#: a run stops taking new items after this long even below MIN_ITEMS
MAX_LOOP_SECONDS = 120.0
#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 5
#: reported times are scaled to a machine on which the reference kernel
#: takes this long (its typical time on the 2-core x86-64 box the bounds
#: were tuned on); the CPU speed one process sees there drifts by 30-40%
#: within seconds and between runs
REFERENCE_S = 6e-4


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def load_package():
    """Import prodbmo from ``src/`` of this checkout and nowhere else."""
    pkg_dir = SRC / "prodbmo"
    if not (pkg_dir / "__init__.py").is_file():
        raise BenchError(f"no package source at {pkg_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import prodbmo

    if Path(prodbmo.__file__).resolve().parent != pkg_dir.resolve():
        raise BenchError(f"prodbmo imported from {prodbmo.__file__}, not {pkg_dir}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------

def set_up(workloads, name, seed):
    """Seeded inputs plus the untimed warm-up items; returns (workload, items, digest)."""
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    items, digest = workloads.make_inputs(workload, seed)
    for i in workload.warmup:
        try:
            workload.run(items[i])
        except Exception:  # noqa: BLE001 - the timed loop runs and counts this item again
            pass
    return workload, items, digest


def measure_setup(name, seed, repeats):
    """(wall_s, slowdown) of fresh processes that start, import, generate
    and warm up.  Each probe then times the reference kernel itself; that
    time is taken off the wall time and gives the probe's slowdown."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                             timeout=120).stdout
        wall = time.perf_counter() - t0
        probe_slowdown, kernel_s = map(float, out.split())
        runs.append((wall - kernel_s, probe_slowdown))
    return runs


def setup_probe(name, seed):
    """Body of one set-up probe: set up, then report the slowdown measured
    by five kernel runs and the time they took."""
    set_up(load_package(), name, seed)
    t0 = time.perf_counter()
    slowdowns = [slowdown() for _ in range(5)]
    print(statistics.median(slowdowns), time.perf_counter() - t0)


def reference_kernel():
    """Fixed work of the kind the package does, independent of it: an
    interpreted loop over ints and a dict, then small-array numpy calls."""
    table = {}
    acc = 0
    for i in range(4000):
        acc += i * i
        table[i & 255] = acc
    a = np.arange(64.0)
    for _ in range(100):
        a = a[::-1] * 0.5 + 1.0
    return acc + a[0]


def slowdown():
    """Reference kernel time over REFERENCE_S: 1 on the reference machine."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) / REFERENCE_S


def timed_loop(workload, check_failure, items, seconds=None, n_items=None,
               min_items=MIN_ITEMS, tracer=None):
    """Run items in order, one at a time, until ``seconds`` have passed and
    ``min_items`` are done, or exactly ``n_items`` items.

    Returns one (latency_s, slowdown, error or None) per item.  The latency
    covers the package work only; the check runs after the clock stops.
    ``slowdown`` is the mean of :func:`slowdown` just before and just after
    the item.  An item that raises or fails its
    check is an error, never a timing.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if n_items is None:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_items) or elapsed >= MAX_LOOP_SECONDS:
                break
        elif i >= n_items:
            break
        item = items[i % len(items)]
        if tracer is not None:
            tracer.item = i
        error = None
        before = slowdown()
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        item_slowdown = (before + slowdown()) / 2.0
        if error is None:
            try:
                workload.check(item, out)
            except check_failure as exc:
                error = f"check: {exc}"
        records.append((latency, item_slowdown, error))
        i += 1
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def scaled(seconds, slowdown):
    """Seconds on the reference machine."""
    return seconds / slowdown


def latency_stats(records, scale):
    """(items_per_s, p50_ms, p90_ms, passed, attempted) with each latency
    mapped through ``scale(latency, slowdown)``."""
    lat = [scale(t, slowdown) for t, slowdown, _ in records]
    ok = [x for x, (_, _, err) in zip(lat, records) if err is None]
    busy = sum(lat)
    if len(ok) >= 2:
        p50 = statistics.median(ok) * 1e3
        p90 = statistics.quantiles(ok, n=10)[-1] * 1e3
    else:
        p50 = p90 = 0.0
    return len(ok) / busy if busy > 0 else 0.0, p50, p90, len(ok), len(records)


def end_to_end(records, setup_runs, peak_rss_mb):
    """{name: (value, unit, samples)} of the end-to-end metrics."""
    rate, p50, p90, passed, attempted = latency_stats(records, scaled)
    return {
        "items_per_s": (rate, "items/s", attempted),
        "item_p50_ms": (p50, "ms", passed),
        "item_p90_ms": (p90, "ms", passed),
        "setup_s": (statistics.median(scaled(w, slow) for w, slow in setup_runs), "s",
                    len(setup_runs)),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "fail_ratio": ((attempted - passed) / attempted, "1", attempted),
    }


def wall_clock(records, setup_runs):
    """The same timings unscaled, as the wall clock read them."""
    rate, p50, p90, _, _ = latency_stats(records, lambda t, slowdown: t)
    return {"items_per_s": rate, "item_p50_ms": p50, "item_p90_ms": p90,
            "setup_s": statistics.median(w for w, _ in setup_runs) if setup_runs else None,
            "slowdown": statistics.median(slowdown for _, slowdown, _ in records)}


#: printed in the table but not in the JSON result: it is 0 on a correct
#: run, and the JSON carries it as ``failed`` / ``attempted``
TABLE_ONLY = ("fail_ratio",)

PER_LAYER_UNITS = {"calls": "calls/item", "self_s": "s/item", "cells": "cells/item",
                   "rects": "rects/item", "arcs": "arcs/item", "errors": "errors/item",
                   "columns": "columns/item", "sample_points": "points/item"}


def per_layer(tracer, n_items, plain_busy, traced_busy):
    """{name: (value, unit, samples)}: per-item calls, self time and sizes of
    every traced function, and the tracing overhead."""
    totals = tracer.layer_totals()
    out = {}
    for name in tracing.span_names():
        calls, self_s, errors = totals.get(name, (0, 0.0, 0))
        counters = {"calls": calls, "self_s": self_s}
        for key in tracing.SIZE_COUNTERS.get(name, ()):
            counters[key] = errors if key == "errors" else tracer.sizes[f"{name}.{key}"]
        for key, total in counters.items():
            out[f"{name}.{key}"] = (total / n_items, PER_LAYER_UNITS[key], n_items)
    out["trace.overhead_ratio"] = (traced_busy / plain_busy, "1", n_items)
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "prodbmo").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_config():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(name, seed, digest, pool_items):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": _blas_config(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": name,
        "seed": seed,
        "inputs_sha256": digest,
        "pool_items": pool_items,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
                 min_items=MIN_ITEMS):
    """Set up, measure and check one workload; returns the report dict.

    ``metrics`` maps names to (value, unit, samples); ``wall`` holds the
    unscaled timings; ``spans`` is filled for traced runs only.
    """
    workloads = load_package()
    workload, items, digest = set_up(workloads, name, seed)
    check_failure = workloads.CheckFailure
    report = {"env": environment(name, seed, digest, len(items)), "spans": None}
    if not trace:
        records = timed_loop(workload, check_failure, items, seconds, min_items=min_items)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_runs = measure_setup(name, seed, setup_repeats)
        report["metrics"] = end_to_end(records, setup_runs, peak_rss_mb)
        report["wall"] = wall_clock(records, setup_runs)
    else:
        plain = timed_loop(workload, check_failure, items, seconds / 2.0,
                           min_items=min_items)
        t0 = time.perf_counter()
        with tracing.Tracer() as tracer:
            traced = timed_loop(workload, check_failure, items, n_items=len(plain),
                                tracer=tracer)
        traced_wall = time.perf_counter() - t0
        report["metrics"] = per_layer(tracer, len(plain),
                                      sum(scaled(t, slow) for t, slow, _ in plain),
                                      sum(scaled(t, slow) for t, slow, _ in traced))
        report["untraced"] = dict(zip(("items_per_s", "item_p50_ms", "item_p90_ms"),
                                      latency_stats(plain, scaled)))
        report["wall"] = wall_clock(plain, [])
        report["layer_share"] = tracer.layer_shares(traced_wall)
        report["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent", "item", "ok"],
                           "records": tracer.spans}
        records = plain + traced
    report["attempted"] = len(records)
    report["errors"] = [err for _, _, err in records if err is not None]
    return report


def result_line(report):
    failed = len(report["errors"])
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u, _) in report["metrics"].items() if k not in TABLE_ONLY}
    return {"correct": failed == 0, "attempted": report["attempted"], "failed": failed,
            "metrics": metrics}


def print_report(report, trace):
    env = report["env"]
    print(f"# workload {env['workload']}  seed {env['seed']}  trace {trace}  "
          f"inputs {env['inputs_sha256'][:16]}")
    if trace:
        print("# untraced half of this run, reference-scaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in report["untraced"].items()))
        print("# traced share by layer (self time / inclusive of wall time): " + ", ".join(
            f"{layer} {own:.1%}/{incl:.1%}" for layer, (own, incl) in report["layer_share"].items()))
    print("# wall clock, unscaled: " + ", ".join(
        f"{k} {v:.6g}" for k, v in report["wall"].items() if v is not None))
    for name, (value, unit, n) in report["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit:<12} n={n}")
    print(f"# items attempted {report['attempted']}, failed {len(report['errors'])}")
    for err in report["errors"][:5]:
        print(f"# failed item: {err}")
    print("# env " + json.dumps(env, sort_keys=True))


def write_report(report, trace):
    OUT_DIR.mkdir(exist_ok=True)
    env = report["env"]
    path = OUT_DIR / f"{env['workload']}-seed{env['seed']}-trace{trace}.json"
    doc = dict(report, metrics={k: {"value": v, "unit": u, "samples": n}
                                for k, (v, u, n) in report["metrics"].items()})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    codes = [subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], cwd=ROOT).returncode
             for name in load_package().WORKLOADS]
    return max(codes)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if not args.seconds > 0:
            raise BenchError("--seconds must be positive")
        if args.workload == "all":
            return run_all(args)
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(report, args.trace)
    write_report(report, args.trace)
    print(json.dumps(result_line(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
