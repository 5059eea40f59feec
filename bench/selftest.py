"""Tests of the benchmark itself, on tiny seeded runs.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test collection:
they time subprocesses and belong to the benchmark, not to prodbmo.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.load_package()

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "1",
}


def tiny_run(name, trace=0):
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, setup_repeats=1,
                            min_items=2)


def printed_metrics(report, trace, capsys):
    """{name: unit} of the metric lines the report prints, each with n=."""
    run.print_report(report, trace)
    text = capsys.readouterr().out
    return dict(re.findall(r"^\s+(\S+)\s+\S+\s+(\S+)\s+n=\d+$", text, re.M))


def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_completes_and_prints_every_metric(name, capsys):
    report = tiny_run(name)
    assert report["errors"] == []
    assert printed_metrics(report, 0, capsys) == END_TO_END_UNITS
    for metric, (value, unit, samples) in report["metrics"].items():
        assert samples >= 1
        assert value > 0 or metric == "fail_ratio"
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name, layer", [("lemma-core", "linop.assemble"),
                                         ("lmo-equivalence", "closure.best_ratio")])
def test_traced_run_reports_every_per_layer_metric(name, layer, capsys):
    report = tiny_run(name, trace=1)
    assert report["errors"] == []
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert printed_metrics(report, 1, capsys) == spec
    assert report["metrics"][f"{layer}.calls"][0] >= 1
    records = report["spans"]["records"]
    assert all(parent < i for i, (_, _, _, parent, _, _) in enumerate(records))
    assert {item for *_, item, _ in records} == {0, 1}
    # the tracer is removed again: calls after the run are not recorded
    n_spans = len(records)
    phi = workloads.calibration.random_hh_symbol((2, 2), np.random.default_rng(0))
    workloads.norms.bmo_rect_norm_sq(phi)
    assert len(records) == n_spans


def test_perturbed_bmo_value_counts_as_failure(monkeypatch):
    norms = workloads.norms
    exact = norms.bmo_d_norm_sq

    def perturbed(*args, **kwargs):
        value, mask = exact(*args, **kwargs)
        return value * (1.0 + 1e-9), mask

    monkeypatch.setattr(norms, "bmo_d_norm_sq", perturbed)
    report = tiny_run("lmo-equivalence")
    assert report["metrics"]["fail_ratio"][0] == 1.0
    assert all(err.startswith("check: g(Omega)") for err in report["errors"])
    line = run.result_line(report)
    assert not line["correct"] and line["failed"] == line["attempted"] == 2


def test_raising_item_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads.hilbert, "mc_hilbert", broken)
    report = tiny_run("mc-hilbert")
    assert report["metrics"]["fail_ratio"][0] == 1.0
    assert report["errors"] == ["FloatingPointError: injected"] * 2


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemma-core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "no package source" in proc.stderr
