"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected("end_to_end")
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["burr-wide"])
def test_traced_run_reports_every_layer(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    res = result_of(proc)
    assert res["correct"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected("per_layer")
    assert all(m["value"] is not None for m in res["metrics"].values())
    assert "overhead" in proc.stdout
    spans = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace1-spans.json").read_text())
    names = {s["name"] for s in spans["spans"]}
    assert {"replay.iso", "solvers.isospectral_stationary", "cli.main", "mmio.read_matrix"} <= names


def test_wrong_output_is_counted_not_fatal():
    proc = run("--workload", "burr-paper", "--seed", "3", "--seconds", "1", "--smoke", "--inject-wrong")
    res = result_of(proc)
    assert not res["correct"]
    assert res["failed"] >= 1
    assert set(res["metrics"]) == set(expected("end_to_end"))
    assert "FAILED iso" in proc.stdout


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "burr-paper", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_burr_paper_seed_1_is_the_bench_trial_set():
    from isored import bench
    from isored.solvers import direct_stationary, isospectral_stationary

    spec = wl.WORKLOADS["burr-paper"]
    cfg = bench.RunConfig(trials=spec.instances, n=spec.n, nnz=spec.nnz, alpha=spec.alpha,
                          s=spec.s, seed=1, baseline="direct")
    out = ROOT / ".bench_out" / f"seed1-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        chains, _ = wl.build_burr(dataclasses.replace(spec, instances=2), 1, str(out),
                                  tracing.NullTracer())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for c in chains:
        rec = bench.run_trial(cfg, c.key)
        assert direct_stationary(c.A).residual == rec.e1
        assert isospectral_stationary(c.A, c.cfg).residual == rec.e2


def test_rational_graphs_are_structural_and_stochastic():
    from isored.symbolic import WeightedDigraph, is_structural_set

    for k in range(30):
        rng = np.random.default_rng(k)
        M, S = wl.rational_graph(rng, int(rng.integers(3, 13)))
        n = len(M)
        assert all(sum(M[i][j] for i in range(n)) == 1 for j in range(n))
        assert is_structural_set(WeightedDigraph.from_matrix(M), S)
