"""Benchmark of the isored public API: end-to-end timings or a traced per-module run.

Run from the root of the repository:

    python3 perfbench/run.py --workload burr-paper --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` measures untraced
and traced for half of ``--seconds`` each, then prints the per-layer table,
the tracing overhead and the share of the scheme's time the replayed steps
leave unexplained, and writes the spans under ``.bench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads and metrics are
described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

#: BLAS threads; set before NumPy is imported (threadpoolctl is not available)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import shutil
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: setup is repeated this often per run; setup_s is the import time plus the median
SETUP_REPS = 5

#: end-to-end metrics: name -> (unit, operation, statistic, scale).  The mean
#: time per call is the inverse of the closed loop's throughput.  It is used
#: rather than a percentile because a shared 2-core VM can switch between a
#: fast and a 1.6x slower speed: a percentile jumps between the two as their
#: shares change from run to run, the mean moves in proportion (NOTES.md)
E2E = {
    "iso_ms_mean": ("ms", "iso", "mean", 1e3),
    "direct_ms_mean": ("ms", "direct", "mean", 1e3),
    "cli_stationary_ms_mean": ("ms", "cli", "mean", 1e3),
    "reduce_us_mean": ("us", "reduce", "mean", 1e6),
    "seq_us_mean": ("us", "seq", "mean", 1e6),
    "greedy_us_mean": ("us", "greedy", "mean", 1e6),
}
#: printed where the workload makes the calls, but not in the JSON line
REPORTED = {
    "iso_ms_p50": ("ms", "iso", 50, 1e3),
    "iso_ms_p90": ("ms", "iso", 90, 1e3),
    "direct_ms_p50": ("ms", "direct", 50, 1e3),
    "direct_ms_p90": ("ms", "direct", 90, 1e3),
    "cli_stationary_ms_p50": ("ms", "cli", 50, 1e3),
    "reduce_us_p50": ("us", "reduce", 50, 1e6),
    "reduce_us_p90": ("us", "reduce", 90, 1e6),
    "seq_us_p50": ("us", "seq", 50, 1e6),
    "greedy_us_p50": ("us", "greedy", 50, 1e6),
    "symreduce_ms_p50": ("ms", "symreduce", 50, 1e3),
    "symreduce_ms_p90": ("ms", "symreduce", 90, 1e3),
    "pf_ms_p50": ("ms", "pf", 50, 1e3),
    "rho_ms_p50": ("ms", "rho", 50, 1e3),
}
#: per-layer metrics measured on every workload; these make the traced JSON line
PER_LAYER = (
    "reduction.select_ms", "reduction.reduce_block_ms", "reduction.reconstruct_ms",
    "reduction.cond_estimate", "reduction.reduce_block_us", "reduction.reduce_sequential_us",
    "reduction.greedy_select_us", "solvers.inner_solve_ms", "solvers.inner_pf_iters",
    "solvers.rereductions", "solvers.retries", "solvers.direct_ms", "solvers.pf_us_per_iter",
    "solvers.pf_iters_total", "solvers.pf_not_converged", "solvers.iso_unexplained_pct",
    "spectral.inner_radius_ms", "core.validate_ms", "core.residual_ms", "mmio.read_ms",
    "mmio.write_vector_ms", "cli.self_ms", "randgen.gen_ms", "symbolic.branches",
)

#: module functions the CLI reaches through a module attribute, wrapped in spans when traced
CLI_CALLEES = (
    ("isored.mmio", "read_matrix", "mmio.read_matrix"),
    ("isored.mmio", "write_vector", "mmio.write_vector"),
    ("isored.cli", "validate_stochastic", "core.validate_stochastic"),
    ("isored.solvers", "solve", "solvers.solve"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=["burr-paper", "burr-wide", "small-corpus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one output on purpose; it must be counted as failed")
    return ap.parse_args(argv)


def host_facts():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def statistic(values, stat, scale):
    if not values:
        return None
    return float(np.mean(values) if stat == "mean" else np.percentile(values, stat)) * scale


def op_metrics(table, samples):
    return {name: (statistic(samples.get(op, []), stat, scale), unit, len(samples.get(op, [])))
            for name, (unit, op, stat, scale) in table.items()}


def measure(runner, spec, chains, graphs, seconds, replay=False):
    """Closed-loop rounds over every input, whole rounds only, for about ``seconds``."""
    cli_rounds = getattr(spec, "cli_rounds", 1)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for c in chains:
            runner.visit(c, rounds, cli_rounds, replay and rounds == 0)
        for g in graphs:
            runner.visit_graph(g)
        rounds += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            return rounds, now - t0


@contextlib.contextmanager
def traced_cli(tracer):
    """Wrap the functions the CLI calls into other modules in spans."""
    import importlib

    saved = []

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    try:
        for module, attr, name in CLI_CALLEES:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrap(getattr(mod, attr), name))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(tr, setup_tr, runner):
    """Per-layer table from the spans; ``None`` where the workload makes no such call."""

    def p50(values, scale=1.0):
        return float(np.median(values)) * scale if values else None

    def dur(name, parent=None):
        return tr.durations(name, parent)

    replay, visit = "replay.iso", "visit"
    own = tr.self_times()
    covered = defaultdict(float)
    for _, start, end, parent, _ in tr.spans:
        if parent is not None:
            covered[parent] += end - start
    unexplained, last_iso = [], {}
    for i, (name, start, end, _, key) in enumerate(tr.spans):
        if name == "solvers.isospectral_stationary":
            last_iso[key] = end - start
        elif name == replay and key in last_iso:
            unexplained.append(100.0 * (last_iso[key] - covered[i]) / last_iso[key])
    pf = dur("solvers.perron_frobenius", "extras")
    pf_iters = sum(runner.layer["pf_iters"])
    inner = dur("solvers.direct_stationary", replay) + dur("solvers.perron_frobenius", replay)
    gen = setup_tr.durations("randgen.gen_sparse_stochastic") + setup_tr.durations(
        "randgen.gen_dense_stochastic")
    return {
        "reduction.select_ms": (p50(dur("reduction.select_subset", replay), 1e3), "ms"),
        "reduction.reduce_block_ms": (p50(dur("reduction.reduce_block", replay), 1e3), "ms"),
        "reduction.reconstruct_ms": (p50(dur("reduction.reconstruct_stationary", replay), 1e3), "ms"),
        "reduction.cond_estimate": (p50(runner.layer["cond_estimate"]), "1"),
        "reduction.reduce_block_us": (p50(dur("reduction.reduce_block", visit), 1e6), "us"),
        "reduction.reduce_sequential_us": (p50(dur("reduction.reduce_sequential", visit), 1e6), "us"),
        "reduction.greedy_select_us": (p50(dur("reduction.select_subset", visit), 1e6), "us"),
        "solvers.inner_solve_ms": (p50(inner, 1e3), "ms"),
        "solvers.inner_direct_ms": (p50(dur("solvers.direct_stationary", replay), 1e3), "ms"),
        "solvers.inner_pf_ms": (p50(dur("solvers.perron_frobenius", replay), 1e3), "ms"),
        "solvers.inner_pf_iters": (sum(runner.layer["inner_pf_iters"]), "count"),
        "solvers.estimate_inner_radius_ms": (p50(dur("solvers.estimate_inner_radius", replay), 1e3), "ms"),
        "solvers.rereductions": (sum(runner.layer["rereductions"]), "count"),
        "solvers.retries": (sum(runner.layer["retries"]), "count"),
        "solvers.iso_unexplained_pct": (p50(unexplained), "%"),
        "solvers.direct_ms": (p50(dur("solvers.direct_stationary", visit), 1e3), "ms"),
        "solvers.pf_ms_p50": (p50(pf, 1e3), "ms"),
        "solvers.pf_us_per_iter": (sum(pf) / pf_iters * 1e6 if pf_iters else None, "us"),
        "solvers.pf_iters_total": (pf_iters, "count"),
        "solvers.pf_not_converged": (runner.not_converged, "count"),
        "spectral.inner_radius_ms": (p50(dur("spectral.inner_spectral_radius", "extras"), 1e3), "ms"),
        "spectral.diameter_tau_us": (p50(dur("spectral.diameter_tau"), 1e6), "us"),
        "spectral.min_entry_us": (p50(dur("spectral.min_entry"), 1e6), "us"),
        "core.validate_ms": (p50(dur("core.validate_stochastic"), 1e3), "ms"),
        "core.residual_ms": (p50(dur("core.residual"), 1e3), "ms"),
        "mmio.read_ms": (p50(dur("mmio.read_matrix", "cli.main"), 1e3), "ms"),
        "mmio.write_vector_ms": (p50(dur("mmio.write_vector", "cli.main"), 1e3), "ms"),
        "cli.self_ms": (p50([own[i] for i in tr.select("cli.main")], 1e3), "ms"),
        "randgen.gen_ms": (p50(gen, 1e3), "ms"),
        "symbolic.from_matrix_ms": (p50(dur("symbolic.from_matrix", visit), 1e3), "ms"),
        "symbolic.graph_reduce_ms": (p50(dur("symbolic.graph_reduce", visit), 1e3), "ms"),
        "symbolic.evaluate_at_ms": (p50(dur("symbolic.evaluate_at", visit), 1e3), "ms"),
        "symbolic.branches": (sum(runner.layer["branches"]), "count"),
        "bench.run_trial_ms": (p50(dur("bench.run_trial", "extras"), 1e3), "ms"),
    }


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "isored").is_dir():
        print(f"error: no isored sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as wl

    import_s = time.perf_counter() - _T0

    spec = (wl.SMOKE if args.smoke else wl.WORKLOADS)[args.workload]
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_tr = Tracer() if args.trace else NullTracer()
        runner = wl.Runner(NullTracer(), inject_wrong=args.inject_wrong)
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            chains, graphs = wl.build(spec, args.seed, str(tmp), setup_tr)
            runner.visit(chains[0], 0, 1)  # warm-up: every call once
            for g in graphs[:1]:
                runner.visit_graph(g)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)
        runner.samples.clear()

        seconds = args.seconds / 2 if args.trace else args.seconds
        rounds, elapsed = measure(runner, spec, chains, graphs, seconds)
        e2e = op_metrics(E2E, runner.samples)
        shown = op_metrics(REPORTED, runner.samples)
        layers = overhead = None
        if args.trace:
            untraced = {**e2e, **shown}
            tr = Tracer()
            runner.tr = tr
            runner.samples.clear()
            with traced_cli(tr):
                rounds_t, elapsed_t = measure(runner, spec, chains, graphs, seconds, replay=True)
            e2e = op_metrics(E2E, runner.samples)
            runner.extras(spec, args.seed, chains, graphs)
            shown = op_metrics(REPORTED, runner.samples)
            layers = layer_metrics(tr, setup_tr, runner)
            traced = {**e2e, **shown}
            overhead = {name: (None if untraced[name][0] is None or traced[name][0] is None
                               else traced[name][0] - untraced[name][0], traced[name][1])
                        for name in untraced}
            rounds, elapsed = rounds + rounds_t, elapsed + elapsed_t
        e2e["setup_s"] = (setup_s, "s", SETUP_REPS)

        attempted, failed = runner.attempted, runner.failed
        fail_share = (failed + runner.not_converged) / attempted
        facts = host_facts()
        result = {
            "correct": runner.wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": ({name: {"value": layers[name][0], "unit": layers[name][1]} for name in PER_LAYER}
                        if args.trace else
                        {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}),
        }

        print(f"isored benchmark  workload={args.workload} seed={args.seed} trace={args.trace}"
              f"  rounds={rounds} measured={elapsed:.1f}s")
        print("host  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
        print("end-to-end" + ("  (traced phase; overhead = traced - untraced)" if args.trace else ""))
        for name, (value, unit, n) in {**e2e, **shown}.items():
            if n or name in e2e:
                extra = f"  overhead {_fmt(overhead[name][0])}" if overhead and name in overhead else ""
                print(f"  {name:<26} {_fmt(value):>12} {unit:<3} n={n}{extra}")
        print(f"  {'fail_share':<26} {fail_share:>12.6g}     failed={failed} "
              f"not_converged={runner.not_converged} attempted={attempted}")
        for op, key, message in runner.failures[:20]:
            print(f"  FAILED {op} instance {key}: {message}")
        if layers:
            print("per-layer  (- : the workload makes no such call)")
            for name, (value, unit) in layers.items():
                print(f"  {name:<34} {_fmt(value):>12} {unit}")

        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "host": facts, "rounds": rounds, "fail_share": fail_share,
                  "not_converged": runner.not_converged, "failures": runner.failures,
                  "end_to_end": {**e2e, **shown}, "per_layer": layers, "overhead": overhead,
                  "result": result}
        with open(out_dir / f"{tag}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            tr.write(out_dir / f"{tag}-spans.json", extra={"host": facts})
            setup_tr.write(out_dir / f"{tag}-setup-spans.json", extra={"host": facts})
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
