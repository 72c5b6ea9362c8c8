"""Benchmark harness: baseline solver vs. the reduction scheme, trial by trial.

Each trial generates a fresh heavy-tail sparse instance, measures the inner
spectral radius, times the baseline solve and the full reduction scheme
(selection + reduction + reduced solve + reconstruction), and records the
two fixed-point residuals together with the distance between the solutions.
Failures never abort a batch; they produce a flagged row with NaN residuals.

Trials are deterministic given the base seed: trial ``k`` derives its RNG
streams from ``(seed, k)``, so parallel execution returns the same records
as serial (timings excepted).
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, IsoredError
from .randgen import BurrConfig, SparseGenConfig, gen_sparse_stochastic
from .reduction import RandomS
from .solvers import SolverConfig, direct_stationary, isospectral_stationary, perron_frobenius
from .spectral import inner_spectral_radius

CSV_COLUMNS = ("rho_i", "t1", "t2", "e1", "e2", "d", "flags")


@dataclass(frozen=True)
class BenchRecord:
    rho_i: float
    t1: float
    t2: float
    e1: float
    e2: float
    d: float
    flags: tuple = field(default_factory=tuple)

    @property
    def ok(self):
        return all(math.isfinite(x) for x in (self.e1, self.e2, self.d))


@dataclass(frozen=True)
class RunConfig:
    trials: int = 36
    n: int = 1000
    nnz: int = 4
    alpha: float = 0.2
    s: int = 90
    seed: int = 1
    baseline: str = "direct"     # "direct" | "pf"
    p: int = 8
    max_iters: int = 10**6
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise EmptyInput("trials must be >= 1")
        if self.baseline not in ("direct", "pf"):
            raise ValueError(f"baseline must be 'direct' or 'pf', got {self.baseline!r}")


def run_trial(cfg, k):
    """One generate/measure/solve/solve round; returns a BenchRecord."""
    gen_seed = np.random.SeedSequence([cfg.seed, k]).generate_state(1)[0]
    A = gen_sparse_stochastic(
        SparseGenConfig(n=cfg.n, nnz_per_col=cfg.nnz, burr=BurrConfig(cfg.alpha), seed=gen_seed)
    )
    rho = inner_spectral_radius(A)
    flags = []

    solver_cfg = SolverConfig(
        p=cfg.p,
        max_iters=cfg.max_iters,
        seed=int(gen_seed),
        s=cfg.s,
        strategy=RandomS(cfg.s, seed=int(gen_seed) + 1),
        max_rereductions=0,
    )

    v1 = e1 = t1 = None
    try:
        t0 = time.perf_counter()
        base = (direct_stationary(A) if cfg.baseline == "direct"
                else perron_frobenius(A, solver_cfg))
        t1 = time.perf_counter() - t0
        v1, e1 = base.v.values, base.residual
        flags.extend(f"baseline:{f}" for f in base.flags)
    except IsoredError as exc:
        t1 = time.perf_counter() - t0
        flags.append(f"baseline_failed:{type(exc).__name__}")

    v2 = e2 = t2 = None
    try:
        t0 = time.perf_counter()
        scheme = isospectral_stationary(A, solver_cfg)
        t2 = time.perf_counter() - t0
        v2, e2 = scheme.v.values, scheme.residual
        flags.extend(f"scheme:{f}" for f in scheme.flags)
    except IsoredError as exc:
        t2 = time.perf_counter() - t0
        flags.append(f"scheme_failed:{type(exc).__name__}")

    nan = float("nan")
    d = float(np.linalg.norm(v1 - v2)) if v1 is not None and v2 is not None else nan
    return BenchRecord(
        rho_i=float(rho),
        t1=float(t1),
        t2=float(t2),
        e1=float(e1) if e1 is not None else nan,
        e2=float(e2) if e2 is not None else nan,
        d=d,
        flags=tuple(flags),
    )


def run_comparison(cfg, parallel=0):
    """Run every trial; ``parallel`` > 1 fans them out to worker processes."""
    if parallel and parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            records = list(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        records = [run_trial(cfg, k) for k in range(cfg.trials)]
    if cfg.output:
        write_csv(cfg.output, records)
    return records


def _quartiles(values):
    v = np.asarray(values, dtype=np.float64)
    return tuple(float(q) for q in np.percentile(v, [25, 50, 75]))


def summarize(records):
    """Medians and quartiles of the trial ratios plus the residual win rate.

    Trials fall into three counts: converged, not converged (both solves gave
    finite numbers, but one stopped at ``max_iters``) and failed (a solve
    raised or gave non-finite numbers).  Ratios are taken over trials where
    both solves produced finite numbers.
    """
    if not records:
        raise EmptyInput("no benchmark records to summarize")
    ok = [r for r in records if r.ok]
    stalled = sum(any(f.endswith("max_iters_exceeded") for f in r.flags) for r in ok)
    out = {
        "trials": len(records),
        "converged_trials": len(ok) - stalled,
        "not_converged_trials": stalled,
        "failed_trials": len(records) - len(ok),
    }
    if ok:
        out["t2_over_t1"] = _quartiles([r.t2 / r.t1 for r in ok])
        out["e2_over_e1"] = _quartiles([r.e2 / r.e1 if r.e1 > 0 else 1.0 for r in ok])
        out["d"] = _quartiles([r.d for r in ok])
        out["rho_i"] = _quartiles([r.rho_i for r in records])
        out["frac_e2_le_e1"] = sum(r.e2 <= r.e1 for r in ok) / len(ok)
    return out


def format_summary(summary):
    lines = [
        f"trials            : {summary['trials']} "
        f"({summary['converged_trials']} converged, {summary['not_converged_trials']} not"
        f" converged, {summary['failed_trials']} failed)"
    ]
    for key in ("rho_i", "t2_over_t1", "e2_over_e1", "d"):
        if key in summary:
            q1, med, q3 = summary[key]
            lines.append(f"{key:<18}: median {med:.4g}   [q1 {q1:.4g}, q3 {q3:.4g}]")
    if "frac_e2_le_e1" in summary:
        lines.append(f"frac(e2 <= e1)    : {summary['frac_e2_le_e1']:.3f}")
    return "\n".join(lines)


def write_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [repr(float(x)) for x in (r.rho_i, r.t1, r.t2, r.e1, r.e2, r.d)]
                + [";".join(r.flags)]
            )


def read_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise EmptyInput(f"unexpected CSV header {header!r}")
        for row in reader:
            records.append(
                BenchRecord(
                    rho_i=float(row[0]),
                    t1=float(row[1]),
                    t2=float(row[2]),
                    e1=float(row[3]),
                    e2=float(row[4]),
                    d=float(row[5]),
                    flags=tuple(f for f in row[6].split(";") if f),
                )
            )
    return records
