"""Benchmark harness: baseline solver vs. the reduction scheme, trial by trial.

A trial is one pass over one instance.  It generates a fresh heavy-tail
sparse chain, takes its inner spectral radius ``rho_i`` once, times the
baseline solve (``t1``) and the full reduction scheme (selection + reduction
+ reduced solve + reconstruction, ``t2``), and records the two fixed-point
residuals ``e1`` and ``e2`` together with the distance ``d`` between the
solutions.  Two more fields come from the same pass:

* ``rho_r``: the inner spectral radius of the scheme's reduced chain R, or
  NaN if the scheme failed;
* ``e_direct``: the residual of ``direct_stationary``, the reference the
  scheme's residual is judged against.  With the direct baseline this is
  the baseline's own solve; with ``baseline="pf"`` it is one extra, untimed
  direct solve after the scheme, flagged ``direct_failed:<Error>`` if it is
  refused.

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

CSV_COLUMNS = ("rho_i", "t1", "t2", "e1", "e2", "d", "rho_r", "e_direct", "flags")
_FLOAT_COLUMNS = CSV_COLUMNS[:-1]


@dataclass(frozen=True)
class BenchRecord:
    rho_i: float
    t1: float
    t2: float
    e1: float
    e2: float
    d: float
    rho_r: float = math.nan
    e_direct: float = math.nan
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

    def __post_init__(self):
        if self.trials < 1:
            raise EmptyInput("trials must be >= 1")
        if self.baseline not in ("direct", "pf"):
            raise ValueError(f"baseline must be 'direct' or 'pf', got {self.baseline!r}")


def _trial_inputs(cfg, k):
    """Instance ``k`` of a run and the solver configuration its trial uses."""
    gen_seed = int(np.random.SeedSequence([cfg.seed, k]).generate_state(1)[0])
    A = gen_sparse_stochastic(
        SparseGenConfig(n=cfg.n, nnz_per_col=cfg.nnz, burr=BurrConfig(cfg.alpha), seed=gen_seed)
    )
    solver_cfg = SolverConfig(
        p=cfg.p,
        max_iters=cfg.max_iters,
        seed=gen_seed,
        s=cfg.s,
        strategy=RandomS(cfg.s, seed=gen_seed + 1),
    )
    return A, solver_cfg


def _timed(label, flags, solve):
    """Time one solve.  A typed failure is timed too, flagged, and gives ``None``."""
    t0 = time.perf_counter()
    try:
        out = solve()
    except IsoredError as exc:
        elapsed = time.perf_counter() - t0
        flags.append(f"{label}_failed:{type(exc).__name__}")
        return None, elapsed
    elapsed = time.perf_counter() - t0
    flags.extend(f"{label}:{f}" for f in out.flags)
    return out, elapsed


def run_trial(cfg, k):
    """One pass over instance ``k``: generate, measure, solve; returns a BenchRecord."""
    A, solver_cfg = _trial_inputs(cfg, k)
    rho = inner_spectral_radius(A)
    flags = []
    base, t1 = _timed("baseline", flags, lambda: direct_stationary(A) if cfg.baseline == "direct"
                      else perron_frobenius(A, solver_cfg))
    scheme, t2 = _timed("scheme", flags, lambda: isospectral_stationary(A, solver_cfg))
    direct = base
    if cfg.baseline == "pf":
        direct, _ = _timed("direct", flags, lambda: direct_stationary(A))

    nan = float("nan")
    both = base is not None and scheme is not None
    return BenchRecord(
        rho_i=float(rho),
        t1=float(t1),
        t2=float(t2),
        e1=float(base.residual) if base is not None else nan,
        e2=float(scheme.residual) if scheme is not None else nan,
        d=float(np.linalg.norm(base.v.values - scheme.v.values)) if both else nan,
        rho_r=float(inner_spectral_radius(scheme.reduction.R)) if scheme is not None else nan,
        e_direct=float(direct.residual) if direct is not None else nan,
        flags=tuple(flags),
    )


def run_comparison(cfg, parallel=0):
    """Run every trial; ``parallel`` > 1 fans them out to worker processes."""
    if parallel and parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    return [run_trial(cfg, k) for k in range(cfg.trials)]


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
                [repr(float(getattr(r, name))) for name in _FLOAT_COLUMNS] + [";".join(r.flags)]
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
                    **{name: float(x) for name, x in zip(_FLOAT_COLUMNS, row)},
                    flags=tuple(f for f in row[-1].split(";") if f),
                )
            )
    return records
