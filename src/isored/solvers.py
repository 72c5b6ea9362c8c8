"""Stationary-measure solvers with instrumentation.

Three routes to a fixed point ``A v = v`` on the probability simplex:

* :func:`perron_frobenius` -- plain power iteration from a random simplex
  point, stopping when the squared update drops below ``10**(-2p)``;
* :func:`direct_stationary` -- one LU solve of ``(A - I) v = 0`` with the
  last equation replaced by the normalization ``sum(v) = 1``;
* :func:`isospectral_stationary` -- reduce over a kept set, solve the small
  system, reconstruct.  The route of choice when several eigenvalues crowd
  the unit circle and iteration stalls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ProbabilityVector, residual, validate_stochastic
from .errors import NoConvergence, SingularElimination, SingularSystem
from .reduction import (
    RandomS,
    ReductionRecord,
    reconstruct_stationary,
    reduce_block,
    select_subset,
)

#: reduced systems up to this size go to the direct solver; on reduced Burr
#: chains the dense solve beat power iteration in median time at every size
#: measured (200 to 2400), and power iteration can stop 0.23 (L1) short
DIRECT_SIZE_LIMIT = 2000
MAX_REDUCTION_ATTEMPTS = 5


@dataclass(frozen=True)
class SolverConfig:
    p: int = 8                      # target precision 10**-p
    max_iters: int = 10**6
    seed: int = 0
    s: int | None = None            # kept-set size; defaults to n // 10
    strategy: object | None = None  # SelectionStrategy; defaults to RandomS(s, seed)
    regap_threshold: float = 0.999
    max_rereductions: int = 2
    inner: str = "auto"             # "auto" | "direct" | "pf"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.regap_threshold < 1.0:
            raise ValueError("regap_threshold must lie in (0, 1)")
        if self.inner not in ("auto", "direct", "pf"):
            raise ValueError(f"inner must be 'auto', 'direct' or 'pf', got {self.inner!r}")


@dataclass(frozen=True)
class SolveOutcome:
    v: ProbabilityVector
    iterations: int
    residual: float
    wall_time: float
    method: str
    reduction: ReductionRecord | None = None
    flags: tuple = field(default_factory=tuple)

    @property
    def converged(self):
        return "max_iters_exceeded" not in self.flags


def _random_simplex_point(n, rng):
    # normalized iid exponentials are uniform on the simplex
    w = rng.exponential(size=n)
    return w / w.sum()


def perron_frobenius(A, cfg=SolverConfig()):
    """Iterate ``v <- A v`` until the squared update is below ``10**(-2p)``.

    On hitting ``max_iters`` the best iterate is returned with the flag
    ``max_iters_exceeded`` set; critical matrices are expected to do this.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    v = _random_simplex_point(A.n, rng)
    data = A.data.tocsr() if A.is_sparse else A.data
    tol2 = 10.0 ** (-2 * cfg.p)
    flags = ()
    iterations = cfg.max_iters
    for it in range(1, cfg.max_iters + 1):
        w = data @ v
        d = w - v
        v = w
        if d @ d < tol2:
            iterations = it
            break
    else:
        flags = ("max_iters_exceeded",)
    v = v / v.sum()
    return SolveOutcome(
        v=ProbabilityVector(v),
        iterations=iterations,
        residual=residual(A, v),
        wall_time=time.perf_counter() - start,
        method="pf",
        flags=flags,
    )


def _solve_replaced_system(A):
    """Solve (A - I) v = 0 with the last equation replaced by sum(v) = 1."""
    n = A.n
    if A.is_sparse:
        coo = (A.data - sp.identity(n, format="csc")).tocoo()
        keep = coo.row < n - 1
        rows = np.concatenate([coo.row[keep], np.full(n, n - 1)])
        cols = np.concatenate([coo.col[keep], np.arange(n)])
        vals = np.concatenate([coo.data[keep], np.ones(n)])
        M = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        try:
            v = spla.splu(M).solve(rhs)
        except RuntimeError as exc:
            raise SingularSystem(f"fixed-point system is singular: {exc}") from exc
    else:
        M = A.dense - np.eye(n)
        M[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        try:
            v = sla.solve(M, rhs)
        except sla.LinAlgError as exc:
            raise SingularSystem(f"fixed-point system is singular: {exc}") from exc
    if not np.all(np.isfinite(v)) or v.sum() <= 0:
        raise SingularSystem("fixed-point solve produced a degenerate solution")
    return v


def direct_stationary(A):
    """LU baseline; raises :class:`SingularSystem` when the stationary
    measure is not unique (1 is a multiple eigenvalue)."""
    A = validate_stochastic(A)
    start = time.perf_counter()
    v = _solve_replaced_system(A)
    np.clip(v, 0.0, None, out=v)
    v /= v.sum()
    res = residual(A, v)
    if not np.isfinite(res) or res > 1e-6:
        raise SingularSystem(f"fixed-point residual {res:.3e}; stationary measure not unique")
    return SolveOutcome(
        v=ProbabilityVector(v),
        iterations=0,
        residual=res,
        wall_time=time.perf_counter() - start,
        method="direct",
    )


def estimate_inner_radius(A, v_star, seed=0, max_iters=400, window=60, rtol=0.05):
    """Growth-rate estimate of the second-largest eigenvalue modulus.

    Runs power iteration on the zero-sum hyperplane with the dominant
    direction deflated through the stationary vector, and averages the
    per-step log growth over a trailing window.  Raises
    :class:`NoConvergence` when the estimate refuses to settle.
    """
    A = validate_stochastic(A)
    n = A.n
    if n < 2:
        return 0.0
    vs = np.asarray(v_star, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= x.mean()
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    x /= nx
    data = A.data.tocsr() if A.is_sparse else A.data
    log_rates = []
    for _ in range(max_iters):
        y = data @ x - vs * x.sum()
        r = np.linalg.norm(y)
        if r < 1e-300:
            return 0.0
        x = y / r
        log_rates.append(np.log(r))
        if len(log_rates) >= 2 * window:
            recent = np.exp(np.mean(log_rates[-window:]))
            earlier = np.exp(np.mean(log_rates[-2 * window : -window]))
            if abs(recent - earlier) <= rtol * max(recent, 1e-12):
                return float(recent)
    tail = np.exp(np.mean(log_rates[-window:]))
    head = np.exp(np.mean(log_rates[-2 * window : -window])) if len(log_rates) >= 2 * window else None
    if head is not None and abs(tail - head) <= 2 * rtol * max(tail, 1e-12):
        return float(tail)
    raise NoConvergence(f"growth-rate estimate did not settle (last {tail:.4f})")


def _solve_reduced(R, cfg):
    s = R.n
    mode = cfg.inner
    if mode == "auto":
        mode = "direct" if s <= DIRECT_SIZE_LIMIT else "pf"
    if mode == "direct":
        return direct_stationary(R)
    return perron_frobenius(R, cfg)


def isospectral_stationary(A, cfg=SolverConfig()):
    """Reduce, solve the reduced system, reconstruct.

    The kept set comes from ``cfg.strategy`` (default: uniform random of size
    ``cfg.s``).  A singular elimination is retried with a fresh random set up
    to five times.  When the reduced solve is iterative and the estimated
    inner radius of the reduced matrix still exceeds ``cfg.regap_threshold``,
    the reduction is redrawn up to ``cfg.max_rereductions`` times.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    n = A.n
    s = cfg.s if cfg.s is not None else max(1, n // 10)
    strategy = cfg.strategy if cfg.strategy is not None else RandomS(s, cfg.seed)

    flags = []
    rec = None
    attempt = 0
    while True:
        try:
            S = select_subset(A, strategy)
            rec = reduce_block(A, S)
            break
        except SingularElimination:
            attempt += 1
            if attempt >= MAX_REDUCTION_ATTEMPTS:
                raise
            flags.append("reduction_retry")
            strategy = RandomS(getattr(strategy, "s", s), cfg.seed + 1000 + attempt)

    inner = _solve_reduced(rec.R, cfg)
    iterative = inner.method == "pf"
    if iterative and cfg.max_rereductions > 0:
        redraws = 0
        while redraws < cfg.max_rereductions:
            try:
                rho = estimate_inner_radius(rec.R, inner.v, seed=cfg.seed + redraws)
            except NoConvergence:
                rho = 1.0
            if rho <= cfg.regap_threshold:
                break
            redraws += 1
            flags.append("re_reduction")
            strategy = RandomS(getattr(strategy, "s", s), cfg.seed + 2000 + redraws)
            S = select_subset(A, strategy)
            try:
                rec = reduce_block(A, S)
            except SingularElimination:
                continue
            inner = _solve_reduced(rec.R, cfg)

    v = reconstruct_stationary(rec, inner.v)
    return SolveOutcome(
        v=v,
        iterations=inner.iterations,
        residual=residual(A, v.values),
        wall_time=time.perf_counter() - start,
        method="iso",
        reduction=rec,
        flags=tuple(flags) + inner.flags,
    )


def solve(A, method, cfg=SolverConfig()):
    """Dispatch by method name: 'pf', 'iso' or 'direct'."""
    if method == "pf":
        return perron_frobenius(A, cfg)
    if method == "iso":
        return isospectral_stationary(A, cfg)
    if method == "direct":
        return direct_stationary(A)
    raise ValueError(f"unknown method {method!r}")


__all__ = [
    "SolverConfig",
    "SolveOutcome",
    "perron_frobenius",
    "direct_stationary",
    "isospectral_stationary",
    "estimate_inner_radius",
    "solve",
    "DIRECT_SIZE_LIMIT",
]
