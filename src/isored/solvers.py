"""Stationary-measure solvers with instrumentation.

Three routes to a fixed point ``A v = v`` on the probability simplex:

* :func:`perron_frobenius` -- plain power iteration from a random simplex
  point, stopping when the squared update drops below ``10**(-2p)``;
* :func:`direct_stationary` -- one LU solve of ``(A - I) v = 0`` with one
  equation replaced by the normalization ``sum(v) = 1``: the last one of a
  dense matrix, factored whole; on sparse input, one of a vertex of the
  essential class, whose complement is peeled by the block reduction's
  independent-set levels down to one bordered dense core;
* :func:`isospectral_stationary` -- reduce over a kept set, solve the
  reduced chain with :func:`direct_stationary`, reconstruct.  The route of
  choice when several eigenvalues crowd the unit circle and iteration
  stalls: at ``lambda = 1`` the reduction is the stochastic complement,
  which keeps a near-decoupled chain near-decoupled, so iterating on the
  reduced chain would stall as well.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lapack

from .core import ProbabilityVector, residual, validate_stochastic
from .errors import NoConvergence, SingularElimination, SingularSystem
from .reduction import (
    RandomS,
    ReductionRecord,
    _peel,
    reconstruct_stationary,
    reduce_block,
    select_subset,
)
from .spectral import _labelling

#: read by no solver: the scheme solves the reduced chain directly at every size
DIRECT_SIZE_LIMIT = 2000
#: kept-set draws of the scheme before a singular elimination is re-raised
MAX_REDUCTION_ATTEMPTS = 5
#: an LU whose reciprocal condition estimate falls below this warns
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class SolverConfig:
    p: int = 8                      # target precision 10**-p
    max_iters: int = 10**6
    seed: int = 0
    s: int | None = None            # kept-set size; defaults to n // 10
    strategy: object | None = None  # SelectionStrategy; defaults to RandomS(s, seed)
    regap_threshold: float = 0.999  # has no effect
    max_rereductions: int = 2       # has no effect
    inner: str = "auto"             # "auto" and "direct" solve R directly; "pf" iterates

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
    v /= v.sum()  # v is the last product, a fresh array
    return SolveOutcome(
        v=ProbabilityVector._owned(v),
        iterations=iterations,
        residual=residual(A, v),
        wall_time=time.perf_counter() - start,
        method="pf",
        flags=flags,
    )


def _lu_solve(M, rhs):
    """``dgesv`` of the Fortran-ordered ``M``, and ``dgecon``'s reciprocal
    1-norm condition estimate from the same LU."""
    anorm = lapack.dlange("1", M)
    lu, _, v, info = lapack.dgesv(M, rhs, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise SingularSystem(f"fixed-point system is singular: zero pivot {info}")
    rcond, _ = lapack.dgecon(lu, anorm)
    return v, rcond


def _solve_on_peel(A):
    """Sparse replaced system: the equation of a vertex ``r`` of the essential
    class is replaced by ``sum(v) = 1``, and every other vertex is eliminated.

    The eliminated set holds no closed class only when ``r`` lies in the one
    essential class, so that class is found first, structurally; then
    ``I - A[~r,~r]`` is a nonsingular M-matrix and the peel of
    :func:`reduction._peel` needs no pivoting; a vertex whose pivot rounds
    to zero stays in the core, which ``dgesv`` pivots.  The core leaves the
    bordered system ``[[G, -C], [f[Q], 1 + f_r]] [x_Q; v_r] = e_last``,
    where the row ``f`` is the normalization folded forward through the
    levels; the rest of ``v`` is folded back level by level.  Returns ``v``
    and the core's reciprocal condition estimate.
    """
    n = A.n
    if n == 1:
        return np.ones(1), 1.0
    _, _, root, _, cyclic, leaks = _labelling(A)
    essential = np.flatnonzero(cyclic & ~leaks)
    if essential.size != 1:
        raise SingularSystem(
            f"{essential.size} essential classes; stationary measure not unique")
    r = np.flatnonzero(root == essential[0])[-1]
    rest = np.delete(np.arange(n), r)
    _, levels, Q, M, f, _ = _peel(A.data, np.array([r]), rest, 1.0, border=True)
    d, q = n - 1, Q.size
    np.negative(M[:q, q], out=M[:q, q])
    M[q, :q] = f[Q]
    M[q, q] = 1.0 + f[d]
    rhs = np.zeros(q + 1)
    rhs[-1] = 1.0
    X = np.zeros(n)  # local numbering: eliminated vertices, then r
    X[np.append(Q, d)], rcond = _lu_solve(M, rhs)
    for P, _, W, _, _ in reversed(levels):
        X[P] = W @ X
    v = np.empty(n)
    v[rest], v[r] = X[:d], X[d]
    return v, rcond


def _solve_replaced_system(A):
    """Solve (A - I) v = 0 with one equation replaced by sum(v) = 1.

    Dense input replaces the last equation and takes one ``dgesv`` of the
    full system.  Sparse input goes through :func:`_solve_on_peel`: the
    equation of a vertex of the essential class is replaced, the other
    vertices are peeled as in a block reduction, and one ``dgesv`` solves
    the bordered dense core.  Either route warns with ``LinAlgWarning``
    when the LU's reciprocal condition estimate falls below machine epsilon.
    """
    if A.is_sparse:
        v, rcond = _solve_on_peel(A)
    else:
        n = A.n
        M = np.array(A.dense, order="F")
        M.T.reshape(-1)[:: n + 1] -= 1.0  # A - I: only the diagonal changes
        M[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        v, rcond = _lu_solve(M, rhs)
    # the ill-conditioning warning of scipy.linalg.solve
    if rcond < _EPS:
        warnings.warn(f"ill-conditioned fixed-point system (rcond={rcond:.3e})",
                      LinAlgWarning, stacklevel=3)
    total = v.sum()  # finite only if every entry is
    if not (math.isfinite(total) and total > 0):
        raise SingularSystem("fixed-point solve produced a degenerate solution")
    return v


def direct_stationary(A):
    """LU baseline; raises :class:`SingularSystem` when the stationary
    measure is not unique (1 is a multiple eigenvalue).

    Dense input: one ``dgesv`` of ``A - I`` with the last row replaced by
    ones.  Sparse input: the essential classes are counted on one
    strong-components labelling, so a second one is refused structurally;
    then the equation of a vertex of the essential class is replaced, every
    other vertex is peeled as in :func:`reduction.reduce_block`, and one
    ``dgesv`` solves the bordered core.  Either way a reciprocal condition
    estimate below machine epsilon warns with ``LinAlgWarning``, and the
    clipped, normalized vector must leave a residual of at most 1e-6.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    v = _solve_replaced_system(A)
    np.maximum(v, 0.0, out=v)
    v /= v.sum()
    res = residual(A, v)
    if not res <= 1e-6:  # nan fails too
        raise SingularSystem(f"fixed-point residual {res:.3e}; stationary measure not unique")
    return SolveOutcome(
        v=ProbabilityVector._owned(v),
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


def isospectral_stationary(A, cfg=SolverConfig()):
    """Reduce, solve the reduced system, reconstruct.

    The kept set comes from ``cfg.strategy`` (default: uniform random of size
    ``cfg.s``).  A singular elimination is retried with a fresh random set up
    to ``MAX_REDUCTION_ATTEMPTS`` draws in all.  The reduced chain is solved
    by :func:`direct_stationary` at every size, or by power iteration when
    ``cfg.inner`` is ``"pf"``.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    n = A.n
    s = cfg.s if cfg.s is not None else max(1, n // 10)
    strategy = cfg.strategy if cfg.strategy is not None else RandomS(s, cfg.seed)

    flags = []
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

    inner = perron_frobenius(rec.R, cfg) if cfg.inner == "pf" else direct_stationary(rec.R)
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
