"""Stationary-measure solvers with instrumentation.

Three routes to a fixed point ``A v = v`` on the probability simplex, each of
which first refuses a chain without exactly one essential class (a measure
that is not unique):

* :func:`perron_frobenius` -- plain power iteration from a random simplex
  point, stopping when the squared update drops below ``10**(-2p)``;
* :func:`direct_stationary` -- one LU solve of ``(A - I) v = 0`` with its
  last equation replaced by ``sum(v) = 1``.  A dense matrix is factored
  whole; a sparse one is first peeled by the block reduction's levels, every
  vertex but one of the essential class, and the same replaced system is
  solved on the dense core, ``I`` minus the stochastic complement, then
  folded back;
* :func:`isospectral_stationary` -- reduce over a kept set, solve the
  reduced chain with :func:`direct_stationary`, reconstruct.  The route of
  choice when several eigenvalues crowd the unit circle and iteration
  stalls: at ``lambda = 1`` the reduction is the stochastic complement,
  which keeps the class structure (so a second essential class is refused
  on R as on A) and keeps a near-decoupled chain near-decoupled, so
  iterating on the reduced chain would stall too.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lapack

from .core import ProbabilityVector, residual, validate_stochastic
from .errors import NoConvergence, SingularSystem
from .reduction import (
    RandomS,
    ReductionRecord,
    _peel,
    reconstruct_stationary,
    reduce_block,
    select_subset,
)
from .spectral import _labelling

#: read by no solver; importable only because perfbench imports it
DIRECT_SIZE_LIMIT = 2000
#: read by no solver (the scheme draws once); importable only because perfbench imports it
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
    max_rereductions: int = 2       # has no effect; kept because perfbench passes it
    inner: str = "direct"           # "direct" solves R directly; "pf" iterates

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.inner not in ("direct", "pf"):
            raise ValueError(f"inner must be 'direct' or 'pf', got {self.inner!r}")


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

    A chain without exactly one essential class is refused first, with
    :class:`SingularSystem`, as :func:`direct_stationary` refuses it: the
    iteration would stop on a start-dependent vector.  On hitting
    ``max_iters`` the best iterate is returned with the flag
    ``max_iters_exceeded`` set; critical matrices are expected to do this.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    _essential_root(A)
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


def _essential_root(A):
    """The largest vertex of the one essential class of ``A``, else
    :class:`SingularSystem`: the stationary measure is unique exactly then.
    A dense chain with no zero entry is one class; any other chain's
    classes are counted on one strong-components labelling."""
    if not A.is_sparse and A.data.min() > 0:
        return A.n - 1
    _, _, root, _, cyclic, leaks = _labelling(A)
    essential = np.flatnonzero(cyclic & ~leaks)
    if essential.size != 1:
        raise SingularSystem(
            f"{essential.size} essential classes; stationary measure not unique")
    return np.flatnonzero(root == essential[0])[-1]


def direct_stationary(A):
    """LU baseline: ``(A - I) v = 0`` with its last equation replaced by
    ``sum(v) = 1``.

    :func:`_essential_root` refuses a chain without exactly one essential
    class first, for both storages; once the measure is unique, any one
    equation may go.  Dense input takes one ``dgesv`` of the full system.
    Sparse input is first peeled by :func:`reduction._peel`, every vertex
    but the largest of the essential class and those whose pivot rounds to
    zero (``dgesv`` pivots them); the other vertices hold no closed class,
    so the peel needs no pivoting.  What is left is the core system ``G = I
    - C``, ``C`` the stochastic complement of ``A`` on the core, which keeps
    the one essential class; it is solved the same way, and the rest of
    ``v`` is folded back level by level.  Either way a reciprocal condition
    estimate below machine epsilon warns with ``LinAlgWarning``, and the
    clipped, normalized vector must leave a residual of at most 1e-6.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    n = A.n
    r = _essential_root(A)
    if A.is_sparse:
        _, levels, Q, M, _, _ = _peel(A.data, np.empty(0, np.intp), np.arange(n), 1.0, hold=[r])
    else:
        levels = ()
        M = np.array(A.dense, order="F")
        M.T.reshape(-1)[:: n + 1] -= 1.0  # A - I: only the diagonal changes
    M[-1, :] = 1.0
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    v, rcond = _lu_solve(M, rhs)
    if levels:  # v holds the core Q; the peeled vertices fold back
        v, v_Q = np.zeros(n), v
        v[Q] = v_Q
        for P, _, W, _, _ in reversed(levels):
            v[P] = W @ v
    # the ill-conditioning warning of scipy.linalg.solve
    if rcond < _EPS:
        warnings.warn(f"ill-conditioned fixed-point system (rcond={rcond:.3e})",
                      LinAlgWarning, stacklevel=2)
    total = v.sum()  # finite only if every entry is
    if not (math.isfinite(total) and total > 0):
        raise SingularSystem("fixed-point solve produced a degenerate solution")
    np.maximum(v, 0.0, out=v)
    v /= v.sum()
    res = residual(A, v)
    if not res <= 1e-6:  # nan fails too
        raise SingularSystem(f"fixed-point residual {res:.3e} exceeds 1e-6")
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
    """Reduce, solve the reduced system, reconstruct: one pass.

    One kept set comes from ``cfg.strategy`` (default: uniform random of size
    ``cfg.s``), and a refusal of :func:`reduce_block` over it is raised, not
    redrawn.  The reduced chain is solved by
    :func:`direct_stationary` at every size, or iterated on by
    :func:`perron_frobenius` (``cfg.inner == "pf"``); either refuses it, as
    it would ``A``, when it has more than one essential class.
    """
    A = validate_stochastic(A)
    start = time.perf_counter()
    s = cfg.s if cfg.s is not None else max(1, A.n // 10)
    strategy = cfg.strategy if cfg.strategy is not None else RandomS(s, cfg.seed)
    rec = reduce_block(A, select_subset(A, strategy))
    inner = perron_frobenius(rec.R, cfg) if cfg.inner == "pf" else direct_stationary(rec.R)
    v = reconstruct_stationary(rec, inner.v)
    return SolveOutcome(
        v=v,
        iterations=inner.iterations,
        residual=residual(A, v.values),
        wall_time=time.perf_counter() - start,
        method="iso",
        reduction=rec,
        flags=inner.flags,
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
]
