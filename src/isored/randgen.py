"""Random instance generation and constructive matrix families.

The flagship generator draws sparse column-stochastic matrices whose nonzero
values follow the heavy-tailed Burr law; with a small tail exponent a single
entry tends to dominate each column, which pushes the inner spectral radius
toward 1 and makes the instances hard for iterative solvers.

The constructive families (two-block, banded, near-averaging, bounded-zero
patterns) realize matrices whose reductions are provably positive or
provably more contractive; the property suites assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    NonNegativeMatrix,
    StochasticMatrix,
    best_storage,
    project_columns,
)
from .errors import DimensionMismatch, PreconditionViolation


@dataclass(frozen=True)
class BurrConfig:
    """Tail exponent of the Burr law with CDF 1 - 1/(1 + x**alpha)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise PreconditionViolation(f"alpha must lie in (0, 1), got {self.alpha}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0, 1.0 - 1.0 / (1.0 + np.maximum(x, 0.0) ** self.alpha), 0.0)


@dataclass(frozen=True)
class SparseGenConfig:
    n: int
    nnz_per_col: int
    burr: BurrConfig
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.nnz_per_col <= self.n:
            raise PreconditionViolation(
                f"nnz_per_col must lie in [1, {self.n}], got {self.nnz_per_col}"
            )


def burr_sample(cfg, rng, size=None):
    """Inverse-CDF sampling: x = (u / (1 - u))**(1/alpha).

    The law is invariant under x -> 1/x.  Returns a scalar when ``size`` is
    None, else an ndarray.
    """
    u = rng.random(size)
    u = np.maximum(u, 2.0**-53)  # keep samples strictly positive
    x = (u / (1.0 - u)) ** (1.0 / cfg.alpha)
    return float(x) if size is None else x


def gen_sparse_stochastic(cfg):
    """Sparse column-stochastic matrix with a fixed count of Burr-distributed
    nonzeros per column, rows drawn uniformly without replacement."""
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n, cfg.nnz_per_col
    rows = np.empty((n, k), dtype=np.int64)
    vals = np.empty((n, k), dtype=np.float64)
    for j in range(n):
        rows[j] = rng.choice(n, size=k, replace=False)
        vals[j] = burr_sample(cfg.burr, rng, size=k)
    order = np.argsort(rows, axis=1)
    rows = np.take_along_axis(rows, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    colsum = vals.sum(axis=1, keepdims=True)
    vals = vals / colsum
    mat = sp.csc_matrix(
        (vals.ravel(), rows.ravel(), np.arange(n + 1) * k), shape=(n, n)
    )
    return StochasticMatrix(best_storage(mat))


def make_two_block(a, p, B, variant="padded"):
    """Stochastic matrix built around a scaled stochastic block ``q B``.

    The kept block occupies the last ``m`` vertices; reducing over them at
    the fixed point gives exactly ``q B + p * (column-constant matrix)``, so
    the reduced diameter is ``q * tau(B)``.  Variants:

    * ``"padded"``: two feeder vertices, mass into the block through its
      first row only; ``p = 1`` degenerates the block weight to zero.
    * ``"L-weighted"``: feeder mass follows the row averages ``L`` of ``B``
      (requires ``L_k > a / m``); with equal averages the reduction is the
      damped-uniform matrix of link-analysis fame.
    * ``"single-row"``: one feeder vertex.
    """
    B = B if isinstance(B, StochasticMatrix) else StochasticMatrix(B)
    m = B.n
    Bd = B.dense
    if not 0.0 < a < 0.5:
        raise PreconditionViolation(f"a must lie in (0, 1/2), got {a}")
    hi = 1.0 if variant == "padded" else 1.0 - 1e-15
    if not 0.0 < p <= hi:
        raise PreconditionViolation(f"p outside (0, 1{']' if hi == 1.0 else ')'}: {p}")
    q = 1.0 - p

    if variant in ("padded", "L-weighted"):
        n = m + 2
        A = np.zeros((n, n))
        A[0, 0] = A[0, 1] = A[1, 0] = A[1, 1] = a
        A[0, 2:] = p
        A[2:, 2:] = q * Bd
        if variant == "padded":
            A[2:, 0] = (1.0 - 2.0 * a) / m
            A[2, 1] = 1.0 - 2.0 * a
        else:
            L = Bd.mean(axis=1)
            if np.any(L - a / m <= 0):
                raise PreconditionViolation("row averages of B must exceed a/m")
            A[2:, 0] = (1.0 - 2.0 * a) / (1.0 - a) * (L - a / m)
            A[2:, 1] = (1.0 - 2.0 * a) / m
    elif variant == "single-row":
        L = Bd.mean(axis=1)
        if np.any(L - a / m <= 0):
            raise PreconditionViolation("row averages of B must exceed a/m")
        n = m + 1
        A = np.zeros((n, n))
        A[0, 0] = a
        A[0, 1:] = p
        A[1:, 0] = L - a / m
        A[1:, 1:] = q * Bd
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return project_columns(A)


def make_banded(n, m, seed=None):
    """Band matrix: entry (i, k) positive iff |i - k| <= m - 1, columns
    normalized.  Uniform band values by default, random with a seed."""
    if not 1 <= m <= n:
        raise DimensionMismatch(f"need 1 <= m <= n, got m={m}, n={n}")
    A = np.zeros((n, n))
    idx = np.arange(n)
    band = np.abs(idx.reshape(-1, 1) - idx.reshape(1, -1)) <= m - 1
    if seed is None:
        A[band] = 1.0
    else:
        rng = np.random.default_rng(seed)
        A[band] = rng.uniform(0.2, 1.0, size=int(band.sum()))
    return project_columns(A)


def near_averaging_bound(n, c):
    """Entry bound 1/n + exp(-c n) of the near-averaging family."""
    return 1.0 / n + np.exp(-c * n)


def make_near_averaging(n, c, seed=0):
    """Perturbation of the averaging matrix with entries <= 1/n + exp(-c n).

    Requires n large enough that 16 exp(-c n / 2) + 3 n exp(-c n) <= 1, the
    regime where reducing three quarters of the vertices provably keeps the
    result within the doubled-rate bound on the smaller size.
    """
    margin = 16.0 * np.exp(-c * n / 2.0) + 3.0 * n * np.exp(-c * n)
    if margin > 1.0:
        raise PreconditionViolation(
            f"n={n} too small for decay rate c={c}: 16 e^(-cn/2) + 3n e^(-cn) = {margin:.3g} > 1"
        )
    rng = np.random.default_rng(seed)
    eps = np.exp(-c * n)
    A = 1.0 / n + rng.uniform(0.0, eps, size=(n, n))
    return project_columns(A)


def gen_dense_stochastic(n, seed=0, uniform_mix=0.0):
    """Dense random column-stochastic matrix: normalized iid exponentials per
    column, optionally mixed with the averaging matrix to bound the smallest
    entry away from zero."""
    rng = np.random.default_rng(seed)
    G = rng.exponential(size=(n, n))
    A = G / G.sum(axis=0)
    if uniform_mix:
        A = (1.0 - uniform_mix) * A + uniform_mix / n
    return project_columns(A)


def gen_doubly_stochastic(n, seed=0, tol=1e-14, max_rounds=10_000):
    """Symmetric positive doubly stochastic matrix via Sinkhorn balancing."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.0, size=(n, n))
    M = 0.5 * (M + M.T)
    for _ in range(max_rounds):
        M /= M.sum(axis=0, keepdims=True)
        M = 0.5 * (M + M.T)
        err = max(
            np.abs(M.sum(axis=0) - 1.0).max(), np.abs(M.sum(axis=1) - 1.0).max()
        )
        if err < tol:
            break
    return project_columns(M)


def gen_single_zero_nonnegative(n, seed=0):
    """Irreducible non-negative matrix with at most one zero per row and
    column, plus a designated vertex with the lowest column sum and an
    all-positive row.  Returns ``(matrix, vertex)``; eliminating the vertex
    at the dominant eigenvalue yields a strictly positive reduction."""
    if n < 3:
        raise PreconditionViolation("need n >= 3")
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(n, n))
    pivot = int(rng.integers(n))
    # a partial permutation of zero positions avoiding the pivot row keeps
    # at most one zero per line and leaves the matrix irreducible
    rows = [i for i in range(n) if i != pivot]
    cols = list(rng.permutation(n))[: len(rows)]
    k = int(rng.integers(0, len(rows) + 1))
    for i, j in list(zip(rows, cols))[:k]:
        M[i, j] = 0.0
    M[pivot, :] = rng.uniform(0.5, 1.5, size=n)
    # drag the pivot column strictly below every other column sum
    sums = M.sum(axis=0)
    others = np.delete(np.arange(n), pivot)
    target = 0.5 * sums[others].min()
    M[:, pivot] *= target / sums[pivot]
    return NonNegativeMatrix(M), pivot


def gen_bounded_zero_stochastic(n, m, seed=0):
    """Stochastic matrix with no unit diagonal and at most ``m`` zeros per
    row and per column; reducing any set larger than ``2 (m - 1)`` vertices
    at the fixed point is then strictly positive."""
    if n <= 2 * m:
        raise PreconditionViolation(f"need n > 2m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.0, size=(n, n))
    # zeros along random permutations: at most m per row and per column
    for _ in range(m):
        perm = rng.permutation(n)
        M[np.arange(n), perm] = 0.0
    return project_columns(M)
