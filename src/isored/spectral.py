"""Spectral measurements of stochastic matrices.

The quantities computed here:

* ``diameter_tau`` -- half the largest 1-norm distance between two columns;
  a semi-norm on matrices and the Lipschitz constant of the matrix acting on
  the probability simplex.
* ``inner_spectral_radius`` -- modulus of the second-largest eigenvalue; a
  stochastic matrix is *non-critical* when it is below 1.
* ``spectral_gap`` -- one minus the inner spectral radius; controls the
  geometric convergence rate of power iteration.
* ``min_entry`` -- smallest matrix entry; ``gap >= n * min_entry`` always.
* ``classify`` -- communicating classes, essential flags, transient vertices
  and periods of the positive-entry digraph; non-criticality is equivalent to
  a unique essential class with period 1, decided combinatorially.
* ``gershgorin`` -- the classical disks trapping all eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .core import NonNegativeMatrix, one_norm, validate_stochastic
from .errors import DimensionMismatch, EigensolverFailure

def _data(M):
    return M.data if isinstance(M, NonNegativeMatrix) else np.asarray(M, dtype=np.float64)


@dataclass(frozen=True)
class GershgorinDisk:
    center: float
    radius: float

    def contains(self, z, tol=0.0):
        return abs(z - self.center) <= self.radius + tol


@dataclass(frozen=True)
class ClassDecomposition:
    """Partition of the vertices into communicating classes and transient vertices."""

    classes: tuple          # tuple of vertex tuples (0-based, sorted)
    essential_flags: tuple  # bool per class
    periods: tuple          # int per class, gcd of cycle lengths
    transient: tuple        # vertices i for which i never returns to i

    @property
    def num_classes(self):
        return len(self.classes)

    @property
    def num_essential(self):
        return sum(self.essential_flags)


@dataclass(frozen=True)
class SpectralReport:
    n: int
    tau: float
    rho_i: float
    gap: float
    m: float
    eigenvalues: tuple      # complex, sorted by decreasing modulus
    num_classes: int
    num_essential: int
    non_critical: bool


def diameter_tau(A):
    """max over column pairs of half the 1-norm of their difference."""
    M = A.dense if isinstance(A, NonNegativeMatrix) else np.asarray(A, dtype=np.float64)
    n = M.shape[1]
    best = 0.0
    for j in range(n - 1):
        d = np.abs(M[:, j + 1 :] - M[:, j : j + 1]).sum(axis=0).max()
        if d > best:
            best = float(d)
    return 0.5 * best


def min_entry(A):
    data = _data(A)
    if sp.issparse(data):
        n2 = data.shape[0] * data.shape[1]
        if data.nnz < n2:
            return 0.0
        return float(data.data.min())
    return float(data.min())


def sorted_eigenvalues(A):
    """All eigenvalues, sorted by decreasing modulus, ties by decreasing real part."""
    M = A.dense if isinstance(A, NonNegativeMatrix) else np.asarray(A, dtype=np.float64)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    order = np.lexsort((-w.real, -np.abs(w)))
    return w[order]


def inner_spectral_radius(A):
    """Modulus of the second-largest eigenvalue (0 for a 1x1 matrix)."""
    n = A.n if isinstance(A, NonNegativeMatrix) else np.asarray(A).shape[0]
    if n < 2:
        return 0.0
    w = sorted_eigenvalues(A)
    return float(abs(w[1]))


def spectral_gap(A):
    return 1.0 - inner_spectral_radius(A)


def _adjacency(A, edge_eps=0.0):
    """Boolean adjacency of the transition digraph: edge i -> j iff a[j, i] > eps."""
    data = _data(A)
    if sp.issparse(data):
        coo = data.T.tocoo()
        keep = coo.data > edge_eps
        ones = np.ones(int(keep.sum()))
        return sp.csr_matrix((ones, (coo.row[keep], coo.col[keep])), shape=coo.shape)
    return sp.csr_matrix(data.T > edge_eps)


def _period(adj_csr, members):
    """gcd of cycle lengths inside one strongly connected component (BFS levels)."""
    members = list(members)
    local = {v: k for k, v in enumerate(members)}
    level = {members[0]: 0}
    queue = [members[0]]
    g = 0
    indptr, indices = adj_csr.indptr, adj_csr.indices
    while queue:
        u = queue.pop()
        lu = level[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v not in local:
                continue
            if v in level:
                g = gcd(g, lu + 1 - level[v])
            else:
                level[v] = lu + 1
                queue.append(v)
    return abs(g) if g else 1


def classify(A, edge_eps=0.0):
    """Communicating classes of the positive-entry digraph.

    A vertex is *transient* when it does not lie on any cycle; the remaining
    vertices split into classes (strongly connected components).  A class is
    *essential* when no edge leaves it.  ``edge_eps`` treats entries at or
    below the threshold as absent, for noisy inputs.
    """
    adj = _adjacency(A, edge_eps)
    n = adj.shape[0]
    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    groups = [[] for _ in range(ncomp)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)

    has_loop = np.zeros(n, dtype=bool)
    diag = adj.diagonal()
    has_loop[: diag.size] = diag > 0

    classes, flags, periods, transient = [], [], [], []
    indptr, indices = adj.indptr, adj.indices
    for members in groups:
        if len(members) == 1 and not has_loop[members[0]]:
            transient.append(members[0])
            continue
        mset = set(members)
        essential = True
        for u in members:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if int(v) not in mset:
                    essential = False
                    break
            if not essential:
                break
        classes.append(tuple(sorted(members)))
        flags.append(essential)
        periods.append(_period(adj, members))

    order = np.argsort([c[0] for c in classes]) if classes else []
    return ClassDecomposition(
        classes=tuple(classes[k] for k in order),
        essential_flags=tuple(flags[k] for k in order),
        periods=tuple(periods[k] for k in order),
        transient=tuple(sorted(transient)),
    )


def is_non_critical(A, edge_eps=0.0):
    """True iff the chain has exactly one essential class and it is aperiodic.

    Purely combinatorial; equivalent to ``inner_spectral_radius(A) < 1``.
    """
    dec = classify(A, edge_eps)
    ess = [k for k, flag in enumerate(dec.essential_flags) if flag]
    return len(ess) == 1 and dec.periods[ess[0]] == 1


def gershgorin(A):
    """One disk per row: center = diagonal entry, radius = off-diagonal abs row sum."""
    M = A.dense if isinstance(A, NonNegativeMatrix) else np.asarray(A, dtype=np.float64)
    radii = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    return [GershgorinDisk(float(M[i, i]), float(radii[i])) for i in range(M.shape[0])]


def contraction_check(A, x, y):
    """Return (||Ax - Ay||_1, tau(A) * ||x - y||_1); the first never exceeds the second."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    data = _data(A)
    if xv.shape != (data.shape[1],) or yv.shape != (data.shape[1],):
        raise DimensionMismatch("vector lengths do not match the matrix")
    lhs = one_norm(data @ xv - data @ yv)
    rhs = diameter_tau(A) * one_norm(xv - yv)
    return lhs, rhs


def spectral_report(A, edge_eps=0.0):
    """Bundle every spectral measurement of one stochastic matrix."""
    A = validate_stochastic(A)
    w = sorted_eigenvalues(A)
    rho = float(abs(w[1])) if A.n >= 2 else 0.0
    dec = classify(A, edge_eps)
    ess = [k for k, flag in enumerate(dec.essential_flags) if flag]
    return SpectralReport(
        n=A.n,
        tau=diameter_tau(A),
        rho_i=rho,
        gap=1.0 - rho,
        m=min_entry(A),
        eigenvalues=tuple(w),
        num_classes=dec.num_classes,
        num_essential=len(ess),
        non_critical=len(ess) == 1 and dec.periods[ess[0]] == 1,
    )
