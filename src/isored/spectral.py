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

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .core import NonNegativeMatrix, _coerce, one_norm, validate_stochastic
from .errors import DimensionMismatch, EigensolverFailure

def _data(M):
    """Entries of a wrapped matrix, a raw array, or a raw scipy sparse matrix (as CSC)."""
    if isinstance(M, NonNegativeMatrix):
        return M.data
    return _coerce(M) if sp.issparse(M) else np.asarray(M, dtype=np.float64)


def _dense(M):
    if isinstance(M, NonNegativeMatrix):
        return M.dense
    data = _data(M)
    return data.toarray() if sp.issparse(data) else data


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


def _sparse_diameter(data):
    """Largest 1-norm distance between two columns of a non-negative sparse matrix.

    ``||a_j - a_k||_1 = s_j + s_k - 2 sum_i min(a_ij, a_ik)`` with column
    sums ``s``.  The overlaps come from the pairs of entries that share a
    row; the best pair that shares no row has distance ``s_j + s_k`` and
    comes from a scan in descending column sum.
    """
    n = data.shape[1]
    s = np.asarray(data.sum(axis=0)).ravel()
    csr = data.tocsr()
    col, val, ptr = csr.indices, csr.data, csr.indptr
    # entry e pairs with the entries after it in its row
    ends = np.repeat(ptr[1:], np.diff(ptr))
    later = ends - np.arange(col.size) - 1
    first = np.repeat(np.arange(col.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    j, k = col[first], col[second]
    keys, at = np.unique(np.minimum(j, k) * n + np.maximum(j, k), return_inverse=True)
    overlap = np.bincount(at, np.minimum(val[first], val[second]), minlength=keys.size)
    lo, hi = np.divmod(keys, n)
    best = float((s[lo] + s[hi] - 2.0 * overlap).max()) if keys.size else 0.0

    order = np.argsort(-s, kind="stable")
    for a, j in enumerate(order[:-1]):
        if s[j] + s[order[a + 1]] <= best:
            break
        for k in order[a + 1 :]:
            if s[j] + s[k] <= best:
                break
            key = min(j, k) * n + max(j, k)
            i = np.searchsorted(keys, key)
            if i == keys.size or keys[i] != key:
                best = float(s[j] + s[k])
                break
    return best


def diameter_tau(A):
    """max over column pairs of half the 1-norm of their difference.

    Sparse non-negative input takes :func:`_sparse_diameter`; dense input
    compares each column with the ones after it.
    """
    data = _data(A)
    if sp.issparse(data) and not (data.data < 0).any():
        return 0.5 * _sparse_diameter(data)
    M = _dense(A)
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
    M = _dense(A)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    order = np.lexsort((-w.real, -np.abs(w)))
    return w[order]


def inner_spectral_radius(A):
    """Modulus of the second-largest eigenvalue (0 for a 1x1 matrix)."""
    n = _data(A).shape[0]
    if n < 2:
        return 0.0
    w = sorted_eigenvalues(A)
    return float(abs(w[1]))


def spectral_gap(A):
    return 1.0 - inner_spectral_radius(A)


def _edges(A, edge_eps=0.0):
    """Edges ``i -> j`` of the transition digraph, one per entry ``a[j, i] > edge_eps``,
    in order of their source ``i``."""
    data = _data(A)
    if sp.issparse(data):  # CSC: column i holds the edges out of i
        keep = data.data > edge_eps
        src = np.repeat(np.arange(data.shape[1]), np.diff(data.indptr))
        return src[keep], data.indices[keep]
    return np.divmod(np.flatnonzero(data.T > edge_eps), data.shape[0])


def _digraph(src, dst, n):
    """CSR adjacency of edges sorted by source."""
    indptr = np.searchsorted(src, np.arange(n + 1))
    return sp.csr_array((np.ones(src.size), dst, indptr), shape=(n, n))


def _labelling(A, edge_eps=0.0):
    """One strong-components labelling of the positive-entry digraph.

    Returns ``(src, dst, root, inside, cyclic, leaks)``: the edges, the
    smallest member of each vertex's component (which names the component),
    which edges stay inside their component, and, at each component's
    smallest member, whether an edge runs inside the component and whether
    one leaves it.  A class is a cyclic component; it is essential when no
    edge leaves it.
    """
    src, dst = _edges(A, edge_eps)
    n = _data(A).shape[0]
    _, labels = connected_components(_digraph(src, dst, n), directed=True, connection="strong")
    root = np.unique(labels, return_index=True)[1][labels]
    inside = root[src] == root[dst]
    cyclic = np.zeros(n, dtype=bool)
    cyclic[root[src[inside]]] = True
    leaks = np.zeros(n, dtype=bool)
    leaks[root[src[~inside]]] = True
    return src, dst, root, inside, cyclic, leaks


def classify(A, edge_eps=0.0):
    """Communicating classes of the positive-entry digraph.

    A vertex is *transient* when it does not lie on any cycle; the remaining
    vertices split into classes (strongly connected components).  A class is
    *essential* when no edge leaves it.  ``edge_eps`` treats entries at or
    below the threshold as absent, for noisy inputs.
    """
    src, dst, root, inside, cyclic, leaks = _labelling(A, edge_eps)
    n = root.size
    src_in, dst_in, owner = src[inside], dst[inside], root[src[inside]]
    roots = np.flatnonzero(cyclic)

    # the period of a class is the gcd of level(u) + 1 - level(v) over its
    # edges u -> v, where level is the breadth-first distance from the class's
    # smallest member along edges inside classes (Denardo 1977); an edge
    # between classes would mix two searches
    level = dijkstra(_digraph(src_in, dst_in, n), indices=roots, min_only=True, unweighted=True)
    periods = np.zeros(n, dtype=np.int64)
    np.gcd.at(periods, owner, (level[src_in] + 1 - level[dst_in]).astype(np.int64))

    members = np.argsort(root, kind="stable")
    members = members[cyclic[root[members]]]
    ends = np.cumsum(np.bincount(root, minlength=n)[roots])
    return ClassDecomposition(
        classes=tuple(tuple(c.tolist()) for c in np.split(members, ends)[:-1]),
        essential_flags=tuple((~leaks[roots]).tolist()),
        periods=tuple(periods[roots].tolist()),
        transient=tuple(np.flatnonzero(~cyclic[root]).tolist()),
    )


def _non_critical(dec):
    """Exactly one essential class, and it is aperiodic."""
    return [p for p, ess in zip(dec.periods, dec.essential_flags) if ess] == [1]


def is_non_critical(A, edge_eps=0.0):
    """True iff the chain has exactly one essential class and it is aperiodic.

    Purely combinatorial; equivalent to ``inner_spectral_radius(A) < 1``.
    """
    return _non_critical(classify(A, edge_eps))


def gershgorin(A):
    """One disk per row: center = diagonal entry, radius = off-diagonal abs row sum."""
    M = _dense(A)
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
    return SpectralReport(
        n=A.n,
        tau=diameter_tau(A),
        rho_i=rho,
        gap=1.0 - rho,
        m=min_entry(A),
        eigenvalues=tuple(w),
        num_classes=dec.num_classes,
        num_essential=dec.num_essential,
        non_critical=_non_critical(dec),
    )
