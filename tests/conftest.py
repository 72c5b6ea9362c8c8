"""Shared generators for the test suite."""

import os

# One BLAS thread unless the caller chooses, as in the CI workflow and
# perfbench.  Set before NumPy loads OpenBLAS.  The dense cores here are a
# few hundred wide, where a second thread gains little, and on a host with
# shared vCPUs a threaded call after the pool has idled can stall for 30-160
# ms, which criterion 9c's single-shot timings would record as scheme time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from isored.core import IndexSet, StochasticMatrix


@pytest.fixture
def example3():
    """The running 3x3 example: tau = 1, inner radius 0.6708, reduction over
    the first two vertices equals [[0, 0.9], [1, 0.1]]."""
    return StochasticMatrix([[0, 0.9, 0], [0.5, 0, 1], [0.5, 0.1, 0]])


def averaging(n):
    return StochasticMatrix(np.full((n, n), 1.0 / n))


def rand_stochastic(rng, n, uniform_mix=0.0):
    """Dense random column-stochastic matrix (strictly positive)."""
    G = rng.exponential(size=(n, n))
    A = G / G.sum(axis=0)
    if uniform_mix:
        A = (1.0 - uniform_mix) * A + uniform_mix / n
    return StochasticMatrix(A / A.sum(axis=0))


def rand_subset(rng, n, size=None):
    size = size if size is not None else int(rng.integers(1, n))
    return IndexSet(rng.choice(n, size=size, replace=False), n)


def mixed_criticality_case(rng, k):
    """Rotate through primitive, periodic, multi-class and transient shapes."""
    n = int(rng.integers(2, 20))
    kind = k % 4
    if kind == 0:
        return rand_stochastic(rng, n, uniform_mix=0.1)
    if kind == 1:
        # block-cyclic: period equals the number of blocks
        parts = min(n, max(2, int(rng.integers(2, 4))))
        sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
        A = np.zeros((sum(sizes), sum(sizes)))
        offs = np.cumsum([0] + sizes)
        for b in range(parts):
            src = slice(offs[b], offs[b + 1])
            dst = slice(offs[(b + 1) % parts], offs[(b + 1) % parts + 1])
            block = rng.exponential(size=(dst.stop - dst.start, src.stop - src.start))
            A[dst, src] = block / block.sum(axis=0)
        return StochasticMatrix(A)
    if kind == 2:
        # two essential blocks, no interaction
        m = max(1, n // 2)
        B1 = rand_stochastic(rng, m, uniform_mix=0.1).dense
        A = np.zeros((n, n))
        A[:m, :m] = B1
        if n > m:
            A[m:, m:] = rand_stochastic(rng, n - m, uniform_mix=0.1).dense
        return StochasticMatrix(A)
    # transient block leaking into one positive essential block
    m = max(1, n // 2)
    ess = rand_stochastic(rng, m, uniform_mix=0.2).dense
    A = np.zeros((n, n))
    A[:m, :m] = ess
    for j in range(m, n):
        col = rng.exponential(size=n)
        col[:m] += 2.0 * col.sum()  # guarantee strong leakage out of the tail
        A[:, j] = col / col.sum()
    return StochasticMatrix(A)


def rand_rational_stochastic_graph(rng, n):
    """Exact column-stochastic matrix of Fractions plus a structural set.

    The complement of the kept set induces a DAG (plus loops kept below 1),
    so the kept set is structural and the shifted eliminated block is
    invertible at 1.
    """
    s = int(rng.integers(1, n))
    kept = sorted(rng.choice(n, size=s, replace=False).tolist())
    outside = [v for v in range(n) if v not in kept]
    rank = {v: k for k, v in enumerate(rng.permutation(outside).tolist())}

    M = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        rows = []
        for i in range(n):
            if i in rank and j in rank:
                # inside the eliminated block only loop or forward edges
                if i == j or rank[i] < rank[j]:
                    rows.append(i)
            else:
                rows.append(i)
        rng.shuffle(rows)
        picked = rows[: int(rng.integers(1, min(4, len(rows)) + 1))]
        weights = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in picked]
        if j in rank and j in picked:
            # keep eliminated loops strictly below 1 so (block - I) stays regular
            k = picked.index(j)
            weights[k] = Fraction(1, int(rng.integers(3, 9)))
            total_rest = sum(w for t, w in zip(picked, weights) if t != j)
            if total_rest == 0:
                picked.append(kept[0] if kept else (j + 1) % n)
                weights.append(Fraction(1))
                total_rest = Fraction(1)
            scale = (1 - weights[k]) / total_rest
            weights = [w * scale if t != j else w for t, w in zip(picked, weights)]
        else:
            total = sum(weights)
            weights = [w / total for w in weights]
        for i, w in zip(picked, weights):
            M[i][j] += w
    for j in range(n):
        assert sum(M[i][j] for i in range(n)) == 1
    return M, IndexSet(kept, n)


def banded_csc(n, m, seed):
    """``make_banded(n, m, seed)`` built in CSC form, without the n x n array:
    the same draws in the same row-major order over the band."""
    rows = np.repeat(np.arange(n), 2 * m - 1)
    cols = rows + np.tile(np.arange(1 - m, m), n)
    ok = (cols >= 0) & (cols < n)
    rows, cols = rows[ok], cols[ok]
    vals = np.random.default_rng(seed).uniform(0.2, 1.0, size=rows.size)
    vals /= np.bincount(cols, vals)[cols]
    return StochasticMatrix(sp.csc_matrix((vals, (rows, cols)), shape=(n, n)))
