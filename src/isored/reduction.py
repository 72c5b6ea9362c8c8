"""Numeric isospectral reduction of stochastic matrices at the fixed point.

Reducing a column-stochastic matrix ``A`` over a kept vertex set ``S`` forms
the Schur complement

    R = A[S,S] - A[S,~S] (A[~S,~S] - I)^-1 A[~S,S]

which is again column-stochastic, and the matrix

    lift = -(A[~S,~S] - I)^-1 A[~S,S]

reconstructs the eliminated coordinates of a stationary vector from the kept
ones.  The same reduction can be carried out one node at a time; the result
does not depend on the elimination order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from .core import (
    SPARSE_DENSITY_THRESHOLD,
    IndexSet,
    NonNegativeMatrix,
    ProbabilityVector,
    StochasticMatrix,
    project_columns,
)
from .errors import (
    AbsorbingPivot,
    DimensionMismatch,
    NoViablePivot,
    SingularElimination,
)

#: condition number of (I - A[~S,~S]) beyond which the elimination is rejected
SINGULAR_CONDITION = 1e14
#: default viability margin: a pivot needs diagonal < 1 - delta
PIVOT_DELTA = 1e-8
_NEGATIVE_SLACK = 1e-8


@dataclass(frozen=True)
class ReductionRecord:
    """Reduced matrix plus everything needed to undo the elimination.

    ``lift`` rows follow the eliminated vertices in ascending order, columns
    follow ``S`` in ascending order.  ``pivot_order`` lists the eliminated
    vertices; for the one-shot block formula the order carries no meaning and
    is recorded ascending.
    """

    S: IndexSet
    R: StochasticMatrix
    lift: np.ndarray
    pivot_order: tuple
    condition_estimate: float

    @property
    def eliminated(self):
        return self.S.complement()


@dataclass(frozen=True)
class FirstS:
    s: int


@dataclass(frozen=True)
class RandomS:
    s: int
    seed: int = 0


@dataclass(frozen=True)
class PivotGreedy:
    s: int
    delta: float = PIVOT_DELTA


SelectionStrategy = FirstS | RandomS | PivotGreedy


def _dense_shifted_solver(F):
    """LU-factor a dense shifted block; return (solve, condition estimate)."""
    anorm = np.abs(F).sum(axis=0).max() if F.size else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exactly singular -> rcond 0 below
        lu, piv = sla.lu_factor(F, check_finite=False)
    rcond = lapack.dgecon(lu, anorm, norm="1")[0]
    cond = np.inf if rcond == 0 else 1.0 / rcond
    return (lambda B: sla.lu_solve((lu, piv), B, check_finite=False)), cond


def _csr(shape, rows, cols, vals):
    """CSR matrix from entries listed in non-decreasing row order."""
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def _independent_set(core, rows, cols):
    """Greedy maximal independent set of an off-diagonal pattern on ``core``.

    ``rows``/``cols`` list the off-diagonal entries among core vertices, in
    row order.  Vertices are visited by ascending degree (entries in their
    row and column), ties by index, so the set is deterministic.  Returns the
    vertices in ascending order.
    """
    n = core.size
    out_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=out_ptr[1:])
    in_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=in_ptr[1:])
    cand = np.flatnonzero(core)
    degree = np.diff(out_ptr) + np.diff(in_ptr)
    order = cand[np.argsort(degree[cand], kind="stable")]
    outs, ins = cols.tolist(), rows[np.argsort(cols)].tolist()
    out_ptr, in_ptr = out_ptr.tolist(), in_ptr.tolist()
    blocked = bytearray(n)
    taken = []
    for k in order.tolist():
        if not blocked[k]:
            taken.append(k)
            for j in outs[out_ptr[k] : out_ptr[k + 1]]:
                blocked[j] = 1
            for j in ins[in_ptr[k] : in_ptr[k + 1]]:
                blocked[j] = 1
    return np.sort(np.array(taken, dtype=np.intp))


def _staged_schur(data, keep, drop, lam):
    """Sparse branch of :func:`_schur`: peel independent sets, then a dense core.

    Works in local numbering, eliminated vertices ``0..d-1`` then kept ones,
    on the rows of the eliminated vertices only: the kept rows enter once, in
    ``R = A[S,:] @ [lift; I]``.
    """
    n, d, s = data.shape[0], drop.size, keep.size
    loc = np.empty(n, dtype=np.intp)
    loc[drop] = np.arange(d)
    loc[keep] = d + np.arange(s)
    A = data.tocsr()
    M = A[drop]
    M = sp.csr_matrix((M.data, loc[M.indices], M.indptr), shape=(d, n))
    top = A[keep]
    top = sp.csr_matrix((top.data, loc[top.indices], top.indptr), shape=(s, n))

    core = np.zeros(n, dtype=bool)
    core[:d] = True
    rows = np.repeat(np.arange(d), np.diff(M.indptr))
    cols, vals = M.indices, M.data
    diag = np.zeros(d)
    off = rows != cols
    diag[rows[~off]] = vals[~off]
    block = off & (cols < d)
    anorm = (np.bincount(cols[block], vals[block], minlength=d) + np.abs(lam - diag)).max()

    f = core.astype(np.float64)  # right-hand side of (lam I - B)^T y = 1, folded forward
    slot = np.empty(n, dtype=np.intp)
    levels = []
    while True:
        q = np.count_nonzero(core)
        within = core[rows] & core[cols]
        if q == 0 or np.count_nonzero(within) >= SPARSE_DENSITY_THRESHOLD * q * q:
            break
        within &= off
        P = _independent_set(core, rows[within], cols[within])
        piv = lam - diag[P]
        if not np.all(piv > 0):
            raise SingularElimination(
                f"non-positive pivot {piv.min():.3e} in the eliminated block;"
                " the eliminated set traps an essential class",
                condition=np.inf,
            )
        peel = np.zeros(n, dtype=bool)
        peel[P] = True
        core[P] = False
        slot[P] = np.arange(P.size)
        out = peel[rows] & off
        into = peel[cols] & off
        r_out, c_out = slot[rows[out]], cols[out]
        w = vals[out] / piv[r_out]
        r_in, c_in, v_in = rows[into], slot[cols[into]], vals[into]
        W = _csr((P.size, n), r_out, c_out, w)  # diag(1/piv) M[P,T]
        V = _csr((d, P.size), r_in, c_in, v_in)  # M[T,P]
        f_P = f[P]
        f += np.bincount(c_out, w * f_P[r_out], minlength=n)
        levels.append((P, piv, W, (r_in, c_in, v_in), f_P))
        rest = ~(peel[rows] | peel[cols])
        M = _csr((d, n), rows[rest], cols[rest], vals[rest]) + V @ W
        rows = np.repeat(np.arange(d), np.diff(M.indptr))
        cols, vals = M.indices, M.data
        off = rows != cols
        diag[rows[~off]] = vals[~off]

    Q = np.flatnonzero(core)
    q = Q.size
    at = np.empty(n, dtype=np.intp)
    at[Q] = np.arange(q)
    at[d:] = q + np.arange(s)
    r_at, c_at = at[rows], at[cols]
    inner = c_at < q
    G = np.zeros((q, q), order="F")  # lam I - M[Q,Q], factored in place
    G.T.flat[c_at[inner] * q + r_at[inner]] = -vals[inner]
    G.T.flat[:: q + 1] += lam
    C = np.zeros((q, s), order="F")  # M[Q,S], solved in place
    C.T.flat[(c_at[~inner] - q) * q + r_at[~inner]] = vals[~inner]
    y = np.zeros(d)
    if q:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # exactly singular -> non-finite y below
            lu = sla.lu_factor(G, overwrite_a=True, check_finite=False)
        y[Q] = sla.lu_solve(lu, f[Q], trans=1, check_finite=False)
    for P, piv, _, (r_in, c_in, v_in), f_P in reversed(levels):
        y[P] = (f_P + np.bincount(c_in, v_in * y[r_in], minlength=P.size)) / piv
    cond = anorm * np.abs(y).max()
    _check_condition(cond)

    X = np.zeros((n, s))
    X[d:] = np.eye(s)
    if q:
        X[Q] = sla.lu_solve(lu, C, overwrite_b=True, check_finite=False)
    for P, _, W, _, _ in reversed(levels):
        X[P] = W @ X
    lift = X[:d]
    _check_finite(lift, cond)
    return top @ X, lift, cond


def _check_condition(cond):
    if not np.isfinite(cond) or cond > SINGULAR_CONDITION:
        raise SingularElimination(
            f"condition estimate {cond:.3e} exceeds {SINGULAR_CONDITION:.0e};"
            " the eliminated set traps an essential class",
            condition=cond,
        )


def _check_finite(lift, cond):
    if not np.all(np.isfinite(lift)):
        raise SingularElimination("shifted block solve produced non-finite values", condition=cond)


def _schur(data, keep, drop, lam):
    """Raw Schur complement and lift of the shifted eliminated block.

    Returns ``(R_raw, lift, cond)`` with dense arrays regardless of the input
    storage; fill-in makes a sparse result pointless.

    Dense input takes one dense LU of ``B - lam I`` (``B = data[~S,~S]``) and
    a LAPACK estimate of its 1-norm condition number.  Sparse input is
    reduced in stages, since reductions compose: while the still-eliminated
    block is sparser than ``SPARSE_DENSITY_THRESHOLD``, a maximal independent
    set P of its off-diagonal pattern is eliminated in one step,

        M <- M[T,T] + M[T,P] diag(1/(lam - m_pp)) M[P,T],

    which is exact and adds no fill inside P, because ``M[P,P]`` is diagonal.
    The peel needs no pivoting: ``lam I - B`` is column diagonally dominant
    (for ``lam = 1`` and a stochastic matrix; for the dominant eigenvalue of a
    non-negative one, after the diagonal Perron scaling), and every Schur
    complement inherits that.  The remaining core is solved with a dense LU,
    and the lift is folded back level by level with ``X[P] = W @ X[T]``,
    ``W = diag(1/(lam - m_pp)) M[P,T]``.  ``lam I - B`` is then a nonsingular
    M-matrix with a non-negative inverse, so its 1-norm condition number is
    exact rather than estimated: ``||(lam I - B)^-1||_1 = max|y|`` with
    ``(lam I - B)^T y = 1``, solved through the same levels and one
    transposed solve on the core.  ``max|y|``, not ``max y``: a numerically
    singular block can return a hugely negative ``y``.
    """
    if sp.issparse(data):
        return _staged_schur(data, keep, drop, lam)
    B = data[np.ix_(drop, drop)]
    C = data[np.ix_(drop, keep)]
    D = data[np.ix_(keep, drop)]
    E = data[np.ix_(keep, keep)]
    solve, cond = _dense_shifted_solver(B - lam * np.eye(drop.size))
    _check_condition(cond)
    lift = -solve(C)
    _check_finite(lift, cond)
    R_raw = E + D @ lift
    return R_raw, lift, cond


def reduce_at(M, S, lam=1.0):
    """Schur reduction of a general square matrix at an arbitrary shift.

    No stochastic postprocessing: returns the raw reduced array.  Used for
    reductions of non-negative matrices at their dominant eigenvalue.  Sparse
    input needs ``lam I - M[~S,~S]`` to be a nonsingular M-matrix, as it is
    at that shift; otherwise :class:`SingularElimination` is raised.
    """
    data = M.data if isinstance(M, NonNegativeMatrix) else np.asarray(M, dtype=np.float64)
    n = data.shape[0]
    S = S if isinstance(S, IndexSet) else IndexSet(S, n)
    if S.is_full():
        return data.toarray() if sp.issparse(data) else np.array(data, copy=True)
    R_raw, _, _ = _schur(data, S.array, S.complement().array, float(lam))
    return R_raw


def _finish_stochastic(S, R_raw, lift, pivot_order, cond):
    """Clamp rounding noise and re-project so the record invariants hold exactly."""
    for arr in (R_raw, lift):
        low = arr.min() if arr.size else 0.0
        if low < -_NEGATIVE_SLACK:
            raise SingularElimination(
                f"elimination produced negative mass {low:.3e}; shifted block"
                " is numerically singular",
                condition=cond,
            )
        np.clip(arr, 0.0, None, out=arr)
    return ReductionRecord(
        S=S,
        R=project_columns(R_raw),
        lift=lift,
        pivot_order=tuple(int(k) for k in pivot_order),
        condition_estimate=float(cond),
    )


def reduce_block(A, S):
    """One-shot isospectral reduction of a stochastic matrix over ``S``.

    Raises :class:`SingularElimination` when ``I - A[~S,~S]`` is numerically
    singular, i.e. when the eliminated vertices contain an essential class.
    """
    A = A if isinstance(A, StochasticMatrix) else StochasticMatrix(A)
    S = S if isinstance(S, IndexSet) else IndexSet(S, A.n)
    if S.n != A.n:
        raise DimensionMismatch(f"index set sized for n={S.n}, matrix has n={A.n}")
    if S.is_full():
        return ReductionRecord(
            S=S,
            R=A,
            lift=np.zeros((0, A.n)),
            pivot_order=(),
            condition_estimate=1.0,
        )
    drop = S.complement().array
    R_raw, lift, cond = _schur(A.data, S.array, drop, 1.0)
    return _finish_stochastic(S, R_raw, lift, drop, cond)


def eliminate_node(A, k, delta=1e-12):
    """Remove a single vertex: r[i,j] = a[i,j] + a[i,k] a[k,j] / (1 - a[k,k])."""
    A = A if isinstance(A, StochasticMatrix) else StochasticMatrix(A)
    M = A.dense
    n = A.n
    k = int(k)
    if not 0 <= k < n:
        raise DimensionMismatch(f"node {k} outside [0, {n})")
    akk = float(M[k, k])
    if akk >= 1.0 - delta:
        raise AbsorbingPivot(k, akk)
    rest = np.concatenate([np.arange(k), np.arange(k + 1, n)])
    row = M[k, rest] / (1.0 - akk)
    R_raw = M[np.ix_(rest, rest)] + np.outer(M[rest, k], row)
    S = IndexSet(rest, n)
    return _finish_stochastic(S, R_raw, row.reshape(1, -1), (k,), 1.0)


def _compose_lift(steps, S):
    """Fold per-step elimination rows into the block lift matrix."""
    pos = {v: i for i, v in enumerate(S.indices)}
    rows = {}
    for k, rest_labels, row in reversed(steps):
        out = np.zeros(len(S))
        for val, v in zip(row, rest_labels):
            if v in pos:
                out[pos[v]] += val
            else:
                out += val * rows[v]
        rows[k] = out
    eliminated = sorted(rows)
    return np.vstack([rows[v] for v in eliminated]) if eliminated else np.zeros((0, len(S)))


def reduce_sequential(A, S, order=None, delta=PIVOT_DELTA):
    """Eliminate the complement of ``S`` one node at a time.

    ``order`` fixes the elimination sequence (must enumerate the complement);
    by default the remaining node with the smallest diagonal goes first.  The
    final matrix matches :func:`reduce_block` up to rounding, whatever the
    order.  Raises :class:`NoViablePivot` when every candidate has diagonal
    within ``delta`` of 1.
    """
    A = A if isinstance(A, StochasticMatrix) else StochasticMatrix(A)
    n = A.n
    S = S if isinstance(S, IndexSet) else IndexSet(S, n)
    if S.is_full():
        return reduce_block(A, S)
    drop = set(S.complement().indices)
    if order is not None:
        order = [int(k) for k in order]
        if set(order) != drop or len(order) != len(drop):
            raise DimensionMismatch("order must enumerate the eliminated vertices exactly once")

    M = np.array(A.dense, copy=True)
    labels = list(range(n))
    steps = []
    remaining = list(order) if order is not None else None
    while len(labels) > len(S):
        if remaining is not None:
            k = remaining.pop(0)
            p = labels.index(k)
            if M[p, p] >= 1.0 - delta:
                raise NoViablePivot(f"node {k + 1} has diagonal {M[p, p]!r}")
        else:
            cands = [(M[p, p], p) for p, v in enumerate(labels) if v in drop]
            diag, p = min(cands)
            if diag >= 1.0 - delta:
                raise NoViablePivot("every remaining candidate is numerically absorbing")
            k = labels[p]
        akk = M[p, p]
        rest = [q for q in range(len(labels)) if q != p]
        row = M[p, rest] / (1.0 - akk)
        steps.append((k, [labels[q] for q in rest], row))
        M = M[np.ix_(rest, rest)] + np.outer(M[rest, p], row)
        M /= M.sum(axis=0)  # keep column sums exact across steps
        labels = [labels[q] for q in rest]

    lift = _compose_lift(steps, S)
    _, cond = _dense_shifted_solver(
        A.dense[np.ix_(sorted(drop), sorted(drop))] - np.eye(len(drop))
    )
    return _finish_stochastic(S, M, lift, [k for k, _, _ in steps], cond)


def select_subset(A, strategy):
    """Choose the kept vertex set according to a selection strategy."""
    A = A if isinstance(A, StochasticMatrix) else StochasticMatrix(A)
    n = A.n
    if isinstance(strategy, FirstS):
        _check_size(strategy.s, n)
        return IndexSet(range(strategy.s), n)
    if isinstance(strategy, RandomS):
        _check_size(strategy.s, n)
        rng = np.random.default_rng(strategy.seed)
        return IndexSet(rng.choice(n, size=strategy.s, replace=False), n)
    if isinstance(strategy, PivotGreedy):
        _check_size(strategy.s, n)
        return _greedy_selection(A, strategy.s, strategy.delta)
    raise TypeError(f"unknown selection strategy: {strategy!r}")


def _check_size(s, n):
    if not 1 <= s <= n:
        raise DimensionMismatch(f"kept size {s} outside [1, {n}]")


def _greedy_selection(A, s, delta):
    """Repeatedly mark the smallest-diagonal node of the partial reduction.

    Viable marks are eliminated immediately so later diagonals reflect the
    shrunken matrix.  Once only absorbing candidates remain, the rest of the
    marks go to the smallest current (then original) diagonals without
    further updates.
    """
    M = np.array(A.dense, copy=True)
    original = np.diag(A.dense).copy()
    labels = list(range(A.n))
    while len(labels) > s:
        diags = M.diagonal()
        p = int(np.argmin(diags))
        if diags[p] < 1.0 - delta:
            rest = [q for q in range(len(labels)) if q != p]
            row = M[p, rest] / (1.0 - diags[p])
            M = M[np.ix_(rest, rest)] + np.outer(M[rest, p], row)
            M /= M.sum(axis=0)
            labels = [labels[q] for q in rest]
        else:
            cut = len(labels) - s
            order = np.lexsort((original[labels], diags))
            doomed = set(int(q) for q in order[:cut])
            labels = [v for q, v in enumerate(labels) if q not in doomed]
            break
    return IndexSet(labels, A.n)


def reconstruct_stationary(rec, v_R):
    """Lift a stationary vector of the reduced matrix back to the full chain.

    Fills the kept coordinates with ``v_R``, the eliminated ones with
    ``lift @ v_R``, and renormalizes onto the simplex.
    """
    w = np.asarray(v_R, dtype=np.float64).ravel()
    if w.size != len(rec.S):
        raise DimensionMismatch(f"vector has length {w.size}, kept set has {len(rec.S)}")
    full = np.empty(rec.S.n)
    full[rec.S.array] = w
    comp = rec.S.complement()
    if comp is not None:
        full[comp.array] = rec.lift @ w
    np.clip(full, 0.0, None, out=full)
    return ProbabilityVector.from_weights(full)


def reduction_cost(n, s, mode):
    """Exact flop count of the reduction, ``mode`` one of 'block'/'sequential'."""
    n, s = int(n), int(s)
    if not 1 <= s < n:
        raise DimensionMismatch(f"need 1 <= s < n, got s={s}, n={n}")
    if mode == "block":
        d = n - s
        return d**3 + d**2 * s + s**2 * d + s**2
    if mode == "sequential":
        return ((n + 1) * n * (n - 1) - (s + 1) * s * (s - 1)) // 3
    raise ValueError(f"mode must be 'block' or 'sequential', got {mode!r}")
