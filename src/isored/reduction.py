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
    _kept_set,
    validate_stochastic,
)
from .errors import (
    AbsorbingPivot,
    DimensionMismatch,
    NoViablePivot,
    SingularElimination,
    ZeroColumn,
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


def _csr(shape, rows, cols, vals):
    """CSR matrix from entries listed in non-decreasing row order."""
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def _independent_set(core, rows, cols):
    """Greedy maximal independent set of an off-diagonal pattern on ``core``.

    ``rows``/``cols`` list the off-diagonal entries among core vertices.
    Vertices are ranked by ascending degree (entries in their row and
    column), ties by index, and the set is the one a greedy pass in rank
    order takes.  It is built in rounds: a free vertex with no free
    lower-ranked neighbour joins, and its neighbours leave.  Returns the
    vertices in ascending order.
    """
    n = core.size
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    cand = np.flatnonzero(core)
    rank = np.empty(n, dtype=np.intp)
    rank[cand[np.argsort(degree[cand], kind="stable")]] = np.arange(cand.size)
    # each edge as (hi, lo): hi ranks after lo and cannot join while lo is free
    first = rank[cols] < rank[rows]
    hi = np.where(first, rows, cols)
    lo = np.where(first, cols, rows)
    free, taken = core.copy(), np.zeros(n, dtype=bool)
    while hi.size:
        join = free.copy()
        join[hi] = False
        taken |= join
        free &= ~join
        free[hi[join[lo]]] = False
        live = free[hi] & free[lo]
        hi, lo = hi[live], lo[live]
    return np.flatnonzero(taken | free)


def _peel(data, keep, drop, lam):
    """Sparse half of :func:`_schur`: peel independent sets down to a dense core.

    Works in local numbering (eliminated vertices ``0..d-1``, then kept ones)
    on the entries of the eliminated rows.  Fill is appended, not merged: a
    position may repeat, its entries add up, and the density test counts
    stored entries.  Returns ``(top, levels, Q, GC, f, anorm)`` with ``GC =
    [lam I - M[Q,Q] | M[Q,S]]`` in Fortran order.
    """
    n, d, s = data.shape[0], drop.size, keep.size
    loc = np.empty(n, dtype=np.intp)
    loc[drop] = np.arange(d)
    loc[keep] = d + np.arange(s)
    A = data.tocsc()
    rows, cols, vals = loc[A.indices], np.repeat(loc, np.diff(A.indptr)), A.data
    mine = rows < d
    t = np.flatnonzero(~mine)
    t = t[np.argsort(rows[t], kind="stable")]
    top = _csr((s, n), rows[t] - d, cols[t], vals[t])  # A[S,:]
    rows, cols, vals = rows[mine], cols[mine], vals[mine]

    off = rows != cols
    diag = np.bincount(rows[~off], vals[~off], minlength=d)
    block = off & (cols < d)
    anorm = (np.bincount(cols[block], vals[block], minlength=d) + np.abs(lam - diag)).max()

    core = np.zeros(n, dtype=bool)
    core[:d] = True
    f = core.astype(np.float64)  # right-hand side of (lam I - B)^T y = 1, folded forward
    slot = np.empty(n, dtype=np.intp)
    levels = []
    q = d
    while True:
        within = cols < d  # every row left is a core row
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
        q -= P.size
        slot[P] = np.arange(P.size)
        out = np.flatnonzero(peel[rows] & off)
        out = out[np.argsort(slot[rows[out]], kind="stable")]
        r_out, c_out = slot[rows[out]], cols[out]
        w = vals[out] / piv[r_out]
        W = _csr((P.size, n), r_out, c_out, w)  # diag(1/piv) M[P,T]
        into = peel[cols] & off
        r_in, c_in, v_in = rows[into], slot[cols[into]], vals[into]  # M[T,P]
        f_P = f[P]
        f += np.bincount(c_out, w * f_P[r_out], minlength=n)
        levels.append((P, piv, W, (r_in, c_in, v_in), f_P))
        # fill M[T,P] W: each entry of M[T,P] times the W row of its pivot
        ptr = W.indptr
        cnt = ptr[c_in + 1] - ptr[c_in]
        take = np.arange(cnt.sum()) + np.repeat(ptr[c_in] - (np.cumsum(cnt) - cnt), cnt)
        rest = ~(peel[rows] | peel[cols])
        rows = np.concatenate((rows[rest], np.repeat(r_in, cnt)))
        cols = np.concatenate((cols[rest], c_out[take]))
        vals = np.concatenate((vals[rest], np.repeat(v_in, cnt) * w[take]))
        off = rows != cols
        diag = np.bincount(rows[~off], vals[~off], minlength=d)

    Q = np.flatnonzero(core)
    at = np.empty(n, dtype=np.intp)
    at[Q] = np.arange(q)
    at[d:] = q + np.arange(s)
    c_at = at[cols]
    signed = np.where(c_at < q, -vals, vals)  # repeated positions add up in bincount
    GC = np.bincount(c_at * q + at[rows], signed, minlength=q * (q + s))
    GC = GC.astype(np.float64, copy=False).reshape(q + s, q).T  # no entries: int zeros
    GC.T.reshape(-1)[: q * q : q + 1] += lam
    return top, levels, Q, GC, f, anorm


def _check_condition(cond):
    if not np.isfinite(cond) or cond > SINGULAR_CONDITION:
        raise SingularElimination(
            f"condition estimate {cond:.3e} exceeds {SINGULAR_CONDITION:.0e};"
            " the eliminated set traps an essential class",
            condition=cond,
        )


def _schur(data, keep, drop, lam):
    """Raw Schur complement and lift of the shifted eliminated block.

    Returns ``(R_raw, lift, cond)`` as dense arrays for either storage.
    ``lam I - B``, ``B = data[~S,~S]``, must be a nonsingular M-matrix, as it
    is for a stochastic matrix at ``lam = 1`` and a non-negative one at its
    dominant eigenvalue; a numerically singular block raises
    :class:`SingularElimination`.

    Dense input goes straight to the core, ``Q = ~S``.  Sparse input peels
    first, since reductions compose: while the still-eliminated block is
    sparser than ``SPARSE_DENSITY_THRESHOLD``, a maximal independent set P of
    its off-diagonal pattern goes in one exact step without fill (``M[P,P]``
    is diagonal), ``M <- M[T,T] + M[T,P] diag(1/(lam - m_pp)) M[P,T]``.  No
    pivoting is needed: ``lam I - B`` is column diagonally dominant (after
    the Perron scaling at a dominant eigenvalue), and so is every Schur
    complement of it.

    One tail serves both: one in-place LU of the bordered core ``[G | C]``,
    ``G = lam I - M[Q,Q]``, ``C = M[Q,S]`` (pivots come from G's columns,
    and C becomes ``L^-1 P C``), one triangular solve for the lift rows
    ``G^-1 C``, the rest of the lift folded back level by level with ``X[P]
    = W @ X[T]``, ``W = diag(1/(lam - m_pp)) M[P,T]``, and ``R = A[S,:] @
    [lift; I]``.  An M-matrix has a non-negative inverse, so the 1-norm
    condition number is exact: ``||(lam I - B)^-1||_1 = max y``, ``(lam I -
    B)^T y = 1``, solved through the same levels and one transposed solve on
    the core.
    Conversely ``y > 0`` proves that the Z-matrix ``lam I - B`` is a
    nonsingular M-matrix, so a block that fails it is refused: a numerically
    singular one can return a hugely negative ``y``, and ``reduce_at`` below
    the dominant eigenvalue leaves the contract.
    """
    d, s = drop.size, keep.size
    if sp.issparse(data):
        top, levels, Q, GC, f, anorm = _peel(data, keep, drop, lam)
    else:
        order = np.concatenate((drop, keep))
        top = data[keep][:, order]
        levels, Q, f = [], np.arange(d), np.ones(d)
        GC = np.asfortranarray(data[drop][:, order])
        G = GC[:, :d]
        np.negative(G, out=G)  # lam I - B
        GC.T.reshape(-1)[: d * d : d + 1] += lam
        anorm = np.abs(G).sum(axis=0).max()

    q = Q.size
    y = np.zeros(d)
    if q:
        # one LU of [G | C]: pivots come from G's columns, C becomes L^-1 P C
        GC, piv, _ = lapack.dgetrf(GC, overwrite_a=True)
        LU = GC[:, :q]
        y[Q] = sla.lu_solve((LU, piv), f[Q], trans=1, check_finite=False)
    for P, piv_P, _, (r_in, c_in, v_in), f_P in reversed(levels):
        y[P] = (f_P + np.bincount(c_in, v_in * y[r_in], minlength=P.size)) / piv_P
    # y > 0 certifies the M-matrix; a singular block, or one outside the contract, gets inf
    cond = anorm * y.max() if anorm and y.min() > 0 else np.inf
    _check_condition(cond)

    X = np.zeros((d + s, s))
    X[d:] = np.eye(s)
    if q:
        X[Q] = sla.solve_triangular(LU, GC[:, q:], overwrite_b=True, check_finite=False)
    for P, _, W, _, _ in reversed(levels):
        X[P] = W @ X
    lift = X[:d]
    if not np.all(np.isfinite(lift)):
        raise SingularElimination("shifted block solve produced non-finite values", condition=cond)
    return top @ X, lift, cond


def reduce_at(M, S, lam=1.0):
    """Schur reduction of a general square matrix at an arbitrary shift.

    No stochastic postprocessing: returns the raw reduced array.  Used for
    reductions of non-negative matrices at their dominant eigenvalue, where
    ``lam I - M[~S,~S]`` is a nonsingular M-matrix, as :func:`_schur`
    requires for either storage.  A numerically singular block, or a shift
    below the block's spectral radius, raises :class:`SingularElimination`.
    """
    data = M.data if isinstance(M, NonNegativeMatrix) else np.asarray(M, dtype=np.float64)
    S = _kept_set(S, data.shape[0])
    if S.is_full():
        return data.toarray() if sp.issparse(data) else np.array(data, copy=True)
    R_raw, _, _ = _schur(data, S.array, S.complement().array, float(lam))
    return R_raw


def _finish_stochastic(S, R_raw, lift, pivot_order, cond):
    """Clamp rounding noise and re-project in place so the record invariants hold exactly."""
    for arr in (R_raw, lift):
        low = arr.min() if arr.size else 0.0
        if low < -_NEGATIVE_SLACK:
            raise SingularElimination(
                f"elimination produced negative mass {low:.3e}; shifted block"
                " is numerically singular",
                condition=cond,
            )
        np.clip(arr, 0.0, None, out=arr)
    sums = R_raw.sum(axis=0)
    if not np.all(sums > 0):
        raise ZeroColumn(int(np.argmin(sums > 0)))
    R_raw /= sums
    return ReductionRecord(
        S=S,
        R=StochasticMatrix(R_raw),
        lift=lift,
        pivot_order=pivot_order,
        condition_estimate=float(cond),
    )


def reduce_block(A, S):
    """One-shot isospectral reduction of a stochastic matrix over ``S``.

    Raises :class:`SingularElimination` when ``I - A[~S,~S]`` is numerically
    singular, i.e. when the eliminated vertices contain an essential class.
    """
    A = validate_stochastic(A)
    S = _kept_set(S, A.n)
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
    return _finish_stochastic(S, R_raw, lift, tuple(drop.tolist()), cond)


def _eliminate(M, alive, p, delta):
    """Eliminate vertex ``p`` of the n x n work array ``M`` in place.

    Dead vertices (``~alive``) have all-zero rows and columns and keep them.
    A pivot with ``m_pp >= 1 - delta`` is refused before any division: the
    call returns ``None`` and changes nothing.  Otherwise ``p`` dies, ``M``
    takes the rank-1 update and re-normalized columns, and the call returns
    ``(row, col, piv)``: ``piv = 1 - m_pp``, the lift row ``M[p,:] / piv``
    and the column ``M[:,p]``, both with entry ``p`` zeroed.
    """
    if not M[p, p] < 1.0 - delta:
        return None
    piv = 1.0 - M[p, p]
    row, col = M[p] / piv, M[:, p].copy()
    row[p] = col[p] = 0.0
    M[p] = M[:, p] = 0.0
    alive[p] = False
    M += col[:, None] * row
    sums = M.sum(axis=0)
    sums[~alive] = 1.0  # dead columns are all zero
    M /= sums  # keep column sums exact across steps
    return row, col, piv


def eliminate_node(A, k, delta=1e-12):
    """Remove a single vertex: r[i,j] = a[i,j] + a[i,k] a[k,j] / (1 - a[k,k]).

    One step of :func:`_eliminate`; the lift is the pivot row.
    """
    A = validate_stochastic(A)
    n, k = A.n, int(k)
    if not 0 <= k < n:
        raise DimensionMismatch(f"node {k} outside [0, {n})")
    M = np.array(A.dense, copy=True)
    alive = np.ones(n, dtype=bool)
    step = _eliminate(M, alive, k, delta)
    if step is None:
        raise AbsorbingPivot(k, float(M[k, k]))
    rest = np.flatnonzero(alive)
    R_raw = M[rest][:, rest]
    return _finish_stochastic(IndexSet(rest, n), R_raw, step[0][None, rest], (k,), 1.0)


def reduce_sequential(A, S, order=None, delta=PIVOT_DELTA):
    """Eliminate the complement of ``S`` one node at a time.

    ``order`` fixes the elimination sequence (must enumerate the complement);
    by default the remaining eliminated vertex with the smallest current
    diagonal goes first, ties to the lowest index.  Each step is one call of
    the in-place kernel :func:`_eliminate` on an n x n work array; the result
    matches :func:`reduce_block` up to rounding, whatever the order.  Raises
    :class:`NoViablePivot` when a pivot has diagonal within ``delta`` of 1.

    The lift is back-substituted from the pivot rows: ``X[S] = I``, then
    ``X[k] = W[k] @ X`` in reverse pivot order.  The steps LU-factor the
    M-matrix ``I - B``, ``B = A[~S,~S]``, so its condition number is exact:
    ``||I - B||_1 max(y)``, ``(I - B)^T y = 1``, with ``f += W[k] f_k``
    forward and ``y_k = (f_k + col_k . y) / piv_k`` backward.
    """
    A = validate_stochastic(A)
    n = A.n
    S = _kept_set(S, n)
    if S.is_full():
        return reduce_block(A, S)
    keep, drop = S.array, S.complement().array
    if order is not None:
        order = [int(k) for k in order]
        if sorted(order) != drop.tolist():
            raise DimensionMismatch("order must enumerate the eliminated vertices exactly once")

    M = np.array(A.dense, copy=True)
    alive = np.ones(n, dtype=bool)
    pending = np.zeros(n, dtype=bool)
    pending[drop] = True
    f = pending.astype(np.float64)  # right-hand side of (I - B)^T y = 1, folded forward
    steps = []  # (p, W[p], col, piv) of each step
    for step in range(drop.size):
        if order is None:
            p = int(np.argmin(np.where(pending, M.diagonal(), np.inf)))
        else:
            p = order[step]
        out = _eliminate(M, alive, p, delta)
        if out is None:
            raise NoViablePivot(f"node {p + 1} has diagonal {M[p, p]!r}")
        pending[p] = False
        f += out[0] * f[p]
        steps.append((p, *out))

    X = np.eye(n)[:, keep]
    y = np.zeros(n)
    for p, w, col, piv in reversed(steps):
        X[p] = w @ X
        y[p] = (f[p] + col @ y) / piv
    anorm = np.abs(np.eye(drop.size) - A.dense[drop][:, drop]).sum(axis=0).max()
    pivots = tuple(step[0] for step in steps)
    return _finish_stochastic(S, M[keep][:, keep], X[drop], pivots, anorm * y.max())


def select_subset(A, strategy):
    """Choose the kept vertex set according to a selection strategy."""
    A = validate_stochastic(A)
    n = A.n
    if not isinstance(strategy, SelectionStrategy):
        raise TypeError(f"unknown selection strategy: {strategy!r}")
    if not 1 <= strategy.s <= n:
        raise DimensionMismatch(f"kept size {strategy.s} outside [1, {n}]")
    if isinstance(strategy, FirstS):
        return IndexSet(range(strategy.s), n)
    if isinstance(strategy, RandomS):
        rng = np.random.default_rng(strategy.seed)
        return IndexSet(rng.choice(n, size=strategy.s, replace=False), n)
    return _greedy_selection(A, strategy.s, strategy.delta)


def _greedy_selection(A, s, delta):
    """Repeatedly mark the smallest-diagonal node of the partial reduction.

    Viable marks are eliminated immediately by :func:`_eliminate`, so later
    diagonals reflect the shrunken matrix.  Once only absorbing candidates
    remain, the rest of the marks go to the smallest current (then original)
    diagonals without further updates.
    """
    M = np.array(A.dense, copy=True)
    alive = np.ones(A.n, dtype=bool)
    for _ in range(A.n - s):
        p = int(np.argmin(np.where(alive, M.diagonal(), np.inf)))
        if _eliminate(M, alive, p, delta) is None:
            live = np.flatnonzero(alive)
            order = np.lexsort((A.dense.diagonal()[live], M.diagonal()[live]))
            alive[live[order[: live.size - s]]] = False
            break
    return IndexSet(np.flatnonzero(alive), A.n)


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
