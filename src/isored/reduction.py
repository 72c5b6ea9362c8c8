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


def _peel(data, keep, drop, lam, border=False):
    """Sparse half of :func:`_schur`: peel independent sets down to a dense core.

    Works in local numbering (eliminated vertices ``0..d-1``, then kept ones)
    on the entries of the eliminated rows.  Fill is appended, not merged: a
    position may repeat, its entries add up, and the density test counts
    stored entries.  A vertex whose pivot ``lam - m_jj`` is not positive is
    never peeled; it stays in the core.  Returns ``(top, levels, Q, GC, f,
    anorm)`` with ``GC = [lam I - M[Q,Q] | M[Q,S]]`` in Fortran order; with
    ``border``, ``GC`` has one more row, of zeros, for the caller to fill.
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
    held = None  # core vertices without a positive pivot, once one is met
    while True:
        within = cols < d  # every row left is a core row
        if q == 0 or np.count_nonzero(within) >= SPARSE_DENSITY_THRESHOLD * q * q:
            break
        within &= off
        free = core
        if held is not None:
            free = core & ~held
            within &= free[rows] & free[cols]
        P = _independent_set(free, rows[within], cols[within])
        piv = lam - diag[P]
        if not np.all(piv > 0):
            # fill only raises a diagonal, so such a vertex stays in the core,
            # where dgetrf pivots and the certificate of _schur judges it
            ok = piv > 0
            held = np.zeros(n, dtype=bool) if held is None else held
            held[P[~ok]] = True
            P, piv = P[ok], piv[ok]
        if not P.size:
            break
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
    ld = q + 1 if border else q
    GC = np.bincount(c_at * ld + at[rows], signed, minlength=ld * (q + s))
    GC = GC.astype(np.float64, copy=False).reshape(q + s, ld).T  # no entries: int zeros
    GC.T.reshape(-1)[: q * (ld + 1) : ld + 1] += lam
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
    complement of it; a vertex whose rounded pivot is not positive stays in
    the core, where ``dgetrf`` pivots.

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
        y[Q], _ = lapack.dgetrs(LU, piv, f[Q], trans=1, overwrite_b=True)
    for P, piv_P, _, (r_in, c_in, v_in), f_P in reversed(levels):
        y[P] = (f_P + np.bincount(c_in, v_in * y[r_in], minlength=P.size)) / piv_P
    # y > 0 certifies the M-matrix; a singular block, or one outside the contract, gets inf
    cond = anorm * y.max() if anorm and y.min() > 0 else np.inf
    _check_condition(cond)

    X = np.zeros((d + s, s))
    X[d:] = np.eye(s)
    if q:
        X[Q], _ = lapack.dtrtrs(LU, GC[:, q:], overwrite_b=True)  # a zero pivot leaves inf
    for P, _, W, _, _ in reversed(levels):
        X[P] = W @ X
    lift = X[:d]
    if not np.isfinite(lift).all():
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
        np.maximum(arr, 0.0, out=arr)
    sums = R_raw.sum(axis=0)
    if not (sums > 0).all():
        raise ZeroColumn(int(np.argmin(sums > 0)))
    R_raw /= sums
    return ReductionRecord(
        S=S,
        R=StochasticMatrix._owned(R_raw),
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


class _Crout:
    """Left-looking (Crout) node-by-node elimination of the dense chain ``A0``.

    After ``k`` steps the partially reduced matrix is ``A0 + C[:k].T @
    Rw[:k]`` on the live vertices, but it is never formed: step ``k`` builds
    only its pivot's row and column from the stored ones and keeps the
    diagonal running.  A dead vertex has diagonal ``inf``, which is the live
    mask: ``argmin`` passes over it, and the update leaves it ``inf``.
    Rounding moves the column sums of the partial matrix off 1 by a few ulps;
    :func:`_finish_stochastic` re-projects once at the end.
    """

    def __init__(self, A0, steps):
        self.A0 = A0
        self.diag = A0.diagonal().copy()
        self.Rw = np.empty((steps, A0.shape[0]))  # pivot rows divided by their pivots
        self.C = np.empty((steps, A0.shape[0]))  # pivot columns
        self.piv = np.empty(steps)
        self.pivots = np.empty(steps, dtype=np.intp)
        self.k = 0

    @property
    def live(self):
        return np.flatnonzero(self.diag < np.inf)

    def eliminate(self, p, delta):
        """Eliminate vertex ``p``; the one elimination kernel.

        A pivot with diagonal ``>= 1 - delta`` is refused before any
        division: the call returns False and changes nothing.  Otherwise
        ``p`` dies and step ``k`` stores ``piv = 1 - m_pp``, the lift row
        ``Rw[k] = M[p,:] / piv`` and the column ``C[k] = M[:,p]``, and the
        running diagonal takes the rank-1 update ``C[k] * Rw[k]``.  Entries
        at dead vertices are not masked, because nothing reads them: entry
        ``j`` of a new row or column reads only entry ``j`` and entry ``p``
        (live until now) of the stored ones, and the callers read the kept
        vertices, or the upper triangle in pivot order.
        """
        diag = self.diag
        if not diag[p] < 1.0 - delta:
            return False
        k, Rw, C, A0 = self.k, self.Rw, self.C, self.A0
        piv = 1.0 - diag[p]
        row, col = Rw[k], C[k]
        np.dot(C[:k, p], Rw[:k], out=row)
        row += A0[p]
        row /= piv
        np.dot(Rw[:k, p], C[:k], out=col)
        col += A0[:, p]
        diag[p] = np.inf
        diag += col * row
        self.piv[k], self.pivots[k], self.k = piv, p, k + 1
        return True

    def reduced(self, keep):
        """Raw reduced matrix over the live vertices ``keep``."""
        C, Rw = self.C[: self.k, keep], self.Rw[: self.k, keep]
        return self.A0[keep][:, keep] + C.T @ Rw


def eliminate_node(A, k, delta=1e-12):
    """Remove a single vertex: r[i,j] = a[i,j] + a[i,k] a[k,j] / (1 - a[k,k]).

    One step of :meth:`_Crout.eliminate`; the lift is the pivot row.
    """
    A = validate_stochastic(A)
    n, k = A.n, int(k)
    if not 0 <= k < n:
        raise DimensionMismatch(f"node {k} outside [0, {n})")
    E = _Crout(A.dense, 1)
    if not E.eliminate(k, delta):
        raise AbsorbingPivot(k, float(E.diag[k]))
    rest = E.live
    return _finish_stochastic(IndexSet(rest, n), E.reduced(rest), E.Rw[:, rest], (k,), 1.0)


def reduce_sequential(A, S, order=None, delta=PIVOT_DELTA):
    """Eliminate the complement of ``S`` one node at a time.

    ``order`` fixes the elimination sequence (must enumerate the complement);
    by default the remaining eliminated vertex with the smallest current
    diagonal goes first, ties to the lowest index.  Each step is one call of
    the left-looking kernel :meth:`_Crout.eliminate`, which forms only the
    pivot's row and column; the result matches :func:`reduce_block` up to
    rounding, whatever the order.  Raises :class:`NoViablePivot` when a pivot
    has diagonal within ``delta`` of 1.

    ``R = A[S,S] + C[:,S]^T Rw[:,S]`` is one product of the stored columns
    and rows.  In pivot order the rows give the unit upper triangular ``I -
    U``, ``U = Rw[:,P]``, so the lift is one triangular solve ``(I - U) X =
    Rw[:,S]``.  The steps LU-factor the M-matrix ``I - B``, ``B =
    A[~S,~S]``, so its condition number is exact: ``||I - B||_1 max(y)``,
    ``(I - B)^T y = 1``, i.e. ``(I - U)^T f = 1`` forward and ``(diag(piv) -
    C[:,P]) y = f`` backward.
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

    D = A.dense
    E = _Crout(D, drop.size)
    E.diag[keep] = np.inf  # kept vertices never pivot; R does not read the diagonal
    for step in range(drop.size):
        p = int(E.diag.argmin()) if order is None else order[step]
        if not E.eliminate(p, delta):
            raise NoViablePivot(f"node {p + 1} has diagonal {E.diag[p]!r}")

    P = E.pivots
    I_U = -E.Rw[:, P]  # unit upper triangular; the diagonal is implied
    X, _ = lapack.dtrtrs(I_U, E.Rw[:, keep], unitdiag=1)
    f, _ = lapack.dtrtrs(I_U, np.ones(drop.size), trans=1, unitdiag=1)
    G = -E.C[:, P]
    np.fill_diagonal(G, E.piv)
    y, _ = lapack.dtrtrs(G, f)
    # ||I - B||_1 column by column: 1 - b_jj plus the off-diagonal entries
    anorm = (D[drop].sum(axis=0)[drop] - 2.0 * D.diagonal()[drop] + 1.0).max()
    lift = X[np.argsort(P)]  # rows back in ascending vertex order
    return _finish_stochastic(S, E.reduced(keep), lift, tuple(P.tolist()), anorm * y.max())


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

    Viable marks are eliminated immediately by :meth:`_Crout.eliminate`, so
    later diagonals are those of the shrunken matrix, read off its running
    diagonal.  Once only absorbing candidates remain, the rest of the marks go
    to the smallest current (then original) diagonals without further
    updates.
    """
    D = A.dense
    E = _Crout(D, A.n - s)
    for _ in range(A.n - s):
        p = int(E.diag.argmin())
        if not E.eliminate(p, delta):
            live = E.live
            order = np.lexsort((D.diagonal()[live], E.diag[live]))
            return IndexSet(live[order[live.size - s :]], A.n)
    return IndexSet(E.live, A.n)


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
    np.maximum(full, 0.0, out=full)
    total = full.sum()
    if not total > 0:
        raise ZeroColumn(0)
    full /= total
    return ProbabilityVector._owned(full)


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
