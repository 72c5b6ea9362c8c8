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
    _NEGATIVE_SLACK,
    SPARSE_DENSITY_THRESHOLD,
    IndexSet,
    StochasticMatrix,
    _csr,
    _entries,
    _finish_stationary,
    _kept_set,
    _square,
    validate_stochastic,
)
from .errors import AbsorbingPivot, DimensionMismatch, SingularElimination, ZeroColumn
from .spectral import _labelling

#: κ₁ of (lam I - A[~S,~S]) above which an elimination is refused, unless classes vouch for it
SINGULAR_CONDITION = 1e14
#: the one viability margin of node-by-node elimination: a pivot needs diagonal < 1 - PIVOT_DELTA
PIVOT_DELTA = 1e-8


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


SelectionStrategy = FirstS | RandomS | PivotGreedy


def _independent_set(core, rows, cols):
    """Greedy maximal independent set of an off-diagonal pattern on ``core``.

    ``rows``/``cols`` list the off-diagonal entries among core vertices.
    Vertices are ordered by the key ``degree * n + index``: ascending degree
    (entries in their row and column), ties by index.  The set is the one a
    greedy pass in key order takes.  It is built in rounds: a free vertex
    with no free lower-keyed neighbour joins, and its neighbours leave.
    Returns the vertices in ascending order.
    """
    n = core.size
    key = (np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)) * n + np.arange(n)
    # each edge as (hi, lo): hi comes after lo and cannot join while lo is free
    first = key[cols] < key[rows]
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


def _peel(data, keep, drop, lam, hold=None):
    """Peel independent sets of the eliminated block down to a dense core.

    The sparse half of :func:`_schur`, and with ``keep`` empty the whole of
    the sparse direct solve.  Works in local numbering (eliminated vertices
    ``0..d-1``, then kept ones) on a diagonal vector and the off-diagonal
    entries of the eliminated rows.  Fill is appended, not merged: entries
    add up, diagonal ones in entry order, and the density test counts all
    stored entries.  A vertex whose pivot ``lam - m_jj`` is not positive is
    never peeled, nor is one of ``hold`` (vertices of ``drop``); both stay
    in the core.  Returns ``(top, levels, Q, GC, f, anorm)``: a level is
    ``(P, piv, W, M[T,P])``, each matrix as ``(rows, cols, vals)`` with P
    numbered within P and ``W = diag(1/piv) M[P,T]`` in row order; ``GC =
    [lam I - M[Q,Q] | M[Q,S]]`` in Fortran order; ``top = A[S,:]``, ``f``
    and ``anorm`` are None when ``keep`` is empty.
    """
    n, d, s = data.shape[0], drop.size, keep.size
    loc = np.empty(n, dtype=np.intp)
    loc[drop] = np.arange(d)
    loc[keep] = d + np.arange(s)
    A = data.tocsc()
    rows, cols, vals = loc[A.indices], np.repeat(loc, np.diff(A.indptr)), A.data
    top = f = anorm = None
    if s:
        mine = rows < d
        t = np.flatnonzero(~mine)
        t = t[np.argsort(rows[t], kind="stable")]
        top = _csr((s, n), rows[t] - d, cols[t], vals[t])  # A[S,:]
        rows, cols, vals = rows[mine], cols[mine], vals[mine]
    on = rows == cols
    # no diagonal entries: bincount gives int zeros, and np.add.at needs floats
    diag = np.bincount(rows[on], vals[on], minlength=d).astype(np.float64, copy=False)
    ndiag = np.bincount(rows[on], minlength=d)  # stored diagonal entries per core vertex
    rows, cols, vals = rows[~on], cols[~on], vals[~on]

    core = np.zeros(n, dtype=bool)
    core[:d] = True
    if s:
        f = core.astype(np.float64)  # right-hand side of (lam I - B)^T y = 1, folded forward
        block = cols < d
        anorm = (np.bincount(cols[block], vals[block], minlength=d) + np.abs(lam - diag)).max()
    slot = np.empty(n, dtype=np.intp)
    levels = []
    q = d
    held = np.zeros(n, dtype=bool)  # core vertices never peeled
    if hold is not None:
        held[loc[hold]] = True
    while True:
        within = cols < d  # every row left is a core row
        if q == 0 or np.count_nonzero(within) + ndiag.sum() >= SPARSE_DENSITY_THRESHOLD * q * q:
            break
        free = core & ~held
        within &= free[rows] & free[cols]
        P = _independent_set(free, rows[within], cols[within])
        piv = lam - diag[P]
        if not np.all(piv > 0):
            # fill only raises a diagonal, so such a vertex stays in the core,
            # where dgetrf pivots and the certificate of _schur judges it
            ok = piv > 0
            held[P[~ok]] = True
            P, piv = P[ok], piv[ok]
        if not P.size:
            break
        peel = np.zeros(n, dtype=bool)
        peel[P] = True
        core[P], ndiag[P] = False, 0
        q -= P.size
        slot[P] = np.arange(P.size)
        from_P, into_P = peel[rows], peel[cols]
        out = np.flatnonzero(from_P)
        out = out[np.argsort(rows[out], kind="stable")]  # P ascends: row order is slot order
        r_out, c_out = slot[rows[out]], cols[out]
        w = vals[out] / piv[r_out]
        i = np.flatnonzero(into_P)  # index arrays: a mask of middling density indexes slowly
        r_in, c_in, v_in = rows[i], slot[cols[i]], vals[i]  # M[T,P]
        if s:
            f += np.bincount(c_out, w * f[P][r_out], minlength=n)
        levels.append((P, piv, (r_out, c_out, w), (r_in, c_in, v_in)))
        # fill M[T,P] W: each entry of M[T,P] times the W row of its pivot
        ptr = np.searchsorted(r_out, np.arange(P.size + 1))
        cnt = ptr[c_in + 1] - ptr[c_in]
        take = np.arange(cnt.sum()) + np.repeat(ptr[c_in] - (np.cumsum(cnt) - cnt), cnt)
        r_f, c_f, v_f = np.repeat(r_in, cnt), c_out[take], np.repeat(v_in, cnt) * w[take]
        on = r_f == c_f
        np.add.at(diag, r_f[on], v_f[on])  # in entry order, as a sum over the entries would
        ndiag += np.bincount(r_f[on], minlength=d)
        i, on = np.flatnonzero(~(from_P | into_P)), ~on
        rows = np.concatenate((rows[i], r_f[on]))
        cols = np.concatenate((cols[i], c_f[on]))
        vals = np.concatenate((vals[i], v_f[on]))

    Q = np.flatnonzero(core)
    at = np.empty(n, dtype=np.intp)
    at[Q] = np.arange(q)
    at[d:] = q + np.arange(s)
    c_at = at[cols]
    signed = np.where(c_at < q, -vals, vals)  # repeated positions add up in bincount
    GC = np.bincount(c_at * q + at[rows], signed, minlength=q * (q + s))
    GC = GC.astype(np.float64, copy=False).reshape(q + s, q).T  # no entries: int zeros
    GC.T.reshape(-1)[: q * q : q + 1] = lam - diag[Q]
    return top, levels, Q, GC, f, anorm


def _check_condition(cond, chain, keep):
    """Refuse a block that fails the M-matrix certificate (``cond`` inf), or
    whose κ₁ exceeds ``SINGULAR_CONDITION`` while an essential class of the
    stochastic ``chain`` has no vertex in ``keep``; ``reduce_at`` passes no
    chain, so there the bound alone refuses."""
    if not np.isfinite(cond):
        raise SingularElimination("shifted block fails the M-matrix certificate y > 0",
                                  condition=cond)
    if cond <= SINGULAR_CONDITION:
        return
    why = f"condition estimate {cond:.3e} exceeds {SINGULAR_CONDITION:.0e}"
    if chain is not None:
        _, _, root, _, cyclic, leaks = _labelling(chain)
        cyclic[root[keep]] = False  # classes with a kept vertex
        trapped = np.flatnonzero(cyclic & ~leaks)
        if not trapped.size:
            return
        why += f" and the essential class of vertex {trapped[0] + 1} is eliminated whole"
    raise SingularElimination(why, condition=cond)


def _schur(data, keep, drop, lam, chain=None):
    """Raw Schur complement and lift of the shifted eliminated block.

    Returns ``(R_raw, lift, cond)`` as dense arrays for either storage.
    ``lam I - B``, ``B = data[~S,~S]``, must be a nonsingular M-matrix, as it
    is for a stochastic matrix at ``lam = 1`` and a non-negative one at its
    dominant eigenvalue; :func:`_check_condition` judges it, by the classes
    of ``chain`` if given.

    Dense input goes straight to the core, ``Q = ~S``.  Sparse input peels
    first, since reductions compose: while the still-eliminated block is
    sparser than ``SPARSE_DENSITY_THRESHOLD``, a maximal independent set P of
    its off-diagonal pattern goes in one exact step without fill (``M[P,P]``
    is diagonal), ``M <- M[T,T] + M[T,P] diag(1/(lam - m_pp)) M[P,T]``.  No
    pivoting is needed: ``lam I - B`` is column diagonally dominant (after
    the Perron scaling at a dominant eigenvalue), and so is every Schur
    complement of it; a vertex whose rounded pivot is not positive stays in
    the core, where ``dgetrf`` pivots.

    One tail serves both: one in-place LU of the core ``[G | C]``,
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
    for P, piv_P, _, (r_in, c_in, v_in) in reversed(levels):
        # f[P] is final once P is peeled: no later entry has a column in P
        y[P] = (f[P] + np.bincount(c_in, v_in * y[r_in], minlength=P.size)) / piv_P
    # y > 0 certifies the M-matrix; a singular block, or one outside the contract, gets inf
    cond = anorm * y.max() if anorm and y.min() > 0 else np.inf
    _check_condition(cond, chain, keep)

    X = np.zeros((d + s, s))
    X[d:] = np.eye(s)
    if q:
        X[Q], _ = lapack.dtrtrs(LU, GC[:, q:], overwrite_b=True)  # a zero pivot leaves inf
    for P, _, (r_out, c_out, w), _ in reversed(levels):
        X[P] = _csr((P.size, d + s), r_out, c_out, w) @ X
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
    below the block's spectral radius, or a κ₁ above ``SINGULAR_CONDITION``
    raises :class:`SingularElimination`.
    """
    data = _square(_entries(M))
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
            raise SingularElimination(f"elimination produced negative mass {low:.3e}; shifted"
                                      " block is numerically singular", condition=cond)
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

    Raises :class:`SingularElimination` when ``I - A[~S,~S]`` fails the
    M-matrix certificate, or when its κ₁ exceeds ``SINGULAR_CONDITION`` and
    ``S`` misses an essential class (it is singular exactly then); any other
    κ₁ is reported, not refused.
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
    R_raw, lift, cond = _schur(A.data, S.array, drop, 1.0, A)
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

    def eliminate(self, p):
        """Eliminate vertex ``p``; the one elimination kernel.

        A pivot with diagonal ``>= 1 - PIVOT_DELTA`` is refused before any
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
        if not diag[p] < 1.0 - PIVOT_DELTA:
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


def eliminate_node(A, k):
    """Remove a single vertex: r[i,j] = a[i,j] + a[i,k] a[k,j] / (1 - a[k,k]).

    :func:`reduce_sequential` over every other vertex; the lift is the pivot
    row.  The one vertex of a 1x1 chain is absorbing.
    """
    A = validate_stochastic(A)
    n, k = A.n, int(k)
    if not 0 <= k < n:
        raise DimensionMismatch(f"node {k} outside [0, {n})")
    if n == 1:
        raise AbsorbingPivot(k, float(A.dense[0, 0]))
    return reduce_sequential(A, np.delete(np.arange(n), k))


def reduce_sequential(A, S, order=None):
    """Eliminate the complement of ``S`` one node at a time.

    ``order`` fixes the elimination sequence (must enumerate the complement);
    by default the remaining eliminated vertex with the smallest current
    diagonal goes first, ties to the lowest index.  Each step is one call of
    the left-looking kernel :meth:`_Crout.eliminate`, which forms only the
    pivot's row and column; the result matches :func:`reduce_block` up to
    rounding, whatever the order.  Raises :class:`AbsorbingPivot` when a
    pivot has diagonal within ``PIVOT_DELTA`` of 1.

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
        if not E.eliminate(p):
            raise AbsorbingPivot(p, float(E.diag[p]))

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
    """Choose the kept vertex set according to a selection strategy.

    ``FirstS`` and ``RandomS`` also keep every vertex with diagonal ``>= 1``
    (pivot ``1 - a_jj <= 0``: no reduction can eliminate it), beyond ``s``.
    """
    A = validate_stochastic(A)
    n = A.n
    if not isinstance(strategy, SelectionStrategy):
        raise TypeError(f"unknown selection strategy: {strategy!r}")
    if not 1 <= strategy.s <= n:
        raise DimensionMismatch(f"kept size {strategy.s} outside [1, {n}]")
    if isinstance(strategy, PivotGreedy):
        return _greedy_selection(A, strategy.s)
    if isinstance(strategy, FirstS):
        drawn = np.arange(strategy.s)
    else:
        drawn = np.random.default_rng(strategy.seed).choice(n, size=strategy.s, replace=False)
    return IndexSet(np.concatenate((drawn, np.flatnonzero(A.data.diagonal() >= 1.0))), n)


def _greedy_selection(A, s):
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
        if not E.eliminate(p):
            live = E.live
            order = np.lexsort((D.diagonal()[live], E.diag[live]))
            return IndexSet(live[order[live.size - s :]], A.n)
    return IndexSet(E.live, A.n)


def reconstruct_stationary(rec, v_R):
    """Lift a stationary vector of the reduced matrix back to the full chain.

    Fills the kept coordinates with ``v_R``, the eliminated ones with
    ``lift @ v_R``, and finishes it as the solvers do (``core._finish_stationary``).
    """
    w = np.asarray(v_R, dtype=np.float64).ravel()
    if w.size != len(rec.S):
        raise DimensionMismatch(f"vector has length {w.size}, kept set has {len(rec.S)}")
    full = np.empty(rec.S.n)
    full[rec.S.array] = w
    comp = rec.S.complement()
    if comp is not None:
        full[comp.array] = rec.lift @ w
    return _finish_stationary(full)

