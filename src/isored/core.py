"""Matrix and vector value types shared by every other module.

Matrices follow the column-stochastic convention: entry ``a[i, j]`` is the
probability mass moved from state ``j`` to state ``i``, so every column of a
stochastic matrix sums to 1.  Dense matrices are stored as row-major float64
arrays; sparse ones as CSC.  All values are frozen after construction and can
be shared freely between threads or worker processes.  The public constructors
admit their input through :func:`_entries` and copy it (a wrapped sparse
matrix's frozen entries are shared); the private ``_owned`` ones run the same
checks on an array the library has just made and freeze it in place.

Indices are 0-based everywhere inside the library; the CLI and the file
formats use 1-based vertex numbers.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import (
    ColumnSumViolation,
    DimensionMismatch,
    IndexOutOfRange,
    NegativeEntry,
    SingularSystem,
    VectorSumViolation,
    ZeroColumn,
)

COLUMN_SUM_TOL = 1e-12
#: negative mass a computed result may carry as rounding noise: per matrix entry, or vector share
_NEGATIVE_SLACK = 1e-8
#: matrices below this density are kept in CSC form by the generators and I/O
SPARSE_DENSITY_THRESHOLD = 0.05


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _coerce(data):
    """Normalize input to a float64 ndarray or CSC matrix and freeze it."""
    if sp.issparse(data):
        mat = sp.csc_matrix(data, dtype=np.float64, copy=True)
        mat.sum_duplicates()
        for buf in (mat.data, mat.indices, mat.indptr):
            buf.setflags(write=False)
        return mat
    return _freeze(np.array(data, dtype=np.float64, order="C"))


def column_sums(data):
    if sp.issparse(data):
        return np.asarray(data.sum(axis=0)).ravel()
    return data.sum(axis=0)


def density(data):
    n2 = data.shape[0] * data.shape[1]
    nnz = data.nnz if sp.issparse(data) else int(np.count_nonzero(data))
    return nnz / n2 if n2 else 1.0


def best_storage(data):
    """Apply the storage policy: CSC below the density threshold, dense above."""
    if density(data) < SPARSE_DENSITY_THRESHOLD:
        return data if sp.issparse(data) else sp.csc_matrix(data)
    return data.toarray() if sp.issparse(data) else data


class NonNegativeMatrix:
    """Square matrix with non-negative entries (dense ndarray or CSC)."""

    def __init__(self, data):
        data = _entries(data)  # sparse entries come frozen: a wrapped matrix's, or a fresh copy
        self._admit(data if sp.issparse(data) else _coerce(data))

    @classmethod
    def _owned(cls, arr):
        """Wrap a C-ordered float64 array the library has just made: the
        checks of the public constructor, then frozen in place, not copied."""
        self = cls.__new__(cls)
        self._admit(_freeze(arr))
        return self

    def _admit(self, data):
        if _square(data).shape[0] < 1:
            raise DimensionMismatch("matrix must be at least 1x1")
        self._check_nonnegative(data)
        self.data = data
        self._dense = data if isinstance(data, np.ndarray) else None

    @staticmethod
    def _check_nonnegative(data):
        if sp.issparse(data):
            if data.nnz and data.data.min() < 0:
                k = int(np.argmin(data.data))
                coo = data.tocoo()
                raise NegativeEntry(int(coo.row[k]), int(coo.col[k]), float(coo.data[k]))
        elif data.size and data.min() < 0:
            i, j = np.unravel_index(int(np.argmin(data)), data.shape)
            raise NegativeEntry(int(i), int(j), float(data[i, j]))

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def is_sparse(self):
        return sp.issparse(self.data)

    @property
    def nnz(self):
        return self.data.nnz if self.is_sparse else int(np.count_nonzero(self.data))

    @property
    def dense(self):
        """Dense view of the entries (converted once, then cached)."""
        if self._dense is None:
            self._dense = _freeze(self.data.toarray())
        return self._dense

    def column_sums(self):
        return column_sums(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"vector has length {x.shape}, matrix is {self.n}x{self.n}")
        return self.data @ x

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"<{type(self).__name__} n={self.n} {kind} nnz={self.nnz}>"


class StochasticMatrix(NonNegativeMatrix):
    """Column-stochastic matrix: non-negative, every column sums to 1."""

    def _admit(self, data):
        super()._admit(data)
        sums = self.column_sums()
        dev = np.abs(sums - 1.0)
        j = int(np.argmax(dev))
        if dev[j] > COLUMN_SUM_TOL:
            raise ColumnSumViolation(j, float(sums[j]))


class ProbabilityVector:
    """Point of the probability simplex: non-negative entries summing to 1."""

    def __init__(self, values):
        self._admit(_freeze(np.array(values, dtype=np.float64).ravel()))

    @classmethod
    def _owned(cls, values):
        """Wrap a 1-D float64 array the library has just made: the checks of
        the public constructor, then frozen in place, not copied."""
        self = cls.__new__(cls)
        self._admit(_freeze(values))
        return self

    def _admit(self, values):
        if values.size < 1:
            raise DimensionMismatch("probability vector must have length >= 1")
        if values.min() < 0:
            i = int(np.argmin(values))
            raise NegativeEntry(i, 0, float(values[i]))
        total = float(values.sum())
        if abs(total - 1.0) > COLUMN_SUM_TOL:
            raise VectorSumViolation(total)
        self.values = values

    @classmethod
    def from_weights(cls, weights):
        """Normalize non-negative weights onto the simplex."""
        w = np.asarray(weights, dtype=np.float64).ravel()
        total = w.sum()
        if not total > 0:
            raise ZeroColumn(0)
        return cls(w / total)

    @property
    def n(self):
        return self.values.size

    def __len__(self):
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self.values.dtype:
            return self.values.astype(dtype)
        return np.array(self.values) if copy else self.values


def _finish_stationary(v):
    """Clip, normalize and wrap a computed stationary vector in place; refuse it
    with :class:`SingularSystem` if its total is not finite and positive, or if
    clipping would drop more than ``_NEGATIVE_SLACK`` of its mass (ill-conditioned)."""
    total = v.sum()  # finite only if every entry is
    if not (math.isfinite(total) and total > 0):
        raise SingularSystem(f"stationary solve produced a degenerate total {total:.3e}")
    np.maximum(v, 0.0, out=v)
    kept = v.sum()  # equals total exactly when nothing was clipped
    if kept - total > _NEGATIVE_SLACK * kept:
        raise SingularSystem(f"stationary solve clipped {(kept - total) / kept:.3e} of the"
                             f" vector's mass, above {_NEGATIVE_SLACK:.0e}: ill-conditioned")
    v /= kept
    return ProbabilityVector._owned(v)


class IndexSet:
    """Sorted duplicate-free set of vertex indices inside {0, ..., n-1}.

    Holds one read-only sorted ``intp`` :attr:`array`; the complement is
    computed at most once.  External interfaces (CLI, files) use 1-based
    numbering; convert through :meth:`from_one_based` / :attr:`one_based`.
    """

    __slots__ = ("array", "n", "_complement")

    def __init__(self, indices, n):
        arr = indices if isinstance(indices, np.ndarray) else np.fromiter(indices, dtype=np.intp)
        arr = np.sort(arr.astype(np.intp, copy=False))
        if not arr.size:
            raise IndexOutOfRange("index set must be non-empty")
        if arr[0] < 0 or arr[-1] >= n:
            bad = arr[0] if arr[0] < 0 else arr[-1]
            raise IndexOutOfRange(f"index {bad} outside [0, {n})")
        member = np.zeros(n, dtype=bool)  # drops duplicates
        member[arr] = True
        self.array = _freeze(member.nonzero()[0])
        self.n = int(n)
        self._complement = False  # not computed yet; None means empty

    @classmethod
    def from_one_based(cls, indices, n):
        return cls([int(i) - 1 for i in indices], n)

    @property
    def indices(self):
        return tuple(self.array.tolist())

    @property
    def one_based(self):
        return tuple((self.array + 1).tolist())

    def complement(self):
        if self._complement is False:
            mask = np.ones(self.n, dtype=bool)
            mask[self.array] = False
            rest = mask.nonzero()[0]
            self._complement = IndexSet(rest, self.n) if rest.size else None
        return self._complement

    def is_full(self):
        return self.array.size == self.n

    def __len__(self):
        return self.array.size

    def __iter__(self):
        return iter(self.array.tolist())

    def __contains__(self, i):
        return i in self.array

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.n == other.n
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.array.tobytes(), self.n))

    def __repr__(self):
        return f"IndexSet({(self.array + 1).tolist()} of {self.n}, 1-based)"


def _kept_set(S, n):
    """Admit a kept set for ``n`` vertices: coerce raw indices, or check an IndexSet's ``n``."""
    if not isinstance(S, IndexSet):
        return IndexSet(S, n)
    if S.n != n:
        raise DimensionMismatch(f"index set sized for n={S.n}, expected n={n}")
    return S


def _entries(M):
    """Admit a matrix, the matrix twin of :func:`_kept_set`: a wrapped
    matrix's ``data``, or a raw list, array or SciPy matrix coerced (dense to
    a float64 array, sparse to frozen CSC); anything not 2-D is refused."""
    if isinstance(M, NonNegativeMatrix):
        return M.data
    data = _coerce(M) if sp.issparse(M) else np.asarray(M, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch(f"matrix has {data.ndim} dimensions, expected 2")
    return data


def _square(data):
    """Pass 2-D entries through if they are square, else refuse them."""
    if data.shape[0] != data.shape[1]:
        raise DimensionMismatch(f"matrix is {data.shape[0]}x{data.shape[1]}, expected square")
    return data


def validate_stochastic(M):
    """Wrap a non-negative matrix as stochastic, checking column sums.

    Accepts a :class:`NonNegativeMatrix`, a raw array, or a sparse matrix.
    Raises :class:`ColumnSumViolation` or :class:`NegativeEntry` on failure.
    """
    return M if isinstance(M, StochasticMatrix) else StochasticMatrix(M)


def project_columns(M):
    """Divide each column by its sum, projecting onto the stochastic matrices.

    Idempotent on stochastic input.  Raises :class:`ZeroColumn` if a column
    carries no mass.
    """
    data = _entries(M)
    sums = column_sums(data)
    if not np.all(sums > 0):
        raise ZeroColumn(int(np.argmin(sums > 0)))
    if sp.issparse(data):
        out = data @ sp.diags(1.0 / sums)
        out = out.tocsc()
    else:
        out = data / sums
    return StochasticMatrix(out)


def submatrix(M, rows, cols):
    """Extract the |rows| x |cols| block; kept sets are sorted, so its rows and
    columns come in ascending index order, whatever order the indices are given in."""
    data = _entries(M)
    n, m = data.shape
    rows, cols = _kept_set(rows, n), _kept_set(cols, m)
    if sp.issparse(data):
        return data[rows.array][:, cols.array]
    return data[np.ix_(rows.array, cols.array)]


def _csr(shape, rows, cols, vals):
    """CSR matrix from entries listed in non-decreasing row order."""
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def one_norm(v):
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(v, dtype=np.float64)).sum())


def residual(M, v):
    """Euclidean norm of ``Mv - v``, the fixed-point defect of ``v``."""
    if isinstance(v, ProbabilityVector):
        v = v.values
    v = np.asarray(v, dtype=np.float64)
    data = _entries(M)
    if v.ndim != 1 or data.shape != (v.size, v.size):
        raise DimensionMismatch(f"vector of shape {v.shape} vs matrix {data.shape}")
    r = data @ v
    r -= v
    return math.sqrt(r @ r)  # np.linalg.norm's formula for a real vector
