"""MatrixMarket file I/O plus a minimal vector format.

Sparse matrices use the ``coordinate real general`` variant (1-based
``row col value`` triples after the ``n n nnz`` size line), dense ones the
``array`` variant.  Vectors are stored as the length on the first line
followed by one value per line.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

from .core import _entries, best_storage
from .errors import DimensionMismatch


def write_matrix(path, M):
    """Write a matrix in MatrixMarket format (coordinate if sparse, array if dense)."""
    data = _entries(M)
    if sp.issparse(data):
        data = data.tocoo()
    scipy.io.mmwrite(str(path), data, field="real", precision=17, symmetry="general")


def read_matrix(path):
    """Read a MatrixMarket file, returning ndarray or CSC per the density policy."""
    data = scipy.io.mmread(str(path))
    if sp.issparse(data):
        data = data.tocsc()
    else:
        data = np.asarray(data, dtype=np.float64)
    return best_storage(data)


def write_vector(path, v):
    """Write the length, then one shortest round-trip ``repr`` per line."""
    v = np.asarray(v, dtype=np.float64).ravel()
    text = "\n".join([str(v.size), *map(repr, v.tolist())]) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def read_vector(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DimensionMismatch(f"{path}: empty vector file")
    n = int(lines[0])
    values = np.array([float(x) for x in lines[1:]], dtype=np.float64)
    if values.size != n:
        raise DimensionMismatch(f"{path}: header says {n} values, found {values.size}")
    return values
