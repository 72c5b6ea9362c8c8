import numpy as np
import pytest
import scipy.sparse as sp

from isored.core import StochasticMatrix
from isored.errors import DimensionMismatch
from isored.mmio import read_matrix, read_vector, write_matrix, write_vector
from isored.randgen import BurrConfig, SparseGenConfig, gen_sparse_stochastic
from isored.solvers import direct_stationary


class TestMatrixRoundTrip:
    def test_sparse_round_trip(self, tmp_path):
        A = gen_sparse_stochastic(
            SparseGenConfig(n=300, nnz_per_col=3, burr=BurrConfig(0.3), seed=1)
        )
        path = tmp_path / "a.mtx"
        write_matrix(path, A)
        back = read_matrix(path)
        assert sp.issparse(back)
        assert np.abs((back - A.data).toarray()).max() == 0.0

    def test_dense_round_trip(self, tmp_path, example3):
        path = tmp_path / "d.mtx"
        write_matrix(path, example3)
        back = read_matrix(path)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, example3.dense)

    def test_coordinate_header_and_indices(self, tmp_path, example3):
        path = tmp_path / "c.mtx"
        write_matrix(path, StochasticMatrix(sp.csc_matrix(example3.dense)))
        text = path.read_text().splitlines()
        lines = [ln.strip() for ln in text if ln.strip() and not ln.startswith("%")]
        header = text[0].strip()
        assert header == "%%MatrixMarket matrix coordinate real general"
        n, m, nnz = (int(t) for t in lines[0].split())
        assert (n, m, nnz) == (3, 3, 5)
        rows = [int(ln.split()[0]) for ln in lines[1:]]
        cols = [int(ln.split()[1]) for ln in lines[1:]]
        assert min(rows) >= 1 and min(cols) >= 1  # 1-based triples

    def test_array_header(self, tmp_path, example3):
        path = tmp_path / "arr.mtx"
        write_matrix(path, example3)
        header = path.read_text().splitlines()[0].strip()
        assert header == "%%MatrixMarket matrix array real general"

    def test_density_policy_on_read(self, tmp_path):
        path = tmp_path / "i.mtx"
        write_matrix(path, sp.identity(500, format="csc"))
        assert sp.issparse(read_matrix(path))
        path2 = tmp_path / "e.mtx"
        write_matrix(path2, np.eye(3))
        assert isinstance(read_matrix(path2), np.ndarray)


class TestVectorFiles:
    def test_round_trip(self, tmp_path):
        v = np.array([0.25, 0.5, 0.125, 0.125])
        path = tmp_path / "v.txt"
        write_vector(path, v)
        np.testing.assert_array_equal(read_vector(path), v)

    def test_format(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vector(path, [1.0, 2.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "2"
        assert float(lines[1]) == 1.0 and float(lines[2]) == 2.5

    @pytest.mark.parametrize("v", [[0.0], [1.0], [5e-324], [1 / 3], "burr"])
    def test_bytes_match_per_line_writer(self, tmp_path, v):
        if v == "burr":
            A = gen_sparse_stochastic(SparseGenConfig(n=1000, nnz_per_col=4, burr=BurrConfig(0.2), seed=1))
            v = direct_stationary(A).v.values
        write_vector(tmp_path / "v.txt", v)
        ref = tmp_path / "ref.txt"
        with open(ref, "w") as fh:  # the former writer: one write per line
            fh.write(f"{len(v)}\n")
            for x in np.asarray(v, dtype=np.float64):
                fh.write(f"{float(x)!r}\n")
        assert (tmp_path / "v.txt").read_bytes() == ref.read_bytes()

    def test_length_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1.0\n2.0\n")
        with pytest.raises(DimensionMismatch):
            read_vector(path)
