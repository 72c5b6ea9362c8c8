import json

import numpy as np
import pytest

from isored.cli import main
from isored.core import StochasticMatrix
from isored.mmio import read_matrix, read_vector, write_matrix


@pytest.fixture
def example_file(tmp_path, example3):
    path = tmp_path / "a.mtx"
    write_matrix(path, example3)
    return str(path)


class TestGen:
    def test_burr_sparse(self, tmp_path, capsys):
        out = str(tmp_path / "g.mtx")
        assert main(["gen", "--kind", "burr-sparse", "--n", "120", "--nnz", "4",
                     "--alpha", "0.2", "--seed", "3", "-o", out]) == 0
        M = StochasticMatrix(read_matrix(out))
        assert M.n == 120

    def test_banded(self, tmp_path):
        out = str(tmp_path / "b.mtx")
        assert main(["gen", "--kind", "banded", "--n", "8", "--bandwidth", "2",
                     "-o", out]) == 0
        M = read_matrix(out)
        assert ((M > 0) == (np.abs(np.subtract.outer(range(8), range(8))) <= 1)).all()


class TestSpectral:
    def test_text_output(self, example_file, capsys):
        assert main(["spectral", example_file]) == 0
        text = capsys.readouterr().out
        assert "tau          : 1" in text
        assert "non-critical : True" in text

    def test_json_output(self, example_file, capsys):
        assert main(["spectral", example_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3
        assert data["tau"] == 1.0
        assert abs(data["rho_i"] - 0.6708) < 1e-3
        assert data["non_critical"] is True

    def test_transpose_flag(self, tmp_path, example3, capsys):
        path = tmp_path / "t.mtx"
        write_matrix(path, np.ascontiguousarray(example3.dense.T))
        assert main(["spectral", str(path), "--transpose", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tau"] == 1.0

    def test_invalid_matrix_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        write_matrix(path, np.array([[0.5, 0.6], [0.5, 0.5]]))
        assert main(["spectral", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_project_flag_repairs(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        write_matrix(path, np.array([[0.5, 0.6], [0.5, 0.5]]))
        assert main(["spectral", str(path), "--project", "--json"]) == 0


class TestReduce:
    def test_keep_list(self, example_file, tmp_path, capsys):
        prefix = str(tmp_path / "red")
        assert main(["reduce", example_file, "--keep", "1,2", "-o", prefix]) == 0
        R = read_matrix(prefix + ".R.mtx")
        np.testing.assert_array_equal(R, [[0.0, 0.9], [1.0, 0.1]])
        lift = read_matrix(prefix + ".lift.mtx")
        np.testing.assert_allclose(lift, [[0.5, 0.1]], atol=1e-15)
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert meta["S"] == [1, 2]
        assert meta["pivot_order"] == [3]
        assert meta["condition_estimate"] > 0

    def test_keep_size_seq_mode(self, example_file, tmp_path):
        prefix = str(tmp_path / "red2")
        assert main(["reduce", example_file, "--keep", "2", "--strategy", "first",
                     "--mode", "seq", "-o", prefix]) == 0
        R = read_matrix(prefix + ".R.mtx")
        np.testing.assert_allclose(R, [[0.0, 0.9], [1.0, 0.1]], atol=1e-12)


class TestStationary:
    def test_direct_json(self, example_file, capsys):
        assert main(["stationary", example_file, "--method", "direct", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            data["v"], np.array([0.9, 1.0, 0.55]) / 2.45, atol=1e-10
        )
        assert data["residual"] <= 1e-12

    def test_iso_with_vector_output(self, example_file, tmp_path, capsys):
        vec = str(tmp_path / "v.txt")
        assert main(["stationary", example_file, "--method", "iso", "--keep", "2",
                     "--seed", "5", "-o", vec]) == 0
        v = read_vector(vec)
        np.testing.assert_allclose(v, np.array([0.9, 1.0, 0.55]) / 2.45, atol=1e-8)

    def test_json_with_vector_output(self, example_file, tmp_path, capsys):
        # --json used to return before the vector was written
        vec = str(tmp_path / "v.txt")
        assert main(["stationary", example_file, "--method", "direct", "--json",
                     "-o", vec]) == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_array_equal(read_vector(vec), data["v"])

    def test_pf(self, example_file, capsys):
        assert main(["stationary", example_file, "--method", "pf", "--p", "10",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converged"] is True
        assert data["iterations"] >= 1


class TestBenchCommand:
    def test_small_run(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        code = main(["bench", "--n", "50", "--nnz", "4", "--alpha", "0.3",
                     "--keep", "10", "--trials", "2", "--seed", "1",
                     "--max-iters", "20000", "-o", out])
        text = capsys.readouterr().out
        assert "t2_over_t1" in text
        with open(out) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "rho_i,t1,t2,e1,e2,d,rho_r,e_direct,flags"
        assert len(rows) == 3
        assert code in (0, 1)


class TestSymreduce:
    def test_example_graph(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(
            "# running example, weights as rationals\n"
            "2 1 1/2\n"
            "3 1 1/2\n"
            "1 2 9/10\n"
            "3 2 1/10\n"
            "2 3 1\n"
        )
        assert main(["symreduce", str(graph), "--keep", "1,2", "--eval", "1"]) == 0
        text = capsys.readouterr().out
        assert "2 -> 1" in text
        assert "evaluated at lambda = 1" in text

    def test_explicit_denominator(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        # edge 1 -> 2 with weight 1 / (lambda + 1): numerator 1, denominator 1 1
        graph.write_text("1 2 1 / 1 1\n2 1 1\n")
        assert main(["symreduce", str(graph), "--keep", "1"]) == 0
        text = capsys.readouterr().out
        assert "1 -> 1" in text
