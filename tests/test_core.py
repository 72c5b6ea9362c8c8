import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from isored.core import (
    IndexSet,
    NonNegativeMatrix,
    ProbabilityVector,
    StochasticMatrix,
    best_storage,
    one_norm,
    project_columns,
    residual,
    submatrix,
    validate_stochastic,
)
from isored import randgen, reduction, solvers, spectral, symbolic
from isored.errors import (
    ColumnSumViolation,
    DimensionMismatch,
    IndexOutOfRange,
    IsoredError,
    NegativeEntry,
    VectorSumViolation,
    ZeroColumn,
)

from conftest import rand_stochastic


class TestValidateStochastic:
    def test_example_accepted(self, example3):
        out = validate_stochastic(example3.dense)
        assert isinstance(out, StochasticMatrix)
        np.testing.assert_array_equal(out.dense, example3.dense)

    def test_identity_accepted(self):
        out = validate_stochastic(np.eye(4))
        assert out.n == 4

    def test_column_sum_violation(self):
        with pytest.raises(ColumnSumViolation) as exc:
            validate_stochastic([[0.5, 0.6], [0.5, 0.5]])
        assert exc.value.j == 1
        assert exc.value.total == pytest.approx(1.1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_stochastic([[1.2, 0.0], [-0.2, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            NonNegativeMatrix(np.ones((2, 3)))

    def test_sparse_input(self):
        A = sp.csc_matrix(np.eye(5))
        out = validate_stochastic(A)
        assert out.is_sparse and out.n == 5


class TestProjectColumns:
    def test_basic(self):
        out = project_columns([[2.0, 0.0], [2.0, 3.0]])
        np.testing.assert_allclose(out.dense, [[0.5, 0.0], [0.5, 1.0]])

    def test_idempotent_on_stochastic(self, example3):
        out = project_columns(example3)
        assert np.abs(out.dense - example3.dense).max() <= 1e-15

    def test_zero_column(self):
        with pytest.raises(ZeroColumn) as exc:
            project_columns([[0.0, 1.0], [0.0, 1.0]])
        assert exc.value.j == 0

    def test_sparse(self):
        A = sp.csc_matrix([[2.0, 0.0], [2.0, 3.0]])
        out = project_columns(A)
        np.testing.assert_allclose(out.dense, [[0.5, 0.0], [0.5, 1.0]])

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_double_projection_property(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.01, 1.0, size=(n, n))
        once = project_columns(M)
        twice = project_columns(once)
        assert np.abs(once.dense - twice.dense).max() <= 1e-14


class TestSubmatrix:
    def test_example_block(self, example3):
        S = IndexSet([0, 1], 3)
        np.testing.assert_array_equal(submatrix(example3, S, S), [[0, 0.9], [0.5, 0]])

    def test_full_is_identity_map(self, example3):
        S = IndexSet(range(3), 3)
        np.testing.assert_array_equal(submatrix(example3, S, S), example3.dense)

    def test_single_row(self, example3):
        out = submatrix(example3, IndexSet([2], 3), IndexSet([0, 1], 3))
        np.testing.assert_array_equal(out, [[0.5, 0.1]])

    def test_unsorted_indices_come_back_ascending(self, example3):
        for M in (example3, StochasticMatrix(sp.csc_matrix(example3.dense))):
            out = submatrix(M, [2, 0], [1, 0])
            out = out.toarray() if sp.issparse(out) else out
            np.testing.assert_array_equal(out, [[0.0, 0.9], [0.5, 0.1]])

    def test_out_of_range(self, example3):
        with pytest.raises(IndexOutOfRange):
            IndexSet([0, 5], 3)

    def test_composition(self):
        rng = np.random.default_rng(5)
        M = rng.uniform(size=(7, 7))
        R = IndexSet([0, 2, 4, 6], 7)
        C = IndexSet([1, 2, 5], 7)
        inner = submatrix(M, R, C)
        R2 = IndexSet([1, 3], 4)
        C2 = IndexSet([0, 2], 3)
        direct = submatrix(
            M,
            IndexSet([R.indices[i] for i in R2.indices], 7),
            IndexSet([C.indices[j] for j in C2.indices], 7),
        )
        np.testing.assert_array_equal(submatrix(inner, R2, C2), direct)


class TestNormsAndResidual:
    def test_one_norm(self):
        assert one_norm([0.5, -0.5]) == 1.0

    def test_residual_of_fixed_point(self, example3):
        v = np.array([0.9, 1.0, 0.55])
        v /= v.sum()
        assert residual(example3, v) <= 1e-15

    def test_residual_identity(self):
        assert residual(np.eye(2), [0.3, 0.7]) == 0.0

    def test_dimension_mismatch(self, example3):
        with pytest.raises(DimensionMismatch):
            residual(example3, [0.5, 0.5])


class TestProbabilityVector:
    def test_valid(self):
        v = ProbabilityVector([0.25, 0.75])
        assert v.n == 2

    def test_sum_violation(self):
        from isored.errors import VectorSumViolation

        with pytest.raises(VectorSumViolation):
            ProbabilityVector([0.5, 0.6])

    def test_negative(self):
        with pytest.raises(NegativeEntry):
            ProbabilityVector([1.2, -0.2])

    def test_from_weights(self):
        v = ProbabilityVector.from_weights([2, 6])
        np.testing.assert_allclose(v.values, [0.25, 0.75])


def _raised(fn, arg):
    with pytest.raises(IsoredError) as info:
        fn(arg)
    return type(info.value), str(info.value)


class TestOwnedConstructors:
    """``_owned`` wraps an array the library made: no copy, the same checks."""

    @pytest.mark.parametrize(
        "data, error",
        [
            ([[0.5, 1.2], [0.5, -0.2]], NegativeEntry),
            ([[0.5, 0.5], [0.5, 0.4]], ColumnSumViolation),
            (np.eye(3)[:2], DimensionMismatch),
        ],
    )
    def test_matrix_refusals_match_public(self, data, error):
        arr = np.array(data, dtype=np.float64)
        got = _raised(StochasticMatrix._owned, arr.copy())
        assert got[0] is error and got == _raised(StochasticMatrix, arr)

    @pytest.mark.parametrize(
        "values, error",
        [([1.2, -0.2], NegativeEntry), ([0.5, 0.6], VectorSumViolation), ([], DimensionMismatch)],
    )
    def test_vector_refusals_match_public(self, values, error):
        arr = np.array(values, dtype=np.float64)
        got = _raised(ProbabilityVector._owned, arr.copy())
        assert got[0] is error and got == _raised(ProbabilityVector, arr)

    def test_wraps_in_place_read_only(self):
        arr = np.array([[0.25, 1.0], [0.75, 0.0]])
        M = StochasticMatrix._owned(arr)
        assert M.data is arr and M.dense is arr
        assert not arr.flags.writeable
        np.testing.assert_array_equal(M.data, StochasticMatrix(arr).data)
        v = np.array([0.25, 0.75])
        p = ProbabilityVector._owned(v)
        assert p.values is v and not v.flags.writeable
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    def test_library_outputs_are_frozen(self, example3):
        rec = reduction.reduce_block(example3, [0, 1])
        assert not rec.R.data.flags.writeable
        out = solvers.isospectral_stationary(example3, solvers.SolverConfig(s=2))
        assert not out.v.values.flags.writeable
        for v in (solvers.direct_stationary(example3).v, solvers.perron_frobenius(example3).v):
            assert not v.values.flags.writeable


class TestResidualFormula:
    def test_bitwise_equal_to_linalg_norm(self):
        rng = np.random.default_rng(20)
        for k in range(400):
            n = 3 + k % 58
            A = rand_stochastic(rng, n)
            data = sp.csc_matrix(A.data) if k % 4 == 0 else A.data
            for v in (rng.random(n), rng.exponential(size=n) * 1e-150, np.full(n, 1.0 / n)):
                assert residual(data, v) == float(np.linalg.norm(data @ v - v))


class _TupleIndexSet:
    """The tuple-of-ints index set the array-backed one replaced: the parity reference."""

    def __init__(self, indices, n):
        idx = sorted({int(i) for i in indices})
        if not idx:
            raise IndexOutOfRange("index set must be non-empty")
        if idx[0] < 0 or idx[-1] >= n:
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise IndexOutOfRange(f"index {bad} outside [0, {n})")
        self.indices = tuple(idx)
        self.n = int(n)


def _is_int_tuple(t):
    return type(t) is tuple and all(type(i) is int for i in t)


class TestIndexSet:
    def test_one_based_round_trip(self):
        S = IndexSet.from_one_based([3, 1], 5)
        assert S.indices == (0, 2)
        assert S.one_based == (1, 3)

    def test_complement(self):
        S = IndexSet([0, 2], 4)
        assert S.complement().indices == (1, 3)
        assert IndexSet(range(4), 4).complement() is None

    def test_empty_rejected(self):
        with pytest.raises(IndexOutOfRange):
            IndexSet([], 3)

    def test_construction_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            raw = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))).tolist()
            ref = _TupleIndexSet(raw, n)
            lo, hi = min(raw), max(raw) + 1
            assert IndexSet(range(lo, hi), n).indices == _TupleIndexSet(range(lo, hi), n).indices
            for arg in (raw, tuple(raw), set(raw), (i for i in raw),
                        np.array(raw, dtype=np.int64), np.array(raw, dtype=np.int32)):
                S = IndexSet(arg, n)
                assert S.indices == ref.indices and S.n == n
                assert _is_int_tuple(S.indices) and _is_int_tuple(S.one_based)
                assert S.one_based == tuple(i + 1 for i in ref.indices)
                assert list(S) == list(ref.indices) and all(type(i) is int for i in S)
                assert len(S) == len(ref.indices)

    @pytest.mark.parametrize("raw, n", [([], 3), ([0, 5], 3), ([-1, 2], 3), ([3], 3), (np.array([], dtype=int), 4)])
    def test_errors_match_reference(self, raw, n):
        with pytest.raises(IndexOutOfRange) as ref:
            _TupleIndexSet(raw, n)
        with pytest.raises(IndexOutOfRange) as new:
            IndexSet(raw, n)
        assert str(new.value) == str(ref.value)

    def test_complement_membership_equality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            raw = rng.integers(0, n, size=int(rng.integers(1, n + 1))).tolist()
            S = IndexSet(raw, n)
            rest = [v for v in range(n) if v not in set(raw)]
            comp = S.complement()
            assert (comp is None) == (not rest) == S.is_full()
            if comp is not None:
                assert comp.indices == tuple(rest) and comp.n == n
                assert S.complement() is comp  # computed once
            for v in range(-1, n + 1):
                assert (v in S) == (v in set(raw))
            twin = IndexSet(list(reversed(raw)), n)
            assert twin == S and hash(twin) == hash(S)
            assert S != IndexSet(raw, n + 1) and S != S.indices
            if comp is not None:
                assert comp != S

    def test_membership_of_other_types(self):
        S = IndexSet([1, 3], 5)
        assert 3.0 in S and np.int64(1) in S
        assert 2.5 not in S and "a" not in S and None not in S

    def test_array_is_read_only(self):
        S = IndexSet([2, 0], 3)
        with pytest.raises(ValueError):
            S.array[0] = 1
        with pytest.raises(ValueError):
            S.complement().array[0] = 0

    def test_selection_matches_reference(self, monkeypatch):
        """select_subset keeps the same sets as with the tuple-backed index set."""
        rng = np.random.default_rng(9)
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 40))
            s = int(rng.integers(1, n + 1))
            A = rand_stochastic(rng, n)
            for strategy in (reduction.FirstS(s), reduction.RandomS(s, int(rng.integers(1000))),
                             reduction.PivotGreedy(s)):
                cases.append((A, strategy, reduction.select_subset(A, strategy)))
        monkeypatch.setattr(reduction, "IndexSet", _TupleIndexSet)
        for A, strategy, S in cases:
            assert S.indices == reduction.select_subset(A, strategy).indices, strategy


def _graph5():
    M = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    return symbolic.WeightedDigraph.from_matrix(M)


_KEPT_SET_ENTRIES = {
    "reduce_block": lambda A, G, S: reduction.reduce_block(A, S),
    "reduce_at": lambda A, G, S: reduction.reduce_at(A, S),
    "reduce_sequential": lambda A, G, S: reduction.reduce_sequential(A, S),
    "submatrix": lambda A, G, S: submatrix(A, S, IndexSet(range(5), 5)),
    "is_structural_set": lambda A, G, S: symbolic.is_structural_set(G, S),
    "branches": lambda A, G, S: symbolic.branches(G, S),
    "graph_reduce": lambda A, G, S: symbolic.graph_reduce(G, S),
}


class TestKeptSetAdmission:
    """Every entry point that takes a kept set refuses one built for another n."""

    @pytest.mark.parametrize("entry", sorted(_KEPT_SET_ENTRIES))
    @pytest.mark.parametrize("n", [3, 10])
    def test_wrong_size_refused(self, entry, n):
        A = rand_stochastic(np.random.default_rng(10), 5)
        with pytest.raises(DimensionMismatch):
            _KEPT_SET_ENTRIES[entry](A, _graph5(), IndexSet([0, 1], n))


_STOCHASTIC_ENTRIES = {
    "reduce_block": lambda A: reduction.reduce_block(A, [0, 1]),
    "eliminate_node": lambda A: reduction.eliminate_node(A, 2),
    "reduce_sequential": lambda A: reduction.reduce_sequential(A, [0, 1]),
    "select_subset": lambda A: reduction.select_subset(A, reduction.PivotGreedy(2)),
    "perron_frobenius": lambda A: solvers.perron_frobenius(A),
    "direct_stationary": lambda A: solvers.direct_stationary(A),
    "estimate_inner_radius": lambda A: solvers.estimate_inner_radius(A, np.full(A.n, 1 / A.n)),
    "isospectral_stationary": lambda A: solvers.isospectral_stationary(A),
    "spectral_report": lambda A: spectral.spectral_report(A),
    "make_two_block": lambda A: randgen.make_two_block(0.25, 0.15, A),
}


class TestNonNegativeInput:
    """A column-stochastic NonNegativeMatrix is as good as a StochasticMatrix."""

    @pytest.mark.parametrize("entry", sorted(_STOCHASTIC_ENTRIES))
    def test_stochastic_accepted(self, entry):
        A = rand_stochastic(np.random.default_rng(11), 4)
        _STOCHASTIC_ENTRIES[entry](NonNegativeMatrix(A.data))

    @pytest.mark.parametrize("entry", sorted(_STOCHASTIC_ENTRIES))
    def test_column_sums_checked(self, entry):
        data = np.array(rand_stochastic(np.random.default_rng(11), 4).data)
        data[:, 1] *= 1.5
        with pytest.raises(ColumnSumViolation):
            _STOCHASTIC_ENTRIES[entry](NonNegativeMatrix(data))


class TestInvariants:
    def test_matvec_preserves_simplex(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            A = rand_stochastic(rng, n)
            x = rng.exponential(size=n)
            x /= x.sum()
            y = A.matvec(x)
            assert y.min() >= 0
            assert abs(y.sum() - 1.0) <= 1e-12

    def test_immutability(self, example3):
        with pytest.raises(ValueError):
            example3.dense[0, 0] = 5.0

    def test_best_storage_threshold(self):
        dense_mat = np.eye(3)
        assert isinstance(best_storage(dense_mat), np.ndarray)  # 33% density
        big = sp.identity(1000, format="csc")
        assert sp.issparse(best_storage(big))  # 0.1% density
