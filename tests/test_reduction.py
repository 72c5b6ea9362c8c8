import numpy as np
import pytest
import scipy.sparse as sp

from isored.core import IndexSet, StochasticMatrix, validate_stochastic
from isored.errors import (
    AbsorbingPivot,
    DimensionMismatch,
    NoViablePivot,
    SingularElimination,
)
from isored.randgen import BurrConfig, SparseGenConfig, gen_sparse_stochastic, make_banded
from isored.reduction import (
    SINGULAR_CONDITION,
    FirstS,
    PivotGreedy,
    RandomS,
    eliminate_node,
    reconstruct_stationary,
    reduce_at,
    reduce_block,
    reduce_sequential,
    reduction_cost,
    select_subset,
)
from isored.spectral import diameter_tau, min_entry

from conftest import averaging, rand_stochastic, rand_subset


def raw_schur(A, S):
    """Independent dense evaluation of the reduction formula."""
    M = A.dense if hasattr(A, "dense") else np.asarray(A)
    keep = np.asarray(S.indices)
    drop = np.asarray(S.complement().indices)
    B = M[np.ix_(drop, drop)]
    return M[np.ix_(keep, keep)] - M[np.ix_(keep, drop)] @ np.linalg.solve(
        B - np.eye(drop.size), M[np.ix_(drop, keep)]
    )


class TestReduceBlock:
    def test_example(self, example3):
        rec = reduce_block(example3, IndexSet([0, 1], 3))
        np.testing.assert_array_equal(rec.R.dense, [[0.0, 0.9], [1.0, 0.1]])
        np.testing.assert_allclose(rec.lift, [[0.5, 0.1]], atol=1e-15)
        assert rec.pivot_order == (2,)

    def test_full_set_is_identity(self, example3):
        rec = reduce_block(example3, IndexSet(range(3), 3))
        np.testing.assert_array_equal(rec.R.dense, example3.dense)
        assert rec.lift.shape == (0, 3)
        assert rec.pivot_order == ()

    def test_one_by_one(self):
        A = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        rec = reduce_block(A, IndexSet([0], 2))
        np.testing.assert_allclose(rec.R.dense, [[1.0]], atol=1e-15)

    def test_singular_elimination(self):
        # vertices {1, 2} form an essential class; eliminating them must fail
        A = StochasticMatrix([[0.4, 0, 0], [0.3, 0.2, 0.8], [0.3, 0.8, 0.2]])
        with pytest.raises(SingularElimination):
            reduce_block(A, IndexSet([0], 3))

    def test_matches_raw_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            A = rand_stochastic(rng, n)
            S = rand_subset(rng, n)
            rec = reduce_block(A, S)
            np.testing.assert_allclose(rec.R.dense, raw_schur(A, S), atol=1e-11)

    def test_stochasticity_and_seminorm_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(3, 40))
            A = rand_stochastic(rng, n)
            S = rand_subset(rng, n)
            rec = reduce_block(A, S)
            validate_stochastic(rec.R)
            assert diameter_tau(rec.R) <= diameter_tau(A) + 1e-10
            assert rec.lift.min() >= 0.0

    def test_min_entry_growth(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(3, 40))
            A = rand_stochastic(rng, n, uniform_mix=0.05)
            S = rand_subset(rng, n)
            rec = reduce_block(A, S)
            m = min_entry(A)
            drop = n - len(S)
            assert min_entry(rec.R) >= m / (1.0 - drop * m) - 1e-12

    def test_inner_radius_can_grow(self, example3):
        # the reduction contracts the diameter semi-norm but not necessarily
        # the inner spectral radius: this 3x3 goes from 0.6708 to 0.9
        from isored.spectral import inner_spectral_radius

        rec = reduce_block(example3, IndexSet([0, 1], 3))
        before = inner_spectral_radius(example3)
        after = inner_spectral_radius(rec.R)
        assert before == pytest.approx(0.6708, abs=1e-3)
        assert after == pytest.approx(0.9, abs=1e-9)
        assert after > before
        assert diameter_tau(rec.R) <= diameter_tau(example3)

    def test_sparse_input_dense_output(self):
        # complete pattern: the staged path peels nothing and solves it all dense
        rng = np.random.default_rng(3)
        n = 60
        A = rand_stochastic(rng, n, uniform_mix=0.01)
        As = StochasticMatrix(sp.csc_matrix(A.dense))
        S = IndexSet(range(10), n)
        rec_s = reduce_block(As, S)
        rec_d = reduce_block(A, S)
        assert not rec_s.R.is_sparse
        np.testing.assert_allclose(rec_s.R.dense, rec_d.R.dense, atol=1e-12)
        np.testing.assert_allclose(rec_s.lift, rec_d.lift, atol=1e-12)


def _burr(n, nnz, seed, k):
    gen_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    cfg = SparseGenConfig(n=n, nnz_per_col=nnz, burr=BurrConfig(0.2), seed=gen_seed)
    return gen_sparse_stochastic(cfg), gen_seed


def _staged_cases():
    """Sparse chains with a random kept set of a tenth of the vertices."""
    for n in (200, 500):
        for nnz in (2, 4, 8):
            for k in range(3):
                A, gen_seed = _burr(n, nnz, 11, k)
                yield A, select_subset(A, RandomS(n // 10, gen_seed + 1))
    for n, m in ((200, 2), (300, 3), (400, 5)):
        A = StochasticMatrix(sp.csc_matrix(make_banded(n, m, seed=n).dense))
        yield A, select_subset(A, RandomS(n // 10, m))
    # eliminated vertices feed only kept ones: one level peels the whole block
    rng = np.random.default_rng(4)
    n, s = 200, 20
    D = np.zeros((n, n))
    for j in range(n):
        if j < s:
            D[rng.choice(n, 4, replace=False), j] = rng.random(4) + 0.1
        else:
            D[j, j] = 0.3
            D[rng.choice(s, 2, replace=False), j] = 0.35
    yield StochasticMatrix(sp.csc_matrix(D / D.sum(axis=0))), IndexSet(range(s), n)


class TestStagedElimination:
    """``reduce_block`` on sparse input: independent-set peel plus dense core."""

    def test_matches_dense_branch(self):
        compared = 0
        for A, S in _staged_cases():
            assert A.is_sparse
            dense = StochasticMatrix(A.dense)
            try:
                ref = reduce_block(dense, S)
            except SingularElimination:
                with pytest.raises(SingularElimination):
                    reduce_block(A, S)
                continue
            rec = reduce_block(A, S)
            np.testing.assert_allclose(rec.R.dense, ref.R.dense, rtol=0, atol=1e-12)
            # atol: the dense LU leaves rounding noise where the lift is structurally zero
            np.testing.assert_allclose(rec.lift, ref.lift, rtol=1e-9, atol=1e-14)
            compared += 1
        assert compared >= 12

    def test_condition_is_exact(self):
        for A, S in _staged_cases():
            drop = S.complement().array
            shifted = np.eye(drop.size) - A.dense[np.ix_(drop, drop)]
            exact = np.linalg.cond(shifted, 1)
            if exact > SINGULAR_CONDITION / 10:
                continue
            rec = reduce_block(A, S)
            assert rec.condition_estimate == pytest.approx(exact, rel=1e-9)

    def test_bit_identical_repeat(self):
        A, gen_seed = _burr(500, 4, 1, 0)
        S = select_subset(A, RandomS(50, gen_seed + 1))
        first, second = reduce_block(A, S), reduce_block(A, S)
        assert np.array_equal(first.R.dense, second.R.dense)
        assert np.array_equal(first.lift, second.lift)
        assert first.condition_estimate == second.condition_estimate

    def test_absorbing_vertex_in_eliminated_set(self):
        A, _ = _burr(200, 4, 2, 0)
        D = A.dense.copy()
        D[:, 7] = 0.0
        D[7, 7] = 1.0
        S = IndexSet([v for v in range(200) if v % 5 == 0], 200)
        # the zero pivot must be refused before anything divides by it
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(SingularElimination):
            reduce_block(StochasticMatrix(sp.csc_matrix(D)), S)

    def test_trapped_class_rejected(self):
        # seed 202, instance 29 of the paper's Burr set: the kept set leaves
        # an essential class eliminated; the exact solve gives a huge
        # negative y there, so taking max(y) instead of max|y| would accept it
        A, gen_seed = _burr(1000, 4, 202, 29)
        S = select_subset(A, RandomS(90, gen_seed + 1))
        with pytest.raises(SingularElimination) as info:
            reduce_block(A, S)
        assert info.value.condition > SINGULAR_CONDITION


class TestEliminateNode:
    def test_example(self, example3):
        rec = eliminate_node(example3, 2)
        np.testing.assert_array_equal(rec.R.dense, [[0.0, 0.9], [1.0, 0.1]])

    def test_averaging(self):
        rec = eliminate_node(averaging(3), 2)
        np.testing.assert_allclose(rec.R.dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_absorbing_pivot(self):
        with pytest.raises(AbsorbingPivot):
            eliminate_node(StochasticMatrix(np.eye(2)), 0)

    def test_agrees_with_block(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            A = rand_stochastic(rng, n)
            k = int(rng.integers(n))
            rec1 = eliminate_node(A, k)
            rec2 = reduce_block(A, IndexSet([i for i in range(n) if i != k], n))
            np.testing.assert_allclose(rec1.R.dense, rec2.R.dense, atol=1e-12)


class TestReduceSequential:
    def test_example(self, example3):
        rec = reduce_sequential(example3, IndexSet([0, 1], 3))
        np.testing.assert_allclose(rec.R.dense, [[0.0, 0.9], [1.0, 0.1]], atol=1e-15)
        assert rec.pivot_order == (2,)

    def test_both_orders_match(self):
        rng = np.random.default_rng(5)
        A = rand_stochastic(rng, 5)
        S = IndexSet([0, 1, 4], 5)
        r1 = reduce_sequential(A, S, order=[2, 3])
        r2 = reduce_sequential(A, S, order=[3, 2])
        np.testing.assert_allclose(r1.R.dense, r2.R.dense, atol=1e-10)
        assert r1.pivot_order == (2, 3) and r2.pivot_order == (3, 2)

    def test_empty_complement(self, example3):
        rec = reduce_sequential(example3, IndexSet(range(3), 3))
        np.testing.assert_array_equal(rec.R.dense, example3.dense)

    def test_path_independence_vs_block(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 25))
            A = rand_stochastic(rng, n)
            S = rand_subset(rng, n, size=int(rng.integers(1, n - 1)))
            drop = list(S.complement().indices)
            order = list(rng.permutation(drop))
            seq = reduce_sequential(A, S, order=order)
            blk = reduce_block(A, S)
            assert np.abs(seq.R.dense - blk.R.dense).max() <= 1e-9
            assert np.abs(seq.lift - blk.lift).max() <= 1e-9

    def test_no_viable_pivot(self):
        A = StochasticMatrix(np.eye(3))
        with pytest.raises(NoViablePivot):
            reduce_sequential(A, IndexSet([0], 3))

    def test_order_must_match_complement(self, example3):
        with pytest.raises(DimensionMismatch):
            reduce_sequential(example3, IndexSet([0, 1], 3), order=[1])


class TestSelectSubset:
    def test_first(self):
        rng = np.random.default_rng(7)
        A = rand_stochastic(rng, 5)
        assert select_subset(A, FirstS(2)).indices == (0, 1)

    def test_random_deterministic(self):
        rng = np.random.default_rng(8)
        A = rand_stochastic(rng, 9)
        s1 = select_subset(A, RandomS(3, seed=7))
        s2 = select_subset(A, RandomS(3, seed=7))
        assert s1 == s2
        assert len(s1) == 3

    def test_greedy_avoids_absorbing(self):
        # identity pair plus a positive 2x2 block: the identity vertices are
        # never viable pivots, so they are what remains
        A = np.zeros((4, 4))
        A[0, 0] = A[1, 1] = 1.0
        A[2:, 2:] = [[0.6, 0.3], [0.4, 0.7]]
        S = select_subset(StochasticMatrix(A), PivotGreedy(2, 1e-8))
        assert S.indices == (0, 1)

    def test_greedy_prefers_small_diagonals(self):
        rng = np.random.default_rng(9)
        A = rand_stochastic(rng, 6)
        S = select_subset(A, PivotGreedy(3))
        assert len(S) == 3


class TestReconstruct:
    def test_example(self, example3):
        rec = reduce_block(example3, IndexSet([0, 1], 3))
        v_R = np.array([0.9, 1.0]) / 1.9
        v = reconstruct_stationary(rec, v_R)
        np.testing.assert_allclose(v.values, np.array([0.9, 1.0, 0.55]) / 2.45, atol=1e-12)

    def test_full_set(self, example3):
        rec = reduce_block(example3, IndexSet(range(3), 3))
        v = reconstruct_stationary(rec, [0.2, 0.3, 0.5])
        np.testing.assert_allclose(v.values, [0.2, 0.3, 0.5], atol=1e-15)

    def test_averaging_symmetry(self):
        rec = reduce_block(averaging(3), IndexSet([0, 1], 3))
        v = reconstruct_stationary(rec, [0.5, 0.5])
        np.testing.assert_allclose(v.values, np.full(3, 1 / 3), atol=1e-12)

    def test_projection_property(self):
        # the kept coordinates of the true stationary vector, renormalized,
        # are stationary for the reduced matrix; lifting them recovers the
        # original vector
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            A = rand_stochastic(rng, n)
            S = rand_subset(rng, n)
            rec = reduce_block(A, S)
            vals, vecs = np.linalg.eig(A.dense)
            w = np.abs(vecs[:, np.argmax(vals.real)])
            v_star = w / w.sum()
            proj = v_star[rec.S.array]
            proj = proj / proj.sum()
            from isored.core import residual

            assert residual(rec.R, proj) <= 1e-8
            lifted = reconstruct_stationary(rec, proj)
            np.testing.assert_allclose(lifted.values, v_star, atol=1e-8)

    def test_dimension_mismatch(self, example3):
        rec = reduce_block(example3, IndexSet([0, 1], 3))
        with pytest.raises(DimensionMismatch):
            reconstruct_stationary(rec, [1.0])


class TestReductionCost:
    def test_block_example(self):
        assert reduction_cost(1000, 90, "block") == 835479100

    def test_sequential_example(self):
        assert reduction_cost(1000, 90, "sequential") == 333090030

    def test_single_step(self):
        for n in (5, 17, 100):
            assert reduction_cost(n, n - 1, "sequential") == n * (n - 1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(DimensionMismatch):
            reduction_cost(5, 5, "block")


class TestGershgorinShrinks:
    def test_row_sums_decrease(self):
        from isored.randgen import gen_doubly_stochastic
        from isored.spectral import gershgorin

        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(3, 20))
            A = gen_doubly_stochastic(n, seed=trial)
            k = int(rng.integers(n))
            R = eliminate_node(A, k).R
            before = gershgorin(A.dense)
            after = gershgorin(R.dense)
            keep = [i for i in range(n) if i != k]
            for pos, i in enumerate(keep):
                assert after[pos].radius < before[i].radius
