import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from isored.core import IndexSet, NonNegativeMatrix, StochasticMatrix, validate_stochastic
from isored.errors import (
    AbsorbingPivot,
    DimensionMismatch,
    NoViablePivot,
    SingularElimination,
)
from isored.randgen import (
    BurrConfig,
    SparseGenConfig,
    gen_single_zero_nonnegative,
    gen_sparse_stochastic,
    make_banded,
)
from isored.reduction import (
    PIVOT_DELTA,
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
from isored.reduction import _finish_stochastic, _independent_set
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

    def test_matches_former_dense_branch(self):
        refused = 0
        for A, S in _dense_cases():
            ref = _reference_dense_schur(A, S)
            if ref is None:
                with pytest.raises(SingularElimination):
                    reduce_block(A, S)
                refused += 1
                continue
            rec = reduce_block(A, S)
            np.testing.assert_allclose(rec.R.dense, ref[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(rec.lift, ref[1], rtol=0, atol=1e-15)
        assert refused >= 60

    def test_reduce_at_dense_matches_sparse(self):
        # at the dominant eigenvalue lam I - M[~S,~S] is a nonsingular M-matrix
        rng = np.random.default_rng(17)
        for seed in range(60):
            n = 3 + seed % 18
            M, pivot = gen_single_zero_nonnegative(n, seed=seed)
            lam = max(np.linalg.eigvals(M.dense), key=lambda z: z.real).real
            Ms = NonNegativeMatrix(sp.csc_matrix(M.dense))
            for S in (IndexSet([i for i in range(n) if i != pivot], n), rand_subset(rng, n)):
                dense = reduce_at(M, S, lam)
                np.testing.assert_allclose(reduce_at(Ms, S, lam), dense, rtol=1e-12, atol=0)

    def test_reduce_at_refuses_below_dominant_eigenvalue(self):
        # lam I - M[~S,~S] is no M-matrix there, so y > 0 fails on either storage
        for seed in range(20):
            n = 6 + seed % 12
            M, _ = gen_single_zero_nonnegative(n, seed=seed)
            S = IndexSet(range(n // 3), n)
            drop = S.complement().array
            lam = 0.5 * np.abs(np.linalg.eigvals(M.dense[np.ix_(drop, drop)])).max()
            for data in (M, NonNegativeMatrix(sp.csc_matrix(M.dense))):
                with pytest.raises(SingularElimination):
                    reduce_at(data, S, lam)

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


def _reference_dense_schur(A, S):
    """The former dense branch: LU of ``B - I``, LAPACK ``dgecon``, lift solve.

    Returns the finished ``(R, lift)``, or ``None`` where it refused.
    """
    M = A.dense
    keep, drop = S.array, S.complement().array
    F = M[np.ix_(drop, drop)] - np.eye(drop.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exactly singular -> rcond 0
        lu = sla.lu_factor(F, check_finite=False)
    rcond = lapack.dgecon(lu[0], np.abs(F).sum(axis=0).max(), norm="1")[0]
    if rcond == 0 or 1.0 / rcond > SINGULAR_CONDITION:
        return None
    lift = -sla.lu_solve(lu, M[np.ix_(drop, keep)], check_finite=False)
    R = M[np.ix_(keep, keep)] + M[np.ix_(keep, drop)] @ lift
    if not np.all(np.isfinite(lift)) or min(R.min(), lift.min()) < -1e-8:
        return None
    R, lift = np.clip(R, 0.0, None), np.clip(lift, 0.0, None)
    return R / R.sum(axis=0), lift


def _dense_cases():
    """Random dense chains; every third traps a closed class among the eliminated vertices."""
    rng = np.random.default_rng(16)
    for k in range(200):
        n = int(rng.integers(3, 61))
        A, S = rand_stochastic(rng, n), rand_subset(rng, n)
        if k % 3 == 0:
            drop = S.complement().array
            closed = rng.choice(drop, size=int(rng.integers(1, min(3, drop.size) + 1)), replace=False)
            D = A.dense.copy()
            D[np.setdiff1d(np.arange(n), closed)[:, None], closed] = 0.0
            A = StochasticMatrix(D / D.sum(axis=0))
        yield A, S


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


def _reference_independent_set(core, rows, cols):
    """The greedy loop the round-based ``_independent_set`` replaced.

    Visits core vertices by (degree, index) and takes each one no taken
    vertex touches.
    """
    n = core.size
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    neighbours = [set() for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        neighbours[i].add(j)
        neighbours[j].add(i)
    blocked, taken = set(), []
    for v in sorted(np.flatnonzero(core).tolist(), key=lambda v: (degree[v], v)):
        if v not in blocked:
            taken.append(v)
            blocked |= neighbours[v]
    return sorted(taken)


def _independent_set_cases():
    """Random off-diagonal patterns with repeats, and the paper's first peel level."""
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(2, 150))
        core = rng.random(n) < rng.uniform(0.2, 1.0)
        members = np.flatnonzero(core)
        if members.size == 0:
            continue
        m = int(rng.integers(0, 8 * members.size))
        rows, cols = rng.choice(members, m), rng.choice(members, m)
        off = rows != cols
        yield core, rows[off], cols[off]
    for k in range(3):
        A, gen_seed = _burr(1000, 4, 1, k)
        drop = select_subset(A, RandomS(90, gen_seed + 1)).complement().array
        B = sp.coo_matrix(A.data[drop][:, drop])
        off = B.row != B.col
        core = np.zeros(1000, dtype=bool)
        core[: drop.size] = True
        yield core, B.row[off].astype(np.intp), B.col[off].astype(np.intp)


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
        # on either storage: the dense core solves the same transposed system
        rng = np.random.default_rng(18)
        dense = [(rand_stochastic(rng, n), rand_subset(rng, n)) for n in rng.integers(3, 61, 100)]
        for A, S in list(_staged_cases()) + dense:
            drop = S.complement().array
            shifted = np.eye(drop.size) - A.dense[np.ix_(drop, drop)]
            exact = np.linalg.cond(shifted, 1)
            if exact > SINGULAR_CONDITION / 10:
                continue
            for M in (A, StochasticMatrix(A.dense)):
                rec = reduce_block(M, S)
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
        # the zero pivot stays in the core, and the core's certificate refuses
        # it without a division by zero in NumPy
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(SingularElimination) as info:
            reduce_block(StochasticMatrix(sp.csc_matrix(D)), S)
        assert info.value.condition == np.inf

    def test_trapped_class_rejected(self):
        # seed 202, instance 29 of the paper's Burr set: the kept set leaves
        # an essential class eliminated; the exact solve gives a huge
        # negative y there, which no M-matrix has
        A, gen_seed = _burr(1000, 4, 202, 29)
        S = select_subset(A, RandomS(90, gen_seed + 1))
        with pytest.raises(SingularElimination) as info:
            reduce_block(A, S)
        assert info.value.condition > SINGULAR_CONDITION

    def test_independent_set_matches_greedy_loop(self):
        count = 0
        for core, rows, cols in _independent_set_cases():
            P = _independent_set(core, rows, cols)
            assert P.tolist() == _reference_independent_set(core, rows, cols)
            count += 1
        assert count >= 200


class TestEliminateNode:
    def test_example(self, example3):
        rec = eliminate_node(example3, 2)
        np.testing.assert_array_equal(rec.R.dense, [[0.0, 0.9], [1.0, 0.1]])

    def test_averaging(self):
        rec = eliminate_node(averaging(3), 2)
        np.testing.assert_allclose(rec.R.dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_absorbing_pivot(self):
        # refused before anything divides by the zero pivot
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(AbsorbingPivot):
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
        # refused before anything divides by the zero pivot, in either order mode
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.raises(NoViablePivot):
                reduce_sequential(StochasticMatrix(np.eye(3)), IndexSet([0], 3))
            # {1, 2} is a closed class: after one step the other pivot has diagonal 1
            A = StochasticMatrix([[0.4, 0, 0], [0.3, 0.2, 0.8], [0.3, 0.8, 0.2]])
            for order in (None, [2, 1]):
                with pytest.raises(NoViablePivot):
                    reduce_sequential(A, IndexSet([0], 3), order=order)

    def test_condition_is_exact(self):
        rng = np.random.default_rng(12)
        compared = 0
        for _ in range(200):
            n = int(rng.integers(3, 61))
            A = rand_stochastic(rng, n)
            S = rand_subset(rng, n)
            drop = S.complement().array
            exact = np.linalg.cond(np.eye(drop.size) - A.dense[np.ix_(drop, drop)], 1)
            if exact >= 1e13:
                continue
            rec = reduce_sequential(A, S)
            assert rec.condition_estimate == pytest.approx(exact, rel=1e-9)
            compared += 1
        assert compared >= 150

    def test_order_must_match_complement(self, example3):
        with pytest.raises(DimensionMismatch):
            reduce_sequential(example3, IndexSet([0, 1], 3), order=[1])


def _reference_sequential(A, S, order=None):
    """Copy-based node-by-node reduction: raw ``(R, lift, pivot_order)``.

    Each step slices the surviving matrix anew and the lift is composed
    from the per-step rows afterwards; the elimination kernel must agree.
    """
    drop = set(S.complement().indices)
    M = np.array(A.dense, copy=True)
    labels = list(range(A.n))
    steps = []
    remaining = list(order) if order is not None else None
    while len(labels) > len(S):
        if remaining is not None:
            p = labels.index(remaining.pop(0))
        else:
            _, p = min((M[q, q], q) for q, v in enumerate(labels) if v in drop)
        rest = [q for q in range(len(labels)) if q != p]
        row = M[p, rest] / (1.0 - M[p, p])
        steps.append((labels[p], [labels[q] for q in rest], row))
        M = M[np.ix_(rest, rest)] + np.outer(M[rest, p], row)
        M /= M.sum(axis=0)
        labels = [labels[q] for q in rest]
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
    lift = np.vstack([rows[v] for v in sorted(rows)])
    return M, lift, tuple(k for k, _, _ in steps)


def _reference_greedy(A, s, delta=PIVOT_DELTA):
    """Copy-based :class:`PivotGreedy` selection, as a sorted index tuple."""
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
            order = np.lexsort((original[labels], diags))
            doomed = set(int(q) for q in order[: len(labels) - s])
            labels = [v for q, v in enumerate(labels) if q not in doomed]
            break
    return tuple(labels)


def _kernel_cases():
    """Random dense chains, and the paper's setting one level down."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 61))
        yield rand_stochastic(rng, n), rand_subset(rng, n)
    for k in range(3):
        # the reduced 90 x 90 Burr chain, less the tenth with the smallest diagonal
        A, gen_seed = _burr(1000, 4, 7, k)
        R = reduce_block(A, select_subset(A, RandomS(90, gen_seed + 1))).R
        drop = np.argsort(np.diag(R.dense), kind="stable")[:9]
        yield R, IndexSet(np.setdiff1d(np.arange(90), drop), 90)


def _stalling_chain():
    """Two absorbing vertices and three with diagonal within 1e-9 of 1."""
    rng = np.random.default_rng(15)
    D = rand_stochastic(rng, 12).dense.copy()
    D[:, [0, 5]] = 0.0
    D[[0, 5], [0, 5]] = 1.0
    sticky = [3, 8, 9]
    D[:, sticky] *= 1e-9 * rng.random(3)
    D[sticky, sticky] += 1.0 - D[:, sticky].sum(axis=0)
    return StochasticMatrix(D), [0, 5] + sticky


class TestKernelMatchesReference:
    """The elimination kernel against a copy-based elimination."""

    def test_sequential(self):
        rng = np.random.default_rng(14)
        for A, S in _kernel_cases():
            for order in (None, list(rng.permutation(S.complement().array))):
                R, lift, pivots = _reference_sequential(A, S, order)
                rec = reduce_sequential(A, S, order=order)
                np.testing.assert_allclose(rec.R.dense, R, rtol=0, atol=1e-15)
                np.testing.assert_allclose(rec.lift, lift, rtol=0, atol=1e-14)
                assert rec.pivot_order == pivots

    def test_greedy(self):
        for A, S in _kernel_cases():
            for s in {1, len(S), max(1, A.n // 2)}:
                assert select_subset(A, PivotGreedy(s)).indices == _reference_greedy(A, s)

    def test_greedy_stalls_on_absorbing_vertices(self):
        # seven viable pivots, then the lexsort on current, then original
        # diagonals picks which of the five stalled vertices go
        A, stalled = _stalling_chain()
        for s in (1, 2, 4):
            with np.errstate(divide="raise", invalid="raise"):
                kept = select_subset(A, PivotGreedy(s))
            assert kept.indices == _reference_greedy(A, s)
            assert set(kept.indices) <= set(stalled)
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(NoViablePivot):
            reduce_sequential(A, IndexSet([1, 2], 12))


def _eliminate_right_looking(M, alive, p, delta):
    """The right-looking kernel the left-looking one replaced.

    Eliminates ``p`` of the n x n work array ``M`` in place with a full
    rank-1 update and column renormalization.  Returns ``(row, col, piv)``,
    or None for a refused pivot.
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
    sums[~alive] = 1.0
    M /= sums
    return row, col, piv


def _right_looking_sequential(A, S, order=None, delta=PIVOT_DELTA):
    """:func:`reduce_sequential` on the right-looking kernel, lift and condition by loops."""
    n = A.n
    keep, drop = S.array, S.complement().array
    M = np.array(A.dense, copy=True)
    alive = np.ones(n, dtype=bool)
    pending = np.zeros(n, dtype=bool)
    pending[drop] = True
    f = pending.astype(np.float64)
    steps = []
    for step in range(drop.size):
        if order is None:
            p = int(np.argmin(np.where(pending, M.diagonal(), np.inf)))
        else:
            p = order[step]
        out = _eliminate_right_looking(M, alive, p, delta)
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


def _right_looking_greedy(A, s, delta=PIVOT_DELTA):
    """:class:`PivotGreedy` selection on the right-looking kernel, as a sorted index tuple."""
    M = np.array(A.dense, copy=True)
    alive = np.ones(A.n, dtype=bool)
    for _ in range(A.n - s):
        p = int(np.argmin(np.where(alive, M.diagonal(), np.inf)))
        if _eliminate_right_looking(M, alive, p, delta) is None:
            live = np.flatnonzero(alive)
            order = np.lexsort((A.dense.diagonal()[live], M.diagonal()[live]))
            alive[live[order[: live.size - s]]] = False
            break
    return tuple(np.flatnonzero(alive).tolist())


def _dense_burr_cases():
    """Dense heavy-tailed chains: near-absorbing pivots, some within ``PIVOT_DELTA`` of 1."""
    for seed in range(40):
        cfg = SparseGenConfig(n=200, nnz_per_col=200, burr=BurrConfig(0.2), seed=seed)
        A = gen_sparse_stochastic(cfg)
        for s in (20, 100):
            yield A, select_subset(A, RandomS(s, seed))


class TestLeftLookingMatchesRightLooking:
    """The left-looking kernel against the right-looking one it replaced.

    Pivot choices, kept sets and refusals must be identical.  The numbers
    differ by rounding, which either elimination amplifies by the condition
    number of ``I - A[~S,~S]``: 1e-10, or 8 kappa eps on the dense Burr chains
    whose kappa reaches 1e8.
    """

    def test_parity(self):
        rng = np.random.default_rng(17)
        eps = np.finfo(np.float64).eps
        refused = 0
        worst = {"left": 0.0, "right": 0.0}  # largest distance of R to reduce_block
        for A, S in itertools.chain(_kernel_cases(), _dense_burr_cases()):
            assert select_subset(A, PivotGreedy(len(S))).indices == _right_looking_greedy(A, len(S))
            for order in (None, list(rng.permutation(S.complement().array))):
                try:
                    ref = _right_looking_sequential(A, S, order)
                except NoViablePivot as err:
                    with pytest.raises(NoViablePivot) as info:
                        reduce_sequential(A, S, order=order)
                    assert str(info.value).split(" has ")[0] == str(err).split(" has ")[0]
                    refused += 1
                    continue
                rec = reduce_sequential(A, S, order=order)
                assert rec.pivot_order == ref.pivot_order
                kappa = ref.condition_estimate
                tol = max(1e-10, 8.0 * kappa * eps)
                np.testing.assert_allclose(rec.R.dense, ref.R.dense, rtol=0, atol=tol)
                scale = max(1.0, np.abs(ref.lift).max())
                np.testing.assert_allclose(rec.lift, ref.lift, rtol=0, atol=tol * scale)
                assert rec.condition_estimate == pytest.approx(kappa, rel=tol)
                if kappa < SINGULAR_CONDITION:
                    block = reduce_block(A, S).R.dense
                    for name, r in (("left", rec), ("right", ref)):
                        worst[name] = max(worst[name], np.abs(r.R.dense - block).max())
        assert refused >= 10
        assert worst["left"] <= worst["right"]


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
