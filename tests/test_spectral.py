from dataclasses import astuple
from math import gcd

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from isored.core import StochasticMatrix
from isored.errors import DimensionMismatch
from isored.randgen import BurrConfig, SparseGenConfig, gen_sparse_stochastic
from isored.reduction import eliminate_node
from isored.spectral import (
    ClassDecomposition,
    classify,
    contraction_check,
    diameter_tau,
    gershgorin,
    inner_spectral_radius,
    is_non_critical,
    min_entry,
    sorted_eigenvalues,
    spectral_gap,
    spectral_report,
)

from conftest import averaging, mixed_criticality_case, rand_stochastic


def tau_by_overlap(A):
    """Independent formula: 1 - min over column pairs of the overlap mass."""
    M = A.dense if hasattr(A, "dense") else np.asarray(A)
    n = M.shape[1]
    smallest = np.inf
    for i in range(n):
        for j in range(n):
            smallest = min(smallest, np.minimum(M[:, i], M[:, j]).sum())
    return 1.0 - smallest


def tau_by_column_loop(M):
    """The dense route of ``diameter_tau``: each column against the ones after it."""
    n = M.shape[1]
    best = 0.0
    for j in range(n - 1):
        best = max(best, float(np.abs(M[:, j + 1 :] - M[:, j : j + 1]).sum(axis=0).max()))
    return 0.5 * best


def _adjacency_by_loops(A, edge_eps=0.0):
    data = A.data
    if sp.issparse(data):
        coo = data.T.tocoo()
        keep = coo.data > edge_eps
        ones = np.ones(int(keep.sum()))
        return sp.csr_matrix((ones, (coo.row[keep], coo.col[keep])), shape=coo.shape)
    return sp.csr_matrix(data.T > edge_eps)


def _period_by_loops(adj_csr, members):
    """gcd of cycle lengths inside one class, from search-tree levels."""
    members = list(members)
    local = {v: k for k, v in enumerate(members)}
    level = {members[0]: 0}
    queue = [members[0]]
    g = 0
    indptr, indices = adj_csr.indptr, adj_csr.indices
    while queue:
        u = queue.pop()
        lu = level[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v not in local:
                continue
            if v in level:
                g = gcd(g, lu + 1 - level[v])
            else:
                level[v] = lu + 1
                queue.append(v)
    return abs(g) if g else 1


def classify_by_loops(A, edge_eps=0.0):
    """Reference class decomposition: per-vertex and per-edge Python loops."""
    adj = _adjacency_by_loops(A, edge_eps)
    n = adj.shape[0]
    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    groups = [[] for _ in range(ncomp)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)

    has_loop = np.zeros(n, dtype=bool)
    diag = adj.diagonal()
    has_loop[: diag.size] = diag > 0

    classes, flags, periods, transient = [], [], [], []
    indptr, indices = adj.indptr, adj.indices
    for members in groups:
        if len(members) == 1 and not has_loop[members[0]]:
            transient.append(members[0])
            continue
        mset = set(members)
        essential = True
        for u in members:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if int(v) not in mset:
                    essential = False
                    break
            if not essential:
                break
        classes.append(tuple(sorted(members)))
        flags.append(essential)
        periods.append(_period_by_loops(adj, members))

    order = np.argsort([c[0] for c in classes]) if classes else []
    return ClassDecomposition(
        classes=tuple(classes[k] for k in order),
        essential_flags=tuple(flags[k] for k in order),
        periods=tuple(periods[k] for k in order),
        transient=tuple(sorted(transient)),
    )


def _non_critical_by_loops(dec):
    ess = [k for k, flag in enumerate(dec.essential_flags) if flag]
    return len(ess) == 1 and dec.periods[ess[0]] == 1


def _typed(x):
    """A value with the Python type of every element spelled out."""
    if isinstance(x, tuple):
        return tuple, tuple(_typed(v) for v in x)
    return type(x), x


EDGE_EPS = (0.0, 1e-3)


def _fed_periodic_classes(rng):
    """Two to four block-cyclic classes of periods 1 to 4 in a row, each but
    the last leaking into random vertices of the next."""
    groups = []
    for _ in range(int(rng.integers(2, 5))):
        period = int(rng.integers(1, 5))
        groups.append([int(rng.integers(1, 4)) for _ in range(period)])
    n = sum(map(sum, groups))
    A = np.zeros((n, n))
    start = 0
    for g, parts in enumerate(groups):
        offs = start + np.cumsum([0] + parts)
        for b in range(len(parts)):
            src = slice(offs[b], offs[b + 1])
            dst = slice(offs[(b + 1) % len(parts)], offs[(b + 1) % len(parts) + 1])
            A[dst, src] = rng.exponential(size=(dst.stop - dst.start, src.stop - src.start))
        start = offs[-1]
        if g + 1 < len(groups):
            for j in rng.choice(np.arange(offs[0], start), size=int(rng.integers(1, 3))):
                A[int(rng.integers(start, n)), j] += A[:, j].sum()
    return StochasticMatrix(A / A.sum(axis=0))


@pytest.fixture(scope="module")
def class_corpus():
    """Criterion 11's mixed matrices, Burr chains, random sparse patterns (one
    to three entries per column, a fifth of them tiny, dense and CSC storage
    alternating) and periodic classes fed by other classes, each with the
    reference decomposition per threshold."""
    rng = np.random.default_rng(38)
    mats = [mixed_criticality_case(rng, k) for k in range(2000)]
    rng = np.random.default_rng(5)
    for k in range(20):
        n, nnz = int(rng.integers(50, 1501)), int(rng.integers(1, 5))
        mats.append(gen_sparse_stochastic(
            SparseGenConfig(n=n, nnz_per_col=nnz, burr=BurrConfig(0.2), seed=k)))
    for k in range(300):
        n, nnz = int(rng.integers(2, 41)), int(rng.integers(1, 4))
        rows = rng.integers(0, n, size=(n, nnz))
        vals = rng.exponential(size=(n, nnz))
        vals[rng.uniform(size=vals.shape) < 0.2] *= 1e-4
        vals /= vals.sum(axis=1, keepdims=True)
        M = sp.csc_matrix((vals.ravel(), rows.ravel(), np.arange(n + 1) * nnz), shape=(n, n))
        mats.append(StochasticMatrix(M if k % 2 else M.toarray()))
    mats.extend(_fed_periodic_classes(rng) for _ in range(200))
    return [(A, {eps: classify_by_loops(A, eps) for eps in EDGE_EPS}) for A in mats]


class TestDiameterTau:
    def test_example(self, example3):
        assert diameter_tau(example3) == 1.0

    def test_averaging(self):
        assert diameter_tau(averaging(5)) == 0.0

    def test_identity(self):
        assert diameter_tau(np.eye(2)) == 1.0

    def test_agrees_with_overlap_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            A = rand_stochastic(rng, int(rng.integers(2, 25)))
            assert diameter_tau(A) == pytest.approx(tau_by_overlap(A), abs=1e-12)

    def test_sparse_matches_column_loop(self):
        # overlaps of columns sharing a row, plus the best disjoint pair
        rng = np.random.default_rng(3)
        for k in range(300):
            n = int(rng.integers(1, 40))
            M = sp.random(n, n, density=rng.uniform(0.02, 0.6), random_state=rng, format="csc")
            if k % 2:  # stochastic where a column has mass, raw weights otherwise
                sums = np.asarray(M.sum(axis=0)).ravel()
                M = sp.csc_matrix(M @ sp.diags(1.0 / np.where(sums > 0, sums, 1.0)))
            assert diameter_tau(M) == pytest.approx(tau_by_column_loop(M.toarray()), abs=1e-12)

    def test_sparse_paper_instance(self):
        A = gen_sparse_stochastic(
            SparseGenConfig(n=300, nnz_per_col=4, burr=BurrConfig(0.2), seed=1))
        assert diameter_tau(A) == pytest.approx(tau_by_column_loop(A.dense), abs=1e-12)
        # the largest distance comes from the disjoint-pair scan: columns 1 and 2 share no row
        assert diameter_tau(sp.csc_matrix([[0.5, 0.5, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5, 0.0]])) == 1.0


class TestMinEntry:
    def test_example_has_zero(self, example3):
        assert min_entry(example3) == 0.0

    def test_averaging(self):
        assert min_entry(averaging(4)) == 0.25

    def test_after_elimination(self):
        # symmetric 3x3 with diagonal 0.5, off-diagonal 0.25; removing one
        # vertex gives [[0.625, 0.375], [0.375, 0.625]]
        M = StochasticMatrix(np.full((3, 3), 0.25) + 0.25 * np.eye(3))
        R = eliminate_node(M, 2).R.dense
        np.testing.assert_allclose(R, [[0.625, 0.375], [0.375, 0.625]], atol=1e-15)
        assert min_entry(R) == pytest.approx(0.375, abs=1e-15)

    def test_superadditive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            A = rng.uniform(size=(n, n))
            B = rng.uniform(size=(n, n))
            assert min_entry(A + B) >= min_entry(A) + min_entry(B) - 1e-15


class TestInnerSpectralRadius:
    def test_example(self, example3):
        assert inner_spectral_radius(example3) == pytest.approx(0.6708, abs=1e-3)

    def test_two_by_two(self):
        assert inner_spectral_radius(StochasticMatrix([[0, 0.9], [1, 0.1]])) == pytest.approx(0.9, abs=1e-12)

    def test_swap_is_critical(self):
        assert inner_spectral_radius(StochasticMatrix([[0, 1], [1, 0]])) == pytest.approx(1.0, abs=1e-12)

    def test_single_state(self):
        assert inner_spectral_radius(StochasticMatrix([[1.0]])) == 0.0

    def test_repeated_unit_eigenvalue(self):
        assert inner_spectral_radius(StochasticMatrix(np.eye(3))) == pytest.approx(1.0, abs=1e-12)


class TestSpectralGap:
    def test_averaging(self):
        assert spectral_gap(averaging(6)) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        assert spectral_gap(StochasticMatrix([[0, 0.9], [1, 0.1]])) == pytest.approx(0.1, abs=1e-12)

    def test_identity(self):
        assert spectral_gap(StochasticMatrix(np.eye(2))) == pytest.approx(0.0, abs=1e-12)


class TestClassify:
    def test_positive_matrix(self):
        rng = np.random.default_rng(4)
        dec = classify(rand_stochastic(rng, 6))
        assert dec.classes == (tuple(range(6)),)
        assert dec.essential_flags == (True,)
        assert dec.periods == (1,)
        assert dec.transient == ()

    def test_raw_sparse_input(self):
        # an unwrapped scipy matrix is coerced as core does, not np.asarray'd
        raw = sp.csc_matrix([[0, 1.0], [1, 0]])
        wrapped = StochasticMatrix(raw)
        assert classify(raw) == classify(wrapped)
        assert min_entry(raw) == min_entry(wrapped) == 0.0
        assert contraction_check(raw, [1, 0], [0, 1]) == contraction_check(wrapped, [1, 0], [0, 1])
        assert inner_spectral_radius(raw) == pytest.approx(1.0)
        assert classify(raw.tocsr()) == classify(wrapped)

    def test_identity(self):
        dec = classify(StochasticMatrix(np.eye(2)))
        assert dec.classes == ((0,), (1,))
        assert dec.essential_flags == (True, True)
        assert dec.periods == (1, 1)

    def test_two_cycle(self):
        dec = classify(StochasticMatrix([[0, 1], [1, 0]]))
        assert dec.classes == ((0, 1),)
        assert dec.periods == (2,)

    def test_transient_vertex(self):
        # vertex 0 leaks everything to the absorbing vertex 1
        A = StochasticMatrix([[0, 0], [1, 1]])
        dec = classify(A)
        assert dec.transient == (0,)
        assert dec.classes == ((1,),)
        assert dec.essential_flags == (True,)

    def test_nonessential_class(self):
        # {0,1} communicate but leak to the absorbing vertex 2
        A = StochasticMatrix([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 1.0]])
        dec = classify(A)
        flags = dict(zip(dec.classes, dec.essential_flags))
        assert flags[(0, 1)] is False
        assert flags[(2,)] is True


    def test_class_fed_by_another_keeps_its_period(self):
        # a looped vertex 0 feeds vertex 3 of the 3-cycle 1 -> 2 -> 3 -> 1;
        # levels taken across the feeding edge would give the cycle period 1
        A = np.zeros((4, 4))
        A[0, 0] = A[3, 0] = 0.5
        A[2, 1] = A[3, 2] = A[1, 3] = 1.0
        dec = classify(StochasticMatrix(A))
        assert dec.classes == ((0,), (1, 2, 3))
        assert dec.essential_flags == (False, True)
        assert dec.periods == (1, 3)
        assert dec.transient == ()
        assert not is_non_critical(A)

    def test_no_class(self):
        dec = classify(np.zeros((3, 3)))
        assert (dec.classes, dec.essential_flags, dec.periods) == ((), (), ())
        assert dec.transient == (0, 1, 2)

    def test_matches_loop_reference(self, class_corpus):
        for A, reference in class_corpus:
            for eps in EDGE_EPS:
                dec = classify(A, eps)
                assert dec == reference[eps]
                assert _typed(astuple(dec)) == _typed(astuple(reference[eps]))


class TestIsNonCritical:
    def test_example(self, example3):
        assert is_non_critical(example3)

    def test_identity(self):
        assert not is_non_critical(StochasticMatrix(np.eye(2)))

    def test_two_cycle(self):
        assert not is_non_critical(StochasticMatrix([[0, 1], [1, 0]]))

    def test_edge_eps_filters_weak_links(self):
        # a 1e-12 leak connects the two absorbing states; with the exact-zero
        # threshold there is a single essential class, with a coarser
        # threshold the leak disappears and two classes remain
        eps = 1e-12
        A = StochasticMatrix([[1 - eps, eps], [eps, 1 - eps]])
        assert classify(A).num_essential == 1
        assert classify(A, edge_eps=1e-9).num_essential == 2
        assert is_non_critical(A) and not is_non_critical(A, edge_eps=1e-9)


    def test_matches_loop_reference(self, class_corpus):
        for A, reference in class_corpus:
            for eps in EDGE_EPS:
                assert is_non_critical(A, eps) is _non_critical_by_loops(reference[eps])


class TestGershgorin:
    def test_averaging(self):
        disks = gershgorin(averaging(2))
        assert [(d.center, d.radius) for d in disks] == [(0.5, 0.5), (0.5, 0.5)]

    def test_after_elimination(self):
        M = StochasticMatrix(np.full((3, 3), 0.25) + 0.25 * np.eye(3))
        disks = gershgorin(eliminate_node(M, 2).R)
        assert [(d.center, d.radius) for d in disks] == [(0.625, 0.375), (0.625, 0.375)]

    def test_identity(self):
        assert [(d.center, d.radius) for d in gershgorin(np.eye(3))] == [(1.0, 0.0)] * 3

    def test_traps_eigenvalues(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            A = rand_stochastic(rng, n)
            disks = gershgorin(A)
            for lam in sorted_eigenvalues(A):
                dist = min(max(0.0, abs(lam - d.center) - d.radius) for d in disks)
                assert dist <= 1e-9


class TestContraction:
    def test_equal_points(self, example3):
        x = np.array([0.2, 0.3, 0.5])
        assert contraction_check(example3, x, x) == (0.0, 0.0)

    def test_averaging_collapses(self):
        lhs, rhs = contraction_check(averaging(3), [1, 0, 0], [0, 1, 0])
        assert lhs == 0.0 and rhs == 0.0

    def test_example_vertices(self, example3):
        lhs, rhs = contraction_check(example3, [1, 0, 0], [0, 1, 0])
        assert lhs == pytest.approx(1.8, abs=1e-14)
        assert rhs == pytest.approx(2.0, abs=1e-14)
        assert lhs <= rhs + 1e-12

    def test_random_pairs(self, example3):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            A = rand_stochastic(rng, n)
            x = rng.exponential(size=n)
            x /= x.sum()
            y = rng.exponential(size=n)
            y /= y.sum()
            lhs, rhs = contraction_check(A, x, y)
            assert lhs <= rhs + 1e-12

    def test_dimension_mismatch(self, example3):
        with pytest.raises(DimensionMismatch):
            contraction_check(example3, [1, 0], [0, 1])


class TestOrderRelations:
    """tau dominates the inner radius; both respect the smallest entry."""

    def test_rho_below_tau_and_entry_bounds(self):
        rng = np.random.default_rng(8)
        for k in range(10_000):
            n = int(rng.integers(2, 25))
            mix = float(rng.uniform(0, 0.5)) if k % 2 else 0.0
            A = rand_stochastic(rng, n, uniform_mix=mix)
            tau = diameter_tau(A)
            rho = inner_spectral_radius(A)
            m = min_entry(A)
            assert rho <= tau + 1e-10
            assert tau <= 1.0 - n * m + 1e-12
            assert 1.0 - rho >= n * m - 1e-10

    def test_positive_row_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            A = rand_stochastic(rng, n).dense.copy()
            c = float(rng.uniform(0.05, 0.3))
            i0 = int(rng.integers(n))
            A[i0, :] = np.maximum(A[i0, :], c)
            A /= A.sum(axis=0)
            c_actual = A[i0, :].min()
            assert diameter_tau(A) <= 1.0 - c_actual + 1e-12

    def test_non_critical_iff_rho_below_one(self):
        rng = np.random.default_rng(10)
        for k in range(200):
            A = mixed_criticality_case(rng, k)
            combinatorial = is_non_critical(A)
            numeric = inner_spectral_radius(A) < 1.0 - 1e-9
            assert combinatorial == numeric


class TestSpectralReport:
    def test_fields(self, example3):
        rep = spectral_report(example3)
        assert rep.n == 3
        assert rep.tau == 1.0
        assert rep.gap == pytest.approx(1.0 - rep.rho_i, abs=1e-15)
        assert rep.m == 0.0
        assert rep.non_critical
        assert rep.num_classes == 1 and rep.num_essential == 1
        assert abs(rep.eigenvalues[0] - 1.0) <= 1e-12

    def test_classes_match_loop_reference(self, class_corpus):
        # one threshold per matrix, alternating, keeps the dense eigvals few
        for k, (A, reference) in enumerate(class_corpus):
            if A.n > 60:
                continue
            eps = EDGE_EPS[k % 2]
            rep, dec = spectral_report(A, eps), reference[eps]
            assert rep.num_classes == dec.num_classes
            assert rep.num_essential == dec.num_essential
            assert rep.non_critical is _non_critical_by_loops(dec)

    def test_invariant_chain(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rep = spectral_report(rand_stochastic(rng, int(rng.integers(2, 20))))
            assert rep.rho_i <= rep.tau + 1e-10
            assert rep.tau <= 1.0 - rep.n * rep.m + 1e-12
            assert rep.gap >= rep.n * rep.m - 1e-10
