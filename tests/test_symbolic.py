from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isored.core import IndexSet, StochasticMatrix
from isored.errors import (
    DivisionByZeroFunction,
    NotStructural,
    PoleAtLambda,
)
from isored.reduction import reduce_block
from isored.symbolic import (
    LAMBDA,
    RF_LAMBDA,
    RF_ZERO,
    Branch,
    Polynomial,
    RationalFunction,
    WeightedDigraph,
    branch_weight,
    branches,
    evaluate_at,
    graph_reduce,
    is_structural_set,
    poly_gcd,
    reduced_spectrum,
)

from conftest import rand_rational_stochastic_graph


def example_graph():
    """Exact version of the running 3x3 example."""
    M = [[0, F(9, 10), 0], [F(1, 2), 0, 1], [F(1, 2), F(1, 10), 0]]
    return WeightedDigraph.from_matrix(M)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
polys = st.lists(rationals, max_size=5).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rfs = st.tuples(polys, nonzero_polys).map(lambda t: RationalFunction(*t))
nonzero_rfs = rfs.filter(lambda w: not w.is_zero())


class TestRationalFunctionField:
    def test_add_shared_denominator(self):
        lam_over = RationalFunction(LAMBDA, Polynomial([-1, 1]))
        one_over = RationalFunction(Polynomial([1]), Polynomial([-1, 1]))
        total = lam_over + one_over
        assert total == RationalFunction(Polynomial([1, 1]), Polynomial([-1, 1]))

    def test_common_factor_cancels(self):
        w = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert w == RationalFunction(Polynomial([1, 1]))
        assert w.den == Polynomial([1])

    def test_multiply_by_zero(self):
        w = RationalFunction(Polynomial([3, 2]), Polynomial([1, 1]))
        assert (w * RationalFunction(Polynomial())).is_zero()

    def test_division_by_zero_function(self):
        w = RationalFunction(Polynomial([1]))
        with pytest.raises(DivisionByZeroFunction):
            w / RationalFunction(Polynomial())

    @given(rfs, rfs, rfs)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(rfs)
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, a):
        assert (a + -a).is_zero()

    @given(nonzero_rfs)
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_inverse(self, a):
        one = RationalFunction(Polynomial([1]))
        assert a * (one / a) == one

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_normal_form_is_coprime_and_monic(self, p, q):
        w = RationalFunction(p, q)
        if not w.is_zero():
            assert poly_gcd(w.num, w.den).degree <= 0
        assert w.den.coeffs[-1] == 1


class TestStructuralSets:
    def test_example(self):
        assert is_structural_set(example_graph(), IndexSet([0, 1], 3))

    def test_two_cycle_single_vertex(self):
        G = WeightedDigraph.from_matrix([[0, 1], [1, 0]])
        assert is_structural_set(G, IndexSet([0], 2))

    def test_lambda_loop_blocks(self):
        G = WeightedDigraph(2)
        G.add_edge(0, 0, RF_LAMBDA)
        G.add_edge(0, 1, 1)
        G.add_edge(1, 0, 1)
        assert not is_structural_set(G, IndexSet([1], 2))
        assert is_structural_set(G, IndexSet([0], 2))

    def test_cycle_outside_rejected(self):
        G = WeightedDigraph.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert not is_structural_set(G, IndexSet([2], 3))


class TestBranches:
    def test_example_branches(self):
        G = example_graph()
        bs = branches(G, IndexSet([0, 1], 3))
        b21 = sorted(b.vertices for b in bs if b.start == 1 and b.end == 0)
        assert b21 == [(1, 0), (1, 2, 0)]

    def test_empty_graph(self):
        G = WeightedDigraph(3)
        assert branches(G, IndexSet([0], 3)) == []

    def test_complete_graph(self):
        M = [[0 if i == j else F(1, 2) for j in range(3)] for i in range(3)]
        G = WeightedDigraph.from_matrix(M)
        bs = branches(G, IndexSet([0, 1], 3))
        lengths = sorted(b.length for b in bs)
        # 6 edges, plus 2-step paths through the eliminated vertex 2:
        # (0,2,1), (1,2,0), (0,2,0), (1,2,1)
        assert lengths == [1] * 6 + [2] * 4

    def test_not_structural_raises(self):
        G = WeightedDigraph.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        with pytest.raises(NotStructural):
            branches(G, IndexSet([2], 3))


class TestBranchWeight:
    def test_direct_edge(self):
        G = example_graph()
        assert branch_weight(G, Branch((1, 0))) == RationalFunction(Polynomial([F(1, 2)]))

    def test_through_eliminated_vertex(self):
        G = example_graph()
        w = branch_weight(G, Branch((1, 2, 0)))
        assert w == RationalFunction(Polynomial([F(1, 2)]), LAMBDA)

    def test_loop_adds_pole(self):
        G = WeightedDigraph(3)
        G.add_edge(0, 1, 1)
        G.add_edge(1, 1, F(1, 3))
        G.add_edge(1, 2, 1)
        w = branch_weight(G, Branch((0, 1, 2)))
        assert w == RationalFunction(Polynomial([1]), Polynomial([F(-1, 3), 1]))


class TestGraphReduce:
    def test_example_entry(self):
        G = example_graph()
        R = graph_reduce(G, IndexSet([0, 1], 3))
        expected = RationalFunction(Polynomial([F(1, 2), F(1, 2)]), LAMBDA)
        assert R.weight(1, 0) == expected
        vals = evaluate_at(R, F(1))
        assert vals[1][0] == 1

    def test_keep_everything(self):
        G = example_graph()
        R = graph_reduce(G, IndexSet(range(3), 3))
        assert R.to_matrix() == G.to_matrix()

    def test_matches_numeric_reduction_exactly(self):
        a = F(1, 4)
        M = [[a, a, 1], [a, a, 0], [1 - 2 * a, 1 - 2 * a, 0]]
        G = WeightedDigraph.from_matrix(M)
        R = graph_reduce(G, IndexSet([0, 1], 3))
        exact = evaluate_at(R, F(1))
        numeric = reduce_block(
            StochasticMatrix(np.array(M, dtype=float)), IndexSet([0, 1], 3)
        ).R.dense
        for i in range(2):
            for j in range(2):
                assert abs(float(exact[i][j]) - numeric[i, j]) <= 1e-12

    def test_random_equivalence_with_block_formula(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 60:
            n = int(rng.integers(3, 8))
            M, S = rand_rational_stochastic_graph(rng, n)
            G = WeightedDigraph.from_matrix(M)
            R = graph_reduce(G, S)
            exact = evaluate_at(R, F(1))
            A = StochasticMatrix(np.array([[float(x) for x in row] for row in M]))
            numeric = reduce_block(A, S).R.dense
            for i in range(len(S)):
                for j in range(len(S)):
                    assert abs(float(exact[i][j]) - numeric[i, j]) <= 1e-10
            done += 1

    def test_entries_are_branch_sums(self):
        # the vertex elimination against the branch expansion it replaced
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            M, S = rand_rational_stochastic_graph(rng, n)
            G = WeightedDigraph.from_matrix(M)
            pos = {v: k for k, v in enumerate(S.indices)}
            sums = {}
            for beta in branches(G, S):
                if beta.start in pos and beta.end in pos:
                    key = (pos[beta.start], pos[beta.end])
                    sums[key] = sums.get(key, RF_ZERO) + branch_weight(G, beta)
            R = graph_reduce(G, S)
            assert R.labels == S.indices
            assert R.weights == WeightedDigraph(len(pos), sums).weights

    def test_sequential_symbolic_reduction_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            M, S = rand_rational_stochastic_graph(rng, n)
            G = WeightedDigraph.from_matrix(M)
            direct = graph_reduce(G, S)
            # peel eliminated vertices one at a time (any order of the
            # complement works; use descending original label)
            current = G
            for v in sorted(set(range(n)) - set(S.indices), reverse=True):
                pos = current.labels.index(v)
                keep = [k for k in range(current.n) if k != pos]
                current = graph_reduce(current, IndexSet(keep, current.n))
            assert current.labels == direct.labels
            for i in range(direct.n):
                for j in range(direct.n):
                    assert current.weight(i, j) == direct.weight(i, j)


class TestEvaluateAt:
    def test_pole_detection(self):
        G = WeightedDigraph(1)
        G.add_edge(0, 0, RationalFunction(Polynomial([F(1, 2)]), LAMBDA))
        with pytest.raises(PoleAtLambda):
            evaluate_at(G, F(0))

    def test_constants_pass_through(self):
        G = WeightedDigraph.from_matrix([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]])
        vals = evaluate_at(G, F(7))
        assert vals[0][0] == F(1, 3) and vals[1][0] == F(2, 3)

    def test_float_evaluation(self):
        G = example_graph()
        R = graph_reduce(G, IndexSet([0, 1], 3))
        vals = evaluate_at(R, 2.0)
        assert vals[1, 0] == pytest.approx(0.75)


def _match_multisets(got, expected, tol):
    got = list(got)
    assert len(got) == len(expected)
    for w in expected:
        k = int(np.argmin([abs(z - w) for z in got]))
        assert abs(got[k] - w) <= tol
        got.pop(k)


class TestReducedSpectrum:
    def test_three_state_family(self):
        # spectrum of the feeder family is {2a - 1, 0, 1}; keeping everything
        # reproduces it, dropping the loop-free vertex 2 removes its zero
        for a in (F(1, 10), F(1, 4), F(2, 5)):
            M = [[a, a, 1], [a, a, 0], [1 - 2 * a, 1 - 2 * a, 0]]
            G = WeightedDigraph.from_matrix(M)
            full = reduced_spectrum(graph_reduce(G, IndexSet(range(3), 3)))
            _match_multisets(full, [1.0, float(2 * a - 1), 0.0], 1e-9)
            dropped = reduced_spectrum(graph_reduce(G, IndexSet([0, 1], 3)))
            _match_multisets(dropped, [1.0, float(2 * a - 1)], 1e-9)

    def test_four_state_double_zero(self):
        a = F(1, 4)
        M = [
            [a, a, 1, 1],
            [a, a, 0, 0],
            [F(1 - 2 * a, 2), 1 - 2 * a, 0, 0],
            [F(1 - 2 * a, 2), 0, 0, 0],
        ]
        G = WeightedDigraph.from_matrix(M)
        spec = reduced_spectrum(graph_reduce(G, IndexSet(range(4), 4)))
        _match_multisets(spec, [1.0, float(2 * a - 1), 0.0, 0.0], 1e-9)

    def test_degenerate_determinant(self):
        from isored.errors import DegenerateDeterminant

        G = WeightedDigraph(2)
        G.add_edge(0, 0, RF_LAMBDA)  # diagonal entry lambda kills the determinant
        G.add_edge(1, 1, 1)
        with pytest.raises(DegenerateDeterminant):
            reduced_spectrum(G)

    def test_two_by_two_elimination(self):
        A = [[0, F(9, 10)], [1, F(1, 10)]]
        G = WeightedDigraph.from_matrix(A)
        spec = reduced_spectrum(graph_reduce(G, IndexSet([1], 2)))
        # trace - 1 = -0.9; the eliminated diagonal (0) is not an eigenvalue
        # of the full matrix, so nothing is removed
        _match_multisets(spec, [1.0, -0.9], 1e-9)

    def test_random_spectrum_preservation(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 40:
            n = int(rng.integers(3, 8))
            M, S = rand_rational_stochastic_graph(rng, n)
            A = np.array([[float(x) for x in row] for row in M])
            G = WeightedDigraph.from_matrix(M)
            spec = reduced_spectrum(graph_reduce(G, S))
            drop = np.asarray(S.complement().indices) if len(S) < n else None
            expected = list(np.linalg.eigvals(A))
            if drop is not None:
                inner = list(np.linalg.eigvals(A[np.ix_(drop, drop)]))
                for w in inner:
                    k = int(np.argmin([abs(z - w) for z in expected]))
                    if abs(expected[k] - w) <= 1e-7:
                        expected.pop(k)
            _match_multisets(spec, expected, 1e-6)
            done += 1
