import numpy as np
import pytest

from isored.core import IndexSet, StochasticMatrix, residual
from isored.errors import SingularElimination, SingularSystem
from isored.randgen import BurrConfig, SparseGenConfig, gen_sparse_stochastic
from isored.reduction import FirstS, RandomS
from isored.solvers import (
    SolverConfig,
    direct_stationary,
    estimate_inner_radius,
    isospectral_stationary,
    perron_frobenius,
    solve,
)

from conftest import averaging, rand_stochastic

TWO_STATE = StochasticMatrix([[0, 0.9], [1, 0.1]])


class TestPerronFrobenius:
    def test_averaging_converges_immediately(self):
        out = perron_frobenius(averaging(5), SolverConfig(p=10, seed=1))
        np.testing.assert_allclose(out.v.values, np.full(5, 0.2), atol=1e-10)
        assert out.iterations <= 2
        assert out.converged

    def test_two_state(self):
        out = perron_frobenius(TWO_STATE, SolverConfig(p=8, seed=2))
        np.testing.assert_allclose(out.v.values, [0.9 / 1.9, 1.0 / 1.9], atol=1e-7)
        # geometric rate 0.9 needs about p ln10 / -ln(0.9) = 175 steps
        assert 175 / 3 <= out.iterations <= 175 * 3

    def test_identity_fixes_start(self):
        out = perron_frobenius(StochasticMatrix(np.eye(2)), SolverConfig(seed=3))
        assert out.converged
        assert out.iterations == 1
        assert out.residual <= 1e-15

    def test_max_iters_flag_on_periodic(self):
        out = perron_frobenius(
            StochasticMatrix([[0, 1], [1, 0]]), SolverConfig(p=8, max_iters=500, seed=4)
        )
        assert not out.converged
        assert out.flags == ("max_iters_exceeded",)
        assert out.iterations == 500

    def test_iteration_count_tracks_rate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            # two-point spectrum {1, rho} with an isolated second eigenvalue
            rho = float(rng.uniform(0.5, 0.95))
            n = int(rng.integers(3, 20))
            u = rng.exponential(size=n)
            u /= u.sum()
            A = StochasticMatrix((1 - rho) * np.outer(u, np.ones(n)) + rho * np.eye(n))
            p = 6
            out = perron_frobenius(A, SolverConfig(p=p, seed=int(rng.integers(2**31))))
            predicted = -p * np.log(10) / np.log(rho)
            assert out.iterations <= predicted * 3 + 5
            assert out.iterations >= predicted / 3 - 5

    def test_residual_matches_norm(self):
        rng = np.random.default_rng(6)
        A = rand_stochastic(rng, 12)
        out = perron_frobenius(A, SolverConfig(p=9, seed=7))
        assert out.residual == pytest.approx(residual(A, out.v.values), abs=1e-15)
        assert out.residual <= 10 * 1e-9


class TestDirectStationary:
    def test_two_state_exact(self):
        out = direct_stationary(TWO_STATE)
        np.testing.assert_allclose(out.v.values, [0.9 / 1.9, 1.0 / 1.9], atol=1e-15)

    def test_identity_is_singular(self):
        with pytest.raises(SingularSystem):
            direct_stationary(StochasticMatrix(np.eye(2)))

    def test_example(self, example3):
        out = direct_stationary(example3)
        np.testing.assert_allclose(
            out.v.values, np.array([0.9, 1.0, 0.55]) / 2.45, atol=1e-12
        )

    def test_two_essential_blocks_singular(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        A[2:, 2:] = [[0.3, 0.7], [0.7, 0.3]]
        with pytest.raises(SingularSystem):
            direct_stationary(StochasticMatrix(A))

    def test_sparse_path(self):
        import scipy.sparse as sp

        A = StochasticMatrix(sp.csc_matrix(TWO_STATE.dense))
        out = direct_stationary(A)
        np.testing.assert_allclose(out.v.values, [0.9 / 1.9, 1.0 / 1.9], atol=1e-14)


class TestEstimateInnerRadius:
    def test_two_state(self):
        v = np.array([0.9, 1.0]) / 1.9
        assert estimate_inner_radius(TWO_STATE, v, seed=0) == pytest.approx(0.9, rel=0.05)

    def test_averaging(self):
        n = 4
        assert estimate_inner_radius(averaging(n), np.full(n, 1 / n), seed=1) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_swap_matrix(self):
        A = StochasticMatrix([[0, 1], [1, 0]])
        assert estimate_inner_radius(A, np.array([0.5, 0.5]), seed=2) == pytest.approx(1.0, rel=0.05)

    def test_random_matrices_within_five_percent(self):
        from isored.spectral import inner_spectral_radius

        rng = np.random.default_rng(8)
        hits = 0
        for k in range(20):
            A = rand_stochastic(rng, int(rng.integers(5, 40)))
            out = direct_stationary(A)
            try:
                est = estimate_inner_radius(A, out.v.values, seed=k)
            except Exception:
                continue
            if est == pytest.approx(inner_spectral_radius(A), rel=0.05, abs=0.02):
                hits += 1
        assert hits >= 15  # complex pairs can legitimately refuse to settle


class TestIsospectral:
    def test_example(self, example3):
        cfg = SolverConfig(p=10, seed=0, strategy=FirstS(2))
        out = isospectral_stationary(example3, cfg)
        np.testing.assert_allclose(
            out.v.values, np.array([0.9, 1.0, 0.55]) / 2.45, atol=1e-9
        )
        assert out.residual <= 1e-9
        assert out.reduction is not None
        assert out.reduction.S.indices == (0, 1)

    def test_full_set_degenerates_to_inner_solver(self, example3):
        cfg = SolverConfig(p=9, seed=1, s=3)
        out = isospectral_stationary(example3, cfg)
        assert out.reduction.lift.shape == (0, 3)
        assert out.residual <= 1e-8

    def test_restriction_property(self):
        rng = np.random.default_rng(9)
        for k in range(25):
            n = int(rng.integers(6, 60))
            A = rand_stochastic(rng, n)
            cfg = SolverConfig(p=10, seed=k, s=max(2, n // 3))
            out = isospectral_stationary(A, cfg)
            rec = out.reduction
            restricted = out.v.values[rec.S.array]
            restricted = restricted / restricted.sum()
            assert residual(rec.R, restricted) <= 1e-8

    def test_agreement_with_direct(self):
        rng = np.random.default_rng(10)
        for k in range(25):
            n = int(rng.integers(5, 80))
            A = rand_stochastic(rng, n)
            cfg = SolverConfig(p=10, seed=k, s=max(1, n // 4))
            iso = isospectral_stationary(A, cfg)
            ref = direct_stationary(A)
            assert iso.residual <= 1e-8
            assert np.linalg.norm(iso.v.values - ref.v.values) <= 1e-6

    def test_agreement_with_power_iteration(self):
        # the two routes land on the same vector on easy instances
        rng = np.random.default_rng(14)
        for k in range(100):
            n = int(rng.integers(5, 201))
            A = rand_stochastic(rng, n)
            cfg = SolverConfig(p=10, seed=k, s=max(1, n // 4))
            pf = perron_frobenius(A, cfg)
            iso = isospectral_stationary(A, cfg)
            assert pf.residual <= 1e-8
            assert iso.residual <= 1e-8
            assert np.linalg.norm(pf.v.values - iso.v.values) <= 1e-6

    def test_default_route_matches_direct_on_wide_kept_set(self):
        # Burr n=2000, s=400, seed 3 instance 0: power iteration as the inner
        # solve stopped 0.23 (L1) away from the stationary vector, residual 4e-9
        gen_seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
        A = gen_sparse_stochastic(
            SparseGenConfig(n=2000, nnz_per_col=4, burr=BurrConfig(0.2), seed=gen_seed)
        )
        cfg = SolverConfig(p=8, seed=gen_seed, s=400, strategy=RandomS(400, seed=gen_seed + 1))
        iso = isospectral_stationary(A, cfg)
        ref = direct_stationary(A)
        assert np.abs(iso.v.values - ref.v.values).sum() <= 1e-5

    def test_singular_elimination_retries_then_raises(self):
        # two essential blocks: half the vertices always trap a class, and
        # with s = 2 every kept set leaves one block entirely eliminated
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        A[2:, 2:] = [[0.3, 0.7], [0.7, 0.3]]
        M = StochasticMatrix(A)
        with pytest.raises((SingularElimination, SingularSystem)):
            isospectral_stationary(M, SolverConfig(seed=0, s=1))

    def test_pf_inner_solver(self):
        rng = np.random.default_rng(11)
        A = rand_stochastic(rng, 30)
        cfg = SolverConfig(p=9, seed=3, s=10, inner="pf", max_rereductions=0)
        out = isospectral_stationary(A, cfg)
        assert out.residual <= 1e-7
        assert out.iterations >= 1

    def test_re_reduction_triggers_on_tiny_gap(self):
        # kept block with an internal inner radius close to 1: the first
        # reduction keeps {0,1,2} whose reduced matrix mixes slowly
        rng = np.random.default_rng(12)
        n = 24
        A = rand_stochastic(rng, n, uniform_mix=0.3)
        cfg = SolverConfig(
            p=8, seed=5, s=6, inner="pf", regap_threshold=0.01, max_rereductions=2
        )
        out = isospectral_stationary(A, cfg)
        # threshold is unreachably low, so the redraw budget must be spent
        assert out.flags.count("re_reduction") == 2
        assert out.residual <= 1e-6


class TestSolveDispatch:
    def test_dispatch(self, example3):
        for method in ("pf", "iso", "direct"):
            out = solve(example3, method, SolverConfig(p=8, seed=1, s=2))
            assert out.method == method
            assert out.residual <= 1e-6

    def test_unknown_method(self, example3):
        with pytest.raises(ValueError):
            solve(example3, "qr")
