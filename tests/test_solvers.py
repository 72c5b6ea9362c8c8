import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgWarning, lapack

from isored.bench import RunConfig, _trial_inputs
from isored.core import IndexSet, StochasticMatrix, residual
from isored.errors import SingularElimination, SingularSystem
from isored.randgen import (
    BurrConfig,
    SparseGenConfig,
    gen_dense_stochastic,
    gen_sparse_stochastic,
    make_banded,
)
from isored.reduction import FirstS, RandomS, _peel
from isored.solvers import (
    DIRECT_SIZE_LIMIT,
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


def former_dense_stationary(A):
    """The former dense route of ``direct_stationary``, kept as a reference:
    ``A - I`` through ``np.eye``, the last row replaced by ones, ``dgesv`` and
    ``dgecon``, then the same clip, normalization and residual check through
    ``np.linalg.norm``.  Returns the vector and its residual."""
    n = A.n
    M = np.subtract(A.dense, np.eye(n), order="F")
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    anorm = lapack.dlange("1", M)
    lu, _, v, info = lapack.dgesv(M, rhs, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise SingularSystem(f"fixed-point system is singular: zero pivot {info}")
    rcond, _ = lapack.dgecon(lu, anorm)
    if rcond < np.finfo(np.float64).eps:
        warnings.warn(f"ill-conditioned fixed-point system (rcond={rcond:.3e})", LinAlgWarning)
    if not np.isfinite(v).all() or v.sum() <= 0:
        raise SingularSystem("fixed-point solve produced a degenerate solution")
    v = np.maximum(v, 0.0)
    v /= v.sum()
    res = float(np.linalg.norm(A.dense @ v - v))
    if not np.isfinite(res) or res > 1e-6:
        raise SingularSystem(f"fixed-point residual {res:.3e}; stationary measure not unique")
    return v, res


def _refusal(fn, A):
    with pytest.raises(SingularSystem) as info:
        fn(A)
    return str(info.value)


class TestDenseParity:
    """The dense route against its former form, bit for bit."""

    def test_bitwise_on_size_sweep(self):
        # n = 3..60 four times over, as in the benchmark's small corpus
        for k in range(232):
            A = gen_dense_stochastic(3 + k % 58, seed=1000 + k)
            out = direct_stationary(A)
            v, res = former_dense_stationary(A)
            assert out.v.values.tobytes() == v.tobytes(), k
            assert out.residual == res, k

    def test_identity_refused_alike(self):
        A = StochasticMatrix(np.eye(3))
        assert _refusal(direct_stationary, A) == _refusal(former_dense_stationary, A)

    def test_two_essential_classes_refused_alike(self):
        A = np.zeros((5, 5))
        A[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        A[2:, 2:] = [[0.3, 0.7, 0.3], [0.7, 0.1, 0.3], [0.0, 0.2, 0.4]]
        A = StochasticMatrix(A)
        assert _refusal(direct_stationary, A) == _refusal(former_dense_stationary, A)

    def test_ill_conditioned_warns_alike(self):
        # two positive blocks that trade 1e-17 of their mass
        B = gen_dense_stochastic(4, seed=5).dense
        A = np.zeros((8, 8))
        A[:4, :4] = A[4:, 4:] = B * (1 - 1e-17)
        A[4, :4] = A[0, 4:] = 1e-17
        A = StochasticMatrix(A)
        with pytest.warns(LinAlgWarning) as new:
            out = direct_stationary(A)
        with pytest.warns(LinAlgWarning) as old:
            v, res = former_dense_stationary(A)
        assert [str(w.message) for w in new] == [str(w.message) for w in old]
        assert out.v.values.tobytes() == v.tobytes() and out.residual == res


def superlu_stationary(A):
    """The former sparse route of ``direct_stationary``, kept as a reference:
    SuperLU (COLAMD order) of ``A - I`` with the last equation replaced by
    ``sum(v) = 1``, then the same clip, normalization and residual check."""
    n = A.n
    coo = (A.data - sp.identity(n, format="csc")).tocoo()
    keep = coo.row < n - 1
    rows = np.concatenate([coo.row[keep], np.full(n, n - 1)])
    cols = np.concatenate([coo.col[keep], np.arange(n)])
    vals = np.concatenate([coo.data[keep], np.ones(n)])
    M = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = spla.splu(M).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.isfinite(v).all() or v.sum() <= 0:
        raise SingularSystem("degenerate solution")
    v = np.maximum(v, 0.0)
    v /= v.sum()
    if not residual(A, v) <= 1e-6:
        raise SingularSystem("residual")
    return v


def burr(n, seed):
    return gen_sparse_stochastic(
        SparseGenConfig(n=n, nnz_per_col=4, burr=BurrConfig(0.2), seed=seed))


def sparse_chain(entries, n):
    """CSC chain from ``(i, j, a_ij)`` triples; zeros stay stored."""
    i, j, a = zip(*entries)
    return StochasticMatrix(sp.csc_matrix((a, (i, j)), shape=(n, n)))


def banded_csc(n, m, seed):
    """``make_banded(n, m, seed)`` built in CSC form, without the n x n array:
    the same draws in the same row-major order over the band."""
    rows = np.repeat(np.arange(n), 2 * m - 1)
    cols = rows + np.tile(np.arange(1 - m, m), n)
    ok = (cols >= 0) & (cols < n)
    rows, cols = rows[ok], cols[ok]
    vals = np.random.default_rng(seed).uniform(0.2, 1.0, size=rows.size)
    vals /= np.bincount(cols, vals)[cols]
    return StochasticMatrix(sp.csc_matrix((vals, (rows, cols)), shape=(n, n)))


def birth_death_exact(A):
    """Stationary vector of a tridiagonal chain by detailed balance,
    ``v[i+1] a[i,i+1] = v[i] a[i+1,i]``, summed in logarithms."""
    D = A.data.tocsr()
    up, down = D.diagonal(-1), D.diagonal(1)  # a[i+1,i], a[i,i+1]
    logv = np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
    v = np.exp(logv - logv.max())
    return v / v.sum()


class TestSparseDirect:
    """The sparse route: peel to a bordered dense core, against SuperLU."""

    # 3744086969 is burr-paper seed 202 instance 29: column 352 holds a_jj ==
    # 1.0 in floating point and three off-diagonal entries of 1e-26 to 1e-23,
    # so its pivot is 0 and the peel must leave it to the core
    @pytest.mark.parametrize(
        "n, seed", [(200, s) for s in range(6)] + [(1000, s) for s in (0, 1, 2, 3744086969)])
    def test_parity_with_superlu_on_burr(self, n, seed):
        A = burr(n, seed)
        out = direct_stationary(A)
        assert np.abs(out.v.values - superlu_stationary(A)).sum() <= 1e-9
        assert out.residual <= 1e-12

    def test_parity_on_near_decoupled_paper_instance(self):
        # second eigenvalue 1 - 1.5e-12: both direct routes agree, the scheme
        # sits 1.4e-4 away from them
        A, _ = _trial_inputs(RunConfig(seed=1005), 14)
        out = direct_stationary(A)
        assert np.abs(out.v.values - superlu_stationary(A)).sum() <= 1e-9

    def test_banded_reference_matches_generator(self):
        A = banded_csc(40, 3, 7)
        np.testing.assert_allclose(A.dense, make_banded(40, 3, 7).dense, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_birth_death_chain(self, seed):
        # a deep peel; short graded chains keep their digits on both routes
        A = banded_csc(300, 2, seed)
        out = direct_stationary(A)
        assert np.abs(out.v.values - birth_death_exact(A)).sum() <= 1e-9
        assert np.abs(out.v.values - superlu_stationary(A)).sum() <= 1e-9

    def test_identity_is_singular(self):
        A = StochasticMatrix(sp.identity(3, format="csc"))
        for solver in (direct_stationary, superlu_stationary):
            with pytest.raises(SingularSystem):
                solver(A)

    @pytest.mark.parametrize("bridge", [None, 0.0])
    def test_two_essential_classes_singular(self, bridge):
        # {0, 1} and {2, 3} are closed; a stored zero a[2,0] is no edge
        entries = [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5),
                   (2, 2, 0.3), (3, 2, 0.7), (2, 3, 0.7), (3, 3, 0.3)]
        if bridge is not None:
            entries.append((2, 0, bridge))
        A = sparse_chain(entries, 4)
        if bridge is not None:
            assert A.data[2, 0] == 0.0 and A.data.nnz == 9
        for solver in (direct_stationary, superlu_stationary):
            with pytest.raises(SingularSystem):
                solver(A)

    def test_absorbing_vertex_fed_by_transient_ones(self):
        # 0 -> 1 -> {3, 2}, 3 -> 2, and 2 keeps its mass
        A = sparse_chain([(1, 0, 1.0), (3, 1, 0.6), (2, 1, 0.4), (2, 3, 1.0), (2, 2, 1.0)], 4)
        out = direct_stationary(A)
        np.testing.assert_array_equal(out.v.values, [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(superlu_stationary(A), out.v.values, atol=1e-15)

    def test_absorbing_end_of_a_long_path(self):
        # 78 -> ... -> 199 -> 0 -> ... -> 77, which keeps its mass: the path
        # is peeled, so the kept equation must be 77's, or a pivot is zero
        n, k = 200, 77
        A = sparse_chain([((j + 1) % n, j, 1.0) for j in range(n) if j != k] + [(k, k, 1.0)], n)
        out = direct_stationary(A)
        np.testing.assert_array_equal(out.v.values, np.eye(n)[k])
        np.testing.assert_allclose(superlu_stationary(A), out.v.values, atol=1e-15)

    def test_peel_border_row_is_spare(self):
        # the bordered layout holds the plain core and one zero row, in place
        A = burr(200, 4)
        r, rest = np.array([7]), np.delete(np.arange(200), 7)
        _, _, Q, GC, _, _ = _peel(A.data, r, rest, 1.0)
        _, _, Q_b, GC_b, _, _ = _peel(A.data, r, rest, 1.0, border=True)
        q = Q.size
        np.testing.assert_array_equal(Q_b, Q)
        assert GC_b.shape == (q + 1, q + 1) and GC_b.flags.f_contiguous
        assert GC_b[:q].tobytes(order="F") == GC.tobytes(order="F")
        assert not GC_b[q].any()

    def test_periodic_two_cycle(self):
        A = sparse_chain([(1, 0, 1.0), (0, 1, 1.0)], 2)
        np.testing.assert_allclose(direct_stationary(A).v.values, [0.5, 0.5], atol=1e-15)

    def test_single_vertex(self):
        A = sparse_chain([(0, 0, 1.0)], 1)
        np.testing.assert_array_equal(direct_stationary(A).v.values, [1.0])

    def test_ill_conditioned_core_warns(self):
        # a graded birth-death chain: the peel is exact, but the replaced
        # system loses every digit (L1 2.0 to detailed balance at residual
        # 1e-17); SuperLU said nothing
        A = banded_csc(5000, 2, 3)
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            direct_stationary(A)


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
        cfg = SolverConfig(p=9, seed=3, s=10, inner="pf")
        out = isospectral_stationary(A, cfg)
        assert out.residual <= 1e-7
        assert out.iterations >= 1

    def test_default_route_solves_large_reduced_chain_directly(self):
        # s above the former size limit of the direct inner solve; power
        # iteration capped at 2 steps would flag max_iters_exceeded
        A = gen_dense_stochastic(2100, seed=4)
        cfg = SolverConfig(p=8, max_iters=2, seed=6, s=2050)
        assert cfg.s > DIRECT_SIZE_LIMIT
        out = isospectral_stationary(A, cfg)
        assert out.iterations == 0
        assert out.flags == ()
        assert out.converged
        assert out.residual <= 1e-12

    def test_unknown_inner_solver_rejected(self):
        # an unknown name used to fall through to power iteration
        with pytest.raises(ValueError, match="inner"):
            SolverConfig(inner="lu")


class TestSolveDispatch:
    def test_dispatch(self, example3):
        for method in ("pf", "iso", "direct"):
            out = solve(example3, method, SolverConfig(p=8, seed=1, s=2))
            assert out.method == method
            assert out.residual <= 1e-6

    def test_unknown_method(self, example3):
        with pytest.raises(ValueError):
            solve(example3, "qr")
