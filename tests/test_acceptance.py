"""Acceptance suite: one test per release gate, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The benchmark criteria regenerate the full 36-trial
comparison at n = 1000 and take a few minutes.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from isored.bench import RunConfig, _trial_inputs, run_comparison
from isored.core import IndexSet, StochasticMatrix, residual
from isored.randgen import (
    BurrConfig,
    burr_sample,
    gen_bounded_zero_stochastic,
    gen_dense_stochastic,
    gen_doubly_stochastic,
    gen_single_zero_nonnegative,
    make_two_block,
)
from isored.reduction import (
    eliminate_node,
    reduce_at,
    reduce_block,
    reduce_sequential,
)
from isored.solvers import SolverConfig, direct_stationary, isospectral_stationary
from isored.spectral import (
    diameter_tau,
    gershgorin,
    inner_spectral_radius,
    is_non_critical,
    min_entry,
)
from isored.symbolic import WeightedDigraph, evaluate_at, graph_reduce, reduced_spectrum

from conftest import mixed_criticality_case, rand_rational_stochastic_graph


def _report(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {tag}: {detail}"


def _rand_dense(rng, n):
    G = rng.exponential(size=(n, n))
    A = G / G.sum(axis=0)
    return StochasticMatrix(A / A.sum(axis=0))


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    A = StochasticMatrix([[0, 0.9, 0], [0.5, 0, 1], [0.5, 0.1, 0]])
    tau = diameter_tau(A)
    rho = inner_spectral_radius(A)
    rec = reduce_block(A, IndexSet([0, 1], 3))
    tau_r = diameter_tau(rec.R)
    rho_r = inner_spectral_radius(rec.R)
    elapsed = time.perf_counter() - t0
    ok = (
        tau == 1.0
        and abs(rho - 0.6708) <= 1e-3
        and np.array_equal(rec.R.dense, np.array([[0.0, 0.9], [1.0, 0.1]]))
        and abs(tau_r - 0.9) <= 1e-12
        and abs(rho_r - 0.9) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        "1",
        ok,
        f"3x3 example: tau={tau}, rho_i={rho:.4f}, tau(R)={tau_r}, "
        f"rho_i(R)={rho_r:.6f}, runtime {elapsed:.3f}s",
    )


@pytest.fixture(scope="module")
def reduction_corpus():
    """10^4 random (matrix, kept set) pairs with every per-pair measurement."""
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    max_colsum_dev = 0.0
    tau_viol = 0
    growth_viol = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 61))
        A = _rand_dense(rng, n)
        s = int(rng.integers(1, n))
        keep = rng.choice(n, size=s, replace=False)
        S = IndexSet(keep, n)
        rec = reduce_block(A, S)
        # raw one-shot formula, no postprocessing
        drop = S.complement().array
        M = A.dense
        raw = M[np.ix_(S.array, S.array)] - M[np.ix_(S.array, drop)] @ np.linalg.solve(
            M[np.ix_(drop, drop)] - np.eye(drop.size), M[np.ix_(drop, S.array)]
        )
        dev = np.abs(raw.sum(axis=0) - 1.0).max()
        max_colsum_dev = max(max_colsum_dev, float(dev))
        if diameter_tau(rec.R) > diameter_tau(A) + 1e-10:
            tau_viol += 1
        m = min_entry(A)
        if min_entry(rec.R) < m / (1.0 - drop.size * m) - 1e-12:
            growth_viol += 1
    return {
        "elapsed": time.perf_counter() - t0,
        "max_colsum_dev": max_colsum_dev,
        "tau_violations": tau_viol,
        "growth_violations": growth_viol,
    }


def test_criterion_02_stochastic_and_seminorm(reduction_corpus):
    c = reduction_corpus
    ok = (
        c["max_colsum_dev"] <= 1e-10
        and c["tau_violations"] == 0
        and c["elapsed"] < 60.0
    )
    _report(
        "2",
        ok,
        f"10^4 pairs: max column-sum deviation {c['max_colsum_dev']:.2e}, "
        f"tau violations {c['tau_violations']}, runtime {c['elapsed']:.1f}s",
    )


def test_criterion_03_min_entry_growth(reduction_corpus):
    c = reduction_corpus
    _report(
        "3",
        c["growth_violations"] == 0,
        f"10^4 pairs: smallest-entry growth violations {c['growth_violations']}",
    )


def test_criterion_04_path_independence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 25))
        A = _rand_dense(rng, n)
        s = int(rng.integers(2, n - 1))
        S = IndexSet(rng.choice(n, size=s, replace=False), n)
        drop = list(S.complement().indices)
        blk = reduce_block(A, S).R.dense
        for _ in range(2):
            order = [int(v) for v in rng.permutation(drop)]
            seq = reduce_sequential(A, S, order=order).R.dense
            worst = max(worst, float(np.abs(seq - blk).max()))
    _report("4", worst <= 1e-9, f"500 matrices, two orders each: max discrepancy {worst:.2e}")


def test_criterion_05_reconstruction():
    rng = np.random.default_rng(32)
    worst_res = 0.0
    worst_dist = 0.0
    for _ in range(200):
        n = int(rng.integers(20, 301))
        A = _rand_dense(rng, n)
        cfg = SolverConfig(p=10, seed=int(rng.integers(2**31)), s=max(1, n // 10))
        iso = isospectral_stationary(A, cfg)
        ref = direct_stationary(A)
        worst_res = max(worst_res, iso.residual)
        worst_dist = max(worst_dist, float(np.linalg.norm(iso.v.values - ref.v.values)))
    ok = worst_res <= 1e-8 and worst_dist <= 1e-6
    _report(
        "5",
        ok,
        f"200 solves (n <= 300): max residual {worst_res:.2e}, "
        f"max distance to direct {worst_dist:.2e}",
    )


def test_criterion_06_symbolic_oracle_equivalence():
    rng = np.random.default_rng(33)
    worst_entry = 0.0
    worst_root = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        M, S = rand_rational_stochastic_graph(rng, n)
        G = WeightedDigraph.from_matrix(M)
        exact = evaluate_at(graph_reduce(G, S), F(1))
        A = StochasticMatrix(np.array([[float(x) for x in row] for row in M]))
        numeric = reduce_block(A, S).R.dense
        for i in range(len(S)):
            for j in range(len(S)):
                worst_entry = max(worst_entry, abs(float(exact[i][j]) - numeric[i, j]))
        # spectrum: reduced roots match the full spectrum minus the block's
        spec = reduced_spectrum(graph_reduce(G, S))
        expected = list(np.linalg.eigvals(A.dense))
        if len(S) < n:
            drop = np.asarray(S.complement().indices)
            for w in np.linalg.eigvals(A.dense[np.ix_(drop, drop)]):
                k = int(np.argmin([abs(z - w) for z in expected]))
                if abs(expected[k] - w) <= 1e-7:
                    expected.pop(k)
        assert len(spec) == len(expected)
        got = list(spec)
        for w in expected:
            k = int(np.argmin([abs(z - w) for z in got]))
            worst_root = max(worst_root, abs(got.pop(k) - w))
    ok = worst_entry <= 1e-10 and worst_root <= 1e-6
    _report(
        "6",
        ok,
        f"100 graphs: max entry gap {worst_entry:.2e}, max root gap {worst_root:.2e}",
    )


def test_criterion_07_constructive_families():
    # three-state feeder spectrum
    spectrum_ok = True
    for a in (0.1, 0.25, 0.4):
        A = make_two_block(a, 1.0, [[1.0]], variant="padded")
        w = sorted(np.linalg.eigvals(A.dense), key=lambda z: z.real)
        gaps = [abs(w[0] - (2 * a - 1)), abs(w[1]), abs(w[2] - 1)]
        spectrum_ok &= max(gaps) <= 1e-9

    # damped-uniform identity and diameter scaling
    google_ok = True
    tau_ok = True
    rng = np.random.default_rng(34)
    for q in (0.85, 0.4, 0.99):
        m = int(rng.integers(3, 9))
        B = gen_doubly_stochastic(m, seed=int(rng.integers(2**31)))
        A = make_two_block(0.2, 1 - q, B, variant="L-weighted")
        R = reduce_block(A, IndexSet(range(2, m + 2), m + 2)).R.dense
        google_ok &= bool(np.abs(R - (q * B.dense + (1 - q) / m)).max() <= 1e-12)
        tau_ok &= abs(diameter_tau(R) - q * diameter_tau(B)) <= 1e-12

    # strictly positive reductions from both zero-pattern families
    pos51 = 0
    for seed in range(500):
        n = 3 + seed % 18
        M, pivot = gen_single_zero_nonnegative(n, seed=seed)
        lam = max(np.linalg.eigvals(M.dense), key=lambda z: z.real).real
        R = reduce_at(M, IndexSet([i for i in range(n) if i != pivot], n), lam)
        pos51 += bool((R > 0).all())
    rng = np.random.default_rng(35)
    pos52 = 0
    for seed in range(500):
        m = 1 + seed % 3
        n = int(rng.integers(3 * m + 1, 3 * m + 12))
        A = gen_bounded_zero_stochastic(n, m, seed=seed)
        drop = rng.choice(n, size=2 * (m - 1) + 1, replace=False)
        S = IndexSet([i for i in range(n) if i not in set(drop.tolist())], n)
        pos52 += bool((reduce_block(A, S).R.dense > 0).all())

    ok = spectrum_ok and google_ok and tau_ok and pos51 == 500 and pos52 == 500
    _report(
        "7",
        ok,
        f"spectrum {spectrum_ok}, damped-uniform {google_ok}, tau scaling {tau_ok}, "
        f"positive reductions {pos51}/500 and {pos52}/500",
    )


def test_criterion_08_gershgorin_decrease():
    rng = np.random.default_rng(36)
    failures = 0
    for trial in range(500):
        n = int(rng.integers(3, 31))
        A = gen_doubly_stochastic(n, seed=trial)
        k = int(rng.integers(n))
        R = eliminate_node(A, k).R.dense
        before = gershgorin(A.dense)
        after = gershgorin(R)
        keep = [i for i in range(n) if i != k]
        if not all(after[p].radius < before[i].radius for p, i in enumerate(keep)):
            failures += 1
    _report("8", failures == 0, f"500 balanced matrices: row-sum increase count {failures}")


PAPER_DIRECT = RunConfig(trials=36, n=1000, nnz=4, alpha=0.2, s=90, seed=1, baseline="direct")


@pytest.fixture(scope="module")
def bench_direct():
    t0 = time.perf_counter()
    records = run_comparison(PAPER_DIRECT)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_pf():
    t0 = time.perf_counter()
    records = run_comparison(
        RunConfig(trials=36, n=1000, nnz=4, alpha=0.2, s=90, seed=1, baseline="pf")
    )
    return records, time.perf_counter() - t0


def test_criterion_09a_inner_radius_distribution(bench_direct):
    records, elapsed = bench_direct
    med = float(np.median([r.rho_i for r in records]))
    ok = med >= 0.93 and elapsed < 600.0
    _report("9a", ok, f"36 trials: median rho_i {med:.4f} (>= 0.93), runtime {elapsed:.0f}s")


def test_criterion_09a_reduction_widens_spectral_gap(bench_direct):
    # the paper iterates on R because its gap is wider; measured at seed 1:
    # median 1 - rho_i 0.0108 for A and 0.340 for R, smallest ratio 2.29
    records, _ = bench_direct
    gap_a = 1.0 - np.array([r.rho_i for r in records])
    gap_r = np.empty(PAPER_DIRECT.trials)
    for k in range(PAPER_DIRECT.trials):
        A, solver_cfg = _trial_inputs(PAPER_DIRECT, k)
        out = isospectral_stationary(A, solver_cfg)
        gap_r[k] = 1.0 - inner_spectral_radius(out.reduction.R)
    ratio = gap_r / gap_a
    ok = bool(np.all(gap_r > gap_a)) and ratio.min() >= 2.0 and np.median(gap_r) >= 0.3
    _report(
        "9a-gap",
        ok,
        f"1 - rho_i widened on {int(np.sum(gap_r > gap_a))}/36 instances (36 required); "
        f"median {np.median(gap_a):.4f} for A, {np.median(gap_r):.3f} for R (>= 0.3); "
        f"smallest ratio {ratio.min():.2f} (>= 2)",
    )


def test_criterion_09b_scheme_residual_wins(bench_direct):
    records, _ = bench_direct
    ok_rows = [r for r in records if r.ok]
    frac = sum(r.e2 <= r.e1 for r in ok_rows) / len(ok_rows)
    _report(
        "9b",
        frac >= 0.80,
        f"e2 <= e1 in {frac:.2%} of {len(ok_rows)} convergent trials (>= 80%)",
    )


def test_criterion_09c_scheme_faster_than_iteration(bench_pf):
    records, elapsed = bench_pf
    ok_rows = [r for r in records if r.ok]
    med = float(np.median([r.t2 / r.t1 for r in ok_rows]))
    ok = med < 1.0 and elapsed < 600.0
    _report(
        "9c",
        ok,
        f"median t2/t1 = {med:.3f} against the power-iteration baseline "
        f"(criterion < 1), runtime {elapsed:.0f}s",
    )


def test_criterion_10_burr_sampler():
    rng = np.random.default_rng(37)
    worst = 0.0
    worst_inv = 0.0
    for alpha in (0.2, 0.5, 0.8):
        cfg = BurrConfig(alpha)
        x = burr_sample(cfg, rng, size=100_000)
        worst = max(worst, stats.kstest(x, cfg.cdf).statistic)
        worst_inv = max(worst_inv, stats.kstest(1.0 / x, cfg.cdf).statistic)
    ok = worst <= 0.01 and worst_inv <= 0.01
    _report(
        "10",
        ok,
        f"KS distance {worst:.4f}, reciprocal-sample KS {worst_inv:.4f} (both <= 0.01)",
    )


def test_criterion_11_non_criticality_equivalence():
    rng = np.random.default_rng(38)
    disagreements = 0
    for k in range(2000):
        A = mixed_criticality_case(rng, k)
        if is_non_critical(A) != (inner_spectral_radius(A) < 1.0 - 1e-9):
            disagreements += 1
    _report("11", disagreements == 0, f"2000 mixed matrices: {disagreements} disagreements")
