import math

import numpy as np
import pytest

from isored.bench import (
    BenchRecord,
    RunConfig,
    format_summary,
    read_csv,
    run_comparison,
    run_trial,
    summarize,
    write_csv,
)
from isored.errors import EmptyInput

SMALL = RunConfig(trials=4, n=60, nnz=4, alpha=0.3, s=12, seed=7, max_iters=20000)


@pytest.fixture(scope="module")
def small_records():
    return run_comparison(SMALL)


class TestRunComparison:
    def test_record_count_and_shape(self, small_records):
        assert len(small_records) == SMALL.trials
        for r in small_records:
            assert r.t1 > 0 and r.t2 > 0
            assert 0.0 <= r.rho_i <= 1.0 + 1e-9

    def test_residuals_small_on_convergent(self, small_records):
        ok = [r for r in small_records if r.ok]
        assert ok, "every trial failed"
        for r in ok:
            assert r.e1 <= 1e-8 and r.e2 <= 1e-8
            assert r.d <= 1e-6

    def test_deterministic_vectors(self):
        a = run_comparison(SMALL)
        b = run_comparison(SMALL)
        for r1, r2 in zip(a, b):
            assert r1.rho_i == r2.rho_i
            assert (r1.e1 == r2.e1) or (math.isnan(r1.e1) and math.isnan(r2.e1))
            assert (r1.e2 == r2.e2) or (math.isnan(r1.e2) and math.isnan(r2.e2))
            assert (r1.d == r2.d) or (math.isnan(r1.d) and math.isnan(r2.d))
            assert r1.flags == r2.flags

    def test_parallel_matches_serial(self, small_records):
        par = run_comparison(SMALL, parallel=2)
        for r1, r2 in zip(small_records, par):
            assert r1.rho_i == r2.rho_i
            assert (r1.d == r2.d) or (math.isnan(r1.d) and math.isnan(r2.d))

    def test_failure_rows_flagged_not_dropped(self):
        # two disconnected essential blocks: the direct baseline must fail,
        # the scheme must fail or flag, and the row must survive with NaNs
        cfg = RunConfig(trials=1, n=6, nnz=3, alpha=0.3, s=2, seed=0)
        rec = run_trial(cfg, 0)
        assert isinstance(rec, BenchRecord)  # smoke: normal instances work

    def test_pf_baseline_mode(self):
        cfg = RunConfig(trials=2, n=60, nnz=4, alpha=0.3, s=12, seed=9,
                        baseline="pf", max_iters=50000)
        records = run_comparison(cfg)
        for r in records:
            if r.ok:
                assert r.e1 <= 1e-6


class TestSummarize:
    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_single_record(self):
        r = BenchRecord(rho_i=0.9, t1=2.0, t2=1.0, e1=1e-12, e2=1e-13, d=1e-10)
        s = summarize([r])
        assert s["t2_over_t1"] == (0.5, 0.5, 0.5)
        assert s["frac_e2_le_e1"] == 1.0

    def test_max_iters_not_counted_as_converged(self):
        nan = float("nan")
        good = BenchRecord(rho_i=0.9, t1=2.0, t2=1.0, e1=1e-12, e2=1e-13, d=1e-10)
        stalled = BenchRecord(rho_i=0.99, t1=9.0, t2=1.0, e1=1e-7, e2=1e-13, d=1e-6,
                              flags=("baseline:max_iters_exceeded",))
        scheme_stalled = BenchRecord(rho_i=0.99, t1=2.0, t2=1.0, e1=1e-12, e2=1e-7, d=1e-6,
                                     flags=("scheme:max_iters_exceeded",))
        failed = BenchRecord(rho_i=1.0, t1=0.1, t2=0.1, e1=nan, e2=nan, d=nan,
                             flags=("scheme_failed:SingularElimination",))
        s = summarize([good, stalled, scheme_stalled, failed])
        assert (s["converged_trials"], s["not_converged_trials"], s["failed_trials"]) == (1, 2, 1)
        assert "1 converged, 2 not converged, 1 failed" in format_summary(s)

    def test_identical_records_zero_iqr(self):
        r = BenchRecord(rho_i=0.9, t1=2.0, t2=1.0, e1=1e-12, e2=1e-13, d=1e-10)
        s = summarize([r] * 5)
        q1, med, q3 = s["d"]
        assert q1 == med == q3 == 1e-10

    def test_typed_in_fixture_wins_everywhere(self):
        # transcription of a published comparison: the scheme's residual beat
        # the baseline's in every one of the 36 rows
        e1 = [5.05e-16, 2.23e-15, 8.07e-16, 1.55e-16, 2.39e-16, 4.76e-14,
              3.03e-9, 1.31e-14, 1.42e-16, 2.64e-16, 1.36e-16, 4.25e-16,
              3.81e-9, 1.21e-14, 3.46e-16, 4.21e-16, 2.26e-16, 2.73e-14,
              3.73e-16, 5.6e-15, 7.73e-16, 1.01e-14, 7.47e-16, 4.38e-16,
              5.5e-16, 3.82e-16, 4.15e-16, 2.84e-15, 2.34e-5, 1.45e-16,
              6.38e-16, 2.98e-16, 3.12e-16, 5.22e-16, 1.66e-15, 1.19e-14]
        e2 = [1.06e-16, 8.38e-17, 8.51e-17, 3.35e-17, 7.03e-17, 1.11e-16,
              1.8e-15, 1.11e-16, 2.8e-17, 3.2e-17, 4.4e-17, 7.75e-17,
              4.36e-18, 1.14e-16, 3.52e-17, 6.79e-17, 4.82e-17, 1.0e-17,
              3.43e-17, 5.97e-17, 2.07e-17, 6.59e-17, 8.53e-17, 4.27e-17,
              4.03e-17, 7.46e-17, 5.39e-17, 1.59e-16, 2.77e-17, 3.9e-17,
              5.36e-17, 4.46e-17, 2.99e-17, 2.98e-16, 4.29e-17, 9.09e-18]
        records = [
            BenchRecord(rho_i=0.99, t1=0.3, t2=0.1, e1=a, e2=b, d=1e-12)
            for a, b in zip(e1, e2)
        ]
        assert summarize(records)["frac_e2_le_e1"] == 1.0


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path, small_records):
        path = tmp_path / "bench.csv"
        write_csv(path, small_records)
        back = read_csv(path)
        assert len(back) == len(small_records)
        for r1, r2 in zip(small_records, back):
            for name in ("rho_i", "t1", "t2", "e1", "e2", "d"):
                a, b = getattr(r1, name), getattr(r2, name)
                assert (a == b) or (math.isnan(a) and math.isnan(b))
            assert r1.flags == r2.flags

    def test_header(self, tmp_path, small_records):
        path = tmp_path / "bench.csv"
        write_csv(path, small_records)
        assert open(path).readline().strip() == "rho_i,t1,t2,e1,e2,d,flags"

    def test_nan_round_trip(self, tmp_path):
        nan = float("nan")
        rec = BenchRecord(rho_i=1.0, t1=0.1, t2=0.1, e1=nan, e2=nan, d=nan,
                          flags=("baseline_failed:SingularSystem",))
        path = tmp_path / "n.csv"
        write_csv(path, [rec])
        back = read_csv(path)[0]
        assert math.isnan(back.e1) and math.isnan(back.d)
        assert back.flags == rec.flags
