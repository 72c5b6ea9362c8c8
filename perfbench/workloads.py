"""Inputs, calls and output checks of the isored benchmark.

Every input is built from the workload seed; the library only ever sees the
built instances.  Calls are closed-loop: one call at a time, the next only
after the previous one returned.  Each call is timed on its own and its
output is checked right after, outside the timed region.  A call that
raises or whose output fails a check counts as failed; the run goes on.
A failed check or an error that is not an ``IsoredError`` also marks the run
as incorrect: the library returned a wrong result instead of refusing.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from isored import bench, cli, mmio, symbolic
from isored.core import IndexSet, residual, validate_stochastic
from isored.errors import IsoredError, NoConvergence, SingularElimination
from isored.randgen import BurrConfig, SparseGenConfig, gen_dense_stochastic, gen_sparse_stochastic
from isored.reduction import (
    PivotGreedy,
    RandomS,
    reconstruct_stationary,
    reduce_block,
    reduce_sequential,
    select_subset,
)
from isored.solvers import (
    DIRECT_SIZE_LIMIT,
    MAX_REDUCTION_ATTEMPTS,
    SolverConfig,
    direct_stationary,
    estimate_inner_radius,
    isospectral_stationary,
    perron_frobenius,
)
from isored.spectral import diameter_tau, inner_spectral_radius, min_entry

#: largest L1 distance between the scheme's vector and the direct solver's
ISO_VS_DIRECT_L1 = 1e-5
#: largest fixed-point residual ||Av - v|| accepted from any solve
RESIDUAL_MAX = 1e-6
#: largest entrywise gap between two routes to the same reduced matrix
REDUCTION_GAP = 1e-10
#: iteration cap of the power-iteration baseline (see NOTES.md)
PF_MAX_ITERS = 20_000

#: span name of each timed call, by operation
SPAN = {
    "iso": "solvers.isospectral_stationary",
    "direct": "solvers.direct_stationary",
    "reduce": "reduction.reduce_block",
    "seq": "reduction.reduce_sequential",
    "greedy": "reduction.select_subset",
    "cli": "cli.main",
    "pf": "solvers.perron_frobenius",
    "rho": "spectral.inner_spectral_radius",
    "run_trial": "bench.run_trial",
    "sym_from": "symbolic.from_matrix",
    "symreduce": "symbolic.graph_reduce",
    "sym_eval": "symbolic.evaluate_at",
    "branches": "symbolic.branches",
}


@dataclass(frozen=True)
class BurrSpec:
    """Heavy-tail sparse chains, instance ``k`` seeded as in ``bench.run_trial``."""

    n: int
    nnz: int
    alpha: float
    s: int
    instances: int
    paper_config: bool   # iso configured exactly as bench.run_trial does
    cli_rounds: int      # instance k gets the CLI call in rounds r with (k + r) % cli_rounds == 0
    pf_instances: int    # traced extras: power-iteration baseline calls
    rho_instances: int   # traced extras: inner spectral radius calls
    trials: int          # traced extras: bench.run_trial calls


@dataclass(frozen=True)
class SmallSpec:
    """Strictly positive dense chains plus exact rational structural graphs."""

    pairs: int
    n_max: int
    graphs: int
    graph_n_max: int
    cli_pairs: int       # every k-th pair also gets a MatrixMarket copy for the CLI


WORKLOADS = {
    "burr-paper": BurrSpec(n=1000, nnz=4, alpha=0.2, s=90, instances=36, paper_config=True,
                           cli_rounds=3, pf_instances=36, rho_instances=3, trials=2),
    "burr-wide": BurrSpec(n=2000, nnz=4, alpha=0.2, s=400, instances=12, paper_config=False,
                          cli_rounds=1, pf_instances=2, rho_instances=1, trials=0),
    "small-corpus": SmallSpec(pairs=1160, n_max=60, graphs=100, graph_n_max=12, cli_pairs=20),
}

#: tiny sizes for the benchmark's own tests
SMOKE = {
    "burr-paper": BurrSpec(n=200, nnz=4, alpha=0.2, s=20, instances=3, paper_config=True,
                           cli_rounds=1, pf_instances=3, rho_instances=1, trials=1),
    "burr-wide": BurrSpec(n=300, nnz=4, alpha=0.2, s=210, instances=2, paper_config=False,
                          cli_rounds=1, pf_instances=1, rho_instances=1, trials=0),
    "small-corpus": SmallSpec(pairs=12, n_max=20, graphs=4, graph_n_max=7, cli_pairs=4),
}


@dataclass
class Chain:
    """One stochastic matrix with the kept set its reductions use."""

    key: int
    A: object            # StochasticMatrix
    cfg: SolverConfig    # configuration of the scheme; its strategy yields S
    S: IndexSet          # kept set of the scheme's first draw
    nested: bool         # seq/greedy act on the reduced matrix instead of A
    cli_argv: list | None  # `isored stationary` on a MatrixMarket copy, if any


@dataclass
class Graph:
    """Exact rational stochastic graph with a structural kept set."""

    key: int
    M: list              # Fraction entries
    A: object            # the same matrix in floating point
    S: IndexSet


def _gen_seed(seed, k):
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _cli_argv(path, s, seed):
    out = path[: -len(".mtx")] + ".v.txt"
    return ["stationary", path, "--method", "iso", "--keep", str(s), "--seed", str(seed), "-o", out]


def build_burr(spec, seed, tmpdir, tr):
    chains = []
    for k in range(spec.instances):
        gs = _gen_seed(seed, k)
        with tr.span("randgen.gen_sparse_stochastic", k):
            A = gen_sparse_stochastic(
                SparseGenConfig(n=spec.n, nnz_per_col=spec.nnz, burr=BurrConfig(spec.alpha), seed=gs)
            )
        strategy = RandomS(spec.s, seed=gs + 1)
        if spec.paper_config:
            cfg = SolverConfig(p=8, max_iters=10**6, seed=gs, s=spec.s, strategy=strategy,
                               max_rereductions=0)
        else:
            cfg = SolverConfig(p=8, seed=gs, s=spec.s, strategy=strategy)
        path = os.path.join(tmpdir, f"A{k}.mtx")
        mmio.write_matrix(path, A)
        chains.append(Chain(k, A, cfg, select_subset(A, strategy), True,
                            _cli_argv(path, spec.s, gs + 1)))
    return chains, []


def rational_graph(rng, n):
    """Column-stochastic Fraction matrix whose eliminated vertices, apart from
    loops, only feed vertices of lower rank; the kept set is then structural
    and the shifted eliminated block is triangular and regular."""
    s = int(rng.integers(1, n))
    kept = set(rng.choice(n, size=s, replace=False).tolist())
    elim = [v for v in range(n) if v not in kept]
    rank = {v: r for r, v in enumerate(rng.permutation(elim).tolist())}
    M = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        targets = [i for i in range(n)
                   if i == j or i not in rank or j not in rank or rank[i] < rank[j]]
        picked = rng.permutation(targets)[: int(rng.integers(1, min(4, len(targets)) + 1))]
        weights = [Fraction(int(rng.integers(1, 9))) for _ in picked]
        if j in rank and j in picked:
            # an eliminated loop stays at most 1/2, the rest of the column leaves j
            k = int(np.flatnonzero(picked == j)[0])
            weights[k] = Fraction(1, int(rng.integers(2, 9)))
            others = [i for i in range(len(picked)) if i != k]
            if not others:
                picked = np.append(picked, min(kept))
                weights.append(Fraction(1))
                others = [len(picked) - 1]
            total = sum(weights[i] for i in others)
            for i in others:
                weights[i] = weights[i] * (1 - weights[k]) / total
        else:
            total = sum(weights)
            weights = [w / total for w in weights]
        for i, w in zip(picked.tolist(), weights):
            M[i][j] += w
    return M, IndexSet(sorted(kept), n)


def build_small(spec, seed, tmpdir, tr):
    # sizes sweep n over [3, n_max] and s over [1, n-1] in a fixed pattern, so
    # the mix of per-call costs is the same for every seed; entries and kept
    # vertices are random
    golden = (5**0.5 - 1) / 2
    chains = []
    for k in range(spec.pairs):
        n = 3 + k % (spec.n_max - 2)
        s = 1 + int((k * golden) % 1.0 * (n - 1))
        gs = _gen_seed(seed, k)
        with tr.span("randgen.gen_dense_stochastic", k):
            A = gen_dense_stochastic(n, seed=gs)
        strategy = RandomS(s, seed=gs + 1)
        cfg = SolverConfig(p=8, seed=gs, s=s, strategy=strategy)
        argv = None
        if k % spec.cli_pairs == 0:
            path = os.path.join(tmpdir, f"A{k}.mtx")
            mmio.write_matrix(path, A)
            argv = _cli_argv(path, s, gs + 1)
        chains.append(Chain(k, A, cfg, select_subset(A, strategy), False, argv))
    graphs = []
    for k in range(spec.graphs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, k]))
        M, S = rational_graph(rng, int(rng.integers(3, spec.graph_n_max + 1)))
        A = validate_stochastic(np.array([[float(x) for x in row] for row in M]))
        graphs.append(Graph(k, M, A, S))
    return chains, graphs


def build(spec, seed, tmpdir, tr):
    if isinstance(spec, BurrSpec):
        return build_burr(spec, seed, tmpdir, tr)
    return build_small(spec, seed, tmpdir, tr)


def _drop_smallest_diagonals(R):
    """Kept set of R without the tenth of its vertices with the smallest diagonal."""
    d = max(1, R.n // 10)
    drop = np.argsort(np.diag(R.dense), kind="stable")[:d]
    return IndexSet(np.setdiff1d(np.arange(R.n), drop), R.n)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _l1(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum())


class Runner:
    """Runs the calls of one workload and keeps their timings and outcomes."""

    def __init__(self, tracer, inject_wrong=False):
        self.tr = tracer
        self.inject_wrong = inject_wrong  # corrupt the first scheme vector on purpose
        self.samples = defaultdict(list)  # operation -> seconds per successful call
        self.attempted = 0
        self.failed = 0
        self.wrong = 0                    # failed checks and untyped errors
        self.not_converged = 0            # baseline calls stopped by PF_MAX_ITERS
        self.failures = []                # (operation, instance, message)
        self.layer = defaultdict(list)    # per-layer values of the traced run

    # -- bookkeeping ---------------------------------------------------------

    def call(self, op, key, fn, *args):
        """Time one call; return its result, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span(SPAN[op], key):
                out = fn(*args)
        except IsoredError as exc:  # a typed refusal: failed, but no wrong output
            self.fail(op, key, f"{type(exc).__name__}: {exc}", wrong=False)
            return None
        except Exception as exc:  # any other error is counted too, never fatal
            self.fail(op, key, f"{type(exc).__name__}: {exc}")
            return None
        self.samples[op].append(time.perf_counter() - t0)
        return out

    def fail(self, op, key, message, wrong=True):
        self.failed += 1
        self.wrong += wrong
        self.failures.append((op, key, message))

    def expect(self, op, key, ok, message):
        if not ok:
            self.fail(op, key, message)
        return ok

    def check_residual(self, op, key, A, v):
        with self.tr.span("core.residual", key):
            res = residual(A, v)
        return self.expect(op, key, res <= RESIDUAL_MAX, f"residual {res:.3e}")

    # -- one visit of a chain -----------------------------------------------

    def visit(self, c, round_no, cli_rounds, replay=False):
        with self.tr.span("visit", c.key):
            out = self.call("iso", c.key, isospectral_stationary, c.A, c.cfg)
            v_iso = None
            if out is not None:
                v_iso = out.v.values
                if self.inject_wrong:
                    v_iso = np.full_like(v_iso, 1.0 / v_iso.size)
                    self.inject_wrong = False
                with self.tr.span("check", c.key):
                    self.expect("iso", c.key, out.converged, "inner solve hit max_iters")
                    self.check_residual("iso", c.key, c.A, v_iso)

            d = self.call("direct", c.key, direct_stationary, c.A)
            v_direct = None
            if d is not None:
                v_direct = d.v.values
                with self.tr.span("check", c.key):
                    self.check_residual("direct", c.key, c.A, v_direct)
                    if v_iso is not None:
                        gap = _l1(v_iso, v_direct)
                        self.expect("iso", c.key, gap <= ISO_VS_DIRECT_L1, f"L1 to direct {gap:.3e}")

            # the reduction the scheme made, over its kept set after any retry
            S = out.reduction.S if out is not None else c.S
            rec = self.call("reduce", c.key, reduce_block, c.A, S)
            if rec is not None:
                with self.tr.span("check", c.key):
                    self.check_reduction(c, rec)
                X, T = (rec.R, _drop_smallest_diagonals(rec.R)) if c.nested else (c.A, rec.S)
                self.second_level(c.key, X, T, None if c.nested else rec)

            if c.cli_argv is not None and (c.key + round_no) % cli_rounds == 0:
                code = self.call("cli", c.key, _quiet, cli.main, c.cli_argv)
                if code not in (None, 0):
                    self.samples["cli"].pop()  # a failed call gives no latency sample
                if code == 2:  # the CLI's exit code for an IsoredError
                    self.fail("cli", c.key, "exit code 2", wrong=False)
                elif code is not None and self.expect("cli", c.key, code == 0, f"exit code {code}"):
                    with self.tr.span("check", c.key):
                        with self.tr.span("mmio.read_vector", c.key):
                            v = mmio.read_vector(c.cli_argv[-1])
                        if v_direct is not None:
                            gap = _l1(v, v_direct)
                            self.expect("cli", c.key, gap <= ISO_VS_DIRECT_L1, f"L1 to direct {gap:.3e}")

        if replay and out is not None:
            v = self.replay_iso(c)
            self.expect("replay", c.key, np.array_equal(v, out.v.values),
                        "replayed steps give another vector than isospectral_stationary")

    def check_reduction(self, c, rec):
        lift = rec.lift
        self.expect("reduce", c.key, bool(np.all(np.isfinite(lift))) and (lift.size == 0 or lift.min() >= 0),
                    "lift not finite and non-negative")
        if c.nested:
            return
        # small dense chains: the reduction contracts (diameter) and lifts the smallest entry
        with self.tr.span("spectral.diameter_tau", c.key):
            tau_A, tau_R = diameter_tau(c.A), diameter_tau(rec.R)
        self.expect("reduce", c.key, tau_R <= tau_A + REDUCTION_GAP, f"tau grew {tau_A} -> {tau_R}")
        with self.tr.span("spectral.min_entry", c.key):
            m, m_R = min_entry(c.A), min_entry(rec.R)
        floor = m / (1.0 - (c.A.n - len(rec.S)) * m) - 1e-12
        self.expect("reduce", c.key, m_R >= floor, f"min entry {m_R} below {floor}")

    def second_level(self, key, X, T, block):
        """Node-by-node reduction and greedy selection on the chain X over T."""
        seq = self.call("seq", key, reduce_sequential, X, T)
        if seq is not None:
            with self.tr.span("check", key):
                if block is None:
                    with self.tr.span("reduction.reduce_block", key):
                        block = reduce_block(X, T)
                gap = float(np.abs(seq.R.dense - block.R.dense).max())
                self.expect("seq", key, gap <= REDUCTION_GAP, f"differs from reduce_block by {gap:.3e}")
        G = self.call("greedy", key, select_subset, X, PivotGreedy(len(T)))
        if G is not None:
            with self.tr.span("check", key):
                self.expect("greedy", key, len(G) == len(T), f"kept {len(G)} of {len(T)}")
                try:
                    with self.tr.span("reduction.reduce_block", key):
                        reduce_block(X, G)
                except SingularElimination as exc:
                    self.fail("greedy", key, f"greedy set not reducible: {exc}", wrong=False)

    def visit_graph(self, g):
        with self.tr.span("visit", g.key):
            G = self.call("sym_from", g.key, symbolic.WeightedDigraph.from_matrix, g.M)
            if G is None:
                return
            red = self.call("symreduce", g.key, symbolic.graph_reduce, G, g.S)
            if red is None:
                return
            vals = self.call("sym_eval", g.key, symbolic.evaluate_at, red, Fraction(1))
            if vals is None:
                return
            with self.tr.span("check", g.key):
                with self.tr.span("reduction.reduce_block", g.key):
                    numeric = reduce_block(g.A, g.S).R.dense
                gap = float(np.abs(vals.astype(np.float64) - numeric).max())
                self.expect("symreduce", g.key, gap <= REDUCTION_GAP, f"exact vs numeric {gap:.3e}")

    # -- traced run only ----------------------------------------------------

    def _inner(self, R, cfg, key):
        """The reduced solve exactly as the scheme dispatches it."""
        mode = cfg.inner
        if mode == "auto":
            mode = "direct" if R.n <= DIRECT_SIZE_LIMIT else "pf"
        if mode == "direct":
            with self.tr.span("solvers.direct_stationary", key):
                return direct_stationary(R)
        with self.tr.span("solvers.perron_frobenius", key):
            inner = perron_frobenius(R, cfg)
        self.layer["inner_pf_iters"].append(inner.iterations)
        return inner

    def replay_iso(self, c):
        """Redo the scheme's public steps one by one, each in its own span."""
        A, cfg, key, tr = c.A, c.cfg, c.key, self.tr
        with tr.span("core.validate_stochastic", key):
            validate_stochastic(A.data)
        with tr.span("replay.iso", key):
            s = cfg.s if cfg.s is not None else max(1, A.n // 10)
            strategy = cfg.strategy if cfg.strategy is not None else RandomS(s, cfg.seed)
            retries = 0
            while True:
                try:
                    with tr.span("reduction.select_subset", key):
                        S = select_subset(A, strategy)
                    with tr.span("reduction.reduce_block", key):
                        rec = reduce_block(A, S)
                    break
                except SingularElimination:
                    retries += 1
                    if retries >= MAX_REDUCTION_ATTEMPTS:
                        raise
                    strategy = RandomS(getattr(strategy, "s", s), cfg.seed + 1000 + retries)
            iterative = cfg.inner == "pf" or (cfg.inner == "auto" and len(rec.S) > DIRECT_SIZE_LIMIT)
            inner = self._inner(rec.R, cfg, key)
            redraws = 0
            if iterative and cfg.max_rereductions > 0:
                while redraws < cfg.max_rereductions:
                    try:
                        with tr.span("solvers.estimate_inner_radius", key):
                            rho = estimate_inner_radius(rec.R, inner.v, seed=cfg.seed + redraws)
                    except NoConvergence:
                        rho = 1.0
                    if rho <= cfg.regap_threshold:
                        break
                    redraws += 1
                    strategy = RandomS(getattr(strategy, "s", s), cfg.seed + 2000 + redraws)
                    with tr.span("reduction.select_subset", key):
                        S = select_subset(A, strategy)
                    try:
                        with tr.span("reduction.reduce_block", key):
                            rec = reduce_block(A, S)
                    except SingularElimination:
                        continue
                    inner = self._inner(rec.R, cfg, key)
            with tr.span("reduction.reconstruct_stationary", key):
                v = reconstruct_stationary(rec, inner.v)
            with tr.span("core.residual", key):
                residual(A, v.values)
        self.layer["retries"].append(retries)
        self.layer["rereductions"].append(redraws)
        self.layer["cond_estimate"].append(rec.condition_estimate)
        return v.values

    def extras(self, spec, seed, chains, graphs):
        """Baselines and probes that only the traced run makes."""
        with self.tr.span("extras"):
            self._extras(spec, seed, chains, graphs)

    def _extras(self, spec, seed, chains, graphs):
        small = isinstance(spec, SmallSpec)
        pf_chains = chains if small else chains[: spec.pf_instances]
        for c in pf_chains:
            out = self.call("pf", c.key, perron_frobenius, c.A,
                            SolverConfig(p=8, max_iters=PF_MAX_ITERS, seed=c.cfg.seed))
            if out is None:
                continue
            self.layer["pf_iters"].append(out.iterations)
            if out.converged:
                with self.tr.span("check", c.key):
                    self.check_residual("pf", c.key, c.A, out.v.values)
            else:
                self.not_converged += 1
        for c in chains if small else chains[: spec.rho_instances]:
            rho = self.call("rho", c.key, inner_spectral_radius, c.A)
            if rho is not None:
                self.expect("rho", c.key, 0.0 <= rho <= 1.0 + 1e-9, f"inner radius {rho}")
        if not small:
            cfg = bench.RunConfig(trials=spec.instances, n=spec.n, nnz=spec.nnz, alpha=spec.alpha,
                                  s=spec.s, seed=seed, baseline="direct")
            for k in range(spec.trials):
                rec = self.call("run_trial", k, bench.run_trial, cfg, k)
                if rec is not None:
                    self.expect("run_trial", k, rec.ok and rec.d <= ISO_VS_DIRECT_L1,
                                f"trial flags {rec.flags}, distance {rec.d}")
        for g in graphs:
            G = symbolic.WeightedDigraph.from_matrix(g.M)
            found = self.call("branches", g.key, symbolic.branches, G, g.S)
            if found is not None:
                self.layer["branches"].append(len(found))
