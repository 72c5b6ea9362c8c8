"""Command-line interface.

Subcommands: ``gen`` (write random instances), ``spectral`` (measurements of
one matrix), ``reduce`` (write a reduced matrix + lift + JSON sidecar),
``stationary`` (solve for the stationary measure), ``bench`` (baseline vs.
scheme comparison, CSV output), ``symreduce`` (exact graph reduction).

Matrix files are MatrixMarket; vertex numbers on the command line and in all
outputs are 1-based.  Row-stochastic inputs can be adapted with
``--transpose``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import bench, mmio, randgen, solvers, symbolic
from .core import IndexSet, StochasticMatrix, project_columns, validate_stochastic
from .errors import IsoredError
from .reduction import (
    FirstS,
    PivotGreedy,
    RandomS,
    reduce_block,
    reduce_sequential,
    select_subset,
)
from .spectral import spectral_report


def _load_stochastic(args):
    data = mmio.read_matrix(args.matrix)
    if args.transpose:
        data = data.T.tocsc() if sp.issparse(data) else np.ascontiguousarray(data.T)
    if args.project:
        return project_columns(data)
    return validate_stochastic(data)


def _add_matrix_arg(p):
    p.add_argument("matrix", help="matrix file (MatrixMarket)")
    p.add_argument("--transpose", action="store_true",
                   help="treat the file as row-stochastic and transpose it")
    p.add_argument("--project", action="store_true",
                   help="normalize column sums instead of validating them")


def _strategy(kind, s, seed):
    if kind == "first":
        return FirstS(s)
    if kind == "greedy":
        return PivotGreedy(s)
    return RandomS(s, seed)


def _positive_int(text):
    """argparse type of a count that must be at least 1: a bad value is a
    usage error (exit 2), not a traceback from ``SolverConfig``."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_keep(keep, n):
    """``--keep`` accepts a size or a comma-separated 1-based index list."""
    if "," in keep:
        return None, IndexSet.from_one_based([int(t) for t in keep.split(",") if t], n)
    return int(keep), None


def cmd_gen(args):
    if args.kind == "burr-sparse":
        M = randgen.gen_sparse_stochastic(
            randgen.SparseGenConfig(
                n=args.n, nnz_per_col=args.nnz,
                burr=randgen.BurrConfig(args.alpha), seed=args.seed,
            )
        )
    elif args.kind == "two-block":
        B = randgen.gen_dense_stochastic(args.block_size, seed=args.seed)
        M = randgen.make_two_block(args.a, args.p, B, variant=args.variant)
    elif args.kind == "banded":
        M = randgen.make_banded(args.n, args.bandwidth, seed=args.seed)
    else:
        M = randgen.make_near_averaging(args.n, args.decay, seed=args.seed)
    mmio.write_matrix(args.output, M)
    print(f"wrote {M.n}x{M.n} matrix ({M.nnz} nonzeros) to {args.output}")


def cmd_spectral(args):
    A = _load_stochastic(args)
    rep = spectral_report(A, edge_eps=args.edge_eps)
    if args.json:
        print(json.dumps({
            "n": rep.n, "tau": rep.tau, "rho_i": rep.rho_i, "gap": rep.gap,
            "m": rep.m, "num_classes": rep.num_classes,
            "num_essential": rep.num_essential, "non_critical": rep.non_critical,
        }, indent=2))
        return
    print(f"n            : {rep.n}")
    print(f"tau          : {rep.tau:.12g}")
    print(f"rho_i        : {rep.rho_i:.12g}")
    print(f"gap          : {rep.gap:.12g}")
    print(f"m            : {rep.m:.12g}")
    print(f"classes      : {rep.num_classes} ({rep.num_essential} essential)")
    print(f"non-critical : {rep.non_critical}")


def cmd_reduce(args):
    A = _load_stochastic(args)
    size, S = _parse_keep(args.keep, A.n)
    if S is None:
        S = select_subset(A, _strategy(args.strategy, size, args.seed))
    rec = reduce_sequential(A, S) if args.mode == "seq" else reduce_block(A, S)
    base = args.output
    mmio.write_matrix(f"{base}.R.mtx", rec.R)
    mmio.write_matrix(f"{base}.lift.mtx", rec.lift)
    with open(f"{base}.json", "w") as fh:
        json.dump({
            "S": (rec.S.array + 1).tolist(),
            "pivot_order": [k + 1 for k in rec.pivot_order],
            "condition_estimate": rec.condition_estimate,
        }, fh, indent=2)
    print(f"kept {len(rec.S)} of {A.n} vertices; condition estimate "
          f"{rec.condition_estimate:.3e}; wrote {base}.R.mtx, {base}.lift.mtx, {base}.json")


def cmd_stationary(args):
    A = _load_stochastic(args)
    s = args.keep_size if args.keep_size is not None else max(1, A.n // 10)
    cfg = solvers.SolverConfig(
        p=args.p, max_iters=args.max_iters, seed=args.seed, s=args.keep_size,
        strategy=_strategy(args.strategy, s, args.seed) if args.method == "iso" else None,
    )
    out = solvers.solve(A, args.method, cfg)
    if args.output:
        mmio.write_vector(args.output, out.v.values)
    if args.json:
        print(json.dumps({
            "method": out.method, "residual": out.residual,
            "iterations": out.iterations, "wall_time": out.wall_time,
            "converged": out.converged, "flags": list(out.flags),
            "v": [float(x) for x in out.v.values],
        }, indent=2))
        return
    print(f"method     : {out.method}")
    print(f"residual   : {out.residual:.6e}")
    print(f"iterations : {out.iterations}")
    print(f"wall_time  : {out.wall_time:.6f} s")
    if out.flags:
        print(f"flags      : {', '.join(out.flags)}")
    if args.output:
        print(f"wrote stationary vector to {args.output}")
    else:
        head = ", ".join(f"{x:.6g}" for x in out.v.values[:8])
        more = ", ..." if len(out.v) > 8 else ""
        print(f"v          : [{head}{more}]")


def cmd_bench(args):
    cfg = bench.RunConfig(
        trials=args.trials, n=args.n, nnz=args.nnz, alpha=args.alpha,
        s=args.keep, seed=args.seed, baseline=args.baseline,
        p=args.p, max_iters=args.max_iters,
    )
    records = bench.run_comparison(cfg, parallel=args.parallel)
    print(bench.format_summary(bench.summarize(records)))
    if args.output:
        bench.write_csv(args.output, records)
        print(f"wrote {len(records)} rows to {args.output}")
    return 0 if all(r.ok for r in records) else 1


def _parse_graph_file(path):
    """Edge list format: ``i j  c0 c1 ... / d0 d1 ...`` per line, 1-based
    vertices, polynomial coefficients ascending, rationals like 1/2 allowed."""
    edges = {}
    nmax = 0
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            tokens = line.split()
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            nmax = max(nmax, i + 1, j + 1)
            rest = tokens[2:]
            if "/" in rest:
                cut = rest.index("/")
                num = [Fraction(t) for t in rest[:cut]]
                den = [Fraction(t) for t in rest[cut + 1 :]]
            else:
                num, den = [Fraction(t) for t in rest], [Fraction(1)]
            edges[(i, j)] = symbolic.RationalFunction(
                symbolic.Polynomial(num), symbolic.Polynomial(den)
            )
    g = symbolic.WeightedDigraph(nmax)
    for (i, j), w in edges.items():
        g.add_edge(i, j, w)
    return g


def cmd_symreduce(args):
    G = _parse_graph_file(args.graph)
    S = IndexSet.from_one_based([int(t) for t in args.keep.split(",") if t], G.n)
    reduced = symbolic.graph_reduce(G, S)
    for a in range(reduced.n):
        for b in range(reduced.n):
            w = reduced.weight(a, b)
            if not w.is_zero():
                print(f"{reduced.labels[a] + 1} -> {reduced.labels[b] + 1} : {w!r}")
    if args.eval_at is not None:
        lam = Fraction(args.eval_at)
        vals = symbolic.evaluate_at(reduced, lam)
        print(f"evaluated at lambda = {lam}:")
        for row in vals:
            print("  [" + ", ".join(str(x) for x in row) + "]")


@functools.cache
def build_parser():
    """The ``isored`` argument parser, built once per process: argparse's
    per-argument setup costs milliseconds, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="isored",
                                 description="stationary measures via isospectral reduction")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random or structured matrix")
    p.add_argument("--kind", choices=["burr-sparse", "two-block", "banded", "near-avg"],
                   default="burr-sparse")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--nnz", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=float, default=0.25, help="two-block feeder weight")
    p.add_argument("--p", type=float, default=0.15, help="two-block escape mass")
    p.add_argument("--block-size", type=int, default=8)
    p.add_argument("--variant", choices=["padded", "L-weighted", "single-row"],
                   default="padded")
    p.add_argument("--bandwidth", type=int, default=2)
    p.add_argument("--decay", type=float, default=1.0, help="near-avg decay rate")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectral", help="spectral measurements of a matrix")
    _add_matrix_arg(p)
    p.add_argument("--edge-eps", type=float, default=0.0,
                   help="entries at or below this count as absent edges")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("reduce", help="isospectral reduction over a kept set")
    _add_matrix_arg(p)
    p.add_argument("--keep", required=True,
                   help="kept size, or comma-separated 1-based vertex list")
    p.add_argument("--strategy", choices=["first", "random", "greedy"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["block", "seq"], default="block")
    p.add_argument("-o", "--output", default="reduced",
                   help="output prefix for .R.mtx / .lift.mtx / .json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("stationary", help="solve A v = v on the simplex")
    _add_matrix_arg(p)
    p.add_argument("--method", choices=["pf", "iso", "direct"], default="iso")
    p.add_argument("--p", type=_positive_int, default=8, help="precision exponent")
    p.add_argument("--max-iters", type=_positive_int, default=10**6)
    p.add_argument("--keep", dest="keep_size", type=int, default=None)
    p.add_argument("--strategy", choices=["first", "random", "greedy"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None, help="write the vector here")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("bench", help="baseline vs. reduction scheme comparison")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--nnz", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--keep", type=int, default=90)
    p.add_argument("--trials", type=int, default=36)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--baseline", choices=["direct", "pf"], default="direct")
    p.add_argument("--p", type=_positive_int, default=8)
    p.add_argument("--max-iters", type=_positive_int, default=10**6)
    p.add_argument("--parallel", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("symreduce", help="exact graph reduction")
    p.add_argument("graph", help="edge-list file with rational-function weights")
    p.add_argument("--keep", required=True, help="comma-separated 1-based vertex list")
    p.add_argument("--eval", dest="eval_at", default=None,
                   help="also evaluate the reduced entries at this rational")
    p.set_defaults(func=cmd_symreduce)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except IsoredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(code) if code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
