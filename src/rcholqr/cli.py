"""Command-line harness: generate, factorize, bench, bounds, verify-sketch.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when a
factorization breaks down.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, bounds, generators, qr, sparse
from .errors import CholeskyBreakdown, RcholqrError
from .sketch import (
    build_countsketch,
    build_gaussian,
    build_multisketch,
    combine_embedding,
    mix_seed,
    verify_embedding,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """Type of the seed flags: an integer >= 0, as a Philox key must be,
    and below 2**64, since ``mix_seed`` keeps 64 bits of it."""
    if not text.strip().removeprefix("+").isdecimal():
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    seed = int(text)
    if seed >= 1 << 64:
        raise argparse.ArgumentTypeError(f"need an integer < 2**64, got {text!r}")
    return seed


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=generators.FAMILIES, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--blocks", type=int, default=1000, help="stacked block count")
    p.add_argument("--block-size", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0, help="dense-family seed")


def _spec_from_args(args) -> generators.GeneratorSpec:
    return generators.GeneratorSpec(
        family=args.family, sigma=args.sigma,
        block_size=args.block_size, block_count=args.blocks, seed=args.seed)


def _add_alg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", choices=(bounds.CHOLQR2, bounds.SR, bounds.MR),
                   required=True)
    p.add_argument("--s1", type=int, default=0, help="CountSketch rows (mr)")
    p.add_argument("--s2", type=int, default=0, help="Gaussian rows (mr)")
    p.add_argument("--s", type=int, default=0, help="Gaussian rows (sr)")


def _add_embedding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps1", type=float, default=0.5)
    p.add_argument("--eps2", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.5, help="single-sketch epsilon")


def _sketch_params(args) -> bounds.SketchParams:
    """The one reading of --alg and the size flags, plus the eps flags where
    the command has them (only ``bounds`` uses embedding values).  No bound
    reads a failure probability, so none is set."""
    e = {k: getattr(args, k, 0.0) for k in ("eps1", "eps2", "eps")}
    if args.alg == bounds.MR:
        return bounds.SketchParams(bounds.MR, e1=e["eps1"], e2=e["eps2"],
                                   s1=args.s1, s2=args.s2)
    if args.alg == bounds.SR:
        return bounds.SketchParams(bounds.SR, e1=e["eps"], s1=args.s)
    return bounds.SketchParams.none()


def build_parser() -> _Parser:
    parser = _Parser(prog="rcholqr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen",
                       help="generate a test matrix as Matrix Market")
    _add_generator_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("factorize",
                       help="factorize a Matrix Market file")
    p.add_argument("--in", dest="infile", required=True)
    _add_alg_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-q", dest="out_q")
    p.add_argument("--out-r", dest="out_r")

    p = sub.add_parser("bench",
                       help="run seeded multi-trial experiments")
    _add_generator_flags(p)
    _add_alg_flags(p)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--master-seed", dest="master_seed", type=_seed, default=0)
    p.add_argument("--threshold", type=float, default=1e-12,
                   help="success orthogonality threshold")
    p.add_argument("--csv", required=True)

    p = sub.add_parser("bounds",
                       help="evaluate admissibility and predicted bounds")
    p.add_argument("--in", dest="infile", required=True)
    _add_alg_flags(p)
    _add_embedding_flags(p)
    p.add_argument("--dense-fraction", type=float, default=0.25)
    p.add_argument("--json", required=True)

    p = sub.add_parser("verify-sketch",
                       help="empirical embedding-inequality frequency")
    p.add_argument("--kind", choices=("count", "gauss", "multi"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=20, help="subspace dimension")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--s2", type=int, default=0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_gen(args) -> int:
    made = generators.generate(_spec_from_args(args))
    if not isinstance(made, sparse.CSRMatrix):
        made = sparse.from_dense(made)
    sparse.write_matrix_market(made, args.out)
    print(f"wrote {made.rows}x{made.cols} matrix ({made.nnz} entries) to {args.out}")
    return 0


def _cmd_factorize(args) -> int:
    x = sparse.as_dense(sparse.read_matrix_market(args.infile))
    try:
        result = qr.factorize(_sketch_params(args), x, args.seed)
    except CholeskyBreakdown as err:
        print(f"CholeskyBreakdown: stage {err.stage}, pivot {err.index}",
              file=sys.stderr)
        return 2
    print(f"orthogonality {qr.orthogonality(result.q):.6e}")
    print(f"residual {qr.residual(result.q, result.r, x):.6e}")
    if args.out_q:
        sparse.write_matrix_market(sparse.from_dense(result.q), args.out_q)
    if args.out_r:
        sparse.write_matrix_market(sparse.from_dense(result.r), args.out_r)
    return 0


def _cmd_bench(args) -> int:
    params = _sketch_params(args)
    config = bench.ExperimentConfig(
        generator=_spec_from_args(args),
        algorithm=params.mode,
        s1=params.s1,
        s2=params.s2,
        trials=args.trials,
        master_seed=args.master_seed,
        success_orth_threshold=args.threshold,
    )
    records, summary = bench.run_experiment(config)
    bench.emit_csv(records, args.csv)
    print(f"successes {summary.successes}/{summary.trials}")
    if summary.successes:
        print(f"mean orthogonality {summary.mean_orthogonality:.6e}")
        print(f"mean residual {summary.mean_residual:.6e}")
        print(f"mean wall time {summary.mean_wall_time_s:.6e} s")
    print(f"records written to {args.csv}")
    return 0


def _cmd_bounds(args) -> int:
    x = sparse.read_matrix_market(args.infile)
    report = bounds.build_bound_report(x, args.alg, _sketch_params(args),
                                       dense_fraction=args.dense_fraction)
    bench.emit_json(report, args.json)
    print(f"class {report.matrix_class}, admissible {report.admissible}")
    print(f"kappa measured {report.kappa_measured:.6e}, limit {report.kappa_limit:.6e}")
    print(f"predicted orthogonality {report.predicted_orth:.6e}")
    print(f"predicted residual {report.predicted_resid:.6e}")
    return 0


def _cmd_verify_sketch(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=mix_seed(args.seed, 0)))
    x = rng.standard_normal((args.m, args.n))
    op_seed = mix_seed(args.seed, 1)
    if args.kind == "count":
        op = build_countsketch(args.s1, args.m, op_seed)
        eps = args.eps
    elif args.kind == "gauss":
        op = build_gaussian(args.s1, args.m, op_seed)
        eps = args.eps
    else:
        if not args.s2:
            raise RcholqrError("multi kind needs --s2")
        op = build_multisketch(args.s1, args.s2, args.m, op_seed)
        eps = combine_embedding(args.eps, 0.0, args.eps, 0.0)
    fraction = verify_embedding(op, x, eps, args.trials, mix_seed(args.seed, 2))
    print(f"fraction {fraction:.4f} over {args.trials} trials")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "factorize": _cmd_factorize,
    "bench": _cmd_bench,
    "bounds": _cmd_bounds,
    "verify-sketch": _cmd_verify_sketch,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RcholqrError, OSError, ValueError) as err:
        print(f"rcholqr: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
