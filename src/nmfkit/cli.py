"""Command-line interface: build-matrix, factorize, topics, benchmark,
compare-inits, and fetch-datasets.

Exit codes: 0 success; 2 usage, including out-of-range solver, initializer
and benchmark options; 3 data error (any NmfError that is not numerical, or a
missing file, such as a dataset archive not yet placed in --dest); 4
numerical failure (NumericalError). Every subcommand writes a manifest.json sufficient to
reproduce the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import compare_inits
from .convergence import AngularTol, FrobeniusTol, MaxIterOnly, match_columns
from .corpus import WEIGHTINGS, Vocabulary, build_matrix, top_terms
from .datasets import DATASETS, fetch
from .errors import DimensionMismatch, InvalidConfig, NmfError, NumericalError
from .initializers import STRATEGY_NAMES, InitStrategy
from .mmio import read_dense, read_sparse, write_dense, write_sparse
from .solvers import ALGORITHMS, SolverConfig, solve


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace, inputs: list) -> None:
    manifest = {
        "tool": "nmfkit",
        "version": __version__,
        "command": command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs if p and Path(p).exists()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _parse_criterion(spec: str):
    if spec == "maxiter":
        return MaxIterOnly()
    kind, _, eps = spec.partition(":")
    try:
        if kind == "frob":
            return FrobeniusTol(eps_f=float(eps))
        if kind == "angular":
            return AngularTol(eps_deg=float(eps) if eps else 1.0)
    except ValueError as exc:
        raise InvalidConfig(f"bad convergence spec {spec!r}: {exc}") from exc
    raise InvalidConfig(f"bad convergence spec {spec!r}; use maxiter|frob:EPS|angular:EPS")


def cmd_build_matrix(args) -> int:
    paths = sorted(p for p in Path(args.input).iterdir() if p.is_file())
    stopwords = None
    if args.stopwords:
        stopwords = frozenset(Path(args.stopwords).read_text().split())
    kwargs = {"weighting": args.weighting, "min_df": args.min_df}
    if stopwords is not None:
        kwargs["stopwords"] = stopwords
    A, vocab = build_matrix(paths, **kwargs)
    write_sparse(A, args.out)
    vocab.save(args.vocab)
    _write_manifest(Path(args.out).parent, "build-matrix", args, paths)
    print(f"wrote {args.out} ({A.shape[0]} terms x {A.shape[1]} docs, nnz={A.nnz}) and {args.vocab}")
    return 0


def cmd_factorize(args) -> int:
    A = read_sparse(args.matrix)
    config = SolverConfig(
        k=args.k,
        algorithm=args.algorithm,
        lambda_w=args.lambda_w,
        lambda_h=args.lambda_h,
        alpha_w=args.alpha_w,
        alpha_h=args.alpha_h,
        max_iter=args.max_iter,
        criterion=_parse_criterion(args.conv),
        check_interval=args.check_interval,
        burn_in=args.burn_in,
        seed=args.seed,
    )
    init_seed = args.init_seed if args.init_seed is not None else args.seed
    V = read_dense(args.svd_v) if args.svd_v else None
    init = InitStrategy(
        name=args.init, p=args.init_p, pool_fraction=args.init_pool_fraction,
        V=V, seed=init_seed,
    )
    result = solve(A, config, init)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dense(result.factors.W, out / "W.mtx")
    write_dense(result.factors.H, out / "H.mtx")
    result.trace.write_csv(out / "trace.csv")
    _write_manifest(out, "factorize", args, [args.matrix, args.svd_v])
    final = result.trace.checkpoints[-1]
    print(
        f"{args.algorithm} finished after {result.iterations_run} iterations "
        f"({result.termination}); ||A-WH||_F^2 = {final.objective_sq:.6g}; "
        f"stationarity residual = "
        f"{max(result.stationarity.max_residual_w, result.stationarity.max_residual_h):.3g}"
    )
    return 0


def cmd_topics(args) -> int:
    W = read_dense(args.w)
    vocab = Vocabulary.load(args.vocab)
    if W.shape[0] != len(vocab):
        raise DimensionMismatch(f"W has {W.shape[0]} rows but vocabulary has {len(vocab)} terms")
    order = np.arange(W.shape[1])
    if args.reorder_ref:
        W_ref = read_dense(args.reorder_ref)
        order = match_columns(W, W_ref)
    for pos, j in enumerate(order):
        terms = top_terms(W, vocab, int(j), args.top)
        label = ", ".join(f"{t} ({w:.3g})" for t, w in terms)
        print(f"basis {pos} (column {j}): {label}")
    _write_manifest(Path(args.w).parent, "topics", args, [args.w, args.vocab, args.reorder_ref])
    return 0


def cmd_benchmark(args) -> int:
    try:
        checkpoints = [int(t) for t in args.checkpoints.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"bad checkpoint list {args.checkpoints!r}: {exc}") from exc
    report = compare_inits(
        read_sparse(args.matrix),
        args.k,
        algorithms=args.algorithms.split(","),
        strategies=args.inits.split(","),
        seeds=list(range(args.seeds)),
        checkpoints=checkpoints,
        lambda_w=args.lambda_w,
        lambda_h=args.lambda_h,
        p=args.init_p,
    )
    report.write_csv(args.out)
    _write_manifest(Path(args.out).parent, "benchmark", args, [args.matrix])
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def cmd_fetch_datasets(args) -> int:
    matrix_path, vocab_path = fetch(args.name, args.dest, weighting=args.weighting)
    _write_manifest(Path(args.dest), "fetch-datasets", args, [matrix_path, vocab_path])
    print(f"{args.name}: {matrix_path} and {vocab_path}")
    return 0


def _add_bench_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--inits", default="random,acol")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--checkpoints", default="0,10,20,30")
    p.add_argument("--lambda-w", type=float, default=0.5)
    p.add_argument("--lambda-h", type=float, default=0.5)
    p.add_argument("--init-p", type=int, default=20)
    p.add_argument("--out", default="report.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nmfkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nmfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrix", help="build a term-document matrix from a directory of text files")
    p.add_argument("--input", required=True)
    p.add_argument("--weighting", choices=WEIGHTINGS, default="tf")
    p.add_argument("--min-df", type=int, default=2)
    p.add_argument("--stopwords", default=None)
    p.add_argument("--out", default="matrix.mtx")
    p.add_argument("--vocab", default="vocab.tsv")
    p.set_defaults(func=cmd_build_matrix)

    p = sub.add_parser("factorize", help="run an NMF solver and write W.mtx, H.mtx, trace.csv")
    p.add_argument("--matrix", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="acls")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda-w", type=float, default=0.0)
    p.add_argument("--lambda-h", type=float, default=0.0)
    p.add_argument("--alpha-w", type=float, default=0.5)
    p.add_argument("--alpha-h", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--conv", default="maxiter", help="maxiter | frob:EPS | angular:EPS")
    p.add_argument("--check-interval", type=int, default=5)
    p.add_argument("--burn-in", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=STRATEGY_NAMES, default="random")
    p.add_argument("--init-p", type=int, default=20)
    p.add_argument("--init-seed", type=int, default=None)
    p.add_argument("--init-pool-fraction", type=float, default=0.2)
    p.add_argument("--svd-v", default=None, help="precomputed V factor (Matrix Market array)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("topics", help="print top terms per basis vector")
    p.add_argument("--w", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top", type=int, default=6)
    p.add_argument("--reorder-ref", default=None, help="reorder columns by best cosine match to this W")
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("benchmark", help="error/time comparison across algorithms and initializers")
    _add_bench_options(p)
    p.add_argument("--algorithms", default="acls,ahcls,mu,gdcls")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("compare-inits", help="Error(t) table across initializers for one algorithm")
    _add_bench_options(p)
    p.add_argument("--algorithm", dest="algorithms", choices=ALGORITHMS, default="acls")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("fetch-datasets", help="convert a downloaded benchmark corpus archive")
    p.add_argument("name", help=f"one of: {', '.join(sorted(DATASETS))}")
    p.add_argument("--dest", default="data")
    p.add_argument("--weighting", choices=WEIGHTINGS, default="tfidf")
    p.set_defaults(func=cmd_fetch_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (NmfError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
