"""Benchmark harness: SVD-normalized error curves, initializer comparison,
and multi-restart best-minimum search."""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonpositiveBaseline
from .initializers import InitStrategy, initialize
from .linalg import truncated_svd
from .solvers import SolveResult, SolverConfig, objective_sq, solve

_FLOAT_BYTES = 8
_INDEX_BYTES = 8


def relative_error(A, W, H, svd_err: float) -> float:
    """SVD-normalized error (||A - W H||_F - svd_err) / svd_err."""
    return _error_from_objective(objective_sq(A, W, H), svd_err)


def svd_baseline_error(A, k: int, seed: int = 0) -> float:
    """||A - U_k S_k V_k^T||_F from the randomized truncated SVD."""
    svd = truncated_svd(A, k, seed=seed)
    return math.sqrt(objective_sq(A, svd.U * svd.singular_values, svd.V.T))


def w0_storage_bytes(W0: np.ndarray, strategy_name: str) -> int:
    """Table-style storage accounting: dense arrays by size, sparse by nnz."""
    if strategy_name == "random":
        return W0.size * _FLOAT_BYTES
    return int(np.count_nonzero(W0)) * (_INDEX_BYTES + _FLOAT_BYTES)


@dataclass
class BenchRow:
    algorithm: str
    init: str
    seed: int
    iterations: int
    wall_s: float
    w0_storage_bytes: int
    w0_build_s: float
    errors: dict[int, float] = field(default_factory=dict)  # iteration -> Error(t)

    @property
    def error_rel(self) -> float:
        return self.errors[max(self.errors)]


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        checkpoints = sorted({t for row in self.rows for t in row.errors})
        header = [
            "algorithm",
            "init",
            "seed",
            "iterations",
            "wall_s",
            "w0_storage_bytes",
            "w0_build_s",
        ] + [f"error_{t}" for t in checkpoints]
        rows = sorted(self.rows, key=lambda r: (r.algorithm, r.init, r.seed))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [
                        row.algorithm,
                        row.init,
                        row.seed,
                        row.iterations,
                        repr(row.wall_s),
                        row.w0_storage_bytes,
                        repr(row.w0_build_s),
                    ]
                    + [repr(row.errors[t]) if t in row.errors else "" for t in checkpoints]
                )

    @classmethod
    def read_csv(cls, path) -> "BenchReport":
        report = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                errors = {
                    int(key[len("error_") :]): float(val)
                    for key, val in rec.items()
                    if key.startswith("error_") and val != ""
                }
                report.rows.append(
                    BenchRow(
                        algorithm=rec["algorithm"],
                        init=rec["init"],
                        seed=int(rec["seed"]),
                        iterations=int(rec["iterations"]),
                        wall_s=float(rec["wall_s"]),
                        w0_storage_bytes=int(rec["w0_storage_bytes"]),
                        w0_build_s=float(rec["w0_build_s"]),
                        errors=errors,
                    )
                )
        return report

    def mean_error(self, init: str, checkpoint: int) -> float:
        vals = [r.errors[checkpoint] for r in self.rows if r.init == init]
        return float(np.mean(vals))


def _checkpoint_interval(checkpoints: list[int]) -> int:
    positive = [t for t in checkpoints if t > 0]
    if not positive:
        return 1
    return math.gcd(*positive)


def compare_inits(
    A,
    k: int,
    algorithm: str = "acls",
    strategies: list[str] | None = None,
    seeds: list[int] | None = None,
    checkpoints: list[int] | None = None,
    lambda_w: float = 0.5,
    lambda_h: float = 0.5,
    p: int = 20,
    pool_fraction: float = 0.2,
) -> BenchReport:
    """Error(t) at the requested iteration checkpoints per (strategy, seed).

    Records W0 build time and storage alongside, mirroring the usual
    initializer-comparison table layout.
    """
    A = sp.csc_array(A)
    strategies = strategies or ["random", "acol"]
    seeds = seeds if seeds is not None else list(range(10))
    checkpoints = sorted(checkpoints or [0, 10, 20, 30])
    svd_err = svd_baseline_error(A, k)
    max_t = max(checkpoints)
    interval = _checkpoint_interval(checkpoints)
    report = BenchReport()
    for name in strategies:
        for seed in seeds:
            strat = InitStrategy(name=name, p=p, pool_fraction=pool_fraction, seed=seed)
            t0 = time.perf_counter()
            W0 = initialize(A, k, strat)
            build_s = time.perf_counter() - t0
            config = SolverConfig(
                k=k, algorithm=algorithm, lambda_w=lambda_w, lambda_h=lambda_h,
                max_iter=max(max_t, 1), check_interval=interval, seed=seed,
            )
            result = solve(A, config, W0)
            errors = {
                t: _error_from_objective(result.trace.objective_at(t), svd_err) for t in checkpoints
            }
            report.rows.append(
                BenchRow(
                    algorithm=algorithm,
                    init=name,
                    seed=seed,
                    iterations=result.iterations_run if max_t else 0,
                    wall_s=result.trace.checkpoints[-1].elapsed_s,
                    w0_storage_bytes=w0_storage_bytes(W0, name),
                    w0_build_s=build_s,
                    errors=errors,
                )
            )
    return report


def _error_from_objective(objective_sq: float, svd_err: float) -> float:
    if svd_err <= 0:
        raise NonpositiveBaseline(f"svd_err must be positive, got {svd_err}")
    return (math.sqrt(objective_sq) - svd_err) / svd_err


def multi_restart(
    A, config: SolverConfig, n_restarts: int, init: InitStrategy | None = None
) -> SolveResult:
    """Best-of-n restarts; all per-restart seeds derive from config.seed."""
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    init = init or InitStrategy(name="random")
    # restart 0 is the plain solve; later restarts reseed from the master seed
    derived = np.random.SeedSequence(config.seed).generate_state(n_restarts)
    best: SolveResult | None = None
    for i in range(n_restarts):
        if i == 0:
            run_config, run_init = config, init
        else:
            seed = int(derived[i])
            run_config = dataclasses.replace(config, seed=seed)
            run_init = dataclasses.replace(init, seed=seed)
        result = solve(A, run_config, run_init)
        if best is None or (
            result.trace.checkpoints[-1].objective_sq < best.trace.checkpoints[-1].objective_sq
        ):
            best = result
    return best
