"""Iterative NMF solvers: ACLS, AHCLS, and the MU / GDCLS baselines.

The four algorithms are one alternating scheme. They differ only in each
factor's penalty and in whether its half-step is a constrained least-squares
solve or a multiplicative update, which `_penalties` states once. All share
one driver, `solve`, which wires initialization, iteration, checkpointed
convergence evaluation, and a terminal KKT stationarity check. Its one
`_Products` forms W^T A and A H^T and keeps each half-step's Gram and product
pair, from which the checkpoints and the KKT check take their residuals.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .convergence import (
    AngularTol,
    Checkpoint,
    ConvergenceTrace,
    Criterion,
    MaxIterOnly,
    angular_measure,
    should_stop,
)
from .errors import DegenerateInput, InvalidConfig, InvalidRank, ZeroVector
from .initializers import InitStrategy, init_random_acol, initialize
from .linalg import (
    blas_threads,
    gram,
    residual_trace,
    row_blocks,
    set_blas_threads,
    solve_spd_ridged,
    trace_frob_sq,
    transpose_view,
)

ALGORITHMS = ("acls", "ahcls", "mu", "gdcls")

_MU_EPS = 1e-9
# Largest c 1^T M^-1 1 an AHCLS solve allows: M - c E stays positive definite, and
# the all-ones direction amplifies round-off by at most 1 / (1 - _ONES_CAP).
_ONES_CAP = 0.9

# A is split into _ROW_BLOCKS row blocks only when each gets at least _BLOCK_MIN_NNZ
# nonzeros on average. The rule reads nnz(A), never the core count, so the summation
# order of W^T A, and with it every result, is the same on every machine.
_ROW_BLOCKS = 4
_BLOCK_MIN_NNZ = 32768


def sparsity_hoyer(x) -> float:
    """Hoyer sparsity (sqrt(n) - ||x||_1/||x||_2) / (sqrt(n) - 1), in [0, 1]."""
    x = np.abs(np.asarray(x, dtype=float).ravel())
    n = x.size
    if n < 2:
        raise DegenerateInput("Hoyer sparsity is undefined for vectors of length < 2")
    peak = float(x.max())
    if peak == 0.0:
        raise ZeroVector("Hoyer sparsity is undefined for the zero vector")
    x /= peak  # scale-free, and squares of tiny entries no longer underflow
    l1, l2 = float(x.sum()), float(np.linalg.norm(x))
    rn = math.sqrt(n)
    return (rn - l1 / l2) / (rn - 1.0)


def ahcls_beta(k: int, alpha: float) -> float:
    """Ridge scale ((1 - alpha) sqrt(k) + alpha)^2 for the Hoyer-constrained system."""
    return ((1.0 - alpha) * math.sqrt(k) + alpha) ** 2


@dataclass
class SolverConfig:
    """Everything a solve needs besides the data matrix and initializer."""

    k: int
    algorithm: str = "acls"
    lambda_w: float = 0.0
    lambda_h: float = 0.0
    alpha_w: float = 0.5
    alpha_h: float = 0.5
    max_iter: int = 100
    criterion: Criterion = field(default_factory=MaxIterOnly)
    check_interval: int = 5
    burn_in: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.k < 1:
            raise InvalidConfig("k must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be >= 1")
        if self.lambda_w < 0 or self.lambda_h < 0:
            raise InvalidConfig("lambda_w and lambda_h must be nonnegative")
        if not (0 <= self.alpha_w <= 1 and 0 <= self.alpha_h <= 1):
            raise InvalidConfig("alpha_w and alpha_h must lie in [0, 1]")
        if self.check_interval < 1:
            raise InvalidConfig("check_interval must be >= 1")


@dataclass
class FactorPair:
    """Nonnegative factors W (m x k) and H (k x n)."""

    W: np.ndarray
    H: np.ndarray
    rank: int


@dataclass(frozen=True)
class StationarityReport:
    max_residual_w: float
    max_residual_h: float
    tol: float
    passed: bool


@dataclass
class SolveResult:
    factors: FactorPair
    trace: ConvergenceTrace
    iterations_run: int
    termination: str  # 'maxiter' | 'frobenius_tol' | 'angular_tol'
    stationarity: StationarityReport


def _clip(X: np.ndarray) -> np.ndarray:
    np.maximum(X, 0.0, out=X)
    return X


def _repair_zero_rows(H: np.ndarray, rng: np.random.Generator) -> None:
    """Replace all-zero H rows with small positives so HH^T stays full rank."""
    dead = np.flatnonzero(~H.any(axis=1))
    if dead.size:
        H[dead] = rng.random((dead.size, H.shape[1])) * (max(float(H.max()), 1.0) * 1e-3)


def _repair_zero_cols(W: np.ndarray, A, rng: np.random.Generator) -> None:
    """Replace all-zero W columns with a fresh random-Acol draw from rng."""
    dead = np.flatnonzero(~W.any(axis=0))
    if dead.size:
        W[:, dead] = init_random_acol(A, dead.size, p=min(20, A.shape[1]), seed=rng)


class _Penalty(NamedTuple):
    """Penalty ridge ||X||_F^2 - ones ||1^T X||^2 of a factor X with k rows (H, or W^T).

    A multiplicative factor's half-step is an MU update and its penalty is
    left out of the objective; the ridge still applies to the H^(0) solve.
    """

    ridge: float
    ones: float
    multiplicative: bool


def _penalties(
    algorithm: str, k: int, lambda_w=0.0, lambda_h=0.0, alpha_w=0.5, alpha_h=0.5
) -> tuple[_Penalty, _Penalty]:
    """(W, H) penalties: the only place the four algorithms differ."""
    if algorithm == "ahcls":
        return (
            _Penalty(lambda_w * ahcls_beta(k, alpha_w), lambda_w, False),
            _Penalty(lambda_h * ahcls_beta(k, alpha_h), lambda_h, False),
        )
    return (
        _Penalty(lambda_w, 0.0, algorithm in ("mu", "gdcls")),
        _Penalty(lambda_h, 0.0, algorithm == "mu"),
    )


def _config_penalties(config: SolverConfig | None) -> tuple[_Penalty, _Penalty]:
    if config is None:  # the bare fit: zero ridge on both factors
        return _penalties("acls", 1)
    return _penalties(
        config.algorithm, config.k, config.lambda_w, config.lambda_h, config.alpha_w, config.alpha_h
    )


def _system(G: np.ndarray, pen: _Penalty) -> np.ndarray:
    """M = G + ridge I - ones E, of the normal equations M X = B and the gradient 2 (M X - B)."""
    if pen.multiplicative:
        return G
    M = G + pen.ridge * np.eye(G.shape[0])
    if pen.ones:
        M -= pen.ones * np.ones(G.shape)
    return M


def _cls(G: np.ndarray, B: np.ndarray, pen: _Penalty) -> np.ndarray:
    """clip(B^T (G + ridge I - c E)^-1), C-ordered, for the Gram matrix G of the fixed factor.

    B has k rows, so the result has k columns. One Cholesky inverts
    M = G + ridge I, and the half-step is then one GEMM. An
    all-ones term enters by Sherman-Morrison with u = M^-1 1 and s = 1^T u;
    M - c E is positive definite iff c s < 1, so c = min(ones, _ONES_CAP / s).
    """
    inv = solve_spd_ridged(G + pen.ridge * np.eye(G.shape[0]), np.eye(G.shape[0]))
    if pen.ones:
        u = inv.sum(axis=1)
        s = float(u.sum())
        c = min(pen.ones, _ONES_CAP / s)
        inv += (c / (1.0 - c * s)) * np.outer(u, u)
    return _clip(B.T @ inv)


def _mu(X: np.ndarray, den: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Multiplicative update X * num / (den + eps), computed in den's memory."""
    den += _MU_EPS
    np.divide(num, den, out=den)
    den *= X
    return den


def _half_h(H, WtW, WtA, pen: _Penalty, rng) -> np.ndarray:
    """New H from W's products WtW = W^T W and WtA = W^T A."""
    if pen.multiplicative:
        return _mu(H, WtW @ H, WtA)
    H = _cls(WtW, WtA, pen).T
    _repair_zero_rows(H, rng)
    return H


def _half_w(A, W, HHt, AHt, pen: _Penalty, rng) -> np.ndarray:
    """New W from H's products HHt = H H^T and AHt = A H^T."""
    if pen.multiplicative:
        return _mu(W, W @ HHt, AHt)
    W = _cls(HHt, AHt.T, pen)
    _repair_zero_cols(W, A, rng)
    return W


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Products:
    """The products W^T A and A H^T of one solve, and the Gram and product pairs it keeps.

    With split, a CSR A of at least _ROW_BLOCKS * _BLOCK_MIN_NNZ nonzeros is cut
    into nnz-balanced row blocks whose products run on a thread pool (scipy's CSR
    kernels release the GIL; the workers call nothing of this package). Otherwise
    A is one block, its products run on the calling thread, and A^T is formed once.
    WtW, WtA come from the initial H; HHt, AHt from the latest W half-step.
    """

    def __init__(self, A, split: bool = False):
        self.WtW = self.WtA = self.HHt = self.AHt = None
        if not (split and A.format == "csr" and A.nnz >= _ROW_BLOCKS * _BLOCK_MIN_NNZ):
            self.blocks, self.transposed, self.pool = [A], [A.T], None
            return
        self.blocks = row_blocks(A, _ROW_BLOCKS)
        self.transposed = [transpose_view(b) for b in self.blocks]
        self.rows = np.cumsum([0] + [b.shape[0] for b in self.blocks]).tolist()
        self.workers = _cpu_count()
        self.pool = ThreadPoolExecutor(self.workers)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def wta(self, W: np.ndarray) -> np.ndarray:
        """W^T A: the blocks' k x n partial products, summed in block order.

        A block is submitted only once the partial `workers` blocks before it
        has been summed, so at most `workers` partials are held at a time.
        """
        if self.pool is None:
            return np.asarray(self.transposed[0] @ W).T
        rows, count = self.rows, len(self.blocks)

        def partial(i):
            return (self.transposed[i] @ W[rows[i] : rows[i + 1]]).T

        ahead = deque(self.pool.submit(partial, i) for i in range(min(self.workers, count)))
        total = ahead.popleft().result()
        for i in range(1, count):
            if i - 1 + self.workers < count:
                ahead.append(self.pool.submit(partial, i - 1 + self.workers))
            total += ahead.popleft().result()
        return total

    def aht(self, H: np.ndarray) -> np.ndarray:
        """A H^T, m x k without densifying A. Each block fills its own rows, so split equals unsplit."""
        if self.pool is None:
            return np.asarray(self.blocks[0] @ H.T)
        HT, rows = np.ascontiguousarray(H.T), self.rows
        out = np.empty((rows[-1], HT.shape[1]))

        def fill(i):
            out[rows[i] : rows[i + 1]] = self.blocks[i] @ HT

        list(self.pool.map(fill, range(len(rows) - 1)))  # reading each result re-raises a worker's error
        return out


def _sweep(
    A, W, H, pens: tuple[_Penalty, _Penalty], rng, products: _Products | None
) -> tuple[np.ndarray, np.ndarray]:
    """One alternating sweep: the H half-step from W, then the W half-step from the new H.

    Returns a new W and H, leaving the arguments as they were. products (by
    default a one-block one) runs the two sparse products. It drops what it
    held before they are formed, and then keeps the W half-step's HHt and AHt.
    """
    pen_w, pen_h = pens
    if rng is None and not (pen_w.multiplicative and pen_h.multiplicative):
        rng = np.random.default_rng(0)
    products = products or _Products(A)
    products.WtW = products.WtA = products.HHt = products.AHt = None
    WtA = products.wta(W)
    H = _half_h(H, gram(W), WtA, pen_h, rng)
    del WtA
    products.HHt, products.AHt = gram(H.T), products.aht(H)
    return _half_w(A, W, products.HHt, products.AHt, pen_w, rng), H


def acls_step(
    A, W, lambda_w: float, lambda_h: float, rng=None, *, products=None
) -> tuple[np.ndarray, np.ndarray]:
    """One ACLS sweep: ridge-penalized CLS for H, then for W, clipping each."""
    pens = _penalties("acls", W.shape[1], lambda_w, lambda_h)
    return _sweep(A, W, None, pens, rng, products)


def ahcls_step(
    A, W, lambda_w: float, lambda_h: float, alpha_w: float, alpha_h: float, rng=None,
    *, products=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One AHCLS sweep with Hoyer-targeted ridge beta and all-ones subtraction."""
    pens = _penalties("ahcls", W.shape[1], lambda_w, lambda_h, alpha_w, alpha_h)
    return _sweep(A, W, None, pens, rng, products)


def mu_step(A, W, H, *, products=None) -> tuple[np.ndarray, np.ndarray]:
    """One Lee-Seung multiplicative-update sweep (mean-squared-error form).

    Zero entries stay zero (the locking property); the epsilon floor only
    guards denominators.
    """
    return _sweep(A, W, H, _penalties("mu", W.shape[1]), None, products)


def gdcls_step(
    A, W, H, lambda_h: float, rng=None, *, products=None
) -> tuple[np.ndarray, np.ndarray]:
    """Hybrid step: CLS matrix solve for H (as ACLS), multiplicative update for W."""
    pens = _penalties("gdcls", W.shape[1], lambda_h=lambda_h)
    return _sweep(A, W, H, pens, rng, products)


def _run_step(A, W, H, c: SolverConfig, rng, products=None) -> tuple[np.ndarray, np.ndarray]:
    if c.algorithm == "acls":
        return acls_step(A, W, c.lambda_w, c.lambda_h, rng=rng, products=products)
    if c.algorithm == "ahcls":
        return ahcls_step(
            A, W, c.lambda_w, c.lambda_h, c.alpha_w, c.alpha_h, rng=rng, products=products
        )
    if c.algorithm == "mu":
        return mu_step(A, W, H, products=products)
    return gdcls_step(A, W, H, c.lambda_h, rng=rng, products=products)


def _penalty_value(X, pen: _Penalty) -> float:
    """The _Penalty value of X; none for a multiplicative factor. A sum times 0 is skipped."""
    if pen.multiplicative:
        return 0.0
    ridge = pen.ridge * float(np.sum(X * X)) if pen.ridge else 0.0
    ones = pen.ones * float(np.sum(X.sum(axis=0) ** 2)) if pen.ones else 0.0
    return ridge - ones


def objective_sq(A, W, H, config: SolverConfig | None = None) -> float:
    """||A - W H||_F^2 plus the configured penalty terms (if any)."""
    fit = residual_trace(A, W, H, gram(W), W.T @ A, trace_frob_sq(A))
    pen_w, pen_h = _config_penalties(config)
    return fit + (_penalty_value(H, pen_h) + _penalty_value(W.T, pen_w))


def _kkt_residual(X, G, B, pen: _Penalty) -> float:
    """max |min(X, grad)| for grad = 2 (X M - B), X with k columns, built in one array."""
    grad = X @ _system(G, pen)
    grad -= B
    grad *= 2.0
    return float(np.abs(np.minimum(X, grad, out=grad), out=grad).max())


def stationarity_check(
    A, W, H, tol: float = 1e-6, config: SolverConfig | None = None, *, products=None
) -> StationarityReport:
    """Projected-gradient KKT residual min(X, grad f) for both factors.

    The gradient matches the actually-optimized objective: penalty terms
    are included when a config is supplied. products (by default a one-block
    one) runs the products with A; its HHt and AHt, when they are those of the
    sweep that produced H, save recomputing them, and are dropped once used.
    """
    pen_w, pen_h = _config_penalties(config)
    products = products or _Products(A)
    if products.AHt is None:
        products.HHt, products.AHt = gram(H.T), products.aht(H)
    res_w = _kkt_residual(W, products.HHt, products.AHt, pen_w)
    products.HHt = products.AHt = None
    res_h = _kkt_residual(H.T, gram(W), products.wta(W).T, pen_h)
    return StationarityReport(res_w, res_h, tol, passed=max(res_w, res_h) <= tol)


def _initial_h(A, W, config: SolverConfig, rng, products: _Products | None = None) -> np.ndarray:
    """H^(0) by one CLS-and-clip step from W^(0), also for an MU H; products receives WtW, WtA."""
    pen_h = _config_penalties(config)[1]._replace(multiplicative=False)
    products = products or _Products(A)
    products.WtW, products.WtA = gram(W), products.wta(W)
    return _half_h(None, products.WtW, products.WtA, pen_h, rng)


def solve(A, config: SolverConfig, init: InitStrategy | np.ndarray) -> SolveResult:
    """Run the configured algorithm from the given initializer.

    Convergence is evaluated every check_interval iterations (and at the
    final iteration); early stopping only engages past burn_in. The trace
    always contains the iteration-0 checkpoint. The initializer sees A as
    given; the iterations use one CSR copy of it (none if A is CSR already).

    The solve runs under one thread budget. Both bundled OpenBLAS copies are
    held at one thread, a process-global setting that is restored when solve
    returns or raises; where the copies cannot be controlled, BLAS is left as
    it is. Only an A of 4 x 32768 nonzeros or more has its sparse products run
    on a pool, of one thread per core.
    """
    m, n = A.shape
    if config.k > min(m, n):
        raise InvalidRank(f"k={config.k} exceeds min{A.shape}={min(m, n)}")
    saved = blas_threads()
    set_blas_threads((1,) * len(saved))
    products = None
    try:
        rng = np.random.default_rng(config.seed)
        if isinstance(init, np.ndarray):
            W = np.array(init, dtype=float, copy=True)
            if W.shape != (m, config.k):
                raise InvalidRank(f"supplied W0 has shape {W.shape}, expected {(m, config.k)}")
        else:
            W = initialize(A, config.k, init)
        A = sp.csr_array(A)
        products = _Products(A, split=True)
        trace_ata = trace_frob_sq(A)
        H = _initial_h(A, W, config, rng, products)

        t0 = time.perf_counter()
        trace = ConvergenceTrace()
        trace.append(
            Checkpoint(
                iteration=0,
                objective_sq=residual_trace(A, W, H, products.WtW, products.WtA, trace_ata),
                theta_max_deg=None,
                elapsed_s=time.perf_counter() - t0,
            )
        )

        termination = "maxiter"
        iterations_run = config.max_iter
        for it in range(1, config.max_iter + 1):
            # steps return a new W, so W_prev holds the previous iterate without a copy
            W_prev = W
            W, H = _run_step(A, W, H, config, rng, products)
            if it % config.check_interval and it != config.max_iter:
                continue
            thetas = angular_measure(W_prev, W)
            del W_prev
            obj = residual_trace(A.T, H.T, W.T, products.HHt, products.AHt.T, trace_ata)
            trace.append(
                Checkpoint(
                    iteration=it,
                    objective_sq=obj,
                    theta_max_deg=float(np.max(thetas)),
                    elapsed_s=time.perf_counter() - t0,
                )
            )
            if it >= config.burn_in:
                reason = should_stop(config.criterion, trace, thetas)
                if reason is not None:
                    termination = reason
                    iterations_run = it
                    break

        # the last sweep's HHt and AHt serve the KKT check
        stationarity = stationarity_check(A, W, H, config=config, products=products)
    finally:
        set_blas_threads(saved)
        if products is not None:
            products.close()
    return SolveResult(
        factors=FactorPair(W=W, H=H, rank=config.k),
        trace=trace,
        iterations_run=iterations_run,
        termination=termination,
        stationarity=stationarity,
    )
