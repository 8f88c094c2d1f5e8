"""Which nmfkit names the traced run wraps, and how spans become layer metrics.

Each entry of `patches()` wraps a module-level name that nmfkit's own
modules look up at call time, so the wrapper sees every call the program
makes through that name. Units and directions of the metrics live in
BENCHMARK.json; `MOVES` records which end-to-end metric each layer metric
should move, and on which workload.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict

from nmfkit import bench, cli, corpus, initializers, linalg, solvers
from nmfkit.initializers import STRATEGY_NAMES

from spans import self_times

FAILURE_TYPES = ("SingularSystem",)

MOVES = {
    "corpus.build_s": "setup_s on termdoc-*",
    "corpus.tokens_per_s": "setup_s on termdoc-*",
    **{f"initializers.busy_s.{s}": "init_s on termdoc-s-init (acol: near zero on termdoc-m-fixed)" for s in STRATEGY_NAMES},
    **{f"initializers.peak_mib.{s}": "init_peak_mib on termdoc-s-init" for s in STRATEGY_NAMES},
    "linalg.solve.calls": "iter_ms, factorize_s.{acls,ahcls,gdcls} on termdoc-m-fixed; solves_per_s on mini-grid; not factorize_s.mu",
    "linalg.solve.busy_s": "iter_ms, factorize_s.{acls,ahcls,gdcls} on termdoc-m-fixed; solves_per_s on mini-grid; not factorize_s.mu",
    "linalg.solve.retries": "iter_ms, factorize_s.{acls,ahcls,gdcls} on termdoc-m-fixed; solves_per_s on mini-grid",
    "linalg.solve.rhs": "iter_ms, factorize_s.{acls,ahcls,gdcls} on termdoc-m-fixed; solves_per_s on mini-grid",
    "linalg.gram.calls": "iter_ms on termdoc-m-fixed",
    "linalg.gram.busy_s": "iter_ms on termdoc-m-fixed",
    "linalg.residual.calls": "iter_ms",
    "linalg.residual.busy_s": "iter_ms",
    "linalg.svd.busy_s": "setup_s; init_s through svd-centroid",
    "linalg.kmeans.calls": "init_s, init_peak_mib on termdoc-s-init",
    "linalg.kmeans.busy_s": "init_s, init_peak_mib on termdoc-s-init",
    "solvers.step.calls": "iter_ms, factorize_s.* on termdoc-m-fixed",
    "solvers.step.busy_s": "iter_ms, factorize_s.* on termdoc-m-fixed",
    "solvers.step.self_s": "iter_ms, factorize_s.* on termdoc-m-fixed (sparse products, clip, repair)",
    "solvers.step.flops": "iter_ms, factorize_s.* on termdoc-m-fixed (modelled from nnz, m, n, k)",
    "solvers.step.gflop_per_s": "iter_ms, factorize_s.* on termdoc-m-fixed (modelled from nnz, m, n, k)",
    "solvers.driver.self_s": "iter_ms on termdoc-m-fixed (checkpoint W^T A, W copies)",
    "solvers.kkt.busy_s": "factorize_s.*",
    "solvers.iterations": "factorize_s.acls on termdoc-s-init",
    **{f"solvers.failed.{t}": "error_rel on mini-grid (a job that raises scores the zero factorization)" for t in FAILURE_TYPES},
    "solvers.failed.other": "error_rel on mini-grid (a job that raises scores the zero factorization)",
    "failed_frac": "error_rel on mini-grid (a job that raises scores the zero factorization)",
    "convergence.angular.calls": "iter_ms",
    "convergence.angular.busy_s": "iter_ms",
    "convergence.checkpoints": "iter_ms",
    "bench.svd_baseline.busy_s": "setup_s",
    "mmio.read.busy_s": "factorize_s.* on termdoc-m-fixed",
    "mmio.write.busy_s": "factorize_s.* on termdoc-m-fixed",
    "mmio.bytes_written": "factorize_s.* on termdoc-m-fixed",
    "cli.self_s": "factorize_s.* on termdoc-m-fixed (argument parsing, manifest sha256)",
    "trace.overhead_frac": "none: traced against untraced solves_per_s",
    "trace.coverage.acls": "none: span self times over ACLS job wall time",
}


def _step_flops(w_half: str, h_half: str):
    """Modelled flops of one sweep, from nnz(A), m, n and k.

    Each half-step does one sparse product (2 nnz k). A constrained solve adds
    a Gram product, a k x k Cholesky and two triangular solves; a
    multiplicative update adds a Gram product and a k x k by k x (m|n) product.
    """

    def info(A, W, *args, **kwargs):
        m, n = A.shape
        k = W.shape[1]
        sparse = 2.0 * A.nnz * k
        chol = k**3 / 3.0
        h = sparse + 2.0 * m * k * k + (chol + 2.0 * k * k * n if h_half == "cls" else 2.0 * k * k * n)
        w = sparse + 2.0 * n * k * k + (chol + 2.0 * k * k * m if w_half == "cls" else 2.0 * k * k * m)
        return h + w

    return info


def patches():
    """(module, attribute, span name, info) for every wrapped name."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "solve", "solvers.solve", None),
        (solvers, "solve", "solvers.solve", None),
        (cli, "read_sparse", "mmio.read", None),
        (cli, "write_dense", "mmio.write", lambda M, path: str(path)),
        (solvers, "initialize", "initializers.initialize", lambda A, k, strategy: strategy.name),
        (solvers, "acls_step", "solvers.step", _step_flops("cls", "cls")),
        (solvers, "ahcls_step", "solvers.step", _step_flops("cls", "cls")),
        (solvers, "mu_step", "solvers.step", _step_flops("mu", "mu")),
        (solvers, "gdcls_step", "solvers.step", _step_flops("mu", "cls")),
        (solvers, "gram", "linalg.gram", None),
        (solvers, "solve_spd_ridged", "linalg.solve", lambda G, B: int(B.shape[1])),
        (linalg, "solve_spd_multi", "linalg.solve_multi", None),
        (solvers, "residual_trace", "linalg.residual", None),
        (solvers, "angular_measure", "convergence.angular", None),
        (solvers, "stationarity_check", "solvers.kkt", None),
        (linalg, "spherical_kmeans", "linalg.kmeans", None),
        (initializers, "spherical_kmeans", "linalg.kmeans", None),
        (initializers, "truncated_svd", "linalg.svd", None),
        (bench, "truncated_svd", "linalg.svd", None),
        (bench, "svd_baseline_error", "bench.svd_baseline", None),
        (corpus, "build_matrix_from_texts", "corpus.build", None),
    ]


def _sums(spans, lo, hi):
    selfs = self_times(spans, lo, hi)
    busy, own, calls = defaultdict(float), defaultdict(float), Counter()
    for i in range(lo, hi):
        name = spans[i][0]
        busy[name] += spans[i][2] - spans[i][1]
        own[name] += selfs[i - lo]
        calls[name] += 1
    return busy, own, calls, selfs


def setup_metrics(spans, lo, hi, tokens: int) -> dict[str, float]:
    busy, _, calls, _ = _sums(spans, lo, hi)
    return {
        "corpus.build_s": busy["corpus.build"],
        "corpus.tokens_per_s": tokens * calls["corpus.build"] / busy["corpus.build"],
        "bench.svd_baseline.busy_s": busy["bench.svd_baseline"],
        "linalg.svd.busy_s": busy["linalg.svd"],
    }


def pass_metrics(spans, lo, hi, outcomes) -> tuple[dict[str, float], dict[str, float]]:
    """Layer metrics of one traced pass, and each layer's share of ACLS job time."""
    busy, own, calls, selfs = _sums(spans, lo, hi)
    init_busy = defaultdict(float)
    solve_children = Counter()
    rhs = flops = written = 0
    for i in range(lo, hi):
        name, start, end, parent, _, info = spans[i]
        if name == "initializers.initialize":
            init_busy[info] += end - start
        elif name == "linalg.solve":
            rhs += info
        elif name == "linalg.solve_multi" and parent >= lo and spans[parent][0] == "linalg.solve":
            solve_children[parent] += 1
        elif name == "solvers.step":
            flops += info
        elif name == "mmio.write":
            written += os.path.getsize(info)
    ok = [o for o in outcomes if o.ok]
    failures = Counter(o.error for o in outcomes if not o.ok)
    m = {f"initializers.busy_s.{s}": init_busy[s] for s in STRATEGY_NAMES}
    m.update({
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.busy_s": busy["linalg.solve"],
        "linalg.solve.retries": sum(c - 1 for c in solve_children.values()),
        "linalg.solve.rhs": rhs,
        "linalg.gram.calls": calls["linalg.gram"],
        "linalg.gram.busy_s": busy["linalg.gram"],
        "linalg.residual.calls": calls["linalg.residual"],
        "linalg.residual.busy_s": busy["linalg.residual"],
        "linalg.svd.busy_s": busy["linalg.svd"],
        "linalg.kmeans.calls": calls["linalg.kmeans"],
        "linalg.kmeans.busy_s": busy["linalg.kmeans"],
        "solvers.step.calls": calls["solvers.step"],
        "solvers.step.busy_s": busy["solvers.step"],
        "solvers.step.self_s": own["solvers.step"],
        "solvers.step.flops": flops,
        "solvers.step.gflop_per_s": flops / busy["solvers.step"] / 1e9,
        "solvers.driver.self_s": own["solvers.solve"],
        "solvers.kkt.busy_s": busy["solvers.kkt"],
        "solvers.iterations": sum(o.iterations for o in ok),
        **{f"solvers.failed.{t}": failures[t] for t in FAILURE_TYPES},
        "solvers.failed.other": sum(c for t, c in failures.items() if t not in FAILURE_TYPES),
        "failed_frac": (len(outcomes) - len(ok)) / len(outcomes),
        "convergence.angular.calls": calls["convergence.angular"],
        "convergence.angular.busy_s": busy["convergence.angular"],
        "convergence.checkpoints": sum(o.checkpoints for o in ok),
        "mmio.read.busy_s": busy["mmio.read"],
        "mmio.write.busy_s": busy["mmio.write"],
        "mmio.bytes_written": written,
        "cli.self_s": own["cli.main"],
    })

    # ACLS jobs: layer self times against the job's wall time measured outside the spans
    acls_jobs = {o.key: o.wall_s for o in ok if o.algorithm == "acls"}
    share = defaultdict(float)
    for i in range(lo, hi):
        job = spans[i][4]
        if job is not None and job.split("/", 1)[1] in acls_jobs:
            share[spans[i][0]] += selfs[i - lo]
    acls_wall = sum(acls_jobs.values())
    m["trace.coverage.acls"] = sum(share.values()) / acls_wall
    return m, {name: t / acls_wall for name, t in sorted(share.items())}
