"""The three benchmark workloads: seeded inputs and the jobs run on them.

termdoc-m-fixed  solver hot path: ~20000 x 5000 tf-idf, k=50, the four
                 algorithms for 30 fixed iterations through `nmfkit factorize`
                 with --init acol.
termdoc-s-init   initializer cost and time to solution: ~5000 x 2000 tf-idf,
                 k=20, the centroid, svd-centroid, cooccurrence and random-c
                 initializers each followed by ACLS under angular stopping,
                 plus fixed-length AHCLS, MU and GDCLS runs from random-c.
mini-grid        many tiny solves: the bundled mini corpus in three
                 weightings x six initializers x six solver settings, k=8,
                 run through `solve` directly.

Each pass runs every job of a workload `replicas` times with different seeds.

Only public nmfkit entry points are called; a typed NmfError is a failed
job, any other exception aborts the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from corpus_gen import CorpusSpec, generate
from nmfkit import bench, cli, corpus, initializers, mmio, solvers
from nmfkit.convergence import AngularTol, MaxIterOnly
from nmfkit.errors import NmfError

ALGORITHMS = solvers.ALGORITHMS

SPEC_M = CorpusSpec(
    n_docs=5000, vocab_size=21000, n_topics=50, topic_size=400, mean_log_len=5.6, sigma_log_len=0.6
)
SPEC_S = CorpusSpec(
    n_docs=2000, vocab_size=6000, n_topics=20, topic_size=250, mean_log_len=4.2, sigma_log_len=0.6
)
# Tight enough that most ACLS runs go past the burn-in before the basis settles.
ANGULAR_EPS_DEG = 0.01
MINI_SETTINGS = (("acls", 0.5), ("mu", 0.5), ("gdcls", 0.5), ("ahcls", 0.0), ("ahcls", 0.5), ("ahcls", 0.9))


@dataclass
class Matrix:
    A: object
    svd_err: float
    norm: float
    path: str | None = None

    @property
    def zero_error(self) -> float:
        """Error(t) of the all-zero factorization, the score of a failed job."""
        return (self.norm - self.svd_err) / self.svd_err


@dataclass
class Inputs:
    matrices: dict[str, Matrix]
    tokens: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, mat in sorted(self.matrices.items()):
            A = mat.A
            for part in (A.indptr, A.indices, A.data):
                h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr((name, mat.svd_err)).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class Job:
    key: str
    matrix: str
    algorithm: str
    init: str
    k: int
    seed: int
    lambda_: float
    alpha: float = 0.5
    max_iter: int = 30
    angular_eps: float | None = None
    init_p: int = 20
    via_cli: bool = False
    replica: int = 0

    def config(self) -> solvers.SolverConfig:
        criterion = MaxIterOnly() if self.angular_eps is None else AngularTol(eps_deg=self.angular_eps)
        return solvers.SolverConfig(
            k=self.k, algorithm=self.algorithm, lambda_w=self.lambda_, lambda_h=self.lambda_,
            alpha_w=self.alpha, alpha_h=self.alpha, max_iter=self.max_iter,
            criterion=criterion, check_interval=5, burn_in=10, seed=self.seed,
        )

    def strategy(self) -> initializers.InitStrategy:
        return initializers.InitStrategy(name=self.init, p=self.init_p, seed=self.seed)

    def argv(self, matrix_path: str, out_dir: Path) -> list[str]:
        conv = "maxiter" if self.angular_eps is None else f"angular:{self.angular_eps!r}"
        return [
            "factorize", "--matrix", matrix_path, "--k", str(self.k),
            "--algorithm", self.algorithm, "--lambda-w", repr(self.lambda_),
            "--lambda-h", repr(self.lambda_), "--alpha-w", repr(self.alpha),
            "--alpha-h", repr(self.alpha), "--max-iter", str(self.max_iter),
            "--conv", conv, "--check-interval", "5", "--burn-in", "10",
            "--seed", str(self.seed), "--init", self.init, "--init-p", str(self.init_p),
            "--out-dir", str(out_dir),
        ]


@dataclass
class Outcome:
    key: str
    algorithm: str
    init: str
    wall_s: float
    init_s: float
    error: str | None = None
    objective_sq: float | None = None
    iterations: int = 0
    solve_elapsed_s: float = 0.0
    checkpoints: int = 0
    error_rel: float = 0.0
    factors_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.error is None


class Probe:
    """Always-on, near-free hooks: time `initialize` and capture the CLI's result.

    Two perf_counter reads per job; the program's own timing is unchanged.
    """

    def __init__(self):
        self.init_s = 0.0
        self.result = None
        self.error: NmfError | None = None
        initialize, cli_solve = solvers.initialize, cli.solve

        def timed_initialize(*args, **kwargs):
            t0 = perf_counter()
            try:
                return initialize(*args, **kwargs)
            finally:
                self.init_s += perf_counter() - t0

        def captured_solve(*args, **kwargs):
            try:
                self.result = cli_solve(*args, **kwargs)
            except NmfError as exc:
                self.error = exc
                raise
            return self.result

        solvers.initialize = timed_initialize
        cli.solve = captured_solve

    def reset(self) -> None:
        self.init_s, self.result, self.error = 0.0, None, None


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    # k-means rounds in the clustering initializers, angular stopping, the
    # quality reached from a random initial W and the AHCLS failures all vary
    # with the seed, so a pass repeats the job list with this many seeds to keep
    # the spread across workload seeds small.
    replicas: int

    def setup(self, seed: int, work_dir: Path) -> Inputs:
        """Generate the corpus, build the matrix, compute the SVD baseline, write the .mtx."""
        if self.name == "mini-grid":
            texts = corpus.mini_corpus()
            matrices = {}
            for weighting in corpus.WEIGHTINGS:
                A, _ = corpus.build_matrix_from_texts(texts, weighting=weighting, min_df=2)
                matrices[weighting] = _matrix(A, self.k, seed)
            tokens = sum(len(t.split()) for t in texts)  # every mini-corpus word is a token
        else:
            spec = SPEC_M if self.name == "termdoc-m-fixed" else SPEC_S
            texts, tokens = generate(spec, seed, corpus.DEFAULT_STOPWORDS)
            A, _ = corpus.build_matrix_from_texts(texts, weighting="tfidf")
            mat = _matrix(A, self.k, seed)
            if self.name == "termdoc-m-fixed":
                mat.path = str(work_dir / "A.mtx")
                mmio.write_sparse(A, mat.path)
            matrices = {"tfidf": mat}
        return Inputs(matrices=matrices, tokens=tokens)

    def jobs(self, seed: int) -> list[Job]:
        """The jobs of one pass: `replicas` copies of the job list, each with its own seed."""
        return [
            dataclasses.replace(job, key=f"r{r}/{job.key}", replica=r)
            for r in range(self.replicas)
            for job in self._replica_jobs(seed * self.replicas + r)
        ]

    def _replica_jobs(self, seed: int) -> list[Job]:
        if self.name == "termdoc-m-fixed":
            return [
                Job(key=alg, matrix="tfidf", algorithm=alg, init="acol", k=self.k, seed=seed,
                    lambda_=0.1, via_cli=True)
                for alg in ALGORITHMS
            ]
        if self.name == "termdoc-s-init":
            # ACLS under angular stopping after each initializer, plus fixed-length
            # AHCLS, MU and GDCLS runs from random-c so every algorithm has a time here
            pairs = [(init, "acls") for init in ("centroid", "svd-centroid", "cooccurrence", "random-c")]
            pairs += [("random-c", alg) for alg in ("ahcls", "mu", "gdcls")]
            return [
                Job(key=f"{init}/{alg}", matrix="tfidf", algorithm=alg, init=init, k=self.k,
                    seed=seed, lambda_=0.1,
                    **({"max_iter": 200, "angular_eps": ANGULAR_EPS_DEG} if alg == "acls" else {}))
                for init, alg in pairs
            ]
        return [
            Job(key=f"{w}/{init}/{alg}" + (f"-a{alpha}" if alg == "ahcls" else ""), matrix=w,
                algorithm=alg, init=init, k=self.k, seed=seed, lambda_=0.5, alpha=alpha, init_p=3)
            for w in corpus.WEIGHTINGS
            for init in initializers.STRATEGY_NAMES
            for alg, alpha in MINI_SETTINGS
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("termdoc-m-fixed", k=50, replicas=3),
        Workload("termdoc-s-init", k=20, replicas=10),
        Workload("mini-grid", k=8, replicas=6),
    )
}


def _matrix(A, k: int, seed: int) -> Matrix:
    return Matrix(A=A, svd_err=bench.svd_baseline_error(A, k, seed=seed), norm=math.sqrt(float((A.data**2).sum())))


def describe(inputs: Inputs, workload: Workload, seed: int) -> dict:
    out = {"seed": seed, "k": workload.k, "tokens": inputs.tokens, "matrices": {}}
    for name, mat in inputs.matrices.items():
        m, n = mat.A.shape
        out["matrices"][name] = {
            "m": m, "n": n, "nnz": int(mat.A.nnz), "density": mat.A.nnz / (m * n),
            "svd_err": mat.svd_err, "norm": mat.norm,
        }
    return out


def run_job(job: Job, inputs: Inputs, probe: Probe, out_root: Path, sink: io.StringIO) -> Outcome:
    """Run one job; its wall time covers init + solve + final KKT check (+ CLI I/O)."""
    mat = inputs.matrices[job.matrix]
    probe.reset()
    sink.seek(0)
    sink.truncate()
    t0 = perf_counter()
    if job.via_cli:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(job.argv(mat.path, out_root / job.key))
        result, error = probe.result, probe.error
        if code != 0 and error is None:
            raise RuntimeError(f"job {job.key}: exit code {code} without an NmfError: {sink.getvalue()}")
    else:
        result = error = None
        try:
            result = solvers.solve(mat.A, job.config(), job.strategy())
        except NmfError as exc:
            error = exc
    wall = perf_counter() - t0
    out = Outcome(key=job.key, algorithm=job.algorithm, init=job.init, wall_s=wall, init_s=probe.init_s)
    if error is not None:
        out.error = type(error).__name__
        out.error_rel = mat.zero_error
        return out
    W, H = result.factors.W, result.factors.H
    out.factors_ok = bool(np.isfinite(W).all() and np.isfinite(H).all() and (W >= 0).all() and (H >= 0).all())
    final = result.trace.checkpoints[-1]
    out.objective_sq = final.objective_sq
    out.iterations = result.iterations_run
    out.solve_elapsed_s = final.elapsed_s
    out.checkpoints = len(result.trace.checkpoints)
    out.error_rel = (math.sqrt(final.objective_sq) - mat.svd_err) / mat.svd_err
    return out


def memory_pass(jobs: list[Job], inputs: Inputs) -> tuple[dict[str, float], float]:
    """Untimed tracemalloc peaks (MiB): per initializer strategy, and of any solve from W0.

    Replicas repeat the same shapes with other seeds, so only replica 0 runs.
    """
    init_peak: dict[str, float] = {}
    solve_peak = 0.0
    for job in (j for j in jobs if j.replica == 0):
        A = inputs.matrices[job.matrix].A
        W0, peak = _traced_peak(lambda: initializers.initialize(A, job.k, job.strategy()))
        init_peak[job.init] = max(init_peak.get(job.init, 0.0), peak)
        if W0 is not None:
            _, peak = _traced_peak(lambda: solvers.solve(A, job.config(), W0))
            solve_peak = max(solve_peak, peak)
    return init_peak, solve_peak


def _traced_peak(fn):
    tracemalloc.start()
    try:
        value = fn()
    except NmfError:
        value = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return value, peak / 2**20
