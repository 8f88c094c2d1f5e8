"""The benchmark drives nmfkit through names given as strings and through its job runner;
a rename, or a mini-grid job that fails in an untyped way, shows here."""

import importlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import rand_sparse
from nmfkit import errors, solvers
from nmfkit.initializers import InitStrategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _, _ in layers.patches()
        if not callable(getattr(module, attribute, None))
    ]
    assert not missing


# constrained (CLS) half-steps per sweep; the initial H is one more for every algorithm
CLS_HALVES = {"acls": 2, "ahcls": 2, "gdcls": 1, "mu": 0}


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
@pytest.mark.parametrize("algorithm", solvers.ALGORITHMS)
def test_traced_solve_spans_each_step_and_one_kkt(algorithm, split, monkeypatch):
    # the traced run divides layer times by the step spans' busy time, so every sweep
    # must pass through a wrapped step function and every k x k solve must sit inside one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    if split:
        monkeypatch.setattr(solvers, "_BLOCK_MIN_NNZ", 1)
    A = rand_sparse(60, 40, density=0.3, seed=45)
    config = solvers.SolverConfig(
        k=4, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=7, check_interval=5
    )
    recorder = spans.SpanRecorder()
    with recorder.patched(layers.patches()):
        result = solvers.solve(A, config, InitStrategy(name="random", seed=46))
    names = Counter(span[0] for span in recorder.spans)
    solver_layers = {"solvers.solve", "initializers.initialize", "solvers.step", "linalg.gram",
                     "linalg.solve", "linalg.solve_multi", "linalg.residual", "convergence.angular",
                     "solvers.kkt"}
    assert solver_layers <= set(names)
    assert result.iterations_run == 7
    assert names["solvers.solve"] == names["initializers.initialize"] == 1
    assert names["solvers.step"] == result.iterations_run
    assert names["solvers.kkt"] == 1
    assert names["linalg.solve"] == 1 + CLS_HALVES[algorithm] * result.iterations_run
    assert names["linalg.residual"] == len(result.trace.checkpoints) == 3
    assert names["convergence.angular"] == 2
    in_step = [
        span for span in recorder.spans
        if span[0] == "linalg.solve" and recorder.spans[span[3]][0] == "solvers.step"
    ]
    assert len(in_step) == CLS_HALVES[algorithm] * result.iterations_run


def test_mini_grid_jobs_finish_or_raise_typed_errors(monkeypatch, tmp_path):
    # one replica of the mini-grid workload, as the benchmark runs it: a job either
    # ends with finite, nonnegative factors and a plausible Error(t), or raises an NmfError
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    # Probe replaces these names at module level; monkeypatch puts them back afterwards
    monkeypatch.setattr(workloads.solvers, "initialize", workloads.solvers.initialize)
    monkeypatch.setattr(workloads.cli, "solve", workloads.cli.solve)
    workload = workloads.WORKLOADS["mini-grid"]
    inputs = workload.setup(1, tmp_path)
    probe, sink = workloads.Probe(), io.StringIO()
    jobs = [job for job in workload.jobs(1) if job.replica == 0]
    assert len(jobs) == 108
    for job in jobs:
        out = workloads.run_job(job, inputs, probe, tmp_path, sink)
        if out.ok:
            assert out.factors_ok, job.key
            assert -0.05 <= out.error_rel <= inputs.matrices[job.matrix].zero_error, job.key
        else:
            assert issubclass(getattr(errors, out.error), errors.NmfError), job.key
