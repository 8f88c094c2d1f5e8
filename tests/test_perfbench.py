"""The benchmark drives nmfkit through names given as strings and through its job runner;
a rename, or a mini-grid job that fails in an untyped way, shows here."""

import importlib
import io
from pathlib import Path

from nmfkit import errors

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
