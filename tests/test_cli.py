import json
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nmfkit import bench, cli
from nmfkit.cli import main
from nmfkit.corpus import mini_corpus
from nmfkit.errors import NmfError, NumericalError
from nmfkit.mmio import read_dense, read_sparse


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    for i, text in enumerate(mini_corpus()):
        (d / f"doc{i:03d}.txt").write_text(text)
    return d


@pytest.fixture()
def matrix_path(corpus_dir, tmp_path):
    out = tmp_path / "matrix.mtx"
    vocab = tmp_path / "vocab.tsv"
    code = main([
        "build-matrix", "--input", str(corpus_dir),
        "--out", str(out), "--vocab", str(vocab),
    ])
    assert code == 0
    return out


def test_build_matrix_outputs(matrix_path, tmp_path):
    A = read_sparse(matrix_path)
    assert A.shape[1] == 60
    assert (tmp_path / "vocab.tsv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "nmfkit"
    assert "arguments" in manifest


def test_factorize_writes_factors_and_trace(matrix_path, tmp_path):
    out_dir = tmp_path / "run"
    code = main([
        "factorize", "--matrix", str(matrix_path), "--k", "4",
        "--algorithm", "acls", "--lambda-w", "0.1", "--lambda-h", "0.1",
        "--max-iter", "10", "--init", "acol", "--init-p", "3",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    W = read_dense(out_dir / "W.mtx")
    H = read_dense(out_dir / "H.mtx")
    assert W.shape == (read_sparse(matrix_path).shape[0], 4)
    assert H.shape == (4, 60)
    assert W.min() >= 0 and H.min() >= 0
    trace_lines = (out_dir / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0].startswith("iteration")
    assert len(trace_lines) >= 3
    assert (out_dir / "manifest.json").exists()


def test_factorize_deterministic(matrix_path, tmp_path):
    dirs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main([
            "factorize", "--matrix", str(matrix_path), "--k", "3",
            "--max-iter", "8", "--seed", "5", "--init", "random",
            "--out-dir", str(out_dir),
        ]) == 0
        dirs.append(out_dir)
    assert np.array_equal(read_dense(dirs[0] / "W.mtx"), read_dense(dirs[1] / "W.mtx"))
    assert np.array_equal(read_dense(dirs[0] / "H.mtx"), read_dense(dirs[1] / "H.mtx"))


def test_topics_prints_terms(matrix_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    main([
        "factorize", "--matrix", str(matrix_path), "--k", "8",
        "--lambda-w", "0.1", "--lambda-h", "0.1", "--max-iter", "20",
        "--init", "acol", "--init-p", "3", "--out-dir", str(out_dir),
    ])
    capsys.readouterr()
    code = main([
        "topics", "--w", str(out_dir / "W.mtx"),
        "--vocab", str(tmp_path / "vocab.tsv"), "--top", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("basis") >= 8


def test_compare_inits_writes_report(matrix_path, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = main([
        "compare-inits", "--matrix", str(matrix_path), "--k", "4",
        "--inits", "random,acol", "--seeds", "2", "--checkpoints", "0,4",
        "--init-p", "3", "--out", str(report),
    ])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 strategies x 2 seeds
    assert "error_0" in lines[0] and "error_4" in lines[0]


def test_benchmark_writes_report(matrix_path, tmp_path, capsys):
    report = tmp_path / "bench.csv"
    code = main([
        "benchmark", "--matrix", str(matrix_path), "--k", "4",
        "--algorithms", "acls,mu", "--inits", "acol", "--seeds", "1",
        "--checkpoints", "0,4", "--init-p", "3", "--out", str(report),
    ])
    assert code == 0
    text = report.read_text()
    assert "acls" in text and "mu" in text


def test_exit_code_numerical_error(matrix_path):
    # k larger than the matrix supports
    assert main(["factorize", "--matrix", str(matrix_path), "--k", "500"]) == 4


def test_exit_code_data_error(tmp_path):
    assert main(["factorize", "--matrix", str(tmp_path / "missing.mtx"), "--k", "2"]) == 3


def test_exit_code_usage_error(tmp_path, capsys):
    assert main(["fetch-datasets", "not-a-dataset", "--dest", str(tmp_path)]) == 2


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize("error", sorted(_all_subclasses(NmfError), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_exit_code_by_error_class(error, monkeypatch, tmp_path, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_topics", fail)
    expected = 4 if issubclass(error, NumericalError) else 3
    assert main(["topics", "--w", str(tmp_path / "W.mtx"), "--vocab", "v.tsv"]) == expected


@pytest.mark.parametrize("option", [
    ["--lambda-w", "-1"], ["--alpha-h", "2"], ["--check-interval", "0"], ["--max-iter", "0"],
    ["--init", "acol", "--init-p", "0"], ["--init-p", "-2"], ["--init-seed", "-1"],
    ["--seed", "-1"], ["--k", "0"], ["--init-pool-fraction", "0"],
])
def test_out_of_range_solver_option_is_usage_error(option, matrix_path, capsys):
    assert main(["factorize", "--matrix", str(matrix_path), "--k", "2", *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def _no_svd_baseline(*args, **kwargs):
    raise AssertionError("the SVD baseline ran before every option was checked")


@pytest.mark.parametrize("option", [
    ["--lambda-h", "-0.5"], ["--inits", "bogus"], ["--checkpoints", "0,x"],
    ["--checkpoints", "-5"], ["--k", "0"], ["--seeds", "0"], ["--seeds", "-3"],
])
def test_benchmark_negative_lambda_is_usage_error(option, matrix_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "svd_baseline_error", _no_svd_baseline)
    assert main([
        "compare-inits", "--matrix", str(matrix_path), "--k", "2", "--inits", "acol",
        "--seeds", "1", "--checkpoints", "0", "--init-p", "3",
        "--out", str(tmp_path / "r.csv"), *option,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_benchmark_unknown_algorithm_fails_before_any_work(matrix_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "svd_baseline_error", _no_svd_baseline)
    assert main([
        "benchmark", "--matrix", str(matrix_path), "--k", "2", "--algorithms", "acls,bogus",
        "--inits", "acol", "--seeds", "1", "--init-p", "3", "--out", str(tmp_path / "r.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1 and "bogus" in err


def test_benchmark_builds_baseline_and_each_w0_once(matrix_path, tmp_path, monkeypatch, capsys):
    calls = Counter()

    def counted(name):
        fn = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(bench, name, wrapper)

    counted("svd_baseline_error")
    counted("initialize")
    report = tmp_path / "bench.csv"
    assert main([
        "benchmark", "--matrix", str(matrix_path), "--k", "4", "--inits", "acol,random",
        "--seeds", "2", "--checkpoints", "0,4", "--init-p", "3", "--out", str(report),
    ]) == 0
    assert calls == {"svd_baseline_error": 1, "initialize": 4}
    rows = bench.BenchReport.read_csv(report).rows
    assert len(rows) == 16
    for init in ("acol", "random"):
        for seed in (0, 1):
            w0 = {(r.w0_build_s, r.w0_storage_bytes) for r in rows if (r.init, r.seed) == (init, seed)}
            assert len(w0) == 1


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in usage.replace("\\\n", " ").splitlines() if line.startswith("nmfkit ")]


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda c: c.split()[1])
def test_readme_cli_examples_parse(command):
    args = cli.build_parser().parse_args(shlex.split(command)[1:])
    assert args.func.__name__.startswith("cmd_")


def test_fetch_datasets_missing_archive_is_data_error(tmp_path, capsys):
    assert main(["fetch-datasets", "medlars", "--dest", str(tmp_path)]) == 3
    assert "med.tar.gz" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("conv", ["bogus", "frob", "frob:abc", "angular:95", "angular:0"])
def test_malformed_conv_is_usage_error(conv, matrix_path, capsys):
    assert main(["factorize", "--matrix", str(matrix_path), "--k", "2", "--conv", conv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
