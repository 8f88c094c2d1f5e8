import dataclasses

import numpy as np
import pytest

from helpers import planted_instance, rand_sparse
from nmfkit.bench import (
    BenchReport,
    BenchRow,
    compare_inits,
    multi_restart,
    relative_error,
    svd_baseline_error,
    w0_storage_bytes,
)
from nmfkit.convergence import MaxIterOnly
from nmfkit.corpus import mini_matrix
from nmfkit.errors import InvalidConfig, NonpositiveBaseline
from nmfkit.initializers import STRATEGY_NAMES, InitStrategy
from nmfkit.solvers import ALGORITHMS, SolverConfig, solve


class TestRelativeError:
    def test_exact_factorization_minus_one(self):
        # residual 0 against baseline 2: Error = (0 - 2) / 2 = -1
        rng = np.random.default_rng(0)
        W = rng.random((6, 2))
        H = rng.random((2, 5))
        import scipy.sparse as sp

        A = sp.csc_array(W @ H)
        assert relative_error(A, W, H, 2.0) == pytest.approx(-1.0, abs=1e-6)

    def test_matches_dense_oracle(self):
        A = rand_sparse(10, 8, seed=1)
        rng = np.random.default_rng(2)
        W = rng.random((10, 3))
        H = rng.random((3, 8))
        resid = float(np.linalg.norm(A.todense() - W @ H, "fro"))
        assert relative_error(A, W, H, 5.0) == pytest.approx((resid - 5.0) / 5.0, rel=1e-10)

    def test_nonpositive_baseline(self):
        A = rand_sparse(5, 4)
        with pytest.raises(NonpositiveBaseline):
            relative_error(A, np.ones((5, 2)), np.ones((2, 4)), 0.0)


class TestSvdBaseline:
    def test_matches_dense_tail_oracle(self):
        A = rand_sparse(30, 20, seed=3)
        s = np.linalg.svd(np.asarray(A.todense()), compute_uv=False)
        oracle = float(np.sqrt((s[4:] ** 2).sum()))
        assert svd_baseline_error(A, 4) == pytest.approx(oracle, rel=1e-3)

    def test_rank_min_is_zero(self):
        # full-rank truncation reproduces A exactly
        A = rand_sparse(6, 4, density=0.9, seed=4)
        assert svd_baseline_error(A, 4) == pytest.approx(0.0, abs=1e-5)


class TestStorage:
    def test_dense_random_counts_every_entry(self):
        W = np.zeros((10, 3))
        assert w0_storage_bytes(W, "random") == 10 * 3 * 8

    def test_sparse_strategies_count_nonzeros(self):
        W = np.zeros((10, 3))
        W[0, 0] = 1.0
        W[4, 2] = 2.0
        assert w0_storage_bytes(W, "acol") == 2 * 16


class TestReportCsv:
    @staticmethod
    def _report():
        report = BenchReport()
        report.rows.append(
            BenchRow(
                algorithm="acls", init="acol", seed=1, iterations=30,
                wall_s=0.125, w0_storage_bytes=640, w0_build_s=0.001953125,
                errors={0: 0.5123456789012345, 30: 0.04999999999999999},
            )
        )
        return report

    def test_round_trip_lossless(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        report.write_csv(path)
        loaded = BenchReport.read_csv(path)
        assert len(loaded.rows) == 1
        a, b = report.rows[0], loaded.rows[0]
        assert (a.algorithm, a.init, a.seed, a.iterations) == (b.algorithm, b.init, b.seed, b.iterations)
        assert a.errors == b.errors
        assert a.wall_s == b.wall_s

    def test_error_rel_is_final_checkpoint(self):
        assert self._report().rows[0].error_rel == 0.04999999999999999

    def test_mean_error(self):
        report = self._report()
        assert report.mean_error("acol", 0) == pytest.approx(0.5123456789012345)


class TestCompareInits:
    def test_snapshot_only_run(self):
        A, _, _ = planted_instance(25, 20, 3, seed=5, noise=0.05)
        report = compare_inits(
            A, 3, strategies=["random", "acol"], seeds=[0, 1], checkpoints=[0],
            lambda_w=0.0, lambda_h=0.0, p=4,
        )
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.iterations == 0
            assert set(row.errors) == {0}
            assert row.errors[0] > 0

    def test_deterministic_rows(self):
        A, _, _ = planted_instance(25, 20, 3, seed=6, noise=0.05)
        kwargs = dict(strategies=["acol"], seeds=[3], checkpoints=[0, 4], p=4,
                      lambda_w=0.01, lambda_h=0.01)
        r1 = compare_inits(A, 3, **kwargs)
        r2 = compare_inits(A, 3, **kwargs)
        assert r1.rows[0].errors == r2.rows[0].errors

    def test_error_columns_at_requested_checkpoints(self):
        A, _, _ = planted_instance(25, 20, 3, seed=7, noise=0.05)
        report = compare_inits(
            A, 3, strategies=["random"], seeds=[0], checkpoints=[0, 5, 10],
            lambda_w=0.01, lambda_h=0.01,
        )
        assert set(report.rows[0].errors) == {0, 5, 10}

    def test_shared_w0_matches_one_call_per_algorithm(self):
        # one baseline and one W0 per (strategy, seed) serve every algorithm; a solve
        # that wrote into the shared W0 would change the algorithms solved after it
        A, _ = mini_matrix("tf")
        kwargs = dict(strategies=list(STRATEGY_NAMES), seeds=[0, 1], checkpoints=[0, 5, 10],
                      lambda_w=0.1, lambda_h=0.1, p=3)
        shared = compare_inits(A, 8, algorithms=ALGORITHMS, **kwargs)
        single = {
            (row.algorithm, row.init, row.seed): row
            for algorithm in ALGORITHMS
            for row in compare_inits(A, 8, algorithms=[algorithm], **kwargs).rows
        }
        assert len(shared.rows) == len(single) == len(ALGORITHMS) * len(STRATEGY_NAMES) * 2
        for row in shared.rows:
            ref = single[(row.algorithm, row.init, row.seed)]
            assert row.errors == ref.errors
            assert row.iterations == ref.iterations
            assert row.w0_storage_bytes == ref.w0_storage_bytes

    @pytest.mark.parametrize("seeds", [[], [0, -1]])
    def test_empty_or_negative_seeds_rejected(self, seeds):
        A, _, _ = planted_instance(25, 20, 3, seed=7, noise=0.05)
        with pytest.raises(InvalidConfig):
            compare_inits(A, 3, seeds=seeds)


class TestMultiRestart:
    def test_zero_restarts_rejected(self):
        A, _, _ = planted_instance(20, 15, 3, seed=8)
        with pytest.raises(InvalidConfig):
            multi_restart(A, SolverConfig(k=3), 0)

    def test_single_restart_equals_plain_solve(self):
        A, _, _ = planted_instance(20, 15, 3, seed=8)
        config = SolverConfig(k=3, lambda_w=0.01, lambda_h=0.01, max_iter=10, seed=4,
                              criterion=MaxIterOnly())
        init = InitStrategy(name="acol", p=4, seed=4)
        plain = solve(A, config, init)
        best = multi_restart(A, config, 1, init=init)
        assert np.array_equal(plain.factors.W, best.factors.W)
        assert np.array_equal(plain.factors.H, best.factors.H)

    def test_best_of_n_never_worse(self):
        from nmfkit.solvers import objective_sq

        A, _, _ = planted_instance(20, 15, 3, seed=9)
        config = SolverConfig(k=3, lambda_w=0.01, lambda_h=0.01, max_iter=12, seed=0)
        init = InitStrategy(name="random", seed=0)
        plain = solve(A, config, init)
        best = multi_restart(A, config, 8, init=init)
        assert objective_sq(A, best.factors.W, best.factors.H, config) <= objective_sq(
            A, plain.factors.W, plain.factors.H, config
        ) + 1e-12
