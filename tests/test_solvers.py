import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import planted_instance, rand_sparse
from nmfkit.convergence import AngularTol, MaxIterOnly
from nmfkit.corpus import mini_matrix
from nmfkit.errors import DegenerateInput, InvalidRank, NmfError, ZeroVector
import nmfkit
from nmfkit import solvers
from nmfkit.initializers import STRATEGY_NAMES, InitStrategy
from nmfkit.linalg import blas_threads, gram, set_blas_threads, solve_spd_multi
from nmfkit.solvers import (
    ALGORITHMS,
    SolverConfig,
    _repair_zero_cols,
    _Products,
    acls_step,
    ahcls_beta,
    ahcls_step,
    gdcls_step,
    mu_step,
    objective_sq,
    solve,
    sparsity_hoyer,
    stationarity_check,
)


class TestSparsityHoyer:
    def test_unit_vector_is_one(self):
        assert sparsity_hoyer(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_constant_vector_is_zero(self):
        assert sparsity_hoyer(np.ones(7)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # spar((3,4,0,0)): l1 = 7, l2 = 5 -> (2 - 7/5) / (2 - 1) = 0.6
        assert sparsity_hoyer(np.array([3.0, 4.0, 0.0, 0.0])) == pytest.approx(0.6, abs=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            sparsity_hoyer(np.zeros(5))

    def test_scalar_degenerate(self):
        with pytest.raises(DegenerateInput):
            sparsity_hoyer(np.array([2.0]))

    def test_tiny_entries_do_not_underflow(self):
        # squared, 3.7e-162 is subnormal; the plain l2 norm read 0.157 for this constant vector
        assert sparsity_hoyer(np.full(2, 3.67269622e-162)) == pytest.approx(0.0, abs=1e-12)

    @given(arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 100)))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_scale_invariant(self, x):
        if np.linalg.norm(x) == 0:
            return
        s = sparsity_hoyer(x)
        assert -1e-12 <= s <= 1.0 + 1e-12
        assert sparsity_hoyer(3.5 * x) == pytest.approx(s, abs=1e-9)


class TestAhclsBeta:
    def test_half_alpha_k9(self):
        # ((1 - 0.5) * 3 + 0.5)^2 = 4
        assert ahcls_beta(9, 0.5) == pytest.approx(4.0)

    def test_alpha_one_is_one(self):
        for k in (2, 5, 16):
            assert ahcls_beta(k, 1.0) == pytest.approx(1.0)

    def test_alpha_zero_is_k(self):
        for k in (2, 5, 16):
            assert ahcls_beta(k, 0.0) == pytest.approx(float(k))


class TestAclsStep:
    def test_identity_basis_recovers_a(self):
        # W = I and no penalty: the least-squares H is A itself
        rng = np.random.default_rng(0)
        dense = rng.random((4, 6)) + 0.1  # no zero rows
        A = sp.csc_array(dense)
        W_next, H = acls_step(A, np.eye(4), 0.0, 0.0, rng=np.random.default_rng(1))
        assert np.allclose(H, dense, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        # oracle: dense solve of (W^T W + lambda I) H = W^T A, then clip
        A = rand_sparse(12, 9, seed=1)
        rng = np.random.default_rng(2)
        W = rng.random((12, 4))
        lam = 0.3
        _, H = acls_step(A, W, lam, lam, rng=np.random.default_rng(3))
        oracle = np.linalg.solve(W.T @ W + lam * np.eye(4), W.T @ A.todense())
        assert np.allclose(H, np.maximum(oracle, 0.0), atol=1e-9)

    def test_huge_penalty_shrinks_h(self):
        A = rand_sparse(10, 8, seed=4)
        W = np.random.default_rng(5).random((10, 3))
        _, H = acls_step(A, W, 1e6, 1e6, rng=np.random.default_rng(6))
        assert np.abs(H).max() <= 1e-4

    def test_nonnegative_output(self):
        A = rand_sparse(15, 12, seed=7)
        W = np.random.default_rng(8).random((15, 4))
        W_next, H = acls_step(A, W, 0.1, 0.1, rng=np.random.default_rng(9))
        assert H.min() >= 0.0 and W_next.min() >= 0.0

    def test_zero_entries_can_reactivate(self):
        # unconstrained solve-and-clip does not lock zeros: find an entry
        # clipped to zero that returns positive on a later iteration
        rng = np.random.default_rng(42)
        A = sp.csc_array(rng.random((12, 10)) * (rng.random((12, 10)) < 0.5))
        W = rng.random((12, 3))
        srng = np.random.default_rng(0)
        _, H = acls_step(A, W, 0.05, 0.05, rng=srng)
        history = [H.copy()]
        for _ in range(6):
            W, H = acls_step(A, W, 0.05, 0.05, rng=srng)
            history.append(H.copy())
        reactivated = False
        for t in range(len(history) - 1):
            zeros = history[t] == 0.0
            for dt in range(1, len(history) - t):
                if np.any(zeros & (history[t + dt] > 0.0)):
                    reactivated = True
        assert reactivated


class TestAhclsStep:
    def test_reduces_to_acls_at_lambda_zero(self):
        A = rand_sparse(10, 8, seed=10)
        W = np.random.default_rng(11).random((10, 3))
        Wa, Ha = acls_step(A, W.copy(), 0.0, 0.0, rng=np.random.default_rng(12))
        Wb, Hb = ahcls_step(A, W.copy(), 0.0, 0.0, 0.5, 0.5, rng=np.random.default_rng(12))
        assert np.allclose(Ha, Hb, atol=1e-12)
        assert np.allclose(Wa, Wb, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        # oracle: dense solve of (W^T W + lam*beta*I - lam*E) H = W^T A
        A = rand_sparse(12, 9, seed=13)
        W = np.random.default_rng(14).random((12, 4))
        lam, alpha = 0.05, 0.5
        beta = ((1 - alpha) * 2.0 + alpha) ** 2
        _, H = ahcls_step(A, W, lam, lam, alpha, alpha, rng=np.random.default_rng(15))
        G = W.T @ W + lam * beta * np.eye(4) - lam * np.ones((4, 4))
        oracle = np.maximum(np.linalg.solve(G, W.T @ A.todense()), 0.0)
        assert np.allclose(H, oracle, atol=1e-9)

    def test_nonnegative_output(self):
        A = rand_sparse(15, 12, seed=16)
        W = np.random.default_rng(17).random((15, 4))
        Wn, H = ahcls_step(A, W, 0.1, 0.1, 0.8, 0.8, rng=np.random.default_rng(18))
        assert H.min() >= 0.0 and Wn.min() >= 0.0

    @staticmethod
    def _capped_system(lam):
        """(G, B, penalty, c, E) of an AHCLS H half-step; c is the all-ones coefficient solved with."""
        rng = np.random.default_rng(30)
        k = 6
        G = gram(rng.random((40, k)))
        B = rng.random((k, 25)) - 0.3  # some entries clip
        pen = solvers._penalties("ahcls", k, lam, lam, 0.9, 0.9)[1]
        M, E = G + pen.ridge * np.eye(k), np.ones((k, k))
        s = float(np.linalg.solve(M, np.ones(k)).sum())
        c = lam if lam * s < 0.9 else 0.9 / s
        return G, B, pen, c, E

    @pytest.mark.parametrize("lam, capped", [(0.5, False), (50.0, True)], ids=["lambda", "capped"])
    def test_cls_matches_dense_solve_with_capped_ones(self, lam, capped):
        # oracle: a dense solve of (G + ridge I - c E) X = B with c = min(lambda, 0.9 / 1^T M^-1 1)
        G, B, pen, c, E = self._capped_system(lam)
        assert (c < lam) == capped
        oracle = np.maximum(np.linalg.solve(G + pen.ridge * np.eye(len(G)) - c * E, B), 0.0).T
        X = solvers._cls(G, B, pen)
        assert np.abs(X - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_kkt_gradient_keeps_the_uncapped_lambda(self):
        G, B, pen, c, E = self._capped_system(50.0)
        X = solvers._cls(G, B, pen)
        M = G + pen.ridge * np.eye(len(G))

        def residual(coef):
            return np.abs(np.minimum(X, 2.0 * (X @ (M - coef * E) - B.T))).max()

        assert solvers._kkt_residual(X, G, B.T, pen) == pytest.approx(residual(pen.ones), rel=1e-12)
        assert residual(pen.ones) != pytest.approx(residual(c), rel=1e-3)

    def test_mini_grid_runs_all_finish(self):
        # lambda 0.5 makes G + ridge I - lambda E indefinite in 11 of these 36 runs without the cap
        for weighting in ("tf", "tfidf", "logent"):
            A, _ = mini_matrix(weighting)
            for init in ("acol", "svd-centroid", "centroid", "random"):
                for alpha in (0.0, 0.5, 0.9):
                    config = SolverConfig(k=8, algorithm="ahcls", lambda_w=0.5, lambda_h=0.5,
                                          alpha_w=alpha, alpha_h=alpha, max_iter=30)
                    factors = solve(A, config, InitStrategy(name=init)).factors
                    for X in (factors.W, factors.H):
                        assert np.isfinite(X).all() and X.min() >= 0.0, (weighting, init, alpha)


class TestClsHalfStep:
    def test_near_the_pivot_bound_matches_dense_solve(self):
        # an explicit inverse is not backward stable: hold it to a dense solve at cond * eps
        rng = np.random.default_rng(31)
        k = 8
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        G = (Q * np.logspace(0, -10, k)) @ Q.T
        G = (G + G.T) / 2
        solve_spd_multi(G, np.eye(k))  # inside the pivot bound: no ridge retry
        B = rng.standard_normal((k, 200))
        X = solvers._cls(G, B, solvers._Penalty(0.0, 0.0, False))
        oracle = np.maximum(np.linalg.solve(G, B), 0.0).T
        tol = np.linalg.cond(G) * np.finfo(float).eps
        assert np.abs(X - oracle).max() <= tol * np.abs(oracle).max()

    @pytest.mark.parametrize("algorithm", ["acls", "ahcls"])
    def test_w_half_step_returns_c_ordered_w(self, algorithm):
        # W^T A then reads W without a copy
        A = rand_sparse(30, 20, density=0.3, seed=32)
        W0 = np.random.default_rng(33).random((30, 4))
        config = SolverConfig(k=4, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=3)
        W, _ = solvers._run_step(sp.csr_array(A), W0, None, config, np.random.default_rng(34))
        assert W.flags.c_contiguous
        assert solve(A, config, W0).factors.W.flags.c_contiguous


class TestMuStep:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(19)
        W = rng.random((9, 3)) + 0.5
        H = rng.random((3, 7)) + 0.5
        A = sp.csc_array(W @ H)
        W2, H2 = mu_step(A, W, H)
        assert np.allclose(W2, W, atol=1e-7)
        assert np.allclose(H2, H, atol=1e-7)

    def test_monotone_objective(self):
        A = rand_sparse(14, 10, seed=20)
        rng = np.random.default_rng(21)
        W = rng.random((14, 3)) + 0.01
        H = rng.random((3, 10)) + 0.01
        prev = objective_sq(A, W, H)
        for _ in range(25):
            W, H = mu_step(A, W, H)
            cur = objective_sq(A, W, H)
            assert cur <= prev + 1e-9
            prev = cur

    def test_zeros_stay_locked(self):
        A = rand_sparse(10, 8, seed=22)
        rng = np.random.default_rng(23)
        W = rng.random((10, 3))
        H = rng.random((3, 8))
        W[2, 1] = 0.0
        H[0, 4] = 0.0
        for _ in range(10):
            W, H = mu_step(A, W, H)
            assert W[2, 1] == 0.0
            assert H[0, 4] == 0.0

    def test_matches_handwritten_update_oracle(self):
        # oracle: elementwise Lee-Seung formula written out directly
        A = rand_sparse(8, 6, seed=24)
        rng = np.random.default_rng(25)
        W = rng.random((8, 2)) + 0.1
        H = rng.random((2, 6)) + 0.1
        Ad = np.asarray(A.todense())
        eps = 1e-9
        H_exp = H * (W.T @ Ad) / (W.T @ W @ H + eps)
        W_exp = W * (Ad @ H_exp.T) / (W @ (H_exp @ H_exp.T) + eps)
        W2, H2 = mu_step(A, W, H)
        assert np.allclose(H2, H_exp, atol=1e-12)
        assert np.allclose(W2, W_exp, atol=1e-12)


class TestGdclsStep:
    def test_h_half_identical_to_acls(self):
        # GDCLS and ACLS share the constrained-least-squares H update
        A = rand_sparse(12, 9, seed=26)
        rng = np.random.default_rng(27)
        W = rng.random((12, 3))
        H = rng.random((3, 9))
        _, H_acls = acls_step(A, W.copy(), 0.0, 0.2, rng=np.random.default_rng(28))
        _, H_gdcls = gdcls_step(A, W.copy(), H.copy(), 0.2, rng=np.random.default_rng(28))
        assert np.array_equal(H_acls, H_gdcls)

    def test_w_half_is_multiplicative(self):
        # composition oracle: the W update locks zeros like MU does
        A = rand_sparse(10, 8, seed=29)
        rng = np.random.default_rng(30)
        W = rng.random((10, 3))
        W[4, 2] = 0.0
        H = rng.random((3, 8))
        W2, _ = gdcls_step(A, W, H, 0.1, rng=np.random.default_rng(31))
        assert W2[4, 2] == 0.0

    def test_objective_improves_on_random_start(self):
        A = rand_sparse(16, 12, seed=32)
        rng = np.random.default_rng(33)
        W = rng.random((16, 4)) + 0.01
        H = rng.random((4, 12)) + 0.01
        before = objective_sq(A, W, H)
        for _ in range(5):
            W, H = gdcls_step(A, W, H, 0.01, rng=rng)
        assert objective_sq(A, W, H) < before


class TestStationarity:
    def test_scalar_stationary_point(self):
        # A = [[2]], W = [1], H = [2] is the exact minimum: residuals are 0
        A = sp.csc_array(np.array([[2.0]]))
        report = stationarity_check(A, np.array([[1.0]]), np.array([[2.0]]))
        assert report.passed
        assert report.max_residual_w == pytest.approx(0.0, abs=1e-12)
        assert report.max_residual_h == pytest.approx(0.0, abs=1e-12)

    def test_random_point_not_stationary(self):
        A = rand_sparse(10, 8, seed=34)
        rng = np.random.default_rng(35)
        report = stationarity_check(A, rng.random((10, 3)), rng.random((3, 8)))
        assert not report.passed

    def test_positive_entry_with_negative_gradient_flagged(self):
        # KKT: min(x, grad) is large-negative when x > 0 wants to grow
        A = sp.csc_array(np.array([[10.0]]))
        report = stationarity_check(A, np.array([[1.0]]), np.array([[1.0]]), tol=1e-6)
        assert not report.passed


class TestSolve:
    def test_invalid_rank(self):
        A = rand_sparse(6, 5)
        with pytest.raises(InvalidRank):
            solve(A, SolverConfig(k=6), InitStrategy(name="random"))

    def test_max_iter_zero_disallowed(self):
        with pytest.raises(ValueError):
            SolverConfig(k=2, max_iter=0)

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(k=2, algorithm="qrnmf")

    def test_runs_one_iteration(self):
        A = rand_sparse(10, 8, seed=36)
        result = solve(
            A,
            SolverConfig(k=2, max_iter=1, check_interval=1, seed=0),
            InitStrategy(name="random", seed=0),
        )
        assert result.iterations_run == 1
        assert result.termination == "maxiter"
        assert result.trace.iterations() == [0, 1]

    def test_factors_nonnegative_and_finite(self):
        A = rand_sparse(20, 15, seed=37)
        for algorithm in ("acls", "ahcls", "mu", "gdcls"):
            result = solve(
                A,
                SolverConfig(k=3, algorithm=algorithm, lambda_w=0.05, lambda_h=0.05,
                             max_iter=15, seed=1),
                InitStrategy(name="acol", p=4, seed=1),
            )
            W, H = result.factors.W, result.factors.H
            assert W.min() >= 0.0 and H.min() >= 0.0
            assert np.isfinite(W).all() and np.isfinite(H).all()

    def test_accepts_precomputed_w0(self):
        A = rand_sparse(10, 8, seed=38)
        W0 = np.random.default_rng(39).random((10, 2))
        by_array = solve(A, SolverConfig(k=2, max_iter=5, seed=0), W0)
        again = solve(A, SolverConfig(k=2, max_iter=5, seed=0), W0.copy())
        assert np.array_equal(by_array.factors.W, again.factors.W)

    def test_wrong_w0_shape_rejected(self):
        A = rand_sparse(10, 8)
        with pytest.raises(InvalidRank):
            solve(A, SolverConfig(k=2, max_iter=5), np.ones((10, 3)))

    def test_acls_objective_trend_on_planted_instance(self):
        A, _, _ = planted_instance(40, 30, 4, seed=40)
        result = solve(
            A,
            SolverConfig(k=4, algorithm="acls", lambda_w=0.01, lambda_h=0.01,
                         max_iter=40, check_interval=5, seed=2,
                         criterion=MaxIterOnly()),
            InitStrategy(name="acol", p=4, seed=2),
        )
        objs = [cp.objective_sq for cp in result.trace.checkpoints]
        assert objs[-1] < 0.05 * objs[0]


class TestSolveInvariants:
    @pytest.mark.parametrize("algorithm", ["acls", "ahcls", "mu", "gdcls"])
    def test_same_result_for_every_input_format(self, algorithm):
        # solve iterates on its own CSR copy, so the caller's format must not matter
        A = rand_sparse(60, 40, density=0.2, seed=11)
        config = SolverConfig(
            k=4, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=40,
            criterion=AngularTol(eps_deg=0.5), check_interval=5, burn_in=10, seed=2,
        )
        runs = [
            solve(X, config, InitStrategy(name="acol", p=5, seed=2))
            for X in (A, sp.csr_array(A), sp.coo_array(A), A.toarray())
        ]
        ref = runs[0]
        for r in runs[1:]:
            assert r.iterations_run == ref.iterations_run
            assert r.termination == ref.termination
            assert r.trace.checkpoints[-1].objective_sq == pytest.approx(
                ref.trace.checkpoints[-1].objective_sq, rel=1e-12
            )

    def test_public_steps_leave_arguments_unmodified(self):
        # the driver keeps the previous W by reference, so a step must never write into it
        A = rand_sparse(30, 20, density=0.3, seed=12)
        rng = np.random.default_rng(13)
        W, H = rng.random((30, 3)), rng.random((3, 20))
        W[:, 0] = 0.0  # a dead column exercises the repair path
        steps = [
            lambda: acls_step(A, W, 0.1, 0.1, rng=np.random.default_rng(0)),
            lambda: ahcls_step(A, W, 0.1, 0.1, 0.5, 0.5, rng=np.random.default_rng(0)),
            lambda: mu_step(A, W, H),
            lambda: gdcls_step(A, W, H, 0.1, rng=np.random.default_rng(0)),
        ]
        for step in steps:
            W0, H0 = W.copy(), H.copy()
            W1, H1 = step()
            assert np.array_equal(W, W0) and np.array_equal(H, H0)
            assert W1 is not W and H1 is not H

    def test_repair_zero_cols_matches_column_average_oracle(self):
        # oracle: the same rng draws, averaged by explicit column slicing of the dense matrix
        A = rand_sparse(25, 30, density=0.3, seed=14)
        W = np.random.default_rng(15).random((25, 4))
        W[:, [1, 3]] = 0.0
        _repair_zero_cols(W, sp.csr_array(A), np.random.default_rng(16))
        rng, dense = np.random.default_rng(16), A.toarray()
        for j in (1, 3):
            cols = rng.choice(30, size=20, replace=False)
            assert np.allclose(W[:, j], dense[:, cols].sum(axis=1) / 20, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "algorithm, density",
        [pytest.param(a, 0.01, id=a) for a in ALGORITHMS]
        # 150k nonzeros: A is split into row blocks
        + [pytest.param(a, 0.05, id=f"{a}-split") for a in ALGORITHMS],
    )
    def test_working_set_stays_within_nnz_plus_three_factor_copies(self, algorithm, density):
        # memory must scale with nnz(A) + (m+n)k: one CSR copy of A (at most 16 bytes per
        # nonzero) plus at most three (m+n) x k float arrays of temporaries
        m, n, k = 3000, 1000, 20
        A = sp.random(m, n, density=density, format="csc", random_state=np.random.default_rng(17))
        W0 = np.random.default_rng(18).random((m, k))
        config = SolverConfig(k=k, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=20)
        tracemalloc.start()
        try:
            solve(A, config, W0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * A.nnz + 3 * 8 * (m + n) * k


def _split_matrix():
    """3000 x 1000 at 5%: 150k nonzeros, over the 4 x 32768 that splits A into row blocks."""
    return sp.random(3000, 1000, density=0.05, format="csr", random_state=np.random.default_rng(19))


class TestRowBlockProducts:
    @pytest.mark.parametrize("empty_rows", [False, True])
    def test_products_match_serial(self, empty_rows, monkeypatch):
        A = _split_matrix()
        if empty_rows:
            empty = sp.csr_array((500, 1000))
            A = sp.csr_array(sp.vstack([empty, A[:1500], empty, empty[:200]]))
        # the stacked matrix holds 75k nonzeros, under the threshold, so the split is forced
        monkeypatch.setattr(solvers, "_BLOCK_MIN_NNZ", A.nnz // solvers._ROW_BLOCKS)
        rng = np.random.default_rng(20)
        W, H = rng.random((A.shape[0], 10)), rng.random((10, A.shape[1]))
        products = _Products(A, split=True)
        try:
            assert len(products.blocks) == solvers._ROW_BLOCKS and products.pool is not None
            # each block fills its own rows of A H^T, so the sums are the serial ones
            assert np.array_equal(products.aht(H), A @ H.T)
            assert np.array_equal(products.aht(np.asfortranarray(H)), A @ H.T)
            ref = np.asarray(W.T @ A)
            for W_any in (W, np.asfortranarray(W)):
                assert np.abs(products.wta(W_any) - ref).max() <= 1e-13 * np.abs(ref).max()
        finally:
            products.close()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_one_block_products_are_the_plain_products(self, fmt, order):
        # a CSC A never splits, and a CSR A under the threshold stays one block
        A = _split_matrix() if fmt == "csc" else rand_sparse(300, 200, density=0.1, seed=41)
        A = sp.csr_array(A) if fmt == "csr" else sp.csc_array(A)
        rng = np.random.default_rng(42)
        W = np.asarray(rng.random((A.shape[0], 7)), order=order)
        H = np.asarray(rng.random((7, A.shape[1])), order=order)
        products = _Products(A, split=True)
        assert len(products.blocks) == 1 and products.blocks[0] is A and products.pool is None
        assert np.array_equal(products.wta(W), W.T @ A)
        assert np.array_equal(products.wta(W).T, A.T @ W)
        assert np.array_equal(products.aht(H), A @ H.T)
        products.close()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_block_aht_allocates_only_its_output(self, order):
        # scipy's CSR kernel reads H^T in C order: it copies a C-ordered (MU) H once,
        # and an F-ordered (CLS) H not at all; aht itself adds nothing
        m, n, k = 2000, 1500, 20
        A = sp.random(m, n, density=0.01, format="csr", random_state=np.random.default_rng(43))
        H = np.asarray(np.random.default_rng(44).random((k, n)), order=order)
        products = _Products(A)
        tracemalloc.start()
        try:
            out = products.aht(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (m, k)
        assert peak <= 8 * m * k + (8 * k * n if order == "C" else 0) + 4096

    def test_products_hold_with_more_workers_than_cores(self, monkeypatch):
        # workers write disjoint rows of one array; a lost or misplaced write breaks equality
        monkeypatch.setattr(solvers, "_cpu_count", lambda: 8)
        A = _split_matrix()
        rng = np.random.default_rng(26)
        W, H = rng.random((A.shape[0], 6)), rng.random((6, A.shape[1]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        products = _Products(A, split=True)
        try:
            assert products.pool is not None
            wta = products.wta(W)
            for _ in range(20):
                assert np.array_equal(products.aht(H), A @ H.T)
                assert np.array_equal(products.wta(W), wta)
        finally:
            products.close()
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_split_solve_matches_unsplit(self, algorithm, monkeypatch):
        A = _split_matrix()
        W0 = np.random.default_rng(21).random((A.shape[0], 8))
        config = SolverConfig(k=8, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=12)
        split = solve(A, config, W0)
        monkeypatch.setattr(solvers, "_BLOCK_MIN_NNZ", A.nnz)
        serial = solve(A, config, W0)
        assert split.trace.checkpoints[-1].objective_sq == pytest.approx(
            serial.trace.checkpoints[-1].objective_sq, rel=1e-12
        )
        assert np.allclose(split.factors.W, serial.factors.W, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_kkt_from_final_sweep_matches_recomputed(self, split):
        A = _split_matrix() if split else rand_sparse(40, 30, density=0.3, seed=22)
        config = SolverConfig(k=4, lambda_w=0.1, lambda_h=0.1, max_iter=7, check_interval=5)
        result = solve(A, config, np.random.default_rng(23).random((A.shape[0], 4)))
        report = stationarity_check(A, result.factors.W, result.factors.H, config=config)
        assert result.stationarity.max_residual_w == pytest.approx(report.max_residual_w, rel=1e-12)
        assert result.stationarity.max_residual_h == pytest.approx(report.max_residual_h, rel=1e-12)


@pytest.mark.skipif(not blas_threads(), reason="the bundled OpenBLAS exports no thread-count controls")
class TestThreadBudget:
    @pytest.fixture
    def two_blas_threads(self):
        saved = blas_threads()
        set_blas_threads((2,) * len(saved))
        yield blas_threads()
        set_blas_threads(saved)

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_one_thread_inside_solve_and_restored_after(self, split, two_blas_threads, monkeypatch):
        A = _split_matrix() if split else rand_sparse(40, 30, density=0.3, seed=24)
        inside = []
        initialize = solvers.initialize

        def recording_initialize(*args):
            inside.append(blas_threads())
            return initialize(*args)

        monkeypatch.setattr(solvers, "initialize", recording_initialize)
        solve(A, SolverConfig(k=3, max_iter=6), InitStrategy(name="acol", p=5))
        assert inside == [(1,) * len(two_blas_threads)]
        assert blas_threads() == two_blas_threads

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_restored_after_a_raise(self, split, two_blas_threads, monkeypatch):
        A = _split_matrix() if split else rand_sparse(40, 30, density=0.3, seed=24)

        def fail(*args):
            raise ZeroVector("raised mid-solve")

        monkeypatch.setattr(solvers, "angular_measure", fail)
        with pytest.raises(ZeroVector):
            solve(A, SolverConfig(k=3, max_iter=6), InitStrategy(name="acol", p=5))
        assert blas_threads() == two_blas_threads


_THREAD_COUNT_SCRIPT = """
import hashlib
import numpy as np, scipy.sparse as sp
from nmfkit.solvers import ALGORITHMS, SolverConfig, solve
A = sp.random(3000, 1000, density=0.05, format="csc", random_state=np.random.default_rng(19))
W0 = np.random.default_rng(25).random((3000, 8))
for algorithm in ALGORITHMS:
    config = SolverConfig(k=8, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=12)
    result = solve(A, config, W0)
    factors = result.factors.W.tobytes() + result.factors.H.tobytes()
    print(algorithm, hashlib.sha256(factors).hexdigest())
"""


def test_factors_do_not_depend_on_the_blas_thread_count():
    # a matrix that splits, solved in fresh processes whose OpenBLAS starts with 1 or 2 threads
    src = str(Path(nmfkit.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 2 * len(ALGORITHMS)


# Final objectives of a fixed mini-corpus solve, recorded before the solver moved to a CSR
# copy of A and LAPACK Cholesky; the new summation order may only move them at round-off.
PINNED_OBJECTIVES = {
    "acls": 1532523.4083898896,
    "ahcls": 1533014.285858308,
    "mu": 2051481.779507433,
    "gdcls": 2019790.8903352786,
}


@pytest.mark.parametrize("algorithm", sorted(PINNED_OBJECTIVES))
def test_pinned_final_objective(algorithm):
    A, _ = mini_matrix("tfidf")
    config = SolverConfig(k=8, algorithm=algorithm, lambda_w=0.1, lambda_h=0.1, max_iter=20, seed=0)
    result = solve(A, config, InitStrategy(name="acol", p=3, seed=0))
    assert result.trace.checkpoints[-1].objective_sq == pytest.approx(
        PINNED_OBJECTIVES[algorithm], rel=1e-9
    )


@st.composite
def _small_problem(draw):
    """A small nonnegative sparse matrix (zero rows and columns likely), a rank and an init p."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
    A = sp.csc_array(draw(arrays(np.float64, (m, n), elements=entries)))
    return A, draw(st.integers(1, min(m, n))), draw(st.integers(1, n))


@given(
    _small_problem(),
    st.sampled_from(ALGORITHMS),
    st.sampled_from(STRATEGY_NAMES),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_every_combination_finishes_or_raises_typed(problem, algorithm, init, lam, seed):
    # the README's contract: finite nonnegative factors, or a typed NmfError
    A, k, p = problem
    config = SolverConfig(
        k=k, algorithm=algorithm, lambda_w=lam, lambda_h=lam, max_iter=15, seed=seed,
        criterion=AngularTol(eps_deg=1.0),
    )
    try:
        result = solve(A, config, InitStrategy(name=init, p=p, seed=seed))
    except NmfError:
        return
    W, H = result.factors.W, result.factors.H
    assert np.isfinite(W).all() and np.isfinite(H).all()
    assert W.min() >= 0.0 and H.min() >= 0.0
