"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS] line on success so the suite output doubles
as an acceptance report.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from nmfkit.bench import compare_inits, relative_error, svd_baseline_error
from nmfkit.convergence import AngularTol, MaxIterOnly, angular_measure
from nmfkit.corpus import mini_matrix
from nmfkit.initializers import InitStrategy, initialize
from nmfkit.linalg import gram, residual_trace, trace_frob_sq
from nmfkit.solvers import (
    SolverConfig,
    _initial_h,
    acls_step,
    ahcls_beta,
    mu_step,
    objective_sq,
    solve,
    sparsity_hoyer,
    stationarity_check,
)


def _planted(m, n, k, seed, density=0.3, noise=0.0):
    rng = np.random.default_rng(seed)
    W = rng.random((m, k)) * (rng.random((m, k)) < density)
    H = rng.random((k, n)) * (rng.random((k, n)) < density)
    dense = W @ H
    if noise:
        dense = dense + noise * rng.random((m, n))
    return sp.csc_array(dense)


def test_criterion_01_trace_residual_identity():
    """Trace-form residual matches the dense Frobenius norm on 100 instances."""
    t0 = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(5, 40))
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, 6))
        A = sp.csc_array(rng.random((m, n)) * (rng.random((m, n)) < 0.4))
        W = rng.random((m, k))
        H = rng.random((k, n))
        got = residual_trace(A, W, H, gram(W), W.T @ A, trace_frob_sq(A))
        oracle = float(np.linalg.norm(np.asarray(A.todense()) - W @ H, "fro") ** 2)
        assert got == pytest.approx(oracle, rel=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: trace residual identity on 100 instances ({elapsed:.2f}s)")


def test_criterion_02_hoyer_sparsity_anchors():
    """Hoyer sparsity hits its three analytic anchor values."""
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert sparsity_hoyer(e1) == pytest.approx(1.0, abs=1e-12)
    assert sparsity_hoyer(np.ones(6)) == pytest.approx(0.0, abs=1e-12)
    assert sparsity_hoyer(np.array([3.0, 4.0, 0.0, 0.0])) == pytest.approx(0.6, abs=1e-12)
    print("\n[PASS] criterion 2: Hoyer sparsity anchors (1, 0, 0.6)")


def test_criterion_03_adaptive_smoothing_coefficient():
    """Beta coefficient: ((1 - alpha) sqrt(k) + alpha)^2 with its endpoints."""
    assert ahcls_beta(9, 0.5) == pytest.approx(4.0, abs=1e-12)
    for k in (2, 9, 25):
        assert ahcls_beta(k, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert ahcls_beta(k, 0.0) == pytest.approx(float(k), abs=1e-12)
    print("\n[PASS] criterion 3: adaptive smoothing coefficient endpoints")


def test_criterion_04_planted_factorization_recovery():
    """ACLS recovers planted sparse factorizations to 1% relative error."""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        A = _planted(100, 80, 5, seed)
        config = SolverConfig(
            k=5, algorithm="acls", lambda_w=0.01, lambda_h=0.01,
            max_iter=100, seed=seed, criterion=MaxIterOnly(),
        )
        result = solve(A, config, InitStrategy(name="acol", p=5, seed=seed))
        W, H = result.factors.W, result.factors.H
        resid = np.sqrt(residual_trace(A, W, H, gram(W), W.T @ A, trace_frob_sq(A)))
        if resid / np.sqrt(trace_frob_sq(A)) <= 0.01:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 9
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 4: planted recovery {hits}/10 seeds ({elapsed:.2f}s)")


def test_criterion_05_initializer_quality_ordering():
    """Structured initializers start closer to the SVD baseline and do not regress."""
    A, _ = mini_matrix("tf")
    report = compare_inits(
        A, 8,
        algorithms=("acls",),
        strategies=["random", "acol", "centroid", "svd-centroid"],
        seeds=list(range(10)),
        checkpoints=[0, 10, 30],
        lambda_w=0.5, lambda_h=0.5, p=3,
    )
    mean = {name: report.mean_error(name, 0) for name in
            ("random", "acol", "centroid", "svd-centroid")}
    assert mean["acol"] < mean["random"]
    assert mean["svd-centroid"] <= mean["centroid"] <= mean["random"]
    for row in report.rows:
        assert row.errors[30] <= row.errors[10] + 1e-6
    print(
        "\n[PASS] criterion 5: initializer ordering "
        f"(random {mean['random']:.3f} > acol {mean['acol']:.3f}; "
        f"svd-centroid {mean['svd-centroid']:.3f} <= centroid {mean['centroid']:.3f})"
    )


def test_criterion_06_als_beats_multiplicative_at_equal_walltime():
    """ACLS/AHCLS reach 10% of the SVD baseline; MU does worse in equal time."""
    A, _ = mini_matrix("tf")
    svd_err = svd_baseline_error(A, 8)
    mu_worse = 0
    for seed in range(10):
        init = InitStrategy(name="acol", p=3, seed=seed)
        acls = solve(
            A,
            SolverConfig(k=8, algorithm="acls", lambda_w=0.1, lambda_h=0.1,
                         max_iter=50, seed=seed),
            init,
        )
        ahcls = solve(
            A,
            SolverConfig(k=8, algorithm="ahcls", lambda_w=0.1, lambda_h=0.1,
                         alpha_w=0.7, alpha_h=0.7, max_iter=50, seed=seed),
            init,
        )
        err_acls = relative_error(A, acls.factors.W, acls.factors.H, svd_err)
        err_ahcls = relative_error(A, ahcls.factors.W, ahcls.factors.H, svd_err)
        assert err_acls <= 0.10
        assert err_ahcls <= 0.10
        wall = acls.trace.checkpoints[-1].elapsed_s

        W = initialize(A, 8, init)
        rng = np.random.default_rng(seed)
        H = _initial_h(A, W, SolverConfig(k=8, algorithm="mu", max_iter=1, seed=seed), rng)
        t0 = time.perf_counter()
        steps = 0
        while time.perf_counter() - t0 < wall or steps == 0:
            W, H = mu_step(A, W, H)
            steps += 1
        err_mu = relative_error(A, W, H, svd_err)
        if err_mu > max(err_acls, err_ahcls):
            mu_worse += 1
    assert mu_worse >= 8
    print(f"\n[PASS] criterion 6: ALS <= 10% baseline; MU worse at equal walltime {mu_worse}/10")


def test_criterion_07_zero_locking_dichotomy():
    """MU locks zero entries forever; solve-and-clip lets them reactivate."""
    # multiplicative side: planted zeros never move
    A = sp.csc_array(np.random.default_rng(1).random((10, 8)))
    rng = np.random.default_rng(2)
    W = rng.random((10, 3))
    H = rng.random((3, 8))
    W[3, 1] = 0.0
    H[2, 5] = 0.0
    for _ in range(20):
        W, H = mu_step(A, W, H)
        assert W[3, 1] == 0.0
        assert H[2, 5] == 0.0

    # solve-and-clip side: a clipped zero later returns positive
    rng = np.random.default_rng(42)
    A = sp.csc_array(rng.random((12, 10)) * (rng.random((12, 10)) < 0.5))
    W = rng.random((12, 3))
    srng = np.random.default_rng(0)
    history = []
    for _ in range(8):
        W, H = acls_step(A, W, 0.05, 0.05, rng=srng)
        history.append(H.copy())
    reactivated = any(
        np.any((history[t] == 0.0) & (history[u] > 0.0))
        for t in range(len(history) - 1)
        for u in range(t + 1, len(history))
    )
    assert reactivated
    print("\n[PASS] criterion 7: zero-locking dichotomy (MU locks, ACLS reactivates)")


def test_criterion_08_multiplicative_update_monotone():
    """The multiplicative update never increases the objective (100 instances)."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 30))
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, 5))
        A = sp.csc_array(rng.random((m, n)))
        W = rng.random((m, k)) + 0.01
        H = rng.random((k, n)) + 0.01
        before = objective_sq(A, W, H)
        W, H = mu_step(A, W, H)
        worst = max(worst, objective_sq(A, W, H) - before)
    assert worst <= 1e-9
    print(f"\n[PASS] criterion 8: MU monotone on 100 instances (worst increase {worst:.1e})")


def test_criterion_09_angular_stagnation_stopping():
    """Angular anchors hold; the angular rule stops noisy planted runs early."""
    x = np.array([[2.0], [1.0], [3.0]])
    assert angular_measure(x, 7.5 * x)[0] == pytest.approx(0.0, abs=1e-5)
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert angular_measure(e1, e2)[0] == pytest.approx(90.0, abs=1e-10)

    stopped_early = 0
    nonmonotone = 0
    for seed in range(10):
        A = _planted(100, 80, 5, 100 + seed, noise=0.01)
        config = SolverConfig(
            k=5, algorithm="acls", lambda_w=0.01, lambda_h=0.01,
            max_iter=200, check_interval=5, burn_in=10, seed=seed,
            criterion=AngularTol(eps_deg=1.0),
        )
        result = solve(A, config, InitStrategy(name="random", seed=seed))
        if result.termination == "angular_tol" and result.iterations_run <= 200:
            stopped_early += 1
        thetas = [cp.theta_max_deg for cp in result.trace.checkpoints if cp.theta_max_deg is not None]
        if any(b > a for a, b in zip(thetas, thetas[1:])):
            nonmonotone += 1
    assert stopped_early >= 9
    assert nonmonotone >= 1
    print(
        f"\n[PASS] criterion 9: angular stopping {stopped_early}/10 runs, "
        f"{nonmonotone} with non-monotone angle traces"
    )


def test_criterion_10_stationarity_matches_finite_differences():
    """Analytic KKT residuals agree with a finite-difference oracle to 1e-4, per algorithm."""
    rng = np.random.default_rng(5)
    A = sp.csc_array(rng.random((30, 20)) * (rng.random((30, 20)) < 0.5))
    W = rng.random((30, 3))
    H = rng.random((3, 20))
    h = 1e-6

    def fd_grad(X, config):
        G = np.zeros_like(X)
        for idx in np.ndindex(X.shape):
            orig = X[idx]
            X[idx] = orig + h
            up = objective_sq(A, W, H, config)
            X[idx] = orig - h
            dn = objective_sq(A, W, H, config)
            X[idx] = orig
            G[idx] = (up - dn) / (2 * h)
        return G

    for algorithm in ("acls", "ahcls", "mu", "gdcls"):
        config = SolverConfig(k=3, algorithm=algorithm, lambda_w=0.2, lambda_h=0.2,
                              alpha_w=0.7, alpha_h=0.7, max_iter=1)
        t0 = time.perf_counter()
        report = stationarity_check(A, W, H, config=config)
        analytic_s = time.perf_counter() - t0
        assert analytic_s < 1.0

        fd_w = np.abs(np.minimum(W, fd_grad(W, config))).max()
        fd_h = np.abs(np.minimum(H, fd_grad(H, config))).max()
        assert report.max_residual_w == pytest.approx(fd_w, rel=1e-4), algorithm
        assert report.max_residual_h == pytest.approx(fd_h, rel=1e-4), algorithm
        print(
            f"\n[PASS] criterion 10 ({algorithm}): KKT residuals match finite differences "
            f"(W {report.max_residual_w:.4f} vs {fd_w:.4f}, H {report.max_residual_h:.4f} "
            f"vs {fd_h:.4f}) in {analytic_s * 1e3:.1f}ms"
        )


def _mean_column_sparsity(H):
    vals = [
        sparsity_hoyer(H[:, j])
        for j in range(H.shape[1])
        if np.linalg.norm(H[:, j]) > 0
    ]
    return float(np.mean(vals))


def test_criterion_11_sparsity_control():
    """Penalty strength raises sparsity; the targeted variant lands nearer its goal."""
    A, _ = mini_matrix("logent")

    levels = []
    for lam in (0.0, 0.5, 1.0):
        config = SolverConfig(k=8, algorithm="acls", lambda_w=0.0, lambda_h=lam,
                              max_iter=30, seed=0)
        result = solve(A, config, InitStrategy(name="acol", p=3, seed=0))
        levels.append(_mean_column_sparsity(result.factors.H))
    assert levels[0] <= levels[1] + 1e-9
    assert levels[1] <= levels[2] + 1e-9

    target = 0.8
    wins = 0
    for seed in range(10):
        init = InitStrategy(name="acol", p=3, seed=seed)
        plain = solve(
            A,
            SolverConfig(k=8, algorithm="acls", lambda_w=0.5, lambda_h=0.5,
                         max_iter=30, seed=seed),
            init,
        )
        targeted = solve(
            A,
            SolverConfig(k=8, algorithm="ahcls", lambda_w=0.5, lambda_h=0.5,
                         alpha_w=target, alpha_h=target, max_iter=30, seed=seed),
            init,
        )
        s_plain = _mean_column_sparsity(plain.factors.H)
        s_target = _mean_column_sparsity(targeted.factors.H)
        if abs(s_target - target) < abs(s_plain - target):
            wins += 1
    assert wins >= 7
    print(
        f"\n[PASS] criterion 11: sparsity monotone in penalty "
        f"({levels[0]:.4f} <= {levels[1]:.4f} <= {levels[2]:.4f}); "
        f"targeted closer to {target} on {wins}/10 seeds"
    )


def test_criterion_12_bit_identical_determinism():
    """Identical configuration reproduces factors and traces bit for bit."""
    A1, vocab1 = mini_matrix("tf")
    A2, vocab2 = mini_matrix("tf")
    assert vocab1.terms == vocab2.terms
    assert np.array_equal(A1.indptr, A2.indptr)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.data, A2.data)

    results = []
    for _ in range(2):
        config = SolverConfig(
            k=8, algorithm="acls", lambda_w=0.1, lambda_h=0.1,
            max_iter=20, check_interval=5, seed=3,
        )
        results.append(solve(A1, config, InitStrategy(name="acol", p=3, seed=3)))
    a, b = results
    assert np.array_equal(a.factors.W, b.factors.W)
    assert np.array_equal(a.factors.H, b.factors.H)
    assert a.iterations_run == b.iterations_run
    assert a.termination == b.termination
    for ca, cb in zip(a.trace.checkpoints, b.trace.checkpoints):
        assert ca.iteration == cb.iteration
        assert ca.objective_sq == cb.objective_sq  # bit-for-bit, no tolerance
        assert ca.theta_max_deg == cb.theta_max_deg
    print("\n[PASS] criterion 12: bit-identical reruns (factors, trace, corpus)")
