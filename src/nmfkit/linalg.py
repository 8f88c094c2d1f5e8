"""Dense/sparse kernels shared by every solver.

Gram products, multi-RHS SPD solves, the trace-form residual, a seeded
randomized truncated SVD, and spherical k-means centroid decomposition.
All functions are pure; callers own their arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DegenerateInput, DimensionMismatch, RankTooLarge, SingularSystem

# Pivot threshold for Cholesky, relative to max |G|.
_PIVOT_RTOL = 1e-12
# Ridge added (once) when a regularized Gram loses definiteness.
_RETRY_RIDGE = 1e-10


def gram(M: np.ndarray) -> np.ndarray:
    """Return M^T M, exactly symmetric (upper triangle computed, mirrored)."""
    G = M.T @ M
    G = np.triu(G)
    return G + np.triu(G, 1).T


def solve_spd_multi(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve G X = B for all columns of B with one LAPACK Cholesky factorization.

    G must be symmetric positive definite (the caller typically guarantees
    this through a ridge term). Raises SingularSystem when the factorization
    fails or a pivot (diag(L)^2) falls below _PIVOT_RTOL * max|G|, signalling
    the caller to add (more) ridge.
    """
    G = np.asarray(G, dtype=float)
    B = np.asarray(B, dtype=float)
    if G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"G must be square, got {G.shape}")
    if B.shape[0] != G.shape[0]:
        raise DimensionMismatch(f"G is {G.shape} but B has {B.shape[0]} rows")
    try:
        factor = cho_factor(G, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularSystem(f"Cholesky factorization failed: {exc}") from exc
    pivot = float(np.min(np.diag(factor[0]) ** 2))
    tol = _PIVOT_RTOL * max(float(np.abs(G).max()), 1e-300)
    if pivot <= tol:
        raise SingularSystem(f"pivot {pivot:.3e} below tolerance {tol:.3e}")
    return cho_solve(factor, B, check_finite=False)


def solve_spd_ridged(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """solve_spd_multi with one automatic ridge retry on pivot failure."""
    try:
        return solve_spd_multi(G, B)
    except SingularSystem:
        k = G.shape[0]
        ridge = _RETRY_RIDGE * max(abs(float(np.trace(G))) / k, 1.0)
        return solve_spd_multi(G + ridge * np.eye(k), B)


def trace_frob_sq(A) -> float:
    """trace(A^T A) = ||A||_F^2, computed once per matrix."""
    if sp.issparse(A):
        return float((A.data ** 2).sum())
    return float(np.sum(np.asarray(A, dtype=float) ** 2))


def residual_trace(
    A, W: np.ndarray, H: np.ndarray, gram_w: np.ndarray, wta: np.ndarray, trace_ata: float
) -> float:
    """||A - W H||_F^2 = trace(A^T A) - 2<W^T A, H> + <W^T W, H H^T>, from byproducts.

    gram_w = W^T W and wta = W^T A come from the most recent H half-step;
    trace_ata is trace(A^T A) computed once. The W half-step's byproducts
    serve as well, with the roles swapped: pass A^T, H^T, W^T, H H^T and
    (A H^T)^T. Tiny negative round-off is clamped to zero.
    """
    m, n = A.shape
    k = W.shape[1]
    if W.shape[0] != m or H.shape != (k, n):
        raise DimensionMismatch(f"A {A.shape}, W {W.shape}, H {H.shape} are inconsistent")
    if gram_w.shape != (k, k) or wta.shape != (k, n):
        raise DimensionMismatch("byproduct shapes do not match the factor rank")
    cross = float(np.einsum("ij,ij->", wta, H))
    quad = float(np.einsum("ij,ij->", gram_w, H @ H.T))
    val = trace_ata - 2.0 * cross + quad
    return max(val, 0.0)


@dataclass(frozen=True)
class SvdTriple:
    """Rank-k SVD: U (m x k), descending singular values, V (n x k)."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def truncated_svd(A, k: int, seed: int = 0, oversample: int = 10, power_iters: int = 4) -> SvdTriple:
    """Rank-k SVD by seeded randomized subspace iteration.

    Oversampling and the power-iteration count are fixed at values accurate
    for the small spectra this package targets; each power iteration is
    re-orthonormalized for stability.
    """
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise RankTooLarge(f"k={k} exceeds min{A.shape}={min(m, n)}")
    ell = min(k + oversample, min(m, n))
    rng = np.random.default_rng(seed)
    Omega = rng.standard_normal((n, ell))
    Q, _ = np.linalg.qr(A @ Omega)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = np.asarray(A.T @ Q).T  # ell x n, robust for sparse A
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    return SvdTriple(U=Q @ Ub[:, :k], singular_values=s[:k].copy(), V=Vt[:k].T.copy())


def normalize_columns(X: np.ndarray) -> np.ndarray:
    """X with each nonzero column scaled to unit 2-norm."""
    norms = np.linalg.norm(X, axis=0)
    return X / np.where(norms > 0, norms, 1.0)


def column_norms(X) -> np.ndarray:
    """2-norms of the columns of a dense or sparse X."""
    if sp.issparse(X):
        return np.sqrt(np.asarray(X.power(2).sum(axis=0)).ravel())
    return np.linalg.norm(X, axis=0)


def cluster_centroids(X, assign: np.ndarray, k: int) -> np.ndarray:
    """Unit-normalized sums of X's columns per cluster (dims x k), by one product X @ onehot.

    assign[j] = -1 leaves column j in no cluster; an empty cluster gives a zero column.
    """
    onehot = np.equal.outer(assign, np.arange(k)).astype(float)
    return normalize_columns(np.asarray(X @ onehot))


def spherical_kmeans(
    X,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the columns of a dense or sparse X on cosine similarity.

    Returns (centroids dims x k, assignment length ncols). Columns must be
    nonzero; empty clusters are re-seeded with the column farthest from its
    assigned centroid. Deterministic per seed (argmax ties break low).
    """
    dims, ncols = X.shape
    if k > ncols:
        raise DegenerateInput(f"k={k} exceeds the {ncols} available columns")
    norms = column_norms(X)
    Xn = X @ sp.diags_array(1.0 / norms) if sp.issparse(X) else X / norms
    XnT = Xn.T  # one transposed view, not one per iteration
    rng = np.random.default_rng(seed)
    assign = np.full(ncols, -1)
    assign[rng.choice(ncols, size=k, replace=False)] = np.arange(k)
    centroids = cluster_centroids(Xn, assign, k)
    for _ in range(max_iter):
        sims = np.asarray(XnT @ centroids)  # ncols x k
        assign = np.argmax(sims, axis=1)
        own_sim = sims[np.arange(ncols), assign]
        for c in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            worst = int(np.argmin(own_sim))
            assign[worst] = c
            own_sim[worst] = 1.0
        new_centroids = cluster_centroids(Xn, assign, k)
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=0)))
        centroids = new_centroids
        if movement < tol:
            break
    return centroids, assign


def centroid_decomposition(M, k: int, seed: int = 0) -> np.ndarray:
    """k centroid vectors (dims x k) of M's columns via spherical k-means.

    A sparse M stays sparse and is never modified. Zero columns are excluded
    from clustering; if fewer than k nonzero columns remain the input is
    degenerate. Nonnegative input yields nonnegative centroids.
    """
    X = M if sp.issparse(M) else np.asarray(M, dtype=float)
    keep = column_norms(X) > 0
    if int(keep.sum()) < k:
        raise DegenerateInput(
            f"only {int(keep.sum())} nonzero columns available for k={k} clusters"
        )
    centroids, _ = spherical_kmeans(X if keep.all() else X[:, keep], k, seed=seed)
    return centroids
