"""Dense/sparse kernels shared by every solver.

Gram products, multi-RHS SPD solves, the trace-form residual, a seeded
randomized truncated SVD, spherical k-means centroid decomposition, row
blocks of a CSR matrix, and the thread count of the bundled OpenBLAS copies.
All functions but `set_blas_threads` are pure; callers own their arrays.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

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
    """Solve G X = B for all columns of B with one LAPACK Cholesky factorization G = L L^T.

    LAPACK dpotrf factors G and dpotrs solves on its own copy of B, so B is
    left as it was; B may be a vector. The solvers pass B = I and get G^-1.

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
    L, info = dpotrf(G, lower=1, clean=0)
    if info > 0:
        raise SingularSystem(f"Cholesky factorization failed at leading minor {info}")
    pivot = float(np.min(np.diag(L) ** 2))
    tol = _PIVOT_RTOL * max(float(np.abs(G).max()), 1e-300)
    if pivot <= tol:
        raise SingularSystem(f"pivot {pivot:.3e} below tolerance {tol:.3e}")
    return dpotrs(L, B, lower=1)[0]


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
    """2-norms of the columns of a dense or sparse X.

    A CSR or CSC X is put in canonical form in place, as X.power(2) would do,
    so duplicates add up before squaring; it is then squared on its own
    indices, which X.power(2) would copy.
    """
    if sp.issparse(X):
        if X.format in ("csr", "csc"):
            X.sum_duplicates()
            squares = _on_arrays(type(X), X.shape, X.data**2, X.indices, X.indptr)
        else:
            squares = X.power(2)
        return np.sqrt(np.asarray(squares.sum(axis=0)).ravel())
    return np.linalg.norm(X, axis=0)


def cluster_centroids(X, assign: np.ndarray, k: int, weights=None) -> np.ndarray:
    """Unit-normalized sums of X's columns per cluster (dims x k), by one product X @ onehot.

    Column j enters its sum scaled by weights[j], if given. assign[j] = -1
    leaves column j in no cluster; an empty cluster gives a zero column.
    """
    onehot = np.equal.outer(assign, np.arange(k))
    onehot = onehot.astype(float) if weights is None else onehot * weights[:, None]
    return normalize_columns(np.asarray(X @ onehot))


def spherical_kmeans(
    X,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
    norms=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the columns of X on cosine similarity.

    X is a dense or sparse matrix, or any object with `shape`, `X @ Z` and
    `X.T @ Z` when its column norms are given. Columns must be nonzero; each
    enters the centroid sums and its own similarity scaled by 1/norm, so no
    normalized copy of X is made (a positive scale of a row of similarities
    leaves its argmax where it is). Returns (centroids dims x k, assignment
    length ncols). Empty clusters are re-seeded with the column farthest
    from its assigned centroid. Deterministic per seed (argmax ties break low).
    """
    dims, ncols = X.shape
    if k > ncols:
        raise DegenerateInput(f"k={k} exceeds the {ncols} available columns")
    inv = 1.0 / (column_norms(X) if norms is None else norms)
    XT = X.T  # one transposed view, not one per iteration
    rng = np.random.default_rng(seed)
    assign = np.full(ncols, -1)
    assign[rng.choice(ncols, size=k, replace=False)] = np.arange(k)
    centroids = cluster_centroids(X, assign, k, inv)
    for _ in range(max_iter):
        sims = np.asarray(XT @ centroids)  # ncols x k, each row times its column's norm
        assign = np.argmax(sims, axis=1)
        own_sim = sims[np.arange(ncols), assign] * inv
        for c in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            worst = int(np.argmin(own_sim))
            assign[worst] = c
            own_sim[worst] = 1.0
        new_centroids = cluster_centroids(X, assign, k, inv)
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
    norms = column_norms(X)
    keep = norms > 0
    if int(keep.sum()) < k:
        raise DegenerateInput(
            f"only {int(keep.sum())} nonzero columns available for k={k} clusters"
        )
    if not keep.all():
        X, norms = X[:, keep], norms[keep]
    return spherical_kmeans(X, k, seed=seed, norms=norms)[0]


def _on_arrays(container, shape, data, indices, indptr):
    """A compressed sparse array of the given container type on exactly these arrays.

    scipy's (data, indices, indptr) constructor, which `transpose()` also
    uses, copies data and indices that are views of larger arrays; assigning
    them to an empty array does not.
    """
    M = container(shape, dtype=data.dtype)
    M.data, M.indices, M.indptr = data, indices, indptr
    return M


def row_blocks(A: sp.csr_array, count: int) -> list[sp.csr_array]:
    """A cut into `count` row blocks of about equal nnz, sharing A's data and indices.

    The cuts depend on A.indptr alone. A block may be empty when one row
    holds more than a block's share of the nonzeros.
    """
    indptr = A.indptr
    cuts = np.searchsorted(indptr, indptr[-1] * np.arange(1, count) // count)
    bounds = [0, *cuts.tolist(), A.shape[0]]
    blocks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        start, end = int(indptr[r0]), int(indptr[r1])
        data, indices = A.data[start:end], A.indices[start:end]
        rebased = indptr[r0 : r1 + 1] - indptr.dtype.type(start)
        blocks.append(_on_arrays(sp.csr_array, (r1 - r0, A.shape[1]), data, indices, rebased))
    return blocks


def transpose_view(A: sp.csr_array) -> sp.csc_array:
    """A^T as a CSC array on A's own arrays, which A.T copies when they are views."""
    return _on_arrays(sp.csc_array, A.shape[::-1], A.data, A.indices, A.indptr)


def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of numpy's and scipy's bundled OpenBLAS.

    Wheels ship it as libscipy_openblas*.so under numpy.libs and scipy.libs,
    with the symbol suffix "64_" for numpy's 64-bit-integer build. A build
    without these libraries or symbols contributes no pair.
    """
    controls = []
    for module, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            controls.append((get, set_))
    return tuple(controls)


# Looked up once at import, when numpy and scipy have loaded these libraries already;
# a lookup on first use would leave its ctypes objects in the first solve's memory.
_OPENBLAS = _openblas_thread_controls()


def blas_threads() -> tuple[int, ...]:
    """Thread counts of the bundled OpenBLAS copies that can be controlled (numpy's first)."""
    return tuple(get() for get, _ in _OPENBLAS)


def set_blas_threads(counts) -> None:
    """Set the thread counts that blas_threads() reads, in its order. Process-global."""
    for (_, set_), count in zip(_OPENBLAS, counts):
        set_(count)

