"""Strategies for building the starting basis matrix W.

ALS-type solvers only need W; the first least-squares half step produces H.
Every strategy is seed-deterministic and returns a nonnegative m x k array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InvalidConfig, PTooLarge
from .linalg import (
    centroid_decomposition,
    cluster_centroids,
    column_norms,
    row_blocks,
    spherical_kmeans,
    truncated_svd,
)

STRATEGY_NAMES = ("random", "centroid", "svd-centroid", "acol", "random-c", "cooccurrence")

_AVERAGES_PER_PRODUCT = 8
# Fewest values a row block of A A^T may hold in co-occurrence's norm pass
_NORM_BLOCK_FLOOR = 2**16


@dataclass
class InitStrategy:
    """Named initialization with its tuning knobs.

    p: columns averaged per basis column (acol / random-c).
    pool_fraction: fraction of longest columns forming random-c's pool.
    V: optional precomputed n x k SVD factor for svd-centroid.
    """

    name: str = "random"
    p: int = 20
    pool_fraction: float = 0.2
    V: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise InvalidConfig(f"unknown strategy {self.name!r}; choose from {STRATEGY_NAMES}")
        if self.p < 1:
            raise InvalidConfig("p must be >= 1")
        if not 0 < self.pool_fraction <= 1:
            raise InvalidConfig("pool_fraction must lie in (0, 1]")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


def init_random(m: int, k: int, seed: int = 0) -> np.ndarray:
    """Dense W with i.i.d. uniform(0, 1) entries."""
    return np.random.default_rng(seed).random((m, k))


def _draw_averages(A, k: int, p: int, pool: np.ndarray, seed) -> np.ndarray:
    """W (m x k) whose column j averages the A columns pool[S_j], S_j a random p-subset.

    A subset equal (as a set) to an earlier one is redrawn, until all
    C(len(pool), p) subsets have been drawn. The averages are the product
    A @ S with the n x k selection matrix S (1/p at row pool[S_j] of column j).
    """
    m, n = A.shape
    rng = np.random.default_rng(seed)
    # 32-bit indices, so that the product does not copy A's 32-bit indices to 64 bits
    picks = np.empty((k, p), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    seen, distinct = set(), math.comb(len(pool), p)
    for j in range(k):
        cols = rng.choice(len(pool), size=p, replace=False)
        while (key := frozenset(cols.tolist())) in seen and len(seen) < distinct:
            cols = rng.choice(len(pool), size=p, replace=False)
        seen.add(key)
        picks[j] = pool[cols]
    S = sp.csc_array(
        (np.full(k * p, 1.0 / p), picks.ravel(), np.arange(0, k * p + 1, p, dtype=picks.dtype)),
        shape=(n, k),
    )
    A = A if sp.issparse(A) else sp.csc_array(A)
    # one product for all k columns would hold its sparse result beside W, about a
    # third of W's size on term-document data; a few columns at a time, written
    # straight into W's columns, hold a fraction of that
    W = np.empty((m, k), order="F")
    for j in range(0, k, _AVERAGES_PER_PRODUCT):
        cols = slice(j, j + _AVERAGES_PER_PRODUCT)
        (A @ S[:, cols]).toarray(out=W[:, cols])
    return W


def init_random_acol(A, k: int, p: int = 20, seed=0) -> np.ndarray:
    """Each W column = average of p data columns drawn without replacement.

    seed may be a numpy Generator, which the draws then advance.
    """
    n = A.shape[1]
    if p > n:
        raise PTooLarge(f"p={p} exceeds the {n} columns of A")
    return _draw_averages(A, k, p, np.arange(n), seed)


def init_random_c(
    A, k: int, p: int = 20, seed: int = 0, candidate_fraction: float = 0.2
) -> np.ndarray:
    """Like acol, but columns are drawn from the longest (2-norm) columns.

    The candidate pool is the top ceil(candidate_fraction * n) columns by
    2-norm; norm ties break toward the lower column index.
    """
    n = A.shape[1]
    pool_size = max(1, math.ceil(candidate_fraction * n))
    pool = np.argsort(-column_norms(A), kind="stable")[:pool_size]
    if p > pool_size:
        raise PTooLarge(f"p={p} exceeds the candidate pool of {pool_size} columns")
    return _draw_averages(A, k, p, pool, seed)


def init_svd_centroid(A, V: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster the n rows of the SVD factor V, then average A's columns per cluster.

    Clusters k-dimensional points instead of A's m-dimensional columns. Each
    W column is the unit-normalized average of the documents in one cluster;
    a document whose row of V is zero joins none.
    """
    n = A.shape[1]
    V = np.asarray(V, dtype=float)
    if V.shape[0] != n:
        raise DimensionMismatch(f"V has {V.shape[0]} rows but A has {n} columns")
    if V.shape[1] != k:
        raise DimensionMismatch(f"V has {V.shape[1]} columns but k={k}")
    _, assign = spherical_kmeans(V.T, k, seed=seed)  # rows of V as column points
    return cluster_centroids(A, assign, k)


class _Product:
    """L @ R, never formed: its `@` multiplies by R, then by L, and its `.T` is Rᵀ Lᵀ."""

    def __init__(self, L, R, T=None):
        self.L, self.R, self.shape = L, R, (L.shape[0], R.shape[1])
        self.T = _Product(R.T, L.T, self) if T is None else T

    def __matmul__(self, Z):
        return self.L @ (self.R @ Z)


def init_cooccurrence(A, k: int, seed: int = 0) -> np.ndarray:
    """Cluster the columns of the term co-occurrence matrix C = A A^T, which is never formed.

    The published column-formation recipe for C is not reproduced here; the
    centroids of C's columns stand in for it, keeping term-term similarity
    as the driver of W. Spherical k-means sees C only through products with
    A and A^T. C's column norms come from one row block C[J, :] = A[J] A^T at
    a time, of about max(nnz(A) + (m+n) k, _NORM_BLOCK_FLOOR) values. Zero
    rows of A give zero columns of C, which spherical k-means leaves out.
    """
    A, At = sp.csr_array(A), sp.csc_array(A).T  # At is a CSR on the CSC arrays
    m, n = A.shape
    # sum_d nnz(A[:, d])^2 bounds nnz(C); a block holds about as many values as A and W, H
    nnz_bound = np.sum(np.diff(At.indptr).astype(float) ** 2)
    count = math.ceil(nnz_bound / max(A.nnz + (m + n) * k, _NORM_BLOCK_FLOOR))
    sq_norms = []
    for block in row_blocks(A, max(count, 1)):
        C = block @ At
        C.data **= 2
        sq_norms.append(C.sum(axis=1))
        del C  # before the next block is formed
    norms = np.sqrt(np.concatenate(sq_norms))
    return spherical_kmeans(_Product(A, At).T, k, seed=seed, norms=norms)[0]


def initialize(A, k: int, strategy: InitStrategy) -> np.ndarray:
    """Dispatch on strategy name and return W (m x k)."""
    m, n = A.shape
    if strategy.name == "random":
        return init_random(m, k, seed=strategy.seed)
    if strategy.name == "acol":
        return init_random_acol(A, k, p=strategy.p, seed=strategy.seed)
    if strategy.name == "random-c":
        return init_random_c(
            A, k, p=strategy.p, seed=strategy.seed, candidate_fraction=strategy.pool_fraction
        )
    if strategy.name == "centroid":
        return centroid_decomposition(A, k, seed=strategy.seed)
    if strategy.name == "svd-centroid":
        V = strategy.V
        if V is None:
            V = truncated_svd(A, k, seed=strategy.seed).V
        return init_svd_centroid(A, V, k, seed=strategy.seed)
    if strategy.name == "cooccurrence":
        return init_cooccurrence(A, k, seed=strategy.seed)
    raise ValueError(f"unknown strategy {strategy.name!r}")
