import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import rand_sparse, spd_matrix
from nmfkit.corpus import WEIGHTINGS, mini_matrix
from nmfkit.errors import DegenerateInput, DimensionMismatch, RankTooLarge, SingularSystem
from nmfkit.linalg import (
    centroid_decomposition,
    cluster_centroids,
    column_norms,
    gram,
    residual_trace,
    row_blocks,
    solve_spd_multi,
    solve_spd_ridged,
    spherical_kmeans,
    trace_frob_sq,
    transpose_view,
    truncated_svd,
)


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(4)), np.eye(4))

    def test_single_column_norm(self):
        v = np.array([[3.0], [4.0]])
        assert gram(v)[0, 0] == pytest.approx(25.0)

    def test_matches_bruteforce_dots(self):
        # oracle: entry (i, j) computed as an explicit column dot product
        rng = np.random.default_rng(3)
        M = rng.random((17, 5))
        G = gram(M)
        for i in range(5):
            for j in range(5):
                assert G[i, j] == pytest.approx(float(M[:, i] @ M[:, j]), abs=1e-12)

    @given(arrays(np.float64, (6, 3), elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_psd(self, M):
        G = gram(M)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-8


class TestSolveSpdMulti:
    def test_identity_system(self):
        B = np.arange(6.0).reshape(3, 2)
        assert np.allclose(solve_spd_multi(np.eye(3), B), B)

    def test_diagonal_system(self):
        G = np.diag([2.0, 4.0])
        B = np.array([[2.0], [8.0]])
        assert np.allclose(solve_spd_multi(G, B), [[1.0], [2.0]])

    def test_residual_oracle(self):
        # oracle: plug the solution back in rather than trusting the factorization
        G = spd_matrix(6, seed=1)
        B = np.random.default_rng(2).random((6, 9))
        X = solve_spd_multi(G, B)
        assert np.linalg.norm(G @ X - B) <= 1e-8 * np.linalg.norm(B)

    def test_singular_raises(self):
        G = np.ones((3, 3))  # rank 1
        with pytest.raises(SingularSystem):
            solve_spd_multi(G, np.eye(3))


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_right_side_solves_match_cho_solve(self, order):
        # oracle: LAPACK's left-side potrs on the same factor
        rng = np.random.default_rng(4)
        G = spd_matrix(12, seed=5)
        B = np.asarray(rng.random((12, 300)), order=order)
        B0 = B.copy()
        X = solve_spd_multi(G, B)
        ref = cho_solve(cho_factor(G, lower=True), B)
        assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(B, B0)  # the solve works on its own copy

    def test_vector_right_hand_side(self):
        G = spd_matrix(5, seed=6)
        b = np.arange(5.0)
        x = solve_spd_multi(G, b)
        assert x.shape == (5,)
        assert np.allclose(G @ x, b, rtol=1e-12)


class TestRowBlocks:
    @staticmethod
    def _with_empty_rows():
        # rows 0-9 and 60-79 empty, and row 30 holds over a quarter of the nonzeros
        rng = np.random.default_rng(7)
        dense = rng.random((80, 50)) * (rng.random((80, 50)) < 0.1)
        dense[:10] = dense[60:] = 0.0
        dense[30] = rng.random(50) + 0.1
        return sp.csr_array(dense)

    def test_blocks_stack_back_to_a(self):
        A = self._with_empty_rows()
        blocks = row_blocks(A, 4)
        assert len(blocks) == 4
        assert all(sp.issparse(b) and b.format == "csr" for b in blocks)
        assert np.array_equal(sp.vstack(blocks).toarray(), A.toarray())

    def test_blocks_share_data_and_indices(self):
        A = self._with_empty_rows()
        for block in row_blocks(A, 4):
            if block.nnz:
                assert np.shares_memory(block.data, A.data)
                assert np.shares_memory(block.indices, A.indices)
                assert block.indptr.dtype == A.indices.dtype

    def test_boundaries_depend_only_on_indptr(self):
        A = rand_sparse(200, 30, density=0.2, seed=8).tocsr()
        other = A.copy()
        other.data = np.random.default_rng(9).random(other.nnz)
        other.indices = np.random.default_rng(10).integers(0, 30, other.nnz).astype(A.indices.dtype)
        shapes = [b.shape for b in row_blocks(A, 4)]
        assert shapes == [b.shape for b in row_blocks(other, 4)]
        nnz = [b.nnz for b in row_blocks(A, 4)]
        assert sum(nnz) == A.nnz and max(nnz) - min(nnz) <= max(np.diff(A.indptr))

    def test_transpose_view_shares_arrays(self):
        block = row_blocks(self._with_empty_rows(), 4)[1]
        T = transpose_view(block)
        assert T.format == "csc" and T.shape == block.shape[::-1]
        assert T.data is block.data and T.indices is block.indices
        assert np.array_equal(T.toarray(), block.toarray().T)


class TestColumnNorms:
    @pytest.mark.parametrize("fmt", ["csc", "csr", "coo"])
    def test_bit_identical_to_summed_squares(self, fmt):
        # random-c orders its candidate pool by these norms, so they must not move by round-off
        A = rand_sparse(300, 80, density=0.1, seed=16).asformat(fmt)
        expected = np.sqrt(np.asarray(A.power(2).sum(axis=0)).ravel())
        assert column_norms(A).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("container", [sp.csc_array, sp.csr_array])
    def test_unsorted_indices_and_duplicates(self, container):
        # A A^T comes out with unsorted indices; a duplicate must be summed before squaring
        shape = (25, 40) if container is sp.csc_array else (40, 25)

        def noncanonical():
            rng = np.random.default_rng(18)
            indptr = np.arange(0, 121, 3)  # 40 columns (CSC) or rows (CSR) of 3 entries each
            indices = rng.integers(0, 25, 120)
            indices[1::3] = indices[::3]  # a duplicate in each
            return container((rng.random(120), indices, indptr), shape=shape)

        expected = np.sqrt(np.asarray(noncanonical().power(2).sum(axis=0)).ravel())
        assert column_norms(noncanonical()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fmt", ["csc", "csr"])
    def test_peak_is_one_copy_of_the_data(self, fmt):
        # squaring a copy of X would also copy its indices, a third more at 32-bit indices
        A = rand_sparse(2000, 300, density=0.1, seed=17).asformat(fmt)
        tracemalloc.start()
        try:
            column_norms(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= A.data.nbytes + 16 * sum(A.shape)


class TestResidualTrace:
    @staticmethod
    def _call(A, W, H):
        return residual_trace(A, W, H, gram(W), W.T @ A, trace_frob_sq(A))

    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        W = rng.random((8, 3))
        H = rng.random((3, 6))
        A = sp.csc_array(W @ H)
        assert self._call(A, W, H) == pytest.approx(0.0, abs=1e-9)

    def test_zero_factors_give_norm_squared(self):
        A = rand_sparse(7, 5, seed=4)
        W = np.zeros((7, 2))
        H = np.zeros((2, 5))
        assert self._call(A, W, H) == pytest.approx(trace_frob_sq(A), rel=1e-12)

    def test_matches_dense_oracle(self):
        A = rand_sparse(12, 9, seed=5)
        rng = np.random.default_rng(6)
        W = rng.random((12, 4))
        H = rng.random((4, 9))
        oracle = float(np.linalg.norm(A.todense() - W @ H, "fro") ** 2)
        assert self._call(A, W, H) == pytest.approx(oracle, rel=1e-10)

    def test_never_negative(self):
        # clamped at zero even when rounding would dip below
        rng = np.random.default_rng(7)
        W = rng.random((20, 5))
        H = rng.random((5, 15))
        A = sp.csc_array(W @ H)
        assert self._call(A, W, H) >= 0.0

    def test_dimension_mismatch(self):
        A = rand_sparse(5, 4)
        W = np.ones((5, 2))
        H = np.ones((3, 4))  # wrong inner dimension
        with pytest.raises(DimensionMismatch):
            residual_trace(A, W, H, gram(W), W.T @ A, trace_frob_sq(A))


class TestTruncatedSvd:
    def test_diagonal_singular_values(self):
        A = sp.csc_array(np.diag([3.0, 2.0, 1.0]))
        svd = truncated_svd(A, 2)
        assert np.allclose(svd.singular_values, [3.0, 2.0], atol=1e-10)

    def test_rank_one_recovery(self):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        v = np.array([0.6, 0.8])
        A = sp.csc_array(5.0 * np.outer(u, v))
        svd = truncated_svd(A, 1)
        assert svd.singular_values[0] == pytest.approx(5.0, abs=1e-10)
        assert abs(float(svd.U[:, 0] @ u)) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_factors(self):
        A = rand_sparse(30, 20, seed=8)
        svd = truncated_svd(A, 6)
        assert np.allclose(svd.U.T @ svd.U, np.eye(6), atol=1e-10)
        assert np.allclose(svd.V.T @ svd.V, np.eye(6), atol=1e-10)

    def test_matches_dense_svd_oracle(self):
        A = rand_sparse(40, 30, seed=0)
        svd = truncated_svd(A, 5, seed=0, power_iters=15)
        W = svd.U * svd.singular_values
        err = np.sqrt(residual_trace(A, W, svd.V.T, gram(W), W.T @ A, trace_frob_sq(A)))
        s = np.linalg.svd(np.asarray(A.todense()), compute_uv=False)
        oracle = float(np.sqrt((s[5:] ** 2).sum()))
        assert err <= oracle + 1e-6 * np.sqrt(trace_frob_sq(A))

    def test_error_decreases_with_rank(self):
        A = rand_sparse(25, 18, seed=9)

        def err(k):
            svd = truncated_svd(A, k, power_iters=15)
            W = svd.U * svd.singular_values
            return residual_trace(A, W, svd.V.T, gram(W), W.T @ A, trace_frob_sq(A))

        assert err(6) <= err(3) + 1e-9

    def test_deterministic(self):
        A = rand_sparse(15, 12, seed=10)
        a, b = truncated_svd(A, 4, seed=7), truncated_svd(A, 4, seed=7)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.V, b.V)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            truncated_svd(rand_sparse(5, 4), 5)


class TestCentroidDecomposition:
    @staticmethod
    def _clustered_columns(seed=0):
        # 50 columns scattered around 3 well-separated nonnegative centers
        rng = np.random.default_rng(seed)
        centers = rng.random((20, 3)) + [[1.0, 4.0, 8.0]]
        assign = rng.integers(0, 3, size=50)
        X = centers[:, assign] * (1 + 0.05 * rng.standard_normal((20, 50)))
        return np.abs(X), assign

    @staticmethod
    def _dispersion(Xn, labels, k):
        total = 0.0
        for c in range(k):
            members = Xn[:, labels == c]
            if members.shape[1] == 0:
                continue
            centroid = members.mean(axis=1)
            centroid /= np.linalg.norm(centroid)
            total += float(np.sum(1.0 - centroid @ members))
        return total

    def test_beats_random_partitions(self):
        # oracle: within-cluster cosine dispersion no worse than any of 100
        # random assignments of the same columns
        X, _ = self._clustered_columns()
        Xn = X / np.linalg.norm(X, axis=0)
        centroids, labels = spherical_kmeans(X, 3, seed=0)
        ours = self._dispersion(Xn, labels, 3)
        rng = np.random.default_rng(123)
        for _ in range(100):
            random_labels = rng.integers(0, 3, size=X.shape[1])
            assert ours <= self._dispersion(Xn, random_labels, 3) + 1e-12

    def test_nonnegative_centroids(self):
        X, _ = self._clustered_columns(seed=2)
        C = centroid_decomposition(sp.csc_array(X), 3)
        assert C.shape == (20, 3)
        assert C.min() >= 0.0

    def test_skips_zero_columns(self):
        X = np.eye(4)
        X[:, 2] = 0.0
        C = centroid_decomposition(X, 2)
        assert np.all(np.linalg.norm(C, axis=0) > 0)

    def test_degenerate_when_too_few_nonzero(self):
        X = np.zeros((4, 5))
        X[0, 0] = 1.0
        with pytest.raises(DegenerateInput):
            centroid_decomposition(X, 2)

    def test_deterministic(self):
        X, _ = self._clustered_columns(seed=3)
        assert np.array_equal(
            centroid_decomposition(X, 3, seed=1), centroid_decomposition(X, 3, seed=1)
        )

    def test_empty_cluster_reseeded(self):
        # two identical columns with k=2 forces an initially empty cluster
        X = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        centroids, labels = spherical_kmeans(X, 2, seed=0)
        assert set(labels) == {0, 1}
        assert np.all(np.linalg.norm(centroids, axis=0) > 0)


class TestSparseKmeans:
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_sparse_assignment_equals_dense(self, weighting):
        A, _ = mini_matrix(weighting)
        dense = A.toarray()
        for seed in range(5):
            C_sparse, a_sparse = spherical_kmeans(A, 8, seed=seed)
            C_dense, a_dense = spherical_kmeans(dense, 8, seed=seed)
            assert np.array_equal(a_sparse, a_dense)
            assert np.allclose(C_sparse, C_dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    def test_precomputed_norms_change_nothing(self, dense):
        A, _ = mini_matrix("tfidf")
        X = A.toarray() if dense else A
        for seed in range(3):
            C_given, a_given = spherical_kmeans(X, 8, seed=seed, norms=column_norms(X))
            C, a = spherical_kmeans(X, 8, seed=seed)
            assert C_given.tobytes() == C.tobytes() and np.array_equal(a_given, a)

    def test_cluster_centroids_match_per_cluster_average(self):
        # oracle: one normalized mean per cluster by boolean masks; -1 joins no cluster
        A = rand_sparse(12, 20, density=0.5, seed=4)
        assign = np.random.default_rng(5).integers(-1, 4, size=20)
        assign[assign == 2] = 1  # cluster 2 stays empty
        W = cluster_centroids(A, assign, 4)
        dense = A.toarray()
        for c in range(4):
            mean = dense[:, assign == c].sum(axis=1)
            nrm = np.linalg.norm(mean)
            assert np.allclose(W[:, c], mean / nrm if nrm else mean, rtol=0, atol=1e-14)
        assert not W[:, 2].any()


class TestZeroColumns:
    @staticmethod
    def _with_zero_columns(repeated):
        # repeated: 3 directions over 30 columns, so k=4 re-seeds an empty cluster
        if repeated:
            dense = rand_sparse(20, 3, density=0.5, seed=1).toarray()[:, np.arange(30) % 3]
        else:
            dense = rand_sparse(20, 30, density=0.4, seed=15).toarray()
        dense[:, [0, 7, 8, 29]] = 0.0
        return dense

    @pytest.mark.parametrize("repeated", [False, True])
    @pytest.mark.parametrize("fmt", ["csc", "csr", "dense"])
    def test_match_a_run_without_them(self, fmt, repeated):
        # oracle: the same clustering of the nonzero columns alone
        dense = self._with_zero_columns(repeated)
        keep = np.flatnonzero(dense.any(axis=0))
        form = np.asarray if fmt == "dense" else lambda M: sp.csc_array(M).asformat(fmt)
        for seed in range(5):
            C, assign = spherical_kmeans(form(dense), 4, seed=seed)
            C_kept, assign_kept = spherical_kmeans(form(dense[:, keep]), 4, seed=seed)
            assert np.array_equal(np.flatnonzero(assign == -1), [0, 7, 8, 29])
            assert np.array_equal(assign[keep], assign_kept)
            # a dense product's round-off may move with its inner dimension
            np.testing.assert_allclose(C, C_kept, rtol=0, atol=1e-15 if fmt == "dense" else 0)

    @pytest.mark.parametrize("given_norms", [False, True])
    def test_too_few_nonzero_columns_is_degenerate(self, given_norms):
        X = np.zeros((4, 5))
        X[0, 0] = X[1, 3] = 1.0
        norms = column_norms(X) if given_norms else None
        with pytest.raises(DegenerateInput, match="only 2 nonzero columns available for k=3"):
            spherical_kmeans(X, 3, norms=norms)


class TestSphericalKmeansOracle:
    def test_matches_independent_clustering_objective(self):
        # oracle: sklearn k-means on the normalized columns finds the same
        # partition on a clean 20-column instance, hence the same objective
        sklearn_cluster = pytest.importorskip("sklearn.cluster")
        rng = np.random.default_rng(11)
        centers = np.abs(rng.random((10, 3))) + [[2.0, 6.0, 12.0]]
        assign = np.repeat([0, 1, 2], [7, 7, 6])
        X = centers[:, assign] * (1 + 0.02 * rng.standard_normal((10, 20)))
        Xn = X / np.linalg.norm(X, axis=0)
        _, ours = spherical_kmeans(X, 3, seed=0)
        km = sklearn_cluster.KMeans(n_clusters=3, n_init=10, random_state=0).fit(Xn.T)
        ours_obj = TestCentroidDecomposition._dispersion(Xn, ours, 3)
        oracle_obj = TestCentroidDecomposition._dispersion(Xn, km.labels_, 3)
        assert ours_obj == pytest.approx(oracle_obj, abs=1e-6)


class TestSingularContract:
    def test_tiny_pivot_raises_and_ridged_solve_recovers(self):
        # pivot 1e-14 is below _PIVOT_RTOL * max|G| = 1e-12, though G is positive definite
        G = np.diag([1.0, 1e-14])
        B = np.array([[1.0], [1e-14]])
        with pytest.raises(SingularSystem):
            solve_spd_multi(G, B)
        X = solve_spd_ridged(G, B)
        assert np.isfinite(X).all()
        assert X[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_indefinite_raises_singular_system_not_linalgerror(self):
        G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(SingularSystem):
            solve_spd_multi(G, np.eye(2))
