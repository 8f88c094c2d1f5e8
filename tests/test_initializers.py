import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import nnls

from helpers import rand_sparse
from nmfkit.corpus import WEIGHTINGS, mini_matrix
import nmfkit.initializers as initializers
from nmfkit.errors import DegenerateInput, PTooLarge
from nmfkit.initializers import (
    STRATEGY_NAMES,
    InitStrategy,
    init_centroid,
    init_cooccurrence,
    init_random,
    init_random_acol,
    init_random_c,
    init_svd_centroid,
    initialize,
)
from nmfkit.linalg import centroid_decomposition, column_norms, spherical_kmeans, truncated_svd


class TestRandom:
    def test_shape_and_range(self):
        W = init_random(9, 4, seed=0)
        assert W.shape == (9, 4)
        assert W.min() >= 0.0 and W.max() <= 1.0

    def test_deterministic(self):
        assert np.array_equal(init_random(6, 3, seed=5), init_random(6, 3, seed=5))

    def test_seed_changes_output(self):
        assert not np.array_equal(init_random(6, 3, seed=0), init_random(6, 3, seed=1))

    def test_mean_near_half(self):
        # law of large numbers: uniform [0, 1) sample mean within 3 sigma
        W = init_random(200, 50, seed=1)
        sigma = np.sqrt(1 / 12 / W.size)
        assert abs(W.mean() - 0.5) <= 3 * sigma


class TestRandomAcol:
    def test_single_column_average_oracle(self):
        # oracle: with p = n every basis column is the full column average
        A = rand_sparse(10, 6, seed=2)
        full_avg = np.asarray(A.todense()).mean(axis=1)
        W = init_random_acol(A, 3, p=6, seed=0)
        for j in range(3):
            assert np.allclose(W[:, j], full_avg, atol=1e-12)

    def test_average_of_known_sample(self):
        # oracle: replay the generator to learn which columns were drawn
        A = rand_sparse(12, 9, seed=3)
        W = init_random_acol(A, 2, p=4, seed=7)
        rng = np.random.default_rng(7)
        dense = np.asarray(A.todense())
        for j in range(2):
            cols = rng.choice(9, size=4, replace=False)
            assert np.allclose(W[:, j], dense[:, cols].mean(axis=1), atol=1e-12)

    @pytest.mark.parametrize("fmt", ["csc", "csr", "dense"])
    def test_known_samples_across_several_products(self, fmt):
        # oracle: 19 columns take three 8-column selection products; 40 choose 5 makes a
        # repeated subset (and so a redraw) practically impossible, so the replay holds
        A = rand_sparse(30, 40, density=0.3, seed=5)
        given = {"csc": A, "csr": sp.csr_array(A), "dense": A.toarray()}[fmt]
        W = init_random_acol(given, 19, p=5, seed=8)
        rng, dense = np.random.default_rng(8), A.toarray()
        for j in range(19):
            cols = rng.choice(40, size=5, replace=False)
            assert np.allclose(W[:, j], dense[:, cols].mean(axis=1), rtol=1e-14, atol=0)

    def test_sparser_than_random(self):
        A = rand_sparse(60, 40, density=0.1, seed=4)
        W = init_random_acol(A, 5, p=3, seed=0)
        dense_frac = np.count_nonzero(W) / W.size
        assert dense_frac < 1.0  # dense random init has every entry nonzero

    def test_columns_in_cone_of_documents(self):
        # each W column must be a nonnegative combination of document columns
        A = rand_sparse(15, 10, seed=5)
        W = init_random_acol(A, 4, p=5, seed=1)
        dense = np.asarray(A.todense())
        for j in range(4):
            _, resid = nnls(dense, W[:, j])
            assert resid <= 1e-10

    def test_p_too_large(self):
        with pytest.raises(PTooLarge):
            init_random_acol(rand_sparse(5, 4), 2, p=5)


class TestRandomC:
    def test_pool_prefers_long_columns(self):
        # columns 0 and 1 dwarf the rest; with a two-column pool every basis
        # vector is an average of those two only
        dense = np.full((6, 10), 0.01)
        dense[:, 0] = 5.0
        dense[:, 1] = 4.0
        A = sp.csc_array(dense)
        W = init_random_c(A, 3, p=2, seed=0, candidate_fraction=0.2)
        assert np.allclose(W, 4.5 * np.ones((6, 3)), atol=1e-12)

    def test_norm_ties_break_to_lower_index(self):
        # all columns have equal norm; the 20% pool must be columns 0..1
        dense = np.zeros((10, 10))
        for j in range(10):
            dense[j, j] = 2.0
        A = sp.csc_array(dense)
        W = init_random_c(A, 2, p=2, seed=3, candidate_fraction=0.2)
        expected = (dense[:, 0] + dense[:, 1]) / 2
        for j in range(2):
            assert np.allclose(W[:, j], expected, atol=1e-12)

    def test_deterministic(self):
        A = rand_sparse(20, 15, seed=6)
        assert np.array_equal(
            init_random_c(A, 4, p=3, seed=9), init_random_c(A, 4, p=3, seed=9)
        )

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_distinct_subsets_give_distinct_columns(self, weighting):
        # a pool of 12 columns with p=3 has 220 subsets, so k=8 draws need not repeat;
        # these seeds each drew one subset twice before repeated subsets were redrawn
        A, _ = mini_matrix(weighting)
        for seed in [*range(321, 331), 1941]:
            W = init_random_c(A, 8, p=3, seed=seed)
            assert len({tuple(col) for col in W.T}) == 8

    def test_repeats_allowed_once_every_subset_is_drawn(self):
        # a pool of 3 columns with p=2 has only 3 subsets: k=5 must repeat, and terminate
        A = rand_sparse(8, 15, density=0.8, seed=6)
        W = init_random_c(A, 5, p=2, seed=0)
        assert len({tuple(col) for col in W.T}) == 3


class TestCentroid:
    def test_orthogonal_columns_recovered(self):
        # three groups of identical columns: centroids are the unit columns
        dense = np.zeros((5, 9))
        dense[0, 0:3] = 2.0
        dense[2, 3:6] = 3.0
        dense[4, 6:9] = 1.5
        W = init_centroid(sp.csc_array(dense), 3, seed=0)
        cols = {tuple(np.round(W[:, j], 12)) for j in range(3)}
        e = np.eye(5)
        assert cols == {tuple(e[:, 0]), tuple(e[:, 2]), tuple(e[:, 4])}

    def test_nonnegative_unit_columns(self):
        A = rand_sparse(12, 30, seed=7)
        W = init_centroid(A, 4, seed=0)
        assert W.min() >= 0.0
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-10)


class TestSvdCentroid:
    def test_identity_v_gives_normalized_columns(self):
        # n = k with V = I: singleton clusters, so each basis vector is one
        # normalized document column
        A = rand_sparse(8, 3, density=0.9, seed=8)
        W = init_svd_centroid(A, np.eye(3), 3, seed=0)
        dense = np.asarray(A.todense())
        normalized = {
            tuple(np.round(dense[:, j] / np.linalg.norm(dense[:, j]), 10)) for j in range(3)
        }
        got = {tuple(np.round(W[:, j], 10)) for j in range(3)}
        assert got == normalized

    def test_duplicate_documents_share_cluster(self):
        rng = np.random.default_rng(9)
        dense = rng.random((10, 6))
        dense[:, 3] = dense[:, 0]  # duplicate document
        A = sp.csc_array(dense)
        V = truncated_svd(A, 2).V
        W = init_svd_centroid(A, V, 2, seed=0)
        # both copies contribute to the same centroid, so some W column is
        # exactly colinear with the average of a group containing both
        sims = W.T @ dense[:, 0] / np.linalg.norm(dense[:, 0])
        assert sims.max() > 0.9


class TestCooccurrence:
    def test_shape_and_nonneg(self):
        A = rand_sparse(15, 25, seed=11)
        W = init_cooccurrence(A, 3, seed=0)
        assert W.shape == (15, 3)
        assert W.min() >= 0.0

    @staticmethod
    def _with_zero_rows():
        A = rand_sparse(30, 40, density=0.3, seed=14).tolil()
        A[[3, 7, 8, 29], :] = 0.0
        return sp.csc_array(A)

    @pytest.mark.parametrize("fmt", ["csc", "csr"])
    @pytest.mark.parametrize("floor", [None, 1])
    def test_matches_explicit_c_oracle(self, fmt, floor, monkeypatch):
        # oracle: centroid decomposition of the formed C = A A^T; a floor of 1
        # value cuts the norm pass into several blocks
        if floor is not None:
            monkeypatch.setattr(initializers, "_NORM_BLOCK_FLOOR", floor)
        cases = [(mini_matrix(w)[0], 8) for w in WEIGHTINGS] + [(self._with_zero_rows(), 4)]
        for A, k in cases:
            A = A.asformat(fmt)
            for seed in range(5):
                want = centroid_decomposition((A @ A.T).tocsc(), k, seed=seed)
                got = init_cooccurrence(A, k, seed=seed)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_degenerate_when_too_few_nonzero_rows(self):
        A = sp.csc_array(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 1.0]]))
        with pytest.raises(DegenerateInput):
            init_cooccurrence(A, 3, seed=0)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_kmeans_on_products_matches_explicit_c(self, weighting):
        A, _ = mini_matrix(weighting)
        C = (A @ A.T).tocsc()
        keep = np.flatnonzero(column_norms(C) > 0)
        product = initializers._Product(sp.csr_array(A)[keep], sp.csc_array(A).T).T
        assert product.shape == (A.shape[0], keep.size)
        for seed in range(5):
            want_c, want_a = spherical_kmeans(C[:, keep], 8, seed=seed)
            got_c, got_a = spherical_kmeans(product, 8, seed=seed, norms=column_norms(C)[keep])
            assert np.array_equal(got_a, want_a)
            np.testing.assert_allclose(got_c, want_c, rtol=0, atol=1e-12)


class TestDispatcher:
    def test_all_strategies_produce_valid_w0(self):
        A = rand_sparse(20, 30, density=0.5, seed=12)
        for name in STRATEGY_NAMES:
            W = initialize(A, 4, InitStrategy(name=name, p=5, seed=0))
            assert W.shape == (20, 4)
            assert np.isfinite(W).all()
            assert W.min() >= 0.0

    def test_svd_centroid_computes_v_when_missing(self):
        A = rand_sparse(20, 30, density=0.5, seed=13)
        auto = initialize(A, 3, InitStrategy(name="svd-centroid", seed=0))
        V = truncated_svd(A, 3, seed=0).V
        manual = initialize(A, 3, InitStrategy(name="svd-centroid", V=V, seed=0))
        assert np.array_equal(auto, manual)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            InitStrategy(name="bogus")


class TestMemoryAndInputs:
    @pytest.fixture(scope="class")
    def wide(self):
        return rand_sparse(6000, 2000, density=0.005, seed=10)

    @pytest.mark.parametrize("name", ["centroid", "svd-centroid", "acol", "random-c", "cooccurrence"])
    def test_peak_scales_with_nnz_not_mn(self, wide, name):
        # u = one 64-bit-index copy of A plus one (m+n) x k float array. A dense
        # m x n copy of A is 200u; A A^T, which co-occurrence never forms, is about 17u.
        (m, n), k = wide.shape, 10
        u = 16 * wide.nnz + 8 * (m + n) * k
        bound = 4 * u
        tracemalloc.start()
        try:
            initialize(wide, k, InitStrategy(name=name, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_input_matrix_untouched(self, name):
        # a zero column and explicitly stored zeros exercise the column filtering
        A = rand_sparse(20, 30, density=0.4, seed=15)
        A.data[:5] = 0.0
        A.data[A.indptr[3] : A.indptr[4]] = 0.0
        before = [A.data.copy(), A.indices.copy(), A.indptr.copy()]
        initialize(A, 4, InitStrategy(name=name, p=3, seed=0))
        for got, want in zip((A.data, A.indices, A.indptr), before):
            assert np.array_equal(got, want)
