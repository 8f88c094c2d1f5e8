import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmfkit.corpus import (
    DEFAULT_STOPWORDS,
    WEIGHTINGS,
    Vocabulary,
    build_matrix_from_texts,
    mini_corpus,
    mini_matrix,
    tokenize,
    top_terms,
)
from nmfkit.errors import EmptyCorpus, EmptyDocumentWarning, InvalidConfig


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Stars Shine; stars BURN") == ["stars", "shine", "stars", "burn"]

    def test_strips_short_tokens_and_stopwords(self):
        assert tokenize("a cat and the hat") == ["cat", "hat"]

    def test_punctuation_splits_tokens(self):
        assert tokenize("ab--cd,ef", min_token_len=2) == ["ab", "cd", "ef"]

    def test_empty_text(self):
        assert tokenize("") == []


class TestBuildMatrix:
    def test_two_doc_example(self):
        # docs "a b" and "b c" with min_df=1: vocabulary {a, b, c} in sorted
        # order, term b appears in both documents
        A, vocab = build_matrix_from_texts(
            ["a b", "b c"], min_df=1, min_token_len=1, stopwords=frozenset()
        )
        assert vocab.terms == ["a", "b", "c"]
        assert vocab.doc_freq == [1, 2, 1]
        dense = np.asarray(A.todense())
        assert np.array_equal(dense, [[1, 0], [1, 1], [0, 1]])

    def test_min_df_drops_rare_terms(self):
        A, vocab = build_matrix_from_texts(
            ["common rare1", "common rare2"], min_df=2, stopwords=frozenset()
        )
        assert vocab.terms == ["common"]

    def test_tfidf_zeroes_ubiquitous_term(self):
        # idf = log(n/df) = 0 when a term is in every document
        A, vocab = build_matrix_from_texts(
            ["shared alpha", "shared beta", "shared alpha"],
            weighting="tfidf",
            min_df=1,
            stopwords=frozenset(),
        )
        row = vocab.index["shared"]
        assert np.allclose(A.todense()[row, :], 0.0)
        alpha_row = vocab.index["alpha"]
        assert A.todense()[alpha_row, 0] > 0

    def test_duplicate_documents_identical_columns(self):
        A, _ = build_matrix_from_texts(
            ["orbit planet orbit", "orbit planet orbit"], min_df=1, stopwords=frozenset()
        )
        dense = np.asarray(A.todense())
        assert np.array_equal(dense[:, 0], dense[:, 1])

    def test_empty_document_warns_and_keeps_zero_column(self):
        with pytest.warns(EmptyDocumentWarning):
            A, _ = build_matrix_from_texts(
                ["kept words here kept words", "??? !!!"], min_df=1, stopwords=frozenset()
            )
        assert A.shape[1] == 2
        assert np.allclose(A.todense()[:, 1], 0.0)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_matrix_from_texts([])

    def test_nothing_survives_filter_raises(self):
        with pytest.raises(EmptyCorpus):
            build_matrix_from_texts(["unique1", "unique2"], min_df=2, stopwords=frozenset())

    def test_logent_hand_example(self):
        # a_ij = log(1 + c_ij) * (1 + sum_j p_ij log p_ij / log n), p_ij = c_ij / sum_j c_ij
        A, vocab = build_matrix_from_texts(
            ["sun moon sun day", "moon star day", "sun star star day"],
            weighting="logent",
            min_df=1,
            stopwords=frozenset(),
        )
        assert vocab.terms == ["day", "moon", "star", "sun"]
        third = (math.log(1 / 3) / 3 + 2 * math.log(2 / 3) / 3) / math.log(3)
        g_moon = 1.0 - math.log(2) / math.log(3)
        g_star = g_sun = 1.0 + third
        expected = [
            [0.0, 0.0, 0.0],  # once in every document: no information, weight 0
            [math.log(2) * g_moon, math.log(2) * g_moon, 0.0],
            [0.0, math.log(2) * g_star, math.log(3) * g_star],
            [math.log(3) * g_sun, 0.0, math.log(2) * g_sun],
        ]
        assert A.nnz == 6  # "day"'s weight is exactly 0, so its values are dropped
        np.testing.assert_allclose(A.toarray(), expected, rtol=1e-12, atol=0)

    def test_logent_weighting_nonnegative(self):
        A, _ = build_matrix_from_texts(
            ["sun moon sun", "moon star", "sun star star"],
            weighting="logent",
            min_df=1,
            stopwords=frozenset(),
        )
        assert A.todense().min() >= -1e-12

    def test_unknown_weighting(self):
        with pytest.raises(InvalidConfig):
            build_matrix_from_texts(["one word here", "word here too"], weighting="boolean")


def _dict_oracle(texts, min_df):
    """(terms, doc_freq, columns of sorted (row, count) pairs) by per-token dict loops."""
    tokenized = [tokenize(t, min_token_len=1, stopwords=frozenset()) for t in texts]
    df = {}
    for toks in tokenized:
        for term in set(toks):
            df[term] = df.get(term, 0) + 1
    terms = sorted(t for t, c in df.items() if c >= min_df)
    index = {t: i for i, t in enumerate(terms)}
    columns = []
    for toks in tokenized:
        col = {}
        for term in toks:
            if term in index:
                col[index[term]] = col.get(index[term], 0) + 1
        columns.append(sorted(col.items()))
    return terms, [df[t] for t in terms], columns


_WORDS = st.sampled_from(["ab", "cd", "ef", "gh", "ij"])


class TestBuildMatrixOracle:
    @given(
        texts=st.lists(st.lists(_WORDS, max_size=8).map(" ".join), min_size=1, max_size=7),
        min_df=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_counting(self, texts, min_df):
        terms, doc_freq, columns = _dict_oracle(texts, min_df)
        kwargs = dict(min_df=min_df, min_token_len=1, stopwords=frozenset())
        if not terms:
            with pytest.raises(EmptyCorpus):
                build_matrix_from_texts(texts, **kwargs)
            return
        n = len(texts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tf, vocab = build_matrix_from_texts(texts, **kwargs)
            tfidf, _ = build_matrix_from_texts(texts, weighting="tfidf", **kwargs)
        empty = [j for j, col in enumerate(columns) if not col]
        warned = [str(w.message) for w in caught if issubclass(w.category, EmptyDocumentWarning)]
        message = "document {} has no in-vocabulary tokens; keeping a zero column"
        assert warned == [message.format(j) for j in empty] * 2  # once per build
        assert vocab.terms == terms and vocab.doc_freq == doc_freq
        assert tf.shape == (len(terms), n)
        assert tf.indptr.tolist() == np.cumsum([0] + [len(col) for col in columns]).tolist()
        assert tf.indices.tolist() == [i for col in columns for i, _ in col]
        assert tf.data.tolist() == [float(c) for col in columns for _, c in col]
        idf = np.log(n / np.array(doc_freq, dtype=float))
        weighted = [(j, i, c * idf[i]) for j, col in enumerate(columns) for i, c in col]
        kept = [(j, i, v) for j, i, v in weighted if v != 0.0]
        assert tfidf.indices.tolist() == [i for _, i, _ in kept]
        assert tfidf.data.tolist() == [v for _, _, v in kept]
        assert np.array_equal(np.diff(tfidf.indptr), np.bincount([j for j, _, _ in kept], minlength=n))


class TestVocabularyIO:
    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary(terms=["apple", "pear"], doc_freq=[3, 1])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.terms == vocab.terms
        assert loaded.doc_freq == vocab.doc_freq
        assert loaded.index == {"apple": 0, "pear": 1}


class TestTopTerms:
    def test_unit_column(self):
        vocab = Vocabulary(terms=["x", "y", "z"], doc_freq=[1, 1, 1])
        W = np.array([[0.0], [1.0], [0.0]])
        assert top_terms(W, vocab, 0, 1) == [("y", 1.0)]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        terms = [f"t{i:02d}" for i in range(30)]
        vocab = Vocabulary(terms=terms, doc_freq=[1] * 30)
        W = rng.random((30, 2))
        got = top_terms(W, vocab, 1, 5)
        order = sorted(range(30), key=lambda i: (-W[i, 1], i))
        assert got == [(terms[i], W[i, 1]) for i in order[:5]]

    def test_weight_ties_break_to_lower_index(self):
        vocab = Vocabulary(terms=["aa", "bb", "cc"], doc_freq=[1, 1, 1])
        W = np.array([[0.5], [0.5], [0.9]])
        assert [t for t, _ in top_terms(W, vocab, 0, 3)] == ["cc", "aa", "bb"]


class TestMiniCorpus:
    def test_deterministic(self):
        assert mini_corpus() == mini_corpus()

    def test_sixty_documents(self):
        assert len(mini_corpus()) == 60

    def test_matrix_shape_and_determinism(self):
        A1, vocab1 = mini_matrix()
        A2, vocab2 = mini_matrix()
        assert A1.shape == (len(vocab1), 60)
        assert vocab1.terms == vocab2.terms
        assert np.array_equal(A1.todense(), A2.todense())

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_32_bit_indices(self, weighting):
        # 4 bytes less per nonzero in every copy the solver and the initializers make
        A, _ = mini_matrix(weighting)
        assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32

    def test_topic_words_present(self):
        _, vocab = mini_matrix()
        for word in ("telescope", "simmer", "dividend", "midfield"):
            assert word in vocab.index

    def test_stopwords_constant_is_sane(self):
        assert "the" in DEFAULT_STOPWORDS
        assert "telescope" not in DEFAULT_STOPWORDS
