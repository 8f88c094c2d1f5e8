"""Text-corpus ingestion: tokenize, weight, and assemble term-document matrices.

Also bundles a deterministic synthetic mini-corpus (60 documents, 8 planted
topics) so the benchmark and acceptance suites run offline.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import EmptyCorpus, EmptyDocumentWarning, InvalidConfig
from .mmio import read_vocab, write_vocab

WEIGHTINGS = ("tf", "tfidf", "logent")

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his if in into is it
    its me my no not of on or our she so that the their them then there these
    they this to was we were what when which who will with you your""".split()
)

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def tokenize(text: str, min_token_len: int = 2, stopwords=DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop short tokens and stopwords."""
    return [
        tok
        for tok in _TOKEN_RE.split(text.lower())
        if len(tok) >= min_token_len and tok not in stopwords
    ]


@dataclass
class Vocabulary:
    """Bidirectional term <-> row-index map with document frequencies."""

    terms: list[str]
    doc_freq: list[int]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def save(self, path) -> None:
        write_vocab(path, self.terms, self.doc_freq)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        terms, df = read_vocab(path)
        return cls(terms=terms, doc_freq=df)


def _weight(counts: sp.csc_array, weighting: str) -> sp.csc_array:
    if weighting == "tf":
        return counts
    m, n = counts.shape
    term = counts.indices  # the row, so the term, of each stored count
    if weighting == "tfidf":
        idf = np.log(n / np.maximum(np.bincount(term, minlength=m), 1))
        data = counts.data * idf[term]
    elif weighting == "logent":
        total = np.bincount(term, weights=counts.data, minlength=m)
        p = counts.data / total[term]
        entropy = np.bincount(term, weights=p * np.log(p), minlength=m)
        # equal counts in all n documents give entropy exactly -log n, which the sum misses by ulps
        even = np.bincount(term, weights=counts.data != (total / n)[term], minlength=m) == 0
        global_w = np.where(even, 0.0, 1.0 + entropy / math.log(n)) if n > 1 else np.ones(m)
        data = np.log1p(counts.data) * global_w[term]
    else:
        raise InvalidConfig(f"unknown weighting {weighting!r}; choose from {WEIGHTINGS}")
    out = sp.csc_array((data, counts.indices, counts.indptr), shape=(m, n))
    out.eliminate_zeros()
    return out


def build_matrix_from_texts(
    texts: list[str],
    weighting: str = "tf",
    min_df: int = 2,
    min_token_len: int = 2,
    stopwords=DEFAULT_STOPWORDS,
) -> tuple[sp.csc_array, Vocabulary]:
    """Column j = weighted term vector of document j.

    Terms appearing in fewer than min_df documents are dropped; vocabulary
    indices are assigned in sorted term order so the result is deterministic.
    Documents that end up empty keep a zero column and trigger a warning.
    """
    if not texts:
        raise EmptyCorpus("no documents supplied")
    ids: dict[str, int] = {}  # term -> first-seen id
    per_doc = [
        np.array(
            [ids.setdefault(tok, len(ids)) for tok in tokenize(t, min_token_len, stopwords)],
            dtype=np.int32,
        )
        for t in texts
    ]
    lengths = [a.size for a in per_doc]
    term = np.concatenate(per_doc)
    del per_doc
    doc = np.repeat(np.arange(len(texts), dtype=np.int32), lengths)
    # the constructor sums duplicate (term, doc) pairs into the term's count in the document
    counts = sp.csr_array((np.ones(term.size), (term, doc)), shape=(len(ids), len(texts)))
    df = np.diff(counts.indptr)
    kept = sorted(t for t, i in ids.items() if df[i] >= min_df)
    if not kept:
        raise EmptyCorpus("no terms survived the min-df filter")
    rows = np.array([ids[t] for t in kept], dtype=np.intp)
    vocab = Vocabulary(terms=kept, doc_freq=df[rows].tolist())
    counts = counts[rows].tocsc()
    for j in np.flatnonzero(np.diff(counts.indptr) == 0):
        warnings.warn(
            f"document {j} has no in-vocabulary tokens; keeping a zero column",
            EmptyDocumentWarning,
            stacklevel=2,
        )
    return _weight(counts, weighting), vocab


def build_matrix(
    doc_paths: list,
    weighting: str = "tf",
    min_df: int = 2,
    min_token_len: int = 2,
    stopwords=DEFAULT_STOPWORDS,
) -> tuple[sp.csc_array, Vocabulary]:
    """build_matrix_from_texts over files, one document per path."""
    texts = [Path(p).read_text(encoding="utf-8", errors="replace") for p in doc_paths]
    return build_matrix_from_texts(
        texts, weighting=weighting, min_df=min_df, min_token_len=min_token_len, stopwords=stopwords
    )


def top_terms(W: np.ndarray, vocab: Vocabulary, column: int, count: int) -> list[tuple[str, float]]:
    """Top `count` terms of one basis column, ties broken by lower row index."""
    col = np.asarray(W[:, column])
    order = np.argsort(-col, kind="stable")[:count]
    return [(vocab.terms[i], float(col[i])) for i in order]


# ---------------------------------------------------------------------------
# Bundled mini-corpus: 8 planted topics, 60 short documents, fixed seed.

_TOPIC_WORDS = {
    "astronomy": ["telescope", "galaxy", "orbit", "comet", "nebula", "planet", "lunar", "stellar"],
    "cooking": ["recipe", "oven", "garlic", "simmer", "flour", "saute", "butter", "seasoning"],
    "finance": ["market", "dividend", "equity", "portfolio", "yield", "broker", "hedge", "asset"],
    "soccer": ["goal", "midfield", "striker", "penalty", "keeper", "defender", "corner", "offside"],
    "medicine": ["patient", "diagnosis", "therapy", "clinical", "symptom", "dosage", "vaccine", "chronic"],
    "music": ["melody", "chord", "tempo", "rhythm", "guitar", "sonata", "harmony", "octave"],
    "gardening": ["soil", "pruning", "compost", "seedling", "mulch", "perennial", "bloom", "trellis"],
    "computing": ["compiler", "kernel", "thread", "cache", "socket", "daemon", "runtime", "packet"],
}

_SHARED_WORDS = ["report", "study", "weekly", "local", "annual", "public"]

_MINI_SEED = 20240811


def mini_corpus(n_docs: int = 60) -> list[str]:
    """Deterministic synthetic documents cycling through the 8 planted topics."""
    rng = np.random.default_rng(_MINI_SEED)
    topics = list(_TOPIC_WORDS)
    docs = []
    for i in range(n_docs):
        topic = topics[i % len(topics)]
        secondary = topics[(i + 1 + int(rng.integers(0, len(topics) - 1))) % len(topics)]
        words = []
        chosen = rng.choice(len(_TOPIC_WORDS[topic]), size=6, replace=False)
        for w in chosen:
            words.extend([_TOPIC_WORDS[topic][w]] * int(rng.integers(20, 90)))
        # a secondary topic keeps per-document topic mixtures from being 1-sparse
        for w in rng.choice(len(_TOPIC_WORDS[secondary]), size=3, replace=False):
            words.extend([_TOPIC_WORDS[secondary][w]] * int(rng.integers(10, 40)))
        for w in rng.choice(len(_SHARED_WORDS), size=2, replace=False):
            words.extend([_SHARED_WORDS[w]] * int(rng.integers(2, 10)))
        # light cross-topic noise keeps the matrix from being exactly rank 8
        other = topics[int(rng.integers(0, len(topics)))]
        words.extend([_TOPIC_WORDS[other][int(rng.integers(0, 8))]] * int(rng.integers(2, 12)))
        order = rng.permutation(len(words))
        docs.append(" ".join(words[t] for t in order))
    return docs


def mini_matrix(weighting: str = "tf") -> tuple[sp.csc_array, Vocabulary]:
    """Term-document matrix of the bundled mini-corpus."""
    return build_matrix_from_texts(mini_corpus(), weighting=weighting, min_df=2)
