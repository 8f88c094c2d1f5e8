"""Seeded planted-topic text corpus for the benchmark.

Documents are plain text, so the matrix is built by nmfkit's own tokenizer
and weighting code, and the corpus layer is measured with the rest.

The topics (which words each one uses) come from `model_seed`, so every
workload seed samples documents from the same planted model.

Model, per document:
- length ~ lognormal, clipped to [min_len, max_len] tokens;
- topic mixture ~ Dirichlet(doc_alpha) over n_topics planted topics;
- each token is a background token with probability background_frac, drawn
  from a Zipf law over the whole vocabulary, otherwise a topic token: a topic
  from the document's mixture, then a word from that topic's own Zipf law
  over its topic_size words.

Words are distinct letter strings, so every generated token survives
nmfkit's tokenizer.

All draws are vectorised inverse-CDF lookups, so generation time is small
next to tokenizing and weighting the text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    vocab_size: int
    n_topics: int
    topic_size: int
    mean_log_len: float
    sigma_log_len: float
    min_len: int = 20
    max_len: int = 4000
    zipf_s: float = 1.05
    doc_alpha: float = 0.1
    background_frac: float = 0.35
    model_seed: int = 0


def _words(count: int, stopwords) -> list[str]:
    """Distinct lowercase words of 3+ letters, shortest first, no stopwords."""
    words = []
    i = 26 * 26
    while len(words) < count:
        digits, x = [], i
        while x:
            x, r = divmod(x, 26)
            digits.append(_LETTERS[r])
        word = "".join(reversed(digits))
        if word not in stopwords:
            words.append(word)
        i += 1
    return words


def _zipf_cdf(size: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, size + 1) ** s
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def generate(spec: CorpusSpec, seed: int, stopwords=frozenset()) -> tuple[list[str], int]:
    """Return (documents, total token count); same spec and seed, same text."""
    rng = np.random.default_rng(seed)
    vocab = np.array(_words(spec.vocab_size, stopwords))
    lengths = np.clip(
        np.rint(rng.lognormal(spec.mean_log_len, spec.sigma_log_len, spec.n_docs)),
        spec.min_len,
        spec.max_len,
    ).astype(np.int64)
    total = int(lengths.sum())
    doc_of = np.repeat(np.arange(spec.n_docs), lengths)

    # topic words: a random subset of the vocabulary per topic, ranked in a random order
    model_rng = np.random.default_rng(spec.model_seed)
    topic_words = np.stack(
        [model_rng.choice(spec.vocab_size, size=spec.topic_size, replace=False) for _ in range(spec.n_topics)]
    )
    # CDF rows shifted by their row index, so one searchsorted serves every row
    theta = rng.dirichlet(np.full(spec.n_topics, spec.doc_alpha), size=spec.n_docs)
    theta_cdf = np.cumsum(theta, axis=1)
    theta_cdf /= theta_cdf[:, -1:]
    theta_cdf += np.arange(spec.n_docs)[:, None]
    topic_cdf = _zipf_cdf(spec.topic_size, spec.zipf_s)
    background_cdf = _zipf_cdf(spec.vocab_size, spec.zipf_s)

    is_background = rng.random(total) < spec.background_frac
    token_ids = np.empty(total, dtype=np.int64)
    nb = int(is_background.sum())
    token_ids[is_background] = np.searchsorted(background_cdf, rng.random(nb), side="right")
    topical = ~is_background
    docs_t = doc_of[topical]
    topic = np.searchsorted(theta_cdf.ravel(), docs_t + rng.random(docs_t.size), side="right")
    topic = np.minimum(topic - docs_t * spec.n_topics, spec.n_topics - 1)
    rank = np.minimum(
        np.searchsorted(topic_cdf, rng.random(docs_t.size), side="right"), spec.topic_size - 1
    )
    token_ids[topical] = topic_words[topic, rank]
    np.minimum(token_ids, spec.vocab_size - 1, out=token_ids)

    tokens = vocab[token_ids]
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    docs = [" ".join(tokens[bounds[j] : bounds[j + 1]]) for j in range(spec.n_docs)]
    return docs, total
