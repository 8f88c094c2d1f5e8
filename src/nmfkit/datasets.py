"""Converters for the classic text collections, from local archives.

Nothing is downloaded. Place the published archive in the destination
directory first:

- medlars: med.tar.gz from http://www.cs.utk.edu/~lsi/corpa/med.tar.gz
- cisi: cisi.tar.gz from http://www.cs.utk.edu/~lsi/corpa/cisi.tar.gz
- reuters10: reuters21578.tar.gz from
  http://www.daviddlewis.com/resources/testcollections/reuters21578/reuters21578.tar.gz
"""

from __future__ import annotations

import re
import tarfile
from pathlib import Path

from .corpus import build_matrix_from_texts
from .errors import InvalidConfig
from .mmio import write_sparse

DATASETS = {
    "medlars": "med.tar.gz",
    "cisi": "cisi.tar.gz",
    "reuters10": "reuters21578.tar.gz",
}


def parse_smart_docs(text: str) -> list[str]:
    """Parse the SMART collection format (.I / .W markers) into documents."""
    docs = []
    current: list[str] | None = None
    in_body = False
    for line in text.splitlines():
        if line.startswith(".I"):
            if current is not None:
                docs.append(" ".join(current))
            current = []
            in_body = False
        elif line.startswith(".W"):
            in_body = True
        elif line.startswith("."):
            in_body = False
        elif in_body and current is not None:
            current.append(line.strip())
    if current is not None:
        docs.append(" ".join(current))
    return [d for d in docs if d.strip()]


_REUTERS_DOC_RE = re.compile(r"<REUTERS[^>]*>(.*?)</REUTERS>", re.DOTALL)
_TOPICS_RE = re.compile(r"<TOPICS>(.*?)</TOPICS>", re.DOTALL)
_D_RE = re.compile(r"<D>(.*?)</D>")
_BODY_RE = re.compile(r"<BODY>(.*?)</BODY>", re.DOTALL)
_SPLIT_RE = re.compile(r'LEWISSPLIT="TRAIN"')


def parse_reuters_top10(sgml_texts: list[str]) -> list[str]:
    """ModApte training documents restricted to the ten most frequent categories.

    Best-effort reproduction of the published subset via category filtering.
    """
    records = []
    for text in sgml_texts:
        for match in _REUTERS_DOC_RE.finditer(text):
            doc = match.group(0)
            if not _SPLIT_RE.search(doc):
                continue
            topics_m = _TOPICS_RE.search(doc)
            body_m = _BODY_RE.search(doc)
            if not topics_m or not body_m:
                continue
            cats = _D_RE.findall(topics_m.group(1))
            if cats:
                records.append((cats, body_m.group(1)))
    counts: dict[str, int] = {}
    for cats, _ in records:
        for c in cats:
            counts[c] = counts.get(c, 0) + 1
    top10 = {c for c, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]}
    return [body for cats, body in records if any(c in top10 for c in cats)]


def fetch(name: str, dest_dir, weighting: str = "tfidf", min_df: int = 2) -> tuple[Path, Path]:
    """Parse the dataset's archive in dest_dir and convert it to matrix.mtx + vocab.tsv.

    Idempotent: when the outputs already exist under dest_dir the archive is
    not read (cache hit). A missing archive raises FileNotFoundError.
    """
    if name not in DATASETS:
        raise InvalidConfig(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = dest_dir / "matrix.mtx"
    vocab_path = dest_dir / "vocab.tsv"
    if matrix_path.exists() and vocab_path.exists():
        return matrix_path, vocab_path

    archive = dest_dir / DATASETS[name]
    if not archive.exists():
        raise FileNotFoundError(f"{archive} not found; place the {name} archive {archive.name} there")

    texts: list[str] = []
    with tarfile.open(archive) as tar:
        for member in tar.getmembers():
            if not member.isfile():
                continue
            raw = tar.extractfile(member).read().decode("latin-1")
            if name == "reuters10":
                if member.name.endswith(".sgm"):
                    texts.append(raw)
            else:
                texts.extend(parse_smart_docs(raw))
    if name == "reuters10":
        texts = parse_reuters_top10(texts)

    A, vocab = build_matrix_from_texts(texts, weighting=weighting, min_df=min_df)
    write_sparse(A, matrix_path)
    vocab.save(vocab_path)
    return matrix_path, vocab_path
