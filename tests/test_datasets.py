import tarfile

import pytest

from nmfkit.corpus import Vocabulary
from nmfkit.datasets import fetch, parse_reuters_top10, parse_smart_docs
from nmfkit.errors import InvalidConfig
from nmfkit.mmio import read_sparse

SMART_SAMPLE = """.I 1
.W
the quick brown fox
jumps over the dog
.I 2
.T
ignored title
.W
second document body
.I 3
.W
third one
"""

REUTERS_SAMPLE = """<REUTERS LEWISSPLIT="TRAIN" NEWID="1">
<TOPICS><D>earn</D></TOPICS>
<BODY>quarterly earnings rose sharply</BODY>
</REUTERS>
<REUTERS LEWISSPLIT="TEST" NEWID="2">
<TOPICS><D>earn</D></TOPICS>
<BODY>excluded test split document</BODY>
</REUTERS>
<REUTERS LEWISSPLIT="TRAIN" NEWID="3">
<TOPICS></TOPICS>
<BODY>no category so excluded</BODY>
</REUTERS>
<REUTERS LEWISSPLIT="TRAIN" NEWID="4">
<TOPICS><D>grain</D></TOPICS>
<BODY>wheat harvest estimates</BODY>
</REUTERS>
"""


class TestSmartParser:
    def test_splits_on_doc_markers(self):
        docs = parse_smart_docs(SMART_SAMPLE)
        assert len(docs) == 3
        assert docs[0] == "the quick brown fox jumps over the dog"
        assert docs[1] == "second document body"

    def test_non_body_sections_ignored(self):
        docs = parse_smart_docs(SMART_SAMPLE)
        assert "ignored title" not in " ".join(docs)

    def test_empty_input(self):
        assert parse_smart_docs("") == []


class TestReutersParser:
    def test_train_split_with_categories_only(self):
        docs = parse_reuters_top10([REUTERS_SAMPLE])
        assert "quarterly earnings rose sharply" in docs
        assert "wheat harvest estimates" in docs
        assert all("excluded" not in d for d in docs)


class TestFetch:
    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            fetch("nonexistent", tmp_path)

    def test_cache_hit_skips_download(self, tmp_path):
        (tmp_path / "matrix.mtx").write_text("placeholder")
        (tmp_path / "vocab.tsv").write_text("placeholder")
        matrix_path, vocab_path = fetch("medlars", tmp_path)
        assert matrix_path.read_text() == "placeholder"
        assert vocab_path.read_text() == "placeholder"

    def test_converts_local_smart_archive(self, tmp_path):
        doc = tmp_path / "MED.ALL"
        doc.write_text(".I 1\n.W\nbrown fox jumps\n.I 2\n.T\ntitle\n.W\nlazy brown dog\n.I 3\n.W\nfox dog\n")
        with tarfile.open(tmp_path / "med.tar.gz", "w:gz") as tar:
            tar.add(doc, arcname="med/MED.ALL")
        matrix_path, vocab_path = fetch("medlars", tmp_path, weighting="tf")
        assert (matrix_path.name, vocab_path.name) == ("matrix.mtx", "vocab.tsv")
        A = read_sparse(matrix_path)
        terms = Vocabulary.load(vocab_path).terms
        assert sorted(terms) == ["brown", "dog", "fox"]
        assert A.shape == (3, 3) and A.nnz == 6
