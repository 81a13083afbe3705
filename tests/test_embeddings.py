import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    DuplicateEntryError,
    EmbeddingTable,
    EmptyInputError,
    ParseError,
    WriteError,
    align_vocabularies,
    load_embeddings,
    save_embeddings,
)


def write(tmp_path, text, name="vecs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "cat 1.0 0.0\ndog 0.0 1.0\n")
        table = load_embeddings(path, name="toy")
        assert table.vocab == ("cat", "dog")
        assert table.dim == 2
        np.testing.assert_array_equal(table.matrix, np.eye(2))

    def test_header_accepted_and_checked(self, tmp_path):
        ok = write(tmp_path, "2 3\na 1 2 3\nb 4 5 6\n")
        table = load_embeddings(ok)
        assert len(table) == 2 and table.dim == 3

        bad = write(tmp_path, "2 3\na 1 2 3 4\n", name="bad.txt")
        with pytest.raises(ParseError) as exc:
            load_embeddings(bad)
        assert exc.value.line_no == 2

    def test_wrong_token_count_reports_line(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb 3\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert exc.value.line_no == 2

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "a 1 x\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_non_finite_value(self, tmp_path):
        path = write(tmp_path, "a 1 nan\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_duplicate_word(self, tmp_path):
        path = write(tmp_path, "a 1 2\na 3 4\n")
        with pytest.raises(DuplicateEntryError):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_embeddings(write(tmp_path, ""))

    def test_header_word_count_mismatch(self, tmp_path):
        path = write(tmp_path, "3 2\na 1 2\nb 3 4\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_words_are_byte_exact(self, tmp_path):
        path = write(tmp_path, "Cat 1 0\ncat 0 1\n")
        table = load_embeddings(path)
        assert table.vocab == ("Cat", "cat")


class TestSaveRoundTrip:
    def test_file_shape(self, tmp_path):
        table = EmbeddingTable(("a", "b"), np.eye(2), name="t")
        path = tmp_path / "out.txt"
        save_embeddings(table, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "2 2"

    def test_round_trip_500dim(self, tmp_path):
        rng = np.random.default_rng(42)
        vocab = ("alpha", "bravo", "charlie", "delta", "echo")
        table = EmbeddingTable(vocab, rng.normal(size=(5, 500)), name="big")
        path = tmp_path / "big.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path, name="big")
        assert loaded.vocab == table.vocab
        # 6 written decimals: loaded values within half an ulp of that grid
        np.testing.assert_allclose(loaded.matrix, table.matrix, atol=5.0000001e-7)
        # and a second pass is bit-identical at the declared precision
        path2 = tmp_path / "big2.txt"
        save_embeddings(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.vecs"
        save_embeddings(EmbeddingTable(("a", "b"), np.eye(2)), path)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded: the write fails at the second row
        with pytest.raises(UnicodeEncodeError):
            save_embeddings(EmbeddingTable(("a", "\ud800"), np.ones((2, 2))), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.vecs"]

    def test_unwritable_path(self, tmp_path):
        table = EmbeddingTable(("a",), np.ones((1, 2)))
        with pytest.raises(WriteError):
            save_embeddings(table, tmp_path)  # a directory is not writable as a file


class TestAlign:
    def make(self, words, seed=0, name=""):
        rng = np.random.default_rng(seed)
        return EmbeddingTable(tuple(words), rng.normal(size=(len(words), 3)), name=name)

    def test_intersection_sorted(self):
        a = self.make(["cat", "dog", "fish"], seed=1)
        b = self.make(["dog", "cat"], seed=2)
        a2, b2 = align_vocabularies(a, b)
        assert a2.vocab == b2.vocab == ("cat", "dog")

    def test_identity_up_to_reordering(self):
        a = self.make(["dog", "cat"], seed=3)
        a2, b2 = align_vocabularies(a, a)
        assert a2.vocab == ("cat", "dog")
        np.testing.assert_array_equal(a2.matrix, b2.matrix)

    def test_disjoint_errors(self):
        with pytest.raises(AlignmentError):
            align_vocabularies(self.make(["x"]), self.make(["y"]))

    def test_rows_never_altered(self):
        a = self.make(["cat", "dog", "fish"], seed=4)
        b = self.make(["fish", "cat", "owl"], seed=5)
        a2, _ = align_vocabularies(a, b)
        for word in a2.vocab:
            np.testing.assert_array_equal(a2.row(word), a.row(word))

    def test_idempotent(self):
        a = self.make(["cat", "dog", "fish"], seed=6)
        b = self.make(["dog", "cat", "owl"], seed=7)
        a1, b1 = align_vocabularies(a, b)
        a2, b2 = align_vocabularies(a1, b1)
        assert a1.vocab == a2.vocab
        np.testing.assert_array_equal(a1.matrix, a2.matrix)
        np.testing.assert_array_equal(b1.matrix, b2.matrix)


class TestTableValidation:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(DuplicateEntryError):
            EmbeddingTable(("a", "a"), np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a", "b"), np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a",), np.eye(2))

    def test_matrix_is_immutable(self):
        table = EmbeddingTable(("a", "b"), np.eye(2))
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0
