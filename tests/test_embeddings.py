import re

import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    DuplicateEntryError,
    EmbeddingTable,
    EmptyInputError,
    InputError,
    ParseError,
    WriteError,
    align_vocabularies,
    load_embeddings,
    save_embeddings,
)
from mmfuse import embeddings


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

    @pytest.mark.parametrize(
        "text, error, line_no, message",
        [
            ("a 1 2\n\nb 3 4\n", ParseError, 2, "blank line"),
            ("a 1 2\n \t\nb 3 4\n", ParseError, 2, "blank line"),
            ("2 3\na 1 2 3 4\nb 1 2 3\n", ParseError, 2,
             "row has 4 values but header declares dim 3"),
            ("a\nb 1\n", ParseError, 1, "row has a word but no values"),
            ("a 1 2\nb 3\n", ParseError, 2, "expected 2 values, found 1"),
            ("a 1 2\nb 3 4 5\n", ParseError, 2, "expected 2 values, found 3"),
            ("a 1 2\nb 1 x\n", ParseError, 2,
             "non-numeric value (could not convert string to float: 'x')"),
            ("a 0x10 2\n", ParseError, 1,
             "non-numeric value (could not convert string to float: '0x10')"),
            ("a x y\n", ParseError, 1,
             "non-numeric value (could not convert string to float: 'x')"),
            ("a inf x\n", ParseError, 1,
             "non-numeric value (could not convert string to float: 'x')"),
            ("a 1 nan\n", ParseError, 1, "non-finite value"),
            ("a 1 2\nb -inf 1\n", ParseError, 2, "non-finite value"),
            ("a 1 1e400\n", ParseError, 1, "non-finite value"),
            ("a 1 2\nb 3 4\na 5 6\n", DuplicateEntryError, 3, "duplicate word 'a'"),
            ("3 2\na 1 2\nb 3 4\n", ParseError, 3,
             "header declares 3 words, file has 2"),
            ("", EmptyInputError, None, "no embedding rows"),
            ("2 3\n", EmptyInputError, None, "no embedding rows"),
            ("7 3\n", EmptyInputError, None, "no embedding rows"),
            # two integers then a 1-value row where the header would declare dim 1:
            # the header reading stays (the case that remains ambiguous)
            ("7 1\n8 2\n", ParseError, 2, "header declares 7 words, file has 1"),
            # two faults: the earlier line wins, whatever its kind
            ("a 1 2\nb inf 2\nc 1\n", ParseError, 2, "non-finite value"),
            ("a 1 2\nb 1\nc x 2\n", ParseError, 2, "expected 2 values, found 1"),
            ("a 1 2\na 3 4\nc x 2\n", DuplicateEntryError, 2,
             "duplicate word 'a'"),
            # a leading byte-order mark is not part of line 1: the header stays a header
            ("\ufeff2 3\na 1 2 3 4\nb 1 2 3\n", ParseError, 2,
             "row has 4 values but header declares dim 3"),
            ("\ufeff3 2\na 1 2\nb 3 4\n", ParseError, 3,
             "header declares 3 words, file has 2"),
            ("\ufeffa 1 2\nb 3\n", ParseError, 2, "expected 2 values, found 1"),
            ("\ufeff", EmptyInputError, None, "no embedding rows"),
            # str.splitlines() ends a line at \x85 too: today's outcome, pinned
            ("a 1.0 2.0\nb 3.0\x854.0\nc 5.0 6.0\n", ParseError, 2,
             "expected 2 values, found 1"),
        ],
    )
    def test_malformed_file_names_first_bad_line(
        self, tmp_path, text, error, line_no, message
    ):
        path = write(tmp_path, text)
        with pytest.raises(error) as exc:
            load_embeddings(path)
        assert type(exc.value) is error
        where = f"{path}" if line_no is None else f"{path}:{line_no}"
        assert str(exc.value) == f"{where}: {message}"
        if error is ParseError:
            assert exc.value.line_no == line_no

    @pytest.mark.parametrize("text", ["\ufeffa 1 2\nb 3 4\n", "\ufeff2 2\na 1 2\nb 3 4\n"])
    def test_leading_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path, text):
        table = load_embeddings(write(tmp_path, text))
        assert table.vocab == ("a", "b")
        np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path):
        table = load_embeddings(write(tmp_path, "\ufeff\ufeffa 1 2\n"))
        assert table.vocab == ("\ufeffa",)

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\xef\xbb\xbfa 1 2\nb \xff 4\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert exc.value.line_no == 2
        assert "not valid UTF-8" in str(exc.value)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_breaks_are_those_of_splitlines(self, tmp_path, char):
        # str.splitlines() ends a line at each of these, not only at \n and \r
        table = load_embeddings(write(tmp_path, f"a 1.0 2.0{char}b 3.0 4.0\n"))
        assert table.vocab == ("a", "b")
        np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_two_integers_before_a_one_value_row_are_a_row(self, tmp_path):
        # line 2 has one value where the header would declare 3, and line 1
        # read as a row has one value too: it is the first row of a 1-d table
        table = load_embeddings(write(tmp_path, "7 3\n8 2\n"))
        assert table.vocab == ("7", "8")
        np.testing.assert_array_equal(table.matrix, [[3.0], [2.0]])

    def test_values_are_those_of_float(self, tmp_path):
        tokens = ["1_0", "+.5", "-0", "1E3", "\u0661\u0662", "1e-320"]
        seps = ["\t", "   ", "\xa0", " \t ", "\xa0\xa0", "\t\t"]
        rows = [tokens, tokens[::-1]]
        text = "".join(
            word + "".join(sep + tok for sep, tok in zip(seps, row)) + "\n"
            for word, row in zip(("a", "b"), rows)
        )
        table = load_embeddings(write(tmp_path, text))
        expected = np.array([[float(t) for t in row] for row in rows])
        assert table.vocab == ("a", "b")
        np.testing.assert_array_equal(
            table.matrix.view(np.int64), expected.view(np.int64)
        )


class TestFastPath:
    """numpy's reader parses a plain file alone; what it refuses goes to the per-line parser."""

    @pytest.fixture
    def per_line_calls(self, monkeypatch):
        calls = []
        parse_lines = embeddings._parse_lines

        def spy(*args):
            calls.append(args)
            return parse_lines(*args)

        monkeypatch.setattr(embeddings, "_parse_lines", spy)
        return calls

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("header", ["", "2 3\n"])
    def test_plain_file_never_reaches_the_per_line_parser(
        self, tmp_path, per_line_calls, bom, header
    ):
        table = load_embeddings(write(tmp_path, f"{bom}{header}a 1 2 3\nb 4.5 -0 1e-3\n"))
        assert table.vocab == ("a", "b")
        np.testing.assert_array_equal(table.matrix, [[1, 2, 3], [4.5, 0, 1e-3]])
        assert per_line_calls == []

    @pytest.mark.parametrize("text", [
        "a 1_0 2\nb 3 4\n",
        "a \u0661\u0662 2\nb 3 4\n",
        "a 1 2\n\nb 3 4\n",
        "a 1 2\nb\n",
        "a 1 2\nb 3 4 5\n",
        "a 1 2\nb 3\n",
        "a 1 nan\nb 3 4\n",
        "a 1 1e400\nb 3 4\n",
        "a 1 2\na 3 4\n",
        "3 2\na 1 2\nb 3 4\n",
        "2 3\na 1 2\nb 3 4\n",
    ])
    def test_each_refusal_reaches_the_per_line_parser(self, tmp_path, per_line_calls, text):
        path = write(tmp_path, text)
        try:
            load_embeddings(path)
        except InputError:
            pass
        assert [args[:2] for args in per_line_calls] == [(path, text.splitlines())]


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

    def test_rows_match_per_value_formatting(self, tmp_path):
        vocab = ("a", "50%", "\u00e9t\u00e9")
        matrix = np.array([
            [-0.0, 4e-7, -4e-7],
            [5e-7, 1e15, -1e15],
            [-5e-7, 0.1234565, 2.0],
        ])
        path = tmp_path / "out.vecs"
        save_embeddings(EmbeddingTable(vocab, matrix), path)
        expected = "3 3\n" + "".join(
            word + " " + " ".join("%.6f" % v for v in row) + "\n"
            for word, row in zip(vocab, matrix)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.vecs"
        bad = EmbeddingTable(("a", "\ud800"), np.ones((2, 2)))
        message = re.escape(f"cannot write {path}: word '\\ud800' cannot be encoded as UTF-8")
        # a lone surrogate cannot be encoded: refused before any file is created
        with pytest.raises(WriteError, match=message):
            save_embeddings(bad, path)
        assert list(tmp_path.iterdir()) == []
        save_embeddings(EmbeddingTable(("a", "b"), np.eye(2)), path)
        before = path.read_bytes()
        with pytest.raises(WriteError, match=message):
            save_embeddings(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.vecs"]

    @pytest.mark.parametrize("word", ["a b", "", "a\tb", "a\nb", " a", "a\x1cb", "a\u2028b"])
    def test_a_word_the_loader_would_split_is_not_written(self, tmp_path, word):
        # written as it stands, the row does not load back as it was
        naive = tmp_path / "naive.vecs"
        naive.write_text(f"2 2\nc 1.0 0.0\n{word} 0.0 1.0\n", encoding="utf-8")
        try:
            assert load_embeddings(naive).vocab != ("c", word)
        except ParseError:
            pass
        path = tmp_path / "out.vecs"
        save_embeddings(EmbeddingTable(("a", "b"), np.eye(2)), path)
        before = path.read_bytes()
        with pytest.raises(WriteError, match=re.escape(
                f"cannot write {path}: word {word!r} is empty or holds whitespace")):
            save_embeddings(EmbeddingTable(("c", word), np.eye(2)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["naive.vecs", "out.vecs"]

    def test_a_table_with_no_rows_is_not_written(self, tmp_path):
        # written as it stands, the header alone does not load back
        naive = tmp_path / "naive.vecs"
        naive.write_text("0 3\n", encoding="utf-8")
        with pytest.raises(EmptyInputError):
            load_embeddings(naive)
        path = tmp_path / "out.vecs"
        empty = EmbeddingTable((), np.empty((0, 3)), name="e")
        message = re.escape(f"cannot write {path}: table 'e' has no rows")
        with pytest.raises(WriteError, match=message):
            save_embeddings(empty, path)
        assert [p.name for p in tmp_path.iterdir()] == ["naive.vecs"]

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

    @pytest.mark.parametrize("vocab, matrix, text", [
        (("a", "b"), np.ones(2), "matrix must be 2-dimensional"),
        (("a", "b"), np.ones((2, 1, 1)), "matrix must be 2-dimensional"),
        (("a", "b"), np.ones((2, 0)), "embedding dimension must be >= 1"),
    ])
    def test_shape_errors(self, vocab, matrix, text):
        with pytest.raises(ValueError) as info:
            EmbeddingTable(vocab, matrix)
        assert type(info.value) is ValueError and str(info.value) == text

    def test_row_of_a_word_not_in_the_table_names_both(self):
        table = EmbeddingTable(("a", "b"), np.eye(2), name="textual")
        assert table.row("b").tolist() == [0.0, 1.0]
        with pytest.raises(KeyError) as info:
            table.row("zz")
        assert info.value.args == ("word 'zz' not in table 'textual'",)
        assert info.value.__suppress_context__

    def test_matrix_is_immutable(self):
        table = EmbeddingTable(("a", "b"), np.eye(2))
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0
