"""Word-embedding tables: text-format I/O and vocabulary alignment.

File format is word2vec-style text: an optional first header line
``"<n_words> <dim>"`` followed by one line per word, the word first and
then ``dim`` whitespace-separated finite numbers in any form Python's
``float()`` reads. A first line of two integers is the header, unless
the file is a 1-d table whose rows contradict it (see
``load_embeddings``). Encoding is UTF-8, with or without a leading
byte-order mark, and numbers are written with 6 decimal digits. Words
are compared byte-exact; no case folding is applied anywhere.
"""

import codecs
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import (
    AlignmentError,
    DuplicateEntryError,
    EmptyInputError,
    ParseError,
    WriteError,
)

SAVE_DECIMALS = 6


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable vocabulary plus a row-per-word matrix of vectors."""

    vocab: tuple
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        vocab = tuple(self.vocab)
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if len(vocab) != matrix.shape[0]:
            raise ValueError(
                f"vocabulary size {len(vocab)} != matrix rows {matrix.shape[0]}"
            )
        if len(set(vocab)) != len(vocab):
            raise DuplicateEntryError(f"duplicate words in vocabulary of {self.name!r}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"non-finite values in embedding matrix of {self.name!r}")
        matrix.flags.writeable = False
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __len__(self):
        return len(self.vocab)

    def __contains__(self, word):
        return word in self.index

    @cached_property
    def index(self):
        """word -> row number."""
        return {w: i for i, w in enumerate(self.vocab)}

    @cached_property
    def sq_norms(self):
        """Squared norm of every row, the per-row term of every cosine on this table."""
        return _kernels.row_sq_norms(self.matrix)

    def row(self, word):
        try:
            return self.matrix[self.index[word]]
        except KeyError:
            raise KeyError(f"word {word!r} not in table {self.name!r}") from None


def read_utf8(path):
    """Whole text file, without one leading byte-order mark.

    A byte that is not UTF-8 raises ParseError at its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not valid UTF-8 ({exc.reason})") from None


@contextmanager
def atomic_open(path):
    """Text handle on a temporary file that replaces ``path`` once fully written.

    The temporary file sits beside ``path``. If the block raises, it is
    removed and ``path`` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def require_utf8(word, path):
    """Raise ``WriteError`` for ``path`` if UTF-8 cannot encode ``word`` (a lone surrogate)."""
    try:
        word.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise WriteError(f"cannot write {path}: word {word!r} cannot be encoded as UTF-8 "
                         f"({exc.reason})") from None


def load_embeddings(path, name=""):
    """Parse a text embedding file into a validated :class:`EmbeddingTable`.

    An optional ``"n dim"`` header is accepted and checked against the
    content. A first line of two integer tokens ``n d`` is that header
    unless line 2 has one value while ``d`` is not 1: line 1, read as a
    row, has one value too, so it is the first row of a 1-d table. Where
    line 2 has one value and ``d`` is 1, the header reading is kept, so
    ``n`` must count the rows. A value is any token Python's ``float()``
    accepts that is finite, and it is stored exactly as ``float()`` reads
    it. Every row is validated in file order: a blank line, a wrong value
    count, a non-numeric or non-finite value and a duplicate word raise on
    the first offending line; an empty file raises too.

    Each line is split once into its word and the rest, and numpy's C
    text reader parses every rest in one call. Whatever that path
    refuses, be it a fault or a token only ``float()`` reads (``1_0``,
    non-ASCII digits), goes to the per-line parser ``_parse_lines``,
    which returns the table or raises the error of the first bad line.
    """
    lines = read_utf8(path).splitlines()
    declared = _header(lines)
    body = lines if declared is None else lines[1:]
    if body:
        try:
            split = [line.split(None, 1) for line in body]
            words = [tokens[0] for tokens in split]  # IndexError: a blank line
            rests = [tokens[1] for tokens in split]  # IndexError: a word with no values
            matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
            table = EmbeddingTable(words, matrix, name=name)
        except (ValueError, IndexError, DuplicateEntryError):
            pass
        else:
            if declared in (None, (len(table), table.dim)):
                return table
    return _parse_lines(path, lines, name)


def _header(lines):
    """The ``(n, d)`` a first line of two integers declares, or None if it is a row."""
    if not lines:
        return None
    tokens = lines[0].split()
    if len(tokens) != 2:
        return None
    try:
        declared = (int(tokens[0]), int(tokens[1]))
    except ValueError:
        return None
    if declared[1] != 1 and len(lines) > 1 and len(lines[1].split()) == 2:
        return None  # line 2 is a 1-d row, and so is line 1 read as a row
    return declared


def _parse_lines(path, lines, name):
    """``load_embeddings`` of the file's ``lines``, one line at a time.

    It raises the error of the first bad line, naming ``path`` and the
    line's number.

    Rows go straight into one matrix allocated when the first row fixes
    the dimension; numpy converts each row's tokens with ``float()``.
    """
    declared = _header(lines)
    start_line = 1 if declared is None else 2
    words = []
    seen = set()
    matrix = None
    dim = None
    for row, line in enumerate(lines[start_line - 1:]):
        line_no = row + start_line
        tokens = line.split()
        if not tokens:
            raise ParseError(path, line_no, "blank line")
        word = tokens[0]
        if dim is None:
            dim = len(tokens) - 1
            if declared is not None and dim != declared[1]:
                raise ParseError(
                    path, line_no,
                    f"row has {dim} values but header declares dim {declared[1]}",
                )
            if dim < 1:
                raise ParseError(path, line_no, "row has a word but no values")
            matrix = np.empty((len(lines) - start_line + 1, dim), dtype=np.float64)
        if len(tokens) - 1 != dim:
            raise ParseError(
                path, line_no, f"expected {dim} values, found {len(tokens) - 1}"
            )
        try:
            matrix[row] = tokens[1:]
        except ValueError:
            raise ParseError(
                path, line_no, f"non-numeric value ({_float_error(tokens[1:])})"
            ) from None
        if not np.isfinite(matrix[row]).all():
            raise ParseError(path, line_no, "non-finite value")
        if word in seen:
            raise DuplicateEntryError(f"{path}:{line_no}: duplicate word {word!r}")
        seen.add(word)
        words.append(word)
    if not words:
        raise EmptyInputError(f"{path}: no embedding rows")
    if declared is not None and declared[0] != len(words):
        raise ParseError(
            path, len(lines),
            f"header declares {declared[0]} words, file has {len(words)}",
        )
    return EmbeddingTable(tuple(words), matrix, name=name)


def _float_error(tokens):
    """``float()``'s error for the first token it rejects.

    numpy converts with ``float()`` too, so one is rejected; taking the
    message from ``float()`` keeps it the same on every numpy version.
    """
    for token in tokens:
        try:
            float(token)
        except ValueError as exc:
            return exc


def save_embeddings(table, path):
    """Write ``table`` as header plus one row per word, 6 decimal digits.

    Each row is ``word`` and its values as ``"%.6f"``, space-separated,
    formatted in one operation per row. The file is replaced atomically:
    a failed write leaves any previous file at ``path`` intact. A table
    with no rows, which ``load_embeddings`` refuses, a word that is empty
    or holds whitespace, which it would split, or a word that UTF-8
    cannot encode raises ``WriteError`` before any file is written.
    """
    if not len(table):
        raise WriteError(f"cannot write {path}: table {table.name!r} has no rows")
    for word in table.vocab:
        if word.split() != [word]:
            raise WriteError(f"cannot write {path}: word {word!r} is empty or holds whitespace")
        require_utf8(word, path)
    row_fmt = "%s " + " ".join([f"%.{SAVE_DECIMALS}f"] * table.dim) + "\n"
    try:
        with atomic_open(path) as fh:
            fh.write(f"{len(table)} {table.dim}\n")
            for word, row in zip(table.vocab, table.matrix):
                fh.write(row_fmt % (word, *row.tolist()))
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def align_vocabularies(a, b):
    """Restrict both tables to their shared vocabulary, rows sorted by word.

    Vector values are never altered; rows are only selected and reordered,
    so alignment is idempotent.
    """
    common = sorted(set(a.vocab) & set(b.vocab))
    if not common:
        raise AlignmentError(
            f"no shared vocabulary between {a.name!r} and {b.name!r}"
        )
    idx_a = np.array([a.index[w] for w in common], dtype=np.intp)
    idx_b = np.array([b.index[w] for w in common], dtype=np.intp)
    vocab = tuple(common)
    return (
        EmbeddingTable(vocab, a.matrix[idx_a], name=a.name),
        EmbeddingTable(vocab, b.matrix[idx_b], name=b.name),
    )
