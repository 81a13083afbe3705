"""Property of the embeddings loader: numpy's one-call parse and the
per-line parser agree on every file, whether they give a table or an error."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmfuse import InputError, load_embeddings  # noqa: E402
from mmfuse.embeddings import _parse_lines, read_utf8  # noqa: E402

# every line break str.splitlines() knows, and whitespace str.split() splits on
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = [" ", "  ", "\t", "\x1f", "\xa0", "\u2000", "\u3000", " \t"]
WORDS = ["a", "b", "c", "7", "8", "\xe9t\xe9", "50%"]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals too
    st.floats(-1e6, 1e6).map(lambda x: "%.6f" % x),
    st.integers(-3, 9).map(str),
)
TOKENS = st.one_of(NUMBERS, st.sampled_from([
    "1_0", "+.5", "-0", "1E3", "5e-324", "2.5e-310",
    "inf", "-inf", "nan", "infinity", "1e400",
    "1\x002", "\x00",
    "\u0661\u0662", "\uff11", "\u0967.5",  # Arabic-Indic, full-width, Devanagari digits
    "0x10", "x",
]))


@st.composite
def vector_files(draw):
    """File text mixing headers, byte-order marks, line breaks, separators and tokens.

    Half the files are plain: numbers numpy reads, one row per line, each
    word once, as many values per row as a header (if any) declares. The
    rest may hold anything the per-line parser has to judge.
    """
    odd = draw(st.booleans())
    tokens = TOKENS if odd else NUMBERS
    separators = st.sampled_from(SEPARATORS + BREAKS if odd else SEPARATORS)
    dim = draw(st.integers(1, 4))
    unique = not odd or draw(st.booleans())
    words = draw(st.lists(st.sampled_from(WORDS), max_size=5, unique=unique))
    lines = []
    for word in words:
        width = draw(st.sampled_from([dim] * 8 + [dim - 1, dim + 1])) if odd else dim
        values = draw(st.lists(tokens, min_size=width, max_size=width))
        seps = draw(st.lists(separators, min_size=width, max_size=width))
        line = word + "".join(sep + value for sep, value in zip(seps, values))
        lines.append(draw(st.sampled_from(["", " ", "\xa0"])) + line
                     + draw(st.sampled_from(["", " ", "\t"])))
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t\xa0"])))
    header = draw(st.sampled_from(["none", "matching", "any"] if odd else ["none", "matching"]))
    if header == "matching":
        lines.insert(0, f"{len(words)} {dim}")
    elif header == "any":
        lines.insert(0, f"{draw(st.integers(0, 6))} {draw(st.integers(0, 4))}")
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]
    return draw(st.sampled_from(["", "\ufeff"])) + text


def outcome(load):
    """What ``load()`` gives: the table's vocab, name and matrix bits, or the error."""
    try:
        table = load()
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return table.vocab, table.name, table.matrix.shape, table.matrix.view(np.int64).tobytes()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=vector_files())
@example(text="a 1_0 2\nb 3 4\n")
@example(text="\ufeff2 2\na \u0661 2\nb 3 4")
@example(text="7 3\n8 2\n")
@example(text="7 1\n8 2\n")
@example(text="a 1.0 2.0\nb 3.0\x854.0\nc 5.0 6.0\n")
@example(text="a 1 2\na 3 4\nc x 2\n")
def test_one_call_parse_agrees_with_the_per_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vecs.txt"
        path.write_bytes(text.encode("utf-8"))
        fast = outcome(lambda: load_embeddings(path, name="t"))
        slow = outcome(lambda: _parse_lines(path, read_utf8(path).splitlines(), "t"))
    assert fast == slow
