"""Benchmark ingestion, cosine pair scoring, and Spearman evaluation.

Benchmark files are one pair per line, ``word1 <sep> word2 <sep> score``
with the separator (tab or comma) auto-detected per file. A model's pair
score is the cosine of the two word vectors. A model's layer-c motif
says how its two tables combine: ``li`` interpolates their two cosines
with weight ``alpha`` on the first, and ``concat`` scores the cosine of
the two blocks side by side. Every score is finished from pair sums
(``PairSums``: the dot product and both squared norms), through the
kernels in ``_kernels``. A concatenation's sums are the sums of its two
blocks' sums, so the stacked vectors are never built to score it.
Model quality is the Spearman rank correlation between model scores and
the human gold scores, with ties receiving average ranks; a non-finite
model score is a ``NumericalError``. A vector norm that overflows scores
nan, so it fails rather than scoring 0.

``evaluate`` is ``covered_pairs``, then ``model_scores`` (``table_sums``
per table, then ``layer_c_scores``), then ``rank_results`` of its one
score vector. ``layer_c_scores`` is the one rule of layer c:
``concat_scores`` of the blocks' sums, ``interpolate`` of two tables'
``sum_scores``, or one table's ``sum_scores``. ``cosine`` and
``pair_score`` score one pair through the same pieces. A sweep calls
them too, computing each table's sums once over the covered pairs of
every benchmark, end to end (one ``covered_pairs``), and choosing each
configuration's score vector by ``layer_c_scores``; each benchmark ranks
its span of every score vector. ``covered_pairs`` ranks the gold scores
once per benchmark. Score vectors are ranked in blocks of rows by ``rank_results``, from
their sort order alone: a rank correlation pairs each sorted position's
rank with the gold rank of the pair sorted there, so no score's rank is
put back in pair order. ``spearman`` ranks a one-row block the same way.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .composition import concat_label
from .embeddings import atomic_open, read_utf8, require_utf8
from .errors import (
    DimensionError,
    DuplicateEntryError,
    EmptyInputError,
    NumericalError,
    ParseError,
    UndefinedCorrelationError,
    WordLookupError,
    WriteError,
)
from .numerics import fitted


@dataclass(frozen=True)
class Benchmark:
    """Named, ordered list of (word, word, gold score) triples."""

    name: str
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class EvaluationResult:
    """Spearman rho plus coverage bookkeeping.

    ``rho`` is None when the correlation is undefined (fewer than two
    covered pairs, or constant scores); such outcomes rank below every
    real rho in a sweep.
    """

    rho: float
    n_evaluated: int
    n_total: int

    @property
    def coverage(self):
        return self.n_evaluated / self.n_total if self.n_total else 0.0

    @property
    def defined(self):
        return self.rho is not None


def load_benchmark(path, name=None):
    """Parse a TSV/CSV benchmark file; duplicates are unordered duplicates."""
    lines = read_utf8(path).splitlines()
    content = [(no, line) for no, line in enumerate(lines, start=1) if line.strip()]
    if not content:
        raise EmptyInputError(f"{path}: no benchmark pairs")
    sep = "\t" if "\t" in content[0][1] else ","
    pairs = []
    seen = set()
    for line_no, line in content:
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 3:
            raise ParseError(
                path, line_no,
                f"expected 3 {'tab' if sep == chr(9) else 'comma'}-separated "
                f"fields, found {len(fields)}",
            )
        w1, w2, raw = fields
        if not w1 or not w2:
            raise ParseError(path, line_no, "empty word field")
        try:
            gold = float(raw)
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric score {raw!r}") from None
        if not math.isfinite(gold):
            raise ParseError(path, line_no, f"non-finite score {raw!r}")
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        if key in seen:
            raise DuplicateEntryError(
                f"{path}:{line_no}: duplicate pair {w1!r}/{w2!r} (unordered)"
            )
        seen.add(key)
        pairs.append((w1, w2, gold))
    if name is None:
        name = benchmark_name(path)
    return Benchmark(name, tuple(pairs))


def benchmark_name(path):
    """Name ``load_benchmark`` gives the file at ``path``: its stem."""
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def save_benchmark(bench, path):
    """Dump as TSV; ``load_benchmark`` reads back the same pairs, named by the file's stem.

    The file is replaced atomically, as by ``save_embeddings``. What
    ``load_benchmark`` would refuse or change raises ``WriteError`` before
    any file is written: no pairs, a word that is empty, holds a tab or a
    line break or starts or ends in whitespace, a word that UTF-8 cannot
    encode, a first word that starts with a byte-order mark, a non-finite
    gold score, and an unordered duplicate pair.
    """
    if not bench.pairs:
        raise WriteError(f"cannot write {path}: benchmark {bench.name!r} has no pairs")
    lines, seen = [], set()
    for w1, w2, gold in bench.pairs:
        for word in (w1, w2):
            if word != word.strip() or "\t" in word or word.splitlines() != [word]:
                raise WriteError(f"cannot write {path}: word {word!r} would not read back")
            require_utf8(word, path)
        if not math.isfinite(gold):
            raise WriteError(f"cannot write {path}: pair {w1!r}/{w2!r} has score {gold!r}")
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        if key in seen:
            raise WriteError(f"cannot write {path}: duplicate pair {w1!r}/{w2!r} (unordered)")
        seen.add(key)
        lines.append(f"{w1}\t{w2}\t{float(gold)!r}\n")
    if lines[0].startswith("\ufeff"):   # read as a byte-order mark, and dropped
        raise WriteError(f"cannot write {path}: word {bench.pairs[0][0]!r} would not read back")
    try:
        with atomic_open(path) as fh:
            fh.write("".join(lines))
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def filter_coverage(bench, vocab):
    """Keep only pairs whose both words are covered; order preserved."""
    vocab = set(vocab)
    kept = tuple(p for p in bench.pairs if p[0] in vocab and p[1] in vocab)
    return Benchmark(bench.name, kept)


def cosine(u, v):
    """u.v / (|u||v|); zero for degenerate (near zero-norm) vectors.

    A vector norm that overflows is a ``NumericalError``.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if u.ndim != 1:
        raise DimensionError(f"cosine needs 1-d vectors, got shape {u.shape}")
    m = np.stack([u, v])
    pair = CoveredPairs(np.array([0]), np.array([1]), (Span(0, 1, None, None),))
    return _finite_score(sum_scores(table_sums(m, _kernels.row_sq_norms(m), pair), pair), "cosine")


def pair_score(model, w1, w2):
    """Score one word pair under a scoring model; an overflowing norm is a ``NumericalError``."""
    for w in (w1, w2):
        if w not in model.first:
            raise WordLookupError(f"word {w!r} not in model vocabulary")
    index = model.first.index
    pair = CoveredPairs(np.array([index[w1]]), np.array([index[w2]]), (Span(0, 1, None, None),))
    return _finite_score(model_scores(model, pair), f"pair score of {w1!r}/{w2!r}")


def _finite_score(scores, what):
    if not np.isfinite(scores[0]):
        raise NumericalError(f"{what} is not finite (a vector norm overflows)")
    return float(scores[0])


def _centred_ranks(values):
    """Tie-averaged ranks minus their mean, in value order, and their sum of squares.

    The ranks are half-integers and their mean is exactly (n + 1) / 2, so
    every centred rank is a multiple of 0.5 and every product of two is a
    multiple of 0.25. A sum of such products is exact in float64 while
    its magnitude stays below 2**51; by Cauchy-Schwarz no partial sum of
    a sum of squares or of a rank correlation's numerator exceeds
    (n**3 - n) / 12, so the sums are exact, whatever their order or the
    order of their terms, for n**3 / 3 < 2**53 (n up to about 3e5
    pairs). A block of rows therefore gets bit for bit the values one
    row at a time would. These are the gold scores' ranks, computed once
    per benchmark.
    """
    dev = _kernels.average_ranks(values) - 0.5 * (values.shape[-1] + 1)
    return dev, np.einsum("...i,...i->...", dev, dev)


def _rank_correlations(scores, gold_dev, gold_ss):
    """Per row of finite ``scores``: its rank correlation with the centred gold ranks.

    Summed over sorted positions ``j`` of a row: the numerator is
    ``dev[j] * gold_dev[order[j]]``, the centred rank of position ``j``
    times the gold rank of the pair sorted there (a gather), and the sum
    of squares is ``dev[j] ** 2``. Both hold the terms of the sums over
    pairs in value order, in another order, and are exact (see
    ``_centred_ranks``), so rho is bit for bit what ranks put back in
    pair order give, without putting any back. A row of zero rank
    variance has no rank correlation and reads nan.
    """
    order, dev = _kernels.sorted_ranks(scores)
    num = np.einsum("...i,...i->...", dev, gold_dev[order])
    den = np.sqrt(np.einsum("...i,...i->...", dev, dev) * gold_ss)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.clip(num / den, -1.0, 1.0)
    return np.where(den == 0.0, np.nan, rho)


def spearman(a, b):
    """Pearson correlation of tie-averaged ranks; result in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    if a.shape[0] < 2:
        raise UndefinedCorrelationError("need at least 2 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")
    rho, = _rank_correlations(a[None], *_centred_ranks(b)).tolist()
    if math.isnan(rho):
        raise UndefinedCorrelationError("zero rank variance")
    return rho


class Span(NamedTuple):
    """One benchmark's pairs in a ``CoveredPairs``: those from ``start`` up to ``stop``.

    ``name`` is the benchmark's, which degenerate-pair warnings give, or
    None for pairs scored without a benchmark. ``ranks`` holds the gold
    scores' tie-averaged ranks minus their mean and its sum of squares,
    ``(gold_dev, gold_ss)``, ranked once per benchmark; it is None with
    fewer than two pairs, which have no rank correlation.
    """

    start: int
    stop: int
    name: str
    ranks: tuple


class CoveredPairs(NamedTuple):
    """Row indices of the benchmark pairs a table covers, one ``Span`` per benchmark, end to end."""

    idx1: np.ndarray
    idx2: np.ndarray
    spans: tuple


class PairSums(NamedTuple):
    """Per pair: its dot product and both squared norms, the terms of its cosine."""

    dots: np.ndarray
    sq1: np.ndarray
    sq2: np.ndarray


def covered_pairs(benches, table):
    """The pairs of each of ``benches`` whose both words are rows of ``table``, end to end.

    Scoring them once scores every benchmark's pairs with the arithmetic
    a pass over its own pairs runs, pair by pair.
    """
    index = table.index
    idx1, idx2, spans = [], [], []
    for bench in benches:
        pairs = filter_coverage(bench, table.vocab).pairs
        gold = np.array([g for _, _, g in pairs], dtype=np.float64)
        start = len(idx1)
        idx1 += [index[w1] for w1, _, _ in pairs]
        idx2 += [index[w2] for _, w2, _ in pairs]
        ranks = _centred_ranks(gold) if len(gold) >= 2 else None
        spans.append(Span(start, len(idx1), bench.name, ranks))
    return CoveredPairs(np.array(idx1, dtype=np.int64), np.array(idx2, dtype=np.int64),
                        tuple(spans))


def table_sums(matrix, sq_norms, covered):
    """Sums of the covered pairs in one table whose rows have squared norms ``sq_norms``."""
    return PairSums(*_kernels.pair_sums(matrix, covered.idx1, covered.idx2, sq_norms))


def sum_scores(sums, covered, table=""):
    """Pair cosines from sums; an overflowing norm scores nan, which every caller rejects.

    Degenerate pairs score 0 with a ``RuntimeWarning`` of their count, one
    per span of ``covered`` that holds any, in order. The warning names
    the ``table`` scored, when it has a name, and the span's benchmark,
    when it has one, so that Python's default filter, which shows each
    text once, shows one per table and benchmark.
    """
    scores, degenerate = _kernels.sum_cosines(*sums)
    for start, stop, bench, _ in covered.spans:
        count = int(np.count_nonzero(degenerate[start:stop]))
        if count:
            where = f" in {table!r}" if table else ""
            where += f" on {bench!r}" if bench is not None else ""
            warnings.warn(f"{count} degenerate zero-norm pair scores set to 0{where}",
                          RuntimeWarning)
    return scores


def concat_scores(sums, units, covered, table=""):
    """A concatenation's pair scores from the ``sums`` of its two blocks.

    They equal the cosines of the stacked vectors up to rounding. Under
    ``normalize_concat``, ``units`` holds each block's ``(divisors,
    squared norms)`` per row, as ``composition.unit_rows`` gives them:
    the block's dot products are divided by both rows' divisors and its
    squared norms are gathered from there. A pair of non-degenerate rows
    then scores the mean of the two block cosines. ``table`` names the
    concatenation in degenerate-pair warnings (see ``sum_scores``).
    """
    idx1, idx2 = covered.idx1, covered.idx2
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing sums score nan
        if units is not None:
            sums = [PairSums(s.dots / (div[idx1] * div[idx2]), sq[idx1], sq[idx2])
                    for s, (div, sq) in zip(sums, units)]
        first, second = sums
        return sum_scores(PairSums(*(a + b for a, b in zip(first, second))), covered, table)


def interpolate(alpha, first, second):
    """LI pair scores: weight ``alpha`` on the first table's scores."""
    return alpha * first + (1.0 - alpha) * second


def rank_results(vectors, span, bench):
    """Spearman rho of each row of ``vectors``, on ``span``, against the span's gold ranks.

    ``bench`` is the benchmark of ``span``, whose width is the number of
    pairs evaluated. Returns, per row, its ``EvaluationResult`` or, for a
    row with a non-finite score in the span, the ``NumericalError``
    saying so. The finite rows are ranked together, as one block.
    """
    n_eval, n_total = span.stop - span.start, len(bench.pairs)
    if span.ranks is None:
        return [EvaluationResult(rho=None, n_evaluated=n_eval, n_total=n_total)] * len(vectors)
    vectors = vectors[:, span.start:span.stop]
    finite = np.isfinite(vectors).all(axis=-1)
    rhos = np.full(len(vectors), np.nan)
    rhos[finite] = _rank_correlations(vectors[finite], *span.ranks)
    return [
        EvaluationResult(rho=None if math.isnan(rho) else rho, n_evaluated=n_eval, n_total=n_total)
        if ok else NumericalError(f"non-finite pair scores on {bench.name!r}")
        for ok, rho in zip(finite.tolist(), rhos.tolist())
    ]


def layer_c_scores(layer_c, alpha, tables, sums, units, scores, covered, label):
    """The scores of the covered pairs under layer-c motif ``layer_c`` over ``tables``.

    ``sums`` maps each table to its pair sums and ``units`` each block of a
    normalized concatenation to its ``unit_rows``; ``units`` is None when
    concatenations are not normalized, and a stored failure in either is
    raised here. ``concat`` scores its blocks by ``concat_scores``, ``li``
    is ``interpolate`` of the two tables' score vectors, and ``none`` is
    its one table's. A table's score vector is finished at its first use
    and kept in ``scores``; ``label(table)`` names the table in warnings.
    """
    if layer_c == "concat":
        blocks = [fitted(sums[t]) for t in tables]
        block_units = None if units is None else [fitted(units[t]) for t in tables]
        return concat_scores(blocks, block_units, covered, concat_label([label(t) for t in tables]))
    for t in tables:
        if t not in scores:
            scores[t] = sum_scores(fitted(sums[t]), covered, label(t))
    vectors = [scores[t] for t in tables]
    return interpolate(alpha, *vectors) if layer_c == "li" else vectors[0]


def model_scores(model, covered):
    """Scores of the covered pairs under ``model``: its tables' sums, then ``layer_c_scores``."""
    tables = [t for t in (model.first, model.second) if t is not None]
    sums = [table_sums(t.matrix, t.sq_norms, covered) for t in tables]
    return layer_c_scores(model.layer_c, model.alpha, range(len(tables)), sums, model.units, {},
                          covered, [t.name for t in tables].__getitem__)


def evaluate(model, bench):
    """Coverage-filter, score, and rank-correlate a model on a benchmark.

    An undefined correlation is not an error here: it is reported as an
    explicit empty outcome (``rho`` None). Non-finite pair scores (vector
    norms that overflow) raise ``NumericalError``.
    """
    covered = covered_pairs([bench], model.first)
    span, = covered.spans
    result, = rank_results(model_scores(model, covered)[None], span, bench)
    if isinstance(result, NumericalError):
        raise result
    return result
