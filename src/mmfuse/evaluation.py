"""Benchmark ingestion, cosine pair scoring, and Spearman evaluation.

Benchmark files are one pair per line, ``word1 <sep> word2 <sep> score``
with the separator (tab or comma) auto-detected per file. A model's pair
score is the cosine of the two word vectors; a pair model interpolates
the two cosines with weight ``alpha`` on the first. ``evaluate``,
``pair_score`` and ``cosine`` all score through the one batch kernel in
``_kernels``. Model quality is the Spearman rank correlation between
model scores and the human gold scores, with ties receiving average
ranks; a non-finite model score is a ``NumericalError``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .embeddings import read_utf8
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
        if not np.isfinite(gold):
            raise ParseError(path, line_no, f"non-finite score {raw!r}")
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        if key in seen:
            raise DuplicateEntryError(
                f"{path}:{line_no}: duplicate pair {w1!r}/{w2!r} (unordered)"
            )
        seen.add(key)
        pairs.append((w1, w2, gold))
    return Benchmark(name if name is not None else _stem(path), tuple(pairs))


def _stem(path):
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def save_benchmark(bench, path):
    """Dump as TSV; ``load_benchmark`` reads it back identically."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for w1, w2, gold in bench.pairs:
                fh.write(f"{w1}\t{w2}\t{gold!r}\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def filter_coverage(bench, vocab):
    """Keep only pairs whose both words are covered; order preserved."""
    vocab = set(vocab)
    kept = tuple(p for p in bench.pairs if p[0] in vocab and p[1] in vocab)
    return Benchmark(bench.name, kept)


def cosine(u, v):
    """u.v / (|u||v|); zero for degenerate (near zero-norm) vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"vector shapes differ: {u.shape} vs {v.shape}")
    scores, degenerate = _kernels.pair_cosine_scores(
        np.stack([u, v]), np.array([0]), np.array([1])
    )
    if degenerate:
        warnings.warn("zero-norm vector in cosine; scoring pair as 0", RuntimeWarning)
    return float(scores[0])


def pair_score(model, w1, w2):
    """Score one word pair under a scoring model."""
    for w in (w1, w2):
        if w not in model.first:
            raise WordLookupError(f"word {w!r} not in model vocabulary")
    index = model.first.index
    return float(_batch_scores(model, np.array([index[w1]]), np.array([index[w2]]))[0])


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
    ra = _kernels.average_ranks(a)
    rb = _kernels.average_ranks(b)
    dx = ra - ra.mean()
    dy = rb - rb.mean()
    den = float(np.sqrt(float(dx @ dx) * float(dy @ dy)))
    if den == 0.0:
        raise UndefinedCorrelationError("zero rank variance")
    rho = float(dx @ dy) / den
    return min(1.0, max(-1.0, rho))


def _batch_scores(model, idx1, idx2):
    """Model score of each row pair ``(idx1[p], idx2[p])``."""
    scores, degenerate = _kernels.pair_cosine_scores(model.first.matrix, idx1, idx2)
    if model.is_pair:
        scores2, deg2 = _kernels.pair_cosine_scores(model.second.matrix, idx1, idx2)
        scores = model.alpha * scores + (1.0 - model.alpha) * scores2
        degenerate += deg2
    if degenerate:
        warnings.warn(
            f"{degenerate} degenerate zero-norm pair scores set to 0",
            RuntimeWarning,
        )
    return scores


def evaluate(model, bench):
    """Coverage-filter, score, and rank-correlate a model on a benchmark.

    An undefined correlation is not an error here: it is reported as an
    explicit empty outcome (``rho`` None). Non-finite pair scores (vector
    norms that overflow) raise ``NumericalError``.
    """
    covered = filter_coverage(bench, model.vocab)
    n_total = len(bench.pairs)
    n_eval = len(covered.pairs)
    if n_eval < 2:
        return EvaluationResult(rho=None, n_evaluated=n_eval, n_total=n_total)
    index = model.first.index
    idx1 = np.fromiter((index[w1] for w1, _, _ in covered.pairs), dtype=np.int64, count=n_eval)
    idx2 = np.fromiter((index[w2] for _, w2, _ in covered.pairs), dtype=np.int64, count=n_eval)
    scores = _batch_scores(model, idx1, idx2)
    if not np.all(np.isfinite(scores)):
        raise NumericalError(f"non-finite pair scores on {bench.name!r}")
    gold = np.array([g for _, _, g in covered.pairs], dtype=np.float64)
    try:
        rho = spearman(scores, gold)
    except UndefinedCorrelationError:
        return EvaluationResult(rho=None, n_evaluated=n_eval, n_total=n_total)
    return EvaluationResult(rho=rho, n_evaluated=n_eval, n_total=n_total)
