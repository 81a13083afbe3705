import numpy as np
import pytest

from mmfuse import DEFAULT_RIDGE, Benchmark, EmbeddingTable, cca_fits, pca_fits
from mmfuse.numerics import fitted


def fit_pca(X, k):
    """The PCA model of ``X`` at dimension ``k``, or raise the error fitting it raised."""
    return fitted(pca_fits(X, [k])[k])


def fit_cca(X, Y, k, ridge=DEFAULT_RIDGE):
    """The CCA model of ``X`` and ``Y`` at dimension ``k``, or raise the error fitting it raised."""
    return fitted(cca_fits(X, Y, [k], ridge)[k])


def plain_cosine(u, v):
    """Straightforward cosine used by fixtures, independent of the kernels."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


@pytest.fixture(scope="session")
def planted():
    """30-word table pair where gold scores equal the textual cosines.

    The textual identity configuration therefore scores the benchmark
    perfectly, which pins down the sweep winner.
    """
    rng = np.random.default_rng(7)
    n = 30
    vocab = tuple(f"w{i:02d}" for i in range(n))
    T = rng.normal(size=(n, 4))
    V = rng.normal(size=(n, 4))
    textual = EmbeddingTable(vocab, T, name="textual")
    visual = EmbeddingTable(vocab, V, name="visual")
    pair_idx = set()
    while len(pair_idx) < 60:
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i != j:
            pair_idx.add((min(i, j), max(i, j)))
    pairs = tuple(
        (vocab[i], vocab[j], plain_cosine(T[i], T[j])) for i, j in sorted(pair_idx)
    )
    return textual, visual, Benchmark("planted", pairs)


@pytest.fixture
def small_tables():
    """12-word, dim-4 aligned pair for fast composition tests."""
    rng = np.random.default_rng(1)
    vocab = tuple(f"w{i:02d}" for i in range(12))
    textual = EmbeddingTable(vocab, rng.normal(size=(12, 4)), name="textual")
    visual = EmbeddingTable(vocab, rng.normal(size=(12, 4)), name="visual")
    return textual, visual
