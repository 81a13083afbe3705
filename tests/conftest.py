import numpy as np
import pytest

from mmfuse import DEFAULT_RIDGE, Benchmark, EmbeddingTable, cca_fits, pca_fits
from mmfuse.numerics import fitted


def fit_pca(X, k):
    """The PCA model of ``X`` at dimension ``k``, or raise the error fitting it raised."""
    return fitted(pca_fits(X, [k])[k])


def fit_cca(X, Y, k, ridge=DEFAULT_RIDGE, variances=None):
    """The CCA model of ``X`` and ``Y`` at dimension ``k``, or raise the error fitting it raised."""
    return fitted(cca_fits(X, Y, [k], ridge, variances=variances)[k])


def plain_cosine(u, v):
    """Straightforward cosine used by fixtures, independent of the kernels."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


@pytest.fixture
def pca_routines(monkeypatch):
    """Record the routine and matrix shape of each QR and each PCA decomposition, in order.

    A CCA's decompositions are not recorded; ``np.linalg.qr`` is called
    only by ``pca_fits``' SVD fallback.
    """
    import mmfuse.numerics as numerics

    calls = []
    real_qr, real_decompose = np.linalg.qr, numerics._decompose

    def qr(matrix, mode="reduced"):
        calls.append(("qr", matrix.shape))
        return real_qr(matrix, mode=mode)

    def decompose(routine, matrix, what, **kwargs):
        if "PCA" in what:
            calls.append((routine.__name__, matrix.shape))
        return real_decompose(routine, matrix, what, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(numerics, "_decompose", decompose)
    return calls


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
