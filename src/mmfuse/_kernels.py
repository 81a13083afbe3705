"""Hot scoring kernels: batch pair cosines and tie-averaged ranks.

In a sweep the cosine kernel runs once per table and per concatenation,
and the rank kernel once per ranked configuration plus once per
benchmark's gold scores, which makes them the non-BLAS hot path. They are
plain numpy; every pair score in the package, the scalar ``cosine``
included, goes through ``pair_cosine_scores``. A pair with a vector norm
that overflows scores nan, so that callers reject it instead of scoring
it 0.
"""

import numpy as np

ZERO_NORM_EPS = 1e-12  # below this a vector counts as degenerate and scores 0


def pair_cosine_scores(matrix, idx1, idx2):
    """Cosine per index pair; returns (scores, n_degenerate)."""
    rows1 = matrix[idx1]
    rows2 = matrix[idx2]
    dots = np.einsum("ij,ij->i", rows1, rows2)
    n1 = np.sqrt(np.einsum("ij,ij->i", rows1, rows1))
    n2 = np.sqrt(np.einsum("ij,ij->i", rows2, rows2))
    degenerate = (n1 < ZERO_NORM_EPS) | (n2 < ZERO_NORM_EPS)
    denom = np.where(degenerate, 1.0, n1 * n2)
    scores = np.where(degenerate, 0.0, dots / denom)
    # a norm that overflows has no cosine: score it nan for callers to reject
    scores[~(np.isfinite(n1) & np.isfinite(n2))] = np.nan
    return scores, int(degenerate.sum())


def average_ranks(values):
    """1-based ranks with ties assigned the mean of the ranks they span."""
    n = values.shape[0]
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_v[1:] != sorted_v[:-1]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts).astype(np.float64)
    starts = ends - counts + 1.0
    avg = 0.5 * (starts + ends)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = avg[group]
    return ranks
