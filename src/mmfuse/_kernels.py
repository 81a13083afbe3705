"""Hot scoring kernels: batch pair cosines and tie-averaged ranks.

In a sweep the cosine kernel runs once per table and per concatenation,
and the rank kernel once per block of score vectors plus once per
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
    """1-based ranks along the last axis, ties assigned the mean of the ranks they span.

    ``values`` is one vector or a block of row vectors, without nan. A tie
    run's mean rank does not depend on the order the sort leaves its
    members in, so the default (unstable) sort serves.
    """
    n = values.shape[-1]
    order = np.argsort(values, axis=-1)
    sorted_v = np.take_along_axis(values, order, axis=-1)
    position = np.arange(n)
    tied = sorted_v[..., 1:] == sorted_v[..., :-1]  # sorted position j + 1 ties with j
    # first and last sorted position of the tie run each sorted position is in
    first = np.zeros(values.shape, dtype=np.intp)
    first[..., 1:] = np.where(tied, 0, position[1:])
    first = np.maximum.accumulate(first, axis=-1)
    last = np.full(values.shape, n - 1, dtype=np.intp)
    last[..., :-1] = np.where(tied, n - 1, position[:-1])
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)
    return ranks
