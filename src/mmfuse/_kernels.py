"""Hot scoring kernels: pair sums, cosines from sums, and tie-averaged ranks.

A pair's cosine ``u.v / (|u| |v|)`` is finished from its sums: the dot
product and both squared norms. ``row_sq_norms`` computes every row's
squared norm of a table once, ``pair_sums`` the dot product of each index
pair plus both norms gathered by index, and ``sum_cosines`` the scores.
``pair_sums`` gathers the two rows of its pairs a block of pairs at a
time, at most ``PAIR_BLOCK_VALUES`` values per operand, so the gathered
copies stay in cache and never grow to pairs x width; each row's dot
product runs the same ``einsum`` reduction over the same values in any
block, so the dots are bit for bit those of one pass. A
concatenation's sums are the sums of its blocks' sums, so in a sweep the
dot-product kernel runs once per table over every benchmark's pairs,
never per concatenation or per benchmark. ``sorted_ranks`` ranks a block
of score vectors in sort order, which is all a rank correlation needs;
``average_ranks`` scatters its ranks back to value order, once per
benchmark's gold scores. These are the non-BLAS hot path, in plain
numpy; every pair score in the package is finished by ``sum_cosines``. A
pair with a vector norm that overflows scores nan, so that callers reject
it instead of scoring it 0. ``unit_rows``, the row rule of
``normalize_concat``, shares ``sum_cosines``' degenerate-row threshold.
"""

import numpy as np

ZERO_NORM_EPS = 1e-12  # below this a vector counts as degenerate and scores 0

# gathered values per operand of one dot-product block: 256 KB, so both
# operands of a block stay in cache (2**14 to 2**17 measured at widths 100 to
# 4096 on a Xeon with 2 MB of L2 per core: 2**15 and 2**16 were fastest)
PAIR_BLOCK_VALUES = 2 ** 15


def row_sq_norms(matrix):
    """Squared norm of every row of ``matrix``."""
    return np.einsum("ij,ij->i", matrix, matrix)


def pair_sums(matrix, idx1, idx2, sq_norms):
    """Per index pair: its dot product, and both rows' squared norms from ``sq_norms``.

    The dot products are taken a block of pairs at a time, each block's
    two gathered operands holding at most ``PAIR_BLOCK_VALUES`` values
    (one row, if a row alone is wider).
    """
    rows = max(1, PAIR_BLOCK_VALUES // max(1, matrix.shape[1]))
    dots = np.empty(len(idx1), dtype=matrix.dtype)
    for start in range(0, len(idx1), rows):
        block = slice(start, start + rows)
        np.einsum("ij,ij->i", matrix[idx1[block]], matrix[idx2[block]], out=dots[block])
    return dots, sq_norms[idx1], sq_norms[idx2]


def sum_cosines(dots, sq1, sq2):
    """Cosine per pair from its sums; returns (scores, degenerate mask).

    A pair with a norm below ``ZERO_NORM_EPS`` is degenerate and scores
    0; one with a norm that overflows scores nan.
    """
    n1 = np.sqrt(sq1)
    n2 = np.sqrt(sq2)
    degenerate = (n1 < ZERO_NORM_EPS) | (n2 < ZERO_NORM_EPS)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.where(degenerate, 1.0, n1 * n2)
        scores = np.where(degenerate, 0.0, dots / denom)
    # a norm that overflows has no cosine: score it nan for callers to reject
    scores[~(np.isfinite(n1) & np.isfinite(n2))] = np.nan
    return scores, degenerate


def unit_rows(sq_norms):
    """The per-row rule of ``normalize_concat``, from squared row norms.

    Returns ``(divisors, squared norms)`` per row after normalization. A
    row whose norm exceeds ``ZERO_NORM_EPS`` is divided by its norm and
    counts as a squared norm of exactly 1. A row at or below it is left as
    it is, and so is a row whose norm overflows: its squared norm stays
    inf, so ``sum_cosines`` scores each pair that reads it nan. The rule is
    elementwise: it gives gathered norms what it gives the table's rows.
    """
    norms = np.sqrt(sq_norms)
    unit = (norms > ZERO_NORM_EPS) & np.isfinite(norms)
    return np.where(unit, norms, 1.0), np.where(unit, 1.0, sq_norms)


def sorted_ranks(values):
    """Sort order along the last axis, and the centred tie-averaged rank of each sorted position.

    ``values`` is one vector or a block of row vectors, without nan.
    Returns ``(order, dev)``: ``order`` is ``argsort(values)``, and
    ``dev[..., j]`` is the centred rank ``j - (n - 1) / 2`` of sorted
    position ``j``, with each run of equal adjacent sorted values given
    the mean of its run. Every ``dev`` is a multiple of 0.5, exact in
    float64. The tie correction runs only on rows with equal adjacent
    sorted values; without ties ``dev`` is one read-only row broadcast
    to the block. A tie run's mean does not depend on the order the sort
    leaves its members in, so the default (unstable) sort serves.
    """
    n = values.shape[-1]
    order = np.argsort(values, axis=-1)
    dev = np.broadcast_to(np.arange(n) - 0.5 * (n - 1), values.shape)
    sorted_v = np.take_along_axis(values, order, axis=-1)
    tied = sorted_v[..., 1:] == sorted_v[..., :-1]  # sorted position j + 1 ties with j
    rows = tied.any(axis=-1)
    if not rows.any():
        return order, dev
    dev = dev.copy()
    tied = tied[rows]
    position = np.arange(n)
    # first and last sorted position of the tie run each sorted position is in
    first = np.zeros(tied.shape[:-1] + (n,), dtype=np.intp)
    first[..., 1:] = np.where(tied, 0, position[1:])
    first = np.maximum.accumulate(first, axis=-1)
    last = np.full(first.shape, n - 1, dtype=np.intp)
    last[..., :-1] = np.where(tied, n - 1, position[:-1])
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    dev[rows] = 0.5 * (first + last) - 0.5 * (n - 1)
    return order, dev


def average_ranks(values):
    """1-based ranks along the last axis, ties assigned the mean of the ranks they span.

    The ranks of ``sorted_ranks``, scattered back from sorted to value
    order; ``values`` is one vector or a block of row vectors, without nan.
    """
    order, dev = sorted_ranks(values)
    ranks = np.empty(values.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, dev + 0.5 * (values.shape[-1] + 1), axis=-1)
    return ranks
