import numpy as np
import pytest
from conftest import plain_cosine

from mmfuse import _kernels
from mmfuse._kernels import unit_rows
from mmfuse.evaluation import (
    Benchmark,
    CoveredPairs,
    EvaluationResult,
    concat_scores,
    Span,
    interpolate,
    rank_results,
    sum_scores,
    table_sums,
)


def _random_case(seed, n_words=40, dim=7, n_pairs=200):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_words, dim))
    idx1 = rng.integers(0, n_words, n_pairs)
    idx2 = rng.integers(0, n_words, n_pairs)
    return matrix, idx1.astype(np.int64), idx2.astype(np.int64)


def _pair_cosines(matrix, idx1, idx2):
    """Cosine per index pair of one matrix, and the number of degenerate pairs."""
    sums = _kernels.pair_sums(matrix, idx1, idx2, _kernels.row_sq_norms(matrix))
    scores, degenerate = _kernels.sum_cosines(*sums)
    return scores, int(degenerate.sum())


def test_pair_cosines_match_plain_formula():
    matrix, idx1, idx2 = _random_case(0)
    scores, degenerate = _pair_cosines(matrix, idx1, idx2)
    assert degenerate == 0
    for p in range(len(idx1)):
        u, v = matrix[idx1[p]], matrix[idx2[p]]
        expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert scores[p] == pytest.approx(expected, abs=1e-12)


def test_degenerate_pairs_score_zero():
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [1e-13, 0.0]])
    scores, degenerate = _pair_cosines(
        matrix, np.array([0, 1, 2]), np.array([1, 1, 1])
    )
    assert scores[0] == 0.0
    assert scores[1] == 1.0
    assert scores[2] == 0.0
    assert degenerate == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_norm_scores_nan():
    # the first row's squared norm overflows; its pairs used to score 0
    matrix = np.array([[1e200, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    scores, degenerate = _pair_cosines(
        matrix, np.array([0, 0, 0, 1]), np.array([1, 2, 3, 2])
    )
    assert np.isnan(scores[:3]).all()
    assert scores[3] == 0.0
    assert degenerate == 1


def test_empty_pair_list():
    matrix = np.eye(3)
    empty = np.array([], dtype=np.int64)
    scores, degenerate = _pair_cosines(matrix, empty, empty)
    assert scores.shape == (0,)
    assert degenerate == 0


def test_average_ranks_against_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = np.round(rng.normal(size=30), 1)  # coarse grid forces ties
        ranks = _kernels.average_ranks(values)
        for i, v in enumerate(values):
            less = int(np.sum(values < v))
            equal = int(np.sum(values == v))
            expected = sum(range(less + 1, less + equal + 1)) / equal
            assert ranks[i] == expected


def test_average_ranks_all_tied():
    ranks = _kernels.average_ranks(np.full(5, 3.25))
    np.testing.assert_array_equal(ranks, np.full(5, 3.0))


def _enumerated_ranks(values):
    """Oracle: the mean of the 1-based ranks a value's ties span, found by counting."""
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        less = int(np.sum(values < v))
        equal = int(np.sum(values == v))
        ranks[i] = sum(range(less + 1, less + equal + 1)) / equal
    return ranks


_rng = np.random.default_rng(17)
RANK_BLOCKS = {
    "heavy_ties": _rng.integers(0, 3, size=(6, 40)).astype(np.float64),
    "coarse_grid": np.round(_rng.normal(size=(5, 31)), 1),
    "signed_zeros": np.array([[-0.0, 0.0, 1.0, -0.0, -1.0, 0.0],
                              [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
                              [2.0, -0.0, -2.0, 0.0, 2.0, -2.0]]),
    "all_tied_rows": np.array([[3.25] * 5, [-1.0] * 5, [0.0, -0.0, 0.0, 0.0, -0.0]]),
    "single_column": _rng.normal(size=(4, 1)),
    "two_columns": np.array([[1.0, 1.0], [2.0, 1.0], [-0.0, 0.0], [3.0, 4.0]]),
    "single_row": np.round(_rng.normal(size=(1, 9)), 0),
}


@pytest.mark.parametrize("name", sorted(RANK_BLOCKS))
def test_vector_ranks_match_enumeration(name):
    for row in RANK_BLOCKS[name]:
        assert _kernels.average_ranks(row).tobytes() == _enumerated_ranks(row).tobytes()


@pytest.mark.parametrize("name", sorted(RANK_BLOCKS))
def test_block_ranks_each_row_as_a_vector(name):
    block = RANK_BLOCKS[name]
    ranks = _kernels.average_ranks(block)
    assert ranks.shape == block.shape
    for row, row_ranks in zip(block, ranks):
        assert row_ranks.tobytes() == _kernels.average_ranks(row).tobytes()
        assert row_ranks.tobytes() == _enumerated_ranks(row).tobytes()


def _check_sorted_ranks(row, order, dev):
    n = len(row)
    assert sorted(order.tolist()) == list(range(n))
    assert np.all(row[order][1:] >= row[order][:-1])
    # the centred rank of each sorted position is the enumerated rank of the value sorted there
    assert (dev + 0.5 * (n + 1)).tobytes() == _enumerated_ranks(row)[order].tobytes()


@pytest.mark.parametrize("name", sorted(RANK_BLOCKS))
def test_sorted_position_ranks_match_enumeration(name):
    block = RANK_BLOCKS[name]
    order, dev = _kernels.sorted_ranks(block)
    assert order.shape == dev.shape == block.shape
    for row, row_order, row_dev in zip(block, order, dev):
        _check_sorted_ranks(row, row_order, row_dev)
        # a row ranked alone gets the ranks it gets in its block
        alone_order, alone_dev = _kernels.sorted_ranks(row)
        _check_sorted_ranks(row, alone_order, alone_dev)
        assert alone_dev.tobytes() == row_dev.tobytes()


def test_sorted_ranks_without_ties_are_the_centred_positions():
    block = np.random.default_rng(3).normal(size=(3, 8))
    order, dev = _kernels.sorted_ranks(block)
    np.testing.assert_array_equal(order, np.argsort(block, axis=-1))
    assert dev.tobytes() == np.tile(np.arange(8) - 3.5, (3, 1)).tobytes()


def _scatter_correlations(block, gold):
    """Oracle: Spearman rho as ranks in pair order give it, enumerated ranks scattered back per row.

    This is the value-order formulation the sorted-order one replaced:
    centred ranks, then ``dev @ gold_dev`` over the sum of squares.
    """
    n = block.shape[-1]
    dev = np.array([_enumerated_ranks(row) for row in block]) - 0.5 * (n + 1)
    gold_dev = _enumerated_ranks(gold) - 0.5 * (n + 1)
    gold_ss = gold_dev @ gold_dev
    den = np.sqrt(np.einsum("...i,...i->...", dev, dev) * gold_ss)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.clip((dev @ gold_dev) / den, -1.0, 1.0)
    return np.where(den == 0.0, np.nan, rho), gold_dev, gold_ss


def _rank_cases():
    rng = np.random.default_rng(41)
    for name in sorted(RANK_BLOCKS):
        block = RANK_BLOCKS[name]
        if block.shape[1] >= 2:
            n = block.shape[1]
            yield name, block, np.round(rng.normal(size=n), 0)
            yield name + " untied gold", block, rng.permutation(n).astype(np.float64)
    for n in (2, 3, 50, 997):
        yield f"random {n}", np.round(rng.normal(size=(7, n)), 2), np.round(rng.normal(size=n), 1)


def test_block_rho_is_bitwise_that_of_scattered_ranks():
    for name, block, gold in _rank_cases():
        n = block.shape[1]
        expected, gold_dev, gold_ss = _scatter_correlations(block, gold)
        span = Span(0, n, "b", (gold_dev, gold_ss))
        bench = Benchmark("b", tuple((f"a{i}", f"b{i}", g) for i, g in enumerate(gold.tolist())))
        results = rank_results(block, span, bench)
        for result, rho in zip(results, expected.tolist()):
            assert isinstance(result, EvaluationResult)
            if np.isnan(rho):
                assert result.rho is None, name
            else:
                assert np.float64(result.rho).tobytes() == np.float64(rho).tobytes(), name


def _per_pair_cosines(matrix, idx1, idx2):
    """The per-pair formula the kernel replaced: norms of the gathered rows, one pair at a time."""
    rows1, rows2 = matrix[idx1], matrix[idx2]
    dots = np.einsum("ij,ij->i", rows1, rows2)
    n1 = np.sqrt(np.einsum("ij,ij->i", rows1, rows1))
    n2 = np.sqrt(np.einsum("ij,ij->i", rows2, rows2))
    degenerate = (n1 < _kernels.ZERO_NORM_EPS) | (n2 < _kernels.ZERO_NORM_EPS)
    return np.where(degenerate, 0.0, dots / np.where(degenerate, 1.0, n1 * n2))


def _sums(matrix, covered):
    return table_sums(matrix, _kernels.row_sq_norms(matrix), covered)


def _pairs(idx1, idx2):
    """The index pairs as one pair set: one span, without a benchmark or gold scores."""
    return CoveredPairs(idx1, idx2, (Span(0, len(idx1), None, None),))


def _one_pass_dots(matrix, idx1, idx2):
    """The dot products of one ``einsum`` over every gathered pair: the pass the blocks replaced."""
    return np.einsum("ij,ij->i", matrix[idx1], matrix[idx2])


@pytest.mark.parametrize("width", [*range(1, 18), 150, 4096])
def test_pair_sums_in_blocks_are_one_pass_bitwise(monkeypatch, width):
    rng = np.random.default_rng(200 + width)
    n_rows, n_pairs = 24, 77
    wide = rng.normal(size=(n_rows, width + 3)) * rng.uniform(0.01, 100.0)
    views = {"contiguous": np.ascontiguousarray(wide[:, :width]),
             "column view": wide[:, 2:2 + width]}
    idx1, idx2 = rng.integers(0, n_rows, n_pairs), rng.integers(0, n_rows, n_pairs)
    # one row per block (a block budget below one row), 5 rows per block
    # (77 pairs leave a remainder of 2), and the module's own budget
    for block_values in (1, 5 * width, _kernels.PAIR_BLOCK_VALUES):
        monkeypatch.setattr(_kernels, "PAIR_BLOCK_VALUES", block_values)
        for name, view in views.items():
            sq_norms = _kernels.row_sq_norms(view)
            dots, sq1, sq2 = _kernels.pair_sums(view, idx1, idx2, sq_norms)
            assert dots.tobytes() == _one_pass_dots(view, idx1, idx2).tobytes(), (name, block_values)
            assert sq1.tobytes() == sq_norms[idx1].tobytes()
            assert sq2.tobytes() == sq_norms[idx2].tobytes()


def test_pair_sums_gather_one_block_at_a_time():
    import tracemalloc

    rng = np.random.default_rng(211)
    matrix = rng.normal(size=(16, 4096))
    n_pairs = 300  # unblocked, each gathered operand would take 300 x 4096 x 8 B = 9.8 MB
    idx1, idx2 = rng.integers(0, 16, n_pairs), rng.integers(0, 16, n_pairs)
    sq_norms = _kernels.row_sq_norms(matrix)
    tracemalloc.start()
    try:
        dots, _, _ = _kernels.pair_sums(matrix, idx1, idx2, sq_norms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two block operands, the three outputs, and small change
    assert peak <= 2 * _kernels.PAIR_BLOCK_VALUES * 8 + 3 * n_pairs * 8 + 64 * 1024
    assert dots.tobytes() == _one_pass_dots(matrix, idx1, idx2).tobytes()


def _cases():
    rng = np.random.default_rng(23)
    for n_rows in (6, 200):
        for width in (1, 2, 3, 7, 16, 33, 101):
            matrix = rng.normal(size=(n_rows, width)) * rng.uniform(0.01, 100.0)
            covered = _pairs(rng.integers(0, n_rows, 300), rng.integers(0, n_rows, 300))
            yield matrix, covered


def _plain_cosines(matrix, covered):
    return np.array([plain_cosine(matrix[i], matrix[j]) for i, j in zip(covered.idx1, covered.idx2)])


def test_table_scores_from_sums_equal_the_per_pair_formula():
    rng = np.random.default_rng(29)
    for matrix, covered in _cases():
        width = matrix.shape[1]
        wider = np.hstack([rng.normal(size=(len(matrix), 5)), matrix, rng.normal(size=(len(matrix), 4))])
        views = {"contiguous": matrix, "column view": wider[:, 5:5 + width],
                 "single column": np.ascontiguousarray(matrix[:, :1]),
                 "single column view": wider[:, 5:6]}
        for name, view in views.items():
            expected = _per_pair_cosines(np.ascontiguousarray(view), covered.idx1, covered.idx2)
            scores = sum_scores(_sums(view, covered), covered)
            assert scores.tobytes() == expected.tobytes(), (name, matrix.shape)
            np.testing.assert_allclose(scores, _plain_cosines(view, covered), rtol=0, atol=1e-14)


def test_concat_from_sums_matches_the_stacked_cosine():
    rng = np.random.default_rng(31)
    for matrix, covered in _cases():
        other = rng.normal(size=(len(matrix), 5))
        scores = concat_scores([_sums(matrix, covered), _sums(other, covered)], False, covered)
        stacked = np.hstack([matrix, other])
        np.testing.assert_allclose(scores, _plain_cosines(stacked, covered), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            scores, _per_pair_cosines(stacked, covered.idx1, covered.idx2), rtol=0, atol=1e-15)


ZERO_ROWS = (np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]),
             np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


def test_concat_with_one_zero_norm_block_scores_the_stacked_cosine():
    # the first block of row 0 and the second of row 1 are zero
    covered = _pairs(np.array([0, 1, 0]), np.array([3, 3, 1]))
    scores = concat_scores([_sums(m, covered) for m in ZERO_ROWS], False, covered)
    np.testing.assert_allclose(scores, _plain_cosines(np.hstack(ZERO_ROWS), covered),
                               rtol=0, atol=1e-15)


def test_concat_with_both_blocks_zero_scores_zero_with_warning():
    covered = _pairs(np.array([2, 2, 0]), np.array([3, 0, 1]))
    with pytest.warns(RuntimeWarning, match="2 degenerate zero-norm pair scores"):
        scores = concat_scores([_sums(m, covered) for m in ZERO_ROWS], False, covered)
    stacked = np.hstack(ZERO_ROWS)
    assert scores[:2].tolist() == [0.0, 0.0]
    assert scores[2] == pytest.approx(plain_cosine(stacked[0], stacked[1]), abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_concat_with_an_overflowing_block_scores_nan():
    first = np.array([[1e200, 0.0], [1.0, 0.0], [0.0, 1.0]])
    second = np.array([[1.0, 1.0], [-1e200, 1e200], [2.0, 0.0]])
    covered = _pairs(np.array([0, 1, 2, 2]), np.array([2, 2, 0, 1]))
    scores = concat_scores([_sums(first, covered), _sums(second, covered)], False, covered)
    assert np.isnan(scores[[0, 1, 2]]).all()
    # row 0's second block is finite, but its first block's squared norm overflows
    assert np.isnan(scores[3])


def test_normalized_concat_is_the_mean_of_the_block_cosines():
    rng = np.random.default_rng(37)
    for matrix, covered in _cases():
        other = rng.normal(size=(len(matrix), 4)) * 1e-3
        blocks = (matrix, other)
        sums = [_sums(m, covered) for m in blocks]
        scores = concat_scores(sums, True, covered)
        block_cosines = [_plain_cosines(m, covered) for m in blocks]
        np.testing.assert_allclose(scores, np.mean(block_cosines, axis=0), rtol=0, atol=1e-15)
        # each block's normalized dot product is bitwise its cosine from sums
        block_scores = [sum_scores(s, covered) for s in sums]
        np.testing.assert_array_equal(
            scores, (block_scores[0] + block_scores[1]) / (np.sqrt(2.0) * np.sqrt(2.0)))


def test_normalized_concat_leaves_a_zero_norm_row_as_it_is():
    covered = _pairs(np.array([0, 1, 2]), np.array([3, 3, 3]))
    with pytest.warns(RuntimeWarning, match="1 degenerate zero-norm pair scores"):
        scores = concat_scores([_sums(m, covered) for m in ZERO_ROWS], True, covered)
    # each block divided by its rows' norms, a zero row left as it is
    normalized = np.hstack([m / np.maximum(np.linalg.norm(m, axis=1), 1.0e-300)[:, None]
                            for m in ZERO_ROWS])
    expected = _plain_cosines(normalized, _pairs(covered.idx1[:2], covered.idx2[:2]))
    np.testing.assert_allclose(scores[:2], expected, rtol=0, atol=1e-15)
    assert scores[2] == 0.0  # both blocks of row 2 are zero: its norm stays 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalization_leaves_an_overflowing_row_to_score_nan():
    # row 1's norm overflows: it stays as it is, and fails only the pairs that read it
    first = np.array([[3.0, 4.0], [1e200, 0.0], [0.0, 2.0]])
    second = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    divisors, sq_norms = unit_rows(_kernels.row_sq_norms(first))
    assert divisors.tolist() == [5.0, 1.0, 2.0]
    assert sq_norms.tolist() == [1.0, np.inf, 1.0]
    covered = _pairs(np.array([0, 1, 2]), np.array([2, 0, 1]))
    scores = concat_scores([_sums(first, covered), _sums(second, covered)], True, covered)
    assert scores[0] == pytest.approx((0.8 + 0.0) / 2, abs=1e-15)
    # only the pairs that read row 1 score nan
    assert np.isnan(scores[1:]).all()


def _benchmark_pairs(rng, n_rows):
    """Three benchmarks' pairs: odd and even lengths, a pair shared by two, one with none."""
    first = _pairs(rng.integers(0, n_rows, 51), rng.integers(0, n_rows, 51))
    second = _pairs(np.append(rng.integers(0, n_rows, 36), first.idx1[7]),
                    np.append(rng.integers(0, n_rows, 36), first.idx2[7]))
    none = _pairs(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    return [first, none, second, none]


@pytest.mark.filterwarnings("ignore:.*degenerate zero-norm:RuntimeWarning")
@pytest.mark.parametrize("width", range(1, 18))
def test_one_pass_over_every_benchmark_scores_each_as_its_own_pass(width):
    rng = np.random.default_rng(100 + width)
    n_rows = 30
    wide = rng.normal(size=(n_rows, width + 3)) * rng.uniform(0.01, 100.0)
    tables = [np.ascontiguousarray(wide[:, :width]), wide[:, 2:2 + width],
              rng.normal(size=(n_rows, 5))]
    tables[0][4] = 0.0  # a zero-norm row
    benches = _benchmark_pairs(rng, n_rows)
    # every benchmark's pairs end to end, joined here, not by the code under test
    spans = ((0, 51), (51, 51), (51, 88), (88, 88))
    joined = CoveredPairs(np.concatenate([b.idx1 for b in benches]),
                          np.concatenate([b.idx2 for b in benches]),
                          tuple(Span(start, stop, None, None) for start, stop in spans))
    assert len(joined.idx1) == spans[-1][1]
    sums = [table_sums(m, _kernels.row_sq_norms(m), joined) for m in tables]
    scores = [sum_scores(s, joined) for s in sums]
    joined_vectors = scores + [
        interpolate(0.3, scores[0], scores[2]),
        concat_scores([sums[0], sums[2]], False, joined),
        concat_scores([sums[1], sums[2]], True, joined),
    ]
    for covered, (start, stop) in zip(benches, spans):
        own_sums = [table_sums(m, _kernels.row_sq_norms(m), covered) for m in tables]
        own_scores = [sum_scores(s, covered) for s in own_sums]
        own_vectors = own_scores + [
            interpolate(0.3, own_scores[0], own_scores[2]),
            concat_scores([own_sums[0], own_sums[2]], False, covered),
            concat_scores([own_sums[1], own_sums[2]], True, covered),
        ]
        for joined_vector, own in zip(joined_vectors, own_vectors):
            assert joined_vector[start:stop].tobytes() == own.tobytes()
