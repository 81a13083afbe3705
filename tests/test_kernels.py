import numpy as np
import pytest

from mmfuse import _kernels


def _random_case(seed, n_words=40, dim=7, n_pairs=200):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_words, dim))
    idx1 = rng.integers(0, n_words, n_pairs)
    idx2 = rng.integers(0, n_words, n_pairs)
    return matrix, idx1.astype(np.int64), idx2.astype(np.int64)


def test_pair_cosines_match_plain_formula():
    matrix, idx1, idx2 = _random_case(0)
    scores, degenerate = _kernels.pair_cosine_scores(matrix, idx1, idx2)
    assert degenerate == 0
    for p in range(len(idx1)):
        u, v = matrix[idx1[p]], matrix[idx2[p]]
        expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert scores[p] == pytest.approx(expected, abs=1e-12)


def test_degenerate_pairs_score_zero():
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [1e-13, 0.0]])
    scores, degenerate = _kernels.pair_cosine_scores(
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
    scores, degenerate = _kernels.pair_cosine_scores(
        matrix, np.array([0, 0, 0, 1]), np.array([1, 2, 3, 2])
    )
    assert np.isnan(scores[:3]).all()
    assert scores[3] == 0.0
    assert degenerate == 1


def test_empty_pair_list():
    matrix = np.eye(3)
    empty = np.array([], dtype=np.int64)
    scores, degenerate = _kernels.pair_cosine_scores(matrix, empty, empty)
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
