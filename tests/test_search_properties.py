"""Property: every sweep entry equals applying its configuration alone."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmfuse import (  # noqa: E402
    Benchmark,
    EmbeddingTable,
    GridSpec,
    apply_configuration,
    evaluate,
    grid_search,
)
from mmfuse.errors import DimensionError, MissingReductionError, NumericalError  # noqa: E402


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    n_words=st.integers(3, 9),
    dim_t=st.integers(1, 5),
    dim_v=st.integers(1, 5),
    n_oov=st.integers(0, 2),
    ridge=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
    normalize_concat=st.booleans(),
)
# two covered pairs whose pca:2 cca:2:out=both concat scores are an exact tie from
# the per-block sums, while their stacked-vector cosines differ in the last bit
@example(n_words=3, dim_t=2, dim_v=5, n_oov=1, ridge=0.0, seed=3, normalize_concat=False)
@example(n_words=3, dim_t=2, dim_v=5, n_oov=1, ridge=0.0, seed=3, normalize_concat=True)
def test_sweep_entries_equal_configurations_applied_alone(
    n_words, dim_t, dim_v, n_oov, ridge, seed, normalize_concat
):
    rng = np.random.default_rng(seed)
    vocab = tuple(f"w{i}" for i in range(n_words))
    textual = EmbeddingTable(vocab, rng.normal(size=(n_words, dim_t)), name="textual")
    visual = EmbeddingTable(vocab, rng.normal(size=(n_words, dim_v)), name="visual")
    words = vocab + tuple(f"oov{i}" for i in range(n_oov))
    pairs = tuple(
        (words[i], words[j], float(rng.integers(0, 4)))
        for i in range(len(words)) for j in range(i + 1, len(words))
        if rng.uniform() < 0.6
    )
    bench = Benchmark("prop", pairs)
    grid = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5, ridge=ridge)
    report = grid_search(textual, visual, bench, grid, normalize_concat=normalize_concat)
    for entry in report.entries:
        try:
            model = apply_configuration(entry.config, textual, visual,
                                        normalize_concat=normalize_concat)
            alone = evaluate(model, bench)
        except (NumericalError, DimensionError, MissingReductionError) as exc:
            assert (entry.status, entry.result, entry.error) == ("failed", None, str(exc))
            continue
        assert entry.error is None
        assert entry.result == alone
        assert entry.status == ("ok" if alone.defined else "undefined")
