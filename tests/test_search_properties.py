"""Properties of a search: every sweep entry equals applying its
configuration alone, and the order of input lines does not reach the reports."""

import contextlib
import io
import tempfile
from pathlib import Path

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
    save_benchmark,
    save_embeddings,
    sweep,
)
from mmfuse.cli import main  # noqa: E402
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
    report, = sweep(textual, visual, [bench], grid, normalize_concat=normalize_concat)
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


def _search(folder, ridge):
    """Exit code, stdout, stderr and every report of ``mmfuse search`` on ``folder``'s files."""
    out = folder / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([
            "search", "--text-vecs", str(folder / "text.vecs"),
            "--image-vecs", str(folder / "image.vecs"),
            "--bench", str(folder / "a.tsv"), "--bench", str(folder / "b.tsv"),
            "--dim-step", "1", "--dim-min", "1", "--alpha-step", "0.5", "--ridge", ridge,
            "--out", str(out),
        ])
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run.log"}
    return code, stdout.getvalue(), stderr.getvalue(), reports


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    dim_t=st.integers(1, 4),
    dim_v=st.integers(1, 4),
    ridge=st.sampled_from(["0", "0.001"]),
    permuted=st.sets(st.sampled_from(["text.vecs", "image.vecs", "a.tsv", "b.tsv"]),
                     min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_permuting_input_lines_leaves_every_report_byte_identical(
    dim_t, dim_v, ridge, permuted, seed
):
    # alignment sorts the shared words, a pair's score does not depend on the
    # other pairs, and the rank sums are exact: no line order can move rho
    rng = np.random.default_rng(seed)
    shared = [f"w{i}" for i in range(9)]
    text_words = shared + ["t0", "t1"]
    textual = EmbeddingTable(text_words, rng.normal(size=(len(text_words), dim_t)))
    visual = EmbeddingTable(shared, rng.normal(size=(len(shared), dim_v)))
    words = text_words + ["oov"]
    benches = {
        name: Benchmark(name, tuple(
            (words[i], words[j], float(rng.integers(0, 4)))
            for i in range(len(words)) for j in range(i + 1, len(words))
            if rng.uniform() < 0.4
        ))
        for name in ("a", "b")
    }
    with tempfile.TemporaryDirectory() as tmp:
        given_order, shuffled = Path(tmp, "given"), Path(tmp, "shuffled")
        for folder in (given_order, shuffled):
            folder.mkdir()
            save_embeddings(textual, folder / "text.vecs")
            save_embeddings(visual, folder / "image.vecs")
            for name, bench in benches.items():
                save_benchmark(bench, folder / f"{name}.tsv")
        for name in permuted:
            lines = (shuffled / name).read_text().splitlines(keepends=True)
            head = 1 if name.endswith(".vecs") else 0   # the vector header stays first
            body = lines[head:]
            (shuffled / name).write_text(
                "".join(lines[:head] + [body[k] for k in rng.permutation(len(body))]))
        assert _search(shuffled, ridge) == _search(given_order, ridge)
