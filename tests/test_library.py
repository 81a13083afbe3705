"""The library surface outside code relies on: README's example and the benchmark harness."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mmfuse
from mmfuse import Benchmark, EmbeddingTable, save_benchmark, save_embeddings

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_example():
    """The Python block of README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    # wide enough that the default grid's dimension 50 has PCA and CCA configurations
    vocab = tuple(f"w{i:02d}" for i in range(60))
    save_embeddings(EmbeddingTable(vocab, rng.normal(size=(60, 52))), tmp_path / "text.vecs")
    save_embeddings(EmbeddingTable(vocab[5:], rng.normal(size=(55, 51))), tmp_path / "image.vecs")
    for name, n_pairs in (("men", 80), ("simlex", 40)):
        pairs = {tuple(sorted(rng.choice(len(vocab), 2, replace=False))) for _ in range(n_pairs)}
        save_benchmark(Benchmark(name, tuple((vocab[i], vocab[j], float(rng.uniform(0, 10)))
                                             for i, j in sorted(pairs))),
                       tmp_path / f"{name}.tsv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["textual"].vocab == vocab[5:]
    assert namespace["report"].benchmark_name == "men"
    assert any(e.config.layer_a == "pca" for e in namespace["report"].entries)
    assert [r.benchmark_name for r in namespace["reports"]] == ["men", "simlex"]
    assert namespace["table"].startswith("benchmark: men\n")
    assert namespace["tsv"].startswith("rank\tstatus\trho\t")


def test_names_the_benchmark_harness_imports():
    # perfbench/ loads inputs and counts configurations through these
    # package names, and runs searches through mmfuse.cli.main
    from mmfuse.cli import main

    for name in ("load_embeddings", "align_vocabularies", "load_benchmark",
                 "enumerate_configurations", "GridSpec"):
        assert hasattr(mmfuse, name), name
    assert callable(main)


# the lookup sites perfbench/traced.py still names although mmfuse no longer has them
STALE_TRACE_SITES = {
    "mmfuse.cli.render_report_table", "mmfuse.cli.render_report_machine", "mmfuse.cli.grid_search",
    "mmfuse.search.apply_configuration", "mmfuse.search.evaluate",
    "mmfuse._kernels.pair_cosine_scores",
}


def test_the_benchmark_harness_loses_no_more_trace_sites():
    # the harness wraps each function at the module attribute its caller looks up
    spec = importlib.util.spec_from_file_location("perfbench_traced", ROOT / "perfbench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    sites = [(module, attr) for module, attr, _, _ in traced.SITES]
    sites += [("mmfuse.cli", "grid_search"), ("mmfuse.embeddings", "EmbeddingTable")]
    missing = {f"{module}.{attr}" for module, attr in sites
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= STALE_TRACE_SITES
