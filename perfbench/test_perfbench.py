"""Tests of the benchmark itself: seeded inputs, exact trace counts, the oracle.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import BenchSpec, Workload  # noqa: E402

TINY = Workload(
    name="tiny", command="search",
    n_shared=80, n_text_only=6, n_visual_only=4,
    dim_t=20, dim_v=30, latent=8,
    benches=(BenchSpec("a", 120, 50, 0.1), BenchSpec("b", 60, 50, 0.05)),
)
GRID = ["--dim-step", "10", "--dim-min", "10"]
COUNTS = [
    "numerics.cca_transform_calls", "numerics.pca_fit_calls", "numerics.cca_fit_calls",
    "numerics.fit_useful_ratio", "numerics.projected_rows_useful_ratio",
    "kernels.pair_cosine_calls", "kernels.score_vectors_useful_ratio",
    "evaluation.pairs_filtered", "evaluation.gold_rankings", "embeddings.table_builds",
]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    gen.generate(TINY, 5, str(out))
    return out


def _search_args(inputs, out):
    args = ["search", "--text-vecs", str(inputs / "text.vecs"),
            "--image-vecs", str(inputs / "image.vecs"), "--out", str(out), *GRID]
    for spec in TINY.benches:
        args += ["--bench", str(inputs / f"{spec.name}.tsv")]
    return args


def _traced(inputs, out, spans):
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), str(spans), *_search_args(inputs, out)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    with open(spans, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["exit"] == 0 and data["missing_sites"] == []
    return layers.per_layer(data["spans"])


def test_generator_is_seeded(tmp_path):
    gen.generate(TINY, 5, str(tmp_path / "x"))
    gen.generate(TINY, 5, str(tmp_path / "y"))
    gen.generate(TINY, 6, str(tmp_path / "z"))
    for name in ("text.vecs", "image.vecs", "a.tsv", "b.tsv"):
        same = (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
        other = (tmp_path / "x" / name).read_bytes() == (tmp_path / "z" / name).read_bytes()
        assert same and not other, name


def test_generator_controls_vocabulary_and_coverage(tiny_inputs):
    t_words, _ = oracle.read_vecs(tiny_inputs / "text.vecs")
    v_words, _ = oracle.read_vecs(tiny_inputs / "image.vecs")
    aligned = set(t_words) & set(v_words)
    assert len(aligned) == TINY.n_shared
    assert len(t_words) - len(aligned) == TINY.n_text_only
    assert len(v_words) - len(aligned) == TINY.n_visual_only
    for spec in TINY.benches:
        pairs = oracle.read_bench(tiny_inputs / f"{spec.name}.tsv")
        covered = [p for p in pairs if p[0] in aligned and p[1] in aligned]
        assert len(pairs) == spec.n_pairs
        assert len(pairs) - len(covered) == round(spec.oov_frac * spec.n_pairs)
        assert len({w for p in covered for w in p[:2]}) <= spec.sub_vocab


def test_trace_counts_repeat_exactly(tiny_inputs, tmp_path):
    first = _traced(tiny_inputs, tmp_path / "o1", tmp_path / "s1.json")
    second = _traced(tiny_inputs, tmp_path / "o2", tmp_path / "s2.json")
    assert {k: first[k] for k in layers.EXACT} == {k: second[k] for k in layers.EXACT}
    assert all(first[k] > 0 for k in COUNTS)
    assert first["bench.layer_coverage"] > 0.5
    for name in ("a", "b"):
        assert (tmp_path / "o1" / f"{name}.report.tsv").read_bytes() == \
            (tmp_path / "o2" / f"{name}.report.tsv").read_bytes()


@pytest.fixture(scope="module")
def tiny_report(tiny_inputs, tmp_path_factory):
    from mmfuse.cli import main

    out = tmp_path_factory.mktemp("report")
    assert main(_search_args(tiny_inputs, out)) == 0
    expected = oracle.raw_expectations(
        tiny_inputs / "text.vecs", tiny_inputs / "image.vecs",
        {s.name: tiny_inputs / f"{s.name}.tsv" for s in TINY.benches},
        [round(i * 0.1, 12) for i in range(11)],
    )
    rows = oracle.parse_report((out / "a.report.tsv").read_text(encoding="utf-8"))
    return rows, expected


def test_oracle_accepts_the_report(tiny_report):
    rows, expected = tiny_report
    assert oracle.check_report("a", rows, expected) == []
    assert sum(oracle.raw_variant(r["config"]) is not None for r in rows) == 14


@pytest.mark.parametrize("field,change", [
    ("rho", lambda v: repr(oracle.parse_rho(v) + 1e-8)),
    ("n_evaluated", lambda v: str(int(v) - 1)),
])
def test_oracle_rejects_a_perturbed_report(tiny_report, field, change):
    rows, expected = tiny_report
    perturbed = [dict(r) for r in rows]
    target = next(r for r in perturbed if oracle.raw_variant(r["config"]) == 0.3)
    target[field] = change(target[field])
    problems = oracle.check_report("a", perturbed, expected)
    assert len(problems) == 1 and "0.3" in problems[0]


def test_oracle_rejects_a_missing_raw_row(tiny_report):
    rows, expected = tiny_report
    kept = [r for r in rows if oracle.raw_variant(r["config"]) != "concat"]
    assert oracle.check_report("a", kept, expected) == ["a concat: raw row missing from report"]
