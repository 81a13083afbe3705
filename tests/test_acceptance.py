"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; a
failing criterion shows up as a normal pytest failure for that test.
"""

import os
import time

import numpy as np
import pytest

from mmfuse import (
    Benchmark,
    Configuration,
    EvaluationResult,
    GridSpec,
    ScoringModel,
    SearchEntry,
    SearchReport,
    align_vocabularies,
    apply_configuration,
    cca_fit,
    enumerate_configurations,
    evaluate,
    load_benchmark,
    load_embeddings,
    output_dimension,
    pca_fit,
    pca_transform,
    rcca_residual,
    render_reports,
    select_best,
    spearman,
    sweep,
)
from mmfuse.errors import DimensionError, MissingReductionError, NumericalError
from mmfuse.search import STATUS_OK, _entry_sort_key

from test_numerics import (
    CCA_INSTANCES,
    PCA_COMPONENTS,
    PCA_VARIANCES,
    PCA_X,
)

TOY_GRID = GridSpec(dim_step=2, dim_min=2, alpha_step=0.1, ridge=1e-3)


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_cca_grid_oracle_equivalence():
    start = time.perf_counter()
    for X, Y, expected in CCA_INSTANCES:
        model = cca_fit(np.array(X), np.array(Y), 1, ridge=1e-6)
        assert abs(model.correlations[0] - expected) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"5 CCA instances match the direction-grid oracle within 1e-3 "
           f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_pca_eigendecomposition_oracle():
    model = pca_fit(PCA_X, 2)
    assert np.abs(model.components - PCA_COMPONENTS).max() < 1e-8
    assert np.abs(model.explained_variance - PCA_VARIANCES).max() < 1e-8
    _ok(2, "4x3 PCA matches the covariance-eigendecomposition oracle within 1e-8")


def test_criterion_3_residual_definitional_suite():
    rng = np.random.default_rng(30)
    # dyadic values keep the equal-dims subtraction exact in floating point
    original = rng.integers(-2048, 2048, size=(9, 5)) / 4096.0
    projected = rng.integers(-2048, 2048, size=(9, 5)) / 4096.0
    residual = rcca_residual(original, projected)
    assert np.array_equal(residual + projected, original)

    same = rng.normal(size=(6, 3))
    assert np.array_equal(rcca_residual(same, same), np.zeros_like(same))

    wide = rng.normal(size=(10, 4))
    low = rng.normal(size=(10, 2))
    reducer = pca_fit(wide, 2)
    out = rcca_residual(wide, low, pca=reducer)
    expected = pca_transform(reducer, wide) - low
    assert np.abs(out - expected).max() < 1e-12
    _ok(3, "residual + projected recovers the original exactly; "
           "reduction fallback equals the composed transform within 1e-12")


def test_criterion_4_spearman_suite():
    assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    ties = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert abs(ties - 0.94868329805051377) < 1e-12  # rank-enumeration oracle
    rng = np.random.default_rng(40)
    for _ in range(100):
        n = int(rng.integers(5, 50))
        a = rng.uniform(1.0, 2.0, size=n)
        b = rng.normal(size=n)
        transformed = a ** 3 + 5.0
        assert len(np.unique(transformed)) == n
        assert spearman(transformed, b) == spearman(a, b)
    _ok(4, "monotone 1, reversed -1, ties oracle within 1e-12, "
           "100 strictly-increasing-transform instances invariant")


def test_criterion_5_li_boundary_identities(planted):
    textual, visual, bench = planted
    rho_t = evaluate(
        apply_configuration(Configuration(output_side="textual"), textual, visual),
        bench,
    ).rho
    rho_v = evaluate(
        apply_configuration(Configuration(output_side="visual"), textual, visual),
        bench,
    ).rho
    li_1 = evaluate(
        apply_configuration(Configuration(layer_c="li", alpha=1.0), textual, visual),
        bench,
    ).rho
    li_0 = evaluate(
        apply_configuration(Configuration(layer_c="li", alpha=0.0), textual, visual),
        bench,
    ).rho
    assert li_1 == rho_t
    assert li_0 == rho_v
    _ok(5, "alpha=1 reproduces the textual rho exactly, alpha=0 the visual rho")


def _exhaustive_script(textual, visual, bench, grid):
    """Independent sweep over the same grid: direct apply + evaluate per
    configuration, locally computed sort key, no shared search code."""
    rows = []
    for i, cfg in enumerate(enumerate_configurations(textual.dim, visual.dim, grid)):
        dim = output_dimension(cfg, textual.dim, visual.dim)
        try:
            res = evaluate(apply_configuration(cfg, textual, visual), bench)
        except (NumericalError, DimensionError, MissingReductionError):
            rows.append(((2, 0.0, dim, i), cfg, "failed", None))
            continue
        if res.rho is None:
            rows.append(((1, 0.0, dim, i), cfg, "undefined", None))
        else:
            rows.append(((0, -res.rho, dim, i), cfg, "ok", res.rho))
    rows.sort(key=lambda r: r[0])
    return rows


def test_criterion_6_planted_structure_sweep(planted):
    textual, visual, bench = planted
    report, = sweep(textual, visual, [bench], TOY_GRID)
    config, result = select_best(report)
    assert config == Configuration(output_side="textual", ridge=1e-3)
    assert result.rho == 1.0
    oracle = _exhaustive_script(textual, visual, bench, TOY_GRID)
    assert len(oracle) == len(report.entries)
    for entry, (_, cfg, status, rho) in zip(report.entries, oracle):
        assert entry.config == cfg
        assert entry.status == status
        assert entry.rho == rho
    _ok(6, f"sweep best is the textual identity configuration at rho 1.0; "
           f"all {len(oracle)} ranked entries match the independent script")


def test_criterion_7_lowest_dimension_tie_break():
    def entry(dim, order_index):
        return SearchEntry(
            config=Configuration(output_side="textual"),
            result=EvaluationResult(rho=0.8, n_evaluated=10, n_total=10),
            status=STATUS_OK, output_dim=dim, order_index=order_index,
        )

    entries = sorted([entry(100, 0), entry(50, 1)], key=_entry_sort_key)
    report = SearchReport("tie", GridSpec(), tuple(entries))
    _, _ = select_best(report)
    assert report.best.output_dim == 50
    _ok(7, "equal-rho configurations of output dims 100 and 50 select the 50")


def test_criterion_8_worker_count_determinism(planted):
    textual, visual, bench = planted
    r1 = sweep(textual, visual, [bench], TOY_GRID, workers=1)
    r8 = sweep(textual, visual, [bench], TOY_GRID, workers=8)
    assert render_reports(r1) == render_reports(r8)
    _ok(8, "1-worker and 8-worker sweeps serialize byte-identically")


def test_criterion_9_composition_constraints_at_scale():
    configs = enumerate_configurations(500, 4096, GridSpec())
    assert configs
    for cfg in configs:
        if cfg.layer_b != "none":
            # fusion inputs share a dimensionality only via layer-a PCA here
            assert cfg.layer_a == "pca"
            assert cfg.fusion_dim <= cfg.pca_dim
        if cfg.layer_b == "cca_plus_rcca":
            assert cfg.layer_c in ("concat", "li")
    _ok(9, f"{len(configs)} configurations at dims 500/4096: no fusion over "
           "unequal inputs, every mixed fusion feeds layer c")


FULL_SCALE_VARS = ("MMFUSE_SKIPGRAM_VECS", "MMFUSE_CNN_VECS", "MMFUSE_MEN_SUBSET")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in FULL_SCALE_VARS),
    reason="full-scale vectors not supplied "
           f"(set {', '.join(FULL_SCALE_VARS)})",
)
def test_criterion_10_full_scale_reference_configuration():
    textual = load_embeddings(os.environ["MMFUSE_SKIPGRAM_VECS"], name="textual")
    visual = load_embeddings(os.environ["MMFUSE_CNN_VECS"], name="visual")
    textual, visual = align_vocabularies(textual, visual)
    bench = load_benchmark(os.environ["MMFUSE_MEN_SUBSET"], name="MEN")
    config = Configuration(
        layer_a="pca", pca_dim=200,
        layer_b="cca_plus_rcca", fusion_dim=200,
        cca_side="visual", rcca_side="textual",
        layer_c="li", alpha=0.4,
    )
    result = evaluate(apply_configuration(config, textual, visual), bench)
    assert result.rho == pytest.approx(0.81, abs=0.03)
    _ok(10, f"reference configuration reaches rho {result.rho:.3f} on MEN")
