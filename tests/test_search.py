import re
from collections import Counter
from itertools import accumulate, groupby

import numpy as np
import pytest

from mmfuse import (
    AlignmentError,
    Benchmark,
    Configuration,
    EmbeddingTable,
    EvaluationResult,
    GridError,
    GridSpec,
    NoResultError,
    SearchEntry,
    SearchReport,
    apply_configuration,
    enumerate_configurations,
    evaluate,
    output_dimension,
    parse_configuration,
    render_reports,
    select_best,
    sweep,
)
from mmfuse import composition, search
from mmfuse.errors import DimensionError, NumericalError
from mmfuse.evaluation import covered_pairs, filter_coverage, model_scores
from mmfuse.search import STATUS_FAILED, STATUS_OK, STATUS_UNDEFINED, _entry_sort_key

TOY_GRID = GridSpec(dim_step=2, dim_min=2, alpha_step=0.1, ridge=1e-3)


def exhaustive_oracle(textual, visual, bench, grid, normalize_concat=False):
    """Independent sweep: evaluate each configuration directly (no shared
    fits, no shared collection logic) and sort with a locally written key.
    Rows are (status rank, -rho, output dim, index, config, result, error)."""
    rows = []
    for i, cfg in enumerate(enumerate_configurations(textual.dim, visual.dim, grid)):
        out_dim = output_dimension(cfg, textual.dim, visual.dim)
        try:
            model = apply_configuration(cfg, textual, visual, normalize_concat=normalize_concat)
            result = evaluate(model, bench)
        except (NumericalError, DimensionError) as exc:
            rows.append((2, 0.0, out_dim, i, cfg, None, str(exc)))
            continue
        if result.rho is None:
            rows.append((1, 0.0, out_dim, i, cfg, result, None))
        else:
            rows.append((0, -result.rho, out_dim, i, cfg, result, None))
    rows.sort(key=lambda r: r[:4])
    return rows


def group_progress(textual, visual, grid):
    """The progress calls of a sweep: one per layer-a group, in canonical order."""
    configs = enumerate_configurations(textual.dim, visual.dim, grid)
    sizes = [len(list(group)) for _, group in groupby(configs, key=lambda c: c.pca_dim)]
    return [(done, len(configs)) for done in accumulate(sizes)]


def progress_calls(textual, visual, benches, grid, workers):
    """The reports of a sweep and the ``(done, total)`` of each progress call it made."""
    calls = []
    reports = sweep(textual, visual, benches, grid, workers=workers,
                    progress=lambda *call: calls.append(call))
    return reports, calls


def rank_blocks(entries, per_block):
    """The rank blocks of a sweep's entries on one benchmark span: the chunk rule.

    Per layer-a group, the configurations in canonical order are cut into
    chunks of ``per_block``; each chunk that holds a built score vector (one
    ranked, or one failed only when ranked, on a non-finite score) is one
    block. A failure computing a vector is not stacked.
    """
    built = {}
    for e in sorted(entries, key=lambda e: e.order_index):
        built.setdefault(e.config.pca_dim, []).append(
            e.result is not None or str(e.error).startswith("non-finite pair scores"))
    return sum(any(flags[i:i + per_block]) for flags in built.values()
               for i in range(0, len(flags), per_block))


def assert_matches_oracle(report, oracle):
    assert len(report.entries) == len(oracle)
    for entry, (rank, _, out_dim, _, cfg, result, error) in zip(report.entries, oracle):
        assert entry.config == cfg
        assert entry.output_dim == out_dim
        assert entry.status == (STATUS_OK, STATUS_UNDEFINED, STATUS_FAILED)[rank]
        assert entry.error == error
        if result is None:
            assert entry.result is None
        else:
            assert entry.result == result


@pytest.fixture(scope="module")
def ragged():
    """Unequal table widths, partial coverage and failing fits.

    Six words: layer-a PCA to 6 dims exceeds n-1 and fails; the textual
    table has rank 3, so with ridge 0 its PCA outputs beyond 3 dims have
    singular covariances and every CCA fit on them fails. Fusion dims
    below the layer-a dim reduce the layer-a output to its leading
    coordinates. Past rank 3 the textual output's variances are zero, so
    any basis of those coordinates is a valid PCA (an SVD picks one
    arbitrarily); the reducer takes the coordinate axes.
    """
    rng = np.random.default_rng(11)
    vocab = tuple(f"w{i}" for i in range(6))
    textual = EmbeddingTable(vocab, rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6)),
                             name="textual")
    visual = EmbeddingTable(vocab, rng.normal(size=(6, 8)), name="visual")
    words = vocab + ("oov1", "oov2")
    pairs = tuple((words[i], words[j], float(rng.uniform(0, 10)))
                  for i in range(8) for j in range(i + 1, 8) if (i + j) % 3)
    grid = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5, ridge=0.0)
    return textual, visual, Benchmark("ragged", pairs), grid


class TestGridSpec:
    def test_degenerate_step_rejected(self):
        with pytest.raises(GridError):
            GridSpec(dim_step=0)
        with pytest.raises(GridError):
            GridSpec(alpha_step=0.0)
        with pytest.raises(GridError):
            GridSpec(alpha_step=1.5)
        for ridge in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(GridError, match="ridge must be finite and >= 0"):
                GridSpec(ridge=ridge)

    @pytest.mark.parametrize("field, value", [
        ("dim_step", 2.5), ("dim_min", 1.5), ("dim_step", float("nan")), ("dim_min", 2.0),
        ("dim_step", "2"),
    ])
    def test_non_integer_dims_are_rejected(self, field, value):
        with pytest.raises(GridError, match=f"{field} must be an integer, got "):
            GridSpec(**{field: value})

    @pytest.mark.parametrize("step", [1e-300, 5e-13, 9.9e-13])
    def test_a_step_below_the_alpha_resolution_is_refused(self, step):
        # each alpha would round to 0, and the list of alphas would never end
        message = ("alpha_step must be at least 1e-12, the resolution alphas are rounded to, "
                   f"got {step}")
        with pytest.raises(GridError, match=re.escape(message)):
            GridSpec(alpha_step=step)

    @pytest.mark.parametrize("step, alphas", [
        (1.0, [0.0, 1.0]),
        (0.5, [0.0, 0.5, 1.0]),
        (0.3, [0.0, 0.3, 0.6, 0.9]),
        (0.25, [0.0, 0.25, 0.5, 0.75, 1.0]),
        (0.1, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        (1 / 3, [0.0, 0.333333333333, 0.666666666667, 1.0]),
        (0.05, [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
                0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]),
    ])
    def test_alphas_of_accepted_steps(self, step, alphas):
        assert GridSpec(alpha_step=step).alphas() == alphas

    def test_numpy_integer_dims_are_accepted(self):
        grid = GridSpec(dim_step=np.int64(2), dim_min=np.int32(1))
        assert grid.dims_up_to(6) == [1, 3, 5]

    def test_unknown_motif_names_are_rejected(self):
        with pytest.raises(GridError) as info:
            GridSpec(motif_filter={"PCA", "li", "svd"})
        assert str(info.value) == "unknown motifs in motif_filter: ['PCA', 'svd']"
        assert GridSpec(motif_filter=["li", "pca"]).motif_filter == frozenset({"li", "pca"})

    def test_dims_reach_the_input_limit(self):
        assert GridSpec().dims_up_to(500) == list(range(50, 501, 50))
        assert GridSpec(dim_step=2, dim_min=2).dims_up_to(4) == [2, 4]


class TestPlantedSweep:
    def test_best_is_textual_identity_with_rho_one(self, planted):
        textual, visual, bench = planted
        report, = sweep(textual, visual, [bench], TOY_GRID)
        config, result = select_best(report)
        assert config == Configuration(output_side="textual", ridge=1e-3)
        assert result.rho == 1.0

    def test_full_ranking_matches_exhaustive_oracle(self, planted):
        textual, visual, bench = planted
        oracle = exhaustive_oracle(textual, visual, bench, TOY_GRID)
        for workers in (1, 3):
            report, = sweep(textual, visual, [bench], TOY_GRID, workers=workers)
            assert_matches_oracle(report, oracle)

    @pytest.mark.parametrize("normalize_concat", [False, True])
    def test_each_score_vector_is_its_applied_models(self, planted, monkeypatch,
                                                     normalize_concat):
        """Bit for bit, the sweep ranks the vector ``model_scores`` gives each configuration.

        The exhaustive oracle compares rho only, through the layer-c rule
        the sweep shares; this compares every ranked score vector.
        """
        textual, visual, bench = planted
        blocks = []
        rank_results = search.rank_results

        def capture(vectors, span, bench):
            blocks.append(vectors.copy())
            return rank_results(vectors, span, bench)

        monkeypatch.setattr(search, "rank_results", capture)
        sweep(textual, visual, [bench], TOY_GRID, normalize_concat=normalize_concat)
        ranked = iter(np.concatenate(blocks))
        covered = covered_pairs([bench], textual)
        layer_c = Counter()
        for config in enumerate_configurations(textual.dim, visual.dim, TOY_GRID):
            try:
                model = apply_configuration(config, textual, visual, normalize_concat)
                expected = model_scores(model, covered)
            except (NumericalError, DimensionError):
                continue
            assert next(ranked).tobytes() == expected.tobytes(), config
            layer_c[config.layer_c] += 1
        assert next(ranked, None) is None
        assert min(layer_c[c] for c in ("none", "concat", "li")) > 0

    def test_best_dominates_every_entry(self, planted):
        textual, visual, bench = planted
        report, = sweep(textual, visual, [bench], TOY_GRID)
        best_rho = report.best.rho
        for entry in report.entries:
            if entry.status == STATUS_OK:
                assert best_rho >= entry.rho

    def test_superset_grid_never_loses(self, planted):
        textual, visual, bench = planted
        small = GridSpec(dim_step=4, dim_min=4, alpha_step=0.5, ridge=1e-3)
        small_report, = sweep(textual, visual, [bench], small)
        big_report, = sweep(textual, visual, [bench], TOY_GRID)
        _, small_best = select_best(small_report)
        _, big_best = select_best(big_report)
        assert big_best.rho >= small_best.rho

    def test_workers_do_not_change_the_report(self, planted):
        textual, visual, bench = planted
        r1 = sweep(textual, visual, [bench], TOY_GRID, workers=1)
        r8 = sweep(textual, visual, [bench], TOY_GRID, workers=8)
        assert render_reports(r1) == render_reports(r8)

    def test_progress_reaches_total(self, planted):
        """One call per layer-a group, ``done`` rising to the total, whatever the workers."""
        textual, visual, bench = planted
        grid = GridSpec(dim_step=4, dim_min=4, alpha_step=0.5, ridge=1e-3)
        (report,), calls = progress_calls(textual, visual, [bench], grid, workers=1)
        total = len(report.entries)
        dones = [done for done, _ in calls]
        assert len(calls) == len({e.config.pca_dim for e in report.entries}) > 1
        assert all(a < b for a, b in zip(dones, dones[1:]))
        assert calls[-1] == (total, total)
        assert calls == group_progress(textual, visual, grid)
        assert progress_calls(textual, visual, [bench], grid, workers=3)[1] == calls

    def test_li_motif_filter_reproduces_interpolation_only_sweep(self, planted):
        textual, visual, bench = planted
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.1, ridge=1e-3,
                        motif_filter=frozenset({"li"}))
        report, = sweep(textual, visual, [bench], grid)
        for entry in report.entries:
            assert entry.config.layer_a == "none"
            assert entry.config.layer_b == "none"
            assert entry.config.layer_c in ("none", "li")
        # alpha=1 interpolation scores exactly like the raw textual table
        best_config, best_result = select_best(report)
        assert best_result.rho == 1.0


class TestTieBreaking:
    @staticmethod
    def entry(rho, dim, order_index, config=None):
        return SearchEntry(
            config=config or Configuration(output_side="textual"),
            result=EvaluationResult(rho=rho, n_evaluated=10, n_total=10),
            status=STATUS_OK,
            output_dim=dim,
            order_index=order_index,
        )

    def test_equal_rho_prefers_lower_dimension(self):
        wide = self.entry(0.8, 100, 0)
        narrow = self.entry(0.8, 50, 1)
        entries = sorted([wide, narrow], key=_entry_sort_key)
        report = SearchReport("tie", GridSpec(), tuple(entries))
        config, _ = select_best(report)
        assert report.best.output_dim == 50
        assert config is narrow.config

    def test_remaining_tie_broken_by_canonical_order(self):
        first = self.entry(0.8, 50, 3)
        second = self.entry(0.8, 50, 7)
        entries = sorted([second, first], key=_entry_sort_key)
        assert entries[0].order_index == 3

    def test_all_failed_reports_no_result(self):
        failed = SearchEntry(
            config=Configuration(output_side="textual"), result=None,
            status=STATUS_FAILED, output_dim=4, order_index=0, error="x",
        )
        with pytest.raises(NoResultError):
            select_best(SearchReport("dead", GridSpec(), (failed,)))


class TestFailureHandling:
    def test_numerical_failures_are_recorded_not_fatal(self):
        # n=4 rows: PCA to 4 dims needs n-1 >= 4, so those configs fail
        rng = np.random.default_rng(20)
        vocab = tuple(f"w{i}" for i in range(4))
        textual = EmbeddingTable(vocab, rng.normal(size=(4, 4)), name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(4, 4)), name="visual")
        pairs = tuple((vocab[i], vocab[j], float(rng.uniform(0, 1)))
                      for i in range(4) for j in range(i + 1, 4))
        bench = Benchmark("tiny", pairs)
        report, = sweep(textual, visual, [bench], TOY_GRID)
        counts = report.counts()
        assert counts[STATUS_FAILED] > 0
        assert counts[STATUS_OK] > 0
        # failures rank strictly after every ok / undefined entry
        statuses = [e.status for e in report.entries]
        assert statuses.index(STATUS_FAILED) >= counts[STATUS_OK]
        for entry in report.entries:
            if entry.status == STATUS_FAILED:
                assert entry.error

    @pytest.mark.parametrize("overflow", [False, True])
    def test_an_out_of_range_layer_a_dim_fails_with_the_pca_text(self, overflow):
        # 6 words: a layer-a PCA has at most n-1 = 5 dims, so 6 and 8 fail, on
        # the textual side first (its d is 8), in the sweep and applied alone;
        # with ``overflow`` fitting the textual side fails too, and dims 2 and
        # 4 fail with that failure, but 6 and 8 still fail as out of range
        rng = np.random.default_rng(23)
        vocab = tuple(f"w{i}" for i in range(6))
        matrix = rng.normal(size=(6, 8))
        if overflow:
            matrix[0, 0] = 1e200
        textual = EmbeddingTable(vocab, matrix, name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(6, 10)), name="visual")
        bench = Benchmark("six", tuple((vocab[i], vocab[j], float(rng.uniform(0, 10)))
                                       for i in range(6) for j in range(i + 1, 6)))
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5)
        report, = sweep(textual, visual, [bench], grid)
        failed = {e.config: e.error for e in report.entries if e.status == STATUS_FAILED}
        expected = {c: f"PCA dimension k={c.pca_dim} outside [1, min(n-1=5, d=8)]"
                    for c in enumerate_configurations(8, 10, grid) if c.pca_dim in (6, 8)}
        if overflow:
            # configurations without layer a may fail on the raw overflow too
            failed = {c: error for c, error in failed.items() if c.pca_dim}
            expected |= {c: "PCA variance contains non-finite values"
                         for c in enumerate_configurations(8, 10, grid) if c.pca_dim in (2, 4)}
        assert failed == expected
        for config, error in expected.items():
            with pytest.raises(DimensionError if config.pca_dim > 5 else NumericalError) as info:
                apply_configuration(config, textual, visual)
            assert str(info.value) == error

    def test_one_word_fails_every_fit_with_its_row_count_text(self):
        # one aligned word: a PCA needs 2 rows and a CCA 3, and each fit
        # says so before it checks the range of any dim
        rng = np.random.default_rng(24)
        textual = EmbeddingTable(("w0",), rng.normal(size=(1, 3)), name="textual")
        visual = EmbeddingTable(("w0",), rng.normal(size=(1, 3)), name="visual")
        bench = Benchmark("one", (("w0", "zz", 1.0),))
        grid = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5)
        configs = enumerate_configurations(3, 3, grid)
        expected = {c: "PCA needs at least 2 rows" if c.pca_dim else "CCA needs at least 3 rows"
                    for c in configs if c.pca_dim or c.layer_b != "none"}
        report, = sweep(textual, visual, [bench], grid)
        assert {e.config: e.error for e in report.entries if e.status == STATUS_FAILED} == expected
        assert {e.status for e in report.entries if e.config not in expected} == {STATUS_UNDEFINED}
        for config, error in expected.items():
            with pytest.raises(DimensionError) as info:
                apply_configuration(config, textual, visual)
            assert str(info.value) == error

    @pytest.mark.parametrize("words", [6, 2])
    def test_a_fusion_dim_fails_with_the_cca_text(self, words):
        # raw 8-d/8-d tables at ridge 0. With 6 words both covariances are
        # singular: each fusion dim up to n - 1 = 5 fails with that, and 6
        # and 8 with the range text, checked first. With 2 words every
        # fusion dim fails with the row count, checked before the range.
        rng = np.random.default_rng(25)
        vocab = tuple(f"w{i}" for i in range(words))
        textual = EmbeddingTable(vocab, rng.normal(size=(words, 8)), name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(words, 8)), name="visual")
        bench = Benchmark("raw", tuple((vocab[i], vocab[j], float(i + 2 * j))
                                       for i in range(words) for j in range(i + 1, words)))
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5, ridge=0.0)

        def failure(f_dim):
            if words < 3:
                return DimensionError("CCA needs at least 3 rows")
            if f_dim > words - 1:
                return DimensionError(f"CCA dimension k={f_dim} outside [1, min(d1=8, d2=8, n-1=5)]")
            return NumericalError("first-view covariance is singular; refit with a positive ridge")

        expected = {c: failure(c.fusion_dim) for c in enumerate_configurations(8, 8, grid)
                    if c.layer_b != "none" and not c.pca_dim}
        assert {c.fusion_dim for c in expected} == {2, 4, 6, 8}
        report, = sweep(textual, visual, [bench], grid)
        errors = {e.config: e.error for e in report.entries}
        assert {c: errors[c] for c in expected} == {c: str(exc) for c, exc in expected.items()}
        for config, exc in expected.items():
            with pytest.raises(type(exc)) as info:
                apply_configuration(config, textual, visual)
            assert str(info.value) == str(exc)

    def test_memoized_and_fresh_fits_agree(self, planted):
        textual, visual, bench = planted
        grid = GridSpec(dim_step=2, dim_min=2, alpha_step=0.5, ridge=1e-3)
        report, = sweep(textual, visual, [bench], grid)
        for entry in report.entries[:40]:
            fresh = evaluate(
                apply_configuration(entry.config, textual, visual), bench
            )
            assert fresh.rho == entry.rho

    def test_misaligned_tables_are_refused(self, planted):
        textual, visual, bench = planted
        shuffled = EmbeddingTable(visual.vocab[::-1], visual.matrix[::-1], name="visual")
        with pytest.raises(AlignmentError) as info:
            sweep(textual, shuffled, [bench], TOY_GRID)
        assert str(info.value) == "tables must be vocabulary-aligned before searching"

    def test_ragged_sweep_matches_exhaustive_oracle(self, ragged):
        textual, visual, bench, grid = ragged
        oracle = exhaustive_oracle(textual, visual, bench, grid)
        for workers in (1, 3):
            report, = sweep(textual, visual, [bench], grid, workers=workers)
            counts = report.counts()
            assert counts[STATUS_OK] and counts[STATUS_FAILED]
            assert {e.result.n_evaluated for e in report.entries if e.result} == {10}
            assert_matches_oracle(report, oracle)


def twelve_words(overflow):
    """12-word 4x4 pair; with ``overflow`` one visual value is 1e200, so every
    visual PCA fails, and so does every CCA fit on the raw tables."""
    rng = np.random.default_rng(5)
    vocab = tuple(f"w{i:02d}" for i in range(12))
    visual = rng.normal(size=(12, 4))
    if overflow:
        visual[1, 0] = 1e200
    textual = EmbeddingTable(vocab, rng.normal(size=(12, 4)), name="textual")
    visual = EmbeddingTable(vocab, visual, name="visual")
    benches = [
        Benchmark("big", tuple((vocab[i], vocab[j], float(i * j % 7))
                               for i in range(12) for j in range(i + 1, 12, 3))),
        Benchmark("part", tuple((vocab[i], w, float(i % 4)) for i in range(0, 12, 2)
                                for w in (vocab[(i + 5) % 12], f"zz{i}"))),
        Benchmark("none", (("xx", "yy", 1.0), ("yy", "zz", 2.0))),
    ]
    return textual, visual, benches


class TestSharedFits:
    GRID = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5, ridge=1e-3)

    @staticmethod
    def counted(monkeypatch):
        """Record every decomposition as (routine, matrix bytes), and the shape each rank call ranks.

        Score blocks and gold scores alike are ranked by ``sorted_ranks``.
        """
        import mmfuse._kernels as kernels
        import mmfuse.numerics as numerics

        calls, ranks = [], []

        def decompose(routine, matrix, what, **kwargs):
            calls.append((routine.__name__, np.asarray(matrix).tobytes()))
            return real_decompose(routine, matrix, what, **kwargs)

        def sorted_ranks(values):
            ranks.append(values.shape)
            return real_ranks(values)

        real_decompose, real_ranks = numerics._decompose, kernels.sorted_ranks
        monkeypatch.setattr(numerics, "_decompose", decompose)
        monkeypatch.setattr(kernels, "sorted_ranks", sorted_ranks)
        return calls, ranks

    @pytest.mark.parametrize("overflow", [False, True])
    def test_each_decomposition_runs_once(self, monkeypatch, overflow):
        textual, visual, benches = twelve_words(overflow)
        calls, ranks = self.counted(monkeypatch)
        single, = sweep(textual, visual, [benches[0]], self.GRID)
        single_calls = sorted(calls)
        calls.clear()
        ranks.clear()
        reports = sweep(textual, visual, benches, self.GRID)
        assert len(calls) == len(set(calls))
        # the other benchmarks add no decomposition
        assert sorted(calls) == single_calls
        # each ranked configuration ranks its scores once, each benchmark its gold once
        ranked = [e for r in reports for e in r.entries
                  if e.result is not None and e.result.n_evaluated >= 2]
        assert sum(shape[0] if len(shape) == 2 else 1 for shape in ranks) == len(ranked) + 2
        assert sum(len(shape) == 1 for shape in ranks) == 2
        # score vectors over the joined pairs of every benchmark are ranked a
        # block at a time per layer-a group, each block on the span of every
        # benchmark with two pairs or more ("big" is one)
        n_evals = [len(filter_coverage(bench, textual.vocab)) for bench in benches]
        per_block = max(1, search.RANK_BLOCK_VALUES // max(1, sum(n_evals)))
        blocks = rank_blocks(reports[0].entries, per_block)
        assert sum(len(shape) == 2 for shape in ranks) == blocks * sum(n >= 2 for n in n_evals)
        if overflow:
            assert single.counts()[STATUS_FAILED] > 0
        else:
            # layer a: one SVD per side, whose scores also give every R-CCA
            # reducer; one whitened CCA (one SVD) per layer-a dim, whose
            # whitening takes two eigh in the raw group and none in a PCA'd
            # group (its variances)
            routines = [routine for routine, _ in calls]
            assert routines.count("eigh") == 2
            assert routines.count("svd") == 2 + 5
        oracle = exhaustive_oracle(textual, visual, benches[0], self.GRID)
        assert_matches_oracle(single, oracle)
        assert_matches_oracle(reports[0], oracle)

    @pytest.mark.parametrize("layers, svd", [
        # layer a: one SVD per side; one CCA SVD, whitened by the layer-a
        # variances (no eigh); a layer-a output's reducers are leading
        # columns of its side's scores
        ("layer_a=pca:3 layer_b=rcca:2:out=both layer_c=li:0.5", 2 + 1),
        ("layer_a=pca:3 layer_b=cca_plus_rcca:2:cca=T:rcca=V layer_c=concat", 2 + 1),
        # raw tables are whitened by two eigh; a raw residual side is reduced
        # by its own layer-a scores, fit only where it is wider
        ("layer_a=none layer_b=rcca:2:out=T layer_c=none", 1 + 1),
        ("layer_a=none layer_b=rcca:2:out=both layer_c=concat", 2 + 1),
        ("layer_a=none layer_b=rcca:4:out=both layer_c=concat", 0 + 1),
    ])
    def test_apply_decomposes_once_per_fit(self, monkeypatch, layers, svd):
        textual, visual, _ = twelve_words(overflow=False)
        calls, _ = self.counted(monkeypatch)
        transforms = self.counted_transforms(monkeypatch)
        config = parse_configuration(f"{layers} ridge=0.001")
        apply_configuration(config, textual, visual)
        eigh = 0 if config.pca_dim else 2
        assert Counter(routine for routine, _ in calls) == Counter(svd=svd, eigh=eigh)
        # each side fit is projected once, the CCA not at all
        assert len(transforms) == svd - 1

    @staticmethod
    def counted_transforms(monkeypatch):
        """Record the shape of each input ``pca_transform`` projects, wherever it is called."""
        import mmfuse.numerics as numerics

        transforms = []
        real = numerics.pca_transform

        def pca_transform(model, X):
            transforms.append(np.shape(X))
            return real(model, X)

        monkeypatch.setattr(numerics, "pca_transform", pca_transform)
        monkeypatch.setattr(composition, "pca_transform", pca_transform)
        return transforms

    def test_tall_sides_take_one_gram_eigh_each(self, pca_routines):
        """Sides with ``n >= 2d >= 2 * GRAM_MIN_SIDE`` are fit by one ``eigh`` each, and no QR."""
        rng = np.random.default_rng(7)
        vocab = tuple(f"w{i:02d}" for i in range(40))
        latent = rng.normal(size=(40, 6))
        textual, visual = (EmbeddingTable(vocab, latent @ rng.normal(size=(6, d))
                                          + rng.normal(size=(40, d)), name=name)
                           for name, d in (("textual", 16), ("visual", 18)))
        bench = Benchmark("tall", tuple((vocab[i], vocab[j], float((i * j) % 5))
                                        for i in range(40) for j in range(i + 1, 40, 7)))
        grid = GridSpec(dim_step=8, dim_min=8, alpha_step=0.5)
        report, = sweep(textual, visual, [bench], grid)
        assert pca_routines == [("eigh", (16, 16)), ("eigh", (18, 18))]
        assert report.counts()[STATUS_OK] == len(report.entries)
        assert_matches_oracle(report, exhaustive_oracle(textual, visual, bench, grid))

    def test_dead_visual_units_sweep_as_the_exhaustive_oracle(self, pca_routines):
        """A visual table with every 5th column zero takes the Gram at m, bitwise as applied.

        40 words, a 20-d textual and a 30-d visual table: m = 20 is below
        the visual side's rank 24, so its ``λ_20`` clears the bound though
        ``λ_30``, at its own widest k, is 0.
        """
        rng = np.random.default_rng(8)
        vocab = tuple(f"w{i:02d}" for i in range(40))
        latent = rng.normal(size=(40, 6))
        textual, visual = (latent @ rng.normal(size=(6, d)) + rng.normal(size=(40, d))
                           for d in (20, 30))
        visual[:, ::5] = 0.0
        textual = EmbeddingTable(vocab, textual, name="textual")
        visual = EmbeddingTable(vocab, np.tanh(visual), name="visual")
        bench = Benchmark("dead", tuple((vocab[i], vocab[j], float((i * j) % 5))
                                        for i in range(40) for j in range(i + 1, 40, 7)))
        grid = GridSpec(dim_step=5, dim_min=5, alpha_step=0.5)
        report, = sweep(textual, visual, [bench], grid)
        assert pca_routines == [("eigh", (20, 20)), ("eigh", (30, 30))]
        assert report.counts()[STATUS_OK] == len(report.entries)
        assert_matches_oracle(report, exhaustive_oracle(textual, visual, bench, grid))

    def test_each_projection_and_table_is_computed_once(self, monkeypatch):
        """One CCA projection per (pca dim, side), at the fit's full width, and one pair-sum pass per table.

        Each side is PCA-projected once per sweep: every layer-a output and
        R-CCA reducer is a column prefix of that projection. Each layer-a
        dim's CCA is fit at K = min(d1, d2, n - 1) and each side projected
        once at K: every fusion dim's CCA table, and the projection its
        R-CCA table subtracts, is a column prefix of that projection. Each
        R-CCA table is one ``rcca_residual`` subtraction.
        """
        from mmfuse.composition import layer_inputs

        textual, visual, benches = twelve_words(overflow=False)
        projected, summed, subtracted = [], [], []

        def cca_transform(model, X, side):
            projected.append((model.k, side))
            return real_transform(model, X, side)

        def rcca_residual(original, cut):
            subtracted.append(original.shape)
            return real_residual(original, cut)

        def table_sums(matrix, sq_norms, covered):
            summed.append(matrix.shape)
            return real_sums(matrix, sq_norms, covered)

        real_transform, real_sums = composition.cca_transform, search.table_sums
        real_residual = composition.rcca_residual
        monkeypatch.setattr(composition, "cca_transform", cca_transform)
        monkeypatch.setattr(composition, "rcca_residual", rcca_residual)
        monkeypatch.setattr(search, "table_sums", table_sums)
        transforms = self.counted_transforms(monkeypatch)
        sweep(textual, visual, benches, self.GRID)
        assert transforms == [textual.matrix.shape, visual.matrix.shape]
        configs = enumerate_configurations(textual.dim, visual.dim, self.GRID)
        tables = {(c.pca_dim, c.fusion_dim if origin else None, origin, side)
                  for c in configs for origin, side in layer_inputs(c)}
        fused = {(a_dim, side) for a_dim, _, origin, side in tables if origin}
        n = len(textual.vocab)
        widths = {a_dim: min(a_dim or textual.dim, a_dim or visual.dim, n - 1) for a_dim, _ in fused}
        assert Counter(projected) == Counter((widths[a_dim], side) for a_dim, side in fused)
        assert len(fused) == 2 * len(widths) > 2
        assert len(summed) == len(tables)
        assert len(subtracted) == sum(origin == "rcca" for _, _, origin, _ in tables) > 0

    def test_overflowing_row_fails_its_tables(self):
        textual, visual, benches = twelve_words(overflow=True)
        report, = sweep(textual, visual, [benches[0]], self.GRID)
        by_config = {e.config: e for e in report.entries}
        raw_v = by_config[Configuration(output_side="visual", ridge=1e-3)]
        assert raw_v.status == STATUS_FAILED
        assert raw_v.error == "non-finite pair scores on 'big'"
        assert by_config[Configuration(output_side="textual", ridge=1e-3)].status == STATUS_OK

    @pytest.mark.parametrize("normalize_concat", [False, True])
    def test_an_overflowing_row_fails_only_the_benchmarks_that_read_it(self, normalize_concat):
        """The sweep is the exhaustive oracle, error texts included, normalized or not.

        The 1e200 visual row w01 is read by pairs of 'big' only, so a
        concatenation on the raw tables fails on 'big' and is ranked on
        'apart'. Normalized, each concatenation's status is its
        unnormalized twin's.
        """
        textual, visual, benches = twelve_words(overflow=True)
        apart = Benchmark("apart", tuple(p for p in benches[1].pairs if "w01" not in p[:2]))
        benches = [benches[0], apart]
        reports = sweep(textual, visual, benches, self.GRID, normalize_concat=normalize_concat)
        for report, bench in zip(reports, benches):
            assert_matches_oracle(report, exhaustive_oracle(textual, visual, bench, self.GRID,
                                                            normalize_concat))
        for report, twin in zip(reports, sweep(textual, visual, benches, self.GRID)):
            status = {e.config: e.status for e in twin.entries}
            concat = [e for e in report.entries if e.config.layer_c == "concat"]
            assert [e.status for e in concat] == [status[e.config] for e in concat]
        raw = Configuration(layer_c="concat", ridge=1e-3)
        on_big, on_apart = ({e.config: e for e in r.entries}[raw] for r in reports)
        assert on_big.error == "non-finite pair scores on 'big'"
        assert on_apart.status == STATUS_OK and on_apart.result.n_evaluated == 5


class TestGroupMemory:
    def test_a_group_keeps_its_tables_only_as_pair_sums(self):
        """A group holds one projection and one table at a time, not all of its tables.

        The bound is 16 n x d tables of float64: the fits' workspaces, one
        group's layer-a output, one projection and the table built from
        it. The widest group's projections and residuals alone, held
        together, fill more columns than that.
        """
        import tracemalloc

        n, d = 1200, 40
        rng = np.random.default_rng(3)
        vocab = tuple(f"w{i:04d}" for i in range(n))
        textual = EmbeddingTable(vocab, rng.normal(size=(n, d)), name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(n, d)), name="visual")
        bench = Benchmark("some", tuple((vocab[i], vocab[j], float(i * j % 7))
                                        for i, j in rng.integers(0, n, size=(400, 2)) if i != j))
        grid = GridSpec(dim_step=5, dim_min=5, alpha_step=0.5)
        bound = 16 * n * d * 8
        # CCA and R-CCA, each side, each fusion dim of the widest group
        assert 2 * 2 * sum(grid.dims_up_to(d)) * n * 8 > bound
        tracemalloc.start()
        try:
            sweep(textual, visual, [bench], grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestRankBlocks:
    """A group's score vectors are ranked in blocks of bounded size."""

    GRID = GridSpec(dim_step=2, dim_min=1, alpha_step=0.5, ridge=1e-3)

    @staticmethod
    def many_pairs(overflow):
        """150 words and every pair of them: 11175 pairs, so a block holds two vectors.

        With ``overflow`` one visual value is 1e200: the raw visual scores
        are non-finite and every layer-a fit fails, so the raw group's
        blocks mix a ranked row with rows that fail when ranked, and the
        other groups store their failures without ranking anything.
        """
        rng = np.random.default_rng(8)
        vocab = tuple(f"w{i:03d}" for i in range(150))
        visual = rng.normal(size=(150, 3))
        if overflow:
            visual[7, 1] = 1e200
        textual = EmbeddingTable(vocab, rng.normal(size=(150, 4)), name="textual")
        visual = EmbeddingTable(vocab, visual, name="visual")
        bench = Benchmark("all", tuple((vocab[i], vocab[j], float(i * j % 11))
                                       for i in range(150) for j in range(i + 1, 150)))
        return textual, visual, bench

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("overflow", [False, True])
    def test_blocks_stay_within_the_budget(self, monkeypatch, overflow):
        """The bound holds for a block over the joined pairs of one benchmark or two."""
        import mmfuse._kernels as kernels

        textual, visual, bench = self.many_pairs(overflow)
        # the pairs of 110 of the words: alone, five of its vectors fit a
        # block; joined with ``bench``'s pairs, one vector fills a block
        some = Benchmark("some", tuple(p for p in bench.pairs if p[1] < "w110"))
        assert 2 * len(bench) <= search.RANK_BLOCK_VALUES < 3 * len(bench)
        assert 5 * len(some) <= search.RANK_BLOCK_VALUES < 2 * (len(bench) + len(some))
        shapes = []

        def sorted_ranks(values):
            shapes.append(values.shape)
            return real_ranks(values)

        real_ranks = kernels.sorted_ranks
        monkeypatch.setattr(kernels, "sorted_ranks", sorted_ranks)
        swept = []
        for benches in ([bench], [bench, some]):
            shapes.clear()
            reports = sweep(textual, visual, benches, self.GRID)
            swept.append((benches, reports))
            # every pair is covered, so a block's row holds every benchmark's pairs
            joined = sum(len(b) for b in benches)
            per_block = search.RANK_BLOCK_VALUES // joined
            blocks = [shape for shape in shapes if len(shape) == 2]
            assert max(rows for rows, _ in blocks) * joined <= search.RANK_BLOCK_VALUES
            # per layer-a group, one block per chunk of ``per_block`` configurations
            # that holds a built score vector, each ranked on every benchmark's
            # span; some group needs more than one
            entries = reports[0].entries
            assert rank_blocks(entries, per_block) > rank_blocks(entries, len(entries))
            assert len(blocks) == len(benches) * rank_blocks(entries, per_block)
            # the gold scores of each benchmark are ranked once, as one vector
            assert [shape for shape in shapes if len(shape) != 2] == [(len(b),) for b in benches]
        monkeypatch.undo()
        for benches, reports in swept:
            for b, report in zip(benches, reports):
                assert_matches_oracle(report, exhaustive_oracle(textual, visual, b, self.GRID))
                if overflow:
                    assert report.counts()[STATUS_FAILED] > 0

    @staticmethod
    def past_n_minus_one():
        """Six words, two 8-d tables: every fit past 5 = n - 1 dims fails.

        Dims 1, 3, 5 and 7: layer-a PCA to 7 fails, and in the raw group
        each CCA or R-CCA table at fusion dim 7 fails, between configurations
        at dims 1 to 5 that are scored. 'part' covers half of its pairs.
        """
        rng = np.random.default_rng(4)
        vocab = tuple(f"w{i}" for i in range(6))
        textual = EmbeddingTable(vocab, rng.normal(size=(6, 8)), name="textual")
        visual = EmbeddingTable(vocab, rng.normal(size=(6, 8)), name="visual")
        benches = [
            Benchmark("all", tuple((vocab[i], vocab[j], float(rng.uniform(0, 10)))
                                   for i in range(6) for j in range(i + 1, 6))),
            Benchmark("part", tuple((vocab[i], w, float(i % 3)) for i in range(6)
                                    for w in (vocab[(i + 2) % 6], f"zz{i}"))),
        ]
        return textual, visual, benches

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_any_block_size_sweeps_as_the_exhaustive_oracle(self, monkeypatch, rows):
        """Chunks of one configuration, of seven (mid-group, some all failed) or whole groups."""
        import mmfuse._kernels as kernels

        textual, visual, benches = self.past_n_minus_one()
        joined = len(covered_pairs(benches, textual).idx1)
        assert joined == 21
        if rows is not None:
            monkeypatch.setattr(search, "RANK_BLOCK_VALUES", 1 if rows == 1 else rows * joined)
        bound = max(1, search.RANK_BLOCK_VALUES // joined)
        shapes = []

        def sorted_ranks(values):
            shapes.append(values.shape)
            return real_ranks(values)

        real_ranks = kernels.sorted_ranks
        monkeypatch.setattr(kernels, "sorted_ranks", sorted_ranks)
        reports = sweep(textual, visual, benches, self.GRID)
        monkeypatch.undo()
        blocks = [shape for shape in shapes if len(shape) == 2]
        assert max(rows for rows, _ in blocks) <= bound
        # both benchmarks' spans hold two pairs or more
        assert len(blocks) == len(benches) * rank_blocks(reports[0].entries, bound)
        raw = [e.status for e in sorted(reports[0].entries, key=lambda e: e.order_index)
               if e.config.pca_dim is None]
        # the raw group scores configurations after failed ones
        assert STATUS_OK in raw[raw.index(STATUS_FAILED):]
        for report, bench in zip(reports, benches):
            assert_matches_oracle(report, exhaustive_oracle(textual, visual, bench, self.GRID))


class TestMultiBenchmarkSweep:
    @staticmethod
    def benches(textual, bench):
        """``bench`` plus benchmarks of full, partial and zero coverage."""
        vocab = textual.vocab
        full = Benchmark("full", tuple((vocab[i], vocab[j], float((i * 7 + j) % 5))
                                       for i in range(len(vocab))
                                       for j in range(i + 1, len(vocab), 2)))
        partial = Benchmark("partial", tuple(
            (vocab[i], vocab[-1 - i] if i % 2 else f"oov{i}", float(i % 3))
            for i in range(len(vocab))))
        zero = Benchmark("zero", (("xx", "yy", 1.0), ("yy", "zz", 2.0)))
        return [bench, full, partial, zero]

    @pytest.mark.parametrize("fixture", ["planted", "ragged"])
    def test_each_report_matches_its_exhaustive_oracle(self, request, fixture):
        textual, visual, bench, *grid = request.getfixturevalue(fixture)
        grid = grid[0] if grid else TOY_GRID
        benches = self.benches(textual, bench)
        oracles = [exhaustive_oracle(textual, visual, b, grid) for b in benches]
        coverage = {r.benchmark_name: {e.result.coverage for e in r.entries if e.result}
                    for r in sweep(textual, visual, benches, grid)}
        assert coverage["full"] == {1.0} and coverage["zero"] == {0.0}
        assert 0.0 < min(coverage["partial"]) == max(coverage["partial"]) < 1.0
        for workers in (1, 3):
            reports = sweep(textual, visual, benches, grid, workers=workers)
            assert [r.benchmark_name for r in reports] == [b.name for b in benches]
            for report, oracle in zip(reports, oracles):
                assert_matches_oracle(report, oracle)

    def test_degenerate_pairs_warn_per_table_and_benchmark(self):
        """One score vector per table serves every benchmark; its warnings stay per benchmark.

        Each names its table and benchmark, so Python's default filter,
        which shows a text once, shows every one of them.
        """
        import warnings

        rng = np.random.default_rng(9)
        vocab = tuple(f"w{i:02d}" for i in range(10))
        textual, visual = rng.normal(size=(10, 3)), rng.normal(size=(10, 2))
        textual[3] = 0.0
        visual[[3, 6]] = 0.0
        textual = EmbeddingTable(vocab, textual, name="textual")
        visual = EmbeddingTable(vocab, visual, name="visual")
        benches = [
            Benchmark("one", tuple((vocab[i], vocab[j], float((i + 2 * j) % 5))
                                   for i in range(10) for j in range(i + 1, 10, 3))),
            Benchmark("two", tuple((vocab[i], vocab[(i + 3) % 10], float(i % 3))
                                   for i in range(10))),
            Benchmark("uncovered", (("w03", "zz", 1.0),)),
        ]
        grid = GridSpec(dim_step=1, dim_min=1, alpha_step=0.5, ridge=1e-3)
        # raw textual, raw visual, then their concatenation (pairs whose
        # both blocks are zero), each on "one" then "two"; PCA'd and
        # projected tables have no zero row
        counts = [3, 2, 6, 3, 3, 2]
        tables = ["textual"] * 2 + ["visual"] * 2 + ["concat[textual;visual]"] * 2
        expected = [f"{n} degenerate zero-norm pair scores set to 0 in {table!r} on {bench!r}"
                    for n, table, bench in zip(counts, tables, ["one", "two"] * 3)]
        for action in ("always", "default"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                sweep(textual, visual, benches, grid)
            assert [str(w.message) for w in caught] == expected, action
            assert {w.category for w in caught} == {RuntimeWarning}
        # evaluating one configuration names its tables as the sweep does
        concat = apply_configuration(Configuration(layer_c="concat"), textual, visual)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(concat, benches[1])
        assert [str(w.message) for w in caught] == expected[-1:]

    def test_no_benchmark_gives_no_report(self, planted):
        textual, visual, _ = planted
        for workers in (1, 3):
            assert sweep(textual, visual, [], TOY_GRID, workers=workers) == ()

    def test_every_table_of_a_search_has_a_name_of_its_own(self):
        from mmfuse.composition import concat_label, input_label, layer_inputs

        names = {"textual": "textual", "visual": "visual"}
        configs = enumerate_configurations(6, 6, GridSpec(dim_step=1, dim_min=1, alpha_step=0.5))
        inputs = {c: [(c.pca_dim, c.fusion_dim if origin else None, origin, side)
                      for origin, side in layer_inputs(c)] for c in configs}
        tables = {table for c in configs for table in inputs[c]}
        assert len({input_label(names, *table) for table in tables}) == len(tables)
        concats = [c for c in configs if c.layer_c == "concat"]
        labels = {concat_label([input_label(names, *t) for t in inputs[c]]) for c in concats}
        assert len(labels) == len(concats)

    def test_progress_counts_every_benchmark_at_once(self, planted):
        """One call per layer-a group for all benchmarks together, whatever the workers."""
        textual, visual, bench = planted
        benches = self.benches(textual, bench)[:3]
        reports, calls = progress_calls(textual, visual, benches, TOY_GRID, workers=1)
        assert calls[-1] == (len(reports[0].entries),) * 2
        assert calls == group_progress(textual, visual, TOY_GRID)
        assert progress_calls(textual, visual, benches, TOY_GRID, workers=3)[1] == calls


class TestCrossEvaluate:
    def test_self_benchmark_reproduces_search_best(self, planted):
        textual, visual, bench = planted
        report, = sweep(textual, visual, [bench], TOY_GRID)
        config, best = select_best(report)
        assert evaluate(apply_configuration(config, textual, visual), bench).rho == best.rho

    def test_independent_coverage_per_benchmark(self, planted):
        textual, visual, bench = planted
        vocab = textual.vocab
        half = Benchmark("half", tuple(
            p for p in bench.pairs if p[0] <= "w14" and p[1] <= "w14"
        ))
        config = Configuration(layer_c="li", alpha=0.5, ridge=1e-3)
        model = apply_configuration(config, textual, visual)
        rows = {b.name: evaluate(model, b) for b in (bench, half)}
        assert rows["planted"].n_total == len(bench.pairs)
        assert rows["half"].n_total == len(half.pairs)
        assert rows["half"].n_evaluated == len(half.pairs)

    def test_disjoint_vocabulary_benchmark_reports_zero_coverage(self, planted):
        textual, visual, bench = planted
        stranger = Benchmark("stranger", (("xx", "yy", 1.0), ("yy", "zz", 2.0)))
        model = apply_configuration(Configuration(output_side="textual", ridge=1e-3),
                                    textual, visual)
        result = evaluate(model, stranger)
        assert result.coverage == 0.0
        assert result.rho is None


class TestRendering:
    def test_machine_report_is_parseable_and_ranked(self, planted):
        textual, visual, bench = planted
        grid = GridSpec(dim_step=4, dim_min=4, alpha_step=0.5, ridge=1e-3)
        report, = sweep(textual, visual, [bench], grid)
        (_, machine), = render_reports([report])
        lines = machine.splitlines()
        header = lines[0].split("\t")
        assert header == ["rank", "status", "rho", "n_evaluated", "n_total",
                          "coverage", "output_dim", "config"]
        from mmfuse import parse_configuration
        ranks = []
        for line in lines[1:]:
            fields = line.split("\t")
            ranks.append(int(fields[0]))
            assert fields[1] in ("ok", "undefined", "failed")
            parse_configuration(fields[7])  # flat form round-trips
        assert ranks == list(range(1, len(lines)))

    def test_each_configuration_text_is_built_once_per_search(self, monkeypatch):
        textual, visual, benches = twelve_words(overflow=True)
        reports = sweep(textual, visual, benches, TestSharedFits.GRID)
        n_configs = len(reports[0].entries)
        calls = Counter()

        def counting(name, render):
            def counted(config, *args, **kwargs):
                calls[name] += 1
                return render(config, *args, **kwargs)
            return counted

        for name in ("describe_configuration", "format_configuration"):
            monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
        rendered = render_reports(reports)
        assert len(reports) == 3
        assert calls == {"describe_configuration": n_configs, "format_configuration": n_configs}
        # each report rendered alone gives the same text
        assert rendered == [text for r in reports for text in render_reports([r])]

    def test_human_table_shows_two_decimal_rho(self, planted):
        textual, visual, bench = planted
        grid = GridSpec(dim_step=4, dim_min=4, alpha_step=0.5, ridge=1e-3)
        report, = sweep(textual, visual, [bench], grid)
        (table, _), = render_reports([report])
        assert "1.00" in table
        assert "benchmark: planted" in table
