"""Per-layer metrics from the spans one traced command wrote.

A span's self time is its duration minus the durations of its direct
children. Times are in seconds, counts are exact and repeat between runs
of the same inputs, and every ratio is given with its base in README.md.
"""

from collections import defaultdict

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# unit of every per-layer metric, in reporting order
UNITS = {
    "numerics.cca_transform_s": "s",
    "numerics.cca_transform_calls": "count",
    "numerics.projected_rows_useful_ratio": "ratio",
    "numerics.pca_transform_s": "s",
    "numerics.rcca_residual_self_s": "s",
    "numerics.pca_fit_s": "s",
    "numerics.pca_fit_calls": "count",
    "numerics.cca_fit_s": "s",
    "numerics.cca_fit_calls": "count",
    "numerics.fit_useful_ratio": "ratio",
    "kernels.pair_cosine_s": "s",
    "kernels.pair_cosine_calls": "count",
    "kernels.pair_cosine_gb_computed": "GB",
    "kernels.score_vectors_useful_ratio": "ratio",
    "kernels.average_ranks_s": "s",
    "kernels.average_ranks_calls": "count",
    "evaluation.evaluate_calls": "count",
    "evaluation.evaluate_self_s": "s",
    "evaluation.filter_coverage_s": "s",
    "evaluation.pairs_filtered": "count",
    "evaluation.spearman_self_s": "s",
    "evaluation.gold_rankings": "count",
    "evaluation.load_benchmark_s": "s",
    "embeddings.load_s": "s",
    "embeddings.load_mb_per_s": "MB/s",
    "embeddings.align_s": "s",
    "embeddings.rows_dropped": "count",
    "embeddings.save_s": "s",
    "embeddings.save_mb_per_s": "MB/s",
    "embeddings.table_builds": "count",
    "embeddings.table_build_s": "s",
    "composition.apply_calls": "count",
    "composition.apply_self_s": "s",
    "composition.enumerate_s": "s",
    "search.grid_search_self_s": "s",
    "search.config_ms_p50": "ms",
    "search.config_ms_tail": "ms",
    "search.render_s": "s",
    "search.report_bytes": "B",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "bench.layer_coverage": "ratio",
    "bench.trace_overhead": "ratio",
}

# metrics that must repeat exactly between traced runs of the same inputs
EXACT = {name for name, unit in UNITS.items() if unit in ("count", "ratio", "GB", "B")} - {
    "bench.layer_coverage", "bench.trace_overhead",
}


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it, or None."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return None


class _Spans:
    def __init__(self, spans):
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.by_name = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[0]].append((span, child[i]))

    def calls(self, name):
        return len(self.by_name[name])

    def total(self, name):
        return sum(s[2] - s[1] for s, _ in self.by_name[name]) / 1e9

    def self_time(self, name):
        return sum(s[2] - s[1] - c for s, c in self.by_name[name]) / 1e9

    def attrs(self, name):
        return [s[4] or {} for s, _ in self.by_name[name]]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans):
    """Every metric in ``UNITS`` except ``bench.trace_overhead``."""
    s = _Spans(spans)
    projections = s.attrs("numerics.cca_transform") + s.attrs("numerics.pca_transform")
    fit_keys = [a["key"] for a in s.attrs("numerics.pca_fit") + s.attrs("numerics.cca_fit")]
    cosines = s.attrs("kernels.pair_cosine")
    configs_ms = [ns / 1e6 for a in s.attrs("search.grid_search") for ns in a["config_ns"]]
    tail = tail_percentile(len(configs_ms))
    load_s, save_s = s.total("embeddings.load"), s.total("embeddings.save")
    main_s = s.total("cli.main")
    return {
        "numerics.cca_transform_s": s.total("numerics.cca_transform"),
        "numerics.cca_transform_calls": s.calls("numerics.cca_transform"),
        "numerics.projected_rows_useful_ratio": _ratio(
            sum(a["useful"] for a in projections), sum(a["rows"] for a in projections)
        ),
        "numerics.pca_transform_s": s.total("numerics.pca_transform"),
        "numerics.rcca_residual_self_s": s.self_time("numerics.rcca_residual"),
        "numerics.pca_fit_s": s.total("numerics.pca_fit"),
        "numerics.pca_fit_calls": s.calls("numerics.pca_fit"),
        "numerics.cca_fit_s": s.total("numerics.cca_fit"),
        "numerics.cca_fit_calls": s.calls("numerics.cca_fit"),
        "numerics.fit_useful_ratio": _ratio(len(set(fit_keys)), len(fit_keys)),
        "kernels.pair_cosine_s": s.total("kernels.pair_cosine"),
        "kernels.pair_cosine_calls": len(cosines),
        "kernels.pair_cosine_gb_computed": sum(a["bytes"] for a in cosines) / 1e9,
        "kernels.score_vectors_useful_ratio": _ratio(
            len({a["digest"] for a in cosines}), len(cosines)
        ),
        "kernels.average_ranks_s": s.total("kernels.average_ranks"),
        "kernels.average_ranks_calls": s.calls("kernels.average_ranks"),
        "evaluation.evaluate_calls": s.calls("evaluation.evaluate"),
        "evaluation.evaluate_self_s": s.self_time("evaluation.evaluate"),
        "evaluation.filter_coverage_s": s.total("evaluation.filter_coverage"),
        "evaluation.pairs_filtered": sum(a["pairs"] for a in s.attrs("evaluation.filter_coverage")),
        "evaluation.spearman_self_s": s.self_time("evaluation.spearman"),
        "evaluation.gold_rankings": sum(a["gold"] for a in s.attrs("kernels.average_ranks")),
        "evaluation.load_benchmark_s": s.total("evaluation.load_benchmark"),
        "embeddings.load_s": load_s,
        "embeddings.load_mb_per_s": _ratio(
            sum(a["bytes"] for a in s.attrs("embeddings.load")) / 1e6, load_s
        ),
        "embeddings.align_s": s.total("embeddings.align"),
        "embeddings.rows_dropped": sum(a["dropped"] for a in s.attrs("embeddings.align")),
        "embeddings.save_s": save_s,
        "embeddings.save_mb_per_s": _ratio(
            sum(a["bytes"] for a in s.attrs("embeddings.save")) / 1e6, save_s
        ),
        "embeddings.table_builds": s.calls("embeddings.table_build"),
        "embeddings.table_build_s": s.total("embeddings.table_build"),
        "composition.apply_calls": s.calls("composition.apply"),
        "composition.apply_self_s": s.self_time("composition.apply"),
        "composition.enumerate_s": s.total("composition.enumerate"),
        "search.grid_search_self_s": s.self_time("search.grid_search"),
        "search.config_ms_p50": float(np.percentile(configs_ms, 50)) if configs_ms else 0.0,
        "search.config_ms_tail": float(np.percentile(configs_ms, tail)) if tail else 0.0,
        "search.render_s": s.total("search.render"),
        "search.report_bytes": sum(a["bytes"] for a in s.attrs("search.render")),
        "cli.main_s": main_s,
        "cli.self_s": s.self_time("cli.main"),
        # share of cli.main_s spent in wrapped layers rather than in the
        # CLI's own body or in the tracer's bookkeeping
        "bench.layer_coverage": _ratio(
            main_s - s.self_time("cli.main") - s.total("bench.trace"), main_s
        ),
    }
