"""Exhaustive configuration sweeps and cross-benchmark evaluation.

Entries are ranked by rho descending, then output dimensionality
ascending (the lowest-dimension winner is preferred among ties), then
canonical configuration order, giving a total deterministic order that is
independent of evaluation scheduling. Configurations that fail
numerically are kept in the report, marked and ranked last, so a sweep is
auditable end to end.

A sweep runs each layer-a dim's configurations through the layer
functions of ``composition`` and the scoring pieces of ``evaluation``,
computing layer a, each CCA fit, and each (fusion dim, origin, side)
table and score vector once. A failure is stored where it happened and
given, with its text, to every configuration built on it. Groups share no
state, so ``workers`` sweeps them in threads without locks.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby

from .composition import (
    apply_configuration,
    concatenate,
    describe_configuration,
    enumerate_configurations,
    fit_fusion,
    format_configuration,
    layer_a,
    layer_inputs,
    output_dimension,
    project,
    residual,
)
from .errors import (
    AlignmentError,
    DimensionError,
    GridError,
    MissingReductionError,
    NoResultError,
    NumericalError,
)
from .evaluation import covered_pairs, evaluate, interpolate, rank_result, table_scores
from .numerics import DEFAULT_RIDGE

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"
STATUS_FAILED = "failed"

_STATUS_RANK = {STATUS_OK: 0, STATUS_UNDEFINED: 1, STATUS_FAILED: 2}


@dataclass(frozen=True)
class GridSpec:
    """Search-space parameters.

    Dimensions run from ``dim_min`` in steps of ``dim_step`` up to the
    smallest relevant input dimensionality; alphas run over
    ``{0, alpha_step, ..., 1}``. ``motif_filter`` restricts the sweep to
    configurations built only from the named motifs (subset of
    ``{"pca", "cca", "rcca", "concat", "li"}``), which is how the
    single-motif baseline sweeps are expressed.
    """

    dim_step: int = 50
    dim_min: int = 50
    alpha_step: float = 0.1
    ridge: float = DEFAULT_RIDGE
    motif_filter: frozenset = None

    def __post_init__(self):
        if self.dim_step < 1:
            raise GridError(f"dim_step must be >= 1, got {self.dim_step}")
        if self.dim_min < 1:
            raise GridError(f"dim_min must be >= 1, got {self.dim_min}")
        if not 0.0 < self.alpha_step <= 1.0:
            raise GridError(f"alpha_step must be in (0, 1], got {self.alpha_step}")
        if self.ridge < 0:
            raise GridError(f"ridge must be >= 0, got {self.ridge}")
        if self.motif_filter is not None:
            object.__setattr__(self, "motif_filter", frozenset(self.motif_filter))

    def dims_up_to(self, limit):
        return list(range(self.dim_min, limit + 1, self.dim_step))

    def alphas(self):
        out = []
        i = 0
        while True:
            a = round(i * self.alpha_step, 12)
            if a > 1.0:
                break
            out.append(a)
            i += 1
        return out


@dataclass(frozen=True)
class SearchEntry:
    """One evaluated configuration within a sweep."""

    config: object
    result: object            # EvaluationResult, or None when failed
    status: str
    output_dim: int
    order_index: int          # position in canonical enumeration order
    error: str = None

    @property
    def rho(self):
        return self.result.rho if self.result is not None else None


@dataclass(frozen=True)
class SearchReport:
    """Ranked sweep outcome; ``entries[0]`` is the best entry."""

    benchmark_name: str
    grid: GridSpec
    entries: tuple

    @property
    def best(self):
        return self.entries[0]

    def counts(self):
        by = {STATUS_OK: 0, STATUS_UNDEFINED: 0, STATUS_FAILED: 0}
        for e in self.entries:
            by[e.status] += 1
        return by


def _entry_sort_key(entry):
    rho = entry.rho if entry.status == STATUS_OK else None
    return (
        _STATUS_RANK[entry.status],
        -rho if rho is not None else 0.0,
        entry.output_dim,
        entry.order_index,
    )


_FAILURES = (NumericalError, DimensionError, MissingReductionError)


def _sweep_group(items, textual, visual, bench, covered, normalize_concat):
    """Search entries of ``(order_index, config)`` items sharing one layer-a dim."""
    a_dim = items[0][1].pca_dim
    done = {}   # key -> computed value, or the failure computing it raised

    def once(key, compute):
        if key not in done:
            try:
                done[key] = compute()
            except _FAILURES as exc:
                done[key] = exc
        if isinstance(done[key], Exception):
            raise done[key].with_traceback(None)
        return done[key]

    def result(config):
        reduced = once("layer_a", lambda: layer_a(textual.matrix, visual.matrix, a_dim))
        f_dim = config.fusion_dim

        def matrix(origin, side):
            if not origin:
                return reduced[side]
            model = once(("fit", f_dim), lambda: fit_fusion(reduced, f_dim, config.ridge))
            projected = once((f_dim, "cca", side), lambda: project(model, reduced, side))
            if origin == "cca":
                return projected
            return once((f_dim, origin, side), lambda: residual(reduced, side, projected))

        def scores(origin, side):
            return once(("scores", f_dim, origin, side),
                        lambda: table_scores(matrix(origin, side), covered))

        inputs = layer_inputs(config)
        if config.layer_c == "concat":
            fused = concatenate(*(matrix(*i) for i in inputs), normalize=normalize_concat)
            vector = table_scores(fused, covered)
        elif config.layer_c == "li":
            vector = interpolate(config.alpha, *(scores(*i) for i in inputs))
        else:
            vector = scores(*inputs[0])
        return rank_result(vector, covered, bench)

    entries = []
    for order_index, config in items:
        try:
            res, error = result(config), None
        except _FAILURES as exc:
            res, error = None, str(exc)
        status = STATUS_FAILED if res is None else STATUS_OK if res.defined else STATUS_UNDEFINED
        entries.append(SearchEntry(
            config=config, result=res, status=status,
            output_dim=output_dimension(config, textual.dim, visual.dim),
            order_index=order_index, error=error,
        ))
    return entries


def grid_search(textual, visual, bench, grid, workers=1, progress=None,
                normalize_concat=False):
    """Evaluate every configuration in the grid against one benchmark.

    ``progress``, when given, is called from the calling thread as
    ``progress(done, total)`` once per configuration. ``workers`` layer-a
    groups are swept at once; results do not depend on it.
    """
    if textual.vocab != visual.vocab:
        raise AlignmentError("tables must be vocabulary-aligned before searching")
    configs = enumerate_configurations(textual.dim, visual.dim, grid)
    if not configs:
        raise GridError("grid produced no configurations")
    # canonical order keeps each layer-a dim contiguous
    groups = [list(g) for _, g in groupby(enumerate(configs), key=lambda i: i[1].pca_dim)]
    sweep = partial(_sweep_group, textual=textual, visual=visual, bench=bench,
                    covered=covered_pairs(bench, textual), normalize_concat=normalize_concat)
    entries = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a single worker sweeps in the calling thread
        for group in pool.map(sweep, groups) if workers > 1 else map(sweep, groups):
            for entry in group:
                entries.append(entry)
                if progress is not None:
                    progress(len(entries), len(configs))
    entries.sort(key=_entry_sort_key)
    return SearchReport(benchmark_name=bench.name, grid=grid, entries=tuple(entries))


def select_best(report):
    """Top-ranked successful entry; ties already broken by lowest dim."""
    if report.entries and report.entries[0].status == STATUS_OK:
        best = report.entries[0]
        return best.config, best.result
    raise NoResultError(
        f"sweep on {report.benchmark_name!r} has no successful configuration"
    )


def cross_evaluate(config, textual, visual, benches, normalize_concat=False):
    """Apply one configuration once, evaluate it on several benchmarks."""
    model = apply_configuration(
        config, textual, visual, normalize_concat=normalize_concat
    )
    return [(bench.name, evaluate(model, bench)) for bench in benches]


# --- report rendering -------------------------------------------------------

def _fmt_rho(entry):
    if entry.status == STATUS_OK:
        return f"{entry.rho:.2f}"
    if entry.status == STATUS_UNDEFINED:
        return "n/a"
    return "FAIL"


def render_report_table(report, limit=None):
    """Human-readable ranked table (rho shown to 2 decimals)."""
    counts = report.counts()
    lines = [
        f"benchmark: {report.benchmark_name}",
        f"configurations: {counts[STATUS_OK]} ok, "
        f"{counts[STATUS_UNDEFINED]} undefined, {counts[STATUS_FAILED]} failed "
        f"({len(report.entries)} total)",
        "",
        f"{'rank':>5}  {'rho':>5}  {'dim':>5}  {'pairs':>11}  config",
    ]
    shown = report.entries if limit is None else report.entries[:limit]
    for rank, e in enumerate(shown, start=1):
        pairs = f"{e.result.n_evaluated}/{e.result.n_total}" if e.result else "-"
        desc = describe_configuration(e.config)
        if e.status == STATUS_FAILED:
            desc += f"   [{e.error}]"
        lines.append(
            f"{rank:>5}  {_fmt_rho(e):>5}  {e.output_dim:>5}  {pairs:>11}  {desc}"
        )
    return "\n".join(lines) + "\n"


def render_report_machine(report):
    """Line-per-entry TSV: status, rho, coverage, dims, flat configuration."""
    lines = [
        "rank\tstatus\trho\tn_evaluated\tn_total\tcoverage\toutput_dim\tconfig"
    ]
    for rank, e in enumerate(report.entries, start=1):
        if e.result is not None:
            rho = repr(e.rho) if e.rho is not None else "NA"
            n_eval, n_tot = e.result.n_evaluated, e.result.n_total
            cov = repr(e.result.coverage)
        else:
            rho, n_eval, n_tot, cov = "NA", 0, 0, "NA"
        cfg = format_configuration(e.config, sep=" ")
        lines.append(
            f"{rank}\t{e.status}\t{rho}\t{n_eval}\t{n_tot}\t{cov}\t{e.output_dim}\t{cfg}"
        )
    return "\n".join(lines) + "\n"
