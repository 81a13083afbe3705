"""Exhaustive configuration sweeps, their ranking and their reports.

Entries are ranked by rho descending, then output dimensionality
ascending (the lowest-dimension winner is preferred among ties), then
canonical configuration order, giving a total deterministic order that is
independent of evaluation scheduling. Configurations that fail
numerically are kept in the report, marked and ranked last, so a sweep is
auditable end to end.

One ``sweep`` serves every benchmark of a search, through the table
builder of ``composition`` and the scoring pieces of ``evaluation``, so
each decomposition runs once whatever the number of benchmarks or dims:

* layer a: one ``composition.layer_a`` over the whole grid: per side,
  one ``pca_fit`` and one projection, whose column prefixes are every
  layer-a output and every R-CCA reducer of the grid;
* per layer-a dim group: one ``composition.group_tables``, the builder
  ``apply_configuration`` uses too. It slices the group's layer-a output
  from the shared scores, makes one ``cca_fit`` at the widest dim its
  two inputs allow (whitened by the layer-a variances in a PCA'd group,
  by ``eigh`` in the raw one), then, a side at a time, one projection
  at that width, whose column prefixes are each fusion dim's CCA table
  and the projection its R-CCA table subtracts. Each table's rows'
  squared norms and pair sums are taken and its matrix is dropped, so a
  group holds one projection and one table at a time, and its tables
  only as pair sums, which are all that any layer-c motif reads;
* over the covered pairs of every benchmark, end to end (one
  ``evaluation.covered_pairs``): the cosine kernel once per table, for
  its pair sums (dot products and gathered squared norms), and the score
  vector finished from them at the table's first use in canonical
  order; each configuration's vector is chosen by the
  ``evaluation.layer_c_scores`` that ``evaluate`` scores a model with:
  LI built on score vectors and a concatenation, normalized or not, on
  the sums of its blocks' sums. Each pair's arithmetic
  is that of a pass over its own benchmark, so the scores are bit for
  bit the same, and degenerate pairs are still warned about per table
  and benchmark;
* per layer-a group, in chunks of its configurations in canonical
  order, as many as fit ``RANK_BLOCK_VALUES`` values over the joined
  pairs (at least one): the chunk's score vectors, stacked into one
  block, and each benchmark's span of the block ranked against gold
  scores ranked once, through the same ``rank_results`` that
  ``evaluate`` ranks its one vector with. A non-finite score fails only
  the benchmarks whose spans hold it.

A failure is stored where it happened and given, with its text, to every
configuration built on it. Groups share only the read-only layer-a fits
and scores, so ``workers`` sweeps them in threads without locks. The
reports of one search list the same configurations, so
``render_reports`` describes each configuration once for all of them.
One configuration is evaluated on several benchmarks without a sweep:
``apply_configuration`` once, then ``evaluate`` per benchmark.
"""

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .composition import (
    MOTIFS,
    describe_configuration,
    enumerate_configurations,
    format_configuration,
    group_tables,
    input_label,
    layer_a,
    layer_inputs,
    output_dimension,
)
from .errors import AlignmentError, GridError, NoResultError
from ._kernels import row_sq_norms
from .evaluation import covered_pairs, layer_c_scores, rank_results, table_sums
from .numerics import DEFAULT_RIDGE, SIDE_TEXTUAL, SIDE_VISUAL, caught

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"
STATUS_FAILED = "failed"

_STATUS_RANK = {STATUS_OK: 0, STATUS_UNDEFINED: 1, STATUS_FAILED: 2}

ALPHA_DECIMALS = 12   # alphas are rounded to this many decimals


@dataclass(frozen=True)
class GridSpec:
    """Search-space parameters.

    Dimensions run from ``dim_min`` in steps of ``dim_step`` up to the
    smallest relevant input dimensionality; alphas run over the multiples
    of ``alpha_step`` from 0 up to 1, which is included only when the step
    divides it (0.3 gives 0, 0.3, 0.6 and 0.9); a step below 1e-12, to
    which alphas are rounded, is refused. ``motif_filter`` restricts
    the sweep to configurations built only from the named motifs (subset
    of ``{"pca", "cca", "rcca", "concat", "li"}``; another name raises
    GridError), which is how the single-motif baseline sweeps are
    expressed; an empty one keeps only the two unimodal baselines.
    ``dim_step`` and ``dim_min`` are integers (numpy's too), at least 1.
    """

    dim_step: int = 50
    dim_min: int = 50
    alpha_step: float = 0.1
    ridge: float = DEFAULT_RIDGE
    motif_filter: frozenset = None

    def __post_init__(self):
        for name in ("dim_step", "dim_min"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise GridError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise GridError(f"{name} must be >= 1, got {value}")
        if not 0.0 < self.alpha_step <= 1.0:
            raise GridError(f"alpha_step must be in (0, 1], got {self.alpha_step}")
        if self.alpha_step < 10.0 ** -ALPHA_DECIMALS:   # every alpha would round to 0
            raise GridError(f"alpha_step must be at least 1e-{ALPHA_DECIMALS}, the resolution "
                            f"alphas are rounded to, got {self.alpha_step}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise GridError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.motif_filter is not None:
            motifs = frozenset(self.motif_filter)
            unknown = motifs - set(MOTIFS)
            if unknown:
                raise GridError(f"unknown motifs in motif_filter: {sorted(unknown)}")
            object.__setattr__(self, "motif_filter", motifs)

    def dims_up_to(self, limit):
        return list(range(self.dim_min, limit + 1, self.dim_step))

    def alphas(self):
        out = []
        i = 0
        while True:
            a = round(i * self.alpha_step, ALPHA_DECIMALS)
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


# score values ranked in one call: bounds a rank block's memory, whatever a group's size
RANK_BLOCK_VALUES = 2 ** 15


def _sweep_group(items, raw, names, a_fits, benches, pairs, normalize_concat):
    """Per benchmark, the search entries of ``(order_index, config)`` items sharing one layer-a dim.

    ``pairs`` holds the covered pairs of every benchmark of ``benches``,
    one span each. The group's tables are built one at a time by
    ``composition.group_tables`` and kept only as their pair sums: each
    matrix is deleted once they are taken, so the group holds one
    projection and one table at a time, beside the layer-a scores
    ``a_fits`` that every group shares. Then the configurations are
    taken in canonical order, in chunks of as many as fit
    ``RANK_BLOCK_VALUES`` values (at least one). Each configuration's
    score vector is finished from the sums by
    ``evaluation.layer_c_scores``, a concatenation's normalized under
    ``normalize_concat``; a table's own score vector is finished at its
    first use and serves every later one. A failure computing a vector
    fails its configuration on every benchmark; the chunk's other
    vectors are stacked into one block, ranked on each benchmark's span
    of its columns, and released before the next chunk is scored.
    ``names`` names the two sides in degenerate-pair warnings.
    """
    a_dim = items[0][1].pca_dim
    # per configuration, the (fusion dim, origin, side) of its layer-c inputs
    inputs = [[(c.fusion_dim, *pair) for pair in layer_inputs(c)] for _, c in items]
    sums = {}   # per table, its pair sums, or the failure building it
    for table, matrix in group_tables(raw, a_fits, a_dim, {t for ts in inputs for t in ts},
                                      items[0][1].ridge):
        sums[table] = matrix if isinstance(matrix, Exception) else table_sums(
            matrix, row_sq_norms(matrix), pairs)
        del matrix   # before the next table is built

    def label(table):
        return input_label(names, a_dim, *table)

    scores = {}   # table -> its score vector, finished at its first use
    outcomes = []   # per configuration, its outcome on each benchmark
    rows = max(1, RANK_BLOCK_VALUES // max(1, len(pairs.idx1)))
    for start in range(0, len(items), rows):
        chunk = slice(start, start + rows)
        vectors = [caught(layer_c_scores, config.layer_c, config.alpha, tables, sums,
                          normalize_concat, scores, pairs, label)
                   for (_, config), tables in zip(items[chunk], inputs[chunk])]
        scored = [v for v in vectors if not isinstance(v, Exception)]
        block = np.stack(scored) if scored else None
        # per benchmark, the rank results of the chunk's scored rows, in order
        ranked = [iter(rank_results(block, span, bench))
                  for bench, span in zip(benches, pairs.spans) if scored]
        outcomes += [[v] * len(benches) if isinstance(v, Exception) else [next(r) for r in ranked]
                     for v in vectors]
        del vectors, scored, block   # before the next chunk is scored
    dims = [m.shape[1] for m in raw.values()]
    out_dims = [output_dimension(config, *dims) for _, config in items]
    return [[_entry(config, order_index, out_dim, outcome)
             for (order_index, config), out_dim, outcome in zip(items, out_dims, bench_outcomes)]
            for bench_outcomes in zip(*outcomes)]


def _entry(config, order_index, output_dim, outcome):
    """The entry of ``config`` on one benchmark, from its rank result or its failure."""
    if isinstance(outcome, Exception):
        return SearchEntry(config=config, result=None, status=STATUS_FAILED, output_dim=output_dim,
                           order_index=order_index, error=str(outcome))
    status = STATUS_OK if outcome.defined else STATUS_UNDEFINED
    return SearchEntry(config=config, result=outcome, status=status, output_dim=output_dim,
                       order_index=order_index)


def sweep(textual, visual, benches, grid, workers=1, progress=None,
          normalize_concat=False):
    """Evaluate every configuration in the grid against each benchmark.

    Returns one :class:`SearchReport` per benchmark, in order. Every fit,
    table and score vector is computed once for all benchmarks. ``progress``,
    when given, is called from the calling thread as ``progress(done, total)``
    once per finished layer-a group, in group order: ``done`` configurations
    of ``total`` have been swept, on every benchmark. ``workers`` layer-a
    groups are swept at once; neither the results nor the progress calls
    depend on it.
    """
    if textual.vocab != visual.vocab:
        raise AlignmentError("tables must be vocabulary-aligned before searching")
    configs = enumerate_configurations(textual.dim, visual.dim, grid)
    raw = {SIDE_TEXTUAL: textual.matrix, SIDE_VISUAL: visual.matrix}
    a_fits = layer_a(raw, configs)
    pairs = covered_pairs(benches, textual)
    # canonical order keeps each layer-a dim contiguous
    groups = [list(g) for _, g in groupby(enumerate(configs), key=lambda i: i[1].pca_dim)]
    names = {SIDE_TEXTUAL: textual.name, SIDE_VISUAL: visual.name}
    run = partial(_sweep_group, raw=raw, names=names, a_fits=a_fits, benches=benches, pairs=pairs,
                  normalize_concat=normalize_concat)
    entries = [[] for _ in benches]

    def gather(results):
        done = 0
        for items, group in zip(groups, results):
            for bench_entries, new in zip(entries, group):
                bench_entries.extend(new)
            done += len(items)
            if progress is not None:
                progress(done, len(configs))

    if workers > 1:
        # imported here, so a one-worker sweep never loads the thread pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            gather(pool.map(run, groups))
    else:
        gather(map(run, groups))
    return tuple(
        SearchReport(benchmark_name=bench.name, grid=grid,
                     entries=tuple(sorted(bench_entries, key=_entry_sort_key)))
        for bench, bench_entries in zip(benches, entries)
    )


def select_best(report):
    """Top-ranked successful entry; ties already broken by lowest dim."""
    if report.entries and report.entries[0].status == STATUS_OK:
        best = report.entries[0]
        return best.config, best.result
    raise NoResultError(
        f"sweep on {report.benchmark_name!r} has no successful configuration"
    )


# --- report rendering -------------------------------------------------------

def _fmt_rho(entry):
    if entry.status == STATUS_OK:
        return f"{entry.rho:.2f}"
    if entry.status == STATUS_UNDEFINED:
        return "n/a"
    return "FAIL"


def _table(report, descriptions):
    """The human table of ``report``, its configurations described by order index."""
    counts = report.counts()
    lines = [
        f"benchmark: {report.benchmark_name}",
        f"configurations: {counts[STATUS_OK]} ok, "
        f"{counts[STATUS_UNDEFINED]} undefined, {counts[STATUS_FAILED]} failed "
        f"({len(report.entries)} total)",
        "",
        f"{'rank':>5}  {'rho':>5}  {'dim':>5}  {'pairs':>11}  config",
    ]
    for rank, e in enumerate(report.entries, start=1):
        pairs = f"{e.result.n_evaluated}/{e.result.n_total}" if e.result else "-"
        desc = descriptions[e.order_index]
        if e.status == STATUS_FAILED:
            desc += f"   [{e.error}]"
        lines.append(
            f"{rank:>5}  {_fmt_rho(e):>5}  {e.output_dim:>5}  {pairs:>11}  {desc}"
        )
    return "\n".join(lines) + "\n"


def _machine(report, flat):
    """The machine TSV of ``report``, its flat configurations by order index."""
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
        lines.append(
            f"{rank}\t{e.status}\t{rho}\t{n_eval}\t{n_tot}\t{cov}\t{e.output_dim}"
            f"\t{flat[e.order_index]}"
        )
    return "\n".join(lines) + "\n"


def render_reports(reports):
    """The human table and machine TSV of each report of one search, in order.

    The table shows rho to 2 decimals. The TSV has one line per entry:
    rank, status, rho, pairs evaluated, pairs in all, coverage, output
    dim and flat configuration. Each configuration is described and
    flattened once for every report: the reports of one search share
    each configuration's ``order_index``.
    """
    configs = {e.order_index: e.config for report in reports for e in report.entries}
    descriptions = {i: describe_configuration(c) for i, c in configs.items()}
    flat = {i: format_configuration(c, sep=" ") for i, c in configs.items()}
    return [(_table(report, descriptions), _machine(report, flat)) for report in reports]
