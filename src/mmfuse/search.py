"""Exhaustive configuration sweeps, their ranking and their reports.

Entries are ranked by rho descending, then output dimensionality
ascending (the lowest-dimension winner is preferred among ties), then
canonical configuration order, giving a total deterministic order that is
independent of evaluation scheduling. Configurations that fail
numerically are kept in the report, marked and ranked last, so a sweep is
auditable end to end.

One ``sweep`` serves every benchmark of a search, through the layer
functions of ``composition`` and the scoring pieces of ``evaluation``, so
each decomposition runs once whatever the number of benchmarks or dims:

* layer a: one ``pca_fits`` per side over every layer-a dim; on the raw
  tables these fits are also the raw group's R-CCA reducers;
* per layer-a dim group: its layer-a output and one ``cca_fits`` over
  the group's fusion dims; then one pass over its (fusion dim, origin,
  side) tables, each (fusion dim, side)'s CCA table just before its
  R-CCA table, which reuses its projection. Each table's matrix is
  built, its rows' squared norms and pair sums are taken, and it is
  dropped, so a group holds its layer-a output, one projection and one
  table at a time, and its tables only as pair sums. A PCA'd group's
  R-CCA reducers are the leading coordinates of its layer-a output
  (``composition.leading_coordinates``), so they need no decomposition:
  a signal's reducer at k is its PCA at k, in the sweep and in
  ``apply_configuration`` alike;
* over the covered pairs of every benchmark, end to end
  (``evaluation.joined_pairs``): the cosine kernel once per table, for
  its pair sums (dot products and gathered squared norms), and the score
  vector finished from them at the table's first use in canonical
  order; each configuration's vector is chosen by its ``layer_c``, as
  ``evaluation.model_scores`` chooses a model's: LI built on score
  vectors and a concatenation on the sums of its blocks' sums, by the
  same ``concat_scores`` that ``evaluate`` uses. Each pair's arithmetic
  is that of a pass over its own benchmark, so the scores are bit for
  bit the same, and degenerate pairs are still warned about per table
  and benchmark;
* per layer-a group, in blocks of at most ``RANK_BLOCK_VALUES`` values:
  its score vectors over the joined pairs, stacked, and each benchmark's
  span of the block ranked against gold scores ranked once, through the
  same ``rank_results`` that ``evaluate`` ranks its one vector with. A
  non-finite score fails only the benchmarks whose spans hold it.

A failure is stored where it happened and given, with its text, to every
configuration built on it. Groups share only the read-only layer-a fits,
so ``workers`` sweeps them in threads without locks. The reports of one
search list the same configurations, so ``render_reports`` builds each
configuration's text once for all of them. One configuration is
evaluated on several benchmarks without a sweep: ``apply_configuration``
once, then ``evaluate`` per benchmark.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .composition import (
    MOTIFS,
    concat_label,
    describe_configuration,
    enumerate_configurations,
    fit_fusion,
    format_configuration,
    input_label,
    layer_a,
    layer_a_output,
    layer_inputs,
    output_dimension,
    project,
    residual,
    unit_rows,
)
from .errors import (
    AlignmentError,
    DimensionError,
    GridError,
    MissingReductionError,
    NoResultError,
    NumericalError,
)
from ._kernels import row_sq_norms
from .evaluation import (
    concat_scores,
    covered_pairs,
    interpolate,
    joined_pairs,
    rank_results,
    sum_scores,
    table_sums,
)
from .numerics import DEFAULT_RIDGE, SIDE_TEXTUAL, SIDE_VISUAL, fitted

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"
STATUS_FAILED = "failed"

_STATUS_RANK = {STATUS_OK: 0, STATUS_UNDEFINED: 1, STATUS_FAILED: 2}


@dataclass(frozen=True)
class GridSpec:
    """Search-space parameters.

    Dimensions run from ``dim_min`` in steps of ``dim_step`` up to the
    smallest relevant input dimensionality; alphas run over the multiples
    of ``alpha_step`` from 0 up to 1, which is included only when the step
    divides it (0.3 gives 0, 0.3, 0.6 and 0.9). ``motif_filter`` restricts
    the sweep to configurations built only from the named motifs (subset
    of ``{"pca", "cca", "rcca", "concat", "li"}``; another name raises
    GridError), which is how the single-motif baseline sweeps are
    expressed; an empty one keeps only the two unimodal baselines.
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

# score values ranked in one call: bounds a rank block's memory, whatever a group's size
RANK_BLOCK_VALUES = 2 ** 15


def _caught(compute, *args):
    """``compute(*args)``, or the failure it raised, kept for whatever is built on it."""
    try:
        return compute(*args)
    except _FAILURES as exc:
        return exc


def _sums(matrix, pairs, with_units):
    """A table's pair sums over ``pairs`` and, if ``with_units``, its ``unit_rows`` or their failure."""
    sq_norms = row_sq_norms(matrix)
    units = _caught(unit_rows, sq_norms) if with_units else None
    return table_sums(matrix, sq_norms, pairs), units


def _group_sums(raw, a_fits, a_dim, ridge, tables, pairs, blocks):
    """Per ``(fusion dim, origin, side)`` table of one layer-a group: its pair sums and unit rows.

    First the group's layer-a output (``raw`` itself when ``a_dim`` is
    None) and its one ``fit_fusion`` over the fusion dims of ``tables``.
    Then one table at a time, a ``(fusion dim, side)``'s CCA table just
    before its R-CCA table: its matrix is built, its pair sums over
    ``pairs`` are taken and, for a concatenation block of ``blocks``, its
    ``unit_rows``, and the matrix is dropped. One projection serves both
    tables of its ``(fusion dim, side)`` and is dropped before the next
    is made. Returns ``({table: PairSums}, {table: unit rows})``, each
    value or the failure computing it; a failed layer-a output, fit or
    projection fails every table built on it.
    """
    reduced = raw if a_dim is None else _caught(layer_a_output, raw, a_fits, a_dim)
    f_dims = sorted({f_dim for f_dim, origin, _ in tables if origin})
    fits = _caught(lambda: fit_fusion(fitted(reduced), f_dims, ridge)) if f_dims else {}

    def projection(f_dim, side):
        return project(fitted(fitted(fits)[f_dim]), fitted(reduced), side)

    def matrix(origin, side, projected):
        if not origin:
            return fitted(reduced)[side]
        if origin == "cca":
            return fitted(projected)
        return residual(fitted(reduced), side, fitted(projected), a_fits, a_dim)

    sums, units = {}, {}
    # each (fusion dim, side) in a run, its CCA table before its R-CCA table
    ordered = sorted(tables, key=lambda t: (t[0] or 0, t[2], t[1]))
    for (f_dim, side), same in groupby(ordered, key=lambda t: (t[0], t[2])):
        projected = _caught(projection, f_dim, side) if f_dim else None
        for table in same:
            try:
                sums[table], units[table] = _sums(matrix(table[1], side, projected), pairs,
                                                  table in blocks)
            except _FAILURES as exc:
                sums[table] = exc
        del projected   # before the next (fusion dim, side) is projected
    return sums, units


def _sweep_group(items, raw, names, a_fits, scored, pairs, normalize_concat):
    """Per benchmark, the search entries of ``(order_index, config)`` items sharing one layer-a dim.

    ``pairs`` joins the covered pairs of every benchmark of ``scored``.
    The group's tables are built one at a time and kept only as their
    pair sums (``_group_sums``). Then, in canonical order, each
    configuration's score vector is finished from the sums and queued; a
    table's own score vector is finished at its first use and serves
    every later one. A block of queued vectors, at most
    ``RANK_BLOCK_VALUES`` values (one vector, if it alone is longer), is
    ranked on each benchmark's span of its columns. A failure computing a
    vector fails it on every benchmark. ``names`` names the two sides in
    degenerate-pair warnings.
    """
    a_dim = items[0][1].pca_dim
    # (fusion dim, origin, side) of each configuration's layer-c inputs
    inputs = {i: [(c.fusion_dim, *pair) for pair in layer_inputs(c)] for i, c in items}
    blocks = {t for i, c in items if normalize_concat and c.layer_c == "concat" for t in inputs[i]}
    sums, units = _group_sums(raw, a_fits, a_dim, items[0][1].ridge,
                              {t for tables in inputs.values() for t in tables}, pairs, blocks)

    def label(table):
        return input_label(names, a_dim, *table)

    scores = {}   # table -> its score vector, finished at its first use

    def table_scores(table):
        if table not in scores:
            scores[table] = sum_scores(fitted(sums[table]), pairs.spans, label(table), pairs.names)
        return scores[table]

    def vector(config, tables):
        """The configuration's score vector over every benchmark's pairs."""
        if config.layer_c == "concat":
            block_sums = [fitted(sums[t]) for t in tables]
            block_units = [fitted(units[t]) for t in tables] if normalize_concat else None
            return concat_scores(block_sums, block_units, pairs,
                                 concat_label([label(t) for t in tables]))
        if config.layer_c == "li":
            return interpolate(config.alpha, *(table_scores(t) for t in tables))
        return table_scores(tables[0])

    outcomes = [None] * len(items)   # per configuration, its outcome on each benchmark

    def rank(queued):
        """Rank a block of ``(slot, score vector)``, each benchmark on its span of the pairs."""
        slots, vectors = zip(*queued)
        block = np.stack(vectors)
        ranked = [rank_results(block[:, start:stop], covered, bench)
                  for (bench, covered), (start, stop) in zip(scored, pairs.spans)]
        for slot, *results in zip(slots, *ranked):
            outcomes[slot] = results

    rows = max(1, RANK_BLOCK_VALUES // max(1, len(pairs.idx1)))
    queued = []
    for slot, (order_index, config) in enumerate(items):
        try:
            queued.append((slot, vector(config, inputs[order_index])))
        except _FAILURES as exc:
            outcomes[slot] = [exc] * len(scored)
        if queued and (len(queued) == rows or slot == len(items) - 1):
            rank(queued)
            queued = []
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
    if not configs:
        raise GridError("grid produced no configurations")
    raw = {SIDE_TEXTUAL: textual.matrix, SIDE_VISUAL: visual.matrix}
    a_dims = {c.pca_dim for c in configs if c.pca_dim}
    # the raw group's R-CCA reducers are layer-a fits of the raw tables
    a_dims |= {c.fusion_dim for c in configs if not c.pca_dim and "rcca" in c.layer_b}
    a_fits = layer_a(raw, sorted(a_dims))
    scored = [(bench, covered_pairs(bench, textual)) for bench in benches]
    pairs = joined_pairs([covered for _, covered in scored])
    # canonical order keeps each layer-a dim contiguous
    groups = [list(g) for _, g in groupby(enumerate(configs), key=lambda i: i[1].pca_dim)]
    names = {SIDE_TEXTUAL: textual.name, SIDE_VISUAL: visual.name}
    run = partial(_sweep_group, raw=raw, names=names, a_fits=a_fits, scored=scored, pairs=pairs,
                  normalize_concat=normalize_concat)
    entries = [[] for _ in benches]
    done = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a single worker sweeps in the calling thread
        results = pool.map(run, groups) if workers > 1 else map(run, groups)
        for items, group in zip(groups, results):
            for bench_entries, new in zip(entries, group):
                bench_entries.extend(new)
            done += len(items)
            if progress is not None:
                progress(done, len(configs))
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


def _texts(entries, render):
    """``render(config)`` per order index of ``entries``, once for each configuration.

    The reports of one search hold the same configurations, each under
    the same ``order_index``, so one text serves each of them.
    """
    texts = {}
    for e in entries:
        if e.order_index not in texts:
            texts[e.order_index] = render(e.config)
    return texts


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


def _flat_configuration(config):
    """The one-line ``key=value`` form a machine report lists."""
    return format_configuration(config, sep=" ")


def render_reports(reports):
    """The human table and machine TSV of each report of one search, in order.

    The table shows rho to 2 decimals. The TSV has one line per entry:
    rank, status, rho, pairs evaluated, pairs in all, coverage, output
    dim and flat configuration. Each
    configuration's two texts are built once for every report: the
    reports of one search share each configuration's ``order_index``.
    """
    entries = [e for report in reports for e in report.entries]
    descriptions = _texts(entries, describe_configuration)
    flat = _texts(entries, _flat_configuration)
    return [(_table(report, descriptions), _machine(report, flat)) for report in reports]
