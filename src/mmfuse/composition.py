"""Layered fusion configurations and their application to table pairs.

A configuration picks at most one motif per layer:

* layer a (data): nothing, or PCA of both modalities to one shared dim;
* layer b (fusion): nothing, CCA, residual CCA, or the sanctioned mixed
  pair (one CCA projection plus one residual) that must feed layer c;
* layer c (combination): nothing, vector concatenation, or linear
  interpolation of the two models' pair scores with weight ``alpha`` on
  the first model.

Fusion motifs require their two inputs to share a dimensionality, and the
two inputs of layer c always come from the same layer-b method except for
the explicit CCA-plus-residual mix. A configuration with no motifs at all
must name the modality it scores with (``output_side``), so unimodal
baselines are first-class. ``validate_configuration`` is the one statement
of these rules: the grid a sweep runs is the valid configurations of the
per-layer choices, in ``canonical_key`` order.

``apply_configuration`` and the sweep both build their tables through
``group_tables``, one layer-a dim at a time, so every PCA/CCA fit and
projection in the package happens here. Every PCA they use is a column
prefix of one principal-score matrix per side (``layer_a``, ``leading``):
a layer-a output, and the reducer by which R-CCA cuts a wider signal to
its projection's width. Likewise each layer-a dim has one CCA, fit at
the widest dim its two inputs allow (``fit_fusion``), and each side one
projection at that width: every fusion dim's CCA table, and the
projection its R-CCA table subtracts, is a column prefix of it. Both
widths are set by the inputs, not the grid, so a configuration applied
alone builds bit for bit the tables its sweep entry scored. A layer-a
output's CCA needs no decomposition to whiten: its columns are
uncorrelated principal scores, whitened by the layer-a fit's variances.
A ``ScoringModel`` names its layer-c motif beside its one or two tables,
as a ``Configuration`` does: a concatenation keeps its two blocks, so it
is scored from their sums, by ``evaluate`` and the sweep alike, and
``concat_table`` stacks them only where ``apply`` writes them.
``_kernels.unit_rows`` is the one ``normalize_concat`` rule that both the
scores and the stacked vectors follow. A row norm that overflows fails
only the pair scores that read it, as in any other table, while
``concat_table``, which writes every row, refuses it.
"""

import math
from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from ._kernels import unit_rows
from .embeddings import EmbeddingTable, read_utf8
from .errors import AlignmentError, ConfigurationError, NumericalError, ParseError
from .numerics import (
    DEFAULT_RIDGE,
    SIDE_TEXTUAL,
    SIDE_VISUAL,
    caught,
    cca_fit,
    cca_transform,
    check_cca_dimension,
    check_pca_dimension,
    fitted,
    pca_fit,
    pca_transform,
    rcca_residual,
)

SIDE_BOTH = "both"

_SIDE_LETTER = {SIDE_TEXTUAL: "T", SIDE_VISUAL: "V", SIDE_BOTH: "both"}
_LETTER_SIDE = {v: k for k, v in _SIDE_LETTER.items()}

_B_ORDER = {"none": 0, "cca": 1, "rcca": 2, "cca_plus_rcca": 3}
_C_ORDER = {"none": 0, "concat": 1, "li": 2}
_SIDE_ORDER = {SIDE_TEXTUAL: 0, SIDE_VISUAL: 1, SIDE_BOTH: 2, None: 3}

MOTIFS = ("pca", "cca", "rcca", "concat", "li")


@dataclass(frozen=True)
class Configuration:
    """One choice per layer plus all numeric parameters."""

    layer_a: str = "none"            # "none" | "pca"
    pca_dim: int = None
    layer_b: str = "none"            # "none" | "cca" | "rcca" | "cca_plus_rcca"
    fusion_dim: int = None
    output_side: str = None          # textual | visual | both (cca / rcca);
                                     # textual | visual when no motifs at all
    cca_side: str = None             # cca_plus_rcca only
    rcca_side: str = None
    layer_c: str = "none"            # "none" | "concat" | "li"
    alpha: float = None
    ridge: float = DEFAULT_RIDGE


@dataclass(frozen=True)
class ScoringModel:
    """Executable result of a configuration: its one or two tables and its layer-c motif.

    ``layer_c`` is ``"none"`` for one table, or ``"concat"`` or ``"li"``
    for two that share one ordered vocabulary. ``alpha`` weights the first
    table's pair score under ``li``. ``normalize`` row-normalizes each
    block of a concatenation by ``unit_rows``, where it is scored or
    stacked; it has no effect on the other motifs.
    """

    first: EmbeddingTable
    second: EmbeddingTable = None
    alpha: float = None
    layer_c: str = "none"
    normalize: bool = False

    def __post_init__(self):
        if self.layer_c not in _C_ORDER:
            raise ValueError(f"unknown layer-c motif {self.layer_c!r}")
        if (self.second is None) != (self.layer_c == "none"):
            raise ValueError("a model has a second table exactly when layer c combines")
        if self.second is not None and self.second.vocab != self.first.vocab:
            raise AlignmentError("paired tables must share a vocabulary")
        if self.layer_c == "li":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("li models need alpha in [0, 1]")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for li models")

    @property
    def vocab(self):
        return self.first.vocab


def concat_table(model):
    """The table of a concatenation's stacked rows, as ``apply`` writes it.

    Under ``normalize`` each block is divided by its ``unit_rows``
    divisors. Every row is written, so a row norm that overflows, which
    cannot be normalized, is a ``NumericalError`` here.
    """
    tables = (model.first, model.second)
    blocks = [t.matrix for t in tables]
    if model.normalize:
        if not all(np.isfinite(t.sq_norms).all() for t in tables):
            raise NumericalError("a row norm overflows in normalized concatenation")
        blocks = [t.matrix / unit_rows(t.sq_norms)[0][:, None] for t in tables]
    return EmbeddingTable(model.vocab, np.hstack(blocks),
                          name=concat_label([model.first.name, model.second.name]))


def validate_configuration(config, dim_t, dim_v):
    """Return the list of violated composition constraints (empty = valid)."""
    v = []
    c = config

    if c.layer_a not in ("none", "pca"):
        v.append(f"unknown layer-a motif {c.layer_a!r}")
        return v
    if c.layer_b not in _B_ORDER:
        v.append(f"unknown layer-b motif {c.layer_b!r}")
        return v
    if c.layer_c not in _C_ORDER:
        v.append(f"unknown layer-c motif {c.layer_c!r}")
        return v

    if c.layer_a == "pca":
        if c.pca_dim is None or c.pca_dim < 1:
            v.append("layer-a PCA requires a positive dimension")
        elif c.pca_dim > min(dim_t, dim_v):
            v.append(
                f"layer-a PCA dimension {c.pca_dim} exceeds the smaller "
                f"input dimensionality {min(dim_t, dim_v)}"
            )
    elif c.pca_dim is not None:
        v.append("pca_dim set although layer a is none")

    ta = c.pca_dim if c.layer_a == "pca" and c.pca_dim else dim_t
    va = c.pca_dim if c.layer_a == "pca" and c.pca_dim else dim_v

    if c.layer_b == "none":
        if c.fusion_dim is not None:
            v.append("fusion_dim set although layer b is none")
        if c.cca_side is not None or c.rcca_side is not None:
            v.append("cca_side/rcca_side are only meaningful for cca_plus_rcca")
        if c.layer_c == "none":
            if c.output_side not in (SIDE_TEXTUAL, SIDE_VISUAL):
                v.append(
                    "a configuration with no fusion and no combination must "
                    "select output_side textual or visual"
                )
        elif c.output_side is not None:
            v.append("output_side set although layer b is none and layer c combines")
    else:
        if ta != va:
            v.append(
                f"fusion requires inputs of the same dimensionality, got "
                f"{ta} and {va}"
            )
        if c.fusion_dim is None or c.fusion_dim < 1:
            v.append(f"{c.layer_b} requires a positive dimension")
        elif c.fusion_dim > min(ta, va):
            v.append(
                f"{c.layer_b} dimension {c.fusion_dim} exceeds its input "
                f"dimensionality {min(ta, va)}"
            )
        if c.layer_b in ("cca", "rcca"):
            if c.output_side not in (SIDE_TEXTUAL, SIDE_VISUAL, SIDE_BOTH):
                v.append(f"{c.layer_b} requires output_side textual, visual or both")
            if c.cca_side is not None or c.rcca_side is not None:
                v.append("cca_side/rcca_side are only meaningful for cca_plus_rcca")
        else:  # cca_plus_rcca
            if c.cca_side not in (SIDE_TEXTUAL, SIDE_VISUAL):
                v.append("cca_plus_rcca requires cca_side textual or visual")
            if c.rcca_side not in (SIDE_TEXTUAL, SIDE_VISUAL):
                v.append("cca_plus_rcca requires rcca_side textual or visual")
            if c.output_side is not None:
                v.append("cca_plus_rcca output is its two vectors; output_side must be unset")
            if c.layer_c == "none":
                v.append("cca_plus_rcca must feed a layer-c combination")

    two_inputs = (
        c.layer_b == "none"
        or c.layer_b == "cca_plus_rcca"
        or (c.layer_b in ("cca", "rcca") and c.output_side == SIDE_BOTH)
    )
    if c.layer_c == "none":
        if c.alpha is not None:
            v.append("alpha set although layer c is none")
        if c.layer_b in ("cca", "rcca") and c.output_side == SIDE_BOTH:
            v.append(
                f"{c.layer_b} with output_side both produces two vectors and "
                "needs a layer-c combination"
            )
    else:
        if not two_inputs:
            v.append(
                f"{c.layer_c} needs two input vector tables but layer b "
                "yields a single one"
            )
        if c.layer_c == "li":
            if c.alpha is None or not 0.0 <= c.alpha <= 1.0:
                v.append("li requires alpha in [0, 1]")
        elif c.alpha is not None:
            v.append("alpha is only meaningful for li")

    if not (math.isfinite(c.ridge) and c.ridge >= 0):
        v.append("ridge must be finite and >= 0")
    return v


def principal_scores(matrix, m):
    """A side's PCA at ``m`` and its read-only principal scores ``(X - mean) @ components``."""
    model = pca_fit(matrix, m)
    scores = pca_transform(model, matrix)
    scores.flags.writeable = False
    return model, scores


def layer_a(raw, configs):
    """The principal scores of the raw tables (``{side: matrix}``) that ``configs`` read.

    Returns ``{side: (PcaModel, scores) or the error fitting it raised}``,
    textual first: each side fit and projected once, shared by the sweep's
    threads, at m = min(n - 1, d_t, d_v) whatever ``configs`` are, since a
    column prefix of a product is not bitwise the product of a column
    prefix. Both sides are fit when a configuration has layer a; otherwise
    only a raw side that an R-CCA narrower than the side reduces.
    """
    sides = set(raw) if any(c.pca_dim for c in configs) else {
        side for c in configs for origin, side in layer_inputs(c)
        if origin == "rcca" and raw[side].shape[1] > c.fusion_dim}
    m = min(min(x.shape[0] - 1, x.shape[1]) for x in raw.values())
    return {side: caught(principal_scores, x, m) for side, x in raw.items() if side in sides}


def leading(fit, k, shape):
    """A side's PCA at ``k``, applied: the first ``k`` columns of its ``layer_a`` scores ``fit``.

    Raises ``check_pca_dimension``'s ``DimensionError`` for the side's raw
    ``shape`` (n, d), checked first as ``pca_fit`` checks it, and otherwise
    the error fitting the side. The scores are ``U S`` of
    the side's centred SVD, centred and uncorrelated in non-increasing
    variance, so their first k axes are top-k principal axes of the side
    and of any wider layer-a output. Where variances tie or are zero, an
    SVD picks any basis of that subspace; the coordinate axes are as
    valid, and deterministic.
    """
    check_pca_dimension(k, *shape)
    return fitted(fit)[1][:, :k]


def fit_fusion(reduced, ridge, fits, a_dim):
    """The layer-b CCA of the two layer-a outputs at ``a_dim``, at every pair they allow.

    It is fit once at K = min(d1, d2, n - 1) of ``reduced``, a width set
    by the inputs alone, so every fusion dim's projection is a column
    prefix of the one at K, whichever fusion dims are asked for. A
    layer-a output's columns are uncorrelated principal scores, so each
    side is whitened by its layer-a fit's variances, with no ``eigh``;
    raw tables (``a_dim`` None) by the ``eigh`` of their covariances.
    """
    x, y = reduced[SIDE_TEXTUAL], reduced[SIDE_VISUAL]
    variances = None if a_dim is None else tuple(
        fitted(fits[side])[0].explained_variance[:a_dim] for side in (SIDE_TEXTUAL, SIDE_VISUAL))
    return cca_fit(x, y, min(x.shape[1], y.shape[1], x.shape[0] - 1), ridge=ridge,
                   variances=variances)


def layer_inputs(config):
    """Ordered ``(origin, side)`` inputs of layer c (or the one output table).

    ``origin`` is ``""`` (layer-a output), ``"cca"`` or ``"rcca"``. The
    textual-derived input comes first; on one modality, CCA before residual.
    """
    if config.layer_b == "cca_plus_rcca":
        inputs = [("cca", config.cca_side), ("rcca", config.rcca_side)]
    else:
        origin = "" if config.layer_b == "none" else config.layer_b
        sides = [config.output_side]
        if config.output_side in (None, SIDE_BOTH):
            sides = [SIDE_TEXTUAL, SIDE_VISUAL]
        inputs = [(origin, side) for side in sides]
    return sorted(inputs, key=lambda item: (item[1] != SIDE_TEXTUAL, item[0] == "rcca"))


def input_label(names, a_dim, f_dim, origin, side):
    """The name of a layer-c input table: its side's name in ``names``, wrapped in its motifs.

    ``cca(pca50(textual),20)`` is the CCA projection at fusion dim 20 of
    the textual table's layer-a output at 50. Distinct (layer-a dim,
    fusion dim, origin, side) inputs of distinctly named sides get
    distinct names, which degenerate-pair warnings give.
    """
    label = names[side]
    if a_dim:
        label = f"pca{a_dim}({label})"
    return f"{origin}({label},{f_dim})" if origin else label


def concat_label(labels):
    """The name of the concatenation of two input tables named ``labels``."""
    first, second = labels
    return f"concat[{first};{second}]"


def residual(signal, projected, fit):
    """R-CCA: ``signal`` minus its CCA ``projected``, by ``rcca_residual``.

    A signal wider than the projection's k columns is first cut to its
    side's ``leading`` k principal scores ``fit``, so the two subtracted
    are always of one width.
    """
    k = projected.shape[1]
    return rcca_residual(signal if signal.shape[1] == k else leading(fit, k, signal.shape),
                         projected)


def group_tables(raw, a_fits, a_dim, tables, ridge):
    """Each ``(fusion dim, origin, side)`` table of ``tables`` at layer-a dim ``a_dim``.

    Yields ``(table, matrix or the failure building it)``. First the
    layer-a output (``raw`` itself when ``a_dim`` is None) and, if any
    table is fused, one ``fit_fusion``. Then the tables, a side at a
    time: the side's layer-a output is projected once at the fit's full
    width, and each fusion dim's CCA table, and the projection its R-CCA
    table subtracts, is the first ``fusion dim`` columns of it. One
    projection is held at a time. A table fails with, in this order, the
    failure of its layer-a output, ``check_cca_dimension``'s for its
    fusion dim, and that of the fit or projection it is built on.
    """
    reduced = raw if a_dim is None else caught(
        lambda: {side: leading(fit, a_dim, raw[side].shape) for side, fit in a_fits.items()})
    fused = any(origin for _, origin, _ in tables)
    fit = caught(lambda: fit_fusion(fitted(reduced), ridge, a_fits, a_dim)) if fused else None

    def projection(side):
        return cca_transform(fitted(fit), fitted(reduced)[side], side)

    def matrix(f_dim, origin, side, projected):
        signals = fitted(reduced)
        if not origin:
            return signals[side]
        (n, d1), (_, d2) = signals[SIDE_TEXTUAL].shape, signals[SIDE_VISUAL].shape
        check_cca_dimension(f_dim, d1, d2, n)
        cut = fitted(projected)[:, :f_dim]
        return cut if origin == "cca" else residual(signals[side], cut, a_fits.get(side))

    ordered = sorted(tables, key=lambda t: (t[2], t[0] or 0, t[1]))
    for side, run in groupby(ordered, key=lambda t: t[2]):
        projected = caught(projection, side) if fused else None
        for table in run:
            yield table, caught(matrix, *table, projected)
        del projected   # before the next side is projected


def apply_configuration(config, textual, visual, normalize_concat=False):
    """Execute a configuration on an aligned table pair.

    Returns a :class:`ScoringModel`; deterministic for identical inputs.
    ``normalize_concat`` row-normalizes each block of a concatenation
    (cosine scoring is scale-sensitive per block); it defaults to off and
    has no effect on the other combination modes.
    """
    if textual.vocab != visual.vocab:
        raise AlignmentError("tables must be vocabulary-aligned before applying")
    violations = validate_configuration(config, textual.dim, visual.dim)
    if violations:
        raise ConfigurationError(violations)

    raw = {SIDE_TEXTUAL: textual.matrix, SIDE_VISUAL: visual.matrix}
    inputs = [(config.fusion_dim, *pair) for pair in layer_inputs(config)]
    built = dict(group_tables(raw, layer_a(raw, [config]), config.pca_dim, inputs, config.ridge))
    names = {SIDE_TEXTUAL: textual.name, SIDE_VISUAL: visual.name}
    tables = [EmbeddingTable(textual.vocab, fitted(built[table]),
                             name=input_label(names, config.pca_dim, *table)) for table in inputs]
    return ScoringModel(*tables, alpha=config.alpha, layer_c=config.layer_c,
                        normalize=normalize_concat)


def used_motifs(config):
    """Set of motif names a configuration actually applies."""
    used = set()
    if config.layer_a == "pca":
        used.add("pca")
    if config.layer_b in ("cca", "cca_plus_rcca"):
        used.add("cca")
    if config.layer_b in ("rcca", "cca_plus_rcca"):
        used.add("rcca")
    if config.layer_c in ("concat", "li"):
        used.add(config.layer_c)
    return frozenset(used)


def canonical_key(config):
    """Total, deterministic sort key over configurations."""
    c = config
    return (
        0 if c.layer_a == "none" else 1,
        c.pca_dim or 0,
        _B_ORDER[c.layer_b],
        c.fusion_dim or 0,
        _SIDE_ORDER[c.output_side],
        _SIDE_ORDER[c.cca_side],
        _SIDE_ORDER[c.rcca_side],
        _C_ORDER[c.layer_c],
        c.alpha if c.alpha is not None else -1.0,
    )


def enumerate_configurations(dim_t, dim_v, grid):
    """Every valid configuration for the given input dims under ``grid``.

    The grid is the product of the per-layer choices below, filtered and
    sorted by ``canonical_key``: a configuration is kept when
    ``validate_configuration`` accepts it and, when ``grid.motif_filter``
    is set, its motifs all belong to the filter.
    """
    dims = grid.dims_up_to(min(dim_t, dim_v))
    sides = (SIDE_TEXTUAL, SIDE_VISUAL)
    a_choices = [{}] + [{"layer_a": "pca", "pca_dim": dim} for dim in dims]
    b_choices = [{"output_side": side} for side in (*sides, None)]
    b_choices += [{"layer_b": variant, "fusion_dim": dim, "output_side": side}
                  for variant in ("cca", "rcca") for dim in dims for side in (*sides, SIDE_BOTH)]
    b_choices += [{"layer_b": "cca_plus_rcca", "fusion_dim": dim, "cca_side": s_c, "rcca_side": s_r}
                  for dim in dims for s_c in sides for s_r in sides]
    c_choices = [{}, {"layer_c": "concat"}] + [{"layer_c": "li", "alpha": a} for a in grid.alphas()]
    configs = (Configuration(**a, **b, **c, ridge=grid.ridge)
               for a, b, c in product(a_choices, b_choices, c_choices))
    return sorted((config for config in configs
                   if not validate_configuration(config, dim_t, dim_v)
                   and (grid.motif_filter is None or used_motifs(config) <= grid.motif_filter)),
                  key=canonical_key)


def output_dimension(config, dim_t, dim_v):
    """Dimensionality measure used for lowest-dimension tie-breaking.

    Each of the configuration's ``layer_inputs`` is ``fusion_dim`` wide when
    layer b made it, else the layer-a dim or its side's raw dim. A
    concatenation measures the sum of its two inputs; one table or a score
    interpolation, the widest.
    """
    raw = {SIDE_TEXTUAL: dim_t, SIDE_VISUAL: dim_v}
    widths = [config.fusion_dim if origin else config.pca_dim or raw[side]
              for origin, side in layer_inputs(config)]
    return sum(widths) if config.layer_c == "concat" else max(widths)


# --- flat text serialization ----------------------------------------------

def _format_side(side):
    return _SIDE_LETTER[side]


def format_configuration(config, sep="\n"):
    """Flat ``key=value`` form; exact round-trip through ``parse_configuration``."""
    c = config
    if c.layer_a == "pca":
        a = f"pca:{c.pca_dim}"
    else:
        a = "none"
    if c.layer_b == "none":
        b = "none"
        if c.output_side is not None and c.layer_c == "none":
            b = f"none:side={_format_side(c.output_side)}"
    elif c.layer_b == "cca_plus_rcca":
        b = (
            f"cca_plus_rcca:{c.fusion_dim}:cca={_format_side(c.cca_side)}"
            f":rcca={_format_side(c.rcca_side)}"
        )
    else:
        b = f"{c.layer_b}:{c.fusion_dim}:out={_format_side(c.output_side)}"
    if c.layer_c == "li":
        cc = f"li:{c.alpha!r}"
    else:
        cc = c.layer_c
    return sep.join(
        [f"layer_a={a}", f"layer_b={b}", f"layer_c={cc}", f"ridge={c.ridge!r}"]
    )


def _parse_side(token, what):
    if token not in _LETTER_SIDE:
        raise ValueError(f"bad {what} {token!r} (expected T, V or both)")
    return _LETTER_SIDE[token]


def _parse_kv(token, key, what):
    prefix = key + "="
    if not token.startswith(prefix):
        raise ValueError(f"expected {prefix}... in {what}, got {token!r}")
    return token[len(prefix):]


def _parse_number(parse, token, fields, key):
    """``parse(token)``, where ``token`` is part of ``fields[key]``; a bad token names the key."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"bad {key} {fields[key]!r}") from None


_CONFIG_KEYS = ("layer_a", "layer_b", "layer_c", "ridge")


def parse_configuration(text):
    """Parse the flat ``key=value`` form (newline- or space-separated).

    A key other than ``layer_a``, ``layer_b``, ``layer_c`` and ``ridge`` is
    an error, so a misspelt ``ridge`` is not silently the default.
    """
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"malformed configuration token {token!r}")
        key, value = token.split("=", 1)
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        if key in fields:
            raise ValueError(f"duplicate configuration key {key!r}")
        fields[key] = value
    missing = {"layer_a", "layer_b", "layer_c"} - fields.keys()
    if missing:
        raise ValueError(f"missing configuration keys: {sorted(missing)}")
    kw = {}
    a = fields["layer_a"].split(":")
    if a[0] == "pca" and len(a) == 2:
        kw["layer_a"] = "pca"
        kw["pca_dim"] = _parse_number(int, a[1], fields, "layer_a")
    elif a != ["none"]:
        raise ValueError(f"bad layer_a {fields['layer_a']!r}")
    b = fields["layer_b"].split(":")
    if b[0] == "none" and len(b) == 2:
        kw["output_side"] = _parse_side(_parse_kv(b[1], "side", "layer_b"), "side")
    elif b[0] in ("cca", "rcca") and len(b) == 3:
        kw["layer_b"] = b[0]
        kw["fusion_dim"] = _parse_number(int, b[1], fields, "layer_b")
        kw["output_side"] = _parse_side(_parse_kv(b[2], "out", "layer_b"), "out")
    elif b[0] == "cca_plus_rcca" and len(b) == 4:
        kw["layer_b"] = b[0]
        kw["fusion_dim"] = _parse_number(int, b[1], fields, "layer_b")
        kw["cca_side"] = _parse_side(_parse_kv(b[2], "cca", "layer_b"), "cca side")
        kw["rcca_side"] = _parse_side(_parse_kv(b[3], "rcca", "layer_b"), "rcca side")
    elif b != ["none"]:
        raise ValueError(f"bad layer_b {fields['layer_b']!r}")
    cc = fields["layer_c"].split(":")
    if cc[0] == "li" and len(cc) == 2:
        kw["layer_c"] = "li"
        kw["alpha"] = _parse_number(float, cc[1], fields, "layer_c")
    elif cc == ["concat"]:
        kw["layer_c"] = "concat"
    elif cc != ["none"]:
        raise ValueError(f"bad layer_c {fields['layer_c']!r}")
    if "ridge" in fields:
        kw["ridge"] = _parse_number(float, fields["ridge"], fields, "ridge")
    return Configuration(**kw)


def load_configuration(path):
    """Read a configuration file (one ``key=value`` per line)."""
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ParseError(path, None, str(exc)) from exc
    try:
        return parse_configuration(text)
    except ValueError as exc:
        raise ParseError(path, None, str(exc)) from None


def describe_configuration(config):
    """Compact human-readable form used in report tables."""
    c = config
    parts = []
    if c.layer_a == "pca":
        parts.append(f"PCA({c.pca_dim})")
    if c.layer_b == "cca":
        parts.append(f"CCA({_format_side(c.output_side)},{c.fusion_dim})")
    elif c.layer_b == "rcca":
        parts.append(f"R-CCA({_format_side(c.output_side)},{c.fusion_dim})")
    elif c.layer_b == "cca_plus_rcca":
        parts.append(
            f"CCA({_format_side(c.cca_side)},{c.fusion_dim})"
            f"+R-CCA({_format_side(c.rcca_side)},{c.fusion_dim})"
        )
    elif c.layer_c == "none":
        parts.append(f"RAW({_format_side(c.output_side)})")
    if c.layer_c == "concat":
        parts.append("CONCAT")
    elif c.layer_c == "li":
        parts.append(f"LI({c.alpha:g})")
    return " / ".join(parts)
