"""Command-line surface: evaluate, search, apply, cross-evaluate.

Every command is deterministic: identical inputs produce byte-identical
report files. Timestamps never appear in report bodies; they go to the
``run.log`` sidecar in the output directory.

Exit codes: 0 success, 1 usage error, 2 input/parse/validation error,
3 numerical failure with no successful result, or running out of memory.
A BLAS library that cannot allocate its own buffers ends the process
itself, where no handler runs: OpenBLAS prints its own error and exits 1.
``--out`` is created by a command's first output, so a run that fails
before it leaves no directory behind. Reports and fused tables are
written to a temporary file and renamed into place, so a failed run never
leaves one half-written.

A finished command exits without Python's final garbage collection: every
file it writes is closed first, and nothing relies on a finalizer.
"""

import argparse
import gc
import sys
import time
import warnings
from collections import namedtuple
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from .composition import (
    MOTIFS,
    apply_configuration,
    concat_table,
    describe_configuration,
    format_configuration,
    load_configuration,
)
from .embeddings import (
    align_vocabularies,
    atomic_open,
    load_embeddings,
    read_utf8,
    save_embeddings,
)
from .errors import (
    ConfigurationError,
    InputError,
    MMFuseError,
    NoResultError,
    NumericalError,
)
from .evaluation import benchmark_name, evaluate, load_benchmark
from .search import (
    GridSpec,
    render_reports,
    select_best,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_bool(raw):
    value = raw.strip().lower()
    if value not in {"1", "true", "yes", "0", "false", "no"}:
        raise ValueError(f"not a boolean: {raw!r}")
    return value in {"1", "true", "yes"}


def _parse_benches(raw):
    # a manifest line naming no benchmark leaves --bench missing
    return [b.strip() for b in raw.split(",") if b.strip()] or None


_Input = namedtuple("_Input", "key flag parse default sweep_only",
                    defaults=(None, None, False))

# Every command input, in flag order: its key (the flag is the key with "-"
# for "_"), the flag's argparse keywords, how a manifest value of the key is
# read (None: as the flag's type, or as text), its default, and whether only a
# sweep reads it. A flag wins over its manifest value, which wins over the default.
_INPUTS = (
    _Input("text_vecs", {"help": "textual embedding text file"}),
    _Input("image_vecs", {"help": "visual embedding text file"}),
    _Input("bench", {"action": "append", "help": "benchmark file (repeatable)"},
           parse=_parse_benches),
    _Input("out", {"help": "output directory"}),
    _Input("manifest", {"help": "key=value file supplying any flag"}),
    _Input("dim_step", {"type": int}, default=GridSpec.dim_step, sweep_only=True),
    _Input("dim_min", {"type": int}, default=GridSpec.dim_min, sweep_only=True),
    _Input("alpha_step", {"type": float}, default=GridSpec.alpha_step, sweep_only=True),
    _Input("ridge", {"type": float}, default=GridSpec.ridge, sweep_only=True),
    _Input("motifs", {"help": f"comma-separated subset of: {', '.join(MOTIFS)}"},
           sweep_only=True),
    _Input("normalize_concat",
           {"action": "store_const", "const": True,
            "help": "row-normalize each block before concatenation"},
           parse=_parse_bool, default=False),
    _Input("config", {"help": "configuration file (key=value lines)"}),
)

# a manifest cannot name another manifest
_MANIFEST_KEYS = {
    row.key: row.parse or row.flag.get("type", str)
    for row in _INPUTS if row.key != "manifest"
}
_SWEEP_ONLY = tuple(row.key for row in _INPUTS if row.sweep_only)


def _flag(key):
    return "--" + key.replace("_", "-")


def _read_manifest_file(path):
    values = {}
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _MANIFEST_KEYS:
            raise InputError(f"{path}:{line_no}: unknown manifest key {key!r}")
        if key in values:
            raise InputError(f"{path}:{line_no}: duplicate manifest key {key!r}")
        try:
            values[key] = _MANIFEST_KEYS[key](value)
        except ValueError:
            raise InputError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    return values


def _parse_motifs(raw):
    if raw is None:
        return None
    names = frozenset(m.strip() for m in raw.split(",") if m.strip())
    unknown = names - set(MOTIFS)
    if unknown or not names:
        problem = f"unknown motifs: {sorted(unknown)}" if unknown else f"no motif in {raw!r}"
        raise InputError(f"{problem} (choose from {', '.join(MOTIFS)})")
    return names


def _build_manifest(args, command):
    """The command's inputs, merged from its flags, its manifest and the defaults.

    A flag the command refuses is rejected; its manifest key is ignored, since
    one manifest may serve several commands.
    """
    refuses = command.refuses
    for key in refuses:
        if getattr(args, key, None) is not None:  # search has no --config flag
            raise InputError(f"{args.command} does not take {_flag(key)}")
    values = {row.key: row.default for row in _INPUTS}
    if args.manifest:
        values.update((key, value) for key, value in _read_manifest_file(args.manifest).items()
                      if key not in refuses)
    values.update((row.key, flag) for row in _INPUTS
                  if (flag := getattr(args, row.key, None)) is not None)
    inputs = SimpleNamespace(**values)

    # in the order the error names them
    required = ["text_vecs", "image_vecs", "out", "bench", "config"]
    missing = [_flag(key) for key in required
               if getattr(inputs, key) is None and key not in refuses]
    if missing:
        raise InputError(f"missing required inputs: {', '.join(missing)}")
    inputs.motifs = _parse_motifs(inputs.motifs)
    inputs.text_vecs = Path(inputs.text_vecs)
    inputs.image_vecs = Path(inputs.image_vecs)
    inputs.out = Path(inputs.out)
    inputs.bench = [Path(b) for b in inputs.bench or ()]
    inputs.config = Path(inputs.config) if inputs.config is not None else None
    for path in [inputs.text_vecs, inputs.image_vecs, *inputs.bench, inputs.config]:
        if path is not None and not path.exists():
            raise InputError(f"input path does not exist: {path}")
    return inputs


def _load_inputs(manifest):
    """The aligned tables, the benchmarks and the parsed configuration (None for ``search``).

    ``apply_configuration`` checks the configuration before any fit.
    """
    textual = load_embeddings(manifest.text_vecs, name="textual")
    visual = load_embeddings(manifest.image_vecs, name="visual")
    textual, visual = align_vocabularies(textual, visual)
    benches = [load_benchmark(path) for path in manifest.bench]
    config = None if manifest.config is None else load_configuration(manifest.config)
    return textual, visual, benches, config


def _write(path, text):
    """Write ``text`` to ``path`` atomically, creating its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(text)


def _log(manifest, message):
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(manifest.out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"[{stamp}] {message}\n")


def _result_rows(named_results):
    lines = [f"{'benchmark':<20} {'rho':>6} {'pairs':>11} {'coverage':>9}"]
    for name, result in named_results:
        rho = f"{result.rho:.2f}" if result.defined else "n/a"
        pairs = f"{result.n_evaluated}/{result.n_total}"
        lines.append(
            f"{name:<20} {rho:>6} {pairs:>11} {result.coverage:>8.1%}"
        )
    return "\n".join(lines) + "\n"


def _result_machine(config, named_results):
    cfg = format_configuration(config, sep=" ")
    lines = ["benchmark\trho\tn_evaluated\tn_total\tcoverage\tconfig"]
    for name, result in named_results:
        rho = repr(result.rho) if result.defined else "NA"
        lines.append(
            f"{name}\t{rho}\t{result.n_evaluated}\t{result.n_total}"
            f"\t{result.coverage!r}\t{cfg}"
        )
    return "\n".join(lines) + "\n"


def _safe_name(name):
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def cmd_evaluate(manifest, label):
    """Body of ``eval`` and ``cross``: one configuration on every benchmark."""
    textual, visual, benches, config = _load_inputs(manifest)
    model = apply_configuration(config, textual, visual,
                                normalize_concat=manifest.normalize_concat)
    named = [(bench.name, evaluate(model, bench)) for bench in benches]
    text = f"configuration: {describe_configuration(config)}\n\n" + _result_rows(named)
    _write(manifest.out / f"{label}_report.txt", text)
    _write(manifest.out / f"{label}_report.tsv", _result_machine(config, named))
    _log(manifest, f"{label}: {len(named)} benchmark(s)")
    print(text.rstrip())
    if all(result.defined for _, result in named):
        return EXIT_OK
    print("error: undefined correlation on at least one benchmark", file=sys.stderr)
    return EXIT_NUMERIC


def _check_report_names(paths):
    """Two benchmarks whose reports would overwrite each other are an InputError."""
    owner = {}
    for path in paths:
        stem = _safe_name(benchmark_name(path))
        if stem in owner:
            raise InputError(
                f"benchmarks {owner[stem]} and {path} would both write "
                f"{stem}.report.txt/.tsv"
            )
        owner[stem] = path


def cmd_search(manifest):
    _check_report_names(manifest.bench)
    grid = GridSpec(
        dim_step=manifest.dim_step,
        dim_min=manifest.dim_min,
        alpha_step=manifest.alpha_step,
        ridge=manifest.ridge,
        motif_filter=manifest.motifs,
    )
    textual, visual, benches, _ = _load_inputs(manifest)
    reports = sweep(
        textual, visual, benches, grid,
        progress=lambda done, total: print(f"{done}/{total} configurations", file=sys.stderr),
        normalize_concat=manifest.normalize_concat,
    )
    summary = []
    missing_best = []
    for bench, report, (table, machine) in zip(benches, reports, render_reports(reports)):
        stem = _safe_name(bench.name)
        _write(manifest.out / f"{stem}.report.txt", table)
        _write(manifest.out / f"{stem}.report.tsv", machine)
        _log(manifest, f"search: {bench.name}: {len(report.entries)} configurations")
        try:
            best_config, best_result = select_best(report)
            summary.append(
                f"{bench.name}: rho={best_result.rho:.2f} "
                f"({best_result.n_evaluated}/{best_result.n_total} pairs)  "
                f"{describe_configuration(best_config)}"
            )
        except NoResultError as exc:
            summary.append(f"{bench.name}: no successful configuration")
            missing_best.append(str(exc))
    text = "best configuration per benchmark\n" + "\n".join(summary) + "\n"
    _write(manifest.out / "summary.txt", text)
    print(text.rstrip())
    if missing_best:
        for message in missing_best:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_apply(manifest):
    textual, visual, _, config = _load_inputs(manifest)
    model = apply_configuration(
        config, textual, visual, normalize_concat=manifest.normalize_concat
    )
    if model.layer_c == "li":
        tables = {"fused_first.vecs": model.first, "fused_second.vecs": model.second}
        scoring = (f"pair alpha={model.alpha!r}\nfirst=fused_first.vecs\n"
                   "second=fused_second.vecs\n")
    else:
        # a concatenation that cannot be built writes nothing
        fused = concat_table(model) if model.layer_c == "concat" else model.first
        tables = {"fused.vecs": fused}
        scoring = "single table=fused.vecs\n"
    manifest.out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        save_embeddings(table, manifest.out / name)
    _write(manifest.out / "scoring.txt", scoring)
    _log(manifest, "apply: wrote fused tables")
    print(f"wrote fused vectors to {manifest.out}")
    return EXIT_OK


_Command = namedtuple("_Command", "help run refuses")

# every command: its help, its handler, and the inputs it refuses as flags and
# ignores as manifest keys; a command that does not refuse --config needs one
_COMMANDS = {
    "eval": _Command("evaluate one configuration on each benchmark",
                     partial(cmd_evaluate, label="eval"), _SWEEP_ONLY),
    "search": _Command("exhaustive configuration sweep per benchmark",
                       cmd_search, ("config",)),
    "cross": _Command("evaluate one configuration across all benchmarks",
                      partial(cmd_evaluate, label="cross"), _SWEEP_ONLY),
    "apply": _Command("apply a configuration and save the fused vectors",
                      cmd_apply, _SWEEP_ONLY + ("bench",)),
}


def build_parser():
    parser = _Parser(
        prog="mmfuse",
        description="Fuse textual and visual word embeddings and evaluate "
                    "them against word-similarity benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for row in _INPUTS:
            keywords = row.flag
            if row.key in command.refuses:
                if row.key == "config":   # search has no --config flag
                    continue
                # parsed only to be rejected by name, so help does not list it
                keywords = {**row.flag, "help": argparse.SUPPRESS}
            sub.add_argument(_flag(row.key), **keywords)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one line of its message, without the code that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return command.run(_build_manifest(args, command))
        except ConfigurationError as exc:
            print("error: configuration is invalid:", file=sys.stderr)
            for violation in exc.violations:
                print(f"  - {violation}", file=sys.stderr)
            return EXIT_INPUT
        except (NumericalError, NoResultError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except (MMFuseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except MemoryError as exc:
            print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
            return EXIT_NUMERIC


def run():
    """The process entry: ``main`` on ``sys.argv``, then ``gc.freeze()``.

    Freezing moves every object into the permanent generation, which the
    collections of the interpreter's shutdown never visit; ``gc.disable()``
    does not stop them. ``main`` does not freeze, so an in-process caller's
    objects stay collectable.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
