"""Command-line surface: evaluate, search, apply, cross-evaluate.

Every command is deterministic: identical inputs produce byte-identical
report files. Timestamps never appear in report bodies; they go to the
``run.log`` sidecar in the output directory.

Exit codes: 0 success, 1 usage error, 2 input/parse/validation error,
3 numerical failure with no successful result. Reports and fused tables
are written to a temporary file and renamed into place, so a failed run
never leaves one half-written.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .composition import (
    MOTIFS,
    apply_configuration,
    describe_configuration,
    format_configuration,
    load_configuration,
    validate_configuration,
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
from .evaluation import benchmark_name, load_benchmark
from .numerics import DEFAULT_RIDGE
from .search import (
    GridSpec,
    cross_evaluate,
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


@dataclass
class RunManifest:
    """Validated inputs of one command invocation."""

    text_vecs: Path
    image_vecs: Path
    benches: list
    out: Path
    dim_step: int = 50
    dim_min: int = 50
    alpha_step: float = 0.1
    ridge: float = DEFAULT_RIDGE
    motifs: frozenset = None
    workers: int = 1
    config: Path = None
    normalize_concat: bool = False


def _parse_bool(raw):
    value = raw.strip().lower()
    if value not in {"1", "true", "yes", "0", "false", "no"}:
        raise ValueError(f"not a boolean: {raw!r}")
    return value in {"1", "true", "yes"}


_MANIFEST_KEYS = {
    "text_vecs": str, "image_vecs": str, "bench": str, "out": str,
    "dim_step": int, "dim_min": int, "alpha_step": float, "ridge": float,
    "motifs": str, "workers": int, "config": str,
    "normalize_concat": _parse_bool,
}


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
    if unknown:
        raise InputError(
            f"unknown motifs: {sorted(unknown)} (choose from {', '.join(MOTIFS)})"
        )
    return names or None


def _build_manifest(args, need_config, unused=()):
    """The command's inputs; a flag ``unused`` names is rejected, its manifest key ignored."""
    for key in unused:
        if getattr(args, key) is not None:
            raise InputError(f"{args.command} does not take --{key.replace('_', '-')}")
    values = _read_manifest_file(args.manifest) if args.manifest else {}
    # one manifest may serve several commands: a key this command does not use is ignored
    values = {key: value for key, value in values.items() if key not in unused}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        if key in values:
            return values[key]
        return default

    text_vecs = pick(args.text_vecs, "text_vecs")
    image_vecs = pick(args.image_vecs, "image_vecs")
    benches = args.bench if args.bench else None
    if benches is None and "bench" in values:
        # a manifest line naming no benchmark leaves --bench missing
        benches = [b.strip() for b in values["bench"].split(",") if b.strip()] or None
    out = pick(args.out, "out")
    config = pick(getattr(args, "config", None), "config")

    missing = [
        name
        for name, value in [
            ("--text-vecs", text_vecs), ("--image-vecs", image_vecs),
            ("--out", out),
        ]
        if value is None
    ]
    if "bench" not in unused and benches is None:
        missing.append("--bench")
    if need_config and config is None:
        missing.append("--config")
    if missing:
        raise InputError(f"missing required inputs: {', '.join(missing)}")

    manifest = RunManifest(
        text_vecs=Path(text_vecs),
        image_vecs=Path(image_vecs),
        benches=[Path(b) for b in benches] if benches else [],
        out=Path(out),
        dim_step=pick(args.dim_step, "dim_step", 50),
        dim_min=pick(args.dim_min, "dim_min", 50),
        alpha_step=pick(args.alpha_step, "alpha_step", 0.1),
        ridge=pick(args.ridge, "ridge", DEFAULT_RIDGE),
        motifs=_parse_motifs(pick(args.motifs, "motifs")),
        workers=pick(args.workers, "workers", 1),
        config=Path(config) if config else None,
        normalize_concat=pick(args.normalize_concat, "normalize_concat", False),
    )
    if manifest.workers < 1:
        raise InputError(f"workers must be >= 1, got {manifest.workers}")
    for path in [manifest.text_vecs, manifest.image_vecs, *manifest.benches] + (
        [manifest.config] if manifest.config else []
    ):
        if not path.exists():
            raise InputError(f"input path does not exist: {path}")
    manifest.out.mkdir(parents=True, exist_ok=True)
    return manifest


def _load_inputs(manifest):
    textual = load_embeddings(manifest.text_vecs, name="textual")
    visual = load_embeddings(manifest.image_vecs, name="visual")
    textual, visual = align_vocabularies(textual, visual)
    benches = [load_benchmark(path) for path in manifest.benches]
    return textual, visual, benches


def _load_config_checked(manifest, dim_t, dim_v):
    config = load_configuration(manifest.config)
    violations = validate_configuration(config, dim_t, dim_v)
    if violations:
        raise ConfigurationError(violations)
    return config


def _write(path, text):
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
    textual, visual, benches = _load_inputs(manifest)
    config = _load_config_checked(manifest, textual.dim, visual.dim)
    named = cross_evaluate(config, textual, visual, benches,
                           normalize_concat=manifest.normalize_concat)
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
    _check_report_names(manifest.benches)
    grid = GridSpec(
        dim_step=manifest.dim_step,
        dim_min=manifest.dim_min,
        alpha_step=manifest.alpha_step,
        ridge=manifest.ridge,
        motif_filter=manifest.motifs,
    )
    textual, visual, benches = _load_inputs(manifest)

    def progress(bench, done, total):
        if done == total or done % 200 == 0:
            print(f"[{bench.name}] {done}/{total} configurations", file=sys.stderr)

    reports = sweep(
        textual, visual, benches, grid,
        workers=manifest.workers, progress=progress,
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
    textual, visual, _ = _load_inputs(manifest)
    config = _load_config_checked(manifest, textual.dim, visual.dim)
    model = apply_configuration(
        config, textual, visual, normalize_concat=manifest.normalize_concat
    )
    if model.is_pair:
        save_embeddings(model.first, manifest.out / "fused_first.vecs")
        save_embeddings(model.second, manifest.out / "fused_second.vecs")
        _write(
            manifest.out / "scoring.txt",
            f"pair alpha={model.alpha!r}\nfirst=fused_first.vecs\n"
            "second=fused_second.vecs\n",
        )
    else:
        save_embeddings(model.first, manifest.out / "fused.vecs")
        _write(manifest.out / "scoring.txt", "single table=fused.vecs\n")
    _log(manifest, "apply: wrote fused tables")
    print(f"wrote fused vectors to {manifest.out}")
    return EXIT_OK


def _add_common(sub, need_config):
    sub.add_argument("--text-vecs", help="textual embedding text file")
    sub.add_argument("--image-vecs", help="visual embedding text file")
    sub.add_argument("--bench", action="append",
                     help="benchmark file (repeatable)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--manifest", help="key=value file supplying any flag")
    sub.add_argument("--dim-step", type=int, dest="dim_step")
    sub.add_argument("--dim-min", type=int, dest="dim_min")
    sub.add_argument("--alpha-step", type=float, dest="alpha_step")
    sub.add_argument("--ridge", type=float)
    sub.add_argument("--motifs",
                     help=f"comma-separated subset of: {', '.join(MOTIFS)}")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--normalize-concat", dest="normalize_concat",
                     action="store_const", const=True,
                     help="row-normalize each block before concatenation")
    if need_config:
        sub.add_argument("--config", help="configuration file (key=value lines)")


def build_parser():
    parser = _Parser(
        prog="mmfuse",
        description="Fuse textual and visual word embeddings and evaluate "
                    "them against word-similarity benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, need_config, help_text in [
        ("eval", True, "evaluate one configuration on each benchmark"),
        ("search", False, "exhaustive configuration sweep per benchmark"),
        ("cross", True, "evaluate one configuration across all benchmarks"),
        ("apply", True, "apply a configuration and save the fused vectors"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, need_config)
    return parser


# flags (and manifest keys) only a sweep reads
_SWEEP_ONLY = ("dim_step", "dim_min", "alpha_step", "ridge", "motifs", "workers")

_COMMANDS = {
    "eval": (partial(cmd_evaluate, label="eval"), True, _SWEEP_ONLY),
    "search": (cmd_search, False, ()),
    "cross": (partial(cmd_evaluate, label="cross"), True, _SWEEP_ONLY),
    "apply": (cmd_apply, True, _SWEEP_ONLY + ("bench",)),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command, need_config, unused = _COMMANDS[args.command]
    try:
        manifest = _build_manifest(args, need_config, unused)
        return command(manifest)
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


if __name__ == "__main__":
    sys.exit(main())
