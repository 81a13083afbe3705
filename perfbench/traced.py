"""Run one mmfuse CLI command with its layers traced from outside.

Each public function is wrapped at the attribute its caller looks up (for
example ``mmfuse.composition.cca_transform``, which the composition layer
calls, and ``mmfuse.numerics.pca_transform``, which ``rcca_residual``
calls), so no file under ``src/`` changes. Spans (name, start, end,
parent, attributes) are kept in memory and written as JSON when the
command ends. Attribute bookkeeping such as input digests runs in its own
``bench.trace`` span, so it is never charged to a layer.

Usage: PYTHONPATH=src python3 perfbench/traced.py SPANS_JSON COMMAND [ARGS...]
"""

import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time

import numpy as np


def digest(array):
    return hashlib.blake2b(
        memoryview(np.ascontiguousarray(array)), digest_size=16
    ).hexdigest()


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self):
        self.spans = []            # [name, start_ns, end_ns, parent, attrs]
        self.context = {}          # facts about the benchmark being swept
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name):
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else -1, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    def bookkeeping(self, measure, *args):
        span = self.open("bench.trace")
        try:
            return measure(*args)
        finally:
            self.close(span)

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span[4] = self.bookkeeping(measure, self, args, kwargs, result)
            return result
        return wrapper


# --- attribute measurements (run inside bench.trace spans) ------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos):
    return lambda tr, args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))
    }


def _text_bytes(tr, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _dropped(tr, args, kwargs, result):
    a, b = args[0], args[1]
    return {"dropped": len(a) + len(b) - 2 * len(result[0])}


def _projected(tr, args, kwargs, result):
    rows = int(result.shape[0])
    return {"rows": rows, "useful": min(rows, tr.context.get("covered_rows", rows))}


def _pca_key(tr, args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    return {"key": f"pca:{digest(X)}:{_arg(args, kwargs, 1, 'k')}"}


def _cca_key(tr, args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    Y = _arg(args, kwargs, 1, "Y")
    k = _arg(args, kwargs, 2, "k")
    ridge = args[3] if len(args) > 3 else kwargs.get("ridge")
    return {"key": f"cca:{digest(X)}:{digest(Y)}:{k}:{ridge!r}"}


def _pair_cosine(tr, args, kwargs, result):
    matrix, idx1 = args[0], args[1]
    gathered = 2 * len(idx1) * matrix.shape[1] * matrix.itemsize
    return {"bytes": int(gathered), "digest": digest(result[0])}


def _ranks(tr, args, kwargs, result):
    return {"gold": digest(np.asarray(args[0], dtype=np.float64)) in tr.context.get("gold", ())}


def _filtered(tr, args, kwargs, result):
    return {"pairs": len(args[0].pairs)}


def _sweep_context(tracer, args, kwargs):
    """Covered rows and gold-score digest of the benchmark about to be swept."""
    textual, bench = args[0], args[2]
    vocab = set(textual.vocab)
    covered = [p for p in bench.pairs if p[0] in vocab and p[1] in vocab]
    words = {w for p in covered for w in p[:2]}
    gold = np.array([p[2] for p in covered], dtype=np.float64)
    tracer.context = {"covered_rows": len(words), "gold": {digest(gold)}}


def _wrap_grid_search(tracer, fn):
    """Span per sweep, plus per-configuration times from the progress callback."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.bookkeeping(_sweep_context, tracer, args, kwargs)
        marks = []
        progress = kwargs.get("progress")

        def timed_progress(done, total):
            marks.append(time.perf_counter_ns())
            if progress is not None:
                progress(done, total)

        kwargs["progress"] = timed_progress
        span = tracer.open("search.grid_search")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        edges = [span[1]] + marks
        span[4] = {"config_ns": [b - a for a, b in zip(edges, edges[1:])]}
        tracer.context = {}
        return result
    return wrapper


# (module, attribute, span name, measurement)
SITES = [
    ("mmfuse.cli", "load_embeddings", "embeddings.load", _file_bytes(0)),
    ("mmfuse.cli", "align_vocabularies", "embeddings.align", _dropped),
    ("mmfuse.cli", "save_embeddings", "embeddings.save", _file_bytes(1)),
    ("mmfuse.cli", "load_benchmark", "evaluation.load_benchmark", None),
    ("mmfuse.cli", "apply_configuration", "composition.apply", None),
    ("mmfuse.cli", "render_report_table", "search.render", _text_bytes),
    ("mmfuse.cli", "render_report_machine", "search.render", _text_bytes),
    ("mmfuse.search", "enumerate_configurations", "composition.enumerate", None),
    ("mmfuse.search", "apply_configuration", "composition.apply", None),
    ("mmfuse.search", "evaluate", "evaluation.evaluate", None),
    ("mmfuse.composition", "pca_fit", "numerics.pca_fit", _pca_key),
    ("mmfuse.composition", "cca_fit", "numerics.cca_fit", _cca_key),
    ("mmfuse.composition", "pca_transform", "numerics.pca_transform", _projected),
    ("mmfuse.composition", "cca_transform", "numerics.cca_transform", _projected),
    ("mmfuse.composition", "rcca_residual", "numerics.rcca_residual", None),
    ("mmfuse.numerics", "pca_transform", "numerics.pca_transform", _projected),
    ("mmfuse.evaluation", "filter_coverage", "evaluation.filter_coverage", _filtered),
    ("mmfuse.evaluation", "spearman", "evaluation.spearman", None),
    ("mmfuse._kernels", "pair_cosine_scores", "kernels.pair_cosine", _pair_cosine),
    ("mmfuse._kernels", "average_ranks", "kernels.average_ranks", _ranks),
]


def install(tracer):
    """Wrap every lookup site that exists; return the names of those missing."""
    missing = []

    def lookup(module_name, attr):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module_name}.{attr}")
            return None
        return owner

    for module_name, attr, span_name, measure in SITES:
        owner = lookup(module_name, attr)
        if owner is not None:
            setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr), measure))
    cli = lookup("mmfuse.cli", "grid_search")
    if cli is not None:
        cli.grid_search = _wrap_grid_search(tracer, cli.grid_search)
    embeddings = lookup("mmfuse.embeddings", "EmbeddingTable")
    if embeddings is not None:
        table = embeddings.EmbeddingTable
        table.__post_init__ = tracer.wrap("embeddings.table_build", table.__post_init__)
    return missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    cli = importlib.import_module("mmfuse.cli")
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing_sites": missing, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
