"""One benchmark run: inputs, set-up probes, the closed loop, checks, report.

``run.py`` is the entry point and describes the run; README.md describes
the workloads, metrics and checks.
"""

import ctypes
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import layers
import oracle
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
MIN_SAMPLES = 3          # untraced commands per run, at least
MIN_TRACED = 2           # traced commands per --trace 1 run, at least
HARD_STOP_S = 100        # start no command after this, whatever --seconds says
DEADLINE_S = 170         # kill whatever still runs after this; the run must end by 180 s
COMMAND_TIMEOUT_S = 60
APPLY_FUSION_DIM = 200   # layer-b dimension of the apply_wide configuration
# reference.py's wall time on the 2-core VM this benchmark was built on, in a
# quiet period: each reported time (wall and CPU) is scaled by its ratio to the
# mean wall time of the reference runs just before and just after it
REFERENCE_S = 0.5
SCORING_TXT = "pair alpha=0.4\nfirst=fused_first.vecs\nsecond=fused_second.vecs\n"

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "configs_per_s": "1/s",
    "vecs_mb_per_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Sample:
    """One command: what it cost and whether its outputs checked out."""

    def __init__(self, traced, wall, cpu, rss_mb, code):
        self.traced = traced
        self.ref = None           # mean wall time of the reference runs around it
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.code = code
        self.problems = []
        self.failed_ops = 0
        self.layers = None


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workspace:
    """Input files, command line and output checks of one (workload, seed)."""

    def __init__(self, root, env, started, spawner, workload, seed, mmfuse, src_sha256):
        self.root = root
        self.env = env
        self.started = started
        self.spawner = spawner
        self.workload = workload
        self.mmfuse = mmfuse
        work = os.path.join(root, WORK_DIR)
        self.inputs = gen.ensure_inputs(workload, seed, os.path.join(work, "inputs"))
        self.run_dir = os.path.join(work, "run", workload.name)
        self.out_dir = os.path.join(self.run_dir, "out")
        os.makedirs(self.run_dir, exist_ok=True)
        records = os.path.join(work, "records")
        os.makedirs(records, exist_ok=True)
        # reports must repeat byte for byte across runs of one seed on one source tree
        self.record_path = os.path.join(
            records, f"{os.path.basename(self.inputs)}-src{src_sha256[:12]}.json")
        self.record = None
        if os.path.exists(self.record_path):
            with open(self.record_path, encoding="utf-8") as fh:
                self.record = json.load(fh)
        self.text = os.path.join(self.inputs, "text.vecs")
        self.image = os.path.join(self.inputs, "image.vecs")
        self.benches = {b.name: os.path.join(self.inputs, f"{b.name}.tsv")
                        for b in workload.benches}
        if workload.command == "search":
            self.ops_per_command = len(workload.benches) * len(
                mmfuse.enumerate_configurations(workload.dim_t, workload.dim_v, mmfuse.GridSpec())
            )
        else:
            self.ops_per_command = 1
        self.input_bytes = os.path.getsize(self.text) + os.path.getsize(self.image)
        self._oracle = None
        self.status_counts = {}

    def elapsed(self):
        return time.perf_counter() - self.started

    def spawn(self, argv, log_name):
        """Run a child in the root with the benchmark's environment, within the deadline."""
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, DEADLINE_S - self.elapsed()))
        log_prefix = os.path.join(self.run_dir, log_name)
        return self.spawner.spawn(argv, self.root, self.env, log_prefix, timeout)

    def cli_args(self):
        args = [self.workload.command, "--text-vecs", self.text,
                "--image-vecs", self.image, "--out", self.out_dir]
        if self.workload.command == "apply":
            return args + ["--config", os.path.join(self.inputs, "best.cfg")]
        for path in self.benches.values():
            args += ["--bench", path]
        return args

    def setup_args(self):
        return [self.text, self.image, *self.benches.values()]

    def output_files(self):
        if self.workload.command == "apply":
            return ["fused_first.vecs", "fused_second.vecs", "scoring.txt"]
        names = ["summary.txt"]
        for name in self.benches:
            names += [f"{name}.report.tsv", f"{name}.report.txt"]
        return names

    def check(self, sample):
        """Fill ``sample.problems`` and ``sample.failed_ops`` from the outputs."""
        problems = sample.problems
        if sample.code != 0:
            problems.append(f"exit code {sample.code}")
        files = self.output_files()
        missing = [f for f in files if not os.path.isfile(os.path.join(self.out_dir, f))]
        problems += [f"missing output {f}" for f in missing]
        if not problems:
            shas = {f: sha256_file(os.path.join(self.out_dir, f)) for f in files}
            if self.record is None:
                problems += self._check_content()
                if not problems:
                    self.record = {"sha256": shas, "status_counts": self.status_counts}
                    with open(self.record_path, "w", encoding="utf-8") as fh:
                        json.dump(self.record, fh, indent=1, sort_keys=True)
            else:
                problems += [
                    f"sha256 of {f} differs from the first run of this seed"
                    for f in files if shas[f] != self.record["sha256"].get(f)
                ]
        if problems:
            sample.failed_ops = self.ops_per_command
        elif self.workload.command == "search":
            sample.failed_ops = self.record["status_counts"].get("failed", 0)

    def _check_content(self):
        if self.workload.command == "apply":
            return self._check_apply()
        return self._check_search()

    def _check_search(self):
        problems = []
        if self._oracle is None:
            alphas = [round(i * 0.1, 12) for i in range(11)]
            self._oracle = oracle.raw_expectations(self.text, self.image, self.benches, alphas)
        per_bench = self.ops_per_command // len(self.benches)
        counts = {}
        for name in self.benches:
            with open(os.path.join(self.out_dir, f"{name}.report.tsv"), encoding="utf-8") as fh:
                rows = oracle.parse_report(fh.read())
            if len(rows) != per_bench:
                problems.append(f"{name}: {len(rows)} report rows, expected {per_bench}")
            for row in rows:
                counts[row["status"]] = counts.get(row["status"], 0) + 1
            problems += oracle.check_report(name, rows, self._oracle)
        self.status_counts = counts
        return problems

    def _check_apply(self):
        problems = []
        with open(os.path.join(self.out_dir, "scoring.txt"), encoding="utf-8") as fh:
            if fh.read() != SCORING_TXT:
                problems.append("scoring.txt differs from the expected pair description")
        shape = (self.workload.n_shared, APPLY_FUSION_DIM)
        for name in ("fused_first.vecs", "fused_second.vecs"):
            path = os.path.join(self.out_dir, name)
            table = self.mmfuse.load_embeddings(path)
            if table.matrix.shape != shape:
                problems.append(f"{name}: shape {table.matrix.shape}, expected {shape}")
            if not np.all(np.isfinite(table.matrix)):
                problems.append(f"{name}: non-finite values")
        return problems

    def written_bytes(self):
        if self.workload.command != "apply":
            return 0
        return sum(
            os.path.getsize(os.path.join(self.out_dir, f))
            for f in ("fused_first.vecs", "fused_second.vecs")
        )


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_state(root):
    """Git commit and dirty flag when the root is a git checkout, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(sha256_file(path).encode())
    state = {"git_commit": None, "git_dirty": None, "src_sha256": digest.hexdigest()}
    if os.path.isdir(os.path.join(root, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", root, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        try:
            state["git_commit"] = git("rev-parse", "HEAD")
            state["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return state


def kernel_backend():
    try:
        return importlib.import_module("mmfuse._kernels").BACKEND
    except (ImportError, AttributeError):
        return None


def environment(root, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "kernel_backend": kernel_backend(),
        "seed": seed,
        "load": "closed loop, 1 client, 1 command at a time",
        **source_state(root),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_reference(ws):
    """Wall time of one run of the fixed reference task."""
    wall, _, _, code = ws.spawn([sys.executable, os.path.join(HERE, "reference.py")], "reference")
    if code != 0:
        raise SystemExit(f"error: reference task exited {code}; see {ws.run_dir}/reference.err")
    return wall


def run_setup(ws):
    """(wall_s, reference) of each set-up probe, with the reference task between probes."""
    times = []
    before = run_reference(ws)
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *ws.setup_args()]
        wall, _, _, code = ws.spawn(argv, "setup")
        if code != 0:
            raise SystemExit(f"error: set-up probe exited {code}; see {ws.run_dir}/setup.err")
        after = run_reference(ws)
        times.append((wall, (before + after) / 2.0))
        before = after
    return times


def run_loop(ws, seconds, trace):
    """Closed loop of commands, with the reference task between commands.

    Untraced and traced commands alternate under --trace 1.
    """
    interpreter = sys.executable
    samples = []
    start = time.perf_counter()
    last_cost = 0.0
    spans_path = os.path.join(ws.run_dir, "spans.json")
    before = run_reference(ws)
    while True:
        untraced = sum(1 for s in samples if not s.traced)
        traced_n = len(samples) - untraced
        enough = untraced >= MIN_SAMPLES and (not trace or traced_n >= MIN_TRACED)
        elapsed = time.perf_counter() - start
        if (enough and elapsed + last_cost > seconds) or (samples and ws.elapsed() > HARD_STOP_S):
            break
        traced = bool(trace) and traced_n < untraced
        began = time.perf_counter()
        shutil.rmtree(ws.out_dir, ignore_errors=True)
        if traced:
            argv = [interpreter, os.path.join(HERE, "traced.py"), spans_path, *ws.cli_args()]
        else:
            argv = [interpreter, "-m", "mmfuse.cli", *ws.cli_args()]
        sample = Sample(traced, *ws.spawn(argv, "command"))
        after = run_reference(ws)
        sample.ref = (before + after) / 2.0
        before = after
        ws.check(sample)
        if traced and sample.code == 0:
            with open(spans_path, encoding="utf-8") as fh:
                sample.layers = layers.per_layer(json.load(fh)["spans"])
        samples.append(sample)
        last_cost = time.perf_counter() - began
    return samples


def end_to_end(ws, samples, setup):
    """(reported, measured) metrics; reported times are scaled to reference speed."""
    plain = [s for s in samples if not s.traced]
    moved_mb = (ws.input_bytes + ws.written_bytes()) / 1e6

    def metrics(run_s, cpu_s, setup_s):
        return {
            "run_s": run_s,
            "cpu_s": cpu_s,
            "configs_per_s": ws.ops_per_command / run_s,
            "vecs_mb_per_s": moved_mb / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
        }

    reported = metrics(
        statistics.median(s.wall * REFERENCE_S / s.ref for s in plain),
        statistics.median(s.cpu * REFERENCE_S / s.ref for s in plain),
        statistics.median(wall * REFERENCE_S / ref for wall, ref in setup),
    )
    measured = metrics(
        statistics.median(s.wall for s in plain),
        statistics.median(s.cpu for s in plain),
        statistics.median(wall for wall, _ in setup),
    )
    return reported, measured


def per_layer_metrics(samples):
    """Median of each time over traced commands; counts must repeat exactly."""
    traced = [s.layers for s in samples if s.traced and s.layers is not None]
    if not traced:
        return None, ["no traced command completed"]
    out = {}
    problems = []
    for name in layers.UNITS:
        if name == "bench.trace_overhead":
            continue
        values = [t[name] for t in traced]
        if name in layers.EXACT:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced commands: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    def scaled_run_s(was_traced):
        return statistics.median(s.wall / s.ref for s in samples if s.traced == was_traced)

    out["bench.trace_overhead"] = scaled_run_s(True) / scaled_run_s(False)
    return out, problems


def report(ws, args, samples, setup, metrics, measured, units, env_record, notes):
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    attempted = ws.ops_per_command * len(samples)
    failed = sum(s.failed_ops for s in samples)
    print(f"workload {ws.workload.name}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced commands in a closed loop with 1 client")
    walls = sorted(s.wall for s in plain)
    q1, q3 = quartiles(walls)
    tail = layers.tail_percentile(len(walls))
    tail_text = (f"p{tail:g} {np.percentile(walls, tail):.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    print(f"  command wall time: median {statistics.median(walls):.4f} s of {len(walls)}, "
          f"quartiles {q1:.4f}..{q3:.4f} s, {tail_text}")
    setup_times = [wall for wall, _ in setup]
    print(f"  setup: median {statistics.median(setup_times):.4f} s of {len(setup_times)} "
          f"fresh interpreters")
    refs = [ref for _, ref in setup] + [s.ref for s in samples]
    ref_wall = statistics.median(refs)
    print(f"  reference task: median {ref_wall:.4f} s around {len(refs)} measurements; "
          f"machine at {REFERENCE_S / ref_wall:.3f} of reference speed")
    if measured is not None:
        print("  as measured:")
        for name, value in measured.items():
            print(f"    {name:<38} {value:>14.6g} {units[name]}")
        print("  scaled to reference speed (reported):")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    if ws.workload.command == "search" and ws.record is not None:
        print(f"  report status counts per command: {ws.record['status_counts']}")
    if args.trace and ws.workload.command == "search":
        pct = layers.tail_percentile(ws.ops_per_command)
        print(f"  search.config_ms_tail is p{pct:g} of {ws.ops_per_command} configuration times")
    for sample in samples:
        for problem in sample.problems:
            notes.append(f"check failed ({'traced' if sample.traced else 'untraced'}): {problem}")
    for note in notes:
        print(f"  note: {note}")
    if ws.record is not None:
        for name, sha in sorted(ws.record["sha256"].items()):
            print(f"  sha256 {name} {sha}")
    print("env " + json.dumps(env_record, sort_keys=True))
    correct = failed == 0 and not any(s.problems for s in samples) and not notes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results_dir = os.path.join(ws.root, WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{ws.workload.name}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "result": result,
            "env": env_record,
            "setup_s": setup_times,
            "measured": measured,
            "setup_reference_s": [ref for _, ref in setup],
            "samples": [{"traced": s.traced, "wall_s": s.wall, "cpu_s": s.cpu,
                         "rss_mb": s.rss_mb, "exit": s.code, "problems": s.problems,
                         "reference_s": s.ref}
                        for s in samples],
            "notes": notes,
        }, fh, indent=1)
    print(json.dumps(result))
    return 0


def run(args, root, started, spawner):
    """One benchmark run from the repository ``root``; returns the exit code."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mmfuse

    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env_record = environment(root, args.seed)
    ws = Workspace(root, env, started, spawner, workload, args.seed, mmfuse,
                   env_record["src_sha256"])

    setup = run_setup(ws)
    samples = run_loop(ws, args.seconds, args.trace)
    measured = None
    notes = []
    if args.trace:
        metrics, notes = per_layer_metrics(samples)
        if metrics is None:
            print("error: " + "; ".join(notes), file=sys.stderr)
            return 1
        units = layers.UNITS
    else:
        metrics, measured = end_to_end(ws, samples, setup)
        units = END_TO_END_UNITS
    return report(ws, args, samples, setup, metrics, measured, units, env_record, notes)
