"""Independent output checks: a plain-numpy Spearman oracle and report parsing.

Nothing here calls into mmfuse. The oracle re-reads the generated text
files itself, aligns the vocabularies, scores pairs with a plain cosine and
ranks with tie-averaged ranks computed through ``np.unique``, which is a
different algorithm from the program's sort-and-scan kernel.
"""

import re

import numpy as np

RHO_TOLERANCE = 1e-9

_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def read_vecs(path):
    """(words, matrix) from a word2vec-style text file with a header line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    words = []
    rows = []
    for line in lines[1:]:
        word, *values = line.split()
        words.append(word)
        rows.append([float(v) for v in values])
    return words, np.array(rows, dtype=np.float64)


def read_bench(path):
    with open(path, encoding="utf-8") as fh:
        return [
            (w1, w2, float(g))
            for w1, w2, g in (line.split("\t") for line in fh.read().splitlines() if line)
        ]


def tie_averaged_ranks(values):
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts).astype(np.float64)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(a, b):
    ra = tie_averaged_ranks(a)
    rb = tie_averaged_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def plain_cosines(matrix, i1, i2):
    a = matrix[i1]
    b = matrix[i2]
    return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def raw_expectations(text_path, image_path, bench_paths, alphas):
    """Expected (rho, n_evaluated, n_total) of the raw configurations.

    Keys are ``(bench_name, variant)`` with variant ``"T"``, ``"V"``,
    ``"concat"`` or an LI alpha.
    """
    t_words, t_mat = read_vecs(text_path)
    v_words, v_mat = read_vecs(image_path)
    common = sorted(set(t_words) & set(v_words))
    t_pos = {w: i for i, w in enumerate(t_words)}
    v_pos = {w: i for i, w in enumerate(v_words)}
    tm = t_mat[[t_pos[w] for w in common]]
    vm = v_mat[[v_pos[w] for w in common]]
    index = {w: i for i, w in enumerate(common)}
    out = {}
    for name, path in bench_paths.items():
        pairs = read_bench(path)
        kept = [p for p in pairs if p[0] in index and p[1] in index]
        i1 = np.array([index[p[0]] for p in kept])
        i2 = np.array([index[p[1]] for p in kept])
        gold = np.array([p[2] for p in kept])
        counts = (len(kept), len(pairs))
        s_t = plain_cosines(tm, i1, i2)
        s_v = plain_cosines(vm, i1, i2)
        out[(name, "T")] = (spearman(s_t, gold), *counts)
        out[(name, "V")] = (spearman(s_v, gold), *counts)
        s_concat = plain_cosines(np.hstack([tm, vm]), i1, i2)
        out[(name, "concat")] = (spearman(s_concat, gold), *counts)
        for alpha in alphas:
            out[(name, alpha)] = (spearman(alpha * s_t + (1.0 - alpha) * s_v, gold), *counts)
    return out


def parse_rho(token):
    """Float value of a report rho cell (``NA`` gives None)."""
    if token == "NA":
        return None
    m = _NP_FLOAT.match(token)
    return float(m.group(1) if m else token)


def parse_report(text):
    """Rows of a machine-readable sweep report as dicts."""
    lines = text.splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def raw_variant(config_text):
    """``"T"``/``"V"``/``"concat"``/alpha for a raw configuration, else None."""
    fields = dict(tok.split("=", 1) for tok in config_text.split())
    if fields.get("layer_a") != "none":
        return None
    b, c = fields.get("layer_b"), fields.get("layer_c", "")
    if b == "none:side=T" and c == "none":
        return "T"
    if b == "none:side=V" and c == "none":
        return "V"
    if b == "none" and c == "concat":
        return "concat"
    if b == "none" and c.startswith("li:"):
        return float(c[3:])
    return None


def check_report(bench_name, rows, expected):
    """Problems found comparing one report's raw rows with the oracle."""
    problems = []
    wanted = {k for k in expected if k[0] == bench_name}
    for row in rows:
        variant = raw_variant(row["config"])
        if variant is None:
            continue
        key = (bench_name, variant)
        if key not in expected:
            problems.append(f"{bench_name}: unexpected raw row {row['config']!r}")
            continue
        wanted.discard(key)
        rho, n_eval, n_total = expected[key]
        got = parse_rho(row["rho"])
        if got is None or abs(got - rho) > RHO_TOLERANCE:
            problems.append(f"{bench_name} {variant}: rho {row['rho']} != oracle {rho!r}")
        if (int(row["n_evaluated"]), int(row["n_total"])) != (n_eval, n_total):
            problems.append(
                f"{bench_name} {variant}: pairs {row['n_evaluated']}/{row['n_total']}"
                f" != oracle {n_eval}/{n_total}"
            )
    problems += [f"{bench_name} {k[1]}: raw row missing from report"
                 for k in sorted(wanted, key=str)]
    return problems
