"""Seeded input generator for the benchmark workloads.

Both vector tables are noisy linear views of one shared latent matrix, so
CCA finds real signal. Gold similarity scores are the latent cosine plus
noise, rounded to two decimals (which produces the ties real benchmarks
have). The generator controls the vocabulary mismatch between the tables,
the sub-vocabulary each benchmark draws from and the share of pairs that
fall outside the aligned vocabulary. The program under test only ever sees
the written files.

Usage: python3 perfbench/gen.py WORKLOAD SEED OUT_DIR
"""

import hashlib
import os
import shutil
import sys
import zlib

import numpy as np

from workloads import WORKLOADS

GEN_VERSION = 1


def _write_vecs(path, words, matrix):
    row_fmt = " ".join(["%.6f"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + row_fmt % tuple(row) + "\n")


def _pairs_from(rng, n, count):
    """``count`` distinct unordered index pairs over ``range(n)``."""
    i, j = np.triu_indices(n, k=1)
    pick = rng.choice(i.shape[0], size=count, replace=False)
    return i[pick], j[pick]


def _gold(rng, za, zb):
    cos = np.einsum("ij,ij->i", za, zb) / (
        np.linalg.norm(za, axis=1) * np.linalg.norm(zb, axis=1)
    )
    noisy = 5.0 * (cos + 1.0) + rng.normal(scale=0.8, size=cos.shape[0])
    return np.round(np.clip(noisy, 0.0, 10.0), 2)


def _bench_lines(rng, spec, shared, z_shared, oov_words, z_oov):
    n_oov = int(round(spec.oov_frac * spec.n_pairs))
    n_in = spec.n_pairs - n_oov
    sub = rng.choice(len(shared), size=spec.sub_vocab, replace=False)
    i, j = _pairs_from(rng, spec.sub_vocab, n_in)
    a, b = sub[i], sub[j]
    rows = list(zip([shared[k] for k in a], [shared[k] for k in b],
                    _gold(rng, z_shared[a], z_shared[b])))
    if n_oov:
        # one covered word paired with one word the alignment drops
        cells = rng.choice(spec.sub_vocab * len(oov_words), size=n_oov, replace=False)
        a = sub[cells // len(oov_words)]
        b = cells % len(oov_words)
        rows += zip([shared[k] for k in a], [oov_words[k] for k in b],
                    _gold(rng, z_shared[a], z_oov[b]))
    order = rng.permutation(len(rows))
    return [f"{rows[k][0]}\t{rows[k][1]}\t{rows[k][2]:.2f}\n" for k in order]


def generate(workload, seed, out_dir):
    """Write ``text.vecs``, ``image.vecs`` and the benchmarks (or config)."""
    w = workload
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    shared = [f"w{k:05d}" for k in range(w.n_shared)]
    text_only = [f"t{k:05d}" for k in range(w.n_text_only)]
    visual_only = [f"v{k:05d}" for k in range(w.n_visual_only)]
    unknown = [f"u{k:05d}" for k in range(max(8, w.n_text_only // 4))]
    n_all = w.n_shared + w.n_text_only + w.n_visual_only + len(unknown)
    z = rng.normal(size=(n_all, w.latent))
    z_shared = z[:w.n_shared]
    z_text_only = z[w.n_shared:w.n_shared + w.n_text_only]
    z_visual_only = z[w.n_shared + w.n_text_only:n_all - len(unknown)]

    def view(latent_rows, dim, noise):
        mix = rng.normal(scale=1.0 / np.sqrt(w.latent), size=(w.latent, dim))
        return latent_rows @ mix + rng.normal(scale=noise, size=(latent_rows.shape[0], dim))

    text = view(np.vstack([z_shared, z_text_only]), w.dim_t, 0.5)
    visual = np.tanh(view(np.vstack([z_shared, z_visual_only]), w.dim_v, 0.7))
    text_words = shared + text_only
    visual_words = shared + visual_only
    t_order = rng.permutation(len(text_words))
    v_order = rng.permutation(len(visual_words))

    os.makedirs(out_dir, exist_ok=True)
    _write_vecs(os.path.join(out_dir, "text.vecs"),
                [text_words[k] for k in t_order], text[t_order])
    _write_vecs(os.path.join(out_dir, "image.vecs"),
                [visual_words[k] for k in v_order], visual[v_order])
    oov_words = text_only + visual_only + unknown
    z_oov = z[w.n_shared:]
    for spec in w.benches:
        lines = _bench_lines(rng, spec, shared, z_shared, oov_words, z_oov)
        with open(os.path.join(out_dir, f"{spec.name}.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    if w.config:
        with open(os.path.join(out_dir, "best.cfg"), "w", encoding="utf-8") as fh:
            fh.write(w.config)


def ensure_inputs(workload, seed, cache_root):
    """Generated inputs for (workload, seed), cached by seed and shape."""
    shape = hashlib.sha256(f"{GEN_VERSION}{workload!r}".encode()).hexdigest()[:12]
    final = os.path.join(cache_root, f"{workload.name}-{shape}-s{seed}")
    if not os.path.isdir(final):
        tmp = final + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(workload, seed, tmp)
        os.replace(tmp, final)
    return final


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED OUT_DIR")
    generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
