"""Fixed reference task that measures how fast the machine is right now.

It runs in a fresh interpreter, as the commands do, and does a fixed mix of
the kinds of work mmfuse commands do: importing numpy, small BLAS-threaded
factorizations and products, gathers, dict lookups in generator loops, and
text-to-float parsing. Its inputs never change and it does not touch
mmfuse, so its time changes only with the machine's speed. ``run.py`` runs
it before every command and scales the timings by it (see README.md).

Usage: python3 perfbench/reference.py
"""

import numpy as np


def main():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(300, 150))
    for _ in range(12):
        _, _, vt = np.linalg.svd(a - a.mean(axis=0), full_matrices=False)
        b = a @ vt.T
        idx = rng.integers(0, 300, size=(2, 3000))
        np.einsum("ij,ij->i", b[idx[0]], b[idx[1]])
    index = {f"w{i:05d}": i for i in range(3000)}
    pairs = [(f"w{i % 3000:05d}", f"w{(7 * i) % 3000:05d}") for i in range(20000)]
    for _ in range(6):
        np.fromiter((index[p[0]] for p in pairs), dtype=np.int64, count=len(pairs))
        tuple(p for p in pairs if p[0] in index and p[1] in index)
    text = " ".join(f"{x:.6f}" for x in rng.normal(size=60000))
    np.array([float(t) for t in text.split()])


if __name__ == "__main__":
    main()
