"""Workload definitions: input shapes, the command each workload runs, and why.

Shapes are scaled down from the reference sizes so that several commands
fit in one measured run on a 2-core machine; the ratios that make each
workload's point are kept. README.md and BENCHMARK.json say why each
workload exists.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchSpec:
    """One generated similarity benchmark."""

    name: str
    n_pairs: int
    sub_vocab: int      # pairs are drawn from this many aligned words
    oov_frac: float     # share of pairs with a word outside the aligned vocab


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "search" or "apply"
    n_shared: int                 # words present in both tables
    n_text_only: int              # words only in the textual table
    n_visual_only: int            # words only in the visual table
    dim_t: int
    dim_v: int
    latent: int                   # shared latent dimensionality
    benches: tuple = ()
    config: str = ""              # apply only


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sweep_multi",
            command="search",
            n_shared=200, n_text_only=10, n_visual_only=10,
            dim_t=150, dim_v=200, latent=40,
            benches=(
                BenchSpec("men", 400, 100, 0.05),
                BenchSpec("ws353", 47, 100, 0.05),
                BenchSpec("simlex", 133, 100, 0.05),
            ),
        ),
        Workload(
            name="sweep_pairs",
            command="search",
            n_shared=600, n_text_only=0, n_visual_only=0,
            dim_t=100, dim_v=150, latent=30,
            benches=(BenchSpec("pairs", 3000, 600, 0.0),),
        ),
        Workload(
            name="apply_wide",
            command="apply",
            n_shared=400, n_text_only=1600, n_visual_only=0,
            dim_t=300, dim_v=1024, latent=60,
            config="layer_a=pca:300\nlayer_b=cca_plus_rcca:200:cca=V:rcca=T\n"
                   "layer_c=li:0.4\nridge=0.001\n",
        ),
    ]
}
