"""Set-up probe: import mmfuse, then load and align a workload's inputs.

Run in a fresh interpreter; its wall time from spawn to exit is one
``setup_s`` sample. It stops before the first fit.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py TEXT_VECS IMAGE_VECS [BENCH...]
"""

import sys

import mmfuse


def main(argv):
    textual = mmfuse.load_embeddings(argv[0], name="textual")
    visual = mmfuse.load_embeddings(argv[1], name="visual")
    mmfuse.align_vocabularies(textual, visual)
    for path in argv[2:]:
        mmfuse.load_benchmark(path)


if __name__ == "__main__":
    main(sys.argv[1:])
