"""End-to-end benchmark of mmfuse commands on seeded inputs.

One client runs the workload's command (``python -m mmfuse.cli ...`` with
``PYTHONPATH=src``) in a fresh process, waits for it, checks its outputs
and starts the next one (a closed loop), for ``--seconds`` seconds. BLAS
threading is left at the machine's default and recorded with the results.

``--trace 0`` prints the end-to-end metrics of untraced commands.
``--trace 1`` alternates untraced commands with commands run through
``traced.py`` and prints the per-layer metrics. The last line of standard
output is one JSON object; results, environment and spans are also written
under ``.perfbench_work/`` in the repository root. See README.md.

This entry point stays small: it starts the spawner helper before
``bench`` imports numpy (see ``spawner.py``).

Usage, from the repository root:
    python3 perfbench/run.py --workload sweep_multi --seed 1 --seconds 35 --trace 0
"""

import argparse
import os
import sys
import time

from spawner import Spawner
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mmfuse", "cli.py")):
        print(f"error: no mmfuse sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    spawner = Spawner()
    try:
        import bench

        return bench.run(args, root, started, spawner)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
