"""Start, time and reap the benchmark's children from a small helper process.

A child's ``ru_maxrss`` includes the memory image of the process that
forked it: the kernel records that image's high-water mark when the child
calls exec. The benchmark itself holds numpy and the oracle's tables, so
children forked from it would report its size, not their own. Children are
therefore forked from this stdlib-only process, which ``run.py`` starts
before it imports anything large. Requests and results are JSON lines on
the helper's standard input and output.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv, cwd, env, log_prefix, timeout):
    """Run ``argv`` to completion; return (wall_s, cpu_s, peak_rss_mb, exit code)."""
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Spawner:
    """Client side: one helper process for the whole benchmark run."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv, cwd, env, log_prefix, timeout):
        request = {"argv": argv, "cwd": cwd, "env": env,
                   "log_prefix": log_prefix, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner helper exited")
        return tuple(json.loads(line))

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def serve():
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(**request)), flush=True)


if __name__ == "__main__":
    serve()
