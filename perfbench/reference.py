"""A fixed reference kernel that measures how fast the machine is right now.

Timings on a shared machine drift by tens of percent over tens of
seconds, as other tenants load the cores, caches and memory the
benchmark runs on.  The reference kernel does fixed work that does not
use the library: scalar complex arithmetic in Python and NumPy complex
array passes larger than the caches, the two kinds of work the workloads
do.  The runner times it after every operation, about once per tenth of
a second of work, and rescales times by its median.

The kernel runs in processes of its own, as many as the workload keeps
busy, so the benchmark's heap and caches do not change what it measures.
Each is a fresh interpreter running this file, which answers every
``run`` line on its standard input with the kernel's wall time and ends
at ``quit`` or end of input.  Plain pipes, not a multiprocessing pool:
a pool would start a resource-tracker process that outlives the run.
"""

from __future__ import annotations

import cmath
import statistics
import subprocess
import sys
import time

import numpy as np

_X = np.linspace(-2.0, 2.0, 200_000) * (1 + 1j)
_W = np.empty_like(_X)
_R = np.empty(_X.shape)


def kernel() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t = time.perf_counter()
    z = 0.1 + 0.2j
    for _ in range(3000):
        z = cmath.exp(z) * 0.3 - 1.0
    np.exp(_X, out=_W)
    np.add(_W, 0.5, out=_W)
    np.abs(_W, out=_R)
    int(np.count_nonzero(_R > 1.0))
    return time.perf_counter() - t


class Reference:
    """Samples of the kernel's wall time, run on ``procs`` processes at once."""

    def __init__(self, procs: int):
        self.samples: list[float] = []
        self._workers: list[subprocess.Popen] = []
        try:
            for _ in range(procs):
                self._workers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True, bufsize=1))
            for w in self._workers:  # started and imported before the first sample
                if w.stdout.readline().strip() != "ready":
                    raise RuntimeError("reference worker did not start")
        except BaseException:
            self.close()
            raise

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel inside the workers, so that hand-off delays do not count."""
        for _ in range(repeats):
            for w in self._workers:
                w.stdin.write("run\n")
            self.samples.append(max(float(w.stdout.readline()) for w in self._workers))

    def median(self) -> float:
        return statistics.median(self.samples)

    def close(self) -> None:
        """Stop every worker and wait until each has ended."""
        for w in self._workers:
            try:
                w.stdin.write("quit\n")
                w.stdin.close()
            except OSError:
                pass
        for w in self._workers:
            try:
                w.wait(timeout=10)
            except subprocess.TimeoutExpired:
                w.kill()
                w.wait()
            w.stdout.close()
        self._workers = []


def _serve() -> None:
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    _serve()
