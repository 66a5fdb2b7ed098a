"""A fixed reference computation that times the machine, not optmean.

The benchmark keeps one ``probe.py --serve`` process beside its own and has
it run ``kernel`` just before and just after every invocation it times (a
helper, so that numpy stays out of the benchmark process, whose memory every
child it forks would count towards its peak RSS). The kernel draws a block of Philox variates,
transforms them with ndtri, sorts and reduces them, as the Monte Carlo
moments do, and runs small array operations in an interpreted loop, as the
quadrature does. It never calls optmean, so no change to the package moves
its time; its time says how fast the machine was around each invocation.

    python3 perfbench/probe.py          # prints the kernel's best time of 20
    python3 perfbench/probe.py --serve  # one kernel time per input line
"""

import sys
import time

import numpy as np
from scipy import special

_GRID = np.linspace(0.001, 0.999, 64)


def _work() -> float:
    rng = np.random.Generator(np.random.Philox(20151))
    x = np.sort(special.ndtri(rng.random((6000, 101))), axis=1)
    total = float(x.mean(axis=0)[50])
    for _ in range(3000):
        total += float(np.dot(special.ndtri(_GRID), _GRID))
    return total


def kernel() -> float:
    """Wall time of one run of the reference computation, in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def serve():
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        print(f"{min(kernel() for _ in range(20)):.6f}")
