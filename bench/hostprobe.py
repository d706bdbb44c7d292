"""Reference kernels that use nothing of qnonloc, timed in CPU seconds.

    python3 bench/hostprobe.py KERNEL...

A helper process of run.py: for each line it reads on standard input it runs
one round of the named kernels and writes one JSON object of their CPU times
(its own and its children's) as a line on standard output; it ends at the end
of its input.  It runs in a process of its own so that its arrays never count
in the benchmark's peak resident memory.  The kernels cover the kinds of
work qnonloc does: tuples and sets in the interpreter and an integer loop
(lattice, verifier), SVDs of three sizes (the oracle's folding and final
SVD), a pass over and a random gather from a 64 MB array (the oracle's
memory traffic), and a fresh interpreter that imports numpy (the start of
every qnonloc process).
"""

import itertools
import json
import resource
import subprocess
import sys
import time

import numpy as np


def cpu_clock() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernels() -> dict:
    rng = np.random.default_rng(0)
    small = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    mid = rng.standard_normal((640, 320))
    large = rng.standard_normal((1200, 400))
    big = rng.standard_normal(8_000_000)
    out = np.empty_like(big)
    index = rng.integers(0, big.size, 1_000_000)
    tuples = list(itertools.product(range(4), repeat=7))

    def sets_by_digit_sum():
        by_label = {}
        for t in tuples:
            by_label.setdefault(sum(t) % 4, set()).add(t)
        sum(1 for t in tuples if t[::-1] in by_label[sum(t) % 4])

    def loop():
        acc = 0
        for i in range(240000):
            acc += i * i

    return {"tuples": sets_by_digit_sum, "loop": loop,
            "svd_small": lambda: np.linalg.svd(small),
            "svd_mid": lambda: np.linalg.svd(mid, full_matrices=False),
            "svd_large": lambda: np.linalg.svd(large, full_matrices=False),
            "stream": lambda: np.multiply(big, 1.0001, out=out),
            "gather": lambda: np.take(big, index),
            "spawn": lambda: subprocess.run([sys.executable, "-c", "import numpy"],
                                            check=True, timeout=60)}


def main() -> int:
    suite = {name: kernel for name, kernel in kernels().items() if name in sys.argv[1:]}
    for _ in sys.stdin:
        times = {}
        for name, kernel in suite.items():
            c0 = cpu_clock()
            kernel()
            times[name] = cpu_clock() - c0
        print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
