"""Child processes started by the benchmark worker.

    child.py probe LIMIT_MIB ARGS...
        Caps this process's own address space at LIMIT_MIB, then runs
        `fermient ARGS...` and exits with its code; an allocation past
        the cap raises instead of exhausting the machine.
    child.py eigen N REPEATS
        Times REPEATS dense eigensolves of the n = N half-filled lattice
        block at the BLAS thread count set in the environment and prints
        the median in seconds.
"""

import resource
import statistics
import sys
import time


def probe(limit_mib: int, argv) -> int:
    limit = limit_mib * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from fermient.cli import main
    return main(argv)


def eigen(n: int, repeats: int) -> int:
    import math

    import numpy as np
    from fermient import lattice_correlation

    matrix = lattice_correlation(math.pi / 2.0, n).matrix
    np.linalg.eigvalsh(matrix)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.eigvalsh(matrix)
        times.append(time.perf_counter() - start)
    print(statistics.median(times))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(probe(int(rest[0]), rest[1:]))
    if mode == "eigen":
        sys.exit(eigen(int(rest[0]), int(rest[1])))
    sys.exit(f"unknown mode {mode!r}")
