"""One set-up sample, in a fresh process: seconds from ``import ltlfplan``
until the product and the constrained problem of one op are ready.

    python3 perfbench/setup_probe.py WORKLOAD OP_SEED   (src/ on PYTHONPATH)

Interpreter start and the numpy import come before the clock starts.
"""

import sys
import time

# numpy and the standard modules the benchmark's own code uses load off the clock
import contextlib, dataclasses, hashlib, itertools, statistics  # noqa: E401,F401
import numpy  # noqa: F401

t0 = time.perf_counter()
import ltlfplan  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
