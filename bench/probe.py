"""One fresh-process set-up of an in-process workload; prints its seconds.

    python3 bench/probe.py exact-series

Set-up is the library import plus the workload's cache warm-up, timed the
same way as the set-up inside bench/run.py.
"""

import sys
import time

start = time.perf_counter()
import library  # noqa: E402  (the import is part of what is timed)

library.warm_up(sys.argv[1])
print(time.perf_counter() - start)
