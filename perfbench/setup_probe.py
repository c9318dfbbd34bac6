"""Time one fresh set-up of a workload: the imports plus its first, small
call.  Prints the seconds; ``run.py`` runs it several times and takes the
median.

    python3 perfbench/setup_probe.py orient-trials
"""

import time

_t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import benchenv  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    wl = workloads.make(sys.argv[1], benchenv.OUT / f"work-{os.getpid()}")
    try:
        wl.warm_up()
    finally:
        close = getattr(wl, "close", None)
        if close:
            close()
    print(time.perf_counter() - _t0)
