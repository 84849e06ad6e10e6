"""One fresh-interpreter set-up, timed by run.py as ``setup_s``.

Imports the CLI, parses the workload's config and, for in-process
workloads, makes the warm-up call; prints the import time in seconds.

    python3 bench/setup_child.py WORKLOAD CONFIG SCALE
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import heraldtime.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start

    from heraldtime import dataio
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]](float(sys.argv[3]))
    cfg = dataio.load_config(sys.argv[2])
    if workload.in_process:
        workload.warm_up(cfg)
    print(repr(import_s))
