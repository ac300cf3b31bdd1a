"""One cold set-up of the gcwaves pipeline, timed from inside a fresh process.

    python3 bench/setup_probe.py <src-dir>

Imports gcwaves from <src-dir>, finds the critical point and computes
the NLS coefficients at the benchmark parameters, then prints one JSON
line with the CLOCK_MONOTONIC reading at the ready point (comparable with
the parent's spawn time) and the duration of each step.
"""

import json
import sys
import time

PARAMS = (0.5, 0.17, 0.17)  # the benchmark's parameters, as in workloads.py


def main(src: str):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import gcwaves
    t1 = time.perf_counter()
    p = gcwaves.Params(*PARAMS)
    rep = gcwaves.find_critical(p)
    t2 = time.perf_counter()
    gcwaves.compute_coefficients(p, rep.crit)
    t3 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"ready_monotonic": ready, "import_s": t1 - t0,
                      "find_critical_s": t2 - t1,
                      "compute_coefficients_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
