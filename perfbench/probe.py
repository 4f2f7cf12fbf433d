"""Set-up probe: a fresh interpreter imports jctrap and resolves a workload's configs.

    python3 perfbench/probe.py WORKLOAD SEED

Prints one JSON line `[t_import_start, t_import_end, t_resolved]` on
CLOCK_MONOTONIC, which is shared across processes, so the parent can time
from before it started this interpreter to the resolved config.
"""
import sys
import time

import workloads


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    workload, seed = workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])
    t_import = _now()
    import jctrap.cli

    t_config = _now()
    for op in workload.ops:
        workloads.resolve(jctrap.cli, op, seed)
    print(f"[{t_import!r}, {t_config!r}, {_now()!r}]")


if __name__ == "__main__":
    main()
