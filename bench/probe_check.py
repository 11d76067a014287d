"""Check that the speed probe (speed.py) does not depend on what the process runs.

Usage (from the repository root):

    python3 bench/probe_check.py --workload analyze-lowdim --cycles 30

With the probe sampling throughout, one process cycles through four phases
of about half a second each:

  spin     a tight integer loop with a tiny working set
  text     JSON encoding and decoding: strings and dicts, no package code
  package  the workload's jobs, caches growing as in a run
  ballast  the same jobs with 400,000 extra live Fractions (a bigger heap)

It prints the mean probe unit time of each phase and its ratio to the spin
phase.  Adjacent phases see nearly the same host speed, so over many cycles
the drift cancels; a neutral probe gives ratios near 1 for every phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PHASE_S = 0.5
BALLAST = 400_000


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import jobs as runners
    import workloads
    from speed import Speedometer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--cycles", type=int, default=30)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, 1)
    program = runners.Program()
    runs = {"analyze": runners.run_analyze, "profile": runners.run_profile,
            "screen": runners.run_screen}
    queue: list = []
    rounds = iter(range(10**9))

    def package():
        end = time.perf_counter() + PHASE_S
        while time.perf_counter() < end:
            if not queue:
                queue.extend(workload.round(next(rounds)))
            job = queue.pop()
            runs[job.kind](program, workload.specs[job.spec], job.param)

    def spin():
        end = time.perf_counter() + PHASE_S
        while time.perf_counter() < end:
            sum(k * k % 7 for k in range(20000))

    data = {str(i): [str(i) * 3, i, {"k": "v" * (i % 13)}] for i in range(2000)}

    def text():
        end = time.perf_counter() + PHASE_S
        while time.perf_counter() < end:
            json.loads(json.dumps(data, sort_keys=True))

    def ballast():
        held = [Fraction(i, i + 7) for i in range(BALLAST)]
        package()
        del held

    phases = {"spin": spin, "text": text, "package": package, "ballast": ballast}
    units = {name: [] for name in phases}
    with Speedometer() as meter:
        for _ in range(args.cycles):
            for name, phase in phases.items():
                gc.collect()
                start = meter.mark()
                phase()
                end = meter.mark()
                units[name].append((end[1] - start[1]) / (end[0] - start[0]))
    spin_mean = statistics.mean(units["spin"])
    for name, values in units.items():
        mean = statistics.mean(values)
        print(f"{name:8s} mean unit {mean * 1e3:.3f} ms  ratio to spin {mean / spin_mean:.3f}  "
              f"phase sd {statistics.stdev(values) / mean:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
