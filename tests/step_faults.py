"""Minor page faults per step after the first step, for each configuration
of the benchmark's single_large_n workload (N=2000, d=50, ackley).

    python tests/step_faults.py

Each configuration runs for one step, for two steps and for its full step
budget; the difference in minor faults (``resource.getrusage``), over the
extra steps, is the count per step after the first step and after the
second. The second step can still touch fresh pages once (the allocator
moves large blocks from mmap to its heap after the first free, and
personal_best fills its second memory buffer), so both are printed. One
(N, d) array more or less per run, which the allocator's state can decide,
reads as about 15 faults per step either way. Faults depend on the C
library's allocator, so the script checks nothing.
"""

import resource
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (puts this checkout's src first)

from cbopt import harness  # noqa: E402


def faults_of(config) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness.run(config)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main() -> None:
    print(f"{'configuration':20s} {'after step 1':>12s} {'after step 2':>12s}")
    for label, config, _ in WORKLOADS["single_large_n"].calls(seed=5):
        faults_of(config)  # warm-up: imports, the objective's threads, the heap
        full = faults_of(config)
        per_step = [(full - faults_of(replace(config, max_steps=k))) / (config.max_steps - k)
                    for k in (1, 2)]
        print(f"{label:20s} {per_step[0]:12.1f} {per_step[1]:12.1f}")

if __name__ == "__main__":
    main()
