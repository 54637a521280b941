"""Minor page faults per step after the first step, for each configuration
of the benchmark's single_large_n workload (N=2000, d=50, ackley), and for
its anisotropic configuration run in random batches of M=500 (gamma 0.01)
in partial and in full mode.

    python tests/step_faults.py

Each configuration runs for one step, for two steps and for its full step
budget; the difference in minor faults (``resource.getrusage``), over the
extra steps, is the count per step after the first step and after the
second. The second step can still touch fresh pages once (the allocator
moves large blocks from mmap to its heap after the first free), so both
are printed. One (N, d) array more or less per run, which the allocator's
state can decide, reads as about 15 faults per step either way. A batched
step allocates its kick's temporaries, and in partial mode a copy of the
positions, per call, so its count is the baseline that owning those
buffers would bring to about 0. Faults depend on the C library's
allocator, so the script checks nothing.
"""

import resource
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (puts this checkout's src first)

from cbopt import harness  # noqa: E402
from cbopt.batching import BatchParams, ConstantSchedule  # noqa: E402


def faults_of(config) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness.run(config)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def configurations():
    """(label, config) of every single_large_n call, then the batched runs;
    a stop_eps of 1e-300 keeps them to their step budget."""
    calls = [(label, config) for label, config, _ in WORKLOADS["single_large_n"].calls(seed=5)]
    base = dict(calls)["anisotropic/euler"]
    for mode in ("partial", "full"):
        batching = BatchParams(batch_size=500, update_mode=mode,
                               gamma_schedule=ConstantSchedule(0.01), stop_eps=1e-300)
        calls.append((f"batched M=500/{mode}", replace(base, batching=batching)))
    return calls


def main() -> None:
    print(f"{'configuration':24s} {'after step 1':>12s} {'after step 2':>12s}")
    for label, config in configurations():
        faults_of(config)  # warm-up: imports, the objective's threads, the heap
        full = faults_of(config)
        per_step = [(full - faults_of(replace(config, max_steps=k))) / (config.max_steps - k)
                    for k in (1, 2)]
        print(f"{label:24s} {per_step[0]:12.1f} {per_step[1]:12.1f}")

if __name__ == "__main__":
    main()
