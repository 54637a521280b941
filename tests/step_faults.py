"""Minor page faults per step inside one run, and the run's allocation peak,
for each configuration of the benchmark's single_large_n workload (N=2000,
d=50, ackley), and for its anisotropic configuration run in random batches
of M=500 (gamma 0.01) in partial and in full mode.

    python tests/step_faults.py

The run loop computes a consensus point at the start of every step, through
the `harness` globals `weighted_mean` (a plain step, and the final state)
and `batch_consensus` (a batch, or a group of batches). The script wraps
both and reads the process's minor faults (``resource.getrusage``) at each
call, beside the step count of the ensemble the call is given. The faults
between two calls belong to the steps between them: one plain step, or the
members of a group of batches, which step at once and share its faults
evenly. Each configuration runs once to warm up (imports, the objective's
threads, the heap) and once measured. The columns are the mean faults per
step over the steps from step 1 and from step 2 on; a group counts in a
column when its first member does. The second step can still touch fresh
pages once (the allocator moves large blocks from mmap to its heap after
the first free), so both are printed. A batched step takes its noise from
the run's draw and writes its kick's first temporary into the run's
scratch array; in partial mode it still copies the whole positions, since
every step returns a new array. The last column is the traced allocation
peak (``tracemalloc``) of one more run, in units of N d 8 bytes: the
working set of (N, d) arrays a run holds at once, helper threads'
allocations included. Faults depend on the C
library's allocator, so the script checks nothing.
"""

import resource
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (puts this checkout's src first)

from cbopt import harness  # noqa: E402
from cbopt.batching import BatchParams, ConstantSchedule  # noqa: E402

STEP_STARTS = ("weighted_mean", "batch_consensus")


def stretches(config):
    """(first step, steps, faults) of each stretch of one run of `config`
    between two consensus calls of its loop."""
    samples = []

    def sampled(fn):
        def call(e, *args, **kwargs):
            samples.append((e.step_count, resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
            return fn(e, *args, **kwargs)
        return call

    originals = {name: getattr(harness, name) for name in STEP_STARTS}
    try:
        for name, fn in originals.items():
            setattr(harness, name, sampled(fn))
        harness.run(config)
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
    return [(k, last - k, after - before)
            for (k, before), (last, after) in zip(samples, samples[1:]) if last > k]


def per_step(stretches, first: int) -> float:
    """Mean faults per step over the stretches that start at `first` or later."""
    kept = [(steps, faults) for k, steps, faults in stretches if k >= first]
    return sum(faults for _, faults in kept) / sum(steps for steps, _ in kept)


def peak(config) -> float:
    """Traced allocation peak of one run of `config`, in N d 8 bytes."""
    tracemalloc.start()
    try:
        harness.run(config)
        return tracemalloc.get_traced_memory()[1] / (config.n_particles * config.dimension * 8)
    finally:
        tracemalloc.stop()


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
    print(f"{'configuration':24s} {'from step 1':>12s} {'from step 2':>12s} {'peak (N d 8)':>13s}")
    for label, config in configurations():
        stretches(config)  # warm-up: imports, the objective's threads, the heap
        measured = stretches(config)
        print(f"{label:24s} {per_step(measured, 1):12.1f} {per_step(measured, 2):12.1f} "
              f"{peak(config):13.2f}")


if __name__ == "__main__":
    main()
