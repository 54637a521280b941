"""Set-up probe for the in-process workloads.

Usage: python3 setup_probe.py WORKLOAD SEED

Does what a user's process does before its first timed call (interpreter
start, import, config and objective build, initial ensemble) and prints
``time.perf_counter()`` at that point. The caller started the clock just
before spawning this process; on Linux both read CLOCK_MONOTONIC.
"""

import sys
import time

from workloads import WORKLOADS, unit_seed

from cbopt import RngPlan, init_ensemble, make_objective

workload = WORKLOADS[sys.argv[1]]
_, config, _ = workload.calls(unit_seed(workload.name, int(sys.argv[2]), 0))[0]
make_objective(config.objective, config.dimension)
init_ensemble(config.init, config.n_particles, config.dimension, RngPlan(config.master_seed))
print(repr(time.perf_counter()))
