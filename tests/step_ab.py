"""Time the small runs and the batched runs of this checkout against a
parent revision in one process, with an A-against-A control, the three
taking turns run by run.

    python tests/step_ab.py --parent REV [--pairs K]

The committed files of REV are unpacked into a temporary directory
(``git archive`` piped to ``tar``, as ``tests/bench_record.py`` does;
``TMPDIR`` picks where), and the trees' ``cbopt`` are imported side by
side: REV's as ``cbopt_parent``, and the checkout's twice, as
``cbopt_change`` and ``cbopt_control`` (the package uses only relative
imports). Four configurations run: both variants of acceptance test 10's
(rastrigin, N = 10, d = 5, 1500 steps; anisotropic and personal_best), and
the benchmark's random_batch runs in partial and in full mode (rastrigin,
N = 200, d = 10, batches of M = 10, constant gamma 0.1, 200 steps). Each
runs K rounds at test 10's run seeds, one run of each side a round, after
one untimed run of each; the order of the three rotates from round to
round, so each side runs first, second and third equally often. The runs
of a round must give the same result byte for byte, or the script stops:
the steps and the ending, every trajectory point (its v, its recorded
f(v), mean and variance), the final consensus point with its f(v), and the
final positions.
Per configuration it prints each side's median run time with its quartiles, the
change/parent ratio of the medians with the rounds the change ran faster,
and beside it the control/change ratio with the rounds the control ran
faster: the same code on both sides, so its distance from 1 is how far the
order, the import and the machine move a ratio in this run. The script is
a measure, not a gate.
"""

import argparse
import importlib.util
import struct
import sys
import tempfile
import time
from pathlib import Path

from bench_record import ROOT, spread, unpack

CONFIGS = ("anisotropic", "personal_best", "partial", "full")


def load(src: Path, name: str):
    """The package ``cbopt`` under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "cbopt" / "__init__.py", submodule_search_locations=[str(src / "cbopt")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def config(cbopt, name: str, seed: int):
    """Acceptance test 10's run configuration for variant `name`, or the
    random_batch workload's for update mode `name`, at one run seed."""
    if name in ("partial", "full"):
        return cbopt.RunConfig(
            objective="rastrigin",
            dimension=10,
            params=cbopt.VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
            batching=cbopt.BatchParams(batch_size=10, update_mode=name,
                                       gamma_schedule=cbopt.ConstantSchedule(0.1)),
            n_particles=200,
            init=cbopt.InitSpec("box", low=-2.0, high=2.0),
            max_steps=200,
            master_seed=seed,
            record_every=100_000,
        )
    return cbopt.RunConfig(
        objective="rastrigin",
        dimension=5,
        params=cbopt.VariantParams(
            lam=1.0, sigma=1.2, alpha=100.0, beta=100.0, dt=0.01, variant=name),
        n_particles=10,
        init=cbopt.InitSpec("box", low=-2.0, high=2.0),
        max_steps=1500,
        master_seed=seed,
        record_every=100_000,
    )


def result_bytes(result) -> bytes:
    """Everything a run's result holds but its wall time, as bytes."""
    final = result.final_consensus
    parts = [f"{result.steps} {result.terminated_by} {result.seed}".encode(),
             final.v.tobytes(), struct.pack("<d", final.f_at_v), result.final_positions.tobytes()]
    for point in result.trajectory:
        parts += [struct.pack("<qddd", point.step, point.time, point.f_at_v, point.variance),
                  point.v.tobytes(), point.mean.tobytes()]
    return b"".join(parts)


def timed(cbopt, name: str, seed: int):
    """One run's time in seconds and the bytes of its result."""
    cfg = config(cbopt, name, seed)
    start = time.perf_counter()
    result = cbopt.run(cfg)
    return time.perf_counter() - start, result_bytes(result)


def ratio(times: dict, a: str, b: str) -> str:
    """The a/b ratio of the median run times, and the rounds a ran faster."""
    won = sum(x < y for x, y in zip(times[a], times[b]))
    value = spread(times[a])["median"] / spread(times[b])["median"]
    return f"{a}/{b} {value:.3f} ({a} faster in {won} of {len(times[a])})"


def compare(sides: dict, name: str, pairs: int) -> None:
    seeds = [sides["change"].RngPlan(7).run_seed(r) for r in range(pairs)]
    for cbopt in sides.values():
        timed(cbopt, name, seeds[0])
    names = list(sides)
    times = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        ends = set()
        for side in names[i % len(names):] + names[:i % len(names)]:
            seconds, end = timed(sides[side], name, seed)
            times[side].append(seconds)
            ends.add(end)
        if len(ends) > 1:
            raise SystemExit(f"{name} round {i + 1} (seed {seed}): the results differ")
    for side, values in times.items():
        s = spread([1e3 * t for t in values])
        print(f"{name:14s} {side:7s} {s['median']:7.2f} ms  [{s['q1']:.2f}, {s['q3']:.2f}]")
    print(f"{name:14s} {ratio(times, 'change', 'parent')}, {ratio(times, 'control', 'change')}, "
          f"results equal in all {pairs}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare with")
    parser.add_argument("--pairs", type=int, default=20, help="rounds per configuration")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="cbopt-parent-") as tmp:
        tree = Path(tmp) / "tree"
        unpack(args.parent, tree)
        sides = {"parent": load(tree / "src", "cbopt_parent"),
                 "change": load(ROOT / "src", "cbopt_change"),
                 "control": load(ROOT / "src", "cbopt_control")}
        for name in CONFIGS:
            compare(sides, name, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
