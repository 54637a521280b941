"""Time the small runs of this checkout against a parent revision in one
process, alternating the two versions run by run.

    python tests/step_ab.py --parent REV [--pairs K]

The committed files of REV are unpacked into a temporary directory
(``git archive`` piped to ``tar``, as ``tests/bench_record.py`` does;
``TMPDIR`` picks where), and both trees' ``cbopt`` are imported side by
side, REV's as ``cbopt_parent`` and the checkout's as ``cbopt_change``
(the package uses only relative imports). Each variant of acceptance test
10's configuration (rastrigin, N = 10, d = 5, 1500 steps; anisotropic and
personal_best) runs K pairs at test 10's own run seeds, parent first in odd
pairs and change first in even ones, after one untimed run of each. Both
runs of a pair must end at the same bytes of the final consensus point v,
or the script stops. Per variant it prints each side's median run time
with its quartiles, the change/parent ratio of the medians and the pairs
the change ran faster.

``--parent HEAD`` on a clean checkout times the same code on both sides:
the A-against-A control that shows how far the order and the machine move
a ratio. The script is a measure, not a gate.
"""

import argparse
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

from bench_record import ROOT, spread, unpack

VARIANTS = ("anisotropic", "personal_best")


def load(src: Path, name: str):
    """The package ``cbopt`` under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "cbopt" / "__init__.py", submodule_search_locations=[str(src / "cbopt")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def config(cbopt, variant: str, seed: int):
    """Acceptance test 10's run configuration, at one of its run seeds."""
    return cbopt.RunConfig(
        objective="rastrigin",
        dimension=5,
        params=cbopt.VariantParams(
            lam=1.0, sigma=1.2, alpha=100.0, beta=100.0, dt=0.01, variant=variant),
        n_particles=10,
        init=cbopt.InitSpec("box", low=-2.0, high=2.0),
        max_steps=1500,
        master_seed=seed,
        record_every=100_000,
    )


def timed(cbopt, variant: str, seed: int):
    """One run's time in seconds and the bytes of its final consensus point."""
    cfg = config(cbopt, variant, seed)
    start = time.perf_counter()
    result = cbopt.run(cfg)
    return time.perf_counter() - start, result.final_consensus.v.tobytes()


def compare(sides: dict, variant: str, pairs: int) -> None:
    seeds = [sides["change"].RngPlan(7).run_seed(r) for r in range(pairs)]
    for cbopt in sides.values():
        timed(cbopt, variant, seeds[0])
    times = {side: [] for side in sides}
    for i, seed in enumerate(seeds, 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        ends = {}
        for side in order:
            seconds, ends[side] = timed(sides[side], variant, seed)
            times[side].append(seconds)
        if ends["parent"] != ends["change"]:
            raise SystemExit(f"{variant} pair {i} (seed {seed}): final v differs")
    for side, values in times.items():
        s = spread([1e3 * t for t in values])
        print(f"{variant:14s} {side:7s} {s['median']:7.2f} ms  [{s['q1']:.2f}, {s['q3']:.2f}]")
    ratio = spread(times["change"])["median"] / spread(times["parent"])["median"]
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"{variant:14s} change/parent {ratio:.3f}, change faster in {won} of {pairs} pairs, "
          f"final v equal in all {pairs}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare with")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="cbopt-parent-") as tmp:
        tree = Path(tmp) / "tree"
        unpack(args.parent, tree)
        sides = {"parent": load(tree / "src", "cbopt_parent"),
                 "change": load(ROOT / "src", "cbopt_change")}
        for variant in VARIANTS:
            compare(sides, variant, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
