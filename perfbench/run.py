"""Benchmark command for cbopt.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign_small_n, single_large_n, random_batch, cli_bench (see
workloads.py). The program is imported from ./src; nothing is installed.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the job
twice, with per-run spans only and then with a span around every layer
call, and prints the per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Exit status 2 means cbopt could not be loaded.
Details (environment, result digest, samples, problems) are also written
to perfbench/out/<workload>.trace<0|1>.json.
"""

import os

# Pinned before numpy loads, here and in every process the benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

WORKLOAD_NAMES = ("campaign_small_n", "single_large_n", "random_batch", "cli_bench")


def _report(record: dict, per_layer) -> None:
    name = record["workload"]
    print(f"# {name} seed={record['seed']} units={record['units']} "
          f"runs={record['runs']} env={json.dumps(record['env'], sort_keys=True)}")
    samples, raw = record.get("samples", {}), record.get("raw", {})
    if "slowdown" in record:
        print(f"# timings scaled to the quiet reference machine: this run's slowdown "
              f"{record['slowdown']:.4f} from {record['reference_samples']} reference samples")
    for metric, entry in list(record["metrics"].items()) + list(record.get("reported", {}).items()):
        n = f" n={samples[metric]}" if metric in samples else ""
        unscaled = f" raw={raw[metric]!r}" if raw.get(metric, entry["value"]) != entry["value"] else ""
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}{n}{unscaled}")
    for metric, _, _, moves, where in per_layer if record["trace"] else ():
        print(f"#   {metric} moves {moves} on {where}")
    print(f"{name} result_digest {record['result_digest']}")
    for problem in record["problems"]:
        print(f"{name} problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or not args.seconds > 0:
        parser.error("--seed must be in [0, 2**63) and --seconds positive")
    try:
        import bench
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot load cbopt from this checkout's src/: {err}", file=sys.stderr)
        return 2
    record = bench.measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _report(record, bench.PER_LAYER)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
