"""Record the benchmark of this checkout in one JSON file, and optionally
compare it with a parent revision in alternating pairs.

    python tests/bench_record.py --out BENCH_<pr>.json [--seed 1] [--parent REV --pairs K]

Every workload of ``BENCHMARK.json`` runs through ``perfbench/run.py`` for
the benchmark's ``run_seconds``, once at ``--trace 0`` and once at
``--trace 1``; the file holds each job's record verbatim (what run.py
writes to ``perfbench/out/<workload>.trace<0|1>.json``), the git revision
and the golden math fingerprint of ``tests/test_golden.py``.

With ``--parent REV --pairs K`` the committed files of REV are unpacked
into a temporary directory (``git archive`` piped to ``tar``, offline;
``TMPDIR`` picks where) and each workload runs K pairs of ``--trace 0``
jobs, one process each, parent first in odd pairs and change first in even
ones, since the order inside a pair moves a timing by several percent. For each
end-to-end metric of ``BENCHMARK.json`` the file holds both sides' values,
medians and quartiles, the change/parent ratio of the medians and the
number of pairs the change won in the metric's better direction, and it
says whether both sides gave the same ``result_digest``.

The script only runs ``perfbench/run.py`` and reads its records: it defines
no metric, bound or gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def revision() -> dict:
    """HEAD of the checkout, and whether its working tree differs from it."""
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def fingerprint() -> str:
    """The golden tests' math fingerprint of numpy on this machine."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_golden import math_fingerprint
    return math_fingerprint()


def job(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py process in `checkout`; its record, as run.py wrote it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads((checkout / "perfbench" / "out" / f"{workload}.trace{trace}.json")
                      .read_text())


def unpack(rev: str, into: Path) -> None:
    """The committed files of `rev` in `into`."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} exited {archive.returncode}")


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list) -> dict:
    """Per end-to-end metric: both sides, the ratio of medians and the pairs won."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        higher = metric["better"] == "higher"
        won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        pa, pb = spread(a), spread(b)
        out[name] = {"unit": metric["unit"], "better": metric["better"], "parent": pa,
                     "change": pb, "ratio": pb["median"] / pa["median"] if pa["median"] else None,
                     "won": won, "pairs": len(a)}
    return out


def pairs(parent_tree: Path, workload: str, seed: int, k: int) -> dict:
    sides = {"parent": [], "change": []}
    for i in range(1, k + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            sides[side].append(job(parent_tree if side == "parent" else ROOT, workload, seed, 0))
        print(f"# {workload} pair {i}/{k}: runs_per_s parent "
              f"{sides['parent'][-1]['metrics']['runs_per_s']['value']:.4g} change "
              f"{sides['change'][-1]['metrics']['runs_per_s']['value']:.4g}", flush=True)
    digests = {side: sorted({r["result_digest"] for r in records})
               for side, records in sides.items()}
    return {"pairs": k, "digests": digests,
            "digests_match": digests["parent"] == digests["change"],
            "correct": all(r["correct"] for records in sides.values() for r in records),
            "metrics": compare(sides["parent"], sides["change"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", help="revision to compare with, in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.parent is not None and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    started = time.time()
    record = {
        "revision": revision(),
        "fingerprint": fingerprint(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "command": ["python", "tests/bench_record.py",
                    *(argv if argv is not None else sys.argv[1:])],
        "seed": args.seed,
        "seconds": SECONDS,
        "records": {},
    }
    for workload in WORKLOADS:
        record["records"][workload] = {f"trace{t}": job(ROOT, workload, args.seed, t)
                                       for t in (0, 1)}
        print(f"# {workload} recorded", flush=True)
    if args.parent is not None:
        with tempfile.TemporaryDirectory(prefix="cbopt-parent-") as tmp:
            record["parent"] = {"rev": args.parent, "commit": git("rev-parse", args.parent),
                                "workloads": {}}
            tree = Path(tmp) / "tree"
            unpack(args.parent, tree)
            for workload in WORKLOADS:
                record["parent"]["workloads"][workload] = pairs(
                    tree, workload, args.seed, args.pairs)
    record["elapsed_s"] = round(time.time() - started, 1)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in record.get("parent", {}).get("workloads", {}).items():
        m = result["metrics"]["runs_per_s"]
        print(f"{workload} runs_per_s parent {m['parent']['median']:.4g} "
              f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] change "
              f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}] "
              f"ratio {m['ratio']:.4f} won {m['won']}/{m['pairs']} "
              f"digests {'match' if result['digests_match'] else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
