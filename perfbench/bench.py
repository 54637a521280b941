"""Measurement of one workload: set-up probes, the timed job, output checks,
end-to-end metrics and, in a traced run, per-layer metrics.

Every workload is one closed-loop client: the next campaign call (or CLI
invocation) starts when the previous one has returned. Only ``cli_bench``
starts worker processes (``CBO_THREADS=2``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spans as sp
from workloads import (
    ROOT,
    SRC,
    TERMINATIONS,
    Workload,
    check_run,
    cli_yaml,
    digest_run,
    success,
    unit_seed,
)

from cbopt import harness

HERE = Path(__file__).resolve().parent
HOOK = HERE / "clihook"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
CLI_WORKERS = 2
CLI_TIMEOUT_S = 170
# Median of spans.reference_kernel() on the reference machine when it is
# quiet; end-to-end timings are scaled to the machine speed this implies.
REFERENCE_S = 0.007

# name, unit, better, bound (share of the parent's median it may worsen by).
# Over ten seeds on the reference machine the spread (interquartile range
# over median) of a scaled timing reached 0.05-0.10 on some workload, so
# timings get the largest bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("runs_per_s", "1/s", "higher", 0.25),
    ("particle_steps_per_s", "1/s", "higher", 0.25),
    ("run_s.p50", "s", "lower", 0.25),
    ("run_s.p90", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
# Printed beside the end-to-end metrics but not gated: they depend on which
# seeds ran, not on speed, and are 0 at a correct commit or on some workloads.
REPORTED = (
    ("success_rate", "fraction"),
    ("s_per_success", "s"),
    ("failed_frac", "fraction"),
)

# name, unit, better, end-to-end metric it should move, workloads where it
# should move / where no change is predicted
PER_LAYER = (
    ("objectives.calls", "count", "lower", "particle_steps_per_s run_s.p50",
     "single_large_n campaign_small_n / no change: random_batch"),
    ("objectives.points", "count", "lower", "particle_steps_per_s run_s.p50",
     "single_large_n campaign_small_n / no change: random_batch"),
    ("objectives.points_per_particle_step", "ratio", "lower", "particle_steps_per_s run_s.p50",
     "single_large_n campaign_small_n / no change: random_batch"),
    ("objectives.self_s", "s", "lower", "particle_steps_per_s", "single_large_n"),
    ("objectives.share", "fraction", "lower", "particle_steps_per_s", "single_large_n"),
    ("consensus.calls", "count", "lower", "particle_steps_per_s", "single_large_n"),
    ("consensus.self_s", "s", "lower", "particle_steps_per_s", "single_large_n"),
    ("consensus.share", "fraction", "lower", "particle_steps_per_s", "single_large_n"),
    ("ensemble.rng.generators", "count", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("ensemble.rng.generators_per_step", "ratio", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("ensemble.rng.self_s", "s", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("ensemble.rng.share", "fraction", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("ensemble.init.self_s", "s", "lower", "setup_s", "all"),
    ("dynamics.steps", "count", "lower", "particle_steps_per_s", "single_large_n"),
    ("dynamics.self_s", "s", "lower", "particle_steps_per_s", "single_large_n"),
    ("dynamics.us_per_particle_step", "us", "lower", "particle_steps_per_s", "single_large_n"),
    ("dynamics.share", "fraction", "lower", "particle_steps_per_s", "single_large_n"),
    ("integrators.calls", "count", "lower", "particle_steps_per_s",
     "single_large_n / no change: all others"),
    ("integrators.self_s", "s", "lower", "particle_steps_per_s",
     "single_large_n / no change: all others"),
    ("integrators.share", "fraction", "lower", "particle_steps_per_s",
     "single_large_n / no change: all others"),
    ("batching.batches", "count", "lower", "particle_steps_per_s run_s.p50",
     "random_batch / no change: all others"),
    ("batching.make_batches.self_s", "s", "lower", "particle_steps_per_s run_s.p50",
     "random_batch / no change: all others"),
    ("batching.batch_consensus.self_s", "s", "lower", "particle_steps_per_s run_s.p50",
     "random_batch / no change: all others"),
    ("batching.batch_update.self_s", "s", "lower", "particle_steps_per_s run_s.p50",
     "random_batch (partial) / no change: all others"),
    ("batching.rows_updated_per_row_copied", "ratio", "higher", "particle_steps_per_s run_s.p50",
     "random_batch (partial) / no change: all others"),
    ("batching.share", "fraction", "lower", "particle_steps_per_s run_s.p50",
     "random_batch / no change: all others"),
    ("harness.run.self_s", "s", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("harness.share", "fraction", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("harness.terminated.stop_criterion", "count", "higher", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("harness.terminated.max_steps", "count", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("harness.terminated.divergence", "count", "lower", "run_s.p50 runs_per_s",
     "campaign_small_n cli_bench / no change: single_large_n"),
    ("harness.campaign.busy_share", "fraction", "higher", "wall_s", "cli_bench"),
    ("cli.load_config.self_s", "s", "lower", "setup_s wall_s", "cli_bench"),
    ("cli.cmd_bench.self_s", "s", "lower", "setup_s wall_s", "cli_bench"),
    ("cli.process_overhead_s", "s", "lower", "setup_s wall_s", "cli_bench"),
    ("trace.overhead_frac", "fraction", "lower", "-", "all"),
)


@dataclass
class Job:
    """Outputs, checks and timings of one pass over a workload's units."""

    workload: Workload
    unit_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    particle_steps: int = 0
    successes: int = 0
    terminated: dict = field(default_factory=lambda: dict.fromkeys(TERMINATIONS, 0))
    problems: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    spans: dict = None
    run_walls: list = field(default_factory=list)  # RunResult.wall_time
    reference_times: list = field(default_factory=list)  # reference_kernel() samples
    run_label: list = field(default_factory=list)  # per run: its configuration
    run_time: list = field(default_factory=list)  # per run: seconds, timed from outside
    run_reference: list = field(default_factory=list)  # per run: paired reference sample
    command_walls: list = field(default_factory=list)  # cli_bench invocations

    def add(self, config, seed, steps, terminated_by, v, positions=None, problems=()) -> None:
        self.attempted += 1
        digest_run(self.digest, seed, steps, terminated_by, v)
        if terminated_by in self.terminated:
            self.terminated[terminated_by] += 1
        problems = check_run(config, steps, terminated_by, v, positions) + list(problems)
        if problems:
            self.reject(1, f"run seed {seed}: " + "; ".join(problems))
            return
        self.steps += steps
        self.particle_steps += config.n_particles * steps
        self.successes += success(config, v)

    def fail(self, runs: int, message: str) -> None:
        """Count ``runs`` that never produced output as attempted and failed."""
        self.attempted += runs
        self.reject(runs, message)

    def reject(self, runs: int, message: str) -> None:
        self.failed += runs
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def wall(self) -> float:
        return sum(self.unit_walls)

    def time_runs(self, cols: dict, campaigns, references) -> None:
        """Record every harness.run span in ``cols``; ``campaigns`` maps a
        campaign span index to its configuration label."""
        runs = sp.indices(cols, "harness.run")
        labels = dict(campaigns)
        self.run_label += [labels[p] for p in cols["parent"][runs].tolist()]
        self.run_time += (cols["t1"][runs] - cols["t0"][runs]).tolist()
        self.run_reference += list(references)


def _env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _spawn(cmd, env, timeout=CLI_TIMEOUT_S):
    """Run ``cmd`` in its own session; on timeout kill it with any workers."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, err + "\ntimed out"
    return proc.returncode, out, err


# ---------------------------------------------------------------------------
# jobs


def in_process_job(w: Workload, seed: int, units: int, span_names, reference=False,
                   between=None) -> Job:
    """Run the units in this process; ``between(unit)`` runs after each one.

    Unit walls leave out the reference-kernel samples taken during the unit.
    """
    job = Job(w)
    tracer = sp.Tracer(reference)
    campaigns = []  # (config label, index of its campaign span)
    with sp.installed(tracer, span_names):
        for unit in range(units):
            calls = w.calls(unit_seed(w.name, seed, unit))
            done = []
            samples = len(tracer.reference_times)
            start = perf_counter()
            for label, config, runs in calls:
                campaigns.append((label, len(tracer)))
                try:
                    done.append((config, harness.run_campaign(config, runs, workers=1)))
                except Exception as err:  # a crash fails its runs, not the benchmark
                    job.fail(runs, f"{label}: {type(err).__name__}: {err}")
            job.unit_walls.append(
                perf_counter() - start - sum(tracer.reference_times[samples:]))
            for config, results in done:
                for r in results:
                    job.add(config, r.seed, r.steps, r.terminated_by,
                            r.final_consensus.v, r.final_positions)
            if between is not None:
                between(unit)
    job.spans = tracer.columns()
    job.run_walls = tracer.run_walls
    job.reference_times = tracer.reference_times
    job.time_runs(job.spans, [(index, label) for label, index in campaigns],
                  tracer.run_reference)
    return job


def cli_command(config_path: Path, seed: int, out_dir: Path) -> list:
    return [sys.executable, "-m", "cbopt", "bench", "--config", str(config_path),
            "--seed", str(seed), "--out", str(out_dir)]


def cli_job(w: Workload, seed: int, units: int, spans_mode: str, out: Path,
            reference=False, between=None) -> Job:
    """One ``cbopt bench`` invocation per unit; ``between(unit)`` runs after each.

    Workers sample the reference kernel; an invocation's wall leaves out
    their samples, shared evenly between the workers.
    """
    job = Job(w)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "bench.yaml"
    config_path.write_text(cli_yaml(w))
    parts = []
    for unit in range(units):
        s = unit_seed(w.name, seed, unit)
        unit_dir = out / f"unit{unit}"
        span_file = unit_dir / "spans.npz"
        for stale in (span_file, unit_dir / "runs.jsonl", unit_dir / "summary.csv"):
            stale.unlink(missing_ok=True)
        env = _env(CBO_THREADS=str(CLI_WORKERS), PERFBENCH_SPAN_FILE=str(span_file),
                   PERFBENCH_SPANS=spans_mode, PERFBENCH_REFERENCE=str(int(reference)))
        env["PYTHONPATH"] += os.pathsep + str(HOOK)
        start = perf_counter()
        code, _, err = _spawn(cli_command(config_path, s, unit_dir), env)
        job.unit_walls.append(perf_counter() - start)
        configs = {label: config for label, config, _ in w.calls(s)}
        if code != 0:
            job.fail(w.runs * len(configs), f"cbopt bench exited {code}: {err.strip()[-400:]}")
        else:
            _check_cli_output(job, configs, w.runs, unit_dir)
            with np.load(span_file) as data:
                cols = {key: data[key] for key in sp.COLUMNS}
                job.run_walls += data["run_walls"].tolist()
                samples = data["reference_times"].tolist()
                references = data["run_reference"].tolist()
            job.reference_times += samples
            job.unit_walls[-1] -= sum(samples) / CLI_WORKERS
            # cmd_bench runs the variants' campaigns in sorted order
            job.time_runs(cols, zip(sp.indices(cols, "harness.campaign"), sorted(configs)),
                          references)
            parts.append(cols)
            job.command_walls.append(job.unit_walls[-1])
        if between is not None:
            between(unit)
    job.spans = sp.concat(parts) if parts else sp.Tracer().columns()
    return job


def _check_cli_output(job: Job, configs: dict, runs: int, unit_dir: Path) -> None:
    """One runs.jsonl line per run and variant; CSV rates match the flags."""
    expected = runs * len(configs)
    records = [json.loads(line) for line in
               (unit_dir / "runs.jsonl").read_text().splitlines() if line]
    if len(records) != expected:
        job.fail(expected, f"runs.jsonl has {len(records)} lines, expected {expected}")
        return
    if sorted({rec["variant"] for rec in records}) != sorted(configs):
        job.fail(expected, "runs.jsonl variants do not match the campaign")
        return
    flags = {variant: [] for variant in configs}
    for rec in records:
        config = configs[rec["variant"]]
        agrees = rec["success"] == success(config, rec["final_v_f"])
        flags[rec["variant"]].append(rec["success"])
        job.add(config, rec["run_seed"], rec["steps"], rec["terminated_by"], rec["final_v_f"],
                problems=() if agrees else ("success flag disagrees with final_v_f",))
    rows = list(csv.DictReader(io.StringIO((unit_dir / "summary.csv").read_text())))
    if sorted(row["variant"] for row in rows) != sorted(configs):
        job.reject(expected, "summary.csv variants do not match the campaign")
    for row in rows:
        if float(row["success_rate"]) != float(np.mean(flags.get(row["variant"], [np.nan]))):
            job.reject(runs, f"summary.csv success_rate of {row['variant']} "
                             "is not the mean of the runs.jsonl flags")


def run_job(w: Workload, seed: int, seconds: float, traced: bool, out: Path,
            reference=False, between=None) -> Job:
    units = w.units(seconds)
    if w.name == "cli_bench":
        return cli_job(w, seed, units, "full" if traced else "timing", out / w.name,
                       reference, between)
    return in_process_job(w, seed, units, sp.SPAN_NAMES if traced else sp.TIMING_SPANS,
                          reference, between)


# ---------------------------------------------------------------------------
# set-up time


class SetupProbes:
    """Set-up time: seconds from spawning a fresh process to its first
    timed call, measured ``SETUP_PROBES`` times spread over the job."""

    def __init__(self, w: Workload, seed: int, units: int, out: Path):
        self.w, self.seed, self.units = w, seed, units
        self.times = []
        if w.name == "cli_bench":
            self.probe_dir = out / w.name / "setup"
            self.probe_dir.mkdir(parents=True, exist_ok=True)
            self.config_path = self.probe_dir / "setup.yaml"
            self.config_path.write_text(cli_yaml(w, steps=1, runs=1))

    def after_unit(self, unit: int) -> None:
        while len(self.times) < round(SETUP_PROBES * (unit + 1) / self.units):
            self.times.append(self.probe())

    def probe(self) -> float:
        if self.w.name == "cli_bench":
            start = perf_counter()
            code, _, err = _spawn(cli_command(self.config_path, self.seed, self.probe_dir),
                                  _env(CBO_THREADS=str(CLI_WORKERS)))
            end = perf_counter()
        else:
            start = perf_counter()
            code, stdout, err = _spawn(
                [sys.executable, str(HERE / "setup_probe.py"), self.w.name, str(self.seed)],
                _env())
            end = float(stdout) if code == 0 else 0.0
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {err.strip()[-400:]}")
        return end - start


# ---------------------------------------------------------------------------
# metrics


def scaled_run_times(job: Job) -> np.ndarray:
    """Each run's seconds at the quiet reference machine's speed: scaled by
    the reference sample its process took just before it."""
    raw = np.asarray(job.run_time)
    if not job.run_reference:  # the job ran without reference samples
        return raw
    if len(job.run_reference) != raw.size:
        raise RuntimeError(f"{raw.size} runs but {len(job.run_reference)} paired samples")
    return raw * REFERENCE_S / np.asarray(job.run_reference)


def run_quantiles(job: Job, times: np.ndarray) -> tuple:
    """(p50, p90) of per-run seconds.

    The median is taken per configuration and then averaged: on an even mix
    of two configurations with different costs, a pooled median falls in the
    gap between them. p90 is pooled, so that at least ten of the 100+ runs
    lie beyond it.
    """
    if not times.size:
        return float("nan"), float("nan")
    labels = np.asarray(job.run_label)
    medians = [np.median(times[labels == label]) for label in dict.fromkeys(job.run_label)]
    return float(np.mean(medians)), float(np.percentile(times, 90))


def end_to_end(job: Job, setup: list) -> tuple:
    """Metric values at the quiet reference machine's speed, the raw values,
    the slowdown between them, and sample counts."""
    scaled = scaled_run_times(job)
    # Whole-job timings are scaled by the run-time-weighted slowdown.
    factor = float(sum(job.run_time) / scaled.sum()) if scaled.size else 1.0
    who = resource.RUSAGE_CHILDREN if job.workload.name == "cli_bench" else resource.RUSAGE_SELF
    wall = job.wall
    done = job.attempted - job.failed
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "runs_per_s": job.attempted / wall,
        "particle_steps_per_s": job.particle_steps / wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "success_rate": job.successes / done if done else 0.0,
        "s_per_success": wall / job.successes if job.successes else float("inf"),
        "failed_frac": job.failed / job.attempted,
    }
    raw["run_s.p50"], raw["run_s.p90"] = run_quantiles(job, np.asarray(job.run_time))
    metrics = dict(raw)
    metrics["run_s.p50"], metrics["run_s.p90"] = run_quantiles(job, scaled)
    for name in ("setup_s", "wall_s", "s_per_success"):
        metrics[name] = raw[name] / factor
    for name in ("runs_per_s", "particle_steps_per_s"):
        metrics[name] = raw[name] * factor
    configs = len(set(job.run_label))
    samples = {"setup_s": len(setup), "wall_s": len(job.unit_walls),
               "run_s.p50": f"{scaled.size} in {configs} configs", "run_s.p90": scaled.size}
    return metrics, raw, factor, samples


def per_layer(job: Job, untraced_wall: float) -> dict:
    w = job.workload
    summary = sp.summarize(job.spans)
    busy = sum(entry["self_s"] for entry in summary.values())

    def calls(*names):
        return sum(summary[name]["calls"] for name in names)

    def work(name):
        return summary[name]["work"]

    def layer(name):
        return sum(entry["self_s"] for span, entry in summary.items()
                   if sp.LAYER_OF[span] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    cli = w.name == "cli_bench"
    selfs = {name: layer(name) for name in ("objectives", "consensus", "ensemble.rng",
                                             "dynamics", "integrators", "batching", "harness")}
    m = {f"{name}.share": ratio(value, busy) for name, value in selfs.items()}
    m.update({
        "objectives.calls": calls("objectives.call"),
        "objectives.points": work("objectives.call"),
        "objectives.points_per_particle_step": ratio(work("objectives.call"), job.particle_steps),
        "objectives.self_s": selfs["objectives"],
        "consensus.calls": calls("consensus.weighted_mean", "consensus.consensus_from_values"),
        "consensus.self_s": selfs["consensus"],
        "ensemble.rng.generators": calls("ensemble.rng.generator"),
        "ensemble.rng.generators_per_step": ratio(calls("ensemble.rng.generator"), job.steps),
        "ensemble.rng.self_s": selfs["ensemble.rng"],
        "ensemble.init.self_s": layer("ensemble.init"),
        "dynamics.steps": calls("dynamics.step"),
        "dynamics.self_s": selfs["dynamics"],
        "dynamics.us_per_particle_step": 1e6 * ratio(selfs["dynamics"], work("dynamics.step")),
        "integrators.calls": calls("integrators.split_drift", "integrators.split_diffusion",
                                   "integrators.frozen_gbm"),
        "integrators.self_s": selfs["integrators"],
        "batching.batches": calls("batching.batch_consensus"),
        "batching.make_batches.self_s": summary["batching.make_batches"]["self_s"],
        "batching.batch_consensus.self_s": summary["batching.batch_consensus"]["self_s"],
        "batching.batch_update.self_s": summary["batching.batch_update"]["self_s"],
        "batching.rows_updated_per_row_copied": ratio(
            work("batching.batch_update"), calls("batching.batch_update") * w.n_particles),
        "harness.run.self_s": summary["harness.run"]["self_s"],
        "harness.campaign.busy_share": ratio(
            sum(job.run_walls),
            (CLI_WORKERS if cli else 1) * summary["harness.campaign"]["total_s"]),
        "cli.load_config.self_s": summary["cli.load_config"]["self_s"],
        "cli.cmd_bench.self_s": summary["cli.cmd_bench"]["self_s"],
        "cli.process_overhead_s": float(statistics.median(
            np.subtract(job.command_walls, sp.durations(job.spans, "cli.cmd_bench"))
        )) if job.command_walls else 0.0,
        "trace.overhead_frac": job.wall / untraced_wall - 1.0,
    })
    for kind in TERMINATIONS:
        m[f"harness.terminated.{kind}"] = job.terminated[kind]
    return {name: m[name] for name, *_ in PER_LAYER}


# ---------------------------------------------------------------------------
# entry


def environment() -> dict:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches_cpu0": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cli_workers": CLI_WORKERS,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """Run one workload; return the result record (see run.py for its shape)."""
    name = w.name
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "units": w.units(seconds), "env": environment()}
    if not trace:
        probes = SetupProbes(w, seed, w.units(seconds), out)
        job = run_job(w, seed, seconds, False, out, reference=True, between=probes.after_unit)
        values, raw, factor, samples = end_to_end(job, probes.times)
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit, *_ in END_TO_END}
        record.update(reported={metric: {"value": values[metric], "unit": unit}
                                for metric, unit in REPORTED},
                      raw=raw, slowdown=factor, samples=samples,
                      reference_samples=len(job.reference_times), setup_samples=probes.times)
        correct = job.failed == 0
    else:
        plain = run_job(w, seed, seconds, False, out)
        job = run_job(w, seed, seconds, True, out)
        values = per_layer(job, plain.wall)
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit, *_ in PER_LAYER}
        same = plain.digest.hexdigest() == job.digest.hexdigest()
        if not same:
            job.problems.append("traced and untraced runs produced different results")
        correct = job.failed == 0 and plain.failed == 0 and same
        np.savez_compressed(out / f"{name}.spans.npz", span_names=np.array(sp.SPAN_NAMES),
                            **job.spans)
    record.update(correct=correct, attempted=job.attempted, failed=job.failed,
                  metrics=metrics, result_digest=job.digest.hexdigest(),
                  problems=job.problems, runs=job.attempted, steps=job.steps,
                  particle_steps=job.particle_steps)
    (out / f"{name}.trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record
