"""The benchmark's own tests, on reduced configs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bench
import run
import spans as sp
import workloads
from workloads import WORKLOADS, Workload, cli_yaml

from cbopt import InitSpec, RunConfig, VariantParams, harness
from cbopt.cli import parse_config

HERE = Path(__file__).resolve().parent

REDUCED = {
    "campaign_small_n": WORKLOADS["campaign_small_n"].reduced(steps=30, runs=3),
    "single_large_n": WORKLOADS["single_large_n"].reduced(steps=2, runs=1),
    "random_batch": WORKLOADS["random_batch"].reduced(steps=40, runs=2),
    "cli_bench": WORKLOADS["cli_bench"].reduced(steps=30, runs=3),
}


def counts(job):
    summary = sp.summarize(job.spans)
    return {name: (entry["calls"], entry["work"]) for name, entry in summary.items()}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in bench.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


@pytest.mark.parametrize("name", sorted(REDUCED))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    record = bench.measure(REDUCED[name], seed=3, seconds=0.01, trace=trace, out=tmp_path)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(record["metrics"]) == [row[0] for row in table]
    for metric, unit, *_ in table:
        assert record["metrics"][metric]["unit"] == unit
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        run._report(record, bench.PER_LAYER)
    lines = text.getvalue().splitlines()
    shown = list(record["metrics"].items()) + list(record.get("reported", {}).items())
    for metric, entry in shown:
        assert any(line.startswith(f"{name} {metric} ") and f" {entry['unit']}" in line
                   for line in lines), metric
    if not trace:
        assert record["reference_samples"] > 0
        for metric, unit in bench.REPORTED:
            assert record["reported"][metric]["unit"] == unit
        assert record["reported"]["failed_frac"]["value"] == 0.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_and_crashing_runs_count_as_failed(monkeypatch):
    blowup = RunConfig(
        objective="rastrigin", dimension=2,
        params=VariantParams(sigma=1e3, dt=1.0), n_particles=5, max_steps=400,
    )
    crash = RunConfig(  # every particle at the origin: the sphere projection raises
        objective="ackley", dimension=3, params=VariantParams(variant="sphere"),
        n_particles=4, init=InitSpec("box", low=0.0, high=0.0), max_steps=5,
    )
    fine = replace(blowup, params=VariantParams(sigma=0.5), max_steps=20)
    monkeypatch.setitem(workloads._CALLS, "faulty", lambda w, seed: [
        ("blowup", replace(blowup, master_seed=seed), 2),
        ("crash", replace(crash, master_seed=seed), 3),
        ("fine", replace(fine, master_seed=seed), 5),
    ])
    w = Workload("faulty", "test", unit_s=1.0, min_units=1, steps=0, runs=0, n_particles=5)
    job = bench.in_process_job(w, seed=1, units=1, span_names=sp.TIMING_SPANS)
    assert (job.attempted, job.failed) == (10, 5)
    assert job.terminated["divergence"] == 2
    values, *_ = bench.end_to_end(job, setup=[1.0])
    assert values["failed_frac"] == 0.5
    assert any("SingularityError" in p for p in job.problems)


def test_cli_results_match_in_process_single_worker(tmp_path):
    w = REDUCED["cli_bench"]
    config, campaign = parse_config(cli_yaml(w).encode())
    label, expected, runs = w.calls(0)[0]
    assert config == expected and (campaign.runs, campaign.variants) == (
        runs, ["anisotropic", "personal_best"])
    cli = bench.cli_job(w, seed=5, units=2, spans_mode="timing", out=tmp_path)
    local = bench.in_process_job(w, seed=5, units=2, span_names=sp.TIMING_SPANS)
    assert cli.failed == local.failed == 0
    assert cli.attempted == local.attempted == 2 * 2 * w.runs
    # the digest covers every run's seed, steps, termination and final v bytes
    assert cli.digest.hexdigest() == local.digest.hexdigest()


def test_traced_counts_repeat_exactly():
    w = REDUCED["random_batch"]
    first = bench.in_process_job(w, seed=9, units=2, span_names=sp.SPAN_NAMES)
    second = bench.in_process_job(w, seed=9, units=2, span_names=sp.SPAN_NAMES)
    assert counts(first) == counts(second)
    assert counts(first)["batching.batch_consensus"][0] > 0
    assert first.digest.hexdigest() == second.digest.hexdigest()


@pytest.mark.parametrize("variant, heaviside, per_step", [
    ("anisotropic", "off", lambda n: n + 1),
    ("original", "exact", lambda n: 2 * n + 1),
    ("personal_best", "off", lambda n: 3 * n + 1),
])
def test_objective_points_follow_the_step_formula(variant, heaviside, per_step):
    n, steps = 7, 11
    config = RunConfig(
        objective="ackley", dimension=3,
        params=VariantParams(sigma=0.5, variant=variant, heaviside_mode=heaviside),
        n_particles=n, max_steps=steps, master_seed=4,
    )
    tracer = sp.Tracer()
    with sp.installed(tracer):
        result = harness.run(config)
    assert result.steps == steps
    summary = sp.summarize(tracer.columns())
    final = n + 1  # the consensus point of the final state
    assert summary["objectives.call"]["work"] == steps * per_step(n) + final
    assert summary["dynamics.step"]["calls"] == steps
    assert summary["dynamics.step"]["work"] == steps * n
    # one diffusion block per step plus the initial draw
    assert summary["ensemble.rng.generator"]["calls"] == steps + 1


def test_self_time_is_span_minus_children():
    cols = {
        "name": np.zeros(5, dtype=np.int32),
        "parent": np.array([-1, 0, 0, -1, 3]),
        "t0": np.array([0.0, 1.0, 4.0, 10.0, 11.0]),
        "t1": np.array([10.0, 3.0, 5.0, 20.0, 13.0]),
        "work": np.zeros(5, dtype=np.int64),
    }
    assert sp.self_times(cols).tolist() == [7.0, 2.0, 1.0, 8.0, 2.0]
    cols["t0"][2], cols["t1"][2] = 2.0, 4.0  # siblings overlap, as under two workers
    assert sp.self_times(cols)[0] == 7.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
