"""CLI tests: config validation, exit codes, output determinism, and the
bench/diagnose surfaces."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml

from cbopt import cli
from cbopt.batching import BatchParams
from cbopt.cli import SCHEMA, ConfigError, ConfigLoader, main, parse_config
from cbopt.dynamics import VariantParams
from cbopt.ensemble import STREAM_INIT, InitSpec, RngPlan
from cbopt.harness import CampaignSpec, RunConfig
from cbopt.objectives import ObjectiveFunction

MINIMAL = """\
objective:
  name: ackley
  dimension: 2
variant:
  kind: anisotropic
"""

FULL = """\
objective:
  name: rastrigin
  dimension: 3
variant:
  kind: anisotropic
  heaviside: off
  integrator: euler
params:
  lambda: 1.0
  sigma: 0.6
  alpha: 20.0
  dt: 0.01
  epsilon: 0.001
  beta: 2.0
batching:
  batch_size: 4
  update_mode: partial
  gamma: 0.01
  sigma: 0.6
  stop_eps: 1.0e-12
  max_epochs: 50
harness:
  n_particles: 12
  init: {kind: box, low: -2.0, high: 2.0}
  max_steps: 100
  seed: 3
output:
  record_every: 10
"""

BENCH = """\
objective:
  name: ackley
  dimension: 2
variant:
  kind: anisotropic
params:
  sigma: 0.7
harness:
  n_particles: 20
  init: {kind: box, low: -1.0, high: 1.0}
  max_steps: 300
  seed: 9
  campaign:
    runs: 3
    tolerance: 0.25
    norm: infinity
output:
  record_every: 300
"""


def invoke(argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "cbopt", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestParseConfig:
    def test_minimal(self):
        config, campaign = parse_config(MINIMAL.encode())
        assert config.objective == "ackley" and config.dimension == 2
        assert config.params.variant == "anisotropic"
        assert campaign is None

    def test_full(self):
        config, campaign = parse_config(FULL.encode())
        assert config.batching.batch_size == 4
        assert config.params.beta == 2.0
        assert config.record_every == 10

    def test_unknown_key_rejected_with_path(self):
        bad = MINIMAL + "params:\n  momentum: 0.9\n"
        with pytest.raises(ConfigError, match="params.momentum"):
            parse_config(bad.encode())

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config((MINIMAL + "plotting: {}\n").encode())

    def test_dt_zero_names_key(self):
        bad = MINIMAL + "params:\n  dt: 0.0\n"
        with pytest.raises(ConfigError, match="dt"):
            parse_config(bad.encode())

    def test_missing_objective(self):
        with pytest.raises(ConfigError, match="objective"):
            parse_config(b"variant: {kind: anisotropic}\n")

    def test_bad_objective_name(self):
        bad = "objective: {name: sphere, dimension: 2}\n"
        with pytest.raises(ConfigError, match="objective.name"):
            parse_config(bad.encode())

    def test_frozen_integrator_needs_anisotropic(self):
        bad = "objective: {name: ackley, dimension: 2}\nvariant: {kind: original, integrator: frozen}\n"
        with pytest.raises(ConfigError):
            parse_config(bad.encode())

    def test_geometric_schedule(self):
        text = FULL.replace("gamma: 0.01", "gamma: {kind: geometric, initial: 0.1, decay: 0.9}")
        config, _ = parse_config(text.encode())
        assert config.batching.gamma_schedule(2, 0) == pytest.approx(0.081)

    def test_documented_defaults_parse_like_absent_keys(self):
        explicit = MINIMAL + (
            "  heaviside: off\n"
            "  integrator: euler\n"
            "params: {lambda: 1.0, sigma: 1.0, alpha: 30.0, dt: 0.01, epsilon: 0.001, beta: 1.0}\n"
            "harness:\n"
            "  n_particles: 100\n"
            "  init: {kind: box, low: -3.0, high: 3.0}\n"
            "  max_steps: 10000\n"
            "  seed: 0\n"
            "output: {record_every: 100}\n"
        )
        assert parse_config(explicit.encode()) == parse_config(MINIMAL.encode())
        batched = MINIMAL + "batching: {batch_size: 2}\nharness: {campaign: {}}\n"
        explicit = MINIMAL + (
            "batching: {batch_size: 2, update_mode: partial, gamma: 0.01, stop_eps: 1.0e-8,"
            " max_epochs: 1000}\n"
            "harness: {campaign: {runs: 100, tolerance: 0.25, norm: infinity}}\n"
        )
        assert parse_config(explicit.encode()) == parse_config(batched.encode())

    @pytest.mark.parametrize(
        "yaml_tail, read, value",
        [
            ("harness: {stop_eps: 1e-8}\n", lambda c: c.stop_eps, 1e-8),
            ("harness: {stop_eps: 1.0e8}\n", lambda c: c.stop_eps, 1e8),
            ("params: {alpha: 1e2}\n", lambda c: c.params.alpha, 100.0),
            ("params: {dt: .5E-2}\n", lambda c: c.params.dt, 0.005),
            ("harness: {stop_eps: '1e-8'}\n", None, "harness.stop_eps must be a number"),
            ('params: {alpha: "1e2"}\n', None, "params.alpha must be a number"),
        ],
    )
    def test_exponent_floats_are_numbers_unless_quoted(self, yaml_tail, read, value):
        raw = (MINIMAL + yaml_tail).encode()
        if read is None:
            with pytest.raises(ConfigError, match=value):
                parse_config(raw)
        else:
            assert read(parse_config(raw)[0]) == value

    def test_stop_eps_flag_follows_batching(self):
        args = argparse.Namespace(stop_eps=1e-3)
        config, _ = parse_config(MINIMAL.encode(), args)
        assert config.stop_eps == 1e-3 and config.batching is None
        args.batch_size = 2
        config, _ = parse_config(MINIMAL.encode(), args)
        assert config.stop_eps is None and config.batching.stop_eps == 1e-3
        config, _ = parse_config((MINIMAL + "batching: {batch_size: 2}\n").encode(), args)
        assert config.stop_eps is None and config.batching.stop_eps == 1e-3

    def test_given_box_init_defaults_to_unit_box(self):
        config, _ = parse_config((MINIMAL + "harness: {init: {kind: box}}\n").encode())
        assert config.init == InitSpec("box", low=-1.0, high=1.0)
        assert parse_config(MINIMAL.encode())[0].init == InitSpec("box", low=-3.0, high=3.0)

    def test_schema_sets_every_config_field_once(self):
        targets = [(key.owner, key.field) for key in SCHEMA]
        assert len(set(targets)) == len(targets)
        for owner in (RunConfig, VariantParams, BatchParams, InitSpec, CampaignSpec):
            fields = {f.name for f in dataclasses.fields(owner)}
            assert fields == {field for o, field in targets if o is owner}


class TestCmdRun:
    def test_minimal_run_exit_zero(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL + "harness:\n  max_steps: 50\n  n_particles: 10\n")
        proc = invoke(["run", "--config", str(path)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) >= 2
        summary = json.loads(lines[-1])
        assert summary["summary"]["terminated_by"] == "max_steps"
        for line in lines:
            record = json.loads(line)
            assert "config_sha256" in record and "master_seed" in record

    def test_invalid_config_exit_one(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL + "params:\n  dt: 0.0\n")
        proc = invoke(["run", "--config", str(path)])
        assert proc.returncode == 1
        assert "params.dt" in proc.stderr

    def test_missing_file_exit_one(self):
        proc = invoke(["run", "--config", "/nonexistent/config.yaml"])
        assert proc.returncode == 1

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(FULL)
        a = invoke(["run", "--config", str(path), "--seed", "11"])
        b = invoke(["run", "--config", str(path), "--seed", "11"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_byte_identical_across_thread_caps(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(FULL)
        a = invoke(["run", "--config", str(path)], env={"CBO_THREADS": "1"})
        b = invoke(["run", "--config", str(path)], env={"CBO_THREADS": "4"})
        assert a.stdout == b.stdout

    def test_seed_changes_output(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(FULL)
        a = invoke(["run", "--config", str(path), "--seed", "1"])
        b = invoke(["run", "--config", str(path), "--seed", "2"])
        assert a.stdout != b.stdout

    def test_out_dir_files(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(FULL)
        out = tmp_path / "results"
        proc = invoke(["run", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 0
        assert (out / "trajectory.jsonl").exists()
        assert (out / "summary.json").exists()
        csv_text = (out / "ensemble.csv").read_text()
        assert csv_text.splitlines()[0] == "x0,x1,x2"
        assert len(csv_text.splitlines()) == 13  # header + 12 particles

    def test_batch_flags_override(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL + "harness:\n  max_steps: 30\n  n_particles: 10\n")
        proc = invoke(
            ["run", "--config", str(path), "--batch-size", "5", "--max-epochs", "3"]
        )
        assert proc.returncode == 0
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert summary["summary"]["steps"] <= 6  # 2 updates per epoch x 3 epochs

    def test_stop_eps_flag_stops_a_plain_run(self, tmp_path):
        text = MINIMAL.replace("dimension: 2", "dimension: 3") + (
            "params: {sigma: 0.7, alpha: 2.0}\n"
            "harness: {n_particles: 12, max_steps: 2000, seed: 7}\n"
        )
        path = tmp_path / "config.yaml"
        path.write_text(text)
        flagged = invoke(["run", "--config", str(path), "--stop-eps", "1e-6",
                          "--out", str(tmp_path / "flag")])
        assert flagged.returncode == 0, flagged.stderr
        summary = json.loads(flagged.stdout.strip().splitlines()[-1])["summary"]
        assert summary["terminated_by"] == "stop_criterion"
        assert 1 < summary["steps"] < 2000
        path.write_text(text.replace("seed: 7}", "seed: 7, stop_eps: 1.0e-6}"))
        keyed = invoke(["run", "--config", str(path), "--out", str(tmp_path / "key")])
        assert keyed.returncode == 0, keyed.stderr
        csv = [(tmp_path / d / "ensemble.csv").read_text() for d in ("flag", "key")]
        assert csv[0] == csv[1]

    def test_batching_needs_anisotropic_euler_exit_one(self, tmp_path):
        path = tmp_path / "config.yaml"
        for variant in ("kind: sphere", "integrator: frozen"):
            path.write_text(
                MINIMAL.replace("kind: anisotropic", variant) + "batching: {batch_size: 5}\n"
            )
            proc = invoke(["run", "--config", str(path)])
            assert proc.returncode == 1, variant
            assert proc.stderr.startswith("config error:") and proc.stdout == ""
        path.write_text(MINIMAL.replace("kind: anisotropic", "kind: personal_best"))
        proc = invoke(["run", "--config", str(path), "--batch-size", "5"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:") and proc.stdout == ""

    def test_divergence_exit_two(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "objective: {name: zakharov, dimension: 2}\n"
            "variant: {kind: anisotropic}\n"
            "params: {sigma: 40.0, dt: 10.0, alpha: 1.0}\n"
            "harness:\n"
            "  n_particles: 20\n"
            "  init: {kind: box, low: -5.0, high: 10.0}\n"
            "  max_steps: 5000\n"
        )
        proc = invoke(["run", "--config", str(path)])
        assert proc.returncode == 2
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert summary["summary"]["terminated_by"] == "divergence"

    def test_geometric_sigma_past_the_float_range_diverges(self, tmp_path):
        # 0.7 * (1e200)**2 is past the float range: sigma is inf at epoch 2, and
        # its first batch (step 8 of 4 batches per epoch) kicks to non-finite
        path = tmp_path / "config.yaml"
        path.write_text(
            MINIMAL + "harness: {n_particles: 12, seed: 7, max_steps: 100}\n"
            "batching: {batch_size: 3, sigma: {kind: geometric, initial: 0.7, decay: 1.0e200}}\n"
        )
        proc = invoke(["run", "--config", str(path)])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        summary = json.loads(proc.stdout.strip().splitlines()[-1])["summary"]
        assert (summary["terminated_by"], summary["steps"]) == ("divergence", 8)

    @pytest.mark.parametrize("tail, code", [
        ("batching: {batch_size: 3, sigma: {kind: geometric, initial: 0.7, decay: 1.0e200}}", 2),
        ("params: {sigma: 1.0e200}", 2),
        ("params: {alpha: 1.0e+308}", 0),  # exp(-alpha (f - min f)) overflows to 0
        # sigma^2 / 2 overflows: the exact solution puts every particle on v
        ("  integrator: frozen\nparams: {sigma: 1.0e200}", 0),
    ], ids=["geometric_sigma", "huge_sigma", "huge_alpha", "frozen_huge_sigma"])
    def test_overflow_inside_a_run_warns_nothing(self, tmp_path, capsys, tail, code):
        path = tmp_path / "config.yaml"
        path.write_text(f"{MINIMAL}{tail}\nharness: {{n_particles: 12, seed: 7, max_steps: 100}}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path)]) == code
        assert capsys.readouterr().err == ""


class TestCmdBench:
    def test_campaign_csv(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text(BENCH)
        out = tmp_path / "results"
        proc = invoke(["bench", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "objective,d,N,variant,success_rate,mean_final_f,median_steps"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "ackley" and fields[3] == "anisotropic"
        assert 0.0 <= float(fields[4]) <= 1.0
        runs = (out / "runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 3
        for line in runs:
            record = json.loads(line)
            assert "config_sha256" in record and "master_seed" in record
            assert record["variant"] == "anisotropic"

    def test_variant_sweep_rows_sorted(self, tmp_path):
        text = BENCH.replace(
            "    norm: infinity\n", "    norm: infinity\n    variants: [common_noise, anisotropic]\n"
        )
        path = tmp_path / "bench.yaml"
        path.write_text(text)
        proc = invoke(["bench", "--config", str(path)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert [row.split(",")[3] for row in lines[1:]] == ["anisotropic", "common_noise"]

    def test_variant_conflict_exit_one_before_any_campaign(self, tmp_path):
        text = BENCH.replace("  kind: anisotropic\n", "  kind: anisotropic\n  integrator: split\n")
        text = text.replace(
            "    norm: infinity\n", "    norm: infinity\n    variants: [anisotropic, original]\n"
        )
        path = tmp_path / "bench.yaml"
        path.write_text(text)
        out = tmp_path / "results"
        proc = invoke(["bench", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: harness.campaign.variants")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not out.exists()

    def test_bench_requires_campaign(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL)
        proc = invoke(["bench", "--config", str(path)])
        assert proc.returncode == 1
        assert "campaign" in proc.stderr

    def test_worker_count_invariance(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text(BENCH)
        a = invoke(["bench", "--config", str(path)], env={"CBO_THREADS": "1"})
        b = invoke(["bench", "--config", str(path)], env={"CBO_THREADS": "2"})
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "yaml_tail, argv, key_path",
    [
        ("harness: {campaign: {runs: 0}}\n", ["bench"], "harness.campaign.runs"),
        ("harness: {campaign: {tolerance: 0.0}}\n", ["bench"], "harness.campaign.tolerance"),
        ("harness: {seed: -1}\n", ["run"], "harness.seed"),
        ("", ["run", "--seed", "-1"], "harness.seed"),
        ("", ["diagnose", "laplace", "--seed", "-1"], "harness.seed"),
        (None, ["diagnose", "laplace", "--seed", "-1"], "--seed"),
        ("harness: {n_particles: 10}\nbatching: {batch_size: 11}\n", ["run"],
         "batching.batch_size"),
        # a batched run tests batching.stop_eps; harness.stop_eps would be ignored
        ("harness: {stop_eps: 1.0e+30}\nbatching: {batch_size: 2}\n", ["run"], "harness.stop_eps"),
        ("batching: {batch_size: 1, gamma: -0.1}\n", ["run"], "batching.gamma"),
        ("batching: {batch_size: 1, gamma: {kind: geometric, initial: 0.1, decay: -1}}\n",
         ["run"], "batching.gamma"),
        # decay**k underflows to 0 before the last epoch: no step size is left
        ("batching: {batch_size: 3, gamma: {kind: geometric, initial: 0.1, decay: 1.0e-200}}\n",
         ["run"], "batching.gamma"),
        ("harness: {init: {kind: gaussian, mean: [1.0, 2.0, 3.0]}}\n", ["run"],
         "harness.init.mean"),
        ("harness: {init: {kind: box, low: -.inf}}\n", ["run"], "harness.init.low"),
    ],
)
def test_config_error_names_key_without_traceback(tmp_path, yaml_tail, argv, key_path):
    if yaml_tail is not None:
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL + yaml_tail)
        argv = argv[:1] + ["--config", str(path)] + argv[1:]
    proc = invoke(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"config error: {key_path} "), proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["bench", "--config"], ["diagnose", "laplace", "--config"]])
def test_record_every_is_a_usage_error_outside_run(tmp_path, argv):
    path = tmp_path / "bench.yaml"
    path.write_text(BENCH)
    proc = invoke([*argv, str(path), "--record-every", "5"])
    assert proc.returncode == 2
    assert "unrecognized arguments: --record-every 5" in proc.stderr
    assert proc.stdout == ""


class TestCmdDiagnose:
    def test_unknown_suite(self):
        proc = invoke(["diagnose", "spectral"])
        assert proc.returncode == 1

    def test_laplace_suite_passes(self):
        proc = invoke(["diagnose", "laplace", "--seed", "3"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4  # three alphas + monotonicity line
        assert all(line.endswith("PASS") for line in lines)

    def test_laplace_suite_draws_and_evaluates_its_sample_once(self, capsys):
        calls, draws = [], []
        call, generator = ObjectiveFunction.__call__, RngPlan.generator

        def counting_call(f, x):
            calls.append(np.shape(x))
            return call(f, x)

        def counting_generator(plan, stream, step):
            draws.append((stream, step))
            return generator(plan, stream, step)

        with mock.patch.object(ObjectiveFunction, "__call__", counting_call), \
                mock.patch.object(RngPlan, "generator", counting_generator):
            assert main(["diagnose", "laplace", "--seed", "3"]) == 0
        assert calls == [(100_000, 1)]
        assert draws == [(STREAM_INIT, 0)]
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_moments_suite_sigma_zero(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "objective: {name: ackley, dimension: 4}\n"
            "variant: {kind: anisotropic}\n"
            "params: {sigma: 0.0, dt: 0.001}\n"
            "harness: {n_particles: 2000}\n"
        )
        proc = invoke(["diagnose", "moments", "--config", str(path), "--seed", "1"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "tol=0.01" in proc.stdout

    def test_moments_suite_with_a_zero_predicted_rate(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "objective: {name: ackley, dimension: 2}\n"
            "params: {lambda: 0.0, sigma: 0.0, dt: 0.001}\n"
            "harness: {n_particles: 1000}\n"
        )
        proc = invoke(["diagnose", "moments", "--config", str(path), "--seed", "1"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert all("predicted=0.0" in line and " abs_err=" in line and " tol=0.01 " in line
                   and line.endswith("PASS") for line in lines)

    def test_moments_suite_with_a_predicted_rate_zero_up_to_rounding(self, tmp_path, capsys):
        # 2 * 0.005 - 0.1**2 is -1.7e-18, one ulp of 0.01
        path = tmp_path / "config.yaml"
        path.write_text("objective: {name: rastrigin, dimension: 1}\n"
                        "params: {lambda: 0.005, sigma: 0.1}\n")
        assert main(["diagnose", "moments", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(" abs_err=" in line and line.endswith("tol=0.05 PASS") for line in lines)

    def test_pairwise_suite_with_a_zero_predicted_rate(self, tmp_path, capsys, monkeypatch):
        def exact_law(lam, sigma, h, n, replicas, t_final, seed):
            rate = 2.0 * lam - sigma**2
            return [(t, math.exp(-rate * t)) for t in np.linspace(0.0, t_final, 9).tolist()]

        monkeypatch.setattr(cli, "diagnostic_pairwise_decay", exact_law)
        path = tmp_path / "config.yaml"
        path.write_text("objective: {name: rastrigin, dimension: 4}\n"
                        "params: {lambda: 0.5, sigma: 1.0}\n")
        assert main(["diagnose", "pairwise", "--config", str(path)]) == 0
        decay = capsys.readouterr().out.splitlines()[0]
        assert "pairwise decay predicted=0.0 " in decay and " abs_err=" in decay
        assert decay.endswith("tol=0.03 PASS")

    def test_variance_suite_passes(self, capsys):
        assert main(["diagnose", "variance", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "decay_fraction=" in out and out.strip().endswith("PASS")

    def test_pairwise_suite_passes(self, capsys):
        assert main(["diagnose", "pairwise", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.endswith("PASS") for line in lines)


def test_help_documents_defaults():
    proc = invoke(["--help"])
    assert proc.returncode == 0
    assert "config defaults" in proc.stdout
    assert "harness.seed" in proc.stdout
    shown = {}  # key path -> (default column, the whole line)
    for line in proc.stdout.splitlines():
        match = re.match(r"  (\S+)(?: +(\{.*?\}|\S+))?", line)
        if match:
            shown[match[1]] = (match[2], line)
    for key in SCHEMA:
        text, line = shown[key.path]
        assert " | ".join(key.choices) in line
        if key.owner is None:
            assert text == "absent", line
            continue
        field = next(f for f in dataclasses.fields(key.owner) if f.name == key.field)
        if field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
            assert yaml.safe_load(text) == {"kind": "box", "low": default.low, "high": default.high}
        elif field.default is dataclasses.MISSING:
            assert text == "required" or key.read is VariantParams, line
        elif field.default is None:
            assert text == "absent", line
        else:  # the documented default reads back as the dataclass default
            value = yaml.load(text, Loader=ConfigLoader)  # as a config would read it
            value = "off" if value is False else value  # YAML 1.1 reads a bare off as false
            assert value == getattr(field.default, "value", field.default), line
