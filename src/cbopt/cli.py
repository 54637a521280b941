"""Command-line front end: YAML config parsing and the run/bench/diagnose
subcommands.

Configs are fail-closed: unknown keys are rejected with their full key
path. All emitted records carry the sha256 of the config bytes and the
master seed, and identical invocations produce identical bytes regardless
of CBO_THREADS (which only caps campaign workers).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
import yaml

from .batching import BatchParams, ConstantSchedule, GeometricSchedule
from .dynamics import HEAVISIDE_MODES, VARIANTS, VariantParams
from .ensemble import Ensemble, InitSpec, RngPlan, init_ensemble, positions_to_csv
from .harness import (
    INTEGRATORS,
    RunConfig,
    SuccessCriterion,
    diagnostic_frozen_moment,
    diagnostic_laplace,
    diagnostic_pairwise_decay,
    diagnostic_variance_decay,
    fit_decay_rate,
    laplace_standard_error,
    run,
    run_campaign,
    success_rate,
)
from .objectives import ObjectiveFunction, benchmark_names

SUITES = ("moments", "pairwise", "laplace", "variance")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


@dataclass(frozen=True)
class CampaignSpec:
    runs: int = 100
    tolerance: float = 0.25
    norm: str = "infinity"
    variants: Optional[List[str]] = None


# ---------------------------------------------------------------------------
# config parsing


def _mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping")
    return obj


def _check_keys(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {sorted(choices)}, got {value!r}")
    return value


def _parse_init(section, path: str) -> InitSpec:
    section = _mapping(section, path)
    kind = _as_str(section.get("kind", "box"), f"{path}.kind", ("box", "gaussian", "sphere"))
    allowed = {"box": ("kind", "low", "high"), "gaussian": ("kind", "mean", "variance"), "sphere": ("kind",)}
    _check_keys(section, allowed[kind], path)
    try:
        if kind == "box":
            return InitSpec(
                "box",
                low=_as_float(section.get("low", -1.0), f"{path}.low"),
                high=_as_float(section.get("high", 1.0), f"{path}.high"),
            )
        if kind == "gaussian":
            mean = section.get("mean", 0.0)
            if isinstance(mean, list):
                mean = tuple(_as_float(m, f"{path}.mean") for m in mean)
            else:
                mean = _as_float(mean, f"{path}.mean")
            return InitSpec(
                "gaussian",
                mean=mean,
                variance=_as_float(section.get("variance", 1.0), f"{path}.variance"),
            )
        return InitSpec("sphere")
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _parse_schedule(value, path: str):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ConstantSchedule(float(value))
    section = _mapping(value, path)
    kind = _as_str(section.get("kind"), f"{path}.kind", ("constant", "geometric"))
    if kind == "constant":
        _check_keys(section, ("kind", "value"), path)
        return ConstantSchedule(_as_float(section.get("value"), f"{path}.value"))
    _check_keys(section, ("kind", "initial", "decay"), path)
    return GeometricSchedule(
        initial=_as_float(section.get("initial"), f"{path}.initial"),
        decay=_as_float(section.get("decay"), f"{path}.decay"),
    )


def _parse_params(section, variant: str, heaviside: str) -> VariantParams:
    section = _mapping(section, "params")
    _check_keys(section, ("lambda", "sigma", "alpha", "dt", "epsilon", "beta"), "params")
    kwargs = {}
    for config_key, attr in (
        ("lambda", "lam"),
        ("sigma", "sigma"),
        ("alpha", "alpha"),
        ("dt", "dt"),
        ("epsilon", "epsilon"),
        ("beta", "beta"),
    ):
        if config_key in section:
            value = _as_float(section[config_key], f"params.{config_key}")
            if config_key in ("dt", "epsilon") and not value > 0.0:
                raise ConfigError(f"params.{config_key} must be positive")
            if not np.isfinite(value) or value < 0.0:
                raise ConfigError(f"params.{config_key} must be finite and nonnegative")
            kwargs[attr] = value
    try:
        return VariantParams(variant=variant, heaviside_mode=heaviside, **kwargs)
    except ValueError as err:
        raise ConfigError(f"params: {err}") from None


def _parse_batching(section) -> Optional[BatchParams]:
    if section is None:
        return None
    section = _mapping(section, "batching")
    _check_keys(
        section,
        ("batch_size", "update_mode", "gamma", "sigma", "stop_eps", "max_epochs"),
        "batching",
    )
    if "batch_size" not in section:
        raise ConfigError("batching.batch_size is required")
    kwargs = dict(batch_size=_as_int(section["batch_size"], "batching.batch_size"))
    if "update_mode" in section:
        kwargs["update_mode"] = _as_str(
            section["update_mode"], "batching.update_mode", ("partial", "full")
        )
    if "gamma" in section:
        kwargs["gamma_schedule"] = _parse_schedule(section["gamma"], "batching.gamma")
    if "sigma" in section:
        kwargs["sigma_schedule"] = _parse_schedule(section["sigma"], "batching.sigma")
    if "stop_eps" in section:
        kwargs["stop_eps"] = _as_float(section["stop_eps"], "batching.stop_eps")
    if "max_epochs" in section:
        kwargs["max_epochs"] = _as_int(section["max_epochs"], "batching.max_epochs")
    try:
        return BatchParams(**kwargs)
    except ValueError as err:
        raise ConfigError(f"batching: {err}") from None


def _parse_campaign(section) -> Optional[CampaignSpec]:
    if section is None:
        return None
    section = _mapping(section, "harness.campaign")
    _check_keys(section, ("runs", "tolerance", "norm", "variants"), "harness.campaign")
    variants = section.get("variants")
    if variants is not None:
        if not isinstance(variants, list) or not variants:
            raise ConfigError("harness.campaign.variants must be a nonempty list")
        variants = [
            _as_str(v, "harness.campaign.variants", VARIANTS) for v in variants
        ]
    return CampaignSpec(
        runs=_as_int(section.get("runs", 100), "harness.campaign.runs"),
        tolerance=_as_float(section.get("tolerance", 0.25), "harness.campaign.tolerance"),
        norm=_as_str(section.get("norm", "infinity"), "harness.campaign.norm", ("infinity", "euclidean")),
        variants=variants,
    )


def parse_config(raw: bytes):
    """Parse config bytes into (RunConfig, CampaignSpec or None)."""
    try:
        document = yaml.safe_load(raw)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML: {err}") from None
    document = _mapping(document, "config")
    _check_keys(
        document, ("objective", "variant", "params", "batching", "harness", "output"), "config"
    )

    objective = _mapping(document.get("objective"), "objective")
    _check_keys(objective, ("name", "dimension"), "objective")
    if "name" not in objective or "dimension" not in objective:
        raise ConfigError("objective.name and objective.dimension are required")
    name = _as_str(objective["name"], "objective.name", tuple(benchmark_names()))
    dimension = _as_int(objective["dimension"], "objective.dimension")
    if dimension < 1:
        raise ConfigError("objective.dimension must be at least 1")

    variant = _mapping(document.get("variant"), "variant")
    _check_keys(variant, ("kind", "heaviside", "integrator"), "variant")
    kind = _as_str(variant.get("kind", "anisotropic"), "variant.kind", VARIANTS)
    heaviside = variant.get("heaviside", "off")
    if heaviside is False:  # YAML 1.1 reads a bare `off` as boolean
        heaviside = "off"
    heaviside = _as_str(heaviside, "variant.heaviside", HEAVISIDE_MODES)
    integrator = _as_str(variant.get("integrator", "euler"), "variant.integrator", INTEGRATORS)

    params = _parse_params(document.get("params"), kind, heaviside)
    batching = _parse_batching(document.get("batching"))

    harness = _mapping(document.get("harness"), "harness")
    _check_keys(
        harness,
        ("n_particles", "init", "max_steps", "seed", "stop_eps", "campaign"),
        "harness",
    )
    n_particles = _as_int(harness.get("n_particles", 100), "harness.n_particles")
    init = _parse_init(harness.get("init", {"kind": "box", "low": -3.0, "high": 3.0}), "harness.init")
    max_steps = _as_int(harness.get("max_steps", 10_000), "harness.max_steps")
    seed = _as_int(harness.get("seed", 0), "harness.seed")
    stop_eps = harness.get("stop_eps")
    if stop_eps is not None:
        stop_eps = _as_float(stop_eps, "harness.stop_eps")
    campaign = _parse_campaign(harness.get("campaign"))

    output = _mapping(document.get("output"), "output")
    _check_keys(output, ("record_every",), "output")
    record_every = _as_int(output.get("record_every", 100), "output.record_every")

    try:
        config = RunConfig(
            objective=name,
            dimension=dimension,
            params=params,
            integrator=integrator,
            batching=batching,
            n_particles=n_particles,
            init=init,
            max_steps=max_steps,
            master_seed=seed,
            record_every=record_every,
            stop_eps=stop_eps,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return config, campaign


def load_config(path: str):
    """Read a config file; returns (RunConfig, CampaignSpec or None, sha256 hex)."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err.strerror}") from None
    config, campaign = parse_config(raw)
    return config, campaign, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# output helpers


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _floats(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


def _workers() -> int:
    raw = os.environ.get("CBO_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError("CBO_THREADS must be an integer") from None


def _write_text(out_dir: Optional[str], filename: str, text: str) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w") as handle:
        handle.write(text)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "record_every", None) is not None:
        if args.record_every < 1:
            raise ConfigError("--record-every must be at least 1")
        config = replace(config, record_every=args.record_every)
    batch_flags = {
        "batch_size": getattr(args, "batch_size", None),
        "update_mode": getattr(args, "update_mode", None),
        "stop_eps": getattr(args, "stop_eps", None),
        "max_epochs": getattr(args, "max_epochs", None),
    }
    updates = {key: value for key, value in batch_flags.items() if value is not None}
    if updates:
        if config.batching is None:
            if "batch_size" not in updates:
                raise ConfigError("--batch-size is required to enable batching from flags")
            base = BatchParams(batch_size=updates.pop("batch_size"))
        else:
            base = config.batching
        try:
            config = replace(config, batching=replace(base, **updates))
        except ValueError as err:
            raise ConfigError(str(err)) from None
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    config, _, config_hash = load_config(args.config)
    config = _apply_overrides(config, args)
    result = run(config)
    lines = []
    for pt in result.trajectory:
        lines.append(
            _jsonline(
                {
                    "config_sha256": config_hash,
                    "master_seed": config.master_seed,
                    "step": pt.step,
                    "time": float(pt.time),
                    "v_f": _floats(pt.v),
                    "f_at_v": float(pt.f_at_v),
                    "E": _floats(pt.mean),
                    "V": float(pt.variance),
                }
            )
        )
    summary = _jsonline(
        {
            "config_sha256": config_hash,
            "master_seed": config.master_seed,
            "summary": {
                "terminated_by": result.terminated_by,
                "steps": result.steps,
                "final_v_f": _floats(result.final_consensus.v),
                "final_f": float(result.final_consensus.f_at_v),
            },
        }
    )
    text = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(text)
    _write_text(args.out, "trajectory.jsonl", "\n".join(lines) + "\n")
    _write_text(args.out, "summary.json", summary + "\n")
    if args.out is not None:
        snapshot = Ensemble(result.final_positions, max(result.trajectory[-1].time, 0.0), result.steps)
        _write_text(args.out, "ensemble.csv", positions_to_csv(snapshot))
    return 2 if result.terminated_by == "divergence" else 0


def cmd_bench(args) -> int:
    config, campaign, config_hash = load_config(args.config)
    config = _apply_overrides(config, args)
    if campaign is None:
        raise ConfigError("harness.campaign section is required for bench")
    variants = sorted(campaign.variants or [config.params.variant])
    crit = SuccessCriterion(
        target=np.zeros(config.dimension),
        tolerance=campaign.tolerance,
        norm=campaign.norm,
    )
    workers = _workers()
    try:  # every variant's config is checked before any campaign runs
        configs = [replace(config, params=replace(config.params, variant=v)) for v in variants]
    except ValueError as err:
        raise ConfigError(f"harness.campaign.variants: {err}") from None
    run_lines = []
    rows = []
    for variant, vconfig in zip(variants, configs):
        results = run_campaign(vconfig, campaign.runs, workers=workers)
        for index, res in enumerate(results):
            run_lines.append(
                _jsonline(
                    {
                        "config_sha256": config_hash,
                        "master_seed": config.master_seed,
                        "run_index": index,
                        "run_seed": res.seed,
                        "objective": config.objective,
                        "dimension": config.dimension,
                        "variant": variant,
                        "steps": res.steps,
                        "terminated_by": res.terminated_by,
                        "final_f": float(res.final_consensus.f_at_v),
                        "final_v_f": _floats(res.final_consensus.v),
                        "success": crit.met(res.final_consensus.v),
                    }
                )
            )
        rows.append(
            (
                config.objective,
                config.dimension,
                config.n_particles,
                variant,
                success_rate(results, crit),
                float(np.mean([r.final_consensus.f_at_v for r in results])),
                float(np.median([r.steps for r in results])),
            )
        )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["objective", "d", "N", "variant", "success_rate", "mean_final_f", "median_steps"]
    )
    for row in rows:
        writer.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5]), repr(row[6])])
    sys.stdout.write(buffer.getvalue())
    _write_text(args.out, "summary.csv", buffer.getvalue())
    _write_text(args.out, "runs.jsonl", "\n".join(run_lines) + "\n")
    return 0


def _diagnose_moments(config: Optional[RunConfig], seed: int) -> List[str]:
    lam, sigma, d, n, dt = 1.0, 0.3, 10, 10_000, 1e-3
    if config is not None:
        lam, sigma, dt = config.params.lam, config.params.sigma, config.params.dt
        d, n = config.dimension, max(config.n_particles, 1000)
    tol = 0.01 if sigma == 0.0 else 0.05
    lines = []
    for variant in ("isotropic", "anisotropic"):
        fitted, predicted = diagnostic_frozen_moment(variant, lam, sigma, d, n, dt, 2.0, seed)
        rel = abs(fitted - predicted) / abs(predicted)
        verdict = "PASS" if rel <= tol else "FAIL"
        lines.append(
            f"moments {variant} predicted={predicted!r} fitted={fitted!r} "
            f"rel_err={rel!r} tol={tol!r} {verdict}"
        )
    return lines


def _diagnose_pairwise(config: Optional[RunConfig], seed: int) -> List[str]:
    lam, sigma = 1.0, 0.5
    if config is not None:
        lam, sigma = config.params.lam, config.params.sigma
    lines = []
    series = diagnostic_pairwise_decay(lam, sigma, 1e-3, 50, 1000, 0.8, seed=seed)
    fitted = fit_decay_rate(series)
    predicted = 2.0 * lam - sigma**2
    rel = abs(fitted - predicted) / abs(predicted)
    verdict = "PASS" if rel <= 0.03 else "FAIL"
    lines.append(
        f"pairwise decay predicted={predicted!r} fitted={fitted!r} "
        f"rel_err={rel!r} tol=0.03 {verdict}"
    )
    growth = diagnostic_pairwise_decay(0.1, 1.0, 1e-3, 50, 1000, 0.5, seed=seed + 1)
    first, last = growth[0][1], growth[-1][1]
    verdict = "PASS" if last > first else "FAIL"
    lines.append(f"pairwise growth initial={first!r} final={last!r} expect=growth {verdict}")
    return lines


def _diagnose_laplace(seed: int) -> List[str]:
    quadratic = ObjectiveFunction(
        name="quadratic", fn=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), dimension=1
    )
    init = InitSpec("gaussian", mean=0.0, variance=1.0)
    values = diagnostic_laplace(quadratic, init, [1.0, 10.0, 100.0], 100_000, seed)
    e = init_ensemble(init, 100_000, 1, RngPlan(seed))  # same sample: same plan
    lines = []
    for alpha, value in values:
        closed = np.log1p(2.0 * alpha) / (2.0 * alpha)
        se = laplace_standard_error(e, quadratic, alpha)
        verdict = "PASS" if abs(value - closed) <= 3.0 * se else "FAIL"
        lines.append(
            f"laplace alpha={alpha!r} closed={float(closed)!r} mc={value!r} se={se!r} {verdict}"
        )
    decreasing = all(b[1] <= a[1] + 1e-12 for a, b in zip(values, values[1:]))
    lines.append(f"laplace monotone nonincreasing={decreasing} {'PASS' if decreasing else 'FAIL'}")
    return lines


def _diagnose_variance(seed: int) -> List[str]:
    base = RunConfig(
        objective="ackley",
        dimension=5,
        params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant="anisotropic"),
        n_particles=50,
        init=InitSpec("box", low=-3.0, high=3.0),
        max_steps=200,
        record_every=1_000_000,
        master_seed=seed,
    )
    plan = RngPlan(seed)
    decayed = 0
    runs = 50
    for r in range(runs):
        series = diagnostic_variance_decay(replace(base, master_seed=plan.run_seed(r)))
        if series[-1][1] < series[0][1]:
            decayed += 1
    fraction = decayed / runs
    verdict = "PASS" if fraction >= 0.95 else "FAIL"
    return [f"variance decay_fraction={fraction!r} threshold=0.95 {verdict}"]


def cmd_diagnose(args) -> int:
    if args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    config = None
    if args.config is not None:
        config, _, _ = load_config(args.config)
    seed = args.seed if args.seed is not None else (config.master_seed if config else 0)
    if args.suite == "moments":
        lines = _diagnose_moments(config, seed)
    elif args.suite == "pairwise":
        lines = _diagnose_pairwise(config, seed)
    elif args.suite == "laplace":
        lines = _diagnose_laplace(seed)
    else:
        lines = _diagnose_variance(seed)
    lines = [f"seed={seed} {line}" for line in lines]  # provenance per record
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write_text(args.out, f"diagnose_{args.suite}.txt", text)
    return 0 if all(line.endswith("PASS") for line in lines) else 3


# ---------------------------------------------------------------------------
# argument parsing

_DEFAULTS_HELP = """\
config defaults (YAML):
  objective:            name/dimension required; names: ackley rastrigin griewank zakharov wavy
  variant.kind          anisotropic   (original | anisotropic | common_noise | personal_best | sphere)
  variant.heaviside     off           (off | exact | regularized)
  variant.integrator    euler         (euler | split | frozen; split/frozen need anisotropic)
  params.lambda         1.0
  params.sigma          1.0
  params.alpha          30.0
  params.dt             0.01
  params.epsilon        0.001
  params.beta           1.0
  batching              absent        (batch_size required inside; update_mode partial,
                                       gamma 0.01, sigma = params.sigma, stop_eps 1e-8,
                                       max_epochs 1000; needs anisotropic + euler)
  harness.n_particles   100
  harness.init          {kind: box, low: -3.0, high: 3.0}
  harness.max_steps     10000
  harness.seed          0
  harness.stop_eps      absent (no plain-run early stop)
  harness.campaign      absent        (runs 100, tolerance 0.25, norm infinity)
  output.record_every   100

exit codes: 0 ok, 1 config error, 2 divergence, 3 diagnostic FAIL.
CBO_THREADS caps campaign workers without affecting results.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbopt",
        description="Consensus-based optimization runner and diagnostics",
        epilog=_DEFAULTS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="path to YAML config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="directory for output files")
        p.add_argument(
            "--record-every", type=int, default=None, help="trajectory recording stride"
        )

    p_run = sub.add_parser("run", help="execute one run, stream JSON-lines + summary")
    common(p_run)
    p_run.add_argument("--batch-size", type=int, default=None, help="random-batch size M")
    p_run.add_argument(
        "--update-mode", choices=("partial", "full"), default=None, help="batch update scope"
    )
    p_run.add_argument("--stop-eps", type=float, default=None, help="batch stopping tolerance")
    p_run.add_argument("--max-epochs", type=int, default=None, help="batch epoch budget")

    p_bench = sub.add_parser("bench", help="run a seeded campaign, emit a CSV summary")
    common(p_bench)

    p_diag = sub.add_parser("diagnose", help="check a quantitative law, print PASS/FAIL")
    p_diag.add_argument("suite", help="one of: moments pairwise laplace variance")
    common(p_diag, config_required=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_diagnose(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
