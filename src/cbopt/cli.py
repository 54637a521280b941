"""Command-line front end: YAML config parsing and the run/bench/diagnose
subcommands.

Every config key is one row of `SCHEMA`: its YAML path, the dataclass field
it sets, how its value is read, and the flag that sets it from the command
line. Defaults and range checks are the dataclasses' own, and `--help`
lists the table. Configs are fail-closed: unknown keys are rejected with
their full key path. All emitted records carry the sha256 of the config
bytes and the master seed, and identical invocations produce identical
bytes regardless of CBO_THREADS (which only caps campaign workers).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np
import yaml

from .batching import UPDATE_MODES, BatchParams, ConstantSchedule, GeometricSchedule
from .dynamics import HEAVISIDE_MODES, VARIANTS, DivergenceError, SingularityError, VariantParams
from .ensemble import INIT_KINDS, Ensemble, FieldError, InitSpec, RngPlan, positions_to_csv
from .harness import (
    INTEGRATORS,
    NORMS,
    CampaignSpec,
    RunConfig,
    diagnostic_frozen_moment,
    diagnostic_pairwise_decay,
    fit_decay_rate,
    laplace_table,
    run,
    run_campaign,
    success_rate,
)
from .objectives import ObjectiveFunction, benchmark_names

class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main returns 1: argparse's exit 2 is a diverged run's code
        raise argparse.ArgumentError(None, message)


# ---------------------------------------------------------------------------
# config schema: readers check the type of one YAML value and convert it


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return float(value)


def _numbers(value, path: str):
    return tuple(_float(v, path) for v in value) if isinstance(value, list) else _float(value, path)


def _name(value, path: str):
    """A choice, or a list of them; the dataclass checks them."""
    return "off" if value is False else value  # YAML 1.1 reads a bare `off` as false


_SCHEDULES = {"constant": ConstantSchedule, "geometric": GeometricSchedule}


def _schedule(value, path: str):
    """A number, or a mapping of `kind` and that schedule's fields."""
    if not isinstance(value, dict):
        return ConstantSchedule(_float(value, path))
    if value.get("kind") not in tuple(_SCHEDULES):
        raise ConfigError(f"{path}.kind must be one of {sorted(_SCHEDULES)}")
    names = [f.name for f in dataclasses.fields(_SCHEDULES[value["kind"]])]
    for name in value.keys() - {"kind", *names}:
        raise ConfigError(f"unknown key: {path}.{name}")
    return _SCHEDULES[value["kind"]](**{n: _float(value.get(n), f"{path}.{n}") for n in names})


class ConfigLoader(yaml.SafeLoader):
    """The safe loader, also reading exponent floats without a dot or an
    exponent sign (`1e-8`, `1.0e8`) as numbers, as YAML 1.2 does; YAML 1.1
    reads them as strings."""


ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class Key:
    """One config key and the dataclass field it sets. A dataclass as `read`
    makes it a section; owner None is the spec returned beside the RunConfig."""

    path: str
    owner: Optional[type]
    field: str
    read: Callable
    choices: tuple = ()
    kinds: tuple = ()  # the init kinds that take the key
    flag: str = ""
    commands: tuple = ("run",)  # the subcommands that take the flag
    note: str = ""


SCHEMA = (
    Key("objective.name", RunConfig, "objective", _name, tuple(benchmark_names())),
    Key("objective.dimension", RunConfig, "dimension", _int),
    Key("variant.kind", VariantParams, "variant", _name, VARIANTS),
    Key("variant.heaviside", VariantParams, "heaviside_mode", _name, HEAVISIDE_MODES),
    Key("variant.integrator", RunConfig, "integrator", _name, INTEGRATORS,
        note="split/frozen need the anisotropic variant"),
    Key("params", RunConfig, "params", VariantParams),
    Key("params.lambda", VariantParams, "lam", _float),
    Key("params.sigma", VariantParams, "sigma", _float),
    Key("params.alpha", VariantParams, "alpha", _float),
    Key("params.dt", VariantParams, "dt", _float),
    Key("params.epsilon", VariantParams, "epsilon", _float),
    Key("params.beta", VariantParams, "beta", _float),
    Key("batching", RunConfig, "batching", BatchParams,
        note="needs the anisotropic variant with the euler integrator"),
    Key("batching.batch_size", BatchParams, "batch_size", _int, flag="--batch-size",
        note="at most the particle count"),
    Key("batching.update_mode", BatchParams, "update_mode", _name, UPDATE_MODES,
        flag="--update-mode"),
    Key("batching.gamma", BatchParams, "gamma_schedule", _schedule,
        note="a number, {kind: constant, value} or {kind: geometric, initial, decay}"),
    Key("batching.sigma", BatchParams, "sigma_schedule", _schedule,
        note="as gamma; absent: the dynamics' sigma"),
    Key("batching.stop_eps", BatchParams, "stop_eps", _float, flag="--stop-eps",
        note="tested after each batch update"),
    Key("batching.max_epochs", BatchParams, "max_epochs", _int, flag="--max-epochs"),
    Key("harness.n_particles", RunConfig, "n_particles", _int),
    Key("harness.init", RunConfig, "init", InitSpec,
        note="when absent; a given init takes the defaults below"),
    Key("harness.init.kind", InitSpec, "kind", _name, INIT_KINDS),
    Key("harness.init.low", InitSpec, "low", _float, kinds=("box",)),
    Key("harness.init.high", InitSpec, "high", _float, kinds=("box",)),
    Key("harness.init.mean", InitSpec, "mean", _numbers, kinds=("gaussian",),
        note="a number or one per dimension"),
    Key("harness.init.variance", InitSpec, "variance", _float, kinds=("gaussian",)),
    Key("harness.max_steps", RunConfig, "max_steps", _int),
    Key("harness.seed", RunConfig, "master_seed", _int, flag="--seed",
        commands=("run", "bench", "diagnose")),
    Key("harness.stop_eps", RunConfig, "stop_eps", _float, flag="--stop-eps",
        note="tested before each update of an unbatched run"),
    Key("harness.campaign", None, "campaign", CampaignSpec, note="needed by bench"),
    Key("harness.campaign.runs", CampaignSpec, "runs", _int),
    Key("harness.campaign.tolerance", CampaignSpec, "tolerance", _float),
    Key("harness.campaign.norm", CampaignSpec, "norm", _name, NORMS),
    Key("harness.campaign.variants", CampaignSpec, "variants", _name, VARIANTS,
        note="a list; absent: the configured variant"),
    Key("output.record_every", RunConfig, "record_every", _int, flag="--record-every"),
)
_KEYS = {key.path: key for key in SCHEMA}
_GROUPS = {key.path.rpartition(".")[0] for key in SCHEMA} - {""}  # the paths that hold keys
_FLAGS = {k.flag: [j for j in SCHEMA if j.flag == k.flag] for k in SCHEMA if k.flag}


def _default(key: Key):
    """The dataclass default of the key's field; MISSING when it is required."""
    if key.owner is None:
        return None
    f = next(f for f in dataclasses.fields(key.owner) if f.name == key.field)
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


def _key_path(owner, field: str) -> str:
    """The key path that sets a field of `owner`, dotted for a nested one."""
    head, _, rest = field.partition(".")
    key = next(k for k in SCHEMA if k.owner is owner and k.field == head)
    return _key_path(key.read, rest) if rest else key.path


def _lookup(document: dict, path: str):
    """The value at a key path; None when it is absent."""
    for part in path.split("."):
        document = document.get(part) if isinstance(document, dict) else None
    return document


def _check_keys(node: dict, path: str) -> None:
    """Reject unknown keys and drop null values: null is the same as absent."""
    for name, value in list(node.items()):
        full = f"{path}.{name}".lstrip(".")
        if full not in _KEYS and full not in _GROUPS:
            raise ConfigError(f"unknown key: {full}")
        if value is None:
            del node[name]
        elif full in _GROUPS:
            if not isinstance(value, dict):
                raise ConfigError(f"{full} must be a mapping")
            _check_keys(value, full)


def _set_flags(document: dict, args) -> None:
    """Write each flag given in `args` into its key. A flag that sets two
    keys sets the first whose section the document has, else the last."""
    for flag, keys in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        key = next(k for k in keys if k is keys[-1] or k.path.split(".")[0] in document)
        *parents, leaf = key.path.split(".")
        node = document
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value


def _make(owner, document: dict):
    """Build `owner` from its keys; owner None returns the keyword arguments
    of the specs beside the RunConfig instead."""
    keys = [k for k in SCHEMA if k.owner is owner]
    kwargs = {}
    for key in keys:
        value = _lookup(document, key.path)
        if isinstance(key.read, type):
            if value is not None or _default(key) is dataclasses.MISSING:
                kwargs[key.field] = _make(key.read, document)
        elif value is not None:
            kwargs[key.field] = key.read(value, key.path)
        elif _default(key) is dataclasses.MISSING:
            raise ConfigError(f"{key.path} is required")
    if owner is None:
        return kwargs
    try:
        made = owner(**kwargs)
    except FieldError as err:
        raise ConfigError(f"{_key_path(owner, err.field)} {err.reason}") from None
    for key in keys:
        if key.kinds and key.field in kwargs and made.kind not in key.kinds:
            raise ConfigError(f"unknown key: {key.path}")
    return made


def _yaml_message(err: yaml.YAMLError) -> str:
    """PyYAML's message on one line: each part with its line and column, and
    none of the source lines and carets it prints under them."""
    message = str(err)
    if isinstance(err, yaml.MarkedYAMLError):
        parts = [(err.context, err.context_mark), (err.problem, err.problem_mark)]
        message = ": ".join(f"{text} (line {mark.line + 1}, column {mark.column + 1})"
                            if mark else text for text, mark in parts if text)
    return " ".join(message.split())


def parse_config(raw: bytes, args=None):
    """Parse config bytes into (RunConfig, CampaignSpec or None). The flags
    given in `args` are written over their keys first, so a flag and its
    key share one check."""
    try:
        document = yaml.load(raw, Loader=ConfigLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML: {_yaml_message(err)}") from None
    document = {} if document is None else document
    if not isinstance(document, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(document, "")
    if args is not None:
        _set_flags(document, args)
    return _make(RunConfig, document), _make(None, document).get("campaign")


def load_config(path: str, args=None):
    """Read a config file; returns (RunConfig, CampaignSpec or None, sha256
    hex of the file), with the flags given in `args` applied."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err.strerror}") from None
    config, campaign = parse_config(raw, args)
    return config, campaign, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# output helpers


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _number(value):
    """A float for a JSON line: null where it is not finite, since JSON has
    no inf or NaN."""
    value = float(value)
    return value if math.isfinite(value) else None


def _floats(values) -> list:
    return [_number(v) for v in np.asarray(values).ravel()]


def _workers() -> int:
    raw = os.environ.get("CBO_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError("CBO_THREADS must be an integer") from None


def _make_out_dir(out_dir: Optional[str]) -> None:
    """Make the --out directory, if given, once the config is checked and
    before any work, so that neither a config error nor a path that cannot
    be a directory leaves output behind."""
    if out_dir is None:
        return
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {out_dir!r}: {err.strerror}") from None


def _write_text(out_dir: Optional[str], filename: str, text: str) -> None:
    """Write `filename` into `out_dir`, which `_make_out_dir` made, if it is given."""
    if out_dir is None:
        return
    with open(os.path.join(out_dir, filename), "w") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    config, _, config_hash = load_config(args.config, args)
    _make_out_dir(args.out)
    result = run(config)
    lines = []
    for pt in result.trajectory:
        lines.append(
            _jsonline(
                {
                    "config_sha256": config_hash,
                    "master_seed": config.master_seed,
                    "step": pt.step,
                    "time": _number(pt.time),
                    "v_f": _floats(pt.v),
                    "f_at_v": _number(pt.f_at_v),
                    "E": _floats(pt.mean),
                    "V": _number(pt.variance),
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
                "final_f": _number(result.final_consensus.f_at_v),
            },
        }
    )
    text = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(text)
    _write_text(args.out, "trajectory.jsonl", "\n".join(lines) + "\n")
    _write_text(args.out, "summary.json", summary + "\n")
    if args.out is not None:
        _write_text(args.out, "ensemble.csv", positions_to_csv(Ensemble(result.final_positions)))
    return 2 if result.terminated_by == "divergence" else 0


def cmd_bench(args) -> int:
    config, campaign, config_hash = load_config(args.config, args)
    if campaign is None:
        raise ConfigError(f"{_key_path(None, 'campaign')} section is required for bench")
    variants = sorted(campaign.variants or [config.params.variant])
    crit = campaign.criterion(config.dimension)
    workers = _workers()
    try:  # every variant's config is checked before any campaign runs
        configs = [replace(config, params=replace(config.params, variant=v)) for v in variants]
    except FieldError as err:
        raise ConfigError(f"{_key_path(CampaignSpec, 'variants')}: {err}") from None
    _make_out_dir(args.out)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["objective", "d", "N", "variant", "success_rate", "mean_final_f", "median_steps"]
    )
    run_lines = []
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
                        "final_f": _number(res.final_consensus.f_at_v),
                        "final_v_f": _floats(res.final_consensus.v),
                        "success": crit.met(res.final_consensus.v),
                    }
                )
            )
        writer.writerow([
            config.objective,
            config.dimension,
            config.n_particles,
            variant,
            repr(success_rate(results, crit)),
            repr(float(np.mean([r.final_consensus.f_at_v for r in results]))),
            repr(float(np.median([r.steps for r in results]))),
        ])
    sys.stdout.write(buffer.getvalue())
    _write_text(args.out, "summary.csv", buffer.getvalue())
    _write_text(args.out, "runs.jsonl", "\n".join(run_lines) + "\n")
    return 0


def _rate_line(label: str, predicted: float, fitted: float, tol: float, lam: float) -> str:
    """A fitted rate against its prediction 2 lam - sigma^2 d, within tol: the
    error relative to the prediction, or the absolute error where the
    prediction is 0 up to rounding (within 4 ulps of its term 2 lam)."""
    err, kind = abs(fitted - predicted), "abs_err"
    if abs(predicted) > 4.0 * math.ulp(2.0 * lam):
        err, kind = err / abs(predicted), "rel_err"
    verdict = "PASS" if err <= tol else "FAIL"
    return f"{label} predicted={predicted!r} fitted={fitted!r} {kind}={err!r} tol={tol!r} {verdict}"


MOMENTS_T = 2.0  # the moments suite fits its rates over [0, MOMENTS_T]


def _diagnose_moments(config: Optional[RunConfig], seed: int) -> List[str]:
    lam, sigma, d, n, dt = 1.0, 0.3, 10, 10_000, 1e-3
    if config is not None:
        lam, sigma, dt = config.params.lam, config.params.sigma, config.params.dt
        d, n = config.dimension, max(config.n_particles, 1000)
    tol = 0.01 if sigma == 0.0 else 0.05
    lines = []
    for variant in ("isotropic", "anisotropic"):
        fitted, predicted = diagnostic_frozen_moment(variant, lam, sigma, d, n, dt, MOMENTS_T,
                                                     seed)
        lines.append(_rate_line(f"moments {variant}", predicted, fitted, tol, lam))
    return lines


def _diagnose_pairwise(config: Optional[RunConfig], seed: int) -> List[str]:
    lam, sigma = 1.0, 0.5
    if config is not None:
        lam, sigma = config.params.lam, config.params.sigma
    series = diagnostic_pairwise_decay(lam, sigma, 1e-3, 50, 1000, 0.8, seed=seed)
    lines = [_rate_line("pairwise decay", 2.0 * lam - sigma**2, fit_decay_rate(series), 0.03, lam)]
    growth = diagnostic_pairwise_decay(0.1, 1.0, 1e-3, 50, 1000, 0.5, seed=seed + 1)
    first, last = growth[0][1], growth[-1][1]
    verdict = "PASS" if last > first else "FAIL"
    lines.append(f"pairwise growth initial={first!r} final={last!r} expect=growth {verdict}")
    return lines


def _diagnose_laplace(config: Optional[RunConfig], seed: int) -> List[str]:
    quadratic = ObjectiveFunction(
        name="quadratic", fn=lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), dimension=1
    )
    init = InitSpec("gaussian", mean=0.0, variance=1.0)
    rows = laplace_table(quadratic, init, [1.0, 10.0, 100.0], 100_000, seed)
    lines = []
    for alpha, value, se in rows:
        closed = np.log1p(2.0 * alpha) / (2.0 * alpha)
        verdict = "PASS" if abs(value - closed) <= 3.0 * se else "FAIL"
        lines.append(
            f"laplace alpha={alpha!r} closed={float(closed)!r} mc={value!r} se={se!r} {verdict}"
        )
    decreasing = all(b[1] <= a[1] + 1e-12 for a, b in zip(rows, rows[1:]))
    lines.append(f"laplace monotone nonincreasing={decreasing} {'PASS' if decreasing else 'FAIL'}")
    return lines


def _diagnose_variance(config: Optional[RunConfig], seed: int) -> List[str]:
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
    results = run_campaign(base, 50)
    fraction = sum(r.trajectory[-1].variance < r.trajectory[0].variance for r in results) / 50
    verdict = "PASS" if fraction >= 0.95 else "FAIL"
    return [f"variance decay_fraction={fraction!r} threshold=0.95 {verdict}"]


# suite name -> the suite's lines from the config (None: its defaults) and the seed
SUITES = {
    "moments": _diagnose_moments,
    "pairwise": _diagnose_pairwise,
    "laplace": _diagnose_laplace,
    "variance": _diagnose_variance,
}


def cmd_diagnose(args) -> int:
    config = load_config(args.config, args)[0] if args.config is not None else None
    seed = config.master_seed if config else _default(_FLAGS["--seed"][0])
    if config is None and args.seed is not None:  # no config to check the flag against
        try:
            seed = RngPlan(args.seed).master_seed
        except FieldError as err:
            raise ConfigError(f"--seed {err.reason}") from None
    if args.suite == "moments" and config is not None and round(MOMENTS_T / config.params.dt) < 2:
        # the fit needs 3 points: round(2 / dt) >= 2 steps, so dt <= 4/3
        raise ConfigError(f"{_key_path(VariantParams, 'dt')} must be at most 4/3 for the moments "
                          f"suite, which fits its rates over t = 0 to {MOMENTS_T!r}")
    _make_out_dir(args.out)
    lines = [f"seed={seed} {line}" for line in SUITES[args.suite](config, seed)]  # provenance
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write_text(args.out, f"diagnose_{args.suite}.txt", text)
    return 0 if all(line.endswith("PASS") for line in lines) else 3


# ---------------------------------------------------------------------------
# argument parsing


def _shown(default) -> str:
    """A default as a config would spell it."""
    if default is None:
        return "absent"
    if default is dataclasses.MISSING:
        return "required"
    if isinstance(default, InitSpec):  # the keys of its kind
        keys = [k for k in SCHEMA if k.owner is InitSpec and default.kind in (k.kinds or INIT_KINDS)]
        shown = (f"{k.path.rpartition('.')[2]}: {_shown(getattr(default, k.field))}" for k in keys)
        return "{" + ", ".join(shown) + "}"
    return str(getattr(default, "value", default))  # a constant schedule shows its value


def _defaults_help() -> str:
    lines = ["config defaults (YAML), from the config dataclasses:"]
    for key in SCHEMA:
        notes = [f"({' | '.join(key.choices)})"] if key.choices else []
        notes += [f"{' or '.join(key.kinds)} only"] if key.kinds else []
        notes += [n for n in (key.note, key.flag) if n]
        default = "" if key.read is VariantParams else _shown(_default(key))
        lines.append(f"  {key.path:<27}{default:<12} {'; '.join(notes)}".rstrip())
    return "\n".join(lines) + (
        "\n\nexit codes: 0 ok, 1 usage or config error, 2 divergence, 3 diagnostic FAIL.\n"
        "CBO_THREADS caps campaign workers without affecting results.\n"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cbopt",
        description="Consensus-based optimization runner and diagnostics",
        epilog=_defaults_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": sub.add_parser("run", help="execute one run, stream JSON-lines + summary"),
        "bench": sub.add_parser("bench", help="run a seeded campaign, emit a CSV summary"),
        "diagnose": sub.add_parser("diagnose", help="check a quantitative law, print PASS/FAIL"),
    }
    commands["diagnose"].add_argument("suite", choices=list(SUITES))
    for name, p in commands.items():
        p.add_argument("--config", required=name != "diagnose", help="path to YAML config")
        p.add_argument("--out", default=None, help="directory for output files")
        for flag, keys in _FLAGS.items():
            if name in keys[0].commands:
                p.add_argument(
                    flag,
                    type={_int: int, _float: float}.get(keys[0].read, str),
                    choices=keys[0].choices or None,
                    help="sets " + " if the run is batched, else ".join(k.path for k in keys),
                )
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit code. A usage or config error, and a run
    that cannot start or go on (an initial state the objective is not finite
    on, a sphere particle at the origin), print one line to stderr and
    nothing to stdout."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_diagnose(args)
    except argparse.ArgumentError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DivergenceError, SingularityError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
