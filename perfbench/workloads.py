"""The benchmark's workloads: the inputs they generate and the checks on
each run's output.

A workload is a job of ``units``; a unit is a fixed list of campaign calls
(or, for ``cli_bench``, one ``cbopt bench`` invocation) whose seeds come
from the benchmark seed and the unit index. The job size follows from the
requested seconds and a reference cost per unit, so the work, the digest
and every count are the same whenever the seed and seconds are.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of cbopt.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cbopt  # noqa: E402
from cbopt import (  # noqa: E402
    BatchParams,
    ConstantSchedule,
    InitSpec,
    RunConfig,
    SuccessCriterion,
    VariantParams,
)

if Path(cbopt.__file__).resolve().parent != SRC / "cbopt":
    raise ImportError(f"cbopt must come from {SRC}, found {cbopt.__file__}")

TERMINATIONS = ("stop_criterion", "max_steps", "divergence")
SUCCESS_TOLERANCE = 0.25  # infinity norm around the known minimizer 0


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``unit_s`` is the time one unit takes on the reference machine (2 vCPU,
    Python 3.11, numpy 2.4; its speed drifts by up to 1.5x over minutes);
    ``min_units`` keeps at least 100 runs in a job so that ``run_s.p90`` has
    ten samples beyond it. ``steps`` and ``runs``
    (runs per campaign call) can be shrunk for fast tests.
    """

    name: str
    why: str
    unit_s: float
    min_units: int
    steps: int
    runs: int
    n_particles: int

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.unit_s))

    def calls(self, seed: int):
        """Campaign calls of one unit: a list of (label, RunConfig, runs)."""
        return _CALLS[self.name](self, seed)

    def reduced(self, steps: int, runs: int) -> "Workload":
        return replace(self, steps=steps, runs=runs, min_units=1)


def unit_seed(workload: str, seed: int, unit: int) -> int:
    """63-bit master seed of one unit; independent of the numpy version."""
    digest = hashlib.sha256(f"{workload}/{seed}/{unit}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# campaign_small_n and cli_bench: the personal-best acceptance protocol


def _small_n(w: Workload, seed: int):
    base = RunConfig(
        objective="rastrigin",
        dimension=5,
        params=VariantParams(lam=1.0, sigma=1.2, alpha=100.0, beta=100.0, dt=0.01),
        n_particles=w.n_particles,
        init=InitSpec("box", low=-2.0, high=2.0),
        max_steps=w.steps,
        master_seed=seed,
        record_every=100_000,
    )
    return [
        (variant, replace(base, params=replace(base.params, variant=variant)), w.runs)
        for variant in ("anisotropic", "personal_best")
    ]


def cli_yaml(w: Workload, steps=None, runs=None) -> str:
    """``campaign_small_n``'s config as ``cbopt bench`` reads it."""
    return (
        "objective: {name: rastrigin, dimension: 5}\n"
        "variant: {kind: anisotropic}\n"
        "params: {lambda: 1.0, sigma: 1.2, alpha: 100.0, beta: 100.0, dt: 0.01}\n"
        "harness:\n"
        f"  n_particles: {w.n_particles}\n"
        "  init: {kind: box, low: -2.0, high: 2.0}\n"
        f"  max_steps: {steps or w.steps}\n"
        "  seed: 0\n"
        f"  campaign: {{runs: {runs or w.runs}, tolerance: {SUCCESS_TOLERANCE}, "
        "norm: infinity, variants: [anisotropic, personal_best]}\n"
        "output: {record_every: 100000}\n"
    )


# ---------------------------------------------------------------------------
# single_large_n: one run per dynamics configuration, fixed step budget


def _large_n(w: Workload, seed: int):
    def config(variant, integrator="euler", heaviside="off", init=None):
        return RunConfig(
            objective="ackley",
            dimension=50,
            params=VariantParams(
                lam=1.0, sigma=0.7, alpha=30.0, dt=0.01,
                variant=variant, heaviside_mode=heaviside,
            ),
            integrator=integrator,
            n_particles=w.n_particles,
            init=init or InitSpec("box", low=-3.0, high=3.0),
            max_steps=w.steps,
            master_seed=seed,
            record_every=100_000,
        )

    return [
        ("anisotropic/euler", config("anisotropic"), 1),
        ("anisotropic/split", config("anisotropic", "split"), 1),
        ("anisotropic/frozen", config("anisotropic", "frozen"), 1),
        ("original/exact", config("original", heaviside="exact"), 1),
        ("common_noise", config("common_noise"), 1),
        ("personal_best", config("personal_best"), 1),
        ("sphere", config("sphere", init=InitSpec("sphere")), 1),
    ]


# ---------------------------------------------------------------------------
# random_batch: partial and full batch updates on paired seeds


def _random_batch(w: Workload, seed: int):
    def config(mode):
        return RunConfig(
            objective="rastrigin",
            dimension=10,
            params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
            batching=BatchParams(
                batch_size=10, update_mode=mode, gamma_schedule=ConstantSchedule(0.1)
            ),
            n_particles=w.n_particles,
            init=InitSpec("box", low=-2.0, high=2.0),
            max_steps=w.steps,
            master_seed=seed,
            record_every=100_000,
        )

    return [(mode, config(mode), w.runs) for mode in ("partial", "full")]


_CALLS = {
    "campaign_small_n": _small_n,
    "cli_bench": _small_n,
    "single_large_n": _large_n,
    "random_batch": _random_batch,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign_small_n",
            "10x5 arrays: harness bookkeeping, per-step Philox construction and "
            "redundant objective calls dominate; anisotropic vs personal_best on paired seeds",
            unit_s=8.0, min_units=2, steps=1500, runs=25, n_particles=10,
        ),
        Workload(
            "single_large_n",
            "2000x50 float64 arrays (800 KB vs 2 MiB L2): numpy kernels dominate; "
            "the only workload that runs the integrators",
            unit_s=1.0, min_units=15, steps=14, runs=1, n_particles=2000,
        ),
        Workload(
            "random_batch",
            "the only workload that runs batching: narrow partial writes (M=10 of N=200) "
            "and full-width writes through the same layer",
            unit_s=0.4, min_units=5, steps=200, runs=10, n_particles=200,
        ),
        Workload(
            "cli_bench",
            "python -m cbopt bench at CBO_THREADS=2: YAML parsing, CSV/JSONL output, "
            "process-pool start-up and result pickling",
            unit_s=4.0, min_units=4, steps=1500, runs=25, n_particles=10,
        ),
    )
}


# ---------------------------------------------------------------------------
# correctness


def check_run(config: RunConfig, steps: int, terminated_by: str, v, positions=None) -> list:
    """Problems with one run's output; empty when the run is correct."""
    problems = []
    v = np.asarray(v, dtype=float)
    if v.shape != (config.dimension,) or not np.isfinite(v).all():
        problems.append("final consensus point not finite")
    if not 0 <= steps <= config.max_steps:
        problems.append(f"steps {steps} outside budget {config.max_steps}")
    if terminated_by not in TERMINATIONS:
        problems.append(f"unknown termination {terminated_by!r}")
    elif terminated_by == "divergence":
        problems.append(f"diverged after {steps} steps")
    if config.params.variant == "sphere" and positions is not None:
        drift = np.max(np.abs(np.linalg.norm(positions, axis=1) - 1.0))
        if not drift <= 1e-9:
            problems.append(f"sphere rows off the unit sphere by {drift:.3g}")
    return problems


def success(config: RunConfig, v) -> bool:
    crit = SuccessCriterion(np.zeros(config.dimension), SUCCESS_TOLERANCE, "infinity")
    return crit.met(v)


def digest_run(h, seed: int, steps: int, terminated_by: str, v) -> None:
    """Feed one run's identity and final consensus point into ``h``."""
    h.update(f"{seed}:{steps}:{terminated_by}:".encode())
    h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
