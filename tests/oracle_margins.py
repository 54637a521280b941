"""Seed margins of the statistical acceptance criteria 1 to 4: each criterion
reruns with its own configuration and tolerance at master seeds 1 to 10,
leaving out the seeds `tests/test_acceptance.py` freezes for it, and once
at those frozen seeds for comparison.

    python tests/oracle_margins.py [--campaigns] [seed ...]

With seeds, the given seeds replace 1 to 10. A criterion's margin at a
seed is the share of its tolerance left, 1 - error / tolerance: 1 is an
exact fit, 0 lies on the bound, and below 0 fails. Criterion 2 takes the
worse of its two dimensions, criterion 4 the worst of its three alphas,
and criterion 3 the decay fit, whose growth half must also grow to pass.
The timing bound of criterion 1 is left out: it measures the machine, not
the seed. Each line shows a criterion's pass fraction over the seeds, the
median and minimum margin with the seed of the minimum, and the margin at
its frozen seeds. It took 628 s on 2 vCPU beside a tier-1 run.

`--campaigns` runs the two campaign criteria, 5 and 10, in place of 1 to
4, at the same seeds and then at each one's frozen seed, and prints one
line per seed in the criterion's own units: criterion 5's success rate
minus 0.5 (100 ackley runs, d = 20; above 0 passes), and criterion 10's
gap, the personal_best success rate minus the anisotropic one (200 runs
each at the same run seeds, rastrigin, N = 10, d = 5; 0 or above passes),
with its unpaired standard error sqrt(p1 (1 - p1) / 200 + p2 (1 - p2) / 200)
and the gap in those errors. The time bound of criterion 5 is left out, as
criterion 1's is.

The script is a measure, not a gate: it changes no test, seed, tolerance
or bound, and a failing seed is a finding to report, not a reason to move
a frozen seed.
"""

import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cbopt.dynamics import VariantParams  # noqa: E402
from cbopt.ensemble import InitSpec  # noqa: E402
from cbopt.harness import (  # noqa: E402
    RunConfig, SuccessCriterion, diagnostic_frozen_moment, diagnostic_pairwise_decay,
    fit_decay_rate, laplace_table, run_campaign, success_rate,
)
from cbopt.objectives import ObjectiveFunction  # noqa: E402


def frozen_isotropic(seed):
    fitted, predicted = diagnostic_frozen_moment(
        "isotropic", lam=1.0, sigma=0.3, d=10, n=10_000, dt=1e-3, t_final=2.0, seed=seed)
    return 1.0 - abs(fitted - predicted) / predicted / 0.05, True


def frozen_anisotropic(seed):
    worst = 0.0
    for d, n in ((10, 10_000), (100, 2_000)):
        fitted, predicted = diagnostic_frozen_moment(
            "anisotropic", lam=1.0, sigma=0.3, d=d, n=n, dt=1e-3, t_final=2.0, seed=seed)
        worst = max(worst, abs(fitted - predicted) / predicted)
    return 1.0 - worst / 0.05, True


def pairwise(seed, growth_seed=None):
    series = diagnostic_pairwise_decay(
        lam=1.0, sigma=0.5, h=1e-3, n=50, replicas=1000, t_final=0.8, d=4, seed=seed)
    rel = abs(fit_decay_rate(series) - 1.75) / 1.75
    growth = diagnostic_pairwise_decay(
        lam=0.1, sigma=1.0, h=1e-3, n=50, replicas=1000, t_final=0.5, d=4,
        seed=seed if growth_seed is None else growth_seed)
    return 1.0 - rel / 0.03, growth[-1][1] > growth[0][1]


def laplace(seed):
    quadratic = ObjectiveFunction(
        "quadratic", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
    rows = laplace_table(quadratic, InitSpec("gaussian", mean=0.0, variance=1.0),
                         [1.0, 10.0, 100.0], 100_000, seed)
    worst = max(abs(value - math.log1p(2.0 * a) / (2.0 * a)) / (3.0 * se) for a, value, se in rows)
    values = [value for _, value, _ in rows]
    return 1.0 - worst, all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# (label, margin and extra pass condition at a seed, the frozen seeds, the frozen call)
CRITERIA = (
    ("1 frozen-mean isotropic", frozen_isotropic, {123}, lambda: frozen_isotropic(123)),
    ("2 frozen-mean anisotropic", frozen_anisotropic, {123}, lambda: frozen_anisotropic(123)),
    ("3 common-noise pairwise", pairwise, {0, 7}, lambda: pairwise(0, growth_seed=7)),
    ("4 laplace principle", laplace, {17}, lambda: laplace(17)),
)


def benchmark_success(seed):
    """Criterion 5 at a master seed: the success rate of its 100 runs."""
    config = RunConfig(
        objective="ackley", dimension=20,
        params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant="anisotropic"),
        n_particles=100, init=InitSpec("box", low=-1.0, high=1.0), max_steps=10_000,
        master_seed=seed, record_every=10_000, stop_eps=1e-26)
    crit = SuccessCriterion(target=np.zeros(20), tolerance=0.25, norm="infinity")
    return success_rate(run_campaign(config, 100), crit)


def personal_best_rates(seed):
    """Criterion 10 at a master seed: the personal_best and the anisotropic
    success rates, each over its 200 runs."""
    base = RunConfig(
        objective="rastrigin", dimension=5,
        params=VariantParams(lam=1.0, sigma=1.2, alpha=100.0, beta=100.0, dt=0.01,
                             variant="anisotropic"),
        n_particles=10, init=InitSpec("box", low=-2.0, high=2.0), max_steps=1500,
        master_seed=seed, record_every=100_000)
    pb = replace(base, params=replace(base.params, variant="personal_best"))
    crit = SuccessCriterion(target=np.zeros(5), tolerance=0.25, norm="infinity")
    return success_rate(run_campaign(pb, 200), crit), success_rate(run_campaign(base, 200), crit)


def campaigns(seeds) -> None:
    print("criterion 5, ackley d=20 success rate > 0.5")
    print(f"{'seed':>5s} {'rate':>6s} {'rate-0.5':>8s} {'time':>6s}")
    for seed in [s for s in seeds if s != 20] + [20]:
        start = time.perf_counter()
        rate = benchmark_success(seed)
        print(f"{seed:>5d} {rate:6.2f} {rate - 0.5:8.2f} {time.perf_counter() - start:5.0f}s"
              f"{'  frozen' if seed == 20 else ''}", flush=True)
    print("criterion 10, personal_best >= anisotropic")
    print(f"{'seed':>5s} {'pb':>6s} {'aniso':>6s} {'gap':>7s} {'SE':>6s} {'gap/SE':>7s} "
          f"{'time':>6s}")
    for seed in [s for s in seeds if s != 7] + [7]:
        start = time.perf_counter()
        pb, plain = personal_best_rates(seed)
        se = math.sqrt(pb * (1.0 - pb) / 200 + plain * (1.0 - plain) / 200)
        print(f"{seed:>5d} {pb:6.3f} {plain:6.3f} {pb - plain:7.3f} {se:6.3f} "
              f"{(pb - plain) / se if se else math.nan:7.2f} "
              f"{time.perf_counter() - start:5.0f}s{'  frozen' if seed == 7 else ''}", flush=True)


def main(args) -> None:
    seeds = [int(a) for a in args if a != "--campaigns"] or list(range(1, 11))
    if "--campaigns" in args:
        return campaigns(seeds)
    print(f"{'criterion':27s} {'pass':>6s} {'median':>7s} {'min (seed)':>13s} "
          f"{'frozen':>7s} {'time':>6s}")
    for label, measure, frozen, at_frozen in CRITERIA:
        start = time.perf_counter()
        kept = [s for s in seeds if s not in frozen]
        results = {s: measure(s) for s in kept}
        passed = sum(margin >= 0.0 and ok for margin, ok in results.values())
        margins = {s: margin for s, (margin, _) in results.items()}
        low = min(margins, key=margins.get)
        frozen_margin, _ = at_frozen()
        median = statistics.median(margins.values())
        print(f"{label:27s} {passed:>3d}/{len(kept):<2d} {median:7.2f} "
              f"{margins[low]:7.2f} ({low:>2d}) {frozen_margin:7.2f} "
              f"{time.perf_counter() - start:5.0f}s", flush=True)
        for s, (margin, ok) in results.items():
            if margin < 0.0 or not ok:
                print(f"  FAIL at seed {s}: margin {margin:.2f}, extra condition {ok}")


if __name__ == "__main__":
    main(sys.argv[1:])
