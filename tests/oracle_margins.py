"""Seed margins of the statistical acceptance criteria 1 to 4: each criterion
reruns with its own configuration and tolerance at master seeds 1 to 10,
leaving out the seeds `tests/test_acceptance.py` freezes for it, and once
at those frozen seeds for comparison.

    python tests/oracle_margins.py [seed ...]

With arguments, the given seeds replace 1 to 10. A criterion's margin at a
seed is the share of its tolerance left, 1 - error / tolerance: 1 is an
exact fit, 0 lies on the bound, and below 0 fails. Criterion 2 takes the
worse of its two dimensions, criterion 4 the worst of its three alphas,
and criterion 3 the decay fit, whose growth half must also grow to pass.
The timing bound of criterion 1 is left out: it measures the machine, not
the seed. Each line shows a criterion's pass fraction over the seeds, the
median and minimum margin with the seed of the minimum, and the margin at
its frozen seeds. The script is a measure, not a gate: it changes no test,
seed, tolerance or bound, and a failing seed is a finding to report, not a
reason to move a frozen seed. It took 628 s on 2 vCPU beside a tier-1 run.
"""

import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cbopt.ensemble import InitSpec  # noqa: E402
from cbopt.harness import (  # noqa: E402
    diagnostic_frozen_moment, diagnostic_pairwise_decay, fit_decay_rate, laplace_table,
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


def main(args) -> None:
    seeds = [int(a) for a in args] or list(range(1, 11))
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
