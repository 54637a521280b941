"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria run on frozen seed sets; the configurations and any
calibrated choices (init boxes, Monte Carlo horizons) are spelled out
inline so every number here is reproducible.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cbopt.batching import BatchState, make_batches
from cbopt.consensus import weighted_mean, weights
from cbopt.dynamics import VariantParams, sphere_norm_drift, step
from cbopt.ensemble import STREAM_DIFFUSION, Ensemble, InitSpec, RngPlan, init_ensemble
from cbopt.harness import (
    RunConfig,
    SuccessCriterion,
    diagnostic_frozen_moment,
    diagnostic_pairwise_decay,
    fit_decay_rate,
    laplace_table,
    run_campaign,
    success_rate,
)
from cbopt.integrators import frozen_gbm, split_drift
from cbopt.objectives import ObjectiveFunction, make_objective


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_frozen_mean_isotropic_rate():
    import time

    t0 = time.perf_counter()
    fitted, predicted = diagnostic_frozen_moment(
        "isotropic", lam=1.0, sigma=0.3, d=10, n=10_000, dt=1e-3, t_final=2.0, seed=123
    )
    elapsed = time.perf_counter() - t0
    rel = abs(fitted - predicted) / predicted
    report(
        "1 frozen-mean isotropic",
        predicted == pytest.approx(1.1) and rel <= 0.05 and elapsed < 60.0,
        f"fitted={fitted:.5f} predicted={predicted} rel={rel:.4f} tol=0.05 t={elapsed:.1f}s",
    )


def test_02_frozen_mean_anisotropic_dimension_independent():
    fitted10, predicted10 = diagnostic_frozen_moment(
        "anisotropic", lam=1.0, sigma=0.3, d=10, n=10_000, dt=1e-3, t_final=2.0, seed=123
    )
    rel10 = abs(fitted10 - predicted10) / predicted10
    # same predicted rate at d=100; fewer particles suffice because each
    # particle averages 10x more coordinates
    fitted100, predicted100 = diagnostic_frozen_moment(
        "anisotropic", lam=1.0, sigma=0.3, d=100, n=2_000, dt=1e-3, t_final=2.0, seed=123
    )
    rel100 = abs(fitted100 - predicted100) / predicted100
    report(
        "2 frozen-mean anisotropic",
        predicted10 == pytest.approx(1.91)
        and predicted100 == pytest.approx(1.91)
        and rel10 <= 0.05
        and rel100 <= 0.05,
        f"d=10 fitted={fitted10:.5f} rel={rel10:.4f}; "
        f"d=100 fitted={fitted100:.5f} rel={rel100:.4f}; tol=0.05",
    )


def test_03_common_noise_pairwise_law():
    # decay: rate 2*lam - sigma^2 = 1.75; d=4 and T=0.8 keep the lognormal
    # replica noise small enough for the 3% tolerance at 1000 replicas
    series = diagnostic_pairwise_decay(
        lam=1.0, sigma=0.5, h=1e-3, n=50, replicas=1000, t_final=0.8, d=4, seed=0
    )
    fitted = fit_decay_rate(series)
    rel = abs(fitted - 1.75) / 1.75
    # growth: 2*lam - sigma^2 = -0.8 < 0
    growth = diagnostic_pairwise_decay(
        lam=0.1, sigma=1.0, h=1e-3, n=50, replicas=1000, t_final=0.5, d=4, seed=7
    )
    grew = growth[-1][1] > growth[0][1]
    report(
        "3 common-noise pairwise",
        rel <= 0.03 and grew,
        f"fitted={fitted:.5f} predicted=1.75 rel={rel:.4f} tol=0.03; "
        f"growth {growth[0][1]:.3f}->{growth[-1][1]:.3f}",
    )


def test_04_laplace_principle():
    quadratic = ObjectiveFunction(
        "quadratic", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1
    )
    init = InitSpec("gaussian", mean=0.0, variance=1.0)
    seed, n = 17, 100_000
    rows = laplace_table(quadratic, init, [1.0, 10.0, 100.0], n, seed)
    ok = True
    details = []
    for alpha, value, se in rows:
        closed = math.log1p(2.0 * alpha) / (2.0 * alpha)
        ok = ok and abs(value - closed) <= 3.0 * se
        details.append(f"a={alpha:g}: |{value:.6f}-{closed:.6f}|<={3 * se:.2e}")
    values = [v for _, v, _ in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    report("4 laplace principle", ok and monotone, "; ".join(details) + f"; monotone={monotone}")


def test_05_benchmark_success_rate():
    import time

    # desk-scale protocol: init uniform on [-1,1]^20, early stop once the
    # consensus point is stationary, success = final v within 0.25 (inf-norm)
    config = RunConfig(
        objective="ackley",
        dimension=20,
        params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant="anisotropic"),
        n_particles=100,
        init=InitSpec("box", low=-1.0, high=1.0),
        max_steps=10_000,
        master_seed=20,
        record_every=10_000,
        stop_eps=1e-26,
    )
    crit = SuccessCriterion(target=np.zeros(20), tolerance=0.25, norm="infinity")
    t0 = time.perf_counter()
    results = run_campaign(config, 100)
    elapsed = time.perf_counter() - t0
    rate = success_rate(results, crit)
    report(
        "5 ackley d=20 success",
        rate > 0.5 and elapsed < 300.0,
        f"rate={rate:.2f} (>0.5), 100 seeds, t={elapsed:.0f}s (<300s)",
    )


def test_06_sphere_constraint():
    f = make_objective("ackley", 3)
    plan = RngPlan(41)
    e = init_ensemble(InitSpec("sphere"), 50, 3, plan)
    p = VariantParams(lam=1.0, sigma=0.5, dt=0.002, alpha=20.0, variant="sphere")
    worst = 0.0
    for _ in range(1000):
        e = step(e, f, p, plan.normal_block(STREAM_DIFFUSION, e.step_count, (50, 3)))
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(e.positions, axis=1) - 1.0))))
    z = RngPlan(99).normal_block(STREAM_DIFFUSION, e.step_count, (50, 3))
    drift_coarse = sphere_norm_drift(e, f, replace(p, dt=0.004), z)
    drift_fine = sphere_norm_drift(e, f, replace(p, dt=0.002), z)
    ratio = drift_coarse / drift_fine
    report(
        "6 sphere constraint",
        worst <= 1e-12 and 1.7 <= ratio <= 2.3,
        f"max |norm-1| = {worst:.2e} over 1000 steps; drift ratio dt/2 -> {ratio:.3f}",
    )


def test_07_batch_bookkeeping():
    # the epoch list is [R_k, perm(0..n-1)], so a carried-over index also
    # occurs inside the fresh permutation: batches are disjoint as slices of
    # that list and their union with the new remainder is its exact multiset
    rng = np.random.default_rng(2025)
    epochs_checked = 0
    for n in range(3, 31):
        for m in range(1, n + 1):
            state = BatchState.fresh()
            plan = RngPlan(int(rng.integers(0, 2**63)))
            for _ in range(3):
                r_before = state.remainder.copy()
                batches, state = make_batches(state, n, m, plan)
                q = (n + r_before.size) // m
                assert len(batches) == q
                assert all(b.size == m for b in batches)
                flat = np.concatenate(batches + [state.remainder])
                assert flat.size == n + r_before.size  # slices never overlap
                expected = np.sort(np.concatenate([r_before, np.arange(n)]))
                assert np.array_equal(np.sort(flat), expected)  # union correct
                assert state.remainder.size < m
                if r_before.size == 0:  # no carry-over: set-disjoint batches
                    assert len(np.unique(flat)) == flat.size
                epochs_checked += 1
    report("7 batch bookkeeping", epochs_checked >= 1000, f"{epochs_checked} epochs checked")


def _rk4_contraction(x0, v, lam, gamma, substeps=10_000):
    h = gamma / substeps
    x = np.array(x0, dtype=float)
    for _ in range(substeps):
        k1 = -lam * (x - v)
        k2 = -lam * (x + 0.5 * h * k1 - v)
        k3 = -lam * (x + 0.5 * h * k2 - v)
        k4 = -lam * (x + h * k3 - v)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_08_integrator_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(5):
        lam = rng.uniform(0.2, 2.0)
        gamma = rng.uniform(0.05, 1.5)
        x = rng.normal(size=(3, 2)) * 4
        v = rng.normal(size=2)
        oracle = _rk4_contraction(x, v, lam, gamma)
        worst = max(worst, float(np.max(np.abs(split_drift(x, v, lam, gamma) - oracle))))
    # frozen GBM mean identity over 1e5 draws
    lam, sigma, gamma = 1.0, 0.6, 0.2
    x = np.full((100_000, 1), 3.0)
    v = np.ones(1)
    out = frozen_gbm(x, v, lam, sigma, gamma, np.random.default_rng(56).standard_normal(x.shape))
    mean_rel = abs(float(np.mean(out - v)) - 2.0 * math.exp(-lam * gamma)) / (
        2.0 * math.exp(-lam * gamma)
    )
    # sigma = 0 collapses bitwise
    xg = np.random.default_rng(57).normal(size=(40, 3))
    vg = np.random.default_rng(58).normal(size=3)
    bitwise = np.array_equal(
        split_drift(xg, vg, 1.3, 0.7),
        frozen_gbm(xg, vg, 1.3, 0.0, 0.7, np.random.default_rng(59).standard_normal(xg.shape)),
    )
    report(
        "8 integrator equivalence",
        worst <= 1e-8 and mean_rel <= 0.02 and bitwise,
        f"split vs RK4 max err={worst:.2e} (<=1e-8); GBM mean rel={mean_rel:.4f} (<=0.02); "
        f"sigma=0 bitwise={bitwise}",
    )


def test_09_consensus_algebra():
    rng = np.random.default_rng(99)
    base = ObjectiveFunction(
        "quadratic", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 3
    )
    hull_ok = shift_ok = scale_ok = mean_ok = argmin_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        positions = rng.uniform(-5, 5, size=(n, 3))
        e = Ensemble(positions)
        alpha = float(rng.uniform(0.1, 50.0))
        cp = weighted_mean(e, base, alpha)
        hull_ok &= bool(
            np.all(cp.v >= positions.min(axis=0) - 1e-12)
            and np.all(cp.v <= positions.max(axis=0) + 1e-12)
        )
        c = float(rng.uniform(-100, 100))
        shifted = ObjectiveFunction("q+c", lambda x, c=c: base.fn(x) + c, 3)
        shift_ok &= bool(np.max(np.abs(weighted_mean(e, shifted, alpha).v - cp.v)) <= 1e-12)
        s = float(rng.uniform(0.1, 10.0))
        scaled = ObjectiveFunction("s*q", lambda x, s=s: s * base.fn(x), 3)
        scale_ok &= bool(np.max(np.abs(weighted_mean(e, scaled, alpha / s).v - cp.v)) <= 1e-12)
        mean_ok &= bool(np.max(np.abs(weighted_mean(e, base, 0.0).v - positions.mean(axis=0))) <= 1e-12)
        fvals = np.asarray(base(positions))
        order = np.sort(fvals)
        if order[1] - order[0] > 0.01:  # separation so exp(-alpha gap) <~ 1e-44
            best = positions[int(np.argmin(fvals))]
            argmin_ok &= bool(np.max(np.abs(weighted_mean(e, base, 1e4).v - best)) <= 1e-12)
    report(
        "9 consensus algebra",
        hull_ok and shift_ok and scale_ok and mean_ok and argmin_ok,
        f"hull={hull_ok} shift={shift_ok} scale={scale_ok} alpha0={mean_ok} argmin={argmin_ok} "
        "(1000 instances, 1e-12)",
    )


def test_10_personal_best_helps_small_ensembles():
    # frozen protocol: Rastrigin d=5, N=10, sigma=1.2, alpha=beta=100,
    # dt=0.01, 1500 steps, init uniform [-2,2]^5, 200 paired seeds
    base = RunConfig(
        objective="rastrigin",
        dimension=5,
        params=VariantParams(
            lam=1.0, sigma=1.2, alpha=100.0, beta=100.0, dt=0.01, variant="anisotropic"
        ),
        n_particles=10,
        init=InitSpec("box", low=-2.0, high=2.0),
        max_steps=1500,
        master_seed=7,
        record_every=100_000,
    )
    pb = replace(base, params=replace(base.params, variant="personal_best"))
    crit = SuccessCriterion(target=np.zeros(5), tolerance=0.25, norm="infinity")
    rate_plain = success_rate(run_campaign(base, 200), crit)
    rate_pb = success_rate(run_campaign(pb, 200), crit)
    report(
        "10 personal best one-sided",
        rate_pb >= rate_plain,
        f"personal_best={rate_pb:.3f} >= anisotropic={rate_plain:.3f} (200 seeds)",
    )


def test_11_cli_reproducibility(tmp_path):
    config_text = (
        "objective: {name: rastrigin, dimension: 3}\n"
        "variant: {kind: anisotropic}\n"
        "params: {sigma: 0.6, alpha: 20.0}\n"
        "harness:\n"
        "  n_particles: 15\n"
        "  init: {kind: box, low: -2.0, high: 2.0}\n"
        "  max_steps: 120\n"
        "  seed: 3\n"
        "output: {record_every: 20}\n"
    )
    path = tmp_path / "config.yaml"
    path.write_text(config_text)

    def invoke(threads):
        out_dir = tmp_path / f"out_{threads}_{invoke.counter}"
        invoke.counter += 1
        env = dict(os.environ, CBO_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "cbopt", "run", "--config", str(path), "--seed", "44",
             "--out", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        files = {
            name: (out_dir / name).read_bytes()
            for name in ("trajectory.jsonl", "summary.json", "ensemble.csv")
        }
        return proc.stdout.encode(), files

    invoke.counter = 0
    first_out, first_files = invoke(1)
    second_out, second_files = invoke(1)
    threads_out, threads_files = invoke(4)
    identical = (
        first_out == second_out == threads_out
        and first_files == second_files == threads_files
    )
    report(
        "11 cli reproducibility",
        identical,
        f"stdout {len(first_out)} bytes and 3 output files identical across reruns and CBO_THREADS",
    )
