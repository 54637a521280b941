"""Run orchestration, campaign, success-rate, and diagnostics tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cbopt import harness
from cbopt.batching import BatchParams, ConstantSchedule
from cbopt.dynamics import VARIANTS, VariantParams, step
from cbopt.ensemble import Ensemble, FieldError, InitSpec, RngPlan, init_ensemble
from cbopt.harness import (
    RunConfig,
    SuccessCriterion,
    diagnostic_frozen_moment,
    diagnostic_laplace,
    diagnostic_pairwise_decay,
    fit_decay_rate,
    laplace_standard_error,
    run,
    run_campaign,
    success_rate,
)
from cbopt.objectives import ObjectiveFunction, make_objective


def small_config(**overrides):
    defaults = dict(
        objective="ackley",
        dimension=2,
        params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant="anisotropic"),
        n_particles=20,
        init=InitSpec("box", low=-2.0, high=2.0),
        max_steps=100,
        master_seed=5,
        record_every=10,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_frozen_requires_anisotropic(self):
        with pytest.raises(ValueError):
            small_config(
                integrator="frozen",
                params=VariantParams(variant="original"),
            )
        with pytest.raises(ValueError):
            small_config(
                integrator="split",
                params=VariantParams(variant="common_noise"),
            )

    def test_unknown_integrator(self):
        with pytest.raises(ValueError):
            small_config(integrator="milstein")

    def test_batching_requires_anisotropic_euler(self):
        batching = BatchParams(batch_size=5)
        for variant in ("original", "common_noise", "personal_best", "sphere"):
            with pytest.raises(ValueError, match="anisotropic"):
                small_config(batching=batching, params=VariantParams(variant=variant))
        for integrator in ("split", "frozen"):
            with pytest.raises(ValueError, match="euler"):
                small_config(batching=batching, integrator=integrator)
        assert small_config(batching=batching).batching == batching

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(n_particles=4, batching=BatchParams(batch_size=5)), "batching.batch_size"),
            (dict(init=InitSpec("gaussian", mean=(0.0, 1.0, 2.0))), "init.mean"),
            (dict(master_seed=-1), "master_seed"),
            (dict(objective="sphere"), "objective"),
        ],
    )
    def test_rejects_at_construction_what_a_run_would_reject(self, overrides, field):
        with pytest.raises(FieldError) as err:
            small_config(**overrides)
        assert err.value.field == field


class TestRun:
    def test_single_particle_fixed_point(self):
        config = small_config(
            n_particles=1,
            params=VariantParams(lam=1.0, sigma=0.0, alpha=30.0, dt=0.01, variant="anisotropic"),
            max_steps=30,
            record_every=5,
        )
        result = run(config)
        assert result.terminated_by == "max_steps"
        assert result.steps == 30
        assert all(pt.variance == 0.0 for pt in result.trajectory)
        first, last = result.trajectory[0], result.trajectory[-1]
        assert np.array_equal(first.v, last.v)

    def test_trajectory_times_strictly_increase(self):
        result = run(small_config())
        times = [pt.time for pt in result.trajectory]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reproducible(self):
        a = run(small_config())
        b = run(small_config())
        assert np.array_equal(a.final_consensus.v, b.final_consensus.v)
        assert a.steps == b.steps
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(pa.v, pb.v) and pa.variance == pb.variance

    def test_ackley_converges(self):
        result = run(small_config(max_steps=2000, record_every=2000))
        assert result.final_consensus.f_at_v < 0.05
        assert np.max(np.abs(result.final_consensus.v)) < 0.05

    def test_plain_stop_criterion(self):
        config = small_config(max_steps=5000, stop_eps=1e-18)
        result = run(config)
        assert result.terminated_by == "stop_criterion"
        assert result.steps < 5000

    def test_divergence_recorded_not_raised(self):
        config = small_config(
            objective="zakharov",
            dimension=2,
            params=VariantParams(lam=1.0, sigma=40.0, alpha=1.0, dt=10.0, variant="anisotropic"),
            init=InitSpec("box", low=-5.0, high=10.0),
            max_steps=5000,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(config)
        assert result.terminated_by == "divergence"
        assert np.isfinite(result.final_consensus.v).all()

    def test_all_variants_run(self):
        for variant in ("original", "anisotropic", "common_noise", "personal_best"):
            config = small_config(
                params=VariantParams(lam=1.0, sigma=0.5, alpha=20.0, dt=0.01, variant=variant),
                max_steps=40,
            )
            assert run(config).steps == 40
        sphere_config = small_config(
            dimension=3,
            params=VariantParams(lam=1.0, sigma=0.5, alpha=20.0, dt=0.01, variant="sphere"),
            init=InitSpec("sphere"),
            max_steps=40,
        )
        result = run(sphere_config)
        assert np.allclose(np.linalg.norm(result.final_positions, axis=1), 1.0, atol=1e-12)

    def test_integrators_run_and_contract(self):
        for integrator in ("split", "frozen"):
            result = run(small_config(integrator=integrator, max_steps=2000, record_every=2000))
            assert result.final_consensus.f_at_v < 0.1, integrator


class TestBatchedRun:
    def test_batched_full_budget(self):
        # low alpha keeps every batch-consensus point moving, so the stop
        # rule stays quiet and the epoch budget is exhausted
        config = small_config(
            params=VariantParams(lam=1.0, sigma=0.7, alpha=2.0, dt=0.01, variant="anisotropic"),
            batching=BatchParams(batch_size=5, stop_eps=1e-300, max_epochs=10),
            max_steps=40,
        )
        result = run(config)
        assert result.terminated_by == "max_steps"
        assert result.steps == 40  # 4 updates per epoch x 10 epochs

    def test_dominant_particle_triggers_stop(self):
        # with sharp weights the globally best particle pins the consensus of
        # every batch containing it and barely moves, so two consecutive
        # batch-consensus points can agree bitwise and stop the driver
        config = small_config(
            batching=BatchParams(batch_size=5, stop_eps=1e-300, max_epochs=10),
            max_steps=40,
        )
        result = run(config)
        assert result.terminated_by == "stop_criterion"

    def test_batch_of_all_matches_plain_run_bitwise(self):
        params = VariantParams(lam=1.0, sigma=0.6, alpha=25.0, dt=0.02, variant="anisotropic")
        plain = run(small_config(params=params, max_steps=50, record_every=1))
        batched = run(
            small_config(
                params=params,
                max_steps=50,
                record_every=1,
                batching=BatchParams(
                    batch_size=20,
                    update_mode="partial",
                    gamma_schedule=ConstantSchedule(0.02),
                    stop_eps=1e-300,
                    max_epochs=50,
                ),
            )
        )
        assert np.array_equal(plain.final_positions, batched.final_positions)
        for pa, pb in zip(plain.trajectory, batched.trajectory):
            assert np.array_equal(pa.v, pb.v)

    def test_partial_and_full_coincide_when_m_equals_n(self):
        base = small_config(
            max_steps=30,
            batching=BatchParams(batch_size=20, update_mode="partial", stop_eps=1e-300),
        )
        partial = run(base)
        full = run(
            replace(base, batching=replace(base.batching, update_mode="full"))
        )
        assert np.array_equal(partial.final_positions, full.final_positions)

    def test_batched_stop_criterion(self):
        config = small_config(
            max_steps=100_000,
            batching=BatchParams(batch_size=10, stop_eps=1e-10, max_epochs=5000),
        )
        result = run(config)
        assert result.terminated_by == "stop_criterion"


# every variant with euler, the exact integrators, and both batch modes
EDGE_SETUPS = [(variant, "euler", None) for variant in VARIANTS] + [
    ("anisotropic", "split", None),
    ("anisotropic", "frozen", None),
    ("anisotropic", "euler", "partial"),
    ("anisotropic", "euler", "full"),
]


class TestEdgeCases:
    @pytest.mark.parametrize("n, d", [(1, 3), (6, 1), (1, 1)])
    @pytest.mark.parametrize("variant, integrator, mode", EDGE_SETUPS)
    def test_one_particle_or_one_coordinate_gives_finite_output(
        self, n, d, variant, integrator, mode
    ):
        config = small_config(
            dimension=d,
            n_particles=n,
            params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant=variant),
            integrator=integrator,
            batching=None if mode is None else BatchParams(batch_size=n, update_mode=mode),
            init=InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-2, high=2),
            max_steps=25,
            record_every=5,
        )
        result = run(config)
        cp = result.final_consensus
        assert result.terminated_by in ("max_steps", "stop_criterion")
        assert result.final_positions.shape == (n, d)
        assert np.isfinite(result.final_positions).all()
        assert np.isfinite(cp.v).all() and math.isfinite(cp.f_at_v)
        assert math.isfinite(cp.log_normalizer)
        for pt in result.trajectory:
            assert np.isfinite(pt.v).all() and np.isfinite(pt.mean).all()
            assert math.isfinite(pt.f_at_v) and math.isfinite(pt.variance)
        if n == 1:  # the consensus of one particle is that particle
            assert np.array_equal(cp.v, result.final_positions[0])


class TestSuccessRate:
    def test_all_hits(self):
        results = [run(small_config(max_steps=1500, record_every=1500)) for _ in range(3)]
        crit = SuccessCriterion(target=np.zeros(2), tolerance=0.25)
        assert success_rate(results, crit) == 1.0

    def test_zero_tolerance_violations(self):
        result = run(small_config(max_steps=10))
        crit = SuccessCriterion(target=np.full(2, 50.0), tolerance=0.1)
        assert success_rate([result], crit) == 0.0

    def test_monotone_in_tolerance(self):
        results = [run(small_config(max_steps=200, master_seed=s)) for s in range(4)]
        rates = [
            success_rate(results, SuccessCriterion(target=np.zeros(2), tolerance=tol))
            for tol in (0.05, 0.1, 0.5, 1.0, 4.0)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0

    def test_euclidean_norm(self):
        crit = SuccessCriterion(target=np.zeros(2), tolerance=1.0, norm="euclidean")
        assert crit.met(np.array([0.6, 0.6])) is True
        assert crit.met(np.array([0.8, 0.8])) is False

    def test_dimension_mismatch(self):
        result = run(small_config(max_steps=5))
        crit = SuccessCriterion(target=np.zeros(3), tolerance=0.5)
        with pytest.raises(ValueError):
            success_rate([result], crit)

    def test_empty_results(self):
        with pytest.raises(ValueError):
            success_rate([], SuccessCriterion(target=np.zeros(1)))


class TestCampaign:
    def test_seeds_distinct_and_reproducible(self):
        results = run_campaign(small_config(max_steps=20), 5)
        seeds = [r.seed for r in results]
        assert len(set(seeds)) == 5
        again = run_campaign(small_config(max_steps=20), 5)
        assert [r.seed for r in again] == seeds
        for a, b in zip(results, again):
            assert np.array_equal(a.final_consensus.v, b.final_consensus.v)

    def test_worker_count_does_not_change_results(self):
        serial = run_campaign(small_config(max_steps=30), 4, workers=1)
        parallel = run_campaign(small_config(max_steps=30), 4, workers=2)
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert np.array_equal(a.final_consensus.v, b.final_consensus.v)
            assert np.array_equal(a.final_positions, b.final_positions)

    @pytest.mark.parametrize("setup", ["personal_best", "batch_partial", "batch_full"])
    def test_worker_count_does_not_change_other_paths(self, setup):
        if setup == "personal_best":
            params = VariantParams(lam=1.0, sigma=0.7, alpha=30.0, beta=30.0, dt=0.01,
                                   variant="personal_best")
            config = small_config(params=params, max_steps=30)
        else:
            mode = setup.split("_")[1]
            config = small_config(
                max_steps=40,
                batching=BatchParams(batch_size=8, update_mode=mode, stop_eps=1e-12),
            )
        serial = run_campaign(config, 4, workers=1)
        parallel = run_campaign(config, 4, workers=2)
        for a, b in zip(serial, parallel):
            assert (a.seed, a.steps, a.terminated_by) == (b.seed, b.steps, b.terminated_by)
            assert a.final_consensus.v.tobytes() == b.final_consensus.v.tobytes()
            assert a.final_positions.tobytes() == b.final_positions.tobytes()

    def test_workers_capped_at_runs(self, monkeypatch):
        pools = []

        class RecordingPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        config = small_config(max_steps=10)
        serial = run_campaign(config, 3)
        pooled = run_campaign(config, 3, workers=64)
        assert pools == [3]
        assert [r.seed for r in pooled] == [r.seed for r in serial]
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.final_positions, b.final_positions)
        run_campaign(config, 1, workers=64)
        assert pools == [3]  # one run stays in this process


class TestFitDecayRate:
    def test_exact_on_noiseless_exponential(self):
        t = np.linspace(0.0, 3.0, 10)
        series = np.column_stack([t, np.exp(-2.0 * t)])
        assert fit_decay_rate(series) == pytest.approx(2.0, abs=1e-10)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 7)
        series = np.column_stack([t, np.full(7, 3.3)])
        assert fit_decay_rate(series) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_invariance(self):
        t = np.linspace(0.0, 2.0, 20)
        v = np.exp(-0.7 * t) * (1 + 0.01 * np.sin(5 * t))
        a = fit_decay_rate(np.column_stack([t, v]))
        b = fit_decay_rate(np.column_stack([t, 1e6 * v]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_growth_yields_negative(self):
        t = np.linspace(0.0, 1.0, 5)
        assert fit_decay_rate(np.column_stack([t, np.exp(t)])) == pytest.approx(-1.0, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_decay_rate([(0.0, 1.0), (1.0, 0.5)])
        with pytest.raises(ValueError):
            fit_decay_rate([(0.0, 1.0), (1.0, 0.0), (2.0, 0.5)])


class TestFrozenMomentDiagnostic:
    def test_sigma_zero_deterministic(self):
        for d in (1, 3, 25):
            fitted, predicted = diagnostic_frozen_moment(
                "anisotropic", 1.0, 0.0, d, 1000, 1e-3, 1.0, 0
            )
            assert predicted == 2.0
            assert abs(fitted - 2.0) / 2.0 <= 0.01

    def test_validates_input(self):
        with pytest.raises(ValueError):
            diagnostic_frozen_moment("radial", 1.0, 0.1, 2, 5000, 1e-3, 1.0, 0)
        with pytest.raises(ValueError):
            diagnostic_frozen_moment("isotropic", 1.0, 0.1, 2, 10, 1e-3, 1.0, 0)


class TestLaplaceDiagnostic:
    def test_constant_landscape(self):
        const = ObjectiveFunction("const", lambda x: np.full(np.shape(x)[:-1], 2.5), 2)
        rows = diagnostic_laplace(const, InitSpec("gaussian"), [1.0, 10.0], 500, 3)
        for _, value in rows:
            assert value == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_closed_form_within_3se(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        init = InitSpec("gaussian")
        rows = diagnostic_laplace(quad, init, [1.0, 10.0, 100.0], 100_000, 17)
        e = init_ensemble(init, 100_000, 1, RngPlan(17))
        for alpha, value in rows:
            closed = math.log1p(2 * alpha) / (2 * alpha)
            se = laplace_standard_error(e, quad, alpha)
            assert abs(value - closed) <= 3 * se

    def test_nonincreasing_on_fixed_sample(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        rows = diagnostic_laplace(quad, InitSpec("gaussian"), [1.0, 5.0, 25.0, 125.0], 2000, 4)
        values = [v for _, v in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_alpha_validation(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        with pytest.raises(ValueError):
            diagnostic_laplace(quad, InitSpec("gaussian"), [2.0, 1.0], 100, 0)


class TestVarianceDecayDiagnostic:
    def test_coincident_start_stays_zero(self):
        config = small_config(
            init=InitSpec("box", low=1.0, high=1.0),
            params=VariantParams(lam=1.0, sigma=0.5, alpha=10.0, dt=0.01, variant="anisotropic"),
            max_steps=20,
            record_every=1,
        )
        trajectory = run(config).trajectory
        assert all(pt.variance == 0.0 for pt in trajectory)

    def test_decay_under_consensus_condition(self):
        config = small_config(max_steps=300, record_every=300)
        trajectory = run(config).trajectory
        assert trajectory[-1].variance < trajectory[0].variance

    def test_growth_with_common_noise_violating_condition(self):
        config = small_config(
            params=VariantParams(lam=0.1, sigma=1.0, alpha=10.0, dt=0.001, variant="common_noise"),
            max_steps=400,
            record_every=400,
            master_seed=11,
        )
        trajectory = run(config).trajectory
        assert trajectory[-1].variance > trajectory[0].variance


class TestPairwiseDiagnostic:
    def test_single_replica_matches_step_common_noise(self):
        lam, sigma, h, n, d, alpha = 1.0, 0.5, 0.01, 6, 4, 30.0
        seed = 23
        series = diagnostic_pairwise_decay(
            lam, sigma, h, n, replicas=1, t_final=5 * h, d=d, alpha=alpha, seed=seed
        )
        f = make_objective("rastrigin", d)
        plan = RngPlan(seed)
        e = Ensemble(plan.generator(0, 0).standard_normal((1, n, d))[0])
        p = VariantParams(lam=lam, sigma=sigma, alpha=alpha, dt=h, variant="common_noise")
        from cbopt.ensemble import mean_pairwise_sq_dist

        manual = [mean_pairwise_sq_dist(e.positions)]
        for _ in range(5):
            e = step(e, f, p, plan)[0]
            manual.append(mean_pairwise_sq_dist(e.positions))
        assert np.allclose([v for _, v in series], manual, rtol=1e-12, atol=0)

    def test_decay_rate_short(self):
        series = diagnostic_pairwise_decay(1.0, 0.5, 1e-3, 20, 200, 0.5, seed=31)
        fitted = fit_decay_rate(series)
        assert fitted == pytest.approx(1.75, rel=0.08)
