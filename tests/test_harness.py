"""Run orchestration, campaign, success-rate, and diagnostics tests."""

import concurrent.futures
import json
import math
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbopt import dynamics, harness, objectives
from cbopt.batching import (
    BatchParams, BatchState, ConstantSchedule, GeometricSchedule, batch_consensus, batch_update,
    make_batches, stop_check,
)
from cbopt.cli import main
from cbopt.dynamics import HEAVISIDE_MODES, VARIANTS, DivergenceError, VariantParams, step
from cbopt.ensemble import (
    STREAM_DIFFUSION, STREAM_PERMUTATION, DrawAhead, Ensemble, FieldError, InitSpec, RngPlan,
    init_ensemble,
)
from cbopt.harness import (
    INTEGRATORS,
    RunConfig,
    SuccessCriterion,
    diagnostic_frozen_moment,
    diagnostic_pairwise_decay,
    fit_decay_rate,
    laplace_table,
    run,
    run_campaign,
    success_rate,
)
from cbopt.consensus import weighted_mean
from cbopt.objectives import ObjectiveFunction, benchmark_names, make_objective


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


def counted_run(config, monkeypatch):
    """The run, and the shape of the points of each objective call it made."""
    calls, call = [], ObjectiveFunction.__call__

    def counted(f, x):
        calls.append(np.shape(x))
        return call(f, x)

    monkeypatch.setattr(ObjectiveFunction, "__call__", counted)
    result = run(config)
    monkeypatch.setattr(ObjectiveFunction, "__call__", call)
    return result, calls


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
            (dict(stop_eps=1e-6, batching=BatchParams(batch_size=5)), "stop_eps"),
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

    @pytest.mark.parametrize("eps", [1e-6, 1e-20])
    def test_plain_stop_rule_can_end_after_one_step_under_sharp_weights(self, eps):
        # the rule's documented meaning: it measures the move of v, and one
        # particle that carries nearly all the weight pins v
        config = small_config(dimension=3, n_particles=12, master_seed=7, max_steps=60,
                              stop_eps=eps)
        fvals = make_objective("ackley", 3)(init_ensemble(config.init, 12, 3, RngPlan(7)).positions)
        w = np.exp(-30.0 * (fvals - fvals.min()))
        assert w.sum() ** 2 / (w * w).sum() < 1.01  # effective sample size
        result = run(config)
        assert (result.terminated_by, result.steps) == ("stop_criterion", 1)
        assert [point.step for point in result.trajectory] == [0, 1]

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

    def test_unevaluable_final_state_ends_as_divergence_at_any_budget(self, tmp_path, capsys):
        # the objective overflows at step 54 while the positions stay finite
        # (up to 3e154); a budget of 54 steps ends on that state too
        config = small_config(objective="rastrigin", n_particles=5, master_seed=3,
                              params=VariantParams(sigma=1e3, dt=1.0), max_steps=10_000)
        free = run(config)
        assert (free.steps, free.terminated_by) == (54, "divergence")
        assert np.isfinite(free.final_positions).all()
        assert_same_run(run(replace(config, max_steps=54)), free)
        path = tmp_path / "config.yaml"
        path.write_text("objective: {name: rastrigin, dimension: 2}\n"
                        "params: {sigma: 1000.0, dt: 1.0}\n"
                        "harness: {n_particles: 5, init: {kind: box, low: -2.0, high: 2.0}, "
                        "seed: 3, max_steps: 54}\n")
        assert main(["run", "--config", str(path)]) == 2
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
        assert (summary["terminated_by"], summary["steps"]) == ("divergence", 54)
        assert summary["final_v_f"] == free.final_consensus.v.tolist()

    def test_unevaluable_final_state_is_evaluated_once(self, monkeypatch):
        # one call a step: the ensemble, with the last step's v as one more
        # row from step 1 on, for 54 steps; then the one failed call on the
        # step-54 state, which also evaluates v of step 53, the result's point
        config = small_config(objective="rastrigin", n_particles=5, master_seed=3,
                              params=VariantParams(sigma=1e3, dt=1.0), max_steps=10_000)
        expected = run(config)
        result, calls = counted_run(config, monkeypatch)
        assert (result.steps, result.terminated_by) == (54, "divergence")
        assert calls == [(5, 2)] + [(6, 2)] * 54
        assert_same_run(result, expected)

    @pytest.mark.parametrize("variant, n, d, expected", [
        ("anisotropic", 10, 5, lambda n, d: [(n, d)] + [(n + 1, d)] * 3 + [(d,)]),
        ("anisotropic", 127, 256, lambda n, d: [(n, d)] + [(n + 1, d)] * 3 + [(d,)]),
        ("anisotropic", 127, 257, lambda n, d: [(n, d), (d,)] * 4),
        ("original", 10, 5, lambda n, d: [(n, d), (n + 1, d)] * 3 + [(n, d), (d,)]),
        ("original", 127, 257, lambda n, d: [(n, d), (d,), (n, d)] * 3 + [(n, d), (d,)]),
    ], ids=["anisotropic", "anisotropic_at_the_gate", "anisotropic_past_the_gate", "original",
            "original_past_the_gate"])
    def test_a_small_step_evaluates_v_as_a_row_of_its_next_call(self, variant, n, d, expected,
                                                                 monkeypatch):
        # while [x; v] holds at most SHARD_MIN_ELEMENTS numbers, (N + 1) d,
        # v is the last row of the next call: the gate's in the same step for
        # original with a gate, else the next state's consensus call; step 0
        # evaluates the ensemble alone and the final state's v goes alone
        assert 128 * 256 == objectives.SHARD_MIN_ELEMENTS
        config = small_config(objective="rastrigin", dimension=d, n_particles=n, max_steps=3,
                              params=VariantParams(sigma=0.5, variant=variant,
                                                   heaviside_mode="exact"))
        result, calls = counted_run(config, monkeypatch)
        assert result.steps == 3
        assert calls == expected(n, d)
        monkeypatch.setattr(dynamics, "SHARD_MIN_ELEMENTS", 0)  # f(v) in a call of its own
        assert_same_run(run(config), result)

    @pytest.mark.parametrize("n, d, update", [
        (10, 5, lambda n, d: [(n, d), (2 * n + 1, d)]),
        (64, 254, lambda n, d: [(n, d), (2 * n + 1, d)]),
        (64, 255, lambda n, d: [(n, d), (d,), (2 * n, d)]),
        (64, 256, lambda n, d: [(n, d), (d,), (2 * n, d)]),
        (64, 257, lambda n, d: [(n, d), (d,), (n, d), (n, d)]),
    ], ids=["small", "at_the_gate", "past_the_gate", "x_and_p_at_their_gate",
            "past_both_gates"])
    def test_personal_best_evaluates_x_and_p_in_one_small_call(self, n, d, update,
                                                               monkeypatch):
        # the ensemble, then f at [x; p; v] in one call while that stack
        # holds at most SHARD_MIN_ELEMENTS numbers, (2 N + 1) d; past it v
        # goes alone, and f at [x; p] in one call while 2 N d fits, else f(x)
        # and f(p); the final state's ensemble and v close the run
        assert 129 * 254 <= objectives.SHARD_MIN_ELEMENTS < 129 * 255
        assert 2 * 64 * 256 == objectives.SHARD_MIN_ELEMENTS
        config = small_config(objective="rastrigin", dimension=d, n_particles=n, max_steps=3,
                              params=VariantParams(sigma=0.5, variant="personal_best"))
        result, calls = counted_run(config, monkeypatch)
        assert result.steps == 3
        assert calls == update(n, d) * 3 + [(n, d), (d,)]
        monkeypatch.setattr(dynamics, "SHARD_MIN_ELEMENTS", 0)  # f(x), f(v) and f(p) apart
        assert_same_run(run(config), result)

    @pytest.mark.parametrize("batching", [None, BatchParams(batch_size=3)], ids=["plain", "batched"])
    def test_unevaluable_initial_state_raises_divergence_at_step_zero(self, batching):
        # griewank's quadratic term overflows on a box of +-1e300; the batched
        # run's first epoch is one group, retried one batch at a time
        config = small_config(objective="griewank", n_particles=12, master_seed=1, max_steps=5,
                              init=InitSpec("box", low=-1e300, high=1e300), batching=batching)
        with pytest.raises(DivergenceError) as err:
            run(config)
        assert (err.value.step, str(err.value)) == (0, "non-finite objective values before step 0")

    @pytest.mark.parametrize("overrides, ending", [
        (dict(dimension=3, master_seed=7, stop_eps=1e-20), "stop_criterion"),
        (dict(master_seed=3, params=VariantParams(sigma=1e300, dt=1.0)), "divergence"),
    ], ids=["stop_rule", "kick_diverges"])
    def test_unmoved_final_state_reuses_the_loops_point(self, overrides, ending, monkeypatch):
        # the ensemble for step 0, the ensemble with v of step 0 as one more
        # row for step 1, whose update does not happen, and v of step 1
        # alone: the final state is the step-1 state
        config = small_config(n_particles=12, max_steps=60, **overrides)
        result, calls = counted_run(config, monkeypatch)
        assert (result.terminated_by, result.steps) == (ending, 1)
        d = config.dimension
        assert calls == [(12, d), (13, d), (d,)]
        f = make_objective("ackley", config.dimension)
        with np.errstate(over="ignore"):  # as the run evaluates: x * x overflows at 1e300
            again = weighted_mean(Ensemble(result.final_positions, step_count=1), f, 30.0)
        assert result.final_consensus.v.tobytes() == again.v.tobytes()
        assert result.final_consensus.f_at_v == again.f_at_v
        assert result.trajectory[-1].step == 1

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

    @pytest.mark.parametrize("integrator, called", [
        ("euler", {"step": 3}),
        ("split", {"split_drift": 3, "split_diffusion": 3}),
        ("frozen", {"frozen_gbm": 3}),
    ])
    def test_run_calls_each_kernel_through_harness_globals(self, monkeypatch, integrator, called):
        # the benchmark times the kernels by wrapping these names in harness's
        # globals: a kernel imported but called some other way would go untimed
        config = small_config(integrator=integrator, max_steps=3, record_every=3)
        expected = run(config).final_positions
        counts = dict.fromkeys(("step", "split_drift", "split_diffusion", "frozen_gbm"), 0)

        def counting(name, kernel):
            def counted(*args, **kwargs):
                counts[name] += 1
                return kernel(*args, **kwargs)
            return counted

        for name in counts:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        result = run(config)
        assert counts == {**dict.fromkeys(counts, 0), **called}
        assert result.final_positions.tobytes() == expected.tobytes()


def outcome(config):
    """The run's result, or the type and message of the error it raised (a
    sphere step squares sigma as a Python float, which raises OverflowError
    past 1e154)."""
    try:
        return run(config)
    except (DivergenceError, dynamics.SingularityError, OverflowError) as err:
        return type(err), str(err)


class TestOwedValues:
    """A plain run evaluates each consensus point's value f(v) as one more
    row of its next objective call while that call is small: it must end as
    the run that evaluates every f(v) in a call of its own, byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        variant=st.sampled_from(VARIANTS),
        heaviside=st.sampled_from(HEAVISIDE_MODES),
        integrator=st.sampled_from(INTEGRATORS),
        objective=st.sampled_from(benchmark_names()),
        n=st.integers(1, 14),
        d=st.integers(1, 6),
        record_every=st.integers(1, 12),
        stop_eps=st.sampled_from([None, 1e-300, 1e-8, 1e-2]),
        sigma=st.sampled_from([0.3, 0.8, 1e3, 1e300]),
        dt=st.sampled_from([0.01, 0.1, 1.0]),
        max_steps=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    # the kick's positions overflow at step 1; rastrigin overflows at step 54
    @example(variant="anisotropic", heaviside="off", integrator="euler", objective="ackley",
             n=12, d=2, record_every=1, stop_eps=None, sigma=1e300, dt=1.0, max_steps=60,
             seed=3)
    @example(variant="anisotropic", heaviside="off", integrator="euler", objective="rastrigin",
             n=5, d=2, record_every=7, stop_eps=None, sigma=1e3, dt=1.0, max_steps=100,
             seed=3)
    def test_matches_the_run_with_f_at_v_apart(self, variant, heaviside, integrator, objective,
                                               n, d, record_every, stop_eps, sigma, dt,
                                               max_steps, seed):
        variant = variant if integrator == "euler" else "anisotropic"
        config = RunConfig(
            objective=objective, dimension=d,
            params=VariantParams(lam=1.0, sigma=sigma, alpha=30.0, dt=dt, variant=variant,
                                 heaviside_mode=heaviside),
            integrator=integrator, n_particles=n,
            init=InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-2.0,
                                                                           high=2.0),
            max_steps=max_steps, master_seed=seed, record_every=record_every, stop_eps=stop_eps,
        )
        fused = outcome(config)
        with mock.patch.object(dynamics, "SHARD_MIN_ELEMENTS", 0):
            apart = outcome(config)
        if isinstance(apart, tuple):
            assert fused == apart
            return
        assert_same_run(fused, apart)
        assert [np.float64(pt.f_at_v).tobytes() for pt in fused.trajectory] == \
            [np.float64(pt.f_at_v).tobytes() for pt in apart.trajectory]
        assert all(type(pt.f_at_v) is float for pt in fused.trajectory)


def large_config(**overrides):
    """A plain run whose blocks of 1024 x 32 = 2^15 numbers reach
    objectives.SHARD_MIN_ELEMENTS, so it draws them one step ahead."""
    fields = dict(
        objective="ackley", dimension=32, params=VariantParams(lam=1.0, sigma=0.7, dt=0.01),
        n_particles=1024, init=InitSpec("box", low=-3.0, high=3.0), max_steps=4,
        master_seed=3, record_every=1,
    )
    return RunConfig(**{**fields, **overrides})


class TestDrawAhead:
    """A run on two or more CPUs draws each large step's noise one step ahead
    on a helper thread: its result is the inline draw's, bit for bit."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """Two usable CPUs at least; records the thread of every
        RngPlan.generator call and the name and future of every helper task,
        and slows each draw, so that only a wait for it ends it in time."""
        monkeypatch.setattr(objectives, "_THREADS", max(objectives._THREADS, 2))
        generators, tasks = [], []
        generator, executor = RngPlan.generator, objectives.executor

        def traced_generator(plan, stream, step):
            generators.append(threading.get_ident())
            return generator(plan, stream, step)

        def slow(fn, *args, **kwargs):
            time.sleep(0.05)
            return fn(*args, **kwargs)

        class Pool:
            def submit(self, fn, *args, **kwargs):
                name = getattr(fn, "__name__", "")
                if name == "standard_normal":
                    args, fn = (fn, *args), slow
                tasks.append((name, executor().submit(fn, *args, **kwargs)))
                return tasks[-1][1]

        monkeypatch.setattr(RngPlan, "generator", traced_generator)
        monkeypatch.setattr(objectives, "executor", Pool)
        return generators, tasks

    @staticmethod
    def ahead_and_inline(config, traced, monkeypatch):
        """The run with draw-ahead, then forced inline; the draws made ahead
        and the generator calls of each run."""
        generators, tasks = traced
        ahead = run(config)
        assert all(task.done() for _, task in tasks)  # no draw runs on after `run`
        draws, calls = sum(name == "standard_normal" for name, _ in tasks), len(generators)
        assert set(generators) == {threading.get_ident()}
        monkeypatch.setattr(objectives, "SHARD_MIN_ELEMENTS", 2**62)
        inline = run(config)
        assert sum(name == "standard_normal" for name, _ in tasks) == draws  # none ahead
        return ahead, inline, draws, (calls, len(generators) - calls)

    @pytest.mark.parametrize("variant, integrator", [
        ("anisotropic", "euler"), ("anisotropic", "split"), ("anisotropic", "frozen"),
        ("original", "euler"), ("common_noise", "euler"), ("personal_best", "euler"),
        ("sphere", "euler"),
    ])
    def test_steps_match_the_inline_draw_bitwise(self, variant, integrator, traced,
                                                 monkeypatch):
        params = VariantParams(lam=1.0, sigma=0.7, dt=0.01, variant=variant,
                               heaviside_mode="exact" if variant == "original" else "off")
        init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-3.0, high=3.0)
        config = large_config(params=params, integrator=integrator, init=init)
        ahead, inline, draws, calls = self.ahead_and_inline(config, traced, monkeypatch)
        assert_same_run(ahead, inline)
        assert ahead.terminated_by == "max_steps"
        # the init block and one block a step; common noise draws d numbers
        assert calls == (config.max_steps + 1,) * 2
        assert draws == (0 if variant == "common_noise" else config.max_steps - 1)

    @pytest.mark.parametrize("n, m, mode, record_every", [
        (1024, 512, "full", 100),  # (N, d) blocks, epoch 1 starts at step 2
        (2048, 1024, "partial", 1),  # (M, d) blocks, every batch alone
        (2048, 1024, "partial", 100),  # epoch 0 is one stack of two members
    ], ids=["full", "partial_single", "partial_stack"])
    def test_batched_steps_match_the_inline_draw_bitwise(self, n, m, mode, record_every, traced,
                                                         monkeypatch):
        # an epoch's deal comes while the block of its first step is pending
        config = large_config(n_particles=n, max_steps=4, record_every=record_every,
                              batching=BatchParams(batch_size=m, update_mode=mode,
                                                   stop_eps=1e-300))
        ahead, inline, draws, calls = self.ahead_and_inline(config, traced, monkeypatch)
        assert_same_run(ahead, inline)
        assert_same_run(ahead, per_batch_run(config))
        assert ahead.terminated_by == "max_steps"
        assert draws == config.max_steps - 1 and calls[0] == calls[1]

    @pytest.mark.parametrize("overrides, ending, steps", [
        (dict(stop_eps=1e300), "stop_criterion", 1),
        (dict(params=VariantParams(sigma=1e300, dt=1.0)), "divergence", 1),
        (dict(objective="zakharov", params=VariantParams(sigma=1e40, dt=1.0)), "divergence", 2),
    ], ids=["stop_at_step_1", "kick_diverges", "objective_fails"])
    def test_early_endings_match_the_inline_draw(self, overrides, ending, steps, traced,
                                                 monkeypatch):
        config = large_config(max_steps=6, **overrides)
        ahead, inline, draws, _ = self.ahead_and_inline(config, traced, monkeypatch)
        assert (ahead.terminated_by, ahead.steps) == (ending, steps)
        assert_same_run(ahead, inline)
        assert draws >= 1  # the block of a step the run never takes was pending

    def test_a_raising_objective_leaves_no_draw_running(self, traced, monkeypatch):
        points = []

        def failing(x):  # fails on the consensus point of step 1, with block 1 drawn ahead
            points.append(np.ndim(x))
            if points.count(1) == 2:
                raise RuntimeError("objective failed")
            return objectives.ackley(x)

        monkeypatch.setattr(harness, "make_objective",
                            lambda name, d: ObjectiveFunction(name, failing, d))
        config = large_config()  # [x; v] is past SHARD_MIN_ELEMENTS: f(v) has a call of its own
        assert (config.n_particles + 1) * config.dimension > objectives.SHARD_MIN_ELEMENTS
        with pytest.raises(RuntimeError, match="objective failed"):
            run(config)
        _, tasks = traced
        assert any(name == "standard_normal" for name, _ in tasks)
        assert all(task.done() for _, task in tasks)

    def test_draws_from_the_callers_plan_leave_a_pending_block_alone(self, traced):
        # as a batched run deals an epoch from its one plan while a block is pending
        plan, shape = RngPlan(5), (1024, 32)
        with DrawAhead(plan, STREAM_DIFFUSION, shape, end=2) as noise:
            noise.block(0)
            assert noise.pending is not None  # block 1, its draw slowed
            plan.generator(STREAM_PERMUTATION, 0).permutation(200)
            z = noise.block(1)
        assert z.tobytes() == RngPlan(5).normal_block(STREAM_DIFFUSION, 1, shape).tobytes()


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


def per_batch_run(config):
    """Reference batched run, one batch at a time: batch_consensus, record,
    stop check, batch_update, in the order make_batches deals the batches."""
    f = harness.make_objective(config.objective, config.dimension)
    plan = RngPlan(config.master_seed)
    e = init_ensemble(config.init, config.n_particles, config.dimension, plan)
    p, bp = config.params, config.batching
    if bp.sigma_schedule is None:
        bp = replace(bp, sigma_schedule=ConstantSchedule(p.sigma))
    all_rows = np.arange(config.n_particles) if bp.update_mode == "full" else None
    trajectory, v_prev, cp, status = [], None, None, "max_steps"

    def batches():
        state = BatchState.fresh()
        for k in range(bp.max_epochs):
            dealt, state = make_batches(state, config.n_particles, bp.batch_size, plan)
            for theta, batch in enumerate(dealt):
                yield k, theta, batch

    for k, theta, batch in batches():
        try:
            cp = batch_consensus(e, f, p.alpha, batch)
        except ValueError as err:
            if cp is None:
                raise DivergenceError(0, "non-finite objective values before step") from err
            status = "divergence"
            break
        if e.step_count % config.record_every == 0:
            trajectory.append(harness._point(e, cp, None))
        stop = v_prev is not None and stop_check(v_prev, cp.v, config.dimension, bp.stop_eps)
        scope = batch if all_rows is None else all_rows
        z = plan.normal_block(STREAM_DIFFUSION, e.step_count, (scope.size, config.dimension))
        try:
            e = batch_update(e, cp, bp, scope, z, np.empty(z.shape), lam=p.lam, sigma=p.sigma,
                             k=k, theta=theta)
        except DivergenceError:
            status = "divergence"
            break
        if stop:
            status = "stop_criterion"
            break
        v_prev = cp.v
        if e.step_count >= config.max_steps:
            break
    try:
        final_cp = weighted_mean(e, f, p.alpha)
    except ValueError:
        final_cp = None
    return harness._finish(trajectory, e, final_cp, status, 0.0, config, cp, None)


def assert_same_run(result, expected):
    """Steps, ending, every trajectory field, the final consensus point and
    the final positions, bytewise."""
    assert (result.steps, result.terminated_by) == (expected.steps, expected.terminated_by)
    assert len(result.trajectory) == len(expected.trajectory)
    for a, b in zip(result.trajectory, expected.trajectory):
        assert (a.step, a.time, a.f_at_v, a.variance) == (b.step, b.time, b.f_at_v, b.variance)
        assert a.v.tobytes() == b.v.tobytes() and a.mean.tobytes() == b.mean.tobytes()
    got, want = result.final_consensus, expected.final_consensus
    assert got.v.tobytes() == want.v.tobytes()
    assert got.f_at_v == want.f_at_v and type(got.f_at_v) is float
    assert result.final_positions.tobytes() == expected.final_positions.tobytes()


def wavy_gamma(k, theta):
    """A step size that changes with the batch index, not a dataclass."""
    return 0.02 + 0.01 * math.sin(1.0 + 0.7 * theta + 0.3 * k)


SCHEDULES = {
    "constant": ConstantSchedule(0.03),
    "geometric": GeometricSchedule(initial=0.04, decay=0.9),
    "callable": wavy_gamma,
}


def batched_config(n, m, mode="partial", **overrides):
    batching = dict(batch_size=m, update_mode=mode, stop_eps=1e-300, max_epochs=100)
    batching.update(overrides.pop("batching", {}))
    defaults = dict(
        objective="rastrigin", dimension=2,
        params=VariantParams(lam=1.0, sigma=0.5, alpha=1.0, dt=0.01),
        batching=BatchParams(**batching), n_particles=n,
        init=InitSpec("box", low=-5.0, high=10.0), max_steps=40, master_seed=3, record_every=100,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def sigma_at(trigger, value, otherwise=0.5):
    """A noise scale of `value` at (epoch, theta) `trigger`, else `otherwise`."""
    return lambda k, theta: value if (k, theta) == trigger else otherwise


class TestGroupedBatches:
    """A batched run evaluates disjoint batches of an epoch as one stack; it
    must end exactly as the run that takes one batch at a time."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 14),
        m_frac=st.floats(0.0, 1.0),
        d=st.integers(1, 3),
        mode=st.sampled_from(["partial", "full"]),
        record_every=st.integers(1, 7),
        max_steps=st.integers(1, 40),
        max_epochs=st.integers(1, 4),
        stop_eps=st.sampled_from([1e-300, 1e-6, 1e-2]),
        gamma=st.sampled_from(sorted(SCHEDULES)),
        sigma=st.sampled_from(["dynamics", *sorted(SCHEDULES)]),
        objective=st.sampled_from(["rastrigin", "ackley", "zakharov"]),
        alpha=st.sampled_from([1.0, 30.0]),
        seed=st.integers(0, 2**32),
    )
    # 5 = 3 + 2: the second epoch deals a leftover row again in its second batch
    @example(n=5, m_frac=0.5, d=1, mode="partial", record_every=3, max_steps=3, max_epochs=2,
             stop_eps=1e-300, gamma="callable", sigma="dynamics", objective="rastrigin",
             alpha=1.0, seed=5)
    def test_matches_one_batch_at_a_time_bitwise(
        self, n, m_frac, d, mode, record_every, max_steps, max_epochs, stop_eps, gamma, sigma,
        objective, alpha, seed,
    ):
        m = 1 + min(n - 1, int(m_frac * n))
        config = RunConfig(
            objective=objective, dimension=d,
            params=VariantParams(lam=1.0, sigma=0.7, alpha=alpha, dt=0.01),
            batching=BatchParams(
                batch_size=m, update_mode=mode, gamma_schedule=SCHEDULES[gamma],
                sigma_schedule=None if sigma == "dynamics" else SCHEDULES[sigma],
                stop_eps=stop_eps, max_epochs=max_epochs,
            ),
            n_particles=n, init=InitSpec("box", low=-2.0, high=2.0), max_steps=max_steps,
            master_seed=seed, record_every=record_every,
        )
        assert_same_run(run(config), per_batch_run(config))

    def test_groups_make_fewer_objective_calls_on_the_same_points(self, monkeypatch):
        config = batched_config(12, 3, max_steps=24)  # 4 disjoint batches an epoch
        calls = []  # the points of each objective call

        def counting(name, d):
            fn = make_objective(name, d).fn

            def counted(x):
                calls.append(math.prod(np.shape(x)[:-1]))
                return fn(x)
            return ObjectiveFunction(name, counted, d)

        monkeypatch.setattr(harness, "make_objective", counting)
        grouped = run(config)
        grouped_calls, calls[:] = calls[:], []
        assert_same_run(grouped, per_batch_run(config))
        # M + 1 points a batch and N + 1 for the final state, in fewer calls
        assert sum(grouped_calls) == sum(calls) == 24 * 4 + 12 + 1
        assert len(grouped_calls) < len(calls)

    def test_non_finite_kick_inside_a_group(self):
        # 13 = 3 x 4 + 1; sigma = inf at the third batch of the second epoch
        # (step 5): its kick is non-finite, the two members before it are
        # applied; the record at step 3 holds the clock after the first epoch
        config = batched_config(13, 4, record_every=3, batching=dict(
            gamma_schedule=wavy_gamma, sigma_schedule=sigma_at((1, 2), math.inf)))
        with np.errstate(invalid="ignore", over="ignore"):
            result, expected = run(config), per_batch_run(config)
        assert (result.steps, result.terminated_by) == (5, "divergence")
        assert_same_run(result, expected)

    def test_non_finite_objective_inside_a_group(self):
        # the noise at (0, 1) throws that batch's rows past 1e150, where
        # rastrigin overflows; at seed 8 the first later batch holding one of
        # them is the third of the second epoch, inside a group
        config = batched_config(12, 3, master_seed=8, record_every=4, batching=dict(
            gamma_schedule=wavy_gamma, sigma_schedule=sigma_at((0, 1), 1e200)))
        plan = RngPlan(config.master_seed)
        first, state = make_batches(BatchState.fresh(), 12, 3, plan)
        second, _ = make_batches(state, 12, 3, plan)
        thrown = set(first[1].tolist())
        assert [bool(thrown & set(b.tolist())) for b in second[:3]] == [False, False, True]
        with np.errstate(invalid="ignore", over="ignore"):
            result, expected = run(config), per_batch_run(config)
        assert (result.steps, result.terminated_by) == (6, "divergence")
        assert_same_run(result, expected)
        # the final state is not evaluable: the fallback is the last good point
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            weighted_mean(Ensemble(result.final_positions), make_objective("rastrigin", 2), 1.0)

    def test_zero_step_size_raises_at_its_member_not_earlier(self):
        def gamma(k, theta):
            return 0.0 if (k, theta) == (1, 2) else 0.05

        config = batched_config(13, 4, batching=dict(gamma_schedule=gamma))  # 3 batches, rem 1
        for runner in (run, per_batch_run):
            with pytest.raises(ValueError, match="gamma schedule must yield positive"):
                runner(config)
        # the budget ends the run just before that member: no error
        before = replace(config, max_steps=5)
        assert run(before).steps == 5
        assert_same_run(run(before), per_batch_run(before))
        # a stop rule that fires at step 1 ends the run before a zero at (0, 2)
        early = replace(config, batching=replace(
            config.batching, stop_eps=1e300, gamma_schedule=lambda k, theta: 0.05 * (theta != 2)))
        result = run(early)
        assert (result.steps, result.terminated_by) == (2, "stop_criterion")
        assert_same_run(result, per_batch_run(early))

    def test_zakharov_records_as_one_batch_at_a_time(self):
        # the head of a group records f(v) from a call on the stacked points,
        # one batch at a time from a call on one point: at step 10 here the
        # two gave 189224.49012821718 and 189224.4901282172 while zakharov
        # took one point's fourth power with C's pow
        config = batched_config(12, 3, objective="zakharov", dimension=3, master_seed=13,
                                record_every=2, max_steps=30, batching=dict(max_epochs=4))
        assert_same_run(run(config), per_batch_run(config))

    def test_remainder_overlaps_are_cut_from_groups(self):
        # 13 = 3 x 4 + 1: batch 0 of every later epoch carries a leftover row,
        # which the epoch's permutation deals again in a later batch
        config = batched_config(13, 4, max_steps=60, batching=dict(max_epochs=30))
        assert_same_run(run(config), per_batch_run(config))

    def test_a_batch_that_deals_a_row_twice_goes_alone(self):
        # 5 = 2 x 2 + 1: at seed 4 epoch 1 deals [2, 2], [3, 1], [0, 4], three
        # disjoint batches of 6 rows; a stack of all three would not fit the
        # head of the run's (N, d) scratch array, so [2, 2] steps alone
        config = batched_config(5, 2, master_seed=4, max_steps=5)
        groups = harness._groups(config, RngPlan(config.master_seed))
        assert [np.shape(batch) for _, _, batch in groups][:3] == [(2, 2), (2,), (2, 2)]
        assert_same_run(run(config), per_batch_run(config))


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

    def test_infinity_norm(self):
        crit = SuccessCriterion(target=np.zeros(2), tolerance=0.25)
        assert crit.met(np.array([0.2, -0.2])) is True
        assert crit.met(np.array([0.25, -0.1])) is True  # at exactly the tolerance
        assert crit.met(np.array([0.3, 0.0])) is False

    def test_euclidean_norm(self):
        crit = SuccessCriterion(target=np.zeros(2), tolerance=1.0, norm="euclidean")
        assert crit.met(np.array([0.6, 0.6])) is True
        assert crit.met(np.array([0.8, 0.8])) is False
        crit = SuccessCriterion(target=np.zeros(2), tolerance=5.0, norm="euclidean")
        assert crit.met(np.array([3.0, -4.0])) is True  # |(3, -4)| = 5 exactly

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

        # run_campaign imports the pool from concurrent.futures when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(objectives, "_THREADS", 64)  # as many CPUs as workers asked
        config = small_config(max_steps=10)
        serial = run_campaign(config, 3)
        pooled = run_campaign(config, 3, workers=64)
        assert pools == [3]
        assert [r.seed for r in pooled] == [r.seed for r in serial]
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.final_positions, b.final_positions)
        run_campaign(config, 1, workers=64)
        assert pools == [3]  # one run stays in this process
        monkeypatch.setattr(objectives, "_THREADS", 2)  # and no more workers than CPUs
        capped = run_campaign(config, 3, workers=64)
        assert pools == [3, 2]
        for a, b in zip(serial, capped):
            assert np.array_equal(a.final_positions, b.final_positions)
        monkeypatch.setattr(objectives, "_THREADS", 1)
        run_campaign(config, 3, workers=64)
        assert pools == [3, 2]  # one CPU stays in this process


class TestNoLogNormalizer:
    """No step, batch or group of a run computes a log-normalizer."""

    @pytest.mark.parametrize("mode", ["plain", "partial", "full"])
    def test_runs_compute_none(self, monkeypatch, mode):
        calls, log = [], np.log
        monkeypatch.setattr(np, "log", lambda *a, **k: calls.append(1) or log(*a, **k))
        config = small_config(max_steps=30) if mode == "plain" else batched_config(13, 4, mode)
        result = run(config)
        assert result.terminated_by == "max_steps" and calls == []


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
        rows = laplace_table(const, InitSpec("gaussian"), [1.0, 10.0], 500, 3)
        for _, value, _ in rows:
            assert value == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_closed_form_within_3se(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        rows = laplace_table(quad, InitSpec("gaussian"), [1.0, 10.0, 100.0], 100_000, 17)
        for alpha, value, se in rows:
            closed = math.log1p(2 * alpha) / (2 * alpha)
            assert abs(value - closed) <= 3 * se

    def test_nonincreasing_on_fixed_sample(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        rows = laplace_table(quad, InitSpec("gaussian"), [1.0, 5.0, 25.0, 125.0], 2000, 4)
        values = [v for _, v, _ in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_alpha_validation(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        with pytest.raises(ValueError):
            laplace_table(quad, InitSpec("gaussian"), [2.0, 1.0], 100, 0)


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
            e = step(e, f, p, plan.normal_block(STREAM_DIFFUSION, e.step_count, (d,)))
            manual.append(mean_pairwise_sq_dist(e.positions))
        assert np.allclose([v for _, v in series], manual, rtol=1e-12, atol=0)

    def test_objective_overflow_names_the_step(self):
        # the drift scales every distance by -999 a step, and zakharov's
        # fourth power overflows while the squared distances are finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                diagnostic_pairwise_decay(1e6, 0.0, 1e-3, 5, 2, 0.1, objective="zakharov")
        assert str(err.value) == "non-finite objective values before step 26"

    def test_decay_rate_short(self):
        series = diagnostic_pairwise_decay(1.0, 0.5, 1e-3, 20, 200, 0.5, seed=31)
        fitted = fit_decay_rate(series)
        assert fitted == pytest.approx(1.75, rel=0.08)


def test_direct_calls_reach_the_argument_guards():
    # public entry points check their own arguments; the CLI checks its keys first
    with pytest.raises(FieldError) as err:
        small_config(stop_eps=0.0)
    assert (err.value.field, err.value.reason) == ("stop_eps", "must be positive when given")
    with pytest.raises(ValueError, match="^runs must be at least 1$"):
        run_campaign(small_config(max_steps=1), 0)
    for replicas, n in ((0, 5), (3, 1)):
        with pytest.raises(ValueError, match="^need at least one replica of at least two particles$"):
            diagnostic_pairwise_decay(1.0, 0.5, 0.01, n, replicas, 0.1)
