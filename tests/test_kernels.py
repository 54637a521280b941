"""Kernels that write into a scratch array: bit for bit what the expressions
they replaced give (copies of which are kept here as the reference), with a
fresh scratch array and a used one, and where an entry point makes its own;
no result of a run aliases a buffer; and a step with a scratch array
allocates little more than its new positions, and a whole run holds at least
1.5 (N, d) arrays fewer at its peak than before the kernels reused their
results."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import dynamics, harness, objectives
from cbopt.consensus import ConsensusPoint, consensus_mean, weighted_mean, weights
from cbopt.dynamics import (
    HEAVISIDE_MODES,
    VARIANTS,
    PersonalBestMemory,
    VariantParams,
    anisotropic_kick,
    frozen_gbm,
    gate_pair,
    heaviside,
    isotropic_kick,
    noise_shape,
    split_diffusion,
    split_drift,
    step,
)
from cbopt.ensemble import (
    STREAM_DIFFUSION, DrawAhead, Ensemble, InitSpec, RngPlan, init_ensemble,
    mean_pairwise_sq_dist,
)
from cbopt.harness import RunConfig, run
from cbopt.objectives import ObjectiveFunction, make_objective

# ---------------------------------------------------------------------------
# the expressions as they were written before the kernels took a scratch array


def ref_isotropic_kick(positions, v, lam, sigma, dt, z, gate=1.0):
    diff = positions - v
    dist = np.linalg.norm(diff, axis=-1)[..., None]
    return positions - lam * dt * diff * gate + sigma * np.sqrt(dt) * dist * z


def ref_anisotropic_kick(positions, v, lam, sigma, dt, z):
    diff = positions - v
    return positions - lam * dt * diff + sigma * np.sqrt(dt) * diff * z


def ref_accumulate(mem, positions, fvals, beta, dt):
    g = -beta * np.asarray(fvals, dtype=float)
    scale = np.maximum(mem.log_scale, g)
    carry = np.exp(mem.log_scale - scale)
    w = np.exp(g - scale) * dt
    num = mem.scaled_num * carry[:, None] + positions * w[:, None]
    den = mem.scaled_den * carry + w
    return PersonalBestMemory(num, den, scale, num / den[:, None])


def ref_tangential(x, y, norms_sq):
    return y - x * (np.add.reduce(x * y, axis=1) / norms_sq)[:, None]


def draw(plan, e, p):
    """The normal block of e's next step, as a run draws it."""
    return plan.normal_block(STREAM_DIFFUSION, e.step_count, noise_shape(p, e.positions.shape))


def ref_step(e, f, p, z, mem, cp):
    """dynamics.step and its update, each temporary a new array."""
    x = e.positions
    if p.variant in ("anisotropic", "common_noise"):
        return ref_anisotropic_kick(x, cp.v, p.lam, p.sigma, p.dt, z), mem
    if p.variant == "original":
        gate = 1.0
        if p.heaviside_mode != "off":
            fx = np.asarray(f(x), dtype=float)
            gate = heaviside(fx - cp.f_at_v, p.heaviside_mode, p.epsilon)[:, None]
        return ref_isotropic_kick(x, cp.v, p.lam, math.sqrt(2.0) * p.sigma, p.dt, z, gate), mem
    diff = x - cp.v
    sqrt_dt = math.sqrt(p.dt)
    if p.variant == "personal_best":
        mode = "exact" if p.heaviside_mode == "off" else p.heaviside_mode
        fx = np.asarray(f(x), dtype=float)
        fp = np.asarray(f(mem.p), dtype=float)
        lam_gate = p.lam * gate_pair(fx - cp.f_at_v, fp - cp.f_at_v, mode, p.epsilon)
        mu_gate = gate_pair(fx - fp, cp.f_at_v - fp, mode, p.epsilon)
        drift = p.dt * (lam_gate[:, None] * diff + mu_gate[:, None] * (x - mem.p))
        noise = math.sqrt(2.0) * p.sigma * sqrt_dt * diff * z
        return (x - drift) + noise, ref_accumulate(mem, x, fx, p.beta, p.dt)
    norms_sq = np.add.reduce(x * x, axis=1)
    dist_sq = np.add.reduce(diff * diff, axis=1)
    drift = p.lam * p.dt * ref_tangential(x, diff, norms_sq)
    noise = p.sigma * sqrt_dt * np.sqrt(dist_sq)[:, None] * ref_tangential(x, z, norms_sq)
    curvature = dist_sq * (e.dimension - 1.0) / norms_sq
    correction = 0.5 * p.sigma**2 * p.dt * curvature[:, None] * x
    new = (x - drift) + noise
    new = new - correction
    return new / np.linalg.norm(new, axis=1)[:, None], mem


def ref_split_drift(positions, v, lam, gamma):
    return v + (positions - v) * np.exp(-lam * gamma)


def ref_split_diffusion(positions, v, sigma, gamma, z):
    return positions + sigma * np.sqrt(gamma) * (positions - v) * z


def ref_frozen_gbm(positions, v, lam, sigma, gamma, z):
    exponent = (-lam - 0.5 * sigma**2) * gamma + sigma * np.sqrt(gamma) * z
    return v + (positions - v) * np.exp(exponent)


def ref_consensus_mean(positions, fvals, alpha):
    return np.add.reduce(weights(fvals, alpha)[..., None] * positions, axis=-2)


def ref_mean_pairwise_sq_dist(positions):
    n = positions.shape[-2]
    centered = positions - positions.mean(axis=-2, keepdims=True)
    return (2.0 / (n - 1)) * np.sum(centered * centered, axis=(-2, -1))


def ref_ackley(x):
    rms = np.sqrt(np.add.reduce(x * x, axis=-1) / x.shape[-1])
    cos_mean = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / x.shape[-1]
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e


def ref_rastrigin(x):
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def ref_griewank(x):
    idx = np.arange(1, x.shape[-1] + 1, dtype=float)
    quad = np.add.reduce(x * x, axis=-1) / 4000.0
    ripple = np.multiply.reduce(np.cos(x / np.sqrt(idx)), axis=-1)
    return 1.0 + quad - ripple


def ref_zakharov(x):
    idx = np.arange(1, x.shape[-1] + 1, dtype=float)
    lin = np.add.reduce(0.5 * idx * x, axis=-1)
    return np.add.reduce(x * x, axis=-1) + lin**2 + np.power(lin, 4.0)  # as for a stack


def ref_wavy(x):
    return 1.0 - np.add.reduce(np.cos(10.0 * x) * np.exp(-0.5 * x * x), axis=-1) / x.shape[-1]


REF_OBJECTIVES = {
    "ackley": ref_ackley,
    "rastrigin": ref_rastrigin,
    "griewank": ref_griewank,
    "zakharov": ref_zakharov,
    "wavy": ref_wavy,
}


def memory_bytes(mem):
    return b"".join(a.tobytes() for a in (mem.scaled_num, mem.scaled_den, mem.log_scale, mem.p))


def ref_point(e, f, alpha):
    v = ref_consensus_mean(e.positions, np.asarray(f(e.positions), dtype=float), alpha)
    return ConsensusPoint(v, float(f(v)))


# ---------------------------------------------------------------------------
# bit for bit


class TestKernelsMatchTheReference:
    @settings(max_examples=120, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        mode=st.sampled_from(HEAVISIDE_MODES),
        objective=st.sampled_from(sorted(REF_OBJECTIVES)),
        n=st.sampled_from([1, 2, 7]),
        d=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**64 - 1),
        lam=st.floats(0.0, 3.0),
        sigma=st.floats(0.0, 2.0),
        dt=st.floats(1e-4, 0.1),
        alpha=st.floats(0.0, 50.0),
        beta=st.floats(0.0, 50.0),
    )
    def test_steps(self, variant, mode, objective, n, d, seed, lam, sigma, dt, alpha, beta):
        f = make_objective(objective, d)
        plan = RngPlan(seed)
        init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-2, high=2)
        e = init_ensemble(init, n, d, plan)
        p = VariantParams(lam=lam, sigma=sigma, dt=dt, alpha=alpha, beta=beta, epsilon=0.3,
                          variant=variant, heaviside_mode=mode)
        ref_mem, plain_mem, mem = (PersonalBestMemory.initial(e) if variant == "personal_best"
                                   else None for _ in range(3))
        ref_e, plain_e = e, e
        scratch = np.empty((n, d))
        for _ in range(4):  # each step updates its own memory set in place; z is only read
            z = draw(plan, e, p)
            expected, ref_mem = ref_step(ref_e, f, p, z, ref_mem, ref_point(ref_e, f, alpha))
            ref_e = Ensemble(expected, ref_e.time + dt, ref_e.step_count + 1)
            plain_e = step(plain_e, f, p, z, plain_mem)
            e = step(e, f, p, z, mem, scratch=scratch)
            assert plain_e.positions.tobytes() == e.positions.tobytes() == expected.tobytes()
            if variant == "personal_best":
                assert memory_bytes(plain_mem) == memory_bytes(mem) == memory_bytes(ref_mem)

    @pytest.mark.parametrize("mode", HEAVISIDE_MODES)
    @pytest.mark.parametrize("f_at_v", [math.inf, -math.inf, math.nan, 0.25, 1.5])
    def test_personal_best_gates_at_ties_and_non_finite_values(self, mode, f_at_v):
        # f is the first coordinate, so the rows pick f(x), f(p) and f(v):
        # f(x) ties f(v) at 0.25 and f(p) at rows 1 and 9; f(p) is +-inf, NaN,
        # a tie with f(v) at 0.25 and 1.5, and a finite value on either side;
        # in the last two rows f(x) is +inf (f overflows at x = 1e300), tying
        # f(v) = +inf and f(p) (step assumes f(x) is not -inf)
        def first(x):
            return np.where(abs(x[..., 0]) < 1e300, x[..., 0], 1e10 * x[..., 0])

        f = ObjectiveFunction("first", first, 2)
        fx = np.array([0.25, 1.5, -2.0, 0.25, 3.0, 0.25, 1.5, -1.0, 0.5, -3.0, 1e300, 1e300])
        fp = np.array([math.inf, 1.5, math.nan, -math.inf, 0.25, 1.5, 9.0, -7.0, 0.25, -3.0,
                       0.25, 1e300])
        e = Ensemble(np.column_stack([fx, np.linspace(-1.0, 1.0, fx.size)]), 0.5, 3)
        p = VariantParams(lam=1.3, sigma=0.8, dt=0.05, epsilon=0.3, variant="personal_best",
                          heaviside_mode=mode)
        cp = ConsensusPoint(np.array([0.1, -0.2]), f_at_v)
        z = np.random.default_rng(7).standard_normal(e.positions.shape)
        mem = PersonalBestMemory.initial(e)
        mem.p[:, 0], mem.p[:, 1] = fp, 0.5  # the pull x - p is not 0 at a tie
        ref_mem = PersonalBestMemory(*snapshot(mem.scaled_num, mem.scaled_den, mem.log_scale,
                                               mem.p))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and NaN rows: NaN positions
            expected, ref_mem = ref_step(e, f, p, z, ref_mem, cp)
            new = dynamics._update(e, f, p, z, mem, cp, np.empty(e.positions.shape))
        assert new.tobytes() == expected.tobytes()
        assert memory_bytes(mem) == memory_bytes(ref_mem)

    def test_exact_gates_of_every_order(self):
        # every triple of -inf, -1.5, 0, 1.5, +inf and NaN with f(x) not -inf,
        # as step assumes: the gates are the heaviside products of the
        # differences, also where two values are +inf or -inf and their
        # difference is NaN
        values = [-math.inf, -1.5, 0.0, 1.5, math.inf, math.nan]
        fx, fp = (np.array(t) for t in zip(*[(a, b) for a in values[1:] for b in values]))
        for fv in values:
            with np.errstate(invalid="ignore"):
                toward_v, toward_p = dynamics._exact_gates(fx, fp, fv)
                want_v = gate_pair(fx - fv, fp - fv, "exact")
                want_p = gate_pair(fx - fp, fv - fp, "exact")
            assert toward_v.tolist() == (want_v == 1.0).tolist()
            assert toward_p.tolist() == (want_p == 1.0).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([2, 7]),
        d=st.sampled_from([2, 3, 5]),
        seed=st.integers(0, 2**64 - 1),
        sigma=st.floats(0.5, 4.0),
        dt=st.floats(0.01, 0.5),
    )
    def test_sphere_steps_with_a_large_ito_correction(self, n, d, seed, sigma, dt):
        # sigma^2 dt of order 1, so the correction's last bits reach the update
        f = make_objective("rastrigin", d)
        plan = RngPlan(seed)
        e = init_ensemble(InitSpec("sphere"), n, d, plan)
        p = VariantParams(sigma=sigma, dt=dt, alpha=1.0, variant="sphere")
        z = draw(plan, e, p)
        expected, _ = ref_step(e, f, p, z, None, ref_point(e, f, p.alpha))
        for scratch in (None, np.empty((n, d))):
            assert step(e, f, p, z, scratch=scratch).positions.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 7]),
        d=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 5.0),
        sigma=st.floats(0.0, 5.0),
        gamma=st.floats(1e-8, 2.0),
    )
    def test_integrators(self, n, d, seed, lam, sigma, gamma):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=d)
        z = rng.standard_normal((n, d))
        buf = np.empty((n, d))
        expected = ref_split_diffusion(ref_split_drift(x, v, lam, gamma), v, sigma, gamma, z)
        for scratch, out in ((None, None), (buf, buf)):
            drifted = split_drift(x, v, lam, gamma, out)
            assert drifted.tobytes() == ref_split_drift(x, v, lam, gamma).tobytes()
            assert split_diffusion(drifted, v, sigma, gamma, z).tobytes() \
                == expected.tobytes()
            assert frozen_gbm(x, v, lam, sigma, gamma, z, scratch).tobytes() \
                == ref_frozen_gbm(x, v, lam, sigma, gamma, z).tobytes()

    @pytest.mark.parametrize("integrator", ["split", "frozen"])
    def test_harness_integrator_steps(self, integrator):
        f = make_objective("ackley", 3)
        plan = RngPlan(4)
        e = Ensemble(np.random.default_rng(8).normal(size=(7, 3)), time=0.1, step_count=6)
        p = VariantParams(lam=1.1, sigma=0.9, dt=0.05, alpha=10.0)
        cp = ref_point(e, f, p.alpha)
        z = plan.normal_block(STREAM_DIFFUSION, 6, (7, 3))
        if integrator == "split":
            expected = ref_split_diffusion(ref_split_drift(e.positions, cp.v, p.lam, p.dt), cp.v,
                                           p.sigma, p.dt, z)
        else:
            expected = ref_frozen_gbm(e.positions, cp.v, p.lam, p.sigma, p.dt, z)
        scratch = np.empty((7, 3))
        for _ in range(2):  # a fresh scratch array, then a used one
            new = harness._step(e, f, p, z, integrator, None, cp, scratch)
            assert new.positions.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.integers(1, 4),
        m=st.sampled_from([1, 2, 7]),
        d=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 5.0),
        mode=st.sampled_from(["batch", "replicas"]),
    )
    def test_stacked_kicks(self, q, m, d, seed, lam, mode):
        """(q, M, d) batch stacks with per-member sigma and gamma, and the
        pairwise sweep's (R, N, d) replicas with one draw per coordinate."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(q, m, d)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=(q, 1, d))
        if mode == "batch":
            sigma, gamma = rng.uniform(0, 3, (q, 1, 1)), rng.uniform(1e-4, 1, (q, 1, 1))
            z = rng.standard_normal((q, m, d))
        else:
            sigma, gamma = rng.uniform(0, 3), rng.uniform(1e-4, 1)
            z = rng.standard_normal((q, d))[:, None, :]
        expected = ref_anisotropic_kick(x, v, lam, sigma, gamma, z)
        scratch = np.empty((q, m, d))
        for _ in range(2):  # a fresh scratch array, then a used one
            assert anisotropic_kick(x, v, lam, sigma, gamma, z, scratch).tobytes() \
                == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 7]),
        d=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 5.0),
        sigma=st.floats(0.0, 5.0),
        dt=st.floats(1e-8, 1.0),
        gated=st.booleans(),
    )
    def test_isotropic_kick(self, n, d, seed, lam, sigma, dt, gated):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=d)
        z = rng.standard_normal((n, d))
        gate = rng.integers(0, 2, (n, 1)).astype(float) if gated else 1.0
        expected = ref_isotropic_kick(x, v, lam, sigma, dt, z, gate)
        scratch = np.empty((n, d))
        for _ in range(2):  # a fresh scratch array, then a used one
            assert isotropic_kick(x, v, lam, sigma, dt, z, scratch, gate).tobytes() \
                == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 7]), st.sampled_from([1, 3])),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.0, 100.0),
    )
    def test_consensus_and_pairwise_scratch(self, shape, seed, alpha):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        fvals = rng.uniform(0, 3, shape[:-1])
        for points, values in ((x, fvals), (x[0], fvals[0])):  # (R, N, d) and (N, d)
            expected = ref_consensus_mean(points, values, alpha).tobytes()
            assert consensus_mean(points, values, alpha).tobytes() == expected
            scratch = np.empty(points.shape)
            assert consensus_mean(points, values, alpha, scratch).tobytes() == expected
            if shape[1] > 1:
                expected = ref_mean_pairwise_sq_dist(points).tobytes()
                assert mean_pairwise_sq_dist(points).tobytes() == expected
                assert mean_pairwise_sq_dist(points, scratch).tobytes() == expected

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(REF_OBJECTIVES)),
        shape=st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 7]), st.integers(1, 6)),
        scale=st.sampled_from([0.01, 1.0, 40.0]),
        threads=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objectives_on_stacks(self, name, shape, scale, threads, seed):
        x = np.random.default_rng(seed).uniform(-scale, scale, shape)
        fn = make_objective(name, shape[-1])
        for points in (x, x[0], x[0, 0]):  # (R, N, d), (N, d) and (d,)
            assert fn.fn(points).tobytes() == REF_OBJECTIVES[name](points).tobytes()
        with mock.patch.multiple(objectives, SHARD_MIN_ELEMENTS=1, _THREADS=threads):
            assert fn(x).tobytes() == REF_OBJECTIVES[name](x).tobytes()

    @pytest.mark.parametrize("name", sorted(REF_OBJECTIVES))
    def test_objectives_at_sharded_sizes(self, name, monkeypatch):
        x = np.random.default_rng(5).uniform(-3.0, 3.0, (3, 700, 50))
        assert x[0].size >= objectives.SHARD_MIN_ELEMENTS
        monkeypatch.setattr(objectives, "_THREADS", max(objectives._THREADS, 2))
        fn = make_objective(name, 50)
        for points in (x, x[0]):  # the replicas' stack and one N=700 ensemble
            assert fn(points).tobytes() == REF_OBJECTIVES[name](points).tobytes()


# ---------------------------------------------------------------------------
# what a caller keeps stays as it was


def snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def unchanged(arrays, copies):
    return all(a.tobytes() == c.tobytes() and a.shape == c.shape for a, c in zip(arrays, copies))


@pytest.mark.parametrize("variant", VARIANTS)
def test_kept_states_and_results_do_not_change(variant):
    f = make_objective("ackley", 3)
    plan = RngPlan(21)
    init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-2, high=2)
    p = VariantParams(sigma=0.7, dt=0.05, alpha=5.0, variant=variant)
    e = init_ensemble(init, 9, 3, plan)
    mem = PersonalBestMemory.initial(e) if variant == "personal_best" else None
    scratch = np.empty((9, 3))
    kept = []
    for k in range(6):  # step 2 without a scratch array; the memory is updated in place
        e = step(e, f, p, draw(plan, e, p), mem, scratch=None if k == 2 else scratch)
        kept.append(e.positions)
    config = RunConfig(objective="ackley", dimension=3, params=p, n_particles=9, init=init,
                       max_steps=8, master_seed=4, record_every=3)
    result = run(config)
    kept += [result.final_positions, result.final_consensus.v]
    kept += [point.v for point in result.trajectory] + [point.mean for point in result.trajectory]
    copies = snapshot(*kept)
    for _ in range(3):
        e = step(e, f, p, draw(plan, e, p), mem, scratch=scratch)
    run(replace(config, master_seed=5))
    run(config)
    assert unchanged(kept, copies)


def test_personal_best_memory_is_updated_in_place():
    f = make_objective("rastrigin", 2)
    plan = RngPlan(3)
    e = init_ensemble(InitSpec("box", low=-2, high=2), 5, 2, plan)
    p = VariantParams(sigma=0.5, variant="personal_best")
    mem = PersonalBestMemory.initial(e)
    kept = (mem.scaled_num, mem.scaled_den, mem.log_scale, mem.p)
    scratch = np.empty((5, 2))
    for _ in range(3):
        copy = snapshot(*kept)
        e = step(e, f, p, draw(plan, e, p), mem, scratch=scratch)
        held = (mem.scaled_num, mem.scaled_den, mem.log_scale, mem.p)
        assert all(a is b for a, b in zip(held, kept)) and not unchanged(held, copy)
        assert not any(np.shares_memory(a, b) for a in held for b in (e.positions, scratch))


def test_sphere_and_split_results_share_no_memory_with_scratch_or_inputs():
    f = make_objective("rastrigin", 3)
    plan = RngPlan(6)
    p = VariantParams(sigma=0.7, dt=0.05, alpha=5.0, variant="sphere")
    e = init_ensemble(InitSpec("sphere"), 6, 3, plan)
    scratch = np.empty((6, 3))
    for _ in range(3):
        z = draw(plan, e, p)
        cp = weighted_mean(e, f, p.alpha)
        new = step(e, f, p, z, cp=cp, scratch=scratch)
        assert not any(np.shares_memory(new.positions, b) for b in (scratch, e.positions, z, cp.v))
        e = new
    x = np.random.default_rng(2).normal(size=(6, 3))
    v, z = x.mean(axis=0), np.random.default_rng(3).standard_normal((6, 3))
    drifted = split_drift(x, v, 1.0, 0.1, scratch)
    kicked = split_diffusion(drifted, v, 0.7, 0.1, z)
    assert not any(np.shares_memory(kicked, b) for b in (scratch, x, v, z))


def test_personal_best_run_makes_one_memory_set():
    config = RunConfig(objective="rastrigin", dimension=2, n_particles=5, max_steps=6,
                       params=VariantParams(sigma=0.5, variant="personal_best"))
    with mock.patch.object(PersonalBestMemory, "initial",
                           side_effect=PersonalBestMemory.initial) as made:
        run(config)
    assert made.call_count == 1


# ---------------------------------------------------------------------------
# allocation peak of one step


LARGE_N = [
    ("anisotropic", "euler"),
    ("anisotropic", "split"),
    ("anisotropic", "frozen"),
    ("original", "euler"),
    ("common_noise", "euler"),
    ("personal_best", "euler"),
    ("sphere", "euler"),
]


@pytest.mark.parametrize("variant, integrator", LARGE_N)
def test_step_allocates_little_more_than_its_positions(variant, integrator):
    # the single_large_n configurations: N=2000, d=50; the objective may
    # shard its rows on threads, whose allocations are traced too
    n, d = 2000, 50
    f = make_objective("ackley", d)
    plan = RngPlan(9)
    init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-3, high=3)
    p = VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant=variant,
                      heaviside_mode="exact" if variant == "original" else "off")
    e = init_ensemble(init, n, d, plan)
    mem = PersonalBestMemory.initial(e) if variant == "personal_best" else None
    scratch = np.empty((n, d))
    # as a run draws: on two or more CPUs each block but the last starts the next
    noise = DrawAhead(plan, STREAM_DIFFUSION, noise_shape(p, (n, d)), 3)

    def one_step(e):
        cp = harness.weighted_mean(e, f, p.alpha, scratch)
        return harness._step(e, f, p, noise.block(e.step_count), integrator, mem, cp, scratch)

    with np.errstate(over="ignore", invalid="ignore"), noise:
        e = one_step(e)  # warm: the helper threads and the heap
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            e = one_step(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peak - start) / (n * d * 8) <= 2.5


# ---------------------------------------------------------------------------
# allocation peak of one whole run


# Whole-run peaks, in N d 8 bytes, of the single_large_n configurations when
# every kernel wrote its second temporary into a second scratch buffer,
# the sphere renormalized into a new array and `moments` made its own
# centered arrays (2 threads, 4 steps; the same at 14).
WHOLE_RUN_PEAK_BEFORE = {
    ("anisotropic", "euler"): 7.03,
    ("anisotropic", "split"): 8.03,
    ("anisotropic", "frozen"): 7.03,
    ("original", "euler"): 7.03,
    ("common_noise", "euler"): 5.03,
    ("personal_best", "euler"): 9.07,
    ("sphere", "euler"): 8.03,
}
# Each configuration's bound: 1.5 arrays under its peak before, and 5.25
# for the sphere update and the split integrator, whose third temporaries
# go into buffers the step already holds (6.17 and 6.14 when a second
# scratch array held them).
WHOLE_RUN_PEAK_BOUND = {
    **{config: peak - 1.5 for config, peak in WHOLE_RUN_PEAK_BEFORE.items()},
    ("anisotropic", "split"): 5.25,
    ("sphere", "euler"): 5.25,
}


@pytest.mark.parametrize("variant, integrator", LARGE_N)
def test_whole_run_peak_holds_fewer_arrays(variant, integrator, monkeypatch):
    # the kernels' results are their second temporaries and `moments` writes
    # into the run's scratch array: at least 1.5 (N, d) arrays fewer at the
    # peak, and no second scratch array for the sphere and split runs
    n, d = 2000, 50
    monkeypatch.setattr(objectives, "_THREADS", 2)  # draw ahead, two chunks in flight
    init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-3, high=3)
    params = VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01, variant=variant,
                           heaviside_mode="exact" if variant == "original" else "off")
    config = RunConfig(objective="ackley", dimension=d, params=params, integrator=integrator,
                       n_particles=n, init=init, max_steps=4, master_seed=9,
                       record_every=100_000)
    run(config)  # warm: the helper pool's thread
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * d * 8) <= WHOLE_RUN_PEAK_BOUND[variant, integrator]
