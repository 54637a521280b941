"""Stepper tests: gate functions, fixed points, noise structure, moment
laws, the sphere constraint, and divergence guards."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cbopt.consensus import ConsensusPoint, weighted_mean
from cbopt.dynamics import (
    HEAVISIDE_MODES,
    VARIANTS,
    DivergenceError,
    PersonalBestMemory,
    SingularityError,
    VariantParams,
    anisotropic_kick,
    consensus_condition,
    gate_pair,
    heaviside,
    isotropic_kick,
    noise_shape,
    sphere_norm_drift,
    step,
)
from cbopt.ensemble import STREAM_DIFFUSION, Ensemble, InitSpec, RngPlan, init_ensemble
from cbopt.objectives import ObjectiveFunction, make_objective


def draw(plan, e, p):
    """The normal block of e's next step, as a run draws it."""
    return plan.normal_block(STREAM_DIFFUSION, e.step_count, noise_shape(p, e.positions.shape))


def quadratic(d):
    return ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), d)


def constant(d, c=1.0):
    return ObjectiveFunction("const", lambda x: np.full(np.shape(x)[:-1], c), d)


class TestHeaviside:
    def test_exact(self):
        assert heaviside(0.0, "exact") == 1.0
        assert heaviside(1e-300, "exact") == 1.0
        assert heaviside(-1e-300, "exact") == 0.0

    def test_regularized(self):
        assert heaviside(0.0, "regularized", 0.5) == pytest.approx(0.5)
        eps = 0.37
        expected = 0.5 + 0.5 * math.tanh(1.0)  # ~0.8808
        assert heaviside(eps, "regularized", eps) == pytest.approx(expected, abs=1e-12)

    def test_off_is_one(self):
        assert heaviside(-5.0, "off") == 1.0
        assert np.array_equal(heaviside(np.array([-1.0, 2.0]), "off"), [1.0, 1.0])

    def test_range(self):
        x = np.linspace(-10, 10, 101)
        for mode, eps in (("exact", None), ("regularized", 0.3)):
            out = heaviside(x, mode, eps)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_regularized_overflow_is_silent(self):
        # 1e300 / 1e-10 overflows to inf; tanh(+-inf) is +-1, so the gate is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = heaviside(np.array([1e300, -1e300, 0.0]), "regularized", 1e-10)
        assert out.tolist() == [1.0, 0.0, 0.5]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            heaviside(0.0, "regularized", 0.0)
        with pytest.raises(ValueError):
            heaviside(0.0, "smooth")


# gate arguments: differences of objective values, with ties, signed zeros,
# subnormals, infinities and NaN drawn often
GATE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, math.inf, -math.inf]),
    st.just(math.nan),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


class TestGatePair:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(GATE_VALUES, GATE_VALUES), min_size=1, max_size=12),
        mode=st.sampled_from(["exact", "regularized"]),
        epsilon=st.floats(1e-6, 10.0),
    )
    @example(pairs=[(0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (math.nan, 1.0)],
             mode="exact", epsilon=1e-3)
    @example(pairs=[(0.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (math.nan, 1.0)],
             mode="regularized", epsilon=1e-3)
    def test_matches_heaviside_product_bitwise(self, pairs, mode, epsilon):
        a, b = (np.array(column) for column in zip(*pairs))
        expected = heaviside(a, mode, epsilon) * heaviside(b, mode, epsilon)
        assert gate_pair(a, b, mode, epsilon).tobytes() == expected.tobytes()

    def test_differences_of_close_values(self):
        # subnormal and zero differences of objective values, as the step forms them
        fx = np.array([1e-308, 2e-308, 3e-308, 0.0, -0.0])
        f_v = 2e-308
        a, b = fx - f_v, f_v - fx
        assert a[0] < 0.0 < a[2] and abs(a[0]) < 2.3e-308  # subnormal
        assert gate_pair(a, b, "exact").tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        for mode, eps in (("exact", None), ("regularized", 1e-300)):
            expected = heaviside(a, mode, eps) * heaviside(b, mode, eps)
            assert gate_pair(a, b, mode, eps).tobytes() == expected.tobytes()


class TestVariantParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VariantParams(dt=0.0)
        with pytest.raises(ValueError):
            VariantParams(lam=-1.0)
        with pytest.raises(ValueError):
            VariantParams(sigma=np.inf)
        with pytest.raises(ValueError):
            VariantParams(variant="pso")
        with pytest.raises(ValueError):
            VariantParams(heaviside_mode="on")


class TestConsensusCondition:
    def test_paper_example(self):
        iso = VariantParams(lam=1.0, sigma=1.0, variant="original")
        aniso = VariantParams(lam=1.0, sigma=1.0, variant="anisotropic")
        assert consensus_condition(iso, 3) is False  # 2 < 3
        assert consensus_condition(aniso, 3) is True  # 2 > 1

    def test_sigma_zero_always_true(self):
        for variant in ("original", "anisotropic", "common_noise"):
            p = VariantParams(lam=0.5, sigma=0.0, variant=variant)
            assert consensus_condition(p, 1000) is True

    def test_boundary_excluded(self):
        p = VariantParams(lam=1.0, sigma=math.sqrt(2.0), variant="anisotropic")
        assert consensus_condition(p, 1) is False
        # exact equality in floats: 2 lam = sigma^2, and 2 lam = sigma^2 d
        p = VariantParams(lam=0.5, sigma=1.0, variant="anisotropic")
        assert consensus_condition(p, 1) is False
        p = VariantParams(lam=1.5, sigma=1.0, variant="original")
        assert consensus_condition(p, 3) is False


class TestOriginalStep:
    def test_particle_at_consensus_unchanged_without_noise_scale(self):
        # particle exactly at v_f: drift and diffusion both vanish
        f = quadratic(2)
        pos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        e = Ensemble(pos)
        p = VariantParams(lam=1.0, sigma=0.8, dt=0.01, alpha=0.0, variant="original")
        cp = weighted_mean(e, f, 0.0)
        assert np.allclose(cp.v, [0.0, 0.0])
        out = step(e, f, p, draw(RngPlan(0), e, p), cp=cp)
        assert np.array_equal(out.positions[2], pos[2])

    def test_sigma_zero_linear_contraction(self):
        f = quadratic(2)
        rng = np.random.default_rng(1)
        pos = rng.normal(size=(8, 2))
        e = Ensemble(pos)
        p = VariantParams(lam=0.7, sigma=0.0, dt=0.05, alpha=2.0, variant="original")
        cp = weighted_mean(e, f, 2.0)
        out = step(e, f, p, draw(RngPlan(0), e, p))
        expected = pos - 0.7 * 0.05 * (pos - cp.v)
        assert np.allclose(out.positions, expected, atol=1e-14)
        assert out.time == pytest.approx(0.05) and out.step_count == 1

    def test_single_particle_fixed_point(self):
        f = quadratic(3)
        e = Ensemble(np.array([[0.5, -1.0, 2.0]]))
        p = VariantParams(lam=1.0, sigma=0.0, dt=0.01, variant="original")
        out = step(e, f, p, draw(RngPlan(5), e, p))
        assert np.array_equal(out.positions, e.positions)

    def test_exact_heaviside_freezes_drift_of_better_particles(self):
        f = quadratic(1)
        e = Ensemble(np.array([[0.1], [5.0]]))
        p = VariantParams(
            lam=1.0, sigma=0.0, dt=0.1, alpha=0.0, variant="original", heaviside_mode="exact"
        )
        cp = weighted_mean(e, f, 0.0)  # v = 2.55, f(v) > f(0.1)
        out = step(e, f, p, draw(RngPlan(0), e, p), cp=cp)
        assert out.positions[0, 0] == 0.1  # gate 0: better than v_f, stays
        assert out.positions[1, 0] != 5.0  # gate 1: pulled toward v_f


def original_update(x, v, lam, sigma, dt, z, gate):
    """The original variant's update as its step wrote it before isotropic_kick."""
    diff = x - v
    sqrt_dt = math.sqrt(dt)
    drift = lam * dt * diff * gate
    noise = math.sqrt(2.0) * sigma * sqrt_dt * np.linalg.norm(diff, axis=1)[:, None] * z
    return (x - drift) + noise


def frozen_moment_update(x, lam, sigma, dt, z):
    """The frozen-moment diagnostic's isotropic update (v = 0) as it was written."""
    scale = np.sqrt(np.sum(x * x, axis=1))[:, None]
    return x - lam * dt * x + sigma * np.sqrt(dt) * scale * z


class TestIsotropicKick:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 5.0),
        sigma=st.floats(0.0, 5.0),
        dt=st.floats(1e-8, 1.0),
        mode=st.sampled_from(HEAVISIDE_MODES),
        epsilon=st.floats(1e-6, 10.0),
    )
    def test_equals_both_former_isotropic_updates_bytewise(
        self, n, d, seed, lam, sigma, dt, mode, epsilon
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=d)
        z = rng.standard_normal((n, d))
        fx = rng.integers(-2, 3, size=n) * 0.5  # ties with f(v) = 0 hit the exact gate's edge
        gate = 1.0 if mode == "off" else heaviside(fx, mode, epsilon)[:, None]
        expected = original_update(x, v, lam, sigma, dt, z, gate)
        scratch = np.empty(x.shape)
        kicked = isotropic_kick(x, v, lam, math.sqrt(2.0) * sigma, dt, z, scratch, gate)
        assert kicked.tobytes() == expected.tobytes()
        expected = frozen_moment_update(x, lam, sigma, dt, z)
        assert isotropic_kick(x, 0.0, lam, sigma, dt, z, scratch).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", HEAVISIDE_MODES)
    def test_original_step_equals_the_former_update_bytewise(self, mode):
        f = make_objective("rastrigin", 4)
        plan = RngPlan(11)
        e = Ensemble(init_ensemble(InitSpec("box", low=-2, high=2), 9, 4, plan).positions,
                     time=0.3, step_count=5)
        p = VariantParams(lam=0.8, sigma=0.6, dt=0.02, alpha=5.0, epsilon=0.5,
                          variant="original", heaviside_mode=mode)
        cp = weighted_mean(e, f, p.alpha)
        x = e.positions
        gate = 1.0 if mode == "off" else heaviside(f(x) - cp.f_at_v, mode, p.epsilon)[:, None]
        z = plan.normal_block(STREAM_DIFFUSION, 5, x.shape)
        expected = original_update(x, cp.v, p.lam, p.sigma, p.dt, z, gate)
        assert step(e, f, p, draw(plan, e, p), cp=cp).positions.tobytes() == expected.tobytes()


class TestAnisotropicStep:
    def test_matched_coordinate_frozen(self):
        f = quadratic(2)
        pos = np.array([[0.0, 2.0], [0.0, -2.0]])  # coordinate 0 equals v_0
        e = Ensemble(pos)
        p = VariantParams(lam=1.0, sigma=1.0, dt=0.01, alpha=0.0, variant="anisotropic")
        out = step(e, f, p, draw(RngPlan(3), e, p))
        assert np.array_equal(out.positions[:, 0], [0.0, 0.0])
        assert not np.array_equal(out.positions[:, 1], pos[:, 1])

    def test_sigma_zero_matches_original_drift(self):
        f = quadratic(3)
        rng = np.random.default_rng(2)
        e = Ensemble(rng.normal(size=(6, 3)))
        p_a = VariantParams(lam=0.4, sigma=0.0, dt=0.02, alpha=1.0, variant="anisotropic")
        p_o = VariantParams(lam=0.4, sigma=0.0, dt=0.02, alpha=1.0, variant="original")
        out_a = step(e, f, p_a, draw(RngPlan(0), e, p_a))
        out_o = step(e, f, p_o, draw(RngPlan(0), e, p_o))
        assert np.allclose(out_a.positions, out_o.positions, atol=1e-14)

    def test_one_step_law_matches_original_in_1d(self):
        # d=1: sqrt(2)*sigma*|X-v|*xi and sigma_hat*(X-v)*xi have the same law
        from scipy.stats import ks_2samp

        f = constant(1)
        n = 100_000
        start = np.full((n, 1), 2.0)
        v = np.zeros(1)
        p_orig = VariantParams(lam=1.0, sigma=0.5, dt=0.01, alpha=0.0, variant="original")
        p_anis = VariantParams(
            lam=1.0, sigma=0.5 * math.sqrt(2.0), dt=0.01, alpha=0.0, variant="anisotropic"
        )
        cp = weighted_mean(Ensemble(np.zeros((1, 1))), f, 0.0)
        assert np.array_equal(cp.v, v)
        e = Ensemble(start)
        a = step(e, f, p_orig, draw(RngPlan(21), e, p_orig), cp=cp).positions[:, 0]
        b = step(e, f, p_anis, draw(RngPlan(22), e, p_anis), cp=cp).positions[:, 0]
        assert ks_2samp(a, b).pvalue > 0.01


class TestCommonNoiseStep:
    def test_coincident_particles_stay_coincident(self):
        f = make_objective("ackley", 3)
        e = Ensemble(np.tile([0.5, 1.0, -2.0], (6, 1)))
        p = VariantParams(lam=1.0, sigma=0.9, dt=0.01, alpha=30.0, variant="common_noise")
        plan = RngPlan(4)
        for _ in range(25):
            e = step(e, f, p, draw(plan, e, p))
            assert np.all(e.positions == e.positions[0])

    def test_noise_shared_per_coordinate(self):
        f = constant(2)
        pos = np.array([[1.0, 1.0], [3.0, 3.0]])
        e = Ensemble(pos)
        p = VariantParams(lam=0.0, sigma=1.0, dt=1.0, alpha=0.0, variant="common_noise")
        out = step(e, f, p, draw(RngPlan(6), e, p))
        v = pos.mean(axis=0)
        ratio = (out.positions - pos) / (pos - v)  # recovers z per coordinate
        assert np.allclose(ratio[0], ratio[1], atol=1e-12)

    def test_sigma_zero_contraction(self):
        f = constant(2)
        pos = np.array([[1.0, 0.0], [-1.0, 2.0]])
        e = Ensemble(pos)
        p = VariantParams(lam=1.0, sigma=0.0, dt=0.1, alpha=0.0, variant="common_noise")
        out = step(e, f, p, draw(RngPlan(0), e, p))
        v = pos.mean(axis=0)
        assert np.allclose(out.positions, pos - 0.1 * (pos - v), atol=1e-14)


class TestPersonalBestStep:
    def test_initial_memory_is_start_positions(self):
        e = init_ensemble(InitSpec("box", low=-2, high=2), 12, 3, RngPlan(7))
        mem = PersonalBestMemory.initial(e)
        assert np.array_equal(mem.p, e.positions)
        assert np.all(mem.scaled_den == 0.0)

    def test_constant_landscape_gives_running_average(self):
        f = constant(2, c=3.0)
        plan = RngPlan(8)
        e = init_ensemble(InitSpec("gaussian"), 5, 2, plan)
        mem = PersonalBestMemory.initial(e)
        p = VariantParams(lam=1.0, sigma=0.4, dt=0.01, alpha=0.0, beta=7.0, variant="personal_best")
        visited = [e.positions.copy()]
        for _ in range(10):
            e = step(e, f, p, draw(plan, e, p), mem)
            visited.append(e.positions.copy())
        # weights constant: p is the mean of the left endpoints
        expected = np.mean(visited[:-1], axis=0)
        assert np.allclose(mem.p, expected, atol=1e-12)
        assert np.all(mem.scaled_den > 0.0)

    def test_gates_route_drift_toward_consensus(self):
        # consensus strictly better than particle and personal best: mu=0, lam=1
        f = quadratic(1)
        e = Ensemble(np.array([[4.0], [-4.0], [0.05]]))
        mem = PersonalBestMemory.initial(e)
        p = VariantParams(
            lam=1.0, sigma=0.0, dt=0.1, alpha=1e4, beta=1.0, variant="personal_best"
        )
        cp = weighted_mean(e, f, 1e4)  # essentially the particle at 0.05
        out = step(e, f, p, draw(RngPlan(0), e, p), mem, cp=cp)
        # f(v) < f(X^i) = f(p^i) for the outer particles: move toward v only
        expected = e.positions[0, 0] - 0.1 * (e.positions[0, 0] - cp.v[0])
        assert out.positions[0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_consensus_gate_pulls_at_rate_lam(self, lam):
        # p = X and f(v) < f(X): only the consensus gate is open
        f = quadratic(2)
        e = Ensemble(np.array([[1.5, -0.5], [-2.0, 1.0], [0.3, 0.4]]))
        v = np.array([0.1, -0.2])
        cp = ConsensusPoint(v, float(f(v)))
        p = VariantParams(lam=lam, sigma=0.0, dt=0.1, variant="personal_best")
        out = step(e, f, p, draw(RngPlan(0), e, p), PersonalBestMemory.initial(e), cp=cp)
        moved = out.positions - e.positions
        assert np.allclose(moved, -0.1 * lam * (e.positions - v), rtol=0.0, atol=1e-12)

    def test_gates_route_drift_toward_personal_best(self):
        f = quadratic(1)
        positions = np.array([[1.0], [-1.0]])
        e = Ensemble(positions)
        mem = PersonalBestMemory(
            scaled_num=np.array([[0.0], [0.0]]),
            scaled_den=np.array([1.0, 1.0]),
            log_scale=np.array([0.0, 0.0]),
            p=np.array([[0.1], [-0.1]]),  # personal bests better than v_f
        )
        p = VariantParams(lam=1.0, sigma=0.0, dt=0.1, alpha=0.0, beta=1.0, variant="personal_best")
        cp = weighted_mean(e, f, 0.0)  # v = 0 has f = 0... make it worse
        # use a consensus point away from the origin so f(p) < f(v)
        from cbopt.consensus import ConsensusPoint

        cp = ConsensusPoint(v=np.array([0.8]), f_at_v=float(f(np.array([0.8]))))
        out = step(e, f, p, draw(RngPlan(0), e, p), mem, cp=cp)
        # particle 0: f(p)=0.01 < f(X)=1, f(p) < f(v): mu gate open
        # lam gate: H(f(X)-f(v)) H(f(p)-f(v)) = 1 * 0 = 0
        expected = 1.0 - 0.1 * (1.0 - 0.1)
        assert out.positions[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_memory_underflow_guard(self):
        # huge beta * f would underflow a naive accumulator
        f = ObjectiveFunction("big", lambda x: 500.0 + np.sum(np.asarray(x, float) ** 2, axis=-1), 1)
        plan = RngPlan(9)
        e = init_ensemble(InitSpec("gaussian"), 4, 1, plan)
        mem = PersonalBestMemory.initial(e)
        p = VariantParams(lam=1.0, sigma=0.3, dt=0.01, alpha=1.0, beta=50.0, variant="personal_best")
        for _ in range(5):
            e = step(e, f, p, draw(plan, e, p), mem)
        assert np.isfinite(mem.p).all()
        assert np.all(mem.scaled_den > 0.0)


class TestSphereStep:
    def test_rows_stay_unit_norm(self):
        f = make_objective("ackley", 3)
        plan = RngPlan(10)
        e = init_ensemble(InitSpec("sphere"), 40, 3, plan)
        p = VariantParams(lam=1.0, sigma=0.5, dt=0.005, alpha=20.0, variant="sphere")
        for _ in range(50):
            e = step(e, f, p, draw(plan, e, p))
        norms = np.linalg.norm(e.positions, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_particle_at_consensus_unchanged(self):
        from cbopt.consensus import ConsensusPoint

        f = constant(3)
        x = np.array([0.0, 0.0, 1.0])
        e = Ensemble(np.array([x]))
        p = VariantParams(lam=1.0, sigma=0.7, dt=0.01, alpha=0.0, variant="sphere")
        cp = ConsensusPoint(v=x.copy(), f_at_v=1.0)
        out = step(e, f, p, draw(RngPlan(11), e, p), cp=cp)
        assert np.allclose(out.positions[0], x, atol=1e-15)

    def test_projection_kills_radial_component(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            proj_x = x - x * np.dot(x, x) / np.dot(x, x)
            assert np.allclose(proj_x, 0.0, atol=1e-15)

    def test_norm_drift_first_order_in_dt(self):
        f = make_objective("ackley", 3)
        e = init_ensemble(InitSpec("sphere"), 200, 3, RngPlan(13))
        drifts = {}
        for dt in (0.01, 0.005):
            p = VariantParams(lam=1.0, sigma=0.5, dt=dt, alpha=20.0, variant="sphere")
            drifts[dt] = sphere_norm_drift(e, f, p, draw(RngPlan(13), e, p))
        ratio = drifts[0.01] / drifts[0.005]
        assert 1.4 <= ratio <= 2.8

    def test_origin_raises_singularity(self):
        f = constant(2)
        e = Ensemble(np.array([[0.0, 1.0], [1e-20, 1e-20]]))
        p = VariantParams(variant="sphere")
        with pytest.raises(SingularityError, match=r"^particle at the origin at step 0: "):
            step(e, f, p, draw(RngPlan(0), e, p))

    def test_renormalization_near_the_origin_raises_singularity(self):
        # with z = 0 the drift is tangential, here 0, and the Ito correction
        # 2 dt x leaves (1 - 2 dt) x: a row of norm about 1e-13 at dt just below 0.5
        e = Ensemble(np.array([[1.0, 0.0]]))
        p = VariantParams(lam=1.0, sigma=1.0, dt=0.5 - 5e-14, variant="sphere")
        cp = ConsensusPoint(np.array([-1.0, 0.0]), 1.0)
        with pytest.raises(SingularityError, match=r"^renormalization hit the origin at step 0$"):
            step(e, constant(2), p, np.zeros((1, 2)), cp=cp)


class TestStepDispatch:
    def test_coincident_fixed_point_all_variants(self):
        # everyone at v_f: the ensemble is a fixed point of every stepper
        point = np.array([0.3, -0.4, np.sqrt(1 - 0.09 - 0.16)])  # unit norm for sphere
        f = make_objective("ackley", 3)
        for variant in ("original", "anisotropic", "common_noise", "sphere"):
            e = Ensemble(np.tile(point, (5, 1)))
            p = VariantParams(lam=1.0, sigma=0.8, dt=0.01, alpha=10.0, variant=variant)
            out = step(e, f, p, draw(RngPlan(14), e, p))
            assert np.allclose(out.positions, e.positions, atol=1e-12), variant

    def test_personal_best_needs_memory(self):
        f = quadratic(2)
        e = Ensemble(np.zeros((3, 2)))
        p = VariantParams(variant="personal_best")
        with pytest.raises(ValueError):
            step(e, f, p, draw(RngPlan(0), e, p))

    def test_seed_determinism(self):
        f = make_objective("rastrigin", 4)
        p = VariantParams(lam=1.0, sigma=0.6, dt=0.01, alpha=25.0, variant="anisotropic")
        outs = []
        for _ in range(2):
            plan = RngPlan(99)
            e = init_ensemble(InitSpec("box", low=-2, high=2), 30, 4, plan)
            for _ in range(20):
                e = step(e, f, p, draw(plan, e, p))
            outs.append(e.positions)
        assert np.array_equal(outs[0], outs[1])

    def test_divergence_guard(self):
        f = constant(1)
        e = Ensemble(np.array([[1e300], [-1e300]]))
        p = VariantParams(lam=1e6, sigma=0.0, dt=1e6, alpha=0.0, variant="anisotropic")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            step(e, f, p, draw(RngPlan(0), e, p))
        assert err.value.step == 0

    def test_divergence_error_pickles_with_its_message(self):
        # a campaign worker's error reaches the parent through pickle
        for err in (DivergenceError(3), DivergenceError(0, "non-finite objective values before step")):
            copy = pickle.loads(pickle.dumps(err))
            assert (type(copy), copy.step, str(copy)) == (DivergenceError, err.step, str(err))
        assert str(DivergenceError(3)) == "non-finite particle coordinates after step 3"


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_step_invariants(self, variant, n, d, seed):
        f = make_objective("rastrigin", d)
        plan = RngPlan(seed)
        init = InitSpec("sphere") if variant == "sphere" else InitSpec("box", low=-2, high=2)
        e = init_ensemble(init, n, d, plan)
        start = e.positions.copy()
        p = VariantParams(lam=1.0, sigma=0.8, dt=0.01, alpha=20.0, variant=variant)
        mem = PersonalBestMemory.initial(e) if variant == "personal_best" else None
        for _ in range(4):
            out = step(e, f, p, draw(plan, e, p), mem)
            assert out.positions.shape == (n, d)
            assert np.isfinite(out.positions).all()
            assert out.time == e.time + p.dt and out.step_count == e.step_count + 1
            if variant == "sphere":
                assert np.max(np.abs(np.linalg.norm(out.positions, axis=1) - 1.0)) <= 1e-12
            e = out
        if n == 1:  # v = X: drift and noise vanish
            assert np.max(np.abs(e.positions - start)) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 3.0),
        sigma=st.floats(0.0, 2.0),
        dt=st.floats(1e-4, 0.1),
        isotropic=st.booleans(),
    )
    def test_kicks_are_translation_equivariant(self, n, d, seed, lam, sigma, dt, isotropic):
        # the tolerances of the consensus reduction's translation property
        rng = np.random.default_rng(seed)
        x, v, shift = rng.uniform(-10, 10, (n, d)), rng.uniform(-10, 10, d), rng.uniform(-10, 10, d)
        z, gate = rng.standard_normal((n, d)), rng.uniform(0.0, 1.0, (n, 1))
        scratch = np.empty((n, d))

        def kick(x, v):
            if isotropic:
                return isotropic_kick(x, v, lam, sigma, dt, z, scratch, gate)
            return anisotropic_kick(x, v, lam, sigma, dt, z, scratch)

        scale = 1e-12 * (1.0 + np.max(np.abs(x)) + np.max(np.abs(shift)))
        np.testing.assert_allclose(kick(x + shift, v + shift), kick(x, v) + shift, rtol=1e-12,
                                   atol=scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        variant=st.sampled_from(["original", "anisotropic", "common_noise", "personal_best"]),
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 3.0),
        sigma=st.floats(0.0, 2.0),
        dt=st.floats(1e-4, 0.1),
        alpha=st.floats(0.0, 10.0),
    )
    def test_step_is_translation_equivariant(self, variant, n, d, seed, lam, sigma, dt, alpha):
        # positions and shift on a grid of 1/1024, so x + shift and its
        # preimage are exact and the objective agrees bitwise at the
        # particles; at v it differs by rounding, which a regularized gate
        # passes on continuously. The sphere has no translation symmetry.
        rng = np.random.default_rng(seed)
        x = rng.integers(-2048, 2049, (n, d)) / 1024.0
        shift = rng.integers(-10240, 10241, d) / 1024.0
        base = make_objective("rastrigin", d)
        p = VariantParams(lam=lam, sigma=sigma, dt=dt, alpha=alpha, epsilon=1.0,
                          heaviside_mode="regularized", variant=variant)
        outs = []
        for c in (np.zeros(d), shift):
            f = ObjectiveFunction("shifted", lambda y, c=c: base.fn(np.asarray(y, float) - c), d)
            e = Ensemble(x + c)
            mem = PersonalBestMemory.initial(e) if variant == "personal_best" else None
            outs.append(step(e, f, p, draw(RngPlan(seed), e, p), mem).positions)
        scale = 1e-12 * (1.0 + np.max(np.abs(x)) + np.max(np.abs(shift)))
        np.testing.assert_allclose(outs[1], outs[0] + shift, rtol=1e-12, atol=scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        low=st.floats(-5.0, 5.0),
        width=st.floats(0.01, 10.0),
        lam=st.floats(0.0, 3.0),
        sigma=st.floats(0.0, 2.0),
        dt=st.floats(1e-4, 0.1),
        alpha=st.floats(0.0, 50.0),
    )
    def test_sphere_step_from_any_box_gives_unit_rows(self, n, d, seed, low, width, lam, sigma,
                                                      dt, alpha):
        plan = RngPlan(seed)
        e = init_ensemble(InitSpec("box", low=low, high=low + width), n, d, plan)
        # a row at the origin has no tangent space
        assume(np.min(np.linalg.norm(e.positions, axis=1)) > 1e-6)
        p = VariantParams(lam=lam, sigma=sigma, dt=dt, alpha=alpha, variant="sphere")
        out = step(e, make_objective("ackley", d), p, draw(plan, e, p))
        assert np.max(np.abs(np.linalg.norm(out.positions, axis=1) - 1.0)) <= 1e-12


class TestFrozenMomentLaws:
    """Monte Carlo check of the pinned-consensus second-moment rates."""

    def test_isotropic_rate(self):
        from cbopt.harness import diagnostic_frozen_moment

        fitted, predicted = diagnostic_frozen_moment("isotropic", 1.0, 0.3, 10, 2000, 1e-3, 1.0, 31)
        assert predicted == pytest.approx(1.1)
        assert abs(fitted - predicted) / predicted <= 0.05

    def test_needs_1000_particles(self):
        from cbopt.harness import diagnostic_frozen_moment

        with pytest.raises(ValueError, match="1000 particles"):
            diagnostic_frozen_moment("anisotropic", 1.0, 0.3, 10, 999, 1e-3, 1.0, 31)

    def test_anisotropic_rate(self):
        from cbopt.harness import diagnostic_frozen_moment

        fitted, predicted = diagnostic_frozen_moment(
            "anisotropic", 1.0, 0.3, 10, 2000, 1e-3, 1.0, 31
        )
        assert predicted == pytest.approx(1.91)
        assert abs(fitted - predicted) / predicted <= 0.05


def test_sphere_norm_drift_needs_the_sphere_variant():
    e = Ensemble(np.eye(3))
    p = VariantParams(variant="anisotropic")
    with pytest.raises(ValueError, match="^sphere_norm_drift needs the sphere variant$"):
        sphere_norm_drift(e, make_objective("ackley", 3), p, np.zeros((3, 3)))
