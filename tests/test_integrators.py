"""Splitting and freezing scheme tests: exactness, moment checks, and the
never-overshoot guarantees."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt.consensus import weighted_mean
from cbopt.dynamics import VariantParams, Workspace
from cbopt.ensemble import STREAM_DIFFUSION, Ensemble, RngPlan
from cbopt.harness import _step
from cbopt.integrators import frozen_gbm, split_diffusion, split_drift
from cbopt.objectives import make_objective


def rk4_contraction(x0, v, lam, gamma, substeps=10_000):
    """Independent ODE oracle for dx/dt = -lam (x - v) via classic RK4."""
    h = gamma / substeps
    x = np.array(x0, dtype=float)
    for _ in range(substeps):
        k1 = -lam * (x - v)
        k2 = -lam * (x + 0.5 * h * k1 - v)
        k3 = -lam * (x + 0.5 * h * k2 - v)
        k4 = -lam * (x + h * k3 - v)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class TestSplitDrift:
    def test_half_life_example(self):
        out = split_drift(np.array([[1.0]]), np.zeros(1), 1.0, np.log(2.0))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_small_gamma_taylor(self):
        x = np.array([[3.0, -2.0]])
        v = np.array([1.0, 1.0])
        gamma = 1e-8
        out = split_drift(x, v, 1.0, gamma)
        assert np.max(np.abs(out - x + 1.0 * gamma * (x - v))) <= 1e-12

    def test_euler_oracle_small_product(self):
        # explicit Euler with 1e4 substeps resolves lam*gamma = 0.01 to 1e-8
        x0, v, lam, gamma = 2.0, 0.5, 1.0, 0.01
        substeps = 10_000
        x = x0
        for _ in range(substeps):
            x -= lam * (x - v) * (gamma / substeps)
        out = split_drift(np.array([[x0]]), np.array([v]), lam, gamma)
        assert abs(out[0, 0] - x) <= 1e-8

    def test_rk4_oracle_wide_range(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            lam = rng.uniform(0.1, 3.0)
            gamma = rng.uniform(0.01, 2.0)
            x0 = rng.normal(size=(4, 3)) * 5
            v = rng.normal(size=3)
            oracle = rk4_contraction(x0, v, lam, gamma)
            out = split_drift(x0, v, lam, gamma)
            assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_exact_contraction_factor(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(50, 4))
        v = rng.normal(size=4)
        lam, gamma = 0.8, 0.3
        out = split_drift(x, v, lam, gamma)
        assert np.allclose(
            np.abs(out - v), np.exp(-lam * gamma) * np.abs(x - v), atol=1e-14
        )

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            split_drift(np.zeros((1, 1)), np.zeros(1), 1.0, 0.0)


class TestSplitDiffusion:
    def test_sigma_zero_identity(self):
        x = np.random.default_rng(22).normal(size=(10, 2))
        out = split_diffusion(
            x, np.zeros(2), 0.0, 0.5, np.random.default_rng(0).standard_normal(x.shape)
        )
        assert np.array_equal(out, x)

    def test_at_consensus_identity(self):
        v = np.array([1.0, -1.0])
        x = np.tile(v, (7, 1))
        out = split_diffusion(x, v, 2.0, 0.5, np.random.default_rng(1).standard_normal(x.shape))
        assert np.array_equal(out, x)

    def test_variance_matches_sigma_sq_gamma(self):
        sigma, gamma = 0.7, 0.25
        x = np.ones((100_000, 1))  # X - v = 1
        out = split_diffusion(
            x, np.zeros(1), sigma, gamma, np.random.default_rng(23).standard_normal(x.shape)
        )
        var = np.var(out - x)
        assert var == pytest.approx(sigma**2 * gamma, rel=0.02)


class TestFrozenGbm:
    def test_sigma_zero_collapses_to_split_drift_bitwise(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(30, 3))
        v = rng.normal(size=3)
        a = split_drift(x, v, 1.3, 0.17)
        b = frozen_gbm(x, v, 1.3, 0.0, 0.17, np.random.default_rng(99).standard_normal(x.shape))
        assert np.array_equal(a, b)

    def test_mean_matches_contraction(self):
        # E exp(-s^2 g/2 + s sqrt(g) z) = 1, so E[X - v] = (X0 - v) e^{-lam g}
        lam, sigma, gamma = 1.0, 0.6, 0.2
        x = np.full((100_000, 1), 3.0)
        v = np.ones(1)
        out = frozen_gbm(
            x, v, lam, sigma, gamma, np.random.default_rng(25).standard_normal(x.shape)
        )
        expected = 2.0 * np.exp(-lam * gamma)
        assert np.mean(out - v) == pytest.approx(expected, rel=0.02)

    def test_zero_diff_coordinate_pinned(self):
        x = np.array([[0.5, 2.0], [0.5, -1.0]])
        v = np.array([0.5, 0.0])
        out = frozen_gbm(x, v, 1.0, 0.9, 0.1, np.random.default_rng(26).standard_normal(x.shape))
        assert np.array_equal(out[:, 0], [0.5, 0.5])

    def test_sigma_squared_past_the_float_range_lands_on_v(self):
        # sigma^2 / 2 is inf, so every factor exp(-inf) is 0: the exact
        # solution's limit, computed without an error or a warning
        x = np.random.default_rng(29).normal(size=(6, 2)) * 4
        v = np.array([0.3, -0.7])
        z = np.random.default_rng(30).standard_normal(x.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = frozen_gbm(x, v, 1.0, 1e200, 0.01, z)
        assert np.array_equal(out, np.broadcast_to(v, x.shape))

    def test_never_crosses_consensus(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(1000, 2)) * 4
        v = np.array([0.3, -0.7])
        out = frozen_gbm(x, v, 1.0, 2.0, 0.5, np.random.default_rng(28).standard_normal(x.shape))
        assert np.all(np.sign(out - v) == np.sign(x - v))


class TestTranslationCommutation:
    def test_all_three_updates(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(20, 3))
        v = rng.normal(size=3)
        c = np.array([5.0, -3.0, 0.25])
        a = split_drift(x, v, 0.9, 0.4)
        b = split_drift(x + c, v + c, 0.9, 0.4)
        assert np.max(np.abs(b - (a + c))) <= 1e-12
        a = split_diffusion(x, v, 0.8, 0.4, np.random.default_rng(5).standard_normal(x.shape))
        b = split_diffusion(
            x + c, v + c, 0.8, 0.4, np.random.default_rng(5).standard_normal(x.shape)
        )
        assert np.max(np.abs(b - (a + c))) <= 1e-12
        a = frozen_gbm(x, v, 0.9, 0.8, 0.4, np.random.default_rng(6).standard_normal(x.shape))
        b = frozen_gbm(
            x + c, v + c, 0.9, 0.8, 0.4, np.random.default_rng(6).standard_normal(x.shape)
        )
        assert np.max(np.abs(b - (a + c))) <= 1e-12


def split_diffusion_drawing(positions, v, sigma, gamma, rng):
    """split_diffusion as it was written when it drew from a Generator."""
    z = rng.standard_normal(np.shape(positions))
    return positions + sigma * np.sqrt(gamma) * (positions - v) * z


def frozen_gbm_drawing(positions, v, lam, sigma, gamma, rng):
    """frozen_gbm as it was written when it drew from a Generator."""
    z = rng.standard_normal(np.shape(positions))
    exponent = (-lam - 0.5 * sigma**2) * gamma + sigma * np.sqrt(gamma) * z
    return v + (positions - v) * np.exp(exponent)


class TestFedDraw:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 5.0),
        sigma=st.floats(0.0, 5.0),
        gamma=st.floats(1e-8, 2.0),
    )
    def test_equal_the_generator_form_bytewise(self, n, d, seed, lam, sigma, gamma):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=d)
        z = np.random.default_rng(seed + 1).standard_normal(x.shape)
        expected = split_diffusion_drawing(x, v, sigma, gamma, np.random.default_rng(seed + 1))
        assert split_diffusion(x, v, sigma, gamma, z).tobytes() == expected.tobytes()
        expected = frozen_gbm_drawing(x, v, lam, sigma, gamma, np.random.default_rng(seed + 1))
        assert frozen_gbm(x, v, lam, sigma, gamma, z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("integrator", ["split", "frozen"])
    def test_harness_step_equals_the_generator_form_bytewise(self, integrator):
        f = make_objective("ackley", 3)
        plan = RngPlan(4)
        e = Ensemble(np.random.default_rng(8).normal(size=(7, 3)), time=0.1, step_count=6)
        p = VariantParams(lam=1.1, sigma=0.9, dt=0.05, alpha=10.0)
        cp = weighted_mean(e, f, p.alpha)
        x = e.positions
        z = plan.normal_block(STREAM_DIFFUSION, 6, x.shape)
        new = _step(e, f, p, z, integrator, None, cp, Workspace(x.shape))
        gen = plan.generator(STREAM_DIFFUSION, 6)
        if integrator == "split":
            expected = split_diffusion_drawing(split_drift(x, cp.v, p.lam, p.dt), cp.v, p.sigma,
                                               p.dt, gen)
        else:
            expected = frozen_gbm_drawing(x, cp.v, p.lam, p.sigma, p.dt, gen)
        assert new.positions.tobytes() == expected.tobytes()
        assert new.step_count == 7
