"""Consensus weights, weighted mean, and Laplace-value tests."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbopt.consensus import (
    consensus_from_values, consensus_mean, exponentials, laplace_estimate, log_normalizer,
    weighted_mean, weights,
)
from cbopt.ensemble import Ensemble, InitSpec, RngPlan, init_ensemble
from cbopt.objectives import ObjectiveFunction, make_objective


def quadratic(d=1):
    return ObjectiveFunction("quad", lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1), d)


class TestWeights:
    def test_alpha_zero_uniform(self):
        rng = np.random.default_rng(0)
        fvals = rng.uniform(-50, 50, 17)
        w = weights(fvals, 0.0)
        assert np.array_equal(w, np.full(17, 1.0 / 17))

    def test_two_point_example(self):
        w = weights(np.array([0.0, math.log(2.0)]), 1.0)
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_huge_alpha_selects_min(self):
        w = weights(np.array([0.0, 1.0]), 1e4)
        assert w[0] == 1.0
        assert w[1] <= 1e-300  # exact ratio exp(-1e4) ~ 1e-4343 underflows

    def test_huge_alpha_no_overflow(self):
        rng = np.random.default_rng(1)
        w = weights(rng.uniform(0, 100, 1000), 1e6)
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0)

    def test_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = weights(rng.normal(size=rng.integers(1, 30)), rng.uniform(0, 50))
            assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            weights(np.array([0.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            weights(np.array([0.0, np.inf]), 1.0)
        with pytest.raises(ValueError):
            weights(np.array([]), 1.0)
        with pytest.raises(ValueError):
            weights(np.array([1.0]), -1.0)
        with pytest.raises(ValueError):
            weights(np.array([1.0]), np.inf)
        with pytest.raises(ValueError):  # -inf in a later ensemble of a stack
            weights(np.array([[0.0, 1.0], [-np.inf, 2.0]]), 1.0)


class TestWeightedMean:
    def test_single_particle(self):
        f = make_objective("ackley", 2)
        e = Ensemble(np.array([[0.3, -0.7]]))
        cp = weighted_mean(e, f, 25.0)
        assert np.array_equal(cp.v, e.positions[0])
        assert cp.f_at_v == pytest.approx(float(f(e.positions[0])))

    def test_symmetric_pair_gives_midpoint(self):
        f = quadratic(1)
        e = Ensemble(np.array([[-2.0], [2.0]]))  # equal f values
        cp = weighted_mean(e, f, 13.0)
        assert cp.v[0] == pytest.approx(0.0, abs=1e-15)

    def test_large_alpha_matches_argmin(self):
        rng = np.random.default_rng(3)
        f = make_objective("rastrigin", 3)
        for _ in range(20):
            e = Ensemble(rng.uniform(-4, 4, size=(15, 3)))
            fvals = np.asarray(f(e.positions))
            best = e.positions[int(np.argmin(fvals))]
            cp = weighted_mean(e, f, 1e4)
            if np.min(np.abs(np.sort(fvals)[1] - np.sort(fvals)[0])) > 1e-2:
                assert np.max(np.abs(cp.v - best)) <= 1e-12

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(4)
        f = make_objective("griewank", 4)
        for _ in range(50):
            e = Ensemble(rng.uniform(-10, 10, size=(12, 4)))
            cp = weighted_mean(e, f, rng.uniform(0, 100))
            lo = e.positions.min(axis=0) - 1e-12
            hi = e.positions.max(axis=0) + 1e-12
            assert np.all(cp.v >= lo) and np.all(cp.v <= hi)

    def test_alpha_zero_arithmetic_mean(self):
        rng = np.random.default_rng(5)
        f = make_objective("ackley", 3)
        e = Ensemble(rng.normal(size=(30, 3)))
        cp = weighted_mean(e, f, 0.0)
        expected = (np.full((30, 1), 1.0 / 30) * e.positions).sum(axis=0)
        assert np.array_equal(cp.v, expected)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        base = quadratic(2)
        for shift in (1.0, -7.5, 123.0):
            shifted = ObjectiveFunction("quad+c", lambda x, c=shift: base.fn(x) + c, 2)
            e = Ensemble(rng.normal(size=(20, 2)))
            va = weighted_mean(e, base, 8.0).v
            vb = weighted_mean(e, shifted, 8.0).v
            assert np.max(np.abs(va - vb)) <= 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(7)
        base = quadratic(2)
        for s in (0.5, 3.0, 40.0):
            scaled = ObjectiveFunction("s*quad", lambda x, s=s: s * base.fn(x), 2)
            e = Ensemble(rng.normal(size=(20, 2)))
            va = weighted_mean(e, base, 8.0).v
            vb = weighted_mean(e, scaled, 8.0 / s).v
            assert np.max(np.abs(va - vb)) <= 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        base = quadratic(3)
        shift = np.array([2.0, -1.0, 0.5])
        moved = ObjectiveFunction("quad(.-c)", lambda x: base.fn(np.asarray(x, float) - shift), 3)
        e = Ensemble(rng.normal(size=(25, 3)))
        va = weighted_mean(e, base, 12.0).v
        vb = weighted_mean(Ensemble(e.positions + shift), moved, 12.0).v
        assert np.max(np.abs(vb - (va + shift))) <= 1e-12


class TestLaplaceValue:
    def test_constant_landscape(self):
        const = ObjectiveFunction("const", lambda x: np.full(np.shape(x)[:-1], 4.25), 2)
        e = Ensemble(np.random.default_rng(9).normal(size=(50, 2)))
        for alpha in (0.5, 1.0, 100.0):
            assert laplace_estimate(const(e.positions), alpha)[0] == pytest.approx(4.25, abs=1e-12)

    def test_gaussian_closed_form(self):
        # -(1/a) log E exp(-a x^2) with x ~ N(0,1) equals log(1+2a)/(2a)
        f = quadratic(1)
        e = init_ensemble(InitSpec("gaussian"), 100_000, 1, RngPlan(10))
        for alpha in (1.0, 10.0, 100.0):
            closed = math.log1p(2.0 * alpha) / (2.0 * alpha)
            fvals = np.asarray(f(e.positions))
            w = np.exp(-alpha * (fvals - fvals.min()))
            se = np.std(w, ddof=1) / (alpha * np.mean(w) * np.sqrt(w.size))
            assert abs(laplace_estimate(fvals, alpha)[0] - closed) <= 3.0 * se

    def test_standard_error_uses_the_sample_spread(self):
        # ddof 1: on four values the population spread is sqrt(3/4) of it
        fvals, alpha = np.array([0.3, 1.1, 0.7, 2.0]), 2.0
        w = np.exp(-alpha * (fvals - fvals.min()))
        expected = np.std(w, ddof=1) / (alpha * np.mean(w) * np.sqrt(w.size))
        assert laplace_estimate(fvals, alpha)[1] == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_alpha(self):
        f = quadratic(1)
        e = init_ensemble(InitSpec("gaussian"), 5_000, 1, RngPlan(11))
        alphas = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0]
        fvals = f(e.positions)
        values = [laplace_estimate(fvals, a)[0] for a in alphas]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_alpha_zero_rejected(self):
        e = Ensemble(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            laplace_estimate(quadratic(1)(e.positions), 0.0)

    def test_alpha_past_the_float_range_warns_nothing(self):
        # at alpha 1e308 both alpha (f - min f) and alpha min f overflow
        f = make_objective("ackley", 3)
        e = init_ensemble(InitSpec("box", low=-2.0, high=2.0), 12, 3, RngPlan(1))
        fvals, alpha = f(e.positions), 1e308
        best = int(np.argmin(fvals))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = weights(fvals, alpha), consensus_mean(e.positions, fvals, alpha)
            cp, log_value = weighted_mean(e, f, alpha), log_normalizer(fvals, alpha)
            value, se = laplace_estimate(fvals, alpha)
        assert w.tolist() == [float(i == best) for i in range(12)]
        assert np.array_equal(v, e.positions[best]) and np.array_equal(cp.v, v)
        assert log_value == -math.inf
        assert value == pytest.approx(fvals.min(), abs=1e-12) and math.isfinite(se)
        # with half the values tied at the minimum, alpha mean sqrt(N) overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, se = laplace_estimate(np.repeat([4.25, 5.0], 50), alpha)
        assert value == 4.25 and se == pytest.approx(math.sqrt(100 / 99) / 10 / alpha, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 30.0, 1e308])
    def test_one_value_has_a_nan_standard_error_and_warns_nothing(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, se = laplace_estimate([2.5], alpha)
        assert value == pytest.approx(2.5, rel=1e-15) and math.isnan(se)


def _values(shape, bound):
    return arrays(float, shape, elements=st.floats(-bound, bound, allow_nan=False))


@st.composite
def ensembles(draw, stacked=False):
    """(positions, fvals): (R, N, d) and (R, N) when stacked, else (N, d) and (N,)."""
    lead = (draw(st.integers(1, 4)),) if stacked else ()
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    return draw(_values(lead + (n, d), 10.0)), draw(_values(lead + (n,), 10.0))


class TestReductionProperties:
    @settings(max_examples=80, deadline=None)
    @given(ensemble=ensembles(stacked=True), alpha=st.floats(0.0, 100.0) | st.just(1e308))
    @example(ensemble=(np.zeros((2, 3, 1)), np.array([[3.0, 3.0, 5.0], [-2.0, 7.0, 7.0]])),
             alpha=1e308)  # alpha (max f - min f) passes the float range
    def test_stack_matches_separate_weighted_means_bitwise(self, ensemble, alpha):
        positions, fvals = ensemble
        v, stacked = consensus_mean(positions, fvals, alpha), log_normalizer(fvals, alpha)
        for r, rows in enumerate(positions):
            # the drawn values at the particles; f(v) plays no part in v
            drawn = ObjectiveFunction("drawn", lambda x, r=r: fvals[r] if x.ndim == 2 else 0.0,
                                      rows.shape[1])
            cp = weighted_mean(Ensemble(rows), drawn, alpha)
            assert v[r].tobytes() == cp.v.tobytes()
            assert stacked[r].tobytes() == log_normalizer(fvals[r], alpha).tobytes()
        # and every entry point on the stack, against the formulas written out
        fmin = np.minimum.reduce(fvals, axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            shifted = np.exp(-alpha * (fvals - fmin))
            assert stacked.tobytes() == eager_log_normalizer(fvals, alpha).tobytes()
        w = shifted / shifted.sum(-1, keepdims=True)
        plain = np.add.reduce(w[..., None] * positions, axis=-2)
        got_shifted, got_fmin = exponentials(fvals, alpha)
        assert got_shifted.tobytes() == shifted.tobytes() and got_fmin.tobytes() == fmin.tobytes()
        assert weights(fvals, alpha).tobytes() == w.tobytes()
        assert v.tobytes() == plain.tobytes()
        f = quadratic(positions.shape[-1])
        cps = consensus_from_values(positions, fvals, alpha, f)
        assert cps.v.tobytes() == plain.tobytes() and cps.f_at_v == f(plain).tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        ensemble=ensembles(),
        alpha=st.floats(0.0, 10.0),
        c=st.floats(-10.0, 10.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_invariant_under_f_plus_c_and_equivariant_under_translation(
        self, ensemble, alpha, c, shift
    ):
        # |f|, |c|, |x| <= 10 and alpha <= 10 bound the rounding of f + c in
        # the exponent, and of x + shift, well below 1e-12 of the scale
        positions, fvals = ensemble
        v = consensus_mean(positions, fvals, alpha)
        scale = 1e-12 * (1.0 + np.max(np.abs(positions)) + abs(shift))
        np.testing.assert_allclose(
            consensus_mean(positions, fvals + c, alpha), v, rtol=1e-12, atol=scale
        )
        np.testing.assert_allclose(
            consensus_mean(positions + shift, fvals, alpha), v + shift, rtol=1e-12, atol=scale
        )

    @settings(max_examples=200, deadline=None)
    @given(
        fvals=arrays(float, st.integers(1, 12), elements=st.floats(allow_nan=False,
                                                                   allow_infinity=False)),
        alpha=st.one_of(st.floats(0.0, 1e308), st.just(1e308), st.just(0.0)),
    )
    @example(fvals=np.array([3.0, 5.0]), alpha=1e308)  # -alpha f overflows
    @example(fvals=np.array([-1e308, 1e308]), alpha=0.0)  # f - min f overflows
    def test_log_normalizer_is_never_nan(self, fvals, alpha):
        positions = np.linspace(-1.0, 1.0, fvals.size)[:, None]
        with np.errstate(over="ignore"):
            v, value = consensus_mean(positions, fvals, alpha), log_normalizer(fvals, alpha)
        assert not np.isnan(value)
        assert np.isfinite(v).all()


def eager_log_normalizer(fvals, alpha):
    """log((1/N) sum_i exp(-alpha f_i)) as an eager reduction computes it:
    -alpha min f (0 at alpha 0), plus the log of the mean shifted exponential."""
    fmin = np.minimum.reduce(fvals, axis=-1, keepdims=True)
    shifted = np.ones_like(fvals) if alpha == 0.0 else np.exp(-alpha * (fvals - fmin))
    total = np.add.reduce(shifted, axis=-1, keepdims=True)
    shift = np.zeros(fmin.shape[:-1]) if alpha == 0.0 else -alpha * fmin[..., 0]
    return shift + np.log(total[..., 0] / fvals.shape[-1])


@st.composite
def cases(draw, lead=st.sampled_from([(), (1,), (2,), (4,)])):
    """(positions, fvals): (q, M, d) and (q, M) stacks or (N, d) and (N,)
    single ensembles, with tied values or not."""
    lead = draw(lead)
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    values = st.sampled_from([-1.5, 0.0, 2.0]) if draw(st.booleans()) else st.floats(-50.0, 50.0)
    return (draw(_values(lead + (n, d), 10.0)),
            draw(arrays(float, lead + (n,), elements=values)))


def float_bytes(x):
    return np.asarray(x, dtype=float).tobytes()


class TestLogNormalizer:
    @settings(max_examples=200, deadline=None)
    @given(case=cases(), alpha=st.sampled_from([0.0, 1e308]) | st.floats(0.0, 100.0))
    @example(case=(np.zeros((2, 3, 1)), np.array([[3.0, 3.0, 5.0], [-2.0, 7.0, 7.0]])),
             alpha=1e308)  # -alpha min f overflows: -inf, and a tie at the minimum
    def test_matches_the_eager_reduction_bitwise(self, case, alpha):
        _, fvals = case
        with np.errstate(over="ignore"):
            want, got = eager_log_normalizer(fvals, alpha), log_normalizer(fvals, alpha)
        assert np.shape(got) == fvals.shape[:-1]
        assert float_bytes(got) == float_bytes(want)


class TestStackedPoint:
    @settings(max_examples=100, deadline=None)
    @given(case=cases(lead=st.sampled_from([(1,), (2,), (4,)])), alpha=st.floats(0.0, 100.0),
           a=st.integers(-4, 4), b=st.integers(-4, 4))
    def test_points_slices_and_pickles_keep_v_and_f_at_v_bitwise(self, case, alpha, a, b):
        positions, fvals = case
        cps = consensus_from_values(positions, fvals, alpha, quadratic(positions.shape[-1]))
        q = len(fvals)
        for j in list(range(q)) + [-1]:
            point = cps[j]
            assert point.v.tobytes() == cps.v[j].tobytes()
            assert type(point.f_at_v) is float
            assert float_bytes(point.f_at_v) == float_bytes(cps.f_at_v[j])
        part = cps[a:b]
        assert part.v.tobytes() == cps.v[a:b].tobytes()
        assert float_bytes(part.f_at_v) == float_bytes(cps.f_at_v[a:b])
        copy = pickle.loads(pickle.dumps(cps))
        assert copy.v.tobytes() == cps.v.tobytes()
        assert type(copy.f_at_v) is list and float_bytes(copy.f_at_v) == float_bytes(cps.f_at_v)


class TestOneConversion:
    """Each entry point converts what it is given to float64 once, and the
    values are those of its float64 copy, as they were when every layer
    converted again: a list, an int array, float32 values, one particle and
    an int alpha."""

    POSITIONS = [[1, -2], [0, 3], [2, 2], [-1, 0]]

    @pytest.mark.parametrize("fvals", [
        [3, 1, 2, 5], np.array([3, 1, 2, 5]), np.array([3.1, 1.7, 2.2, 5.9], dtype=np.float32),
    ], ids=["list", "int", "float32"])
    @pytest.mark.parametrize("alpha", [0.7, 2])
    def test_exponentials_weights_and_consensus_mean(self, fvals, alpha):
        want = np.asarray(fvals, dtype=float)
        got = exponentials(fvals, alpha) + (weights(fvals, alpha),
                                            consensus_mean(self.POSITIONS, fvals, alpha))
        expected = exponentials(want, float(alpha)) + (
            weights(want, float(alpha)),
            consensus_mean(np.array(self.POSITIONS, dtype=float), want, float(alpha)))
        for a, b in zip(got, expected):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_one_particle(self):
        shifted, fmin = exponentials([4], 3.0)
        assert shifted.tolist() == [1.0] and fmin.tolist() == [4.0]
        assert weights([4], 3.0).tolist() == [1.0]
        assert consensus_mean([[1, 2]], [4], 3.0).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("kind", ["objective", "function", "list"])
    def test_objective_values_that_are_not_float64(self, kind):
        # an ObjectiveFunction converts the values it returns, and the
        # consensus entry points convert those of a plain function (int
        # values, or lists of them), so the consensus is what float64
        # values of the same numbers give
        def counts(x):
            n = np.sum(np.asarray(x) > 0.0, axis=-1)  # int values, or an int for one point
            return n.tolist() if kind == "list" else n

        def as_floats(x):
            return np.asarray(counts(x), dtype=float)

        f = ObjectiveFunction("ints", counts, 2) if kind == "objective" else counts
        e = Ensemble(np.array(self.POSITIONS, dtype=float))
        got, want = weighted_mean(e, f, 1.5), weighted_mean(e, as_floats, 1.5)
        assert got.v.tobytes() == want.v.tobytes() and got.f_at_v == want.f_at_v
        same = consensus_from_values(e.positions, f(e.positions), 1.5, f)
        assert same.v.tobytes() == got.v.tobytes() and type(same.f_at_v) is float
        assert float_bytes(same.f_at_v) == float_bytes(got.f_at_v)
        stacked = np.array([self.POSITIONS[:2], self.POSITIONS[2:]], dtype=float)
        got = consensus_from_values(stacked, counts(stacked), 1.5, f)
        want = consensus_from_values(stacked, as_floats(stacked), 1.5, as_floats)
        assert got.v.tobytes() == want.v.tobytes() and got.f_at_v == want.f_at_v
        assert all(type(value) is float for value in got.f_at_v)
