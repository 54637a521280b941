"""Random-batch bookkeeping tests: partitions, batch consensus, scoped
updates, and the stopping rule."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt.batching import (
    BatchParams,
    BatchState,
    ConstantSchedule,
    GeometricSchedule,
    batch_consensus,
    batch_update,
    first_stop,
    make_batches,
    stop_check,
)
from cbopt.consensus import consensus_from_values, weighted_mean
from cbopt.dynamics import VariantParams, step
from cbopt.ensemble import Ensemble, FieldError, InitSpec, RngPlan, STREAM_DIFFUSION, init_ensemble
from cbopt.harness import RunConfig, run
from cbopt.objectives import make_objective


class TestMakeBatches:
    def test_example_n10_m3_empty_remainder(self):
        batches, state = make_batches(BatchState.fresh(), 10, 3, RngPlan(0))
        assert len(batches) == 3
        assert all(len(b) == 3 for b in batches)
        assert state.remainder.size == 1

    def test_example_n10_m3_remainder2(self):
        start = BatchState(remainder=np.array([4, 7]), epoch=1)
        batches, state = make_batches(start, 10, 3, RngPlan(0))
        assert len(batches) == 4
        assert state.remainder.size == 0
        assert batches[0][0] == 4 and batches[0][1] == 7  # remainder goes first

    def test_m_equals_n(self):
        batches, state = make_batches(BatchState.fresh(), 8, 8, RngPlan(1))
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(8))
        assert state.remainder.size == 0

    def test_bookkeeping_properties_random(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n = int(rng.integers(3, 31))
            m = int(rng.integers(1, n + 1))
            state = BatchState.fresh()
            plan = RngPlan(int(rng.integers(0, 2**32)))
            for _ in range(4):
                r_before = state.remainder.copy()
                batches, state = make_batches(state, n, m, plan)
                q = (n + r_before.size) // m
                assert len(batches) == q
                assert all(b.size == m for b in batches)
                assert state.remainder.size == (n + r_before.size) % m
                assert state.remainder.size < m
                combined = np.concatenate(batches + [state.remainder])
                expected = np.sort(np.concatenate([r_before, np.arange(n)]))
                assert np.array_equal(np.sort(combined), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1),
           epochs=st.integers(1, 6))
    def test_carried_rows_sit_in_batch_0_and_are_dealt_at_most_twice(self, n, m_frac, seed,
                                                                    epochs):
        # the facts the epoch plan of a partial-mode run rests on
        m, state, plan = 1 + min(n - 1, int(m_frac * n)), BatchState.fresh(), RngPlan(seed)
        for _ in range(epochs):
            carried = state.remainder
            batches, state = make_batches(state, n, m, plan)
            assert np.array_equal(batches[0][: carried.size], carried)
            counts = np.bincount(np.concatenate(batches + [state.remainder]), minlength=n)
            assert np.array_equal(np.flatnonzero(counts == 2), np.sort(carried))
            assert counts.max() <= 2 and counts.min() >= 1

    def test_every_index_within_two_epochs(self):
        state = BatchState.fresh()
        plan = RngPlan(3)
        n, m = 13, 5
        seen = set()
        batches, state = make_batches(state, n, m, plan)
        for b in batches:
            seen.update(b.tolist())
        batches, state = make_batches(state, n, m, plan)
        for b in batches:
            seen.update(b.tolist())
        assert seen == set(range(n))

    def test_determinism(self):
        a, _ = make_batches(BatchState.fresh(), 20, 6, RngPlan(4))
        b, _ = make_batches(BatchState.fresh(), 20, 6, RngPlan(4))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_oversize_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batches(BatchState.fresh(), 5, 6, RngPlan(0))

    def test_batch_params_validation(self):
        with pytest.raises(ValueError):
            BatchParams(batch_size=0)
        with pytest.raises(ValueError):
            BatchParams(batch_size=3, update_mode="half")
        with pytest.raises(ValueError):
            BatchParams(batch_size=3, stop_eps=0.0)

    def test_geometric_schedule_past_the_float_range(self):
        assert GeometricSchedule(0.7, 1e200)(2, 0) == math.inf
        assert GeometricSchedule(0.0, 1e200)(2, 0) == 0.0  # not 0 * inf
        assert GeometricSchedule(0.1, 1e-200)(2, 0) == 0.0
        BatchParams(batch_size=3, gamma_schedule=GeometricSchedule(0.1, 1e-200), max_epochs=2)
        with pytest.raises(FieldError, match="gamma_schedule"):
            BatchParams(batch_size=3, gamma_schedule=GeometricSchedule(0.1, 1e-200), max_epochs=3)


class TestBatchState:
    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate-free"):
            BatchState(remainder=np.array([4, 7, 4]), epoch=1)
        with pytest.raises(ValueError, match="duplicate-free"):
            BatchState(remainder=np.array([[1, 2]]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12) | st.integers(-2**63, 2**63 - 1), max_size=16))
    def test_accepts_exactly_what_the_unique_rule_accepts(self, indices):
        remainder = np.array(indices, dtype=np.int64)
        distinct = len(np.unique(remainder)) == remainder.size
        try:
            state = BatchState(remainder=remainder)
        except ValueError:
            assert not distinct
        else:
            assert distinct and np.array_equal(state.remainder, remainder)


class TestBatchConsensus:
    def test_singleton_batch(self):
        f = make_objective("ackley", 2)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 9, 2, RngPlan(5))
        cp = batch_consensus(e, f, 20.0, [4])
        assert np.array_equal(cp.v, e.positions[4])

    def test_full_batch_equals_weighted_mean(self):
        f = make_objective("rastrigin", 3)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 12, 3, RngPlan(6))
        a = batch_consensus(e, f, 15.0, np.arange(12))
        b = weighted_mean(e, f, 15.0)
        assert np.array_equal(a.v, b.v)
        assert a.f_at_v == b.f_at_v

    def test_repeated_row_counts_twice(self):
        f = make_objective("ackley", 3)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 8, 3, RngPlan(7))
        cp = batch_consensus(e, f, 4.0, [5, 2, 5, 0])
        positions = e.positions[[0, 2, 5, 5]]  # sorted, row 5 twice
        expected = consensus_from_values(positions, f(positions), 4.0, f)
        assert cp.v.tobytes() == expected.v.tobytes() and cp.f_at_v == expected.f_at_v
        assert cp.v.tobytes() != batch_consensus(e, f, 4.0, [5, 2, 0]).v.tobytes()

    def test_symmetric_pair_midpoint(self):
        f = make_objective("ackley", 1)
        e = Ensemble(np.array([[1.0], [-1.0], [5.0]]))
        cp = batch_consensus(e, f, 7.0, [0, 1])
        assert cp.v[0] == pytest.approx(0.0, abs=1e-15)

    def test_empty_batch_rejected(self):
        f = make_objective("ackley", 1)
        e = Ensemble(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            batch_consensus(e, f, 1.0, [])

    @pytest.mark.parametrize("batch", [[-1, 3], [0, 4], [[0, 1], [2, 4]]])
    def test_out_of_range_indices_rejected(self, batch):
        # numpy would wrap -1 to the last row and raise a bare IndexError for 4,
        # in one batch or in a (q, M) stack
        f = make_objective("ackley", 2)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 4, 2, RngPlan(5))
        with pytest.raises(ValueError, match=re.escape(f"batch {batch} ")):
            batch_consensus(e, f, 1.0, batch)
        cp = batch_consensus(e, f, 1.0, [0, 3])
        bp = BatchParams(batch_size=2, sigma_schedule=ConstantSchedule(0.5))
        with pytest.raises(ValueError, match=re.escape(f"batch {batch} ")):
            batch_update(e, cp, bp, batch, *drawn(e, batch, RngPlan(5)), lam=1.0, sigma=0.7,
                         k=0, theta=0)


def drawn(e, scope, plan):
    """The z a run draws for a batch update of `scope` at e's step, one row
    per scope index, and a scratch array of its shape."""
    shape = (np.size(scope), e.dimension)
    return plan.normal_block(STREAM_DIFFUSION, e.step_count, shape), np.empty(shape)


def gathered_update(e, v, scope, plan, lam, sigma, gamma):
    """Reference batch update: sort the scope, gather its rows, kick them
    with one noise row each, and scatter them into a copy of the positions."""
    scope = np.sort(scope)
    z = plan.normal_block(STREAM_DIFFUSION, e.step_count, (scope.size, e.dimension))
    x = e.positions[scope]
    diff = x - v
    new = e.positions.copy()
    new[scope] = x - lam * gamma * diff + sigma * np.sqrt(gamma) * diff * z
    return new


class TestBatchUpdate:
    def test_full_contraction_lands_on_consensus(self):
        f = make_objective("ackley", 2)
        e = init_ensemble(InitSpec("box", low=-3, high=3), 6, 2, RngPlan(7))
        cp = batch_consensus(e, f, 10.0, [0, 1, 2])
        bp = BatchParams(
            batch_size=3,
            gamma_schedule=ConstantSchedule(1.0),  # gamma = 1/lam
            sigma_schedule=ConstantSchedule(0.0),
        )
        out = batch_update(e, cp, bp, [0, 1, 2], *drawn(e, [0, 1, 2], RngPlan(7)), lam=1.0,
                           sigma=0.7, k=0, theta=0)
        assert np.allclose(out.positions[:3], np.tile(cp.v, (3, 1)), atol=1e-14)

    def test_partial_leaves_rest_bit_identical(self):
        f = make_objective("rastrigin", 4)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 10, 4, RngPlan(8))
        cp = batch_consensus(e, f, 5.0, [1, 5])
        bp = BatchParams(batch_size=2, sigma_schedule=ConstantSchedule(0.5))
        out = batch_update(e, cp, bp, [1, 5], *drawn(e, [1, 5], RngPlan(8)), lam=1.0,
                           sigma=0.7, k=0, theta=0)
        untouched = [i for i in range(10) if i not in (1, 5)]
        assert np.array_equal(out.positions[untouched], e.positions[untouched])
        assert not np.array_equal(out.positions[[1, 5]], e.positions[[1, 5]])

    def test_full_scope_reduces_to_step_anisotropic_bitwise(self):
        f = make_objective("ackley", 3)
        plan = RngPlan(9)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 8, 3, plan)
        p = VariantParams(lam=1.0, sigma=0.6, dt=0.05, alpha=12.0, variant="anisotropic")
        cp = weighted_mean(e, f, 12.0)
        stepped = step(e, f, p, plan.normal_block(STREAM_DIFFUSION, 0, (8, 3)), cp=cp)
        bp = BatchParams(
            batch_size=8,
            update_mode="full",
            gamma_schedule=ConstantSchedule(0.05),
            sigma_schedule=ConstantSchedule(0.6),
        )
        batched = batch_update(e, cp, bp, np.arange(8), *drawn(e, np.arange(8), plan), lam=1.0,
                               sigma=p.sigma, k=0, theta=0)
        assert np.array_equal(stepped.positions, batched.positions)
        assert batched.time == stepped.time

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
        gamma=st.floats(1e-4, 1.0),
        sigma=st.floats(0.0, 2.0),
        form=st.sampled_from(["sorted", "shuffled", "list"]),
        data=st.data(),
    )
    def test_full_scope_matches_gather_scatter_bitwise(self, n, d, seed, gamma, sigma, form, data):
        plan = RngPlan(seed)
        e = init_ensemble(InitSpec("box", low=-2, high=2), n, d, plan)
        cp = batch_consensus(e, make_objective("rastrigin", d), 10.0, np.arange(n))
        bp = BatchParams(
            batch_size=n,
            gamma_schedule=ConstantSchedule(gamma),
            sigma_schedule=ConstantSchedule(sigma),
        )
        rows = list(range(n))
        if form == "shuffled":
            rows = data.draw(st.permutations(rows))
        scope = rows if form == "list" else np.array(rows)
        out = batch_update(e, cp, bp, scope, *drawn(e, scope, plan), lam=1.3, sigma=0.7, k=0,
                           theta=0)
        expected = gathered_update(e, cp.v, np.array(rows), plan, 1.3, sigma, gamma)
        assert out.positions.tobytes() == expected.tobytes()
        assert out.time == e.time + gamma and out.step_count == e.step_count + 1

    def test_size_n_scope_with_repeated_index_keeps_the_last_write(self):
        plan = RngPlan(12)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 5, 3, plan)
        cp = batch_consensus(e, make_objective("ackley", 3), 5.0, [0, 1, 2])
        bp = BatchParams(batch_size=5, sigma_schedule=ConstantSchedule(0.8))
        scope = [4, 0, 2, 0, 3]  # N indices from 0 to N-1, row 0 twice, row 1 absent
        out = batch_update(e, cp, bp, scope, *drawn(e, scope, plan), lam=1.0, sigma=0.7, k=0,
                           theta=0)
        expected = gathered_update(e, cp.v, np.array(scope), plan, 1.0, 0.8, 0.01)
        assert out.positions.tobytes() == expected.tobytes()
        assert np.array_equal(out.positions[1], e.positions[1])
        # sorted scope [0, 0, 2, 3, 4]: row 0 is written with noise row 0, then row 1
        z = plan.normal_block(STREAM_DIFFUSION, e.step_count, (5, 3))
        diff = e.positions[0] - cp.v
        last = e.positions[0] - 1.0 * 0.01 * diff + 0.8 * np.sqrt(0.01) * diff * z[1]
        assert np.array_equal(out.positions[0], last)

    @pytest.mark.parametrize("scope", [[4, 1], range(6)], ids=["partial", "full"])
    def test_without_a_sigma_schedule_the_given_sigma_scales_the_noise(self, scope):
        plan = RngPlan(13)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 6, 3, plan)
        cp = batch_consensus(e, make_objective("ackley", 3), 5.0, [1, 4])
        bp = BatchParams(batch_size=2)  # sigma_schedule None
        out = batch_update(e, cp, bp, scope, *drawn(e, scope, plan), lam=1.0, sigma=0.9, k=0,
                           theta=0)
        expected = gathered_update(e, cp.v, np.array(scope), plan, 1.0, 0.9, 0.01)
        assert out.positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("schedule", ["constant", "geometric", "theta"])
    def test_a_stack_is_its_members_in_a_row_bitwise(self, schedule):
        # the built-in schedules give a stack one pair of scalar coefficients,
        # a callable gives each member its own
        gamma, sigma = {
            "constant": (ConstantSchedule(0.05), None),
            "geometric": (GeometricSchedule(0.2, 0.5), ConstantSchedule(0.4)),
            "theta": (lambda k, theta: 0.01 * (theta + 1), lambda k, theta: 0.3 * theta),
        }[schedule]
        bp = BatchParams(batch_size=2, gamma_schedule=gamma, sigma_schedule=sigma)
        plan, f = RngPlan(14), make_objective("ackley", 3)
        e = init_ensemble(InitSpec("box", low=-2, high=2), 7, 3, plan)
        stack = np.array([[5, 1], [0, 3], [6, 2]])
        cps = batch_consensus(e, f, 5.0, stack)
        z = np.stack([plan.normal_block(STREAM_DIFFUSION, j, (2, 3)) for j in range(3)])
        out = batch_update(e, cps, bp, stack, z, np.empty(z.shape), lam=1.0, sigma=0.7, k=2,
                           theta=1)
        one = e
        for j, rows in enumerate(stack):
            one = batch_update(one, cps[j], bp, rows, z[j], np.empty((2, 3)), lam=1.0,
                               sigma=0.7, k=2, theta=1 + j)
        assert out.positions.tobytes() == one.positions.tobytes()
        assert (out.time, out.step_count) == (one.time, one.step_count) and out.step_count == 3

    def test_clock_advances_by_gamma(self):
        f = make_objective("ackley", 2)
        e = init_ensemble(InitSpec("box"), 4, 2, RngPlan(10))
        cp = batch_consensus(e, f, 1.0, [0, 1])
        bp = BatchParams(
            batch_size=2,
            gamma_schedule=GeometricSchedule(initial=0.2, decay=0.5),
            sigma_schedule=ConstantSchedule(0.0),
        )
        out = batch_update(e, cp, bp, [0, 1], *drawn(e, [0, 1], RngPlan(10)), lam=1.0,
                           sigma=0.7, k=2, theta=0)
        assert out.time == pytest.approx(0.05)  # 0.2 * 0.5**2
        assert out.step_count == 1


class TestStopCheck:
    def test_identical_points(self):
        v = np.array([1.0, 2.0])
        assert stop_check(v, v, 2, 1e-300) is True

    def test_boundary_inclusive(self):
        assert stop_check(np.zeros(4), np.ones(4), 4, 1.0) is True  # |d|^2/d = 1

    def test_above_threshold(self):
        assert stop_check(np.zeros(1), np.ones(1), 1, 0.5) is False

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            stop_check(np.zeros(1), np.zeros(1), 1, 0.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 40),
        q=st.integers(2, 40),
        first=st.booleans(),
        scales=st.lists(st.sampled_from([0.0, 1e-150, 1e-8, 1e-4, 1.0, 1e8]), min_size=41,
                        max_size=41),
        at=st.integers(0, 39),
        near=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_group_stops_at_the_member_stop_check_stops_at(self, d, q, first, scales, at, near,
                                                             seed):
        # a group's q consensus points in step order, each moved from the one
        # before by its own scale (0.0: the same point); eps is one member's
        # mean squared move (as stop_check computes it), or the next float
        # below or above it, so the test is decided at its boundary
        rng = np.random.default_rng(seed)
        path = np.cumsum(rng.standard_normal((q + 1, d)) * np.array(scales[: q + 1])[:, None],
                         axis=0)
        v_prev, v = path[0], path[1:]
        delta = v[at % q] - path[at % q]
        eps = float(np.add.reduce(delta * delta, axis=None) / d)
        eps = max(np.nextafter(eps, (-math.inf, eps, math.inf)[near + 1]), 5e-324)
        prev, expected = (None if first else v_prev), (q, False)
        for n, point in enumerate(v, 1):  # batch by batch
            if prev is not None and stop_check(prev, point, d, eps):
                expected = (n, True)
                break
            prev = point
        # a run's first group passes a NaN point before it: no move
        before = np.full(d, math.nan) if first else v_prev
        assert first_stop(before, v, d, eps) == expected
        prev = before
        for point in v:  # a single point takes the rule of a one-point group
            assert first_stop(prev, point, d, eps) == (
                1, not math.isnan(prev[0]) and stop_check(prev, point, d, eps))
            prev = point


def test_direct_calls_reach_the_argument_guards():
    # guards that a config cannot reach, since its checks come first
    plan = RngPlan(0)
    with pytest.raises(ValueError, match="^batch size must be at least 1$"):
        make_batches(BatchState.fresh(), 4, 0, plan)
    e = Ensemble(np.zeros((4, 2)))
    v = weighted_mean(e, make_objective("ackley", 2), 1.0)
    # a schedule callable, which BatchParams cannot check ahead
    negative = BatchParams(batch_size=2, sigma_schedule=lambda k, theta: -1.0)
    with pytest.raises(ValueError, match="^sigma schedule must yield nonnegative noise scales$"):
        batch_update(e, v, negative, [0, 1], *drawn(e, [0, 1], plan), lam=1.0, sigma=0.7, k=0,
                     theta=0)


def test_partial_mode_variance_law():
    """Random-batch CBO (Carrillo, Jin, Li, Zhu, ESAIM: COCV 2021) in partial
    mode with alpha = 0, where a batch's consensus point is its mean, and N
    a multiple of M, so an epoch deals N/M disjoint batches. Let S be the sum
    of squared distances to the ensemble mean, 2N times the trajectory's
    variance. A batch B moves S by c W_B in expectation, where W_B is B's sum
    of squared distances to its own mean and
    c = -2 gamma lam + (gamma lam)^2 + sigma^2 gamma (N - 1)/N. Its rows still
    hold their positions from the epoch's start and are a uniform M-subset of
    them, so E[W_B] = (M - 1)/(N - 1) S and an epoch takes E[S] to rho E[S]
    with rho = 1 + (N/M) (M - 1)/(N - 1) c. A batch point that were the
    ensemble's mean would give M/N for (M - 1)/(N - 1): a rate 24% off here.

    The fitted log rate of the mean S over 300 runs was off by 0.3% to 3.8%
    at master seeds 1 to 10, and by 1.9% at the frozen seed 0; the tolerance
    is twice the worst of those."""
    n, m, d, lam, sigma, gamma, epochs, runs = 100, 5, 10, 1.0, 1.0, 0.05, 10, 300
    plan = RngPlan(0)
    config = RunConfig(
        objective="rastrigin", dimension=d,
        params=VariantParams(lam=lam, sigma=sigma, alpha=0.0, dt=gamma),
        batching=BatchParams(batch_size=m, gamma_schedule=ConstantSchedule(gamma)),
        n_particles=n, init=InitSpec("gaussian", mean=0.0, variance=1.0),
        max_steps=epochs * n // m, record_every=n // m,
    )
    spread = np.zeros(epochs + 1)
    for r in range(runs):
        result = run(replace(config, master_seed=plan.run_seed(r)))
        assert result.terminated_by == "max_steps"
        spread += [2 * n * point.variance for point in result.trajectory]
    fitted = np.polyfit(np.arange(epochs + 1), np.log(spread / runs), 1)[0]
    c = -2.0 * gamma * lam + (gamma * lam) ** 2 + sigma**2 * gamma * (n - 1) / n
    predicted = math.log(1.0 + (n / m) * (m - 1) / (n - 1) * c)
    assert abs(fitted / predicted - 1.0) <= 0.08
