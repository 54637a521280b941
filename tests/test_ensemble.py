"""Ensemble state, reproducible streams, and empirical moment tests."""

import copy
import pickle
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbopt import harness, objectives
from cbopt.dynamics import VariantParams
from cbopt.ensemble import (
    STREAM_DIFFUSION,
    DrawAhead,
    Ensemble,
    FieldError,
    InitSpec,
    RngPlan,
    init_ensemble,
    mean_pairwise_sq_dist,
    moments,
    positions_to_csv,
)

TOP = (1 << 64) - 1
U64 = st.integers(0, TOP)


def _draw(gen, kind, size):
    """One draw of odd length: `integers` leaves a buffered 32-bit half, the
    others leave the 64-bit block buffer part used."""
    if kind == "standard_normal":
        return gen.standard_normal(size)
    if kind == "uniform":
        return gen.uniform(-1.0, 2.0, size)
    if kind == "integers":
        return gen.integers(0, 1000, size)
    return gen.permutation(size)


DRAWS = st.lists(
    st.tuples(
        st.sampled_from(["standard_normal", "uniform", "integers", "permutation"]),
        st.sampled_from([1, 3, 5, 7]),
    ),
    max_size=6,
)
INTERLEAVED = [("integers", 3), ("standard_normal", 5), ("permutation", 7), ("uniform", 1)]


class TestRngPlan:
    def test_same_seed_bit_identical(self):
        a = RngPlan(123).normal_block(1, 5, (100, 3))
        b = RngPlan(123).normal_block(1, 5, (100, 3))
        assert np.array_equal(a, b)

    def test_draws_independent_of_evaluation_order(self):
        plan = RngPlan(9)
        late_first = plan.normal_block(1, 10, (4, 4))
        early = plan.normal_block(1, 0, (4, 4))
        late_again = plan.normal_block(1, 10, (4, 4))
        assert np.array_equal(late_first, late_again)
        assert not np.array_equal(early, late_first)

    def test_streams_distinct(self):
        plan = RngPlan(9)
        assert not np.array_equal(plan.normal_block(0, 3, 8), plan.normal_block(1, 3, 8))
        assert not np.array_equal(plan.normal_block(0, 3, 8), plan.normal_block(0, 4, 8))

    def test_run_seed_derivation(self):
        plan = RngPlan(77)
        seeds = [plan.run_seed(r) for r in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [RngPlan(77).run_seed(r) for r in range(50)]

    @settings(max_examples=60, deadline=None)
    @given(seed=U64, blocks=st.lists(st.tuples(U64, U64, DRAWS), min_size=1, max_size=5))
    @example(seed=0, blocks=[(1, 0, INTERLEAVED), (1, 1, INTERLEAVED), (0, 0, INTERLEAVED)])
    @example(seed=TOP, blocks=[(2, 7, INTERLEAVED), (TOP, TOP, INTERLEAVED)])
    def test_repositioned_generator_matches_fresh_bitwise(self, seed, blocks):
        # the counter goes in as uint64: numpy reads a list holding a word of
        # 2**63 or more through float64, which rounds it (2**64 - 1 -> 0)
        plan = RngPlan(seed)
        for stream, step, draws in blocks:
            gen = plan.generator(stream, step)
            counter = np.array([0, 0, step, stream], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=counter))
            for kind, size in draws:
                assert np.array_equal(_draw(gen, kind, size), _draw(fresh, kind, size))

    def test_small_counters_match_the_list_form(self):
        for stream, step in [(0, 0), (1, 7), (2, (1 << 63) - 1)]:
            fresh = np.random.Generator(np.random.Philox(key=9, counter=[0, 0, step, stream]))
            assert np.array_equal(
                RngPlan(9).normal_block(stream, step, 5), fresh.standard_normal(5)
            )

    def test_top_counter_words_address_their_own_blocks(self):
        plan = RngPlan(9)
        assert not np.array_equal(plan.normal_block(TOP, TOP, 5), plan.normal_block(0, 0, 5))

    def test_run_builds_one_philox(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        config = harness.RunConfig(
            objective="rastrigin",
            dimension=3,
            params=VariantParams(lam=1.0, sigma=0.7, alpha=10.0, dt=0.01, variant="anisotropic"),
            n_particles=8,
            max_steps=50,
            master_seed=3,
        )
        assert harness.run(config).steps == 50
        assert len(built) <= 1

    def test_used_plan_compares_hashes_and_pickles_like_a_fresh_one(self):
        plan, fresh = RngPlan(41), RngPlan(41)
        first = plan.normal_block(1, 3, (3, 3))
        assert plan == fresh and hash(plan) == hash(fresh) and repr(plan) == repr(fresh)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and hash(clone) == hash(plan) and repr(clone) == repr(plan)
        assert np.array_equal(clone.normal_block(1, 3, (3, 3)), first)
        assert np.array_equal(clone.normal_block(2, 8, 5), fresh.normal_block(2, 8, 5))
        assert np.array_equal(plan.normal_block(2, 8, 5), fresh.normal_block(2, 8, 5))
        assert copy.copy(plan).generator(0, 0) is not plan.generator(0, 0)

    def test_seed_bounds(self):
        RngPlan(0)
        RngPlan((1 << 64) - 1)
        with pytest.raises(ValueError):
            RngPlan(-1)
        with pytest.raises(ValueError):
            RngPlan(1 << 64)


class TestDrawAhead:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_are_normal_blocks_drawn_ahead_on_two_cpus(self, threads, monkeypatch):
        monkeypatch.setattr(objectives, "_THREADS", threads)
        monkeypatch.setattr(objectives, "SHARD_MIN_ELEMENTS", 12)
        fresh = RngPlan(17)
        with DrawAhead(RngPlan(17), STREAM_DIFFUSION, (3, 4), end=5) as noise:
            assert noise.ahead == (threads == 2)
            # a step that is not the pending one is drawn inline
            for step in (0, 1, 2, 4, 3, 4):
                z = noise.block(step)
                assert (noise.pending is not None) == (threads == 2 and step + 1 < 5)
                if noise.pending is not None:  # the next block goes into the other buffer
                    noise.pending[1].result()
                assert z.tobytes() == fresh.normal_block(STREAM_DIFFUSION, step, (3, 4)).tobytes()
            noise.block(0)
        assert noise.pending is None  # leaving the block waits for the pending draw
        assert len(noise.buffers) == (2 if threads == 2 else 1)

    def test_a_block_below_the_shard_size_is_drawn_inline(self, monkeypatch):
        monkeypatch.setattr(objectives, "_THREADS", 2)
        monkeypatch.setattr(objectives, "SHARD_MIN_ELEMENTS", 13)
        assert not DrawAhead(RngPlan(17), STREAM_DIFFUSION, (3, 4), end=5).ahead


class TestInitEnsemble:
    def test_degenerate_box_collapses_to_point(self):
        e = init_ensemble(InitSpec("box", low=0.0, high=0.0), 20, 3, RngPlan(1))
        assert np.array_equal(e.positions, np.zeros((20, 3)))
        assert e.time == 0.0 and e.step_count == 0

    def test_box_bounds_respected(self):
        e = init_ensemble(InitSpec("box", low=-2.0, high=5.0), 1000, 4, RngPlan(2))
        assert e.positions.min() >= -2.0 and e.positions.max() <= 5.0

    def test_gaussian_clt_mean(self):
        n = 100_000
        e = init_ensemble(InitSpec("gaussian", mean=0.0, variance=1.0), n, 1, RngPlan(3))
        assert abs(e.positions.mean()) <= 3.0 / np.sqrt(n)

    def test_gaussian_mean_vector(self):
        e = init_ensemble(InitSpec("gaussian", mean=(1.0, -2.0), variance=0.25), 50_000, 2, RngPlan(4))
        assert np.allclose(e.positions.mean(axis=0), [1.0, -2.0], atol=0.02)

    def test_sphere_rows_unit_norm(self):
        e = init_ensemble(InitSpec("sphere"), 100, 3, RngPlan(5))
        norms = np.linalg.norm(e.positions, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_degenerate_sphere_draw_raises_without_warning(self):
        # a normal draw of an exact zero row has probability 0: a stubbed plan makes one
        draw = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 0.0]])

        class ZeroRowPlan:
            def generator(self, stream, step):
                return types.SimpleNamespace(standard_normal=lambda shape: draw)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^degenerate sphere draw$"):
                init_ensemble(InitSpec("sphere"), 2, 3, ZeroRowPlan())

    def test_determinism(self):
        a = init_ensemble(InitSpec("box", low=-1, high=1), 64, 6, RngPlan(42))
        b = init_ensemble(InitSpec("box", low=-1, high=1), 64, 6, RngPlan(42))
        assert np.array_equal(a.positions, b.positions)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            InitSpec("box", low=1.0, high=0.0)
        with pytest.raises(ValueError):
            InitSpec("gaussian", variance=0.0)
        with pytest.raises(ValueError):
            InitSpec("triangle")
        with pytest.raises(ValueError):
            init_ensemble(InitSpec("box"), 0, 3, RngPlan(0))

    def test_box_wider_than_the_float_range_names_high(self):
        with pytest.raises(FieldError) as err:
            InitSpec("box", low=-1.0e308, high=1.0e308)  # high - low overflows to inf
        assert err.value.field == "high"
        e = init_ensemble(InitSpec("box", low=-8.0e307, high=8.0e307), 50, 2, RngPlan(6))
        assert np.isfinite(e.positions).all() and np.abs(e.positions).max() <= 8.0e307


class TestEnsembleType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            Ensemble(np.zeros(5))

    def test_finite_validation(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            Ensemble(bad)

    def test_properties(self):
        e = Ensemble(np.zeros((7, 4)))
        assert e.n_particles == 7 and e.dimension == 4


class TestMoments:
    def test_coincident_particles(self):
        p = np.array([1.5, -2.0, 0.25])
        e = Ensemble(np.tile(p, (9, 1)))
        mean, variance = moments(e)
        assert np.allclose(mean, p) and variance == 0.0

    def test_two_particles_plus_minus_one(self):
        e = Ensemble(np.array([[1.0], [-1.0]]))
        mean, variance = moments(e)
        assert mean[0] == 0.0
        assert variance == pytest.approx(0.5)  # (1/(2N)) * (1 + 1)

    def test_single_particle(self):
        e = Ensemble(np.array([[3.0, 4.0]]))
        mean, variance = moments(e)
        assert np.array_equal(mean, [3.0, 4.0]) and variance == 0.0

    def test_translation_rule(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(40, 3))
        shift = np.array([5.0, -2.0, 0.5])
        mean_a, var_a = moments(Ensemble(pos))
        mean_b, var_b = moments(Ensemble(pos + shift))
        assert np.allclose(mean_b, mean_a + shift, atol=1e-12)
        assert var_b == pytest.approx(var_a, abs=1e-12)

    def test_zero_variance_iff_identical(self):
        rng = np.random.default_rng(12)
        pos = rng.normal(size=(10, 2))
        assert moments(Ensemble(pos))[1] > 0.0
        assert moments(Ensemble(np.tile(pos[0], (10, 1))))[1] == 0.0


class TestPairwiseDistance:
    def test_examples(self):
        assert mean_pairwise_sq_dist(np.ones((5, 2))) == pytest.approx(0.0, abs=1e-14)
        assert mean_pairwise_sq_dist(np.array([[0.0], [3.0]])) == pytest.approx(9.0)
        three = np.array([[0.0], [1.0], [2.0]])
        assert mean_pairwise_sq_dist(three) == pytest.approx(2.0)  # (1+4+1)/3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        pos = rng.normal(size=(25, 4))
        total = 0.0
        count = 0
        for i in range(25):
            for j in range(i + 1, 25):
                total += float(np.sum((pos[i] - pos[j]) ** 2))
                count += 1
        assert mean_pairwise_sq_dist(pos) == pytest.approx(total / count, rel=1e-12)

    def test_stack_matches_each_ensemble_bitwise(self):
        stack = np.random.default_rng(15).normal(size=(3, 2, 7, 4))
        spread = mean_pairwise_sq_dist(stack)
        assert spread.shape == (3, 2)
        for index in np.ndindex(3, 2):
            assert spread[index] == mean_pairwise_sq_dist(stack[index])

    def test_needs_two_particles(self):
        with pytest.raises(ValueError):
            mean_pairwise_sq_dist(np.zeros((1, 3)))


class TestCsvRoundTrip:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(14)
        e = Ensemble(rng.normal(size=(12, 3)))
        text = positions_to_csv(e)
        header, *rows = text.splitlines()
        assert header == "x0,x1,x2"
        assert np.array_equal([[float(v) for v in row.split(",")] for row in rows], e.positions)
