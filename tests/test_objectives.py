"""Benchmark objective tests: independent scalar oracles, origin values,
nonnegativity on the search boxes, multimodality, and chunked evaluation
and its scheduling on the helper pool."""

import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbopt import InitSpec, RunConfig, VariantParams, objectives
from cbopt.ensemble import STREAM_DIFFUSION, DrawAhead, RngPlan
from cbopt.harness import run
from cbopt.objectives import (
    ObjectiveFunction,
    ackley,
    benchmark_names,
    griewank,
    make_objective,
    rastrigin,
    wavy,
    zakharov,
)

ALL = [ackley, rastrigin, griewank, zakharov, wavy]


def scalar_ackley(xs):
    d = len(xs)
    rms = math.sqrt(sum(x * x for x in xs) / d)
    cos_mean = sum(math.cos(2 * math.pi * x) for x in xs) / d
    return -20 * math.exp(-0.2 * rms) - math.exp(cos_mean) + 20 + math.e


def scalar_rastrigin(xs):
    return sum(x * x - 10 * math.cos(2 * math.pi * x) + 10 for x in xs)


def scalar_griewank(xs):
    prod = 1.0
    for i, x in enumerate(xs, start=1):
        prod *= math.cos(x / math.sqrt(i))
    return 1.0 + sum(x * x for x in xs) / 4000.0 - prod


def scalar_zakharov(xs):
    lin = sum(0.5 * i * x for i, x in enumerate(xs, start=1))
    return sum(x * x for x in xs) + lin**2 + lin**4


def scalar_wavy(xs):
    return 1.0 - sum(math.cos(10 * x) * math.exp(-0.5 * x * x) for x in xs) / len(xs)


ORACLES = {
    ackley: scalar_ackley,
    rastrigin: scalar_rastrigin,
    griewank: scalar_griewank,
    zakharov: scalar_zakharov,
    wavy: scalar_wavy,
}


class TestPointValues:
    def test_origin_is_zero_for_all(self):
        for fn in ALL:
            for d in (1, 2, 20):
                assert abs(fn(np.zeros(d))) <= 1e-12, fn.__name__

    def test_ackley_at_ones(self):
        expected = 20.0 - 20.0 * math.exp(-0.2)  # cosine terms cancel at integers
        assert ackley(np.array([1.0, 1.0])) == pytest.approx(expected, abs=1e-12)

    def test_rastrigin_at_ones(self):
        assert rastrigin(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_griewank_at_pi_multiples(self):
        x = np.array([math.pi, math.pi * math.sqrt(2)])
        expected = 3.0 * math.pi**2 / 4000.0  # both cosines hit -1
        assert griewank(x) == pytest.approx(expected, abs=1e-12)

    def test_against_scalar_oracles(self):
        rng = np.random.default_rng(101)
        for fn, oracle in ORACLES.items():
            for _ in range(50):
                d = int(rng.integers(1, 8))
                x = rng.uniform(-4.0, 4.0, d)
                assert fn(x) == pytest.approx(oracle(list(x)), rel=1e-12, abs=1e-12)

    def test_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, size=(40, 6))
        for fn in ALL:
            batch = fn(pts)
            assert batch.shape == (40,)
            for row, val in zip(pts, batch):
                assert fn(row) == pytest.approx(val, rel=1e-14)

    def test_empty_vector_rejected(self):
        for fn in ALL:
            with pytest.raises(ValueError):
                fn(np.zeros(0))


# the box each benchmark is customarily searched on
BENCHMARK_BOXES = {
    "ackley": (-32.768, 32.768),
    "rastrigin": (-5.12, 5.12),
    "griewank": (-600.0, 600.0),
    "zakharov": (-5.0, 10.0),
    "wavy": (-np.pi, np.pi),
}


class TestInvariants:
    def test_nonnegative_on_benchmark_boxes(self):
        rng = np.random.default_rng(2)
        assert sorted(BENCHMARK_BOXES) == benchmark_names()
        for name in benchmark_names():
            obj, (lo, hi) = make_objective(name, 4), BENCHMARK_BOXES[name]
            pts = rng.uniform(lo, hi, size=(10_000, 4))
            assert np.all(obj(pts) >= -1e-12), name

    def test_minimum_zero_at_origin(self):
        for name in benchmark_names():
            assert abs(make_objective(name, 3)(np.zeros(3))) <= 1e-12, name

    @pytest.mark.parametrize("fn", [ackley, rastrigin])
    def test_at_least_three_local_minima_on_axis(self, fn):
        # grid scan of t -> f(t, 0) over [-5, 5]; strict interior minima
        t = np.linspace(-5.0, 5.0, 4001)
        pts = np.column_stack([t, np.zeros_like(t)])
        vals = fn(pts)
        interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
        assert int(interior.sum()) >= 3


class TestObjectiveFunction:
    def test_registry_names(self):
        assert benchmark_names() == ["ackley", "griewank", "rastrigin", "wavy", "zakharov"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown objective"):
            make_objective("sphere", 2)

    def test_dimension_checked(self):
        obj = make_objective("ackley", 3)
        with pytest.raises(ValueError, match="dimension"):
            obj(np.zeros(4))

    def test_deterministic(self):
        obj = make_objective("wavy", 5)
        x = np.linspace(-1, 1, 5)
        assert obj(x) == obj(x)

    def test_custom_objective(self):
        quad = ObjectiveFunction("quad", lambda x: np.sum(x**2, axis=-1), dimension=2)
        assert quad(np.array([3.0, 4.0])) == pytest.approx(25.0)


def laplace_quadratic(x):
    # the quadratic `cbopt diagnose laplace` evaluates
    return np.sum(np.asarray(x, float) ** 2, axis=-1)


def methods_ackley(x):
    rms = np.sqrt((x * x).mean(axis=-1))
    cos_mean = np.cos(2.0 * np.pi * x).mean(axis=-1)
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e


def methods_griewank(x):
    idx = np.arange(1, x.shape[-1] + 1, dtype=float)
    return 1.0 + (x * x).sum(axis=-1) / 4000.0 - np.cos(x / np.sqrt(idx)).prod(axis=-1)


def methods_zakharov(x):
    lin = (0.5 * np.arange(1, x.shape[-1] + 1, dtype=float) * x).sum(axis=-1)
    return (x * x).sum(axis=-1) + np.square(lin) + np.power(lin, 4.0)  # as for a stack


# each benchmark written with the ndarray methods .sum, .mean and .prod
METHODS = {
    ackley: methods_ackley,
    rastrigin: lambda x: (x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0).sum(axis=-1),
    griewank: methods_griewank,
    zakharov: methods_zakharov,
    wavy: lambda x: 1.0 - (np.cos(10.0 * x) * np.exp(-0.5 * x * x)).mean(axis=-1),
}


class TestUfuncReductions:
    @settings(max_examples=200, deadline=None)
    @given(
        fn=st.sampled_from(ALL),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 30), st.integers(1, 7)),
        scale=st.sampled_from([0.01, 1.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_the_ndarray_methods_bitwise(self, fn, shape, scale, seed):
        # a sum divided by d and a sum of the quotients differ in a few
        # points in a hundred, so draw many points of distinct values
        x = np.random.default_rng(seed).uniform(-scale, scale, shape)
        for points in (x, x[0], x[0, 0]):  # (R, N, d), (N, d) and (d,)
            got, want = fn(points), METHODS[fn](points)
            assert np.shape(got) == np.shape(want) == points.shape[:-1]
            assert got.tobytes() == want.tobytes()


def assert_stacked_rows(f, a, b):
    """f on the stack [a; b] gives f(a) and f(b) side by side, and f at a's
    first point the first value of f(a[:1]), byte for byte."""
    both = f(np.concatenate((a, b)))
    assert both.dtype == np.float64 and both.shape == (len(a) + len(b),)
    assert both.tobytes() == np.concatenate((f(a), f(b))).tobytes()
    one = f(a[0])
    assert type(one) is np.float64
    assert one.tobytes() == f(a[:1])[0].tobytes()


class TestStackedRows:
    """A personal_best step evaluates the positions and the memory in one
    call on their stack, and a run evaluates a consensus point as one more
    row of its next call; every benchmark maps stacked rows, and one point as
    a row, bit for bit, on the chunked path too."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(benchmark_names()),
        d=st.integers(1, 12),
        rows=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        scale=st.sampled_from([0.01, 1.0, 40.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_maps_rows_as_its_parts(self, name, d, rows, scale, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.uniform(-scale, scale, (k, d)) for k in rows)
        assert_stacked_rows(make_objective(name, d), a, b)

    def test_zakharov_squares_one_point_as_its_row(self):
        # C's pow gave 4151.748031868719 for `lin**2` of this point's numpy
        # float, where np.square on the stack gives 4151.7480318687185
        a = np.array([[-0.6301398920414707, -2.668231905849949, -3.33575696849828]])
        assert_stacked_rows(make_objective("zakharov", 3), a, -a)
        assert make_objective("zakharov", 3)(a[0]) == 4151.7480318687185

    @pytest.mark.parametrize("name", benchmark_names())
    def test_chunked_stack_maps_rows_as_its_parts(self, name):
        # 4801 rows of 7: past SHARD_MIN_ELEMENTS, with a chunk edge inside b
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-3.0, 3.0, (2400, 7)), rng.uniform(-3.0, 3.0, (2401, 7))
        assert a.size < objectives.SHARD_MIN_ELEMENTS < a.size + b.size
        assert_stacked_rows(make_objective(name, 7), a, b)


class TestShardedEvaluation:
    """A stack of more than SHARD_MIN_ELEMENTS numbers is evaluated in row
    chunks, on threads too; the values must be the whole call's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        fn=st.sampled_from(ALL + [laplace_quadratic]),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 6))
        | st.tuples(st.integers(1, 11), st.integers(1, 6)),
        threads=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shards_match_whole_bitwise(self, fn, shape, threads, seed):
        x = np.random.default_rng(seed).uniform(-5.0, 5.0, shape)
        obj = ObjectiveFunction(fn.__name__, fn, dimension=shape[-1])
        whole = obj(x)
        with mock.patch.multiple(objectives, SHARD_MIN_ELEMENTS=1, _THREADS=threads):
            sharded = obj(x)
        assert sharded.shape == whole.shape == shape[:-1]
        assert sharded.tobytes() == whole.tobytes()

    def test_one_point_of_many_coordinates_is_evaluated_whole(self):
        x = np.full(objectives.SHARD_MIN_ELEMENTS + 1, 0.5)
        assert make_objective("rastrigin", x.size)(x) == rastrigin(x)

    def test_shards_keep_the_callers_errstate(self):
        # numpy's error state is per thread; the overflowing row is in the last shard
        x = np.ones((6, 3))
        x[-1] = 1e100
        obj = make_objective("zakharov", 3)
        with mock.patch.multiple(objectives, SHARD_MIN_ELEMENTS=1, _THREADS=3):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                obj(x)

    def test_large_run_matches_whole_bitwise(self, monkeypatch):
        # two steps of the benchmark's N=2000, d=50 ensemble, sharded and forced whole
        config = RunConfig(
            objective="ackley",
            dimension=50,
            params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
            n_particles=2000,
            init=InitSpec("box", low=-3.0, high=3.0),
            max_steps=2,
            master_seed=711,
        )
        assert 2000 * 50 >= objectives.SHARD_MIN_ELEMENTS
        monkeypatch.setattr(objectives, "_THREADS", max(objectives._THREADS, 2))
        sharded = run(config)
        monkeypatch.setattr(objectives, "SHARD_MIN_ELEMENTS", 2**62)
        whole = run(config)
        assert sharded.steps == whole.steps == 2
        assert sharded.final_consensus.v.tobytes() == whole.final_consensus.v.tobytes()
        assert sharded.final_positions.tobytes() == whole.final_positions.tobytes()

    def test_forked_campaign_workers_finish_and_match_in_process(self):
        # the parent's pool has live threads before the fork; a worker must
        # neither use that pool nor hang, and workers=2 must equal workers=1
        script = textwrap.dedent("""
            import numpy as np
            from cbopt import InitSpec, RunConfig, VariantParams, objectives
            from cbopt.harness import run_campaign
            objectives._THREADS = max(objectives._THREADS, 2)
            f = objectives.make_objective("ackley", 40)
            f(np.ones((1000, 40)))  # starts the parent's shard pool
            config = RunConfig(
                objective="ackley", dimension=40,
                params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
                n_particles=1000, init=InitSpec("box", low=-3.0, high=3.0),
                max_steps=3, master_seed=5,
            )
            assert 1000 * 40 >= objectives.SHARD_MIN_ELEMENTS
            forked = run_campaign(config, 2, workers=2)
            local = run_campaign(config, 2, workers=1)
            for a, b in zip(forked, local):
                assert a.final_consensus.v.tobytes() == b.final_consensus.v.tobytes()
                assert a.final_positions.tobytes() == b.final_positions.tobytes()
            print("ok")
        """)
        assert run_in_own_session(script) == "ok"

    def test_forked_campaign_after_a_draw_ahead_run_matches_in_process(self):
        # a run that drew its noise ahead on the parent's helper pool, then
        # campaign workers forked from that parent, which draw inline
        script = textwrap.dedent("""
            from cbopt import InitSpec, RunConfig, VariantParams, objectives
            from cbopt.ensemble import DrawAhead, RngPlan
            from cbopt.harness import run, run_campaign
            objectives._THREADS = max(objectives._THREADS, 2)
            config = RunConfig(
                objective="ackley", dimension=32,
                params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
                n_particles=1024, init=InitSpec("box", low=-3.0, high=3.0),
                max_steps=3, master_seed=5,
            )
            assert DrawAhead(RngPlan(5), 1, (1024, 32), 3).ahead
            run(config)
            forked = run_campaign(config, 2, workers=2)
            local = run_campaign(config, 2, workers=1)
            for a, b in zip(forked, local):
                assert a.final_consensus.v.tobytes() == b.final_consensus.v.tobytes()
                assert a.final_positions.tobytes() == b.final_positions.tobytes()
            print("ok")
        """)
        assert run_in_own_session(script) == "ok"

    def test_import_starts_no_thread(self):
        script = "import threading, cbopt; print(threading.active_count())"
        assert run_in_own_session(script) == "1"

    def test_campaign_workers_never_thread(self):
        # the rule imports no multiprocessing to tell; a pool's child is a worker
        script = textwrap.dedent("""
            import sys
            from cbopt import objectives
            objectives._THREADS = max(objectives._THREADS, 2)
            alone = objectives.threaded(2**20)
            assert "multiprocessing" not in sys.modules
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(1) as pool:
                worker = pool.submit(objectives.threaded, 2**20).result()
            print(alone, objectives.threaded(2**20), worker)
        """)
        assert run_in_own_session(script) == "True True False"

    def test_runs_that_neither_fork_nor_thread_import_no_pool(self):
        # a new interpreter, since pytest has loaded some of these modules
        script = textwrap.dedent("""
            import sys
            from dataclasses import replace
            from cbopt import BatchParams, InitSpec, RunConfig, VariantParams
            from cbopt.harness import run, run_campaign
            config = RunConfig(
                objective="rastrigin", dimension=3,
                params=VariantParams(lam=1.0, sigma=0.7, alpha=30.0, dt=0.01),
                n_particles=20, init=InitSpec("box", low=-3.0, high=3.0),
                max_steps=20, master_seed=5,
            )
            run(config)
            for mode in ("partial", "full"):
                run(replace(config, batching=BatchParams(batch_size=7, update_mode=mode)))
            run_campaign(config, 2, workers=1)
            print(sorted({"numpy.ma", "multiprocessing", "concurrent.futures.process",
                          "concurrent.futures.thread"} & set(sys.modules)))
        """)
        assert run_in_own_session(script) == "[]"


class TestChunkScheduling:
    """The chunks of a large call go to the caller and to one helper task per
    spare CPU, on the pool a pending draw shares: the call cancels a helper
    queued behind that draw instead of waiting, and leaves none running."""

    @pytest.fixture
    def tasks(self, monkeypatch):
        """Two usable CPUs and a pool of their own, with one thread; records
        every task, and holds each draw until the returned event is set (or
        10 s pass), so that the draw is pending for as long as a test needs."""
        monkeypatch.setattr(objectives, "_THREADS", 2)
        monkeypatch.setattr(objectives, "_pool", (None, None))
        executor, tasks, release = objectives.executor, [], threading.Event()

        def held(fn, *args, **kwargs):
            release.wait(10)
            return fn(*args, **kwargs)

        class Pool:
            def submit(self, fn, *args, **kwargs):
                if getattr(fn, "__name__", "") == "standard_normal":
                    args, fn = (fn, *args), held
                tasks.append(executor().submit(fn, *args, **kwargs))
                return tasks[-1]

        monkeypatch.setattr(objectives, "executor", Pool)
        yield tasks, release
        release.set()
        executor().shutdown()

    @staticmethod
    def points():
        return np.random.default_rng(3).uniform(-3.0, 3.0, (2000, 50))

    def test_a_call_does_not_wait_for_a_helper_queued_behind_a_draw(self, tasks):
        tasks, release = tasks
        x, f = self.points(), make_objective("ackley", 50)
        noise = DrawAhead(RngPlan(5), STREAM_DIFFUSION, (1024, 32), end=2)
        try:
            noise.block(0)  # starts block 1 on the pool's one thread, where it is held
            (draw,) = tasks
            values = f(x)
            pending, helpers = not draw.done(), tasks[1:]
            assert helpers and all(helper.cancelled() for helper in helpers)
        finally:
            release.set()
            noise.close()
        assert pending  # the call returned before the draw ended
        assert values.tobytes() == ackley(x).tobytes()

    @pytest.mark.parametrize("shape", [(2000, 50), (3, 700, 50)])
    def test_helpers_take_chunks_and_none_runs_on(self, tasks, shape):
        tasks, _ = tasks
        x, calls = np.random.default_rng(4).uniform(-3.0, 3.0, shape), []
        caller, helped = threading.get_ident(), threading.Event()

        def recorded(points):
            calls.append((threading.get_ident(), points.shape))
            if threading.get_ident() == caller:
                helped.wait(5)  # holds the caller's first chunk until a helper has one
            else:
                helped.set()
            return ackley(points)

        values = ObjectiveFunction("ackley", recorded, 50)(x)
        assert tasks and all(task.done() for task in tasks)
        assert values.tobytes() == ackley(x).tobytes()
        assert len({thread for thread, _ in calls}) == 2
        assert sum(shape[0] for _, shape in calls) == len(x)
        # at most SHARD_MIN_ELEMENTS numbers a chunk, or one row of more
        assert all(math.prod(shape) <= objectives.SHARD_MIN_ELEMENTS or shape[0] == 1
                   for _, shape in calls)

    def test_a_helper_chunk_error_is_raised_by_the_call(self, tasks):
        tasks, _ = tasks
        caller, helped = threading.get_ident(), threading.Event()

        def failing(points):
            if threading.get_ident() != caller:
                helped.set()
                raise RuntimeError("helper chunk failed")
            helped.wait(5)  # leaves a chunk to the helper
            return ackley(points)

        with pytest.raises(RuntimeError, match="helper chunk failed"):
            ObjectiveFunction("failing", failing, 50)(self.points())
        assert tasks and all(task.done() for task in tasks)

    def test_a_stack_of_one_chunk_goes_to_fn_whole(self, tasks):
        tasks, _ = tasks
        x, calls = np.ones((1024, 32)), []  # SHARD_MIN_ELEMENTS numbers
        ObjectiveFunction("ackley", lambda points: calls.append(points) or ackley(points), 32)(x)
        assert len(calls) == 1 and calls[0] is x and not tasks

    def test_a_call_keeps_no_reference_to_its_input(self, tasks):
        # a helper cancelled behind a busy thread stays queued until that thread is free
        _, release = tasks
        objectives.executor().submit(release.wait, 10)
        x = self.points()
        kept = weakref.ref(x)
        make_objective("ackley", 50)(x)
        del x
        assert kept() is None

    def test_every_chunk_is_taken_once_under_contention(self, monkeypatch):
        # more threads than CPUs and a short switch interval: a chunk taken
        # twice or never would change the calls or the values
        monkeypatch.setattr(objectives, "_THREADS", 4)
        monkeypatch.setattr(objectives, "_pool", (None, None))
        monkeypatch.setattr(objectives, "SHARD_MIN_ELEMENTS", 50)  # 200 chunks of 10 rows
        x, calls = np.random.default_rng(6).uniform(-3.0, 3.0, (2000, 5)), []
        obj = ObjectiveFunction("ackley", lambda points: calls.append(len(points)) or ackley(points), 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                calls.clear()
                assert obj(x).tobytes() == ackley(x).tobytes()
                assert calls == [10] * 200
        finally:
            sys.setswitchinterval(interval)
            objectives.executor().shutdown()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_pool_has_one_thread_per_spare_cpu(self, threads, monkeypatch):
        monkeypatch.setattr(objectives, "_THREADS", threads)
        monkeypatch.setattr(objectives, "_pool", (None, None))
        pool = objectives.executor()
        try:
            assert pool._max_workers == max(1, threads - 1)
        finally:
            pool.shutdown()


def run_in_own_session(script, timeout=120):
    """Stdout of `script` run by a new interpreter in a session of its own,
    killed with every process it started if it has not ended in `timeout` s."""
    src = str(Path(objectives.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # hung campaign workers too
        child.communicate()
        pytest.fail(f"the script did not finish in {timeout} s")
    assert child.returncode == 0, err
    return out.strip()


def test_objective_function_needs_a_dimension():
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        ObjectiveFunction("zero", lambda x: np.zeros(np.shape(x)[:-1]), 0)


class TestOneConversion:
    """ObjectiveFunction converts the points and the values once: points that
    are not float64 arrays give what their float64 copies give, bit for bit,
    and a function's values come back as float64, a numpy float for one point."""

    POINTS = [[1, -2, 3], [0, 1, 2]]

    @pytest.mark.parametrize("name", benchmark_names())
    def test_points(self, name):
        f = make_objective(name, 3)
        as_float32 = np.array(self.POINTS, dtype=np.float32) / 3
        for x in (self.POINTS, np.array(self.POINTS), as_float32, self.POINTS[0]):
            got, want = f(x), f(np.asarray(x, dtype=float))
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.float64
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            # the benchmark called directly converts them too
            direct = np.asarray(getattr(objectives, name)(x))
            assert direct.dtype == np.float64 and direct.tobytes() == np.asarray(want).tobytes()
        assert type(f(self.POINTS[0])) is np.float64

    def test_fn_takes_float64_arrays(self):
        # a float64 ndarray passes as it is; any other points, a big-endian
        # float64 array among them, reach fn converted
        seen = []

        def fn(x):
            seen.append((type(x), x.dtype))
            return np.zeros(x.shape[:-1])

        f = ObjectiveFunction("seen", fn, 3)
        floats = np.array(self.POINTS, dtype=float)
        for x in (self.POINTS, np.array(self.POINTS), floats.astype(np.float32),
                  floats.astype(">f8"), floats):
            f(x)
        assert seen == [(np.ndarray, np.dtype(np.float64))] * 5

    @pytest.mark.parametrize("values", [
        lambda x: np.sum(x > 0.0, axis=-1),
        lambda x: np.sum(x, axis=-1).tolist(),
        lambda x: np.sum(x, axis=-1).astype(np.float32),
    ], ids=["int", "list", "float32"])
    def test_values(self, values):
        f = ObjectiveFunction("values", values, 3)
        x = np.array(self.POINTS, dtype=float)
        got = f(x)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == np.asarray(values(x), dtype=float).tobytes()
        one = f(x[0])
        assert type(one) is np.float64 and one == float(np.asarray(values(x[0])))
