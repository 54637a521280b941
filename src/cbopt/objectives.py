"""Benchmark objectives for derivative-free global optimization.

All five benchmarks are minimization problems with value 0 at the origin
and nonnegative values everywhere. Each function accepts a single point of
shape ``(d,)`` or a stack of points of shape ``(..., d)`` and reduces over
the trailing axis, so ensembles can be evaluated in one vectorized call.
Sums, means and products call the ufunc reductions the ndarray methods wrap.
Each call writes its elementwise steps, in the formula's order, through ufunc
``out=`` into one or two arrays of its own, never into a run's scratch
array, so calls from several threads share nothing. A constant that
multiplies or offsets the points is a read-only 0-d float64 array, which a
ufunc takes as an operand faster than a Python float, with the same bits.

An ``ObjectiveFunction`` evaluates a stack of more than ``SHARD_MIN_ELEMENTS``
numbers in row chunks of at most that many, on helper threads too where
`threaded` allows; the values are the same bits as one whole call as long
as ``fn`` maps each point independently and is safe to call from several
threads (numpy's loops release the GIL). The chunk helpers and the noise a
run draws one step ahead (`ensemble.DrawAhead`) share one helper pool per
process, made on first use, with a thread per spare CPU.
"""

from __future__ import annotations

import contextvars
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_FLOAT, _NDARRAY = np.dtype(float), np.ndarray  # the type tests of a conversion
SHARD_MIN_ELEMENTS = 2**15  # the chunk size; a thread hand-off pays for itself from 8k-32k numbers
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = (None, None)  # (pid, executor); a forked child inherits the object, not its threads


def threaded(size: int) -> bool:
    """Whether work on `size` numbers goes to helper threads: it is at least
    SHARD_MIN_ELEMENTS numbers, two or more CPUs are usable, and this is not
    a campaign worker, whose runs already fill the CPUs. A process that never
    imported multiprocessing is no pool's child, so the rule imports nothing."""
    mp = sys.modules.get("multiprocessing")
    return (size >= SHARD_MIN_ELEMENTS and _THREADS >= 2
            and (mp is None or mp.parent_process() is None))


def executor() -> ThreadPoolExecutor:
    """The process's helper pool: one thread per spare CPU (_THREADS - 1, and
    at least one), which chunk helpers and a pending draw share; with the
    calling thread that makes one cbopt thread per usable CPU. The first
    call imports the thread pool, so a process that never threads loads none."""
    global _pool
    if _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max(1, _THREADS - 1), "cbopt-helper"))
    return _pool[1]


def _constant(value) -> np.ndarray:
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


_TWO_PI, _TEN, _MINUS_HALF = _constant(2.0 * np.pi), _constant(10.0), _constant(-0.5)


def _as_points(x) -> np.ndarray:
    if type(x) is not _NDARRAY or x.dtype is not _FLOAT:  # float64 points pass as they are
        x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("objective input needs at least one coordinate")
    return x


def ackley(x):
    """Ackley function: exponential well at the origin under cosine ripples."""
    x = _as_points(x)
    t = x * x
    rms = np.sqrt(np.add.reduce(t, axis=-1) / x.shape[-1])
    np.cos(np.multiply(_TWO_PI, x, out=t), out=t)
    cos_mean = np.add.reduce(t, axis=-1) / x.shape[-1]
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e


def rastrigin(x):
    """Rastrigin function: quadratic bowl with a cosine lattice of minima."""
    x = _as_points(x)  # sum of x^2 - 10 cos(2 pi x) + 10
    t, u = x * x, np.multiply(_TWO_PI, x)
    np.multiply(_TEN, np.cos(u, out=u), out=u)
    return np.add.reduce(np.add(np.subtract(t, u, out=t), _TEN, out=t), axis=-1)


def griewank(x):
    """Griewank function: shallow quadratic with a product-of-cosines ripple."""
    x = _as_points(x)
    idx = np.arange(1, x.shape[-1] + 1, dtype=float)
    t = x * x
    quad = np.add.reduce(t, axis=-1) / 4000.0
    ripple = np.multiply.reduce(np.cos(np.divide(x, np.sqrt(idx), out=t), out=t), axis=-1)
    return 1.0 + quad - ripple


def zakharov(x):
    """Zakharov function: sphere plus even powers of a weighted coordinate sum."""
    x = _as_points(x)
    idx = np.arange(1, x.shape[-1] + 1, dtype=float)
    t = 0.5 * idx * x
    lin = np.add.reduce(t, axis=-1)
    # the ufuncs, as for a stack: `**` of one point's numpy float is C's pow
    return np.add.reduce(np.multiply(x, x, out=t), axis=-1) + np.square(lin) + np.power(lin, 4.0)


def wavy(x):
    # Canonical form with frequency k = 10; the mean of cos(kx)*exp(-x^2/2)
    # is damped away from the origin, giving many shallow local minima.
    x = _as_points(x)  # 1 - mean of cos(10 x) exp(-x^2 / 2)
    t, u = np.multiply(_TEN, x), np.multiply(_MINUS_HALF, x)
    np.exp(np.multiply(u, x, out=u), out=u)
    return 1.0 - np.add.reduce(np.multiply(np.cos(t, out=t), u, out=t), axis=-1) / x.shape[-1]


@dataclass(frozen=True)
class ObjectiveFunction:
    """Deterministic map R^d -> R of points of dimension ``dimension``.

    Objectives hold no mutable state, so one instance may be evaluated from
    any number of workers concurrently. ``fn`` must map each point of a stack
    independently and be thread-safe: large stacks are evaluated in row
    chunks, on helper threads too where `threaded` allows.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    def __call__(self, x):
        """Evaluate at one point ``(d,)`` or a stack of points ``(..., d)``:
        float64 values of the leading shape, a numpy float for one point. The
        points and the values are converted here once (a float64 ndarray
        passes after a type test), and callers use the values as they are.

        A stack of more than SHARD_MIN_ELEMENTS numbers goes to ``fn`` in
        chunks of as many leading-axis rows as hold at most that many
        numbers (one row at least). The caller and, where `threaded` allows,
        one helper task per spare CPU take chunks from one iterator. Once it
        is empty the call cancels each helper still queued (behind a pending
        draw, say) and waits for those running, so none runs on after the
        call, and a helper's error is raised here.
        """
        if type(x) is not _NDARRAY or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dimension:
            raise ValueError(
                f"expected points of dimension {self.dimension}, got shape {x.shape}"
            )
        if x.ndim < 2 or x.size <= SHARD_MIN_ELEMENTS:
            return _floats(self.fn(x))
        rows = max(1, SHARD_MIN_ELEMENTS // (x.size // len(x)))
        values = [None] * -(-len(x) // rows)
        todo = iter(range(len(values)))  # its next() is one C call: atomic under the GIL

        def pull():
            for i in todo:
                values[i] = self.fn(x[i * rows:(i + 1) * rows])

        helpers = []
        if threaded(x.size):  # errstate lives in the context: hand each helper the caller's
            pool = executor()
            helpers = [pool.submit(contextvars.copy_context().run, pull)
                       for _ in range(min(_THREADS, len(values)) - 1)]
        try:
            pull()
        finally:
            for _ in todo:  # a chunk failed here: the helpers take no more
                pass
            for helper in helpers:
                if not helper.cancel():
                    helper.result()
            x = None  # a cancelled helper's queued task holds `pull` until a thread takes it
        return _floats(np.concatenate(values))


def _floats(values):
    """An objective's values as float64, an ndarray or a numpy float for one
    point: float64 values pass after a type test, others are converted."""
    if type(values) is np.float64 or type(values) is _NDARRAY and values.dtype is _FLOAT:
        return values
    return np.asarray(values, dtype=float)[()]


_BENCHMARKS = {fn.__name__: fn for fn in (ackley, rastrigin, griewank, zakharov, wavy)}


def benchmark_names() -> list:
    return sorted(_BENCHMARKS)


def make_objective(name: str, dimension: int) -> ObjectiveFunction:
    """Look up a benchmark by name; every benchmark has its minimum 0 at 0."""
    try:
        fn = _BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; choose from {benchmark_names()}"
        ) from None
    return ObjectiveFunction(name=name, fn=fn, dimension=dimension)
