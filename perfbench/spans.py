"""Span tracing around cbopt's public functions, installed from outside.

Each wrapper is put where the caller looks the name up at call time: a
module global of the calling module (``harness.step``, ``cli.load_config``)
or a class attribute (``ObjectiveFunction.__call__``, ``RngPlan.generator``).
The library itself is not edited. Spans live in memory as columns (name id,
parent index, start, end, work count); a layer's self time is its spans'
durations minus the part of each interval that child spans cover.

Campaign workers are forked processes. A span tree recorded in a worker is
attached to the ``RunResult`` it belongs to, travels back with the pickled
result, and is grafted under the campaign span of the parent process.

The speed of a shared machine drifts with other tenants' load, at time
scales from below a second to minutes. A tracer can therefore also time a
fixed reference kernel, which uses no cbopt code, just before a run starts,
at most every ``REFERENCE_EVERY_S``, and pair each run with the median of
the latest samples of its process. The samples are taken outside every
span; they let the benchmark express its timings at a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
from array import array
from collections import deque
from time import perf_counter

import numpy as np

SHIPPED = "perfbench_spans"
COLUMNS = ("name", "parent", "t0", "t1", "work")
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 3  # a run is paired with the median of its process's latest samples
_SMALL = np.linspace(-1.0, 1.0, 50).reshape(10, 5)
_LARGE = np.linspace(-3.0, 3.0, 100_000).reshape(2000, 50)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small-array calls (interpreter-bound,
    like N=10 steps) and large-array passes (like N=2000, d=50 steps)."""
    start = perf_counter()
    for _ in range(1000):
        float(np.sum(_SMALL * _SMALL))
    for _ in range(4):
        float(np.exp(-_LARGE * _LARGE).sum())
    return perf_counter() - start


def _points(args, kwargs) -> int:
    """Points in one objective call: every axis but the last."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return math.prod(np.shape(x)[:-1])


def _particles(args, kwargs) -> int:
    """Particles advanced by one dynamics step."""
    e = args[0] if args else kwargs["e"]
    return e.positions.shape[0]


def _scope_rows(args, kwargs) -> int:
    """Rows written by one batch_update call."""
    scope = args[3] if len(args) > 3 else kwargs["scope"]
    return int(np.size(scope))


# (owner, attribute, span name, layer, work count)
WRAP_POINTS = (
    ("cbopt.harness", "run", "harness.run", "harness", None),
    ("cbopt.harness", "run_campaign", "harness.campaign", "harness", None),
    ("cbopt.harness", "init_ensemble", "ensemble.init", "ensemble.init", None),
    ("cbopt.harness", "moments", "ensemble.moments", "ensemble.moments", None),
    ("cbopt.harness", "weighted_mean", "consensus.weighted_mean", "consensus", None),
    ("cbopt.harness", "step", "dynamics.step", "dynamics", _particles),
    ("cbopt.harness", "split_drift", "integrators.split_drift", "integrators", None),
    ("cbopt.harness", "split_diffusion", "integrators.split_diffusion", "integrators", None),
    ("cbopt.harness", "frozen_gbm", "integrators.frozen_gbm", "integrators", None),
    ("cbopt.harness", "make_batches", "batching.make_batches", "batching", None),
    ("cbopt.harness", "batch_consensus", "batching.batch_consensus", "batching", None),
    ("cbopt.harness", "batch_update", "batching.batch_update", "batching", _scope_rows),
    ("cbopt.dynamics", "weighted_mean", "consensus.weighted_mean", "consensus", None),
    ("cbopt.batching", "consensus_from_values", "consensus.consensus_from_values", "consensus", None),
    ("cbopt.objectives:ObjectiveFunction", "__call__", "objectives.call", "objectives", _points),
    ("cbopt.ensemble:RngPlan", "generator", "ensemble.rng.generator", "ensemble.rng", None),
    ("cbopt.ensemble:RngPlan", "normal_block", "ensemble.rng.normal_block", "ensemble.rng", None),
    ("cbopt.cli", "load_config", "cli.load_config", "cli", None),
    ("cbopt.cli", "run_campaign", "harness.campaign", "harness", None),
    ("cbopt.cli", "cmd_bench", "cli.cmd_bench", "cli", None),
)
SPAN_NAMES = tuple(dict.fromkeys(point[2] for point in WRAP_POINTS))
LAYER_OF = {point[2]: point[3] for point in WRAP_POINTS}

# The untraced (end-to-end) run keeps only spans that cost nothing next to
# the work they time: one per run, campaign and CLI command.
TIMING_SPANS = frozenset({"harness.run", "harness.campaign", "cli.load_config", "cli.cmd_bench"})


class Tracer:
    """In-memory span store. One instance per process; not thread-safe."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.reference_times = []  # reference_kernel() samples, workers' included
        self.run_reference = []  # per harness.run span, in span order: its paired sample
        self._last_reference = -np.inf
        self._recent = deque(maxlen=REFERENCE_WINDOW)
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("q")
        self.stack = [-1]
        self.pid = os.getpid()
        self.run_walls = []  # RunResult.wall_time of every campaign run
        self.adopted = []  # (span tree from a worker, index of its campaign span)

    def __len__(self) -> int:
        return len(self.t0)

    def wrap(self, span: str, fn, count=None):
        """Return ``fn`` recording one span per call."""
        name_id = SPAN_NAMES.index(span)
        names, parents, starts, ends, works, stack = (
            self.name, self.parent, self.t0, self.t1, self.work, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            works.append(count(args, kwargs) if count is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        return traced

    def _own(self, start: int) -> dict:
        """Copies of this process's span columns from ``start`` on."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[start:].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[start:].copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64)[start:].copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64)[start:].copy(),
            "work": np.frombuffer(self.work, dtype=np.int64)[start:].copy(),
        }

    def columns(self) -> dict:
        """All spans: this process's, then the trees adopted from workers."""
        trees, roots = zip(*self.adopted) if self.adopted else ((), ())
        return concat([self._own(0), *trees], [-1, *roots])

    def take(self, start: int) -> dict:
        """Remove this process's spans from ``start`` on, parents rebased to the slice."""
        cols = self._own(start)
        cols["parent"] = np.where(cols["parent"] >= start, cols["parent"] - start, -1)
        for column in (self.name, self.parent, self.t0, self.t1, self.work):
            del column[start:]
        return cols

    def sample_reference(self) -> float:
        """Time the reference kernel if the latest sample is old; return the
        median of the latest few samples."""
        if perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self._recent.append(reference_kernel())
            self.reference_times.append(self._recent[-1])
            self._last_reference = perf_counter()
        return statistics.median(self._recent)

    def shipping(self, run):
        """Wrap harness.run: sample the reference kernel first, and in a
        forked worker send the run's spans and samples home."""

        @functools.wraps(run)
        def shipped(config):
            references = len(self.reference_times)
            paired = self.sample_reference() if self.reference else None
            if os.getpid() == self.pid:
                if self.reference:
                    self.run_reference.append(paired)
                return run(config)
            start, outer = len(self), self.stack[:]
            self.stack[:] = [-1]
            try:
                result = run(config)
            finally:
                self.stack[:] = outer
                spans = self.take(start)
            setattr(result, SHIPPED, (spans, self.reference_times[references:], paired))
            del self.reference_times[references:]
            return result

        return shipped

    def adopting(self, run_campaign):
        """Wrap a campaign call so worker span trees land under its span."""

        @functools.wraps(run_campaign)
        def adopted(*args, **kwargs):
            index = len(self)  # the span the traced call is about to open
            results = run_campaign(*args, **kwargs)
            for result in results:
                self.run_walls.append(result.wall_time)
                shipped = result.__dict__.pop(SHIPPED, None)
                if shipped is not None:  # spans are joined in columns(), outside every span
                    spans, references, paired = shipped
                    self.adopted.append((spans, index))
                    self.reference_times.extend(references)
                    if paired is not None:
                        self.run_reference.append(paired)
            return results

        return adopted


def _owner(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


IN_PROCESS = ("cbopt.harness", "cbopt.dynamics", "cbopt.batching", "cbopt.objectives",
              "cbopt.ensemble")
WITH_CLI = IN_PROCESS + ("cbopt.cli",)


def install(tracer: Tracer, spans, modules) -> list:
    """Wrap every wrap point named in ``spans`` whose owner is in ``modules``.

    Returns what ``uninstall`` needs to put the originals back.
    """
    saved = []
    for owner_path, attr, span, _, count in WRAP_POINTS:
        if span not in spans or owner_path.partition(":")[0] not in modules:
            continue
        owner = _owner(owner_path)
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(span, original, count)
        if span == "harness.run":
            wrapped = tracer.shipping(wrapped)
        elif span == "harness.campaign":
            wrapped = tracer.adopting(wrapped)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer, spans=SPAN_NAMES, modules=IN_PROCESS):
    saved = install(tracer, spans, modules)
    try:
        yield tracer
    finally:
        uninstall(saved)


def self_times(cols: dict) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children run one after another except under a multi-worker campaign,
    so the union is a plain sum unless siblings overlap; only those few
    parents are merged interval by interval.
    """
    t0, t1, parent = cols["t0"], cols["t1"], cols["parent"]
    duration = t1 - t0
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return duration
    child = child[np.lexsort((t0[child], parent[child]))]
    owner = parent[child]
    covered = np.bincount(owner, weights=duration[child], minlength=t0.size)
    same = owner[1:] == owner[:-1]
    overlap = same & (t0[child[1:]] < t1[child[:-1]])
    for p in np.unique(owner[1:][overlap]):
        total, reach = 0.0, -np.inf
        for i in child[owner == p]:
            start = max(t0[i], reach)
            if t1[i] > start:
                total += t1[i] - start
            reach = max(reach, t1[i])
        covered[p] = total
    return duration - covered


def summarize(cols: dict) -> dict:
    """Per span name: calls, work, total and self seconds."""
    selfs = self_times(cols)
    out = {}
    for name_id, span in enumerate(SPAN_NAMES):
        mask = cols["name"] == name_id
        out[span] = {
            "calls": int(mask.sum()),
            "work": int(cols["work"][mask].sum()),
            "total_s": float((cols["t1"][mask] - cols["t0"][mask]).sum()),
            "self_s": float(selfs[mask].sum()),
        }
    return out


def durations(cols: dict, span: str) -> np.ndarray:
    mask = cols["name"] == SPAN_NAMES.index(span)
    return cols["t1"][mask] - cols["t0"][mask]


def indices(cols: dict, span: str) -> np.ndarray:
    return np.nonzero(cols["name"] == SPAN_NAMES.index(span))[0]


def concat(parts, roots=None) -> dict:
    """Join span columns, rebasing parent indices.

    The root spans of ``parts[i]`` get parent ``roots[i]``, an index into
    the joined columns (default -1: no parent).
    """
    out, base = {key: [] for key in COLUMNS}, 0
    for i, cols in enumerate(parts):
        root = -1 if roots is None else roots[i]
        for key in COLUMNS:
            out[key].append(cols[key])
        out["parent"][-1] = np.where(cols["parent"] < 0, root, cols["parent"] + base)
        base += cols["t0"].size
    return {key: np.concatenate(values) for key, values in out.items()}
