"""Experiment orchestration: single runs, seeded campaigns, success rates,
and diagnostics for the quantitative laws of the dynamics.

Campaign runs are independently seeded from the master seed, so they may
execute on any number of workers; results are collected in seed order and
aggregation is order-independent.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import objectives
from .batching import (
    BatchParams,
    BatchState,
    batch_consensus,
    batch_update,
    first_stop,
    make_batches,
)
from .consensus import (
    ConsensusPoint, consensus_mean, laplace_estimate, weighted_mean,
)
from .dynamics import (
    VARIANTS, DivergenceError, PersonalBestMemory, VariantParams, _pay, advance,
    anisotropic_kick, frozen_gbm, isotropic_kick, noise_shape, split_diffusion, split_drift,
    step,
)
from .ensemble import (
    DrawAhead,
    Ensemble,
    FieldError,
    InitSpec,
    RngPlan,
    STREAM_DIFFUSION,
    STREAM_INIT,
    check_choice,
    init_ensemble,
    mean_pairwise_sq_dist,
    moments,
)
from .objectives import SHARD_MIN_ELEMENTS, ObjectiveFunction, benchmark_names, make_objective

INTEGRATORS = ("euler", "split", "frozen")
NORMS = ("infinity", "euclidean")


@dataclass(frozen=True)
class SuccessCriterion:
    """A run succeeds when its final consensus point lands within
    `tolerance` of `target` under the chosen norm."""

    target: np.ndarray
    tolerance: float = 0.25
    norm: str = "infinity"  # or "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        if not self.tolerance > 0.0:
            raise FieldError("tolerance", "must be positive")
        check_choice("norm", self.norm, NORMS)

    def met(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        if v.shape != self.target.shape:
            raise ValueError("dimension mismatch between result and target")
        delta = v - self.target
        dist = np.max(np.abs(delta)) if self.norm == "infinity" else np.linalg.norm(delta)
        return bool(dist <= self.tolerance)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run."""

    objective: str
    dimension: int
    params: VariantParams
    integrator: str = "euler"
    batching: Optional[BatchParams] = None
    n_particles: int = 100
    init: InitSpec = field(default_factory=lambda: InitSpec("box", low=-3.0, high=3.0))
    max_steps: int = 10_000
    master_seed: int = 0
    record_every: int = 100
    stop_eps: Optional[float] = None
    """Plain-run stop rule: with v_k the consensus point after k >= 1 steps,
    the run ends as `stop_criterion`, before its next update, once
    (1/d)|v_k - v_{k-1}|^2 <= stop_eps. The rule measures how far the
    consensus point moved, not how far the particles are spread. Under sharp
    weights one particle carries nearly all the weight and pins v, so a run
    can stop after one step at any stop_eps; that is the rule's meaning
    (ackley, d=3, N=12, sigma=0.7, dt=0.01, alpha=30 stops after one step
    even at 1e-20)."""

    def __post_init__(self):
        check_choice("objective", self.objective, benchmark_names())
        check_choice("integrator", self.integrator, INTEGRATORS)
        if self.integrator != "euler" and self.params.variant != "anisotropic":
            raise FieldError("integrator", "split/frozen solve the component-wise dynamic "
                             "exactly and need the anisotropic variant")
        for name in ("dimension", "n_particles", "max_steps", "record_every"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be at least 1")
        RngPlan(self.master_seed)  # FieldError("master_seed") out of range
        if self.stop_eps is not None and not self.stop_eps > 0.0:
            raise FieldError("stop_eps", "must be positive when given")
        if self.init.kind == "gaussian" and np.size(self.init.mean) not in (1, self.dimension):
            raise FieldError("init.mean", f"must be a number or {self.dimension} numbers")
        batched = self.batching is not None
        if batched and (self.params.variant != "anisotropic" or self.integrator != "euler"):
            raise FieldError("batching", "applies the component-wise Euler update and needs "
                             "the anisotropic variant with the euler integrator")
        if batched and self.stop_eps is not None:
            raise FieldError("stop_eps", "applies to unbatched runs; a batched run tests "
                             "batching.stop_eps")
        if batched and self.batching.batch_size > self.n_particles:
            raise FieldError("batching.batch_size", "must not exceed n_particles")


@dataclass(frozen=True)
class CampaignSpec:
    """A seeded campaign: how many runs per variant and what counts as a
    success. `variants` None runs only the configured variant."""

    runs: int = 100
    tolerance: float = 0.25
    norm: str = "infinity"
    variants: Optional[List[str]] = None

    def __post_init__(self):
        if self.runs < 1:
            raise FieldError("runs", "must be at least 1")
        self.criterion(1)  # FieldError on tolerance or norm
        if self.variants is not None:
            if not isinstance(self.variants, (list, tuple)) or not self.variants:
                raise FieldError("variants", "must be a nonempty list")
            for variant in self.variants:
                check_choice("variants", variant, VARIANTS)

    def criterion(self, dimension: int) -> SuccessCriterion:
        """Success within `tolerance` of the origin of R^dimension."""
        return SuccessCriterion(np.zeros(dimension), self.tolerance, self.norm)


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    time: float
    v: np.ndarray
    f_at_v: float
    mean: np.ndarray
    variance: float


@dataclass
class RunResult:
    trajectory: List[TrajectoryPoint]
    final_consensus: ConsensusPoint
    terminated_by: str  # stop_criterion | max_steps | divergence
    wall_time: float
    seed: int
    steps: int
    final_positions: np.ndarray = None


class OwedPoint:
    """A consensus point of `run` whose value f(v) is owed, f_at_v None
    until it is paid: by the plain run's next objective call, which
    evaluates v as its last row, or by `_finish`, which evaluates v alone.
    Only the run and the step it calls hold one."""

    __slots__ = ("v", "f_at_v")

    def __init__(self, v):
        self.v, self.f_at_v = v, None


def _point(e: Ensemble, cp, scratch) -> TrajectoryPoint:
    """The record of e; an OwedPoint stands for its value until `_finish`."""
    mean, variance = moments(e, scratch)
    return TrajectoryPoint(
        step=e.step_count,
        time=e.time,
        v=cp.v,
        f_at_v=cp if type(cp) is OwedPoint else cp.f_at_v,
        mean=mean,
        variance=variance,
    )


class _Owing:
    """f as `weighted_mean` sees it in a plain run that owes each consensus
    point's value to its next objective call: a call on the positions takes
    the owed point as its last row, unless a gate has, and a call on one
    point, the new consensus point, makes that the owed point and returns
    nan, which the run never reads."""

    __slots__ = ("f", "owed")

    def __init__(self, f):
        self.f, self.owed = f, None

    def __call__(self, x):
        if x.ndim == 1:
            self.owed = OwedPoint(x)
            return math.nan
        if self.owed is None or self.owed.f_at_v is not None:  # a gate took it in
            return self.f(x)
        return _pay(self.f, self.owed, x)


class _Unread:
    """f as `batch_consensus` sees it in a batched run, which reads a
    batch's f(v) only for a record or the fallback point, and evaluates it
    then alone (`_finish`). The run arms it before each `batch_consensus`
    call: the first call after that, on the batch's positions, is f's; the
    next, on the consensus point or a stack's points (at most N), evaluates
    nothing and returns nan, which nothing reads."""

    __slots__ = ("f", "armed", "nans")

    def __init__(self, f, n):
        self.f, self.armed, self.nans = f, False, np.full(n, math.nan)

    def __call__(self, x):
        if self.armed:
            self.armed = False
            return self.f(x)
        return math.nan if x.ndim == 1 else self.nans[: len(x)]


def _step(e, f, p, z, integrator, mem, cp, scratch) -> Ensemble:
    """Move every particle one step with the configured integrator and the
    step's normal draw z, its first temporary in `scratch`, an array of the
    positions' shape; returns the new ensemble. personal_best's memory `mem`
    is updated in place."""
    if integrator == "euler":
        return step(e, f, p, z, mem, cp, scratch)
    if integrator == "split":
        drifted = split_drift(e.positions, cp.v, p.lam, p.dt, scratch)
        new = split_diffusion(drifted, cp.v, p.sigma, p.dt, z)
    else:
        new = frozen_gbm(e.positions, cp.v, p.lam, p.sigma, p.dt, z, scratch)
    return advance(e, new, p.dt)


def _paid(f, owed: OwedPoint) -> float:
    """The owed point's value, evaluated alone by f where no call took v in."""
    if owed.f_at_v is None:
        owed.f_at_v = float(f(owed.v))
    return owed.f_at_v


def _finish(trajectory, e, final_cp, status, t0, config, fallback_cp, scratch, f):
    """The run's result; `final_cp` is the consensus point of e's positions,
    or None where the objective is not finite on them (`scratch` as in `moments`).
    The final point and each record, which no caller has seen yet, take
    their owed values (`_paid`), a record's in place."""
    if final_cp is None:
        # objective overflowed on the final positions: the run diverged,
        # whatever its budget; report its last finite consensus point
        final_cp, status = fallback_cp, "divergence"
    elif not trajectory or trajectory[-1].step != e.step_count:
        trajectory.append(_point(e, final_cp, scratch))
    if type(final_cp) is OwedPoint:
        final_cp = ConsensusPoint(final_cp.v, _paid(f, final_cp))
    for pt in trajectory:
        if type(pt.f_at_v) is OwedPoint:
            object.__setattr__(pt, "f_at_v", _paid(f, pt.f_at_v))
    return RunResult(
        trajectory=trajectory,
        final_consensus=final_cp,
        terminated_by=status,
        wall_time=time.perf_counter() - t0,
        seed=config.master_seed,
        steps=e.step_count,
        final_positions=e.positions,
    )


def _groups(config, plan):
    """(epoch, first theta, batches) of a batched run up to the epoch budget:
    one batch, or in partial mode a (q, M) stack of consecutive batches of an
    epoch with disjoint rows, ended before a batch that touches its rows,
    before a recorded step and at the step budget. A batch that shares a row
    with the one before it goes alone, since its point may repeat and stop
    the run, and so does one that deals a row twice: a stack has at most N rows.

    The cuts of an epoch come from one plan. An epoch deals the carried rows
    (fewer than M, none twice), then a permutation of all N, so a carried
    row sits in batch 0 and is dealt at most once more, and no other row
    repeats: only batch 0 can deal a row twice, or share one with a later
    batch of its epoch or with the previous epoch's last batch. So the
    stack at batch 0 ends before the first later batch that deals a carried
    row again, and goes alone if batch 0 deals one twice or meets the last
    batch; a stack at batch 1 goes alone if batch 1 deals a carried row
    again. A stack is a view of the epoch's (q, M) deal. These are the cuts
    of the per-batch rule in `tests/test_harness.py::reference_groups`."""
    bp, n, m = config.batching, config.n_particles, config.batching.batch_size
    every, budget = config.record_every, config.max_steps
    state, step, last = BatchState.fresh(), 0, set()
    for k in range(bp.max_epochs):
        carried = state.remainder
        batches, state = make_batches(state, n, m, plan)
        if bp.update_mode == "full":
            yield from ((k, theta, batch) for theta, batch in enumerate(batches))
            continue
        q, r = len(batches), carried.size
        pool = np.concatenate((*batches, state.remainder))  # the carried rows, the permutation
        again, twice = q, False  # the first batch past 0 that deals a carried row again
        if r:  # the batch that deals each carried row again (argsort inverts the permutation)
            dealt = (r + np.argsort(pool[r:])[carried]) // m
            again, twice = int(dealt[dealt > 0].min(initial=q)), dealt.min() == 0
        alone = twice or not last.isdisjoint(batches[0].tolist())  # batch 0 goes alone
        stops = set(range(-step % every or every, q, every))  # the batches at recorded steps
        if 0 < budget - step < q:
            stops.add(budget - step)
        cuts = {0, min(again, 1 if alone else q, *stops), *stops, q}
        if again == 1 < q:  # batch 1 shares a row with batch 0, and goes alone
            cuts.add(2)
        cuts = sorted(cuts)
        deal = pool[: q * m].reshape(q, m)
        for a, b in zip(cuts, cuts[1:]):
            yield k, a, deal[a] if b == a + 1 else deal[a:b]
        step, last = step + q, set(deal[-1].tolist())


def run(config: RunConfig) -> RunResult:
    """Execute one run until the stop criterion, the step budget, or divergence.
    A run that cannot evaluate its initial state, or the first batch of it,
    raises DivergenceError at step 0 instead, since it has no point to report.

    A plain run moves every particle once per iteration and tests
    `config.stop_eps` before the update. A batched run moves one batch per
    step, in the order `make_batches` deals them, tests `batching.stop_eps`
    after the update, and also ends after `max_epochs`. Each stack of
    `_groups` steps at once, or one batch at a time if it fails, with the
    outputs and errors of one batch at a time.

    A plain run of N particles in d dimensions with (N + 1) d <=
    SHARD_MIN_ELEMENTS, whatever its variant, evaluates each consensus
    point's value f(v) as one more row, the last, of the first objective
    call made after v exists: the gates' call of the same step for original
    with a gate and for personal_best (on [x; p; v]), else the next state's
    consensus call, the final state's included. It evaluates f(v) alone
    where no call follows: when the stop rule fires, a kick diverges or the
    run ends; a larger run evaluates every f(v) alone. The point whose value
    is still owed, an `OwedPoint`, stays inside the run; every point of the
    result holds its float value. A batched run evaluates f on a batch's or
    group's positions only: a batch's f(v) is read only by a record, at a
    group's head, and by the fallback point a diverged run reports, and is
    evaluated there alone, when the run ends. The stop rule takes a
    group's points in one `first_stop` call, and its draws in one
    `DrawAhead.blocks` call.

    The run owns one (N, d) scratch array, which every step (a batch's kick
    in its head) and `moments` at recorded steps and at the final point
    write into, and, for personal_best, one `PersonalBestMemory` that every
    step updates in place; both are made here and dropped on return, and no
    array of the result aliases them. Every draw comes from the run's one
    plan: the initial positions, a batched run's deal and, through one
    `DrawAhead`, step k's normal draw, the (STREAM_DIFFUSION, k) block. The
    `DrawAhead` draws a large block one step ahead on a helper thread, from
    a copy of the plan, into a second buffer the run owns; the run waits for
    that draw on every exit, so no draw is running when it returns or raises.
    """
    p, bp, d = config.params, config.batching, config.dimension
    every, budget, integrator = config.record_every, config.max_steps, config.integrator
    plan = RngPlan(config.master_seed)
    rows = config.n_particles if bp is None or bp.update_mode == "full" else bp.batch_size
    noise = DrawAhead(plan, STREAM_DIFFUSION, noise_shape(p, (rows, d)), budget)
    with np.errstate(over="ignore", invalid="ignore"), noise:
        f = make_objective(config.objective, config.dimension)
        e = init_ensemble(config.init, config.n_particles, config.dimension, plan)
        t0 = time.perf_counter()
        if bp is None:
            groups, eps = itertools.repeat((0, 0, None)), config.stop_eps
        else:
            groups, eps = _groups(config, plan), bp.stop_eps
            full_scope = range(config.n_particles) if bp.update_mode == "full" else None
        scratch = np.empty(e.positions.shape)
        single = scratch[:rows]  # the head of scratch that one batch's kick writes into
        mem = PersonalBestMemory.initial(e) if p.variant == "personal_best" else None
        owe = bp is None and (config.n_particles + 1) * d <= SHARD_MIN_ELEMENTS
        g = _Owing(f) if owe else f
        unread = _Unread(f, config.n_particles) if bp is not None else None
        trajectory: List[TrajectoryPoint] = []
        v_prev, cp, status = np.full(d, math.nan), None, "max_steps"  # step 0 made no move
        while (group := next(groups, None)) is not None:
            k, theta, batch = group
            at = e.step_count  # cps will be the point of this state, or of a batch of it
            q, cps = 1 if batch is None or batch.ndim == 1 else len(batch), None
            try:
                if batch is None:
                    cps = weighted_mean(e, g, p.alpha, scratch)
                    cps = g.owed if owe else cps
                else:  # a stack of q > 1 batches gives a stacked point: cps[j] is batch j's
                    unread.armed = True
                    cps = batch_consensus(e, unread, p.alpha, batch)
                # a batch's point owes its f(v) to `_finish`; a record sits at a group's head
                first = cps if batch is None else OwedPoint(cps.v if q == 1 else cps.v[0])
                record = _point(e, first, scratch) if e.step_count % every == 0 else None
                n, stop = (q, False) if eps is None else first_stop(v_prev, cps.v, d, eps)
                if batch is not None:  # member j of a stack takes block e.step_count + j
                    scope = (batch if n == q else batch[:n]) if full_scope is None else full_scope
                    z = noise.block(e.step_count) if q == 1 else noise.blocks(e.step_count, n)
                    # a stack has at most N rows, so its kick fits in scratch too
                    head = single if q == 1 else scratch[: z.size // d].reshape(z.shape)
                    e = batch_update(e, cps if n == q else cps[:n], bp, scope, z, head, lam=p.lam,
                                     sigma=p.sigma, k=k, theta=theta)
                elif not stop:  # a plain run stops before its update
                    z = noise.block(e.step_count)
                    e = _step(e, f, p, z, integrator, mem, cps, scratch)
            except (ValueError, DivergenceError) as err:
                if q > 1:  # one batch at a time: the error surfaces at its batch
                    singles = [(k, theta + j, b) for j, b in enumerate(batch)]
                    groups = itertools.chain(singles, groups)
                    continue
                if isinstance(err, ValueError) and cps is not None:
                    raise  # not a divergence
                if cp is None and cps is None:  # not even the initial state is evaluable
                    raise DivergenceError(at, "non-finite objective values before step") from err
                status = "divergence"
                if cps is None:  # the objective is not finite at the batch
                    break
            if record is not None:  # also when the kick diverged, as one batch at a time
                trajectory.append(record)
            cp = first if n == 1 else OwedPoint(cps.v[n - 1])
            v_prev = cp.v
            if stop and status == "max_steps":
                status = "stop_criterion"
            if status != "max_steps" or e.step_count >= budget:
                break
        # cps is the final point where it is the full point of a state that did not move
        if cps is not None and (batch is not None or e.step_count != at):
            try:
                cps = weighted_mean(e, g, p.alpha, scratch)
                cps = g.owed if owe else cps
            except ValueError:  # the objective is not finite on the final positions
                cps = None
        return _finish(trajectory, e, cps, status, t0, config, cp, scratch, f)


def run_campaign(config: RunConfig, runs: int, workers: int = 1) -> List[RunResult]:
    """Execute `runs` independently seeded copies of `config`.

    Results come back in seed order whatever the worker count, so any
    aggregation downstream is reproducible. At most `workers` processes run
    them, and no more than there are runs or usable CPUs.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    plan = RngPlan(config.master_seed)
    configs = [replace(config, master_seed=plan.run_seed(r)) for r in range(runs)]
    # a pool starts all its workers at once, so never ask for more than
    # runs, nor for more processes than the process has usable CPUs
    workers = min(workers, runs, objectives._THREADS)
    if workers > 1:  # only a pool loads multiprocessing: in-process campaigns import none of it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, configs))
    return [run(c) for c in configs]


def success_rate(results: Sequence[RunResult], crit: SuccessCriterion) -> float:
    """Fraction of runs whose final consensus point meets the criterion."""
    if not results:
        raise ValueError("success_rate needs at least one result")
    hits = [crit.met(r.final_consensus.v) for r in results]
    return float(np.mean(hits))


def fit_decay_rate(series) -> float:
    """Least-squares slope of log(value) against time, negated, so a
    decaying series yields a positive rate."""
    arr = np.asarray(list(series), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 3 or arr.shape[1] != 2:
        raise ValueError("need at least 3 (time, value) points")
    t, v = arr[:, 0], arr[:, 1]
    if np.any(v <= 0.0):
        raise ValueError("values must be positive for a log-linear fit")
    slope = np.polyfit(t, np.log(v), 1)[0]
    return float(-slope)


def diagnostic_frozen_moment(
    variant: str,
    lam: float,
    sigma: float,
    d: int,
    n: int,
    dt: float,
    t_final: float,
    seed: int,
) -> Tuple[float, float]:
    """Second-moment law with the consensus point pinned at the origin.

    Runs the isotropic or component-wise noise form with a constant
    attractor, fits the exponential rate of E|X|^2, and returns
    (fitted, predicted) where predicted is 2*lam - sigma^2*d for the
    isotropic form and the dimension-independent 2*lam - sigma^2 for the
    component-wise one. `sigma` is the full noise multiplier here.
    """
    if variant not in ("isotropic", "anisotropic"):
        raise ValueError(f"unknown frozen-moment variant {variant!r}")
    if n < 1000:
        raise ValueError("need at least 1000 particles for a stable fit")
    plan = RngPlan(seed)
    e = Ensemble(plan.generator(STREAM_INIT, 0).standard_normal((n, d)))
    steps = int(round(t_final / dt))
    second = np.empty(steps + 1)
    kick = isotropic_kick if variant == "isotropic" else anisotropic_kick
    scratch = np.empty((n, d))
    noise = DrawAhead(plan, STREAM_DIFFUSION, (n, d), steps)
    with np.errstate(over="ignore", invalid="ignore"), noise:
        for s in range(steps):
            second[s] = np.mean(np.sum(np.multiply(e.positions, e.positions, out=scratch), axis=1))
            e = advance(e, kick(e.positions, 0.0, lam, sigma, dt, noise.block(s), scratch), dt)
    second[steps] = np.mean(np.sum(np.multiply(e.positions, e.positions, out=scratch), axis=1))
    times = dt * np.arange(steps + 1)
    fitted = fit_decay_rate(np.column_stack([times, second]))
    predicted = 2.0 * lam - (sigma**2 * d if variant == "isotropic" else sigma**2)
    return fitted, predicted


def laplace_table(
    f: ObjectiveFunction, init: InitSpec, alphas: Sequence[float], n: int, seed: int
) -> List[Tuple[float, float, float]]:
    """(alpha, Monte Carlo Laplace value, its standard error) per alpha, on one
    sample of n points drawn from `init`, evaluated once."""
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas) or sorted(alphas) != alphas:
        raise ValueError("alphas must be positive and increasing")
    fvals = f(init_ensemble(init, n, f.dimension, RngPlan(seed)).positions)
    return [(a, *laplace_estimate(fvals, a)) for a in alphas]


def diagnostic_pairwise_decay(
    lam: float,
    sigma: float,
    h: float,
    n: int,
    replicas: int,
    t_final: float,
    d: int = 4,
    alpha: float = 30.0,
    objective: str = "rastrigin",
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Mean pairwise squared distance of the common-noise dynamic, averaged
    over Monte Carlo replicas, as a (time, value) series.

    All replicas advance in one vectorized sweep; each replica draws its own
    shared-per-coordinate noise, matching the common_noise step exactly.
    Like `run`, a state the objective is not finite on, or a step whose mean
    squared distance is not finite, raises DivergenceError naming the step.
    """
    if replicas < 1 or n < 2:
        raise ValueError("need at least one replica of at least two particles")
    f = make_objective(objective, d)
    plan = RngPlan(seed)
    positions = plan.generator(STREAM_INIT, 0).standard_normal((replicas, n, d))
    steps = int(round(t_final / h))
    series = np.empty(steps + 1)
    scratch = np.empty(positions.shape)
    series[0] = np.mean(mean_pairwise_sq_dist(positions, scratch))
    noise = DrawAhead(plan, STREAM_DIFFUSION, (replicas, d), steps)
    with np.errstate(over="ignore", invalid="ignore"), noise:
        for s in range(steps):
            try:
                v = consensus_mean(positions, f(positions), alpha, scratch)  # (replicas, d)
            except ValueError as err:
                raise DivergenceError(s, "non-finite objective values before step") from err
            z = noise.block(s)
            positions = anisotropic_kick(positions, v[:, None, :], lam, sigma, h, z[:, None, :],
                                         scratch)
            series[s + 1] = np.mean(mean_pairwise_sq_dist(positions, scratch))
            if not np.isfinite(series[s + 1]):
                raise DivergenceError(s, "non-finite pairwise distances after step")
    times = h * np.arange(steps + 1)
    return list(zip(times.tolist(), series.tolist()))
