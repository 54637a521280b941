"""Random-batch bookkeeping: epoch partitions, batch-local consensus,
scoped updates, and the stopping criterion.

Each epoch concatenates the previous remainder with a fresh random
permutation of all indices, slices off as many size-M batches as fit, and
carries the leftover (< M indices) into the next epoch. Batches within an
epoch are processed sequentially; per-particle work inside one update is
data-parallel.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, is_dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .consensus import ConsensusPoint, consensus_from_values
from .dynamics import advance, anisotropic_kick
from .ensemble import (
    Ensemble, FieldError, RngPlan, STREAM_DIFFUSION, STREAM_PERMUTATION, check_choice,
)
from .objectives import ObjectiveFunction

UPDATE_MODES = ("partial", "full")


@dataclass(frozen=True)
class ConstantSchedule:
    value: float

    def __call__(self, k: int, theta: int) -> float:
        return self.value


@dataclass(frozen=True)
class GeometricSchedule:
    """Per-epoch geometric decay: initial * decay**k."""

    initial: float
    decay: float

    def __call__(self, k: int, theta: int) -> float:
        return self.initial * self.decay**k


@dataclass(frozen=True)
class BatchParams:
    """Batch size, update scope, schedules, and the stopping tolerance.

    sigma_schedule None means "reuse the dynamics' sigma", resolved by the
    run driver. The fields of a constant or geometric schedule fix the sign
    of all its values; other callables are checked as `batch_update` runs.
    """

    batch_size: int
    update_mode: str = "partial"  # or "full"
    gamma_schedule: Callable[[int, int], float] = ConstantSchedule(0.01)
    sigma_schedule: Optional[Callable[[int, int], float]] = None
    stop_eps: float = 1e-8
    max_epochs: int = 1000

    def __post_init__(self):
        if self.batch_size < 1:
            raise FieldError("batch_size", "must be at least 1")
        check_choice("update_mode", self.update_mode, UPDATE_MODES)
        gamma, sigma = (astuple(s) if is_dataclass(s) else () for s in
                        (self.gamma_schedule, self.sigma_schedule))
        if not all(x > 0.0 for x in gamma):
            raise FieldError("gamma_schedule", "must yield positive step sizes")
        if not all(x >= 0.0 for x in sigma):
            raise FieldError("sigma_schedule", "must yield nonnegative noise scales")
        if not self.stop_eps > 0.0:
            raise FieldError("stop_eps", "must be positive")
        if self.max_epochs < 1:
            raise FieldError("max_epochs", "must be at least 1")


@dataclass(frozen=True)
class BatchState:
    """Carry-over indices and the epoch counter, which also keys the
    permutation stream of the rng plan."""

    remainder: np.ndarray
    epoch: int = 0

    def __post_init__(self):
        remainder = np.asarray(self.remainder, dtype=np.int64)
        object.__setattr__(self, "remainder", remainder)
        if remainder.ndim != 1 or len(np.unique(remainder)) != remainder.size:
            raise ValueError("remainder must be a duplicate-free index vector")

    @classmethod
    def fresh(cls) -> "BatchState":
        return cls(remainder=np.empty(0, dtype=np.int64), epoch=0)


def make_batches(
    state: BatchState, n: int, m: int, rng: RngPlan
) -> Tuple[List[np.ndarray], BatchState]:
    """Partition the remainder plus a fresh permutation of 0..n-1 into
    q = floor((n + |remainder|)/m) batches of exactly m; leftovers carry over."""
    if m < 1:
        raise ValueError("batch size must be at least 1")
    if m > n + state.remainder.size:
        raise ValueError("batch size exceeds the available indices")
    perm = rng.generator(STREAM_PERMUTATION, state.epoch).permutation(n)
    pool = np.concatenate([state.remainder, perm])
    q = pool.size // m
    batches = [pool[i * m : (i + 1) * m] for i in range(q)]
    return batches, BatchState(remainder=pool[q * m :], epoch=state.epoch + 1)


def batch_consensus(
    e: Ensemble, f: ObjectiveFunction, alpha: float, batch
) -> ConsensusPoint:
    """Consensus point of the sub-ensemble indexed by `batch`.

    Indices are sorted first so the reduction is index-ascending: the result
    depends on the batch as a set, and a batch of all indices reproduces the
    full weighted mean bitwise.
    """
    batch = np.sort(np.asarray(batch, dtype=np.int64))
    if batch.size == 0:
        raise ValueError("empty batch")
    if batch.item(0) < 0 or batch.item(-1) >= e.n_particles:
        raise ValueError(f"batch {batch.tolist()} indexes outside 0..{e.n_particles - 1}")
    positions = e.positions[batch]
    fvals = np.asarray(f(positions), dtype=float)
    return consensus_from_values(positions, fvals, alpha, f)


def batch_update(
    e: Ensemble,
    v: ConsensusPoint,
    bp: BatchParams,
    scope,
    rng: RngPlan,
    *,
    lam: float,
    k: int = 0,
    theta: int = 0,
) -> Ensemble:
    """Anisotropic kick with step size gamma_{k,theta} and noise scale
    sigma_{k,theta}, applied only to the rows in `scope`; everything else is
    left bit-identical. Advances the clock by gamma.

    Scope indices are sorted, so noise rows attach to particles in index
    order whatever order the batch came in. A full scope (every row once)
    kicks the whole array with the same (N, d) draw, bit for bit, with no
    gather, copy or scatter. A size-N scope with a repeat is gathered, and
    the last write to a row wins."""
    if bp.sigma_schedule is None:
        raise ValueError("sigma_schedule must be resolved before batch_update")
    gamma = float(bp.gamma_schedule(k, theta))
    sigma = float(bp.sigma_schedule(k, theta))
    if not gamma > 0.0:
        raise ValueError("gamma schedule must yield positive step sizes")
    if sigma < 0.0:
        raise ValueError("sigma schedule must yield nonnegative noise scales")
    scope = np.sort(np.asarray(scope, dtype=np.int64))
    if scope.size and (scope.item(0) < 0 or scope.item(-1) >= e.n_particles):
        raise ValueError(f"batch {scope.tolist()} indexes outside 0..{e.n_particles - 1}")
    z = rng.normal_block(STREAM_DIFFUSION, e.step_count, (scope.size, e.dimension))
    full = scope.size == e.n_particles and scope[0] == 0 and scope[-1] == scope.size - 1
    if full and (scope[1:] != scope[:-1]).all():  # sorted 0..N-1, every row once
        return advance(e, anisotropic_kick(e.positions, v.v, lam, sigma, gamma, z), gamma)
    new = e.positions.copy()
    new[scope] = anisotropic_kick(e.positions[scope], v.v, lam, sigma, gamma, z)
    return advance(e, new, gamma)


def stop_check(v_prev, v_curr, d: int, eps: float) -> bool:
    """True when the mean squared consensus move (1/d)|v_curr - v_prev|^2
    has dropped to eps or below."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    delta = np.asarray(v_curr, dtype=float) - np.asarray(v_prev, dtype=float)
    return bool(np.add.reduce(delta * delta, axis=None) / d <= eps)
