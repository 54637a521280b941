"""Random-batch bookkeeping: epoch partitions, batch-local consensus,
scoped updates, and the stopping criterion.

Each epoch concatenates the previous remainder with a fresh random
permutation of all indices, slices off as many size-M batches as fit, and
carries the leftover (< M indices) into the next epoch. An epoch is thus
the multiset R_k + {0..N-1}, not a partition: a carried-over particle can
sit twice in one batch. It then counts twice in that batch's consensus
point and, in partial mode, takes two noise rows and keeps its last write.
Batches within an epoch step in order; consecutive batches with disjoint
rows can be passed as one (q, M) stack and stepped at once, bit for bit.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, is_dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .consensus import ConsensusPoint, consensus_from_values
from .dynamics import advance, anisotropic_kick
from .ensemble import Ensemble, FieldError, RngPlan, STREAM_PERMUTATION, check_choice
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
        try:
            return self.initial * self.decay**k
        except OverflowError:  # the IEEE value: inf past the float range, and 0 stays 0
            return self.initial * np.inf if self.initial else self.initial


@dataclass(frozen=True)
class BatchParams:
    """Batch size, update scope, schedules, and the stopping tolerance.

    sigma_schedule None means the dynamics' sigma, which `batch_update` is
    given. The fields of a constant or geometric schedule fix the sign of
    all its values; other callables are checked as `batch_update` runs.
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
        if (isinstance(self.gamma_schedule, GeometricSchedule)
                and not self.gamma_schedule(self.max_epochs - 1, 0) > 0.0):
            raise FieldError("gamma_schedule", f"underflows to 0 by epoch {self.max_epochs - 1}")


@dataclass(frozen=True)
class BatchState:
    """Carry-over indices and the epoch counter, which also keys the
    permutation stream of the rng plan."""

    remainder: np.ndarray
    epoch: int = 0

    def __post_init__(self):
        remainder = np.asarray(self.remainder, dtype=np.int64)
        object.__setattr__(self, "remainder", remainder)
        if remainder.ndim != 1 or len(set(remainder.tolist())) != remainder.size:
            raise ValueError("remainder must be a duplicate-free index vector")

    @classmethod
    def fresh(cls) -> "BatchState":
        return cls(remainder=np.zeros(0, dtype=np.int64), epoch=0)


def make_batches(
    state: BatchState, n: int, m: int, rng: RngPlan
) -> Tuple[List[np.ndarray], BatchState]:
    """Slice the remainder plus a fresh permutation of 0..n-1 into
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


def _sorted_rows(batch, n: int) -> np.ndarray:
    """`batch` as int64 indices, ascending within each batch of a stack."""
    batch = np.array(batch, dtype=np.int64)  # a copy, sorted in place
    batch.sort()
    if batch.size and (batch.min() < 0 or batch.max() >= n if batch.ndim > 1
                       else batch.item(0) < 0 or batch.item(-1) >= n):
        raise ValueError(f"batch {batch.tolist()} indexes outside 0..{n - 1}")
    return batch


def batch_consensus(
    e: Ensemble, f: ObjectiveFunction, alpha: float, batch
) -> ConsensusPoint:
    """Consensus point of the sub-ensemble indexed by `batch`, or of each
    batch of a (q, M) stack as one stacked point, from one call of `f`.

    Indices are sorted first so the reduction is index-ascending: the result
    depends on the batch as a set, and a batch of all indices reproduces the
    full weighted mean bitwise.
    """
    batch = _sorted_rows(batch, e.n_particles)
    if batch.size == 0:
        raise ValueError("empty batch")
    positions = e.positions[batch]
    fvals = np.asarray(f(positions), dtype=float)
    return consensus_from_values(positions, fvals, alpha, f)


def batch_update(
    e: Ensemble,
    v: ConsensusPoint,
    bp: BatchParams,
    scope,
    z,
    scratch,
    *,
    lam: float,
    sigma: float,
    k: int,
    theta: int,
) -> Ensemble:
    """Anisotropic kick with step size gamma_{k,theta}, noise scale
    sigma_{k,theta} (the dynamics' `sigma` where `bp` has no sigma schedule)
    and the normal draw z, applied only to the rows in `scope`; everything
    else is left bit-identical. Advances the clock by gamma. The kick's first
    temporary goes into `scratch`, an array of z's shape; the caller draws z
    (`harness.run` takes step e.step_count's block).

    Scope indices are sorted, so noise rows attach to particles in index
    order whatever order the batch came in, and a repeated row takes the
    last write. `range(N)` is the full scope: it kicks the whole array with
    an (N, d) z, bit for bit, with no sort, gather, copy or scatter.
    A (q, M) stack of disjoint scopes with a stacked `v` and a (q, M, d) z
    is q calls in a row, bit for bit: member j takes theta + j and z[j]."""
    full = isinstance(scope, range) and scope == range(e.n_particles)
    rows = None if full else _sorted_rows(scope, e.n_particles)
    q = len(rows) if not full and rows.ndim > 1 else 1
    gammas, sigmas = zip(*[_coefficients(bp, sigma, k, theta + j) for j in range(q)])
    if q == 1:  # one batch: scalar coefficients cost least
        (gamma,), (sigma,), v = gammas, sigmas, v.v
    else:
        gamma, sigma = np.reshape(gammas, (q, 1, 1)), np.reshape(sigmas, (q, 1, 1))
        v = v.v[:, None]
    if full:
        return advance(e, anisotropic_kick(e.positions, v, lam, sigma, gamma, z, scratch), gamma)
    new = e.positions.copy()
    new[rows] = anisotropic_kick(e.positions[rows], v, lam, sigma, gamma, z, scratch)
    out = advance(e, new, gammas[0])
    for gamma in gammas[1:]:  # the clock advances member by member
        out.time, out.step_count = out.time + gamma, out.step_count + 1
    return out


def _coefficients(bp: BatchParams, sigma: float, k: int, theta: int) -> Tuple[float, float]:
    """The checked gamma_{k,theta} and sigma_{k,theta} of one batch."""
    gamma, schedule = float(bp.gamma_schedule(k, theta)), bp.sigma_schedule
    sigma = float(sigma if schedule is None else schedule(k, theta))
    if not gamma > 0.0:
        raise ValueError("gamma schedule must yield positive step sizes")
    if sigma < 0.0:
        raise ValueError("sigma schedule must yield nonnegative noise scales")
    return gamma, sigma


def stop_check(v_prev, v_curr, d: int, eps: float) -> bool:
    """True when the mean squared consensus move (1/d)|v_curr - v_prev|^2
    has dropped to eps or below."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    delta = np.asarray(v_curr, dtype=float) - np.asarray(v_prev, dtype=float)
    return bool(np.add.reduce(delta * delta, axis=None) / d <= eps)
