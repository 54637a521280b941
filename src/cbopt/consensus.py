"""Weighted consensus mean and Laplace-principle values.

Weights are exp(-alpha * f) normalized to probabilities. The sample minimum
of f is subtracted inside the exponent first, so all weights lie in (0, 1]
and no overflow occurs even for alpha of order 1e6 on a bounded f-range.
One reduction evaluates these shifted exponentials once and derives the
consensus point from them, for one ensemble or for a stack of replicas; the
log-normalizer waits for its first read, and needs only the sums and minima.
Reductions use numpy's index-ascending pairwise sums, which keeps results
identical no matter how the f-evaluations were scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .ensemble import Ensemble
from .objectives import ObjectiveFunction


@dataclass(frozen=True)
class ConsensusPoint:
    """Weighted mean of particle positions under weights exp(-alpha f). A point
    from `consensus_from_values` or `cps[j]` computes `log_normalizer` on its
    first read, once, with an eager computation's bits; a pickle holds floats."""

    v: np.ndarray
    f_at_v: float
    log_normalizer: float  # log((1/N) sum_i exp(-alpha f_i)), stabilized

    def __getattr__(self, name):  # reached only where the instance lacks `name`
        if name != "log_normalizer" or self.__dict__.get("_pending") is None:
            raise AttributeError(name)
        self.__dict__.update(log_normalizer=self._pending(), _pending=None)
        return self.log_normalizer

    def __getstate__(self):
        return {"v": self.v, "f_at_v": self.f_at_v, "log_normalizer": self.log_normalizer}

    def __getitem__(self, j):
        """Point j, or a slice of points, of a stacked point (v of shape (q, d))."""
        return _lazy_point(self.v[j], self.f_at_v[j], lambda: self.log_normalizer[j])


def _lazy_point(v, f_at_v, pending) -> ConsensusPoint:
    cp = object.__new__(ConsensusPoint)
    cp.__dict__.update(v=v, f_at_v=f_at_v, _pending=pending)
    return cp


def exponentials(fvals, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """exp(-alpha (f_i - min f)) over the last axis of `fvals`, and the
    minima min f of shape (..., 1): the weights up to their normalization,
    and the shift of the exponent."""
    fvals = np.asarray(fvals, dtype=float)
    if fvals.ndim < 1 or fvals.size < 1:
        raise ValueError("fvals must be nonempty along the particle axis")
    if not np.logical_and.reduce(np.isfinite(fvals), axis=None):
        raise ValueError("non-finite objective value in weights")
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError("alpha must be finite and nonnegative")
    fmin = np.minimum.reduce(fvals, axis=-1, keepdims=True)
    if alpha == 0.0:  # 0 * inf is NaN where f spans more than the float range
        return np.ones_like(fvals), fmin
    return np.exp(-alpha * (fvals - fmin)), fmin


def weights(fvals, alpha) -> np.ndarray:
    """Normalized weights proportional to exp(-alpha * f_i)."""
    shifted, _ = exponentials(fvals, alpha)
    return shifted / np.add.reduce(shifted, axis=-1, keepdims=True)


def _reduce(positions, fvals, alpha):
    """Consensus points v of shape (..., d), and a function that computes their
    log-normalizers from the reduction's (..., 1) sums and minima alone."""
    shifted, fmin = exponentials(fvals, alpha)
    total = np.add.reduce(shifted, axis=-1, keepdims=True)
    v = np.add.reduce((shifted / total)[..., None] * positions, axis=-2)
    alpha, n = float(alpha), shifted.shape[-1]  # -alpha min f is a zero at alpha 0: f is finite
    return v, lambda: -alpha * fmin[..., 0] + np.log(total[..., 0] / n)


def consensus_reduction(positions, fvals, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """Consensus points v and log-normalizers log((1/N) sum_i exp(-alpha f_i))
    of (N, d) positions with (N,) values, or of each ensemble in a
    (..., N, d) stack with (..., N) values; v has shape (..., d)."""
    v, log_normalizer = _reduce(positions, fvals, alpha)
    return v, log_normalizer()


def consensus_from_values(
    positions: np.ndarray, fvals: np.ndarray, alpha: float, f: ObjectiveFunction
) -> ConsensusPoint:
    """Build the consensus point, or a stacked one, from precomputed objective values."""
    v, log_normalizer = _reduce(positions, fvals, alpha)
    f_at_v = np.asarray(f(v), dtype=float).tolist() if v.ndim > 1 else float(f(v))
    return _lazy_point(v, f_at_v, lambda: log_normalizer().tolist())  # floats, as f_at_v


def weighted_mean(e: Ensemble, f: ObjectiveFunction, alpha: float) -> ConsensusPoint:
    """Consensus point of the full ensemble."""
    fvals = np.asarray(f(e.positions), dtype=float)
    return consensus_from_values(e.positions, fvals, alpha, f)


def laplace_value(e: Ensemble, f: ObjectiveFunction, alpha: float) -> float:
    """-(1/alpha) log((1/N) sum exp(-alpha f(X^i))); tends to min f as alpha grows."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    _, log_normalizer = consensus_reduction(e.positions, f(e.positions), alpha)
    return float(-log_normalizer / alpha)
