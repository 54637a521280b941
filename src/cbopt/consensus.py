"""Weighted consensus mean and Laplace-principle values.

Weights are exp(-alpha * f) normalized to probabilities. The sample minimum
of f is subtracted inside the exponent first, so all weights lie in (0, 1]
and no overflow occurs even for alpha of order 1e6 on a bounded f-range.
One reduction evaluates these shifted exponentials once and derives the
consensus point and the log-normalizer from them, for one ensemble or for
a stack of replicas. Reductions use numpy's index-ascending pairwise sums,
which keeps results identical no matter how the f-evaluations were
scheduled across workers.
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
    """Weighted mean of particle positions under weights exp(-alpha f)."""

    v: np.ndarray
    f_at_v: float
    log_normalizer: float  # log((1/N) sum_i exp(-alpha f_i)), stabilized

    def __getitem__(self, j):
        """Point j, or a slice of points, of a stacked point (v of shape (q, d))."""
        return ConsensusPoint(self.v[j], self.f_at_v[j], self.log_normalizer[j])


def exponentials(fvals, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """exp(-alpha (f_i - min f)) over the last axis of `fvals`, and the shift
    -alpha min f of each ensemble: the weights up to their normalization,
    and the offset of the log-normalizer."""
    fvals = np.asarray(fvals, dtype=float)
    if fvals.ndim < 1 or fvals.size < 1:
        raise ValueError("fvals must be nonempty along the particle axis")
    if not np.isfinite(fvals).all():
        raise ValueError("non-finite objective value in weights")
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError("alpha must be finite and nonnegative")
    fmin = np.minimum.reduce(fvals, axis=-1, keepdims=True)
    if alpha == 0.0:  # 0 * inf is NaN where f spans more than the float range
        return np.ones_like(fvals), np.zeros(fmin.shape[:-1])
    return np.exp(-alpha * (fvals - fmin)), -alpha * fmin[..., 0]


def weights(fvals, alpha) -> np.ndarray:
    """Normalized weights proportional to exp(-alpha * f_i)."""
    shifted, _ = exponentials(fvals, alpha)
    return shifted / np.add.reduce(shifted, axis=-1, keepdims=True)


def consensus_reduction(positions, fvals, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """Consensus points v and log-normalizers log((1/N) sum_i exp(-alpha f_i))
    of (N, d) positions with (N,) values, or of each ensemble in a
    (..., N, d) stack with (..., N) values; v has shape (..., d)."""
    shifted, shift = exponentials(fvals, alpha)
    total = np.add.reduce(shifted, axis=-1, keepdims=True)
    v = np.add.reduce((shifted / total)[..., None] * positions, axis=-2)
    return v, shift + np.log(total[..., 0] / shifted.shape[-1])


def consensus_from_values(
    positions: np.ndarray, fvals: np.ndarray, alpha: float, f: ObjectiveFunction
) -> ConsensusPoint:
    """Build the consensus point, or a stacked one, from precomputed objective values."""
    v, log_normalizer = consensus_reduction(positions, fvals, alpha)
    if v.ndim > 1:  # one f call on the q points; lists of q floats
        return ConsensusPoint(v, np.asarray(f(v), dtype=float).tolist(), log_normalizer.tolist())
    return ConsensusPoint(v=v, f_at_v=float(f(v)), log_normalizer=float(log_normalizer))


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
