"""Weighted consensus mean and Laplace-principle values.

Weights are exp(-alpha * f) normalized to probabilities. The sample minimum
of f is subtracted inside the exponent first, so every exponential lies in
[0, 1]. The rare calls where alpha (f - min f) or alpha min f passes the
float range (alpha up to 1e308) ignore the overflow, and only they: the
exponential is 0, the log-normalizer +-inf, the Laplace value min f - log(mean)/alpha.
`consensus_mean` reduces positions under these weights to the consensus
point, and `log_normalizer` reduces the same shifted exponentials to the
Laplace log-normalizer; each works on one ensemble or on a stack of
replicas, and each caller computes only the one it reads. `laplace_estimate`
takes the Laplace value and its standard error from one set of exponentials.
Reductions use numpy's index-ascending pairwise sums, which keeps results
identical no matter how the f-evaluations were scheduled across workers.
One function per quantity, each built on the one before: `exponentials`,
`weights`, `consensus_mean`, `consensus_from_values`, `weighted_mean`.
`exponentials` alone converts values to float64 (an `ObjectiveFunction`'s
pass after a type test) and alpha to a float, so every entry point takes
lists, other dtypes and plain functions; the weights' three (..., N)
temporaries are one array, written in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .ensemble import Ensemble
from .objectives import ObjectiveFunction, _floats


@dataclass(frozen=True)
class ConsensusPoint:
    """Weighted mean of particle positions under weights exp(-alpha f)."""

    v: np.ndarray
    f_at_v: float

    def __getitem__(self, j):
        """Point j, or a slice of points, of a stacked point (v of shape (q, d))."""
        return ConsensusPoint(self.v[j], self.f_at_v[j])


def exponentials(fvals, alpha) -> Tuple[np.ndarray, np.ndarray]:
    """exp(-alpha (f_i - min f)) over the last axis of `fvals`, in one new
    array, and the minima min f of shape (..., 1): the weights up to their
    normalization, and the shift of the exponent. alpha is any real number,
    checked here with one comparison."""
    fvals, alpha = _floats(fvals), float(alpha)
    if fvals.ndim < 1 or fvals.size < 1:
        raise ValueError("fvals must be nonempty along the particle axis")
    fmin = np.minimum.reduce(fvals, axis=-1, keepdims=True)
    top = float(np.maximum.reduce(fvals, axis=None))
    one = fmin.size == 1  # one ensemble: its minimum is subtracted as a float
    low = fmin.item(0) if one else float(min(fmin.flat))
    if not (math.isfinite(top) and math.isfinite(low)):  # a NaN reaches top, -inf low
        raise ValueError("non-finite objective value in weights")
    if not 0.0 <= alpha < math.inf:  # a NaN fails it too
        raise ValueError("alpha must be finite and nonnegative")
    if alpha == 0.0:  # 0 * inf is NaN where f spans more than the float range
        return np.ones_like(fvals), fmin
    if math.isfinite(alpha * (top - low)):
        t = np.subtract(fvals, low if one else fmin)
        return np.exp(np.multiply(-alpha, t, out=t), out=t), fmin
    with np.errstate(over="ignore"):  # an exponent past the float range: its exponential is 0
        return np.exp(-alpha * (fvals - fmin)), fmin


def weights(fvals, alpha) -> np.ndarray:
    """Normalized weights proportional to exp(-alpha * f_i)."""
    shifted, _ = exponentials(fvals, alpha)
    total = np.add.reduce(shifted, axis=-1, keepdims=shifted.ndim > 1)  # one ensemble's: a scalar
    return np.divide(shifted, total, out=shifted)


def consensus_mean(positions, fvals, alpha, scratch=None) -> np.ndarray:
    """Consensus points v of (N, d) positions with (N,) values, or of each
    ensemble in a (..., N, d) stack with (..., N) values; v has shape (..., d).
    `scratch`, an array of the positions' shape, holds the weighted product
    if given."""
    w = weights(fvals, alpha)
    return np.add.reduce(np.multiply(w[..., None], positions, out=scratch), axis=-2)


def log_normalizer(fvals, alpha):
    """log((1/N) sum_i exp(-alpha f_i)) over the last axis of `fvals`, stabilized
    by the shift -alpha min f, which is a zero at alpha 0 since f is finite."""
    return _log_mean(*exponentials(fvals, alpha), alpha)


def _log_mean(shifted, fmin, alpha):
    n = shifted.shape[-1]
    with np.errstate(over="ignore"):  # -alpha min f past the float range is -inf or inf
        return -float(alpha) * fmin[..., 0] + np.log(np.add.reduce(shifted, axis=-1) / n)


def consensus_from_values(
    positions: np.ndarray, fvals: np.ndarray, alpha: float, f: ObjectiveFunction, scratch=None
) -> ConsensusPoint:
    """Build the consensus point, or a stacked one, from precomputed objective
    values (`scratch` as in `consensus_mean`)."""
    v = consensus_mean(positions, fvals, alpha, scratch)
    return ConsensusPoint(v, _floats(f(v)).tolist() if v.ndim > 1 else float(f(v)))


def weighted_mean(e: Ensemble, f: ObjectiveFunction, alpha: float, scratch=None) -> ConsensusPoint:
    """Consensus point of the full ensemble (`scratch` as in `consensus_mean`)."""
    return consensus_from_values(e.positions, f(e.positions), alpha, f, scratch)


def laplace_estimate(fvals, alpha) -> Tuple[float, float]:
    """The Monte Carlo Laplace value -(1/alpha) log((1/N) sum exp(-alpha f_i))
    of (N,) objective values, which tends to min f as alpha grows, and its
    delta-method standard error (the stabilizing shift cancels in its ratio),
    from one set of shifted exponentials. One value has no sample spread:
    its standard error is nan."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    shifted, fmin = exponentials(fvals, alpha)
    mean, root_n = float(np.mean(shifted)), math.sqrt(shifted.size)
    se = math.nan
    if shifted.size > 1:
        scale, se = alpha * mean * root_n, np.std(shifted, ddof=1)
        se = se / scale if math.isfinite(scale) else se / mean / root_n / alpha
    value = -_log_mean(shifted, fmin, alpha) / alpha
    if not math.isfinite(value):  # alpha min f overflowed: the same value, unscaled
        value = fmin[0] - math.log(mean) / alpha
    return float(value), float(se)
