"""Anti-overshoot update schemes for the component-wise dynamics.

Both schemes hold the consensus point fixed over one interval of length
gamma: the splitting scheme solves the drift ODE exactly and then applies
the component-wise noise kick, while the freezing scheme applies the exact
per-coordinate geometric-Brownian-motion solution in one shot. All three
functions are pure per-row transforms of (positions, v, z), safe under any
data-parallel split; none draws: the caller passes the step's normal draw z.
Each writes its temporaries, in the formula's order, through ufunc ``out=``:
`split_drift` its result into `out`, as a ufunc does, `split_diffusion` its
one temporary into its result, a new array, and `frozen_gbm` its first into
the `scratch` array of the positions' shape it is given, or makes when given
none, and its second into its result, a new array.
"""

from __future__ import annotations

import numpy as np


def _check_gamma(gamma: float) -> None:
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")


def split_drift(positions, v, lam, gamma, out=None) -> np.ndarray:
    """Exact contraction toward v: X -> v + (X - v) exp(-lam*gamma)."""
    _check_gamma(gamma)
    t = np.subtract(positions, v, out=out)
    np.multiply(t, np.exp(-lam * gamma), out=t)
    return np.add(v, t, out=t)


def split_diffusion(positions, v, sigma, gamma, z) -> np.ndarray:
    """Component-wise noise kick sigma*sqrt(gamma)*(X - v)_k * z_k after the
    drift solve, as a new array that holds the kick first."""
    _check_gamma(gamma)
    t = np.subtract(positions, v)
    np.multiply(np.multiply(sigma * np.sqrt(gamma), t, out=t), z, out=t)
    return np.add(positions, t, out=t)


def frozen_gbm(positions, v, lam, sigma, gamma, z, scratch=None) -> np.ndarray:
    """Exact per-coordinate GBM solution with the consensus point held at v.

    The exponential factor is positive, so no coordinate ever crosses v;
    at sigma = 0 this coincides bitwise with split_drift.
    """
    _check_gamma(gamma)
    scratch = np.empty(np.shape(positions)) if scratch is None else scratch
    try:
        half_var = 0.5 * sigma**2
    except OverflowError:  # the IEEE value, as a float64 square gives past the float range
        half_var = np.inf
    # exponent = (-lam - sigma^2/2) gamma + sigma sqrt(gamma) z
    exponent = np.multiply(sigma * np.sqrt(gamma), z, out=scratch)
    np.exp(np.add((-lam - half_var) * gamma, exponent, out=exponent), out=exponent)
    t = np.subtract(positions, v)
    return np.add(v, np.multiply(t, exponent, out=t), out=t)
