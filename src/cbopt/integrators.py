"""Anti-overshoot update schemes for the component-wise dynamics.

Both schemes hold the consensus point fixed over one interval of length
gamma: the splitting scheme solves the drift ODE exactly and then applies
the component-wise noise kick, while the freezing scheme applies the exact
per-coordinate geometric-Brownian-motion solution in one shot. All three
functions are pure per-row transforms of (positions, v, z), safe under any
data-parallel split; none draws: the caller passes the step's normal draw z.
"""

from __future__ import annotations

import numpy as np


def _check_gamma(gamma: float) -> None:
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")


def split_drift(positions, v, lam, gamma) -> np.ndarray:
    """Exact contraction toward v: X -> v + (X - v) exp(-lam*gamma)."""
    _check_gamma(gamma)
    return v + (positions - v) * np.exp(-lam * gamma)


def split_diffusion(positions, v, sigma, gamma, z) -> np.ndarray:
    """Component-wise noise kick sigma*sqrt(gamma)*(X - v)_k * z_k after the drift solve."""
    _check_gamma(gamma)
    return positions + sigma * np.sqrt(gamma) * (positions - v) * z


def frozen_gbm(positions, v, lam, sigma, gamma, z) -> np.ndarray:
    """Exact per-coordinate GBM solution with the consensus point held at v.

    The exponential factor is positive, so no coordinate ever crosses v;
    at sigma = 0 this coincides bitwise with split_drift.
    """
    _check_gamma(gamma)
    exponent = (-lam - 0.5 * sigma**2) * gamma + sigma * np.sqrt(gamma) * z
    return v + (positions - v) * np.exp(exponent)
