"""One step kernel for the five consensus-dynamics variants.

`step` advances every variant the same way: it computes the consensus
point once from the pre-step positions (synchronous update), makes one
normal draw z keyed by the ensemble's step counter, forms the Euler-Maruyama
update (X - drift) + noise, and checks it once for finiteness. Its kicks are
pure transforms of (positions, v, z) that the library reuses: `isotropic_kick`
(noise sigma |X - v| z and a gated drift: original) and `anisotropic_kick`
(noise sigma (X - v)_k z_k: anisotropic, and common_noise with one draw per
coordinate shared by all particles). personal_best adds a gated pull toward
a per-particle memory; sphere takes tangential projections with an Ito
correction and renormalizes. An exact heaviside gate is a comparison, and
`gate_pair` builds an exact pair of gates with one conjunction, bitwise what
their product gives. Per-particle work is independent within a step; the
consensus reduction is the only synchronization point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .consensus import ConsensusPoint, weighted_mean
from .ensemble import Ensemble, FieldError, RngPlan, STREAM_DIFFUSION, check_choice

VARIANTS = ("original", "anisotropic", "common_noise", "personal_best", "sphere")
HEAVISIDE_MODES = ("off", "exact", "regularized")


class DivergenceError(RuntimeError):
    """A step produced non-finite coordinates; carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite particle coordinates after step {step}")
        self.step = step


class SingularityError(RuntimeError):
    """The sphere projection was evaluated at (or renormalization hit) the origin."""


@dataclass(frozen=True)
class VariantParams:
    """Coefficients of the particle dynamics.

    ``sigma`` multiplies the noise exactly as written in each variant's
    update rule; the original and personal-best dynamics carry their own
    extra sqrt(2) factor, the others use sigma directly.
    """

    lam: float = 1.0
    sigma: float = 1.0
    alpha: float = 30.0
    dt: float = 0.01
    epsilon: float = 1e-3
    beta: float = 1.0
    heaviside_mode: str = "off"
    variant: str = "anisotropic"

    def __post_init__(self):
        for name in ("lam", "sigma", "alpha", "beta"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise FieldError(name, "must be finite and nonnegative")
        for name in ("dt", "epsilon"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise FieldError(name, "must be finite and positive")
        check_choice("heaviside_mode", self.heaviside_mode, HEAVISIDE_MODES)
        check_choice("variant", self.variant, VARIANTS)


@dataclass
class PersonalBestMemory:
    """Exponentially weighted time-averages approximating each particle's
    best visited point.

    The running integrals are stored scaled by exp(-log_scale), where
    log_scale is the per-particle running max of -beta*f, so the weights
    never underflow no matter how large beta*f gets.
    """

    scaled_num: np.ndarray  # (N, d)
    scaled_den: np.ndarray  # (N,)
    log_scale: np.ndarray  # (N,)
    p: np.ndarray  # (N, d) current personal-best estimates

    @classmethod
    def initial(cls, e: Ensemble) -> "PersonalBestMemory":
        n, d = e.positions.shape
        return cls(
            scaled_num=np.zeros((n, d)),
            scaled_den=np.zeros(n),
            log_scale=np.full(n, -np.inf),
            p=e.positions.copy(),
        )

    def accumulate(self, positions, fvals, beta, dt) -> "PersonalBestMemory":
        """Add one left-endpoint rectangle of the weighted time integrals."""
        g = -beta * np.asarray(fvals, dtype=float)
        scale = np.maximum(self.log_scale, g)
        carry = np.exp(self.log_scale - scale)  # 0 on the very first call
        w = np.exp(g - scale) * dt
        num = self.scaled_num * carry[:, None] + positions * w[:, None]
        den = self.scaled_den * carry + w
        return PersonalBestMemory(num, den, scale, num / den[:, None])


def heaviside(x, mode: str, epsilon: Optional[float] = None):
    """Gate multiplier in [0, 1]: step at 0, tanh regularization, or constant 1."""
    x = np.asarray(x, dtype=float)
    if mode == "off":
        out = np.ones_like(x)
    elif mode == "exact":
        out = (x >= 0.0).astype(float)
    elif mode == "regularized":
        if epsilon is None or not epsilon > 0.0:
            raise ValueError("regularized heaviside needs positive epsilon")
        with np.errstate(over="ignore"):  # |x| / epsilon may overflow; tanh(+-inf) is +-1
            out = 0.5 + 0.5 * np.tanh(x / epsilon)
    else:
        raise ValueError(f"unknown heaviside mode {mode!r}")
    return float(out) if out.ndim == 0 else out


def gate_pair(a, b, mode: str, epsilon: Optional[float] = None):
    """heaviside(a) * heaviside(b) in `mode`, bit for bit, for float arrays."""
    if mode == "exact":  # two comparisons and one conjunction, in place
        both = a >= 0.0
        both &= b >= 0.0
        return both.astype(float)
    return heaviside(a, mode, epsilon) * heaviside(b, mode, epsilon)


def consensus_condition(p: VariantParams, d: int) -> bool:
    """Concentration check: 2 lam > sigma^2 d for the isotropic original
    dynamic; dimension-independent 2 lam > sigma^2 for the component-wise ones."""
    if p.variant == "original":
        return 2.0 * p.lam > p.sigma**2 * d
    return 2.0 * p.lam > p.sigma**2


def isotropic_kick(positions, v, lam, sigma, dt, z, gate=1.0) -> np.ndarray:
    """Isotropic Euler-Maruyama update toward a given consensus point v, its
    noise scaled by |X - v| over the last axis: the original variant's step
    (sigma with its sqrt(2), gate its Heaviside factor) and the frozen-moment
    diagnostic's (v = 0)."""
    diff = positions - v
    dist = np.linalg.norm(diff, axis=-1)[..., None]
    return positions - lam * dt * diff * gate + sigma * np.sqrt(dt) * dist * z


def anisotropic_kick(positions, v, lam, sigma, dt, z) -> np.ndarray:
    """Component-wise Euler-Maruyama update toward a given consensus point
    v: the step of the anisotropic and common_noise variants, random batches
    (a stack too, with `sigma` and `dt` per ensemble), the pairwise replica
    sweep and the frozen-moment diagnostic (v = 0)."""
    diff = positions - v
    return positions - lam * dt * diff + sigma * np.sqrt(dt) * diff * z


def advance(e: Ensemble, positions: np.ndarray, dt: float) -> Ensemble:
    """The ensemble moved to `positions` by one step of size dt.

    This is the step's one finiteness check: a non-finite coordinate raises
    DivergenceError naming the step. The constructor's checks are skipped,
    because they would test the same array again.
    """
    if not np.logical_and.reduce(np.isfinite(positions), axis=None):
        raise DivergenceError(e.step_count)
    nxt = object.__new__(Ensemble)
    nxt.positions, nxt.time, nxt.step_count = positions, e.time + dt, e.step_count + 1
    return nxt


def _tangential(x, y, norms_sq) -> np.ndarray:
    """Row-wise projection onto the tangent space of the sphere at x:
    P(x) y = y - x (x.y)/|x|^2."""
    return y - x * (np.add.reduce(x * y, axis=1) / norms_sq)[:, None]


def _update(e, f, p: VariantParams, rng: RngPlan, mem, cp):
    """Euler-Maruyama update (X - drift) + noise of p.variant, before the
    sphere renormalization; returns it with the updated personal-best memory."""
    if p.variant == "personal_best" and mem is None:
        raise ValueError("personal_best variant needs a PersonalBestMemory")
    if cp is None:
        cp = weighted_mean(e, f, p.alpha)
    x = e.positions
    shape = (e.dimension,) if p.variant == "common_noise" else x.shape
    z = rng.normal_block(STREAM_DIFFUSION, e.step_count, shape)
    if p.variant in ("anisotropic", "common_noise"):
        # a coordinate that matches the consensus stays put; common noise
        # shares one draw per coordinate, so coincident particles stay so
        return anisotropic_kick(x, cp.v, p.lam, p.sigma, p.dt, z), mem
    if p.variant == "original":
        gate = 1.0
        if p.heaviside_mode != "off":  # f(x) first: the kick's temporaries add no peak memory
            fx = np.asarray(f(x), dtype=float)
            gate = heaviside(fx - cp.f_at_v, p.heaviside_mode, p.epsilon)[:, None]
        return isotropic_kick(x, cp.v, p.lam, math.sqrt(2.0) * p.sigma, p.dt, z, gate), mem
    diff = x - cp.v
    sqrt_dt = math.sqrt(p.dt)
    if p.variant == "personal_best":
        # pure Heaviside gates pick the pull toward v or toward the personal
        # best, whichever has the smaller objective value; mode 'off' falls
        # back to exact gating, since ungated dual drift would pin particles
        # in between
        mode = "exact" if p.heaviside_mode == "off" else p.heaviside_mode
        fx = np.asarray(f(x), dtype=float)
        fp = np.asarray(f(mem.p), dtype=float)
        lam_gate = gate_pair(fx - cp.f_at_v, fp - cp.f_at_v, mode, p.epsilon)
        mu_gate = gate_pair(fx - fp, cp.f_at_v - fp, mode, p.epsilon)
        drift = p.dt * (lam_gate[:, None] * diff + mu_gate[:, None] * (x - mem.p))
        noise = math.sqrt(2.0) * p.sigma * sqrt_dt * diff * z
        mem = mem.accumulate(x, fx, p.beta, p.dt)
    else:  # sphere: tangential drift and diffusion
        norms_sq = np.add.reduce(x * x, axis=1)
        if np.any(norms_sq < 1e-24):
            raise SingularityError("particle at the origin: projection undefined")
        dist_sq = np.add.reduce(diff * diff, axis=1)
        drift = p.lam * p.dt * _tangential(x, diff, norms_sq)
        noise = p.sigma * sqrt_dt * np.sqrt(dist_sq)[:, None] * _tangential(x, z, norms_sq)
        # Ito correction along the outward normal: grad|x|=x/|x|, lap|x|=(d-1)/|x|
        curvature = dist_sq * (e.dimension - 1.0) / norms_sq
        correction = 0.5 * p.sigma**2 * p.dt * curvature[:, None] * x
    new = (x - drift) + noise
    if p.variant == "sphere":
        new = new - correction
    return new, mem


def step(
    e,
    f,
    p: VariantParams,
    rng: RngPlan,
    mem: Optional[PersonalBestMemory] = None,
    cp: Optional[ConsensusPoint] = None,
):
    """Advance one step of p.variant; returns (ensemble, memory).

    `cp` defaults to the weighted mean of `e`. `mem` is required by the
    personal_best variant, which returns it updated by one left-endpoint
    rectangle of its weighted time integrals; the other variants pass it
    through. The sphere variant needs unit-norm rows on entry and returns
    unit-norm rows.
    """
    new, mem = _update(e, f, p, rng, mem, cp)
    if p.variant == "sphere":
        norms = np.linalg.norm(new, axis=1)
        if np.any(norms < 1e-12):
            raise SingularityError("renormalization hit the origin")
        new = new / norms[:, None]
    return advance(e, new, p.dt), mem


def sphere_norm_drift(e, f, p, rng: RngPlan, cp: Optional[ConsensusPoint] = None) -> float:
    """Max | |row| - 1 | of the sphere update before renormalization;
    first-order consistency makes this O(dt)."""
    if p.variant != "sphere":
        raise ValueError("sphere_norm_drift needs the sphere variant")
    raw, _ = _update(e, f, p, rng, None, cp)
    return float(np.max(np.abs(np.linalg.norm(raw, axis=1) - 1.0)))
