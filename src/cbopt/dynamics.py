"""One step kernel for the five consensus-dynamics variants.

`step` advances every variant the same way: it computes the consensus
point once from the pre-step positions (synchronous update), takes the
step's normal draw z, of `noise_shape`, from its caller, forms the
Euler-Maruyama update (X - drift) + noise, and checks it once for
finiteness. Its kicks are
pure transforms of (positions, v, z) that the library reuses: `isotropic_kick`
(noise sigma |X - v| z and a gated drift: original) and `anisotropic_kick`
(noise sigma (X - v)_k z_k: anisotropic, and common_noise with one draw per
coordinate shared by all particles). personal_best gates a pull toward v
(rate lam) against one toward a per-particle memory (rate 1); sphere takes
tangential projections with an Ito correction and renormalizes. An exact
heaviside gate is a comparison, and `gate_pair` builds an exact pair of
gates with one conjunction, bitwise what their product gives. Per-particle
work is independent within a step; the consensus reduction is the only
synchronization point.

Kernels write their large temporaries through ufunc ``out=``, in the
formulas' order, so the bits are those of fresh arrays: the first into the
`Workspace` they are given, or `step` makes, the second into the update's
result, a new array each kernel allocates once. A step returns only the new
ensemble, whose positions are always a new array; a personal_best step
updates the one `PersonalBestMemory` it is given in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .consensus import ConsensusPoint, weighted_mean
from .ensemble import Ensemble, FieldError, check_choice

VARIANTS = ("original", "anisotropic", "common_noise", "personal_best", "sphere")
HEAVISIDE_MODES = ("off", "exact", "regularized")


class DivergenceError(RuntimeError):
    """A run met non-finite numbers at a step: by default the coordinates
    that step produced; carries the step index. Its args are (step, what),
    so a copy unpickled from a campaign worker keeps its message."""

    def __init__(self, step: int, what: str = "non-finite particle coordinates after step"):
        super().__init__(step, what)
        self.step, self.what = step, what

    def __str__(self) -> str:
        return f"{self.what} {self.step}"


class SingularityError(RuntimeError):
    """The sphere projection was evaluated at (or renormalization hit) the
    origin; the message names the step."""


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


class Workspace:
    """Scratch arrays of one shape, owned by one run, loop or call and dropped
    with it: `a` for a kernel's first temporary (its second is the update's
    own result array), and, made on first use, `c` (which only the sphere
    update and the split integrator read). A workspace holds no state from
    one step to the next and is not thread-safe; give each thread its own."""

    def __init__(self, shape):
        self.a = np.empty(shape)

    @cached_property
    def c(self) -> np.ndarray:
        return np.empty(self.a.shape)


@dataclass
class PersonalBestMemory:
    """Exponentially weighted time-averages approximating each particle's
    best visited point: the one memory set of a personal_best run, which
    `initial` makes and every step updates in place.

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
        """A new memory set of e's shape: no weight yet, and p at the positions."""
        n, d = e.positions.shape
        return cls(np.zeros((n, d)), np.zeros(n), np.full(n, -np.inf), e.positions.copy())

    def accumulate(self, positions, fvals, beta, dt) -> None:
        """Add one left-endpoint rectangle of the weighted time integrals, in
        place; p is only written, so it may hold scratch on entry."""
        g = -beta * np.asarray(fvals, dtype=float)
        scale = np.maximum(self.log_scale, g)
        carry = np.exp(self.log_scale - scale)  # 0 on the very first call
        w = np.exp(g - scale) * dt
        self.log_scale[...] = scale  # the old log-scale is read by now
        num = np.multiply(self.scaled_num, carry[:, None], out=self.scaled_num)
        np.add(num, np.multiply(positions, w[:, None], out=self.p), out=num)
        den = np.multiply(self.scaled_den, carry, out=self.scaled_den)
        np.add(den, w, out=den)
        np.divide(num, den[:, None], out=self.p)


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


def noise_shape(p: VariantParams, shape) -> tuple:
    """Shape of the normal draw z of one p.variant step of positions of
    `shape`: one number per coordinate, shared by all particles, for
    common_noise, else one per particle and coordinate."""
    return tuple(shape[-1:] if p.variant == "common_noise" else shape)


def consensus_condition(p: VariantParams, d: int) -> bool:
    """Concentration check: 2 lam > sigma^2 d for the isotropic original
    dynamic; dimension-independent 2 lam > sigma^2 for the component-wise ones."""
    if p.variant == "original":
        return 2.0 * p.lam > p.sigma**2 * d
    return 2.0 * p.lam > p.sigma**2


def _row_norms(x, out) -> np.ndarray:
    """|x| over the last axis, as np.linalg.norm computes it; `out` holds x*x."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=out), axis=-1))


def isotropic_kick(positions, v, lam, sigma, dt, z, ws, gate=1.0) -> np.ndarray:
    """Isotropic Euler-Maruyama update toward a given consensus point v, its
    noise scaled by |X - v| over the last axis: the original variant's step
    (sigma with its sqrt(2), gate its Heaviside factor) and the frozen-moment
    diagnostic's (v = 0). Computes
    positions - lam * dt * diff * gate + sigma * sqrt(dt) * |diff| * z
    with diff = positions - v in the workspace `ws`; the result, a new array,
    holds the drift first."""
    diff = np.subtract(positions, v, out=ws.a)
    new = np.empty(diff.shape)
    dist = _row_norms(diff, new)[..., None]
    drift = np.multiply(np.multiply(lam * dt, diff, out=new), gate, out=new)
    noise = np.multiply(sigma * np.sqrt(dt) * dist, z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise, out=drift)


def anisotropic_kick(positions, v, lam, sigma, dt, z, ws) -> np.ndarray:
    """Component-wise Euler-Maruyama update toward a given consensus point
    v: the step of the anisotropic and common_noise variants, random batches
    (a stack too, with `sigma` and `dt` per ensemble), the pairwise replica
    sweep and the frozen-moment diagnostic (v = 0). Computes
    positions - lam * dt * diff + sigma * sqrt(dt) * diff * z
    with diff = positions - v in the workspace `ws`; the result, a new array,
    holds the drift first."""
    diff = np.subtract(positions, v, out=ws.a)
    drift = np.multiply(lam * dt, diff)
    noise = np.multiply(np.multiply(sigma * np.sqrt(dt), diff, out=diff), z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise, out=drift)


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


def _tangential(x, y, norms_sq, out) -> np.ndarray:
    """Row-wise projection onto the tangent space of the sphere at x:
    P(x) y = y - x (x.y)/|x|^2, written into `out`."""
    xy = np.multiply(x, y, out=out)
    proj = np.multiply(x, (np.add.reduce(xy, axis=1) / norms_sq)[:, None], out=xy)
    return np.subtract(y, proj, out=proj)


def _update(e, f, p: VariantParams, z, mem, cp, ws):
    """Euler-Maruyama update (X - drift) + noise of p.variant with the draw
    z, before the sphere renormalization, as a new array; its temporaries
    are in the workspace `ws` and the update itself. personal_best's memory
    `mem` is updated in place."""
    if p.variant == "personal_best" and mem is None:
        raise ValueError("personal_best variant needs a PersonalBestMemory")
    if cp is None:
        cp = weighted_mean(e, f, p.alpha, ws.a)
    x = e.positions
    if p.variant in ("anisotropic", "common_noise"):
        # a coordinate that matches the consensus stays put; common noise
        # shares one draw per coordinate, so coincident particles stay so
        return anisotropic_kick(x, cp.v, p.lam, p.sigma, p.dt, z, ws)
    if p.variant == "original":
        gate = 1.0
        if p.heaviside_mode != "off":  # f(x) first: the kick's temporaries add no peak memory
            fx = np.asarray(f(x), dtype=float)
            gate = heaviside(fx - cp.f_at_v, p.heaviside_mode, p.epsilon)[:, None]
        return isotropic_kick(x, cp.v, p.lam, math.sqrt(2.0) * p.sigma, p.dt, z, ws, gate)
    diff = np.subtract(x, cp.v, out=ws.a)
    sqrt_dt = math.sqrt(p.dt)
    if p.variant == "personal_best":
        # pure Heaviside gates pick the pull toward v (rate lam) or toward the
        # personal best (rate 1), whichever has the smaller objective value;
        # mode 'off' falls back to exact gating, since ungated dual drift
        # would pin particles in between
        mode = "exact" if p.heaviside_mode == "off" else p.heaviside_mode
        fx = np.asarray(f(x), dtype=float)
        fp = np.asarray(f(mem.p), dtype=float)
        lam_gate = p.lam * gate_pair(fx - cp.f_at_v, fp - cp.f_at_v, mode, p.epsilon)
        mu_gate = gate_pair(fx - fp, cp.f_at_v - fp, mode, p.epsilon)
        # drift = dt * (lam_gate * diff + mu_gate * (x - p)); x - p goes into
        # mem.p, which is read by now and which accumulate refills next
        drift = np.multiply(lam_gate[:, None], diff)
        pull = np.subtract(x, mem.p, out=mem.p)
        np.add(drift, np.multiply(mu_gate[:, None], pull, out=pull), out=drift)
        np.multiply(p.dt, drift, out=drift)
        noise = np.multiply(math.sqrt(2.0) * p.sigma * sqrt_dt, diff, out=diff)
        np.multiply(noise, z, out=noise)
        mem.accumulate(x, fx, p.beta, p.dt)
        return np.add(np.subtract(x, drift, out=drift), noise, out=drift)
    # sphere: tangential drift and diffusion
    new = np.multiply(x, x)
    norms_sq = np.add.reduce(new, axis=1)
    if np.any(norms_sq < 1e-24):
        raise SingularityError(f"particle at the origin at step {e.step_count}: "
                               "projection undefined")
    dist_sq = np.add.reduce(np.multiply(diff, diff, out=new), axis=1)
    drift = np.multiply(p.lam * p.dt, _tangential(x, diff, norms_sq, new), out=new)
    noise = _tangential(x, z, norms_sq, ws.c)
    np.multiply(p.sigma * sqrt_dt * np.sqrt(dist_sq)[:, None], noise, out=noise)
    # Ito correction along the outward normal: grad|x|=x/|x|, lap|x|=(d-1)/|x|
    curvature = dist_sq * (e.dimension - 1.0) / norms_sq
    correction = np.multiply(0.5 * p.sigma**2 * p.dt * curvature[:, None], x, out=diff)
    new = np.add(np.subtract(x, drift, out=drift), noise, out=drift)
    return np.subtract(new, correction, out=new)


def step(
    e,
    f,
    p: VariantParams,
    z,
    mem: Optional[PersonalBestMemory] = None,
    cp: Optional[ConsensusPoint] = None,
    ws: Optional[Workspace] = None,
) -> Ensemble:
    """Advance one step of p.variant with the normal draw z, of
    `noise_shape(p, e.positions.shape)`; returns the new ensemble.

    The caller draws z (`harness.run` takes step k's block of the
    STREAM_DIFFUSION stream), and the step only reads it. `cp` defaults to
    the weighted mean of `e`. `mem` is required by the personal_best
    variant: the run's one memory set, `PersonalBestMemory.initial(e)` at
    the start, which each step updates in place by one left-endpoint
    rectangle of its weighted time integrals; the other variants ignore it.
    The sphere variant returns unit-norm rows, and its update assumes
    unit-norm rows on entry: rows off the sphere, as a sphere run from a box
    or gaussian init starts, take one step of the formulas and are then
    projected onto the sphere by the renormalization. `ws`, a workspace of
    the positions' shape, takes the step's first temporaries; given none,
    the step makes its own. The new positions are the update, a new array
    that holds its second temporary first and aliases neither `mem` nor
    `ws`; the sphere renormalizes it in place.
    """
    ws = Workspace(e.positions.shape) if ws is None else ws
    new = _update(e, f, p, z, mem, cp, ws)
    if p.variant == "sphere":
        norms = _row_norms(new, ws.c)
        if np.any(norms < 1e-12):
            raise SingularityError(f"renormalization hit the origin at step {e.step_count}")
        np.divide(new, norms[:, None], out=new)
    return advance(e, new, p.dt)


def sphere_norm_drift(e, f, p, z, cp: Optional[ConsensusPoint] = None) -> float:
    """Max | |row| - 1 | of the sphere update with the draw z before
    renormalization; first-order consistency makes this O(dt)."""
    if p.variant != "sphere":
        raise ValueError("sphere_norm_drift needs the sphere variant")
    raw = _update(e, f, p, z, None, cp, Workspace(e.positions.shape))
    return float(np.max(np.abs(_row_norms(raw, raw) - 1.0)))  # raw is scratch: square it in place
