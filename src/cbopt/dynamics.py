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

Kernels write their large temporaries into the scratch they are given: the
buffers of a `Workspace`, through ufunc ``out=``, with the same operations in
the same order as the formulas, so the bits do not depend on it. Given no
workspace, each ufunc allocates its own array. The returned positions are
always a new array; a personal_best step given a workspace writes its memory
into the workspace's one memory set, in place when it was given that set.
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


class Workspace:
    """Scratch arrays of one shape, owned by one run (or one diagnostic loop)
    and dropped with it: `a`, `b` and `c` for temporaries and `memory`, made
    on first use, for personal_best's memory. A workspace is not
    thread-safe; give each thread its own."""

    def __init__(self, shape):
        self.a, self.b, self.c = (np.empty(shape) for _ in range(3))

    @cached_property
    def memory(self) -> "PersonalBestMemory":
        return PersonalBestMemory.empty(self.a.shape)


def _scratch(ws: Optional[Workspace]):
    """The buffers a, b and c of `ws`, or three None: a ufunc given out=None
    allocates its own array."""
    return (None, None, None) if ws is None else (ws.a, ws.b, ws.c)


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
    def initial(cls, e: Ensemble, out=None) -> "PersonalBestMemory":
        """No weight yet, and p at the positions; written into the arrays of
        `out` if given."""
        out = cls.empty(e.positions.shape) if out is None else out
        out.scaled_num.fill(0.0)
        out.scaled_den.fill(0.0)
        out.log_scale.fill(-np.inf)
        np.copyto(out.p, e.positions)
        return out

    @classmethod
    def empty(cls, shape) -> "PersonalBestMemory":
        n, d = shape
        return cls(np.empty((n, d)), np.empty(n), np.empty(n), np.empty((n, d)))

    def accumulate(self, positions, fvals, beta, dt, out=None) -> "PersonalBestMemory":
        """Add one left-endpoint rectangle of the weighted time integrals;
        the result is written into the arrays of `out`, which may be this
        memory, or into new ones, and returned."""
        out = PersonalBestMemory.empty(self.p.shape) if out is None else out
        g = -beta * np.asarray(fvals, dtype=float)
        scale = np.maximum(self.log_scale, g)
        carry = np.exp(self.log_scale - scale)  # 0 on the very first call
        w = np.exp(g - scale) * dt
        out.log_scale[...] = scale  # the old log-scale is read by now
        num = np.multiply(self.scaled_num, carry[:, None], out=out.scaled_num)
        np.add(num, np.multiply(positions, w[:, None], out=out.p), out=num)
        den = np.multiply(self.scaled_den, carry, out=out.scaled_den)
        np.add(den, w, out=den)
        np.divide(num, den[:, None], out=out.p)
        return out


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


def _row_norms(x, out=None) -> np.ndarray:
    """|x| over the last axis, as np.linalg.norm computes it; `out` holds x*x."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=out), axis=-1))


def isotropic_kick(positions, v, lam, sigma, dt, z, gate=1.0, ws=None) -> np.ndarray:
    """Isotropic Euler-Maruyama update toward a given consensus point v, its
    noise scaled by |X - v| over the last axis: the original variant's step
    (sigma with its sqrt(2), gate its Heaviside factor) and the frozen-moment
    diagnostic's (v = 0). Computes
    positions - lam * dt * diff * gate + sigma * sqrt(dt) * |diff| * z
    with diff = positions - v, its temporaries in `ws`."""
    a, b, _ = _scratch(ws)
    diff = np.subtract(positions, v, out=a)
    dist = _row_norms(diff, b)[..., None]
    drift = np.multiply(np.multiply(lam * dt, diff, out=b), gate, out=b)
    noise = np.multiply(sigma * np.sqrt(dt) * dist, z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise)


def anisotropic_kick(positions, v, lam, sigma, dt, z, ws=None) -> np.ndarray:
    """Component-wise Euler-Maruyama update toward a given consensus point
    v: the step of the anisotropic and common_noise variants, random batches
    (a stack too, with `sigma` and `dt` per ensemble), the pairwise replica
    sweep and the frozen-moment diagnostic (v = 0). Computes
    positions - lam * dt * diff + sigma * sqrt(dt) * diff * z
    with diff = positions - v, its temporaries in `ws`."""
    a, b, _ = _scratch(ws)
    diff = np.subtract(positions, v, out=a)
    drift = np.multiply(lam * dt, diff, out=b)
    noise = np.multiply(np.multiply(sigma * np.sqrt(dt), diff, out=diff), z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise)


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


def _tangential(x, y, norms_sq, out=None) -> np.ndarray:
    """Row-wise projection onto the tangent space of the sphere at x:
    P(x) y = y - x (x.y)/|x|^2, written into `out`."""
    xy = np.multiply(x, y, out=out)
    proj = np.multiply(x, (np.add.reduce(xy, axis=1) / norms_sq)[:, None], out=xy)
    return np.subtract(y, proj, out=proj)


def _update(e, f, p: VariantParams, z, mem, cp, ws):
    """Euler-Maruyama update (X - drift) + noise of p.variant with the draw
    z, before the sphere renormalization; returns it with the updated
    personal-best memory. The update is a new array, except the sphere's,
    which is in `ws`."""
    if p.variant == "personal_best" and mem is None:
        raise ValueError("personal_best variant needs a PersonalBestMemory")
    a, b, c = _scratch(ws)
    if cp is None:
        cp = weighted_mean(e, f, p.alpha, a)
    x = e.positions
    if p.variant in ("anisotropic", "common_noise"):
        # a coordinate that matches the consensus stays put; common noise
        # shares one draw per coordinate, so coincident particles stay so
        return anisotropic_kick(x, cp.v, p.lam, p.sigma, p.dt, z, ws), mem
    if p.variant == "original":
        gate = 1.0
        if p.heaviside_mode != "off":  # f(x) first: the kick's temporaries add no peak memory
            fx = np.asarray(f(x), dtype=float)
            gate = heaviside(fx - cp.f_at_v, p.heaviside_mode, p.epsilon)[:, None]
        return isotropic_kick(x, cp.v, p.lam, math.sqrt(2.0) * p.sigma, p.dt, z, gate, ws), mem
    diff = np.subtract(x, cp.v, out=a)
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
        # the p of the memory that accumulate fills next
        target = None if ws is None else ws.memory
        drift = np.multiply(lam_gate[:, None], diff, out=b)
        pull = np.subtract(x, mem.p, out=None if target is None else target.p)
        np.add(drift, np.multiply(mu_gate[:, None], pull, out=pull), out=drift)
        np.multiply(p.dt, drift, out=drift)
        noise = np.multiply(math.sqrt(2.0) * p.sigma * sqrt_dt, diff, out=diff)
        np.multiply(noise, z, out=noise)
        mem = mem.accumulate(x, fx, p.beta, p.dt, target)
        return np.add(np.subtract(x, drift, out=drift), noise), mem
    # sphere: tangential drift and diffusion
    norms_sq = np.add.reduce(np.multiply(x, x, out=b), axis=1)
    if np.any(norms_sq < 1e-24):
        raise SingularityError("particle at the origin: projection undefined")
    dist_sq = np.add.reduce(np.multiply(diff, diff, out=b), axis=1)
    drift = np.multiply(p.lam * p.dt, _tangential(x, diff, norms_sq, b), out=b)
    noise = _tangential(x, z, norms_sq, c)
    np.multiply(p.sigma * sqrt_dt * np.sqrt(dist_sq)[:, None], noise, out=noise)
    # Ito correction along the outward normal: grad|x|=x/|x|, lap|x|=(d-1)/|x|
    curvature = dist_sq * (e.dimension - 1.0) / norms_sq
    correction = np.multiply(0.5 * p.sigma**2 * p.dt * curvature[:, None], x, out=diff)
    new = np.add(np.subtract(x, drift, out=drift), noise, out=drift)
    return np.subtract(new, correction, out=new), mem


def step(
    e,
    f,
    p: VariantParams,
    z,
    mem: Optional[PersonalBestMemory] = None,
    cp: Optional[ConsensusPoint] = None,
    ws: Optional[Workspace] = None,
):
    """Advance one step of p.variant with the normal draw z, of
    `noise_shape(p, e.positions.shape)`; returns (ensemble, memory).

    The caller draws z (`harness.run` takes step k's block of the
    STREAM_DIFFUSION stream), and the step only reads it. `cp` defaults to
    the weighted mean of `e`. `mem` is required by the personal_best
    variant, which returns it updated by one left-endpoint rectangle of its
    weighted time integrals; the other variants pass it through. The sphere
    variant needs unit-norm rows on entry and returns unit-norm rows. `ws`,
    a workspace of the positions' shape, takes the step's temporaries and
    personal_best's memory, `ws.memory`, which holds until the next step;
    the new positions never alias it.
    """
    new, mem = _update(e, f, p, z, mem, cp, ws)
    if p.variant == "sphere":
        norms = _row_norms(new, None if ws is None else ws.c)
        if np.any(norms < 1e-12):
            raise SingularityError("renormalization hit the origin")
        new = new / norms[:, None]
    return advance(e, new, p.dt), mem


def sphere_norm_drift(e, f, p, z, cp: Optional[ConsensusPoint] = None) -> float:
    """Max | |row| - 1 | of the sphere update with the draw z before
    renormalization; first-order consistency makes this O(dt)."""
    if p.variant != "sphere":
        raise ValueError("sphere_norm_drift needs the sphere variant")
    raw, _ = _update(e, f, p, z, None, cp, None)
    return float(np.max(np.abs(_row_norms(raw) - 1.0)))
