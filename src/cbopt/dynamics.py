"""Every update rule of the consensus dynamics: one step kernel for the
five variants and the two exact solvers of the component-wise dynamic.

`step` advances every variant the same way: it computes the consensus
point once from the pre-step positions (synchronous update), takes the
step's normal draw z, of `noise_shape`, from its caller, forms the
Euler-Maruyama update (X - drift) + noise, and checks it once for
finiteness. Its kicks, which the library reuses, are `isotropic_kick`
(noise sigma |X - v| z and a gated drift: original) and `anisotropic_kick`
(noise sigma (X - v)_k z_k: anisotropic, and common_noise with one draw per
coordinate shared by all particles). personal_best gates a pull toward v
(rate lam) against one toward a per-particle memory (rate 1); sphere takes
tangential projections with an Ito correction and renormalizes. An exact
heaviside gate is a comparison; personal_best's exact gates take
comparisons of the objective values and one difference (`_exact_gates`).

The gates read f at the positions, at personal_best's memory and at v.
While their stack is small, `_with_f_at_v` evaluates them in one objective
call: [x; p] for personal_best, and [x; v] or [x; p; v] for a consensus
point of `harness.run` whose value is still owed (an `OwedPoint`), which
holds that value from then on.

The exact solvers hold the consensus point fixed over one interval of
length gamma: the splitting scheme solves the drift ODE exactly
(`split_drift`) and then applies the component-wise noise kick
(`split_diffusion`); the freezing scheme applies the exact per-coordinate
geometric-Brownian-motion solution in one shot (`frozen_gbm`). The kicks
and the solvers are pure per-row transforms of (positions, v, z), safe
under any data-parallel split, and none draws: the caller passes the
step's normal draw z. The consensus reduction is the only synchronization
point.

Kernels write their large temporaries through ufunc ``out=``, in the
formulas' order, so the bits are those of fresh arrays: the first into the
`scratch` array of the positions' shape they are given, or `step` and
`frozen_gbm` make when given none, the second into the update's result, a
new array each kernel allocates once; the sphere update reuses the two
again once each is read. Each half of the splitting scheme has one
temporary: `split_drift` writes it, its result, into `out`, as a ufunc
does, and `split_diffusion` into its result, a new array.
A step returns only the new ensemble, whose positions are always a new
array; a personal_best step updates the one `PersonalBestMemory` it is
given in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .consensus import ConsensusPoint, weighted_mean
from .ensemble import Ensemble, FieldError, check_choice
from .objectives import SHARD_MIN_ELEMENTS

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
        g = np.multiply(-beta, fvals)
        scale = np.maximum(self.log_scale, g)
        carry = np.subtract(self.log_scale, scale)
        np.exp(carry, out=carry)  # 0 on the very first call
        w = np.exp(np.subtract(g, scale, out=g), out=g)
        np.multiply(w, dt, out=w)
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
    """heaviside(a) * heaviside(b) in `mode`."""
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


def _sqrt(dt):
    """sqrt(dt): a float's by `math`, bit for bit what numpy gives, and a
    stack's (q, 1, 1) step sizes by numpy."""
    return math.sqrt(dt) if type(dt) is float else np.sqrt(dt)


def isotropic_kick(positions, v, lam, sigma, dt, z, scratch, gate=1.0) -> np.ndarray:
    """Isotropic Euler-Maruyama update toward a given consensus point v, its
    noise scaled by |X - v| over the last axis: the original variant's step
    (sigma with its sqrt(2), gate its Heaviside factor) and the frozen-moment
    diagnostic's (v = 0). Computes
    positions - lam * dt * diff * gate + sigma * sqrt(dt) * |diff| * z
    with diff = positions - v in `scratch`, an array of the positions' shape;
    the result, a new array, holds the drift first."""
    diff = np.subtract(positions, v, out=scratch)
    new = np.empty(diff.shape)
    dist = _row_norms(diff, new)[..., None]
    drift = np.multiply(np.multiply(lam * dt, diff, out=new), gate, out=new)
    noise = np.multiply(sigma * _sqrt(dt) * dist, z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise, out=drift)


def anisotropic_kick(positions, v, lam, sigma, dt, z, scratch) -> np.ndarray:
    """Component-wise Euler-Maruyama update toward a given consensus point
    v: the step of the anisotropic and common_noise variants, random batches
    (a stack too, with `sigma` and `dt` per ensemble), the pairwise replica
    sweep and the frozen-moment diagnostic (v = 0). Computes
    positions - lam * dt * diff + sigma * sqrt(dt) * diff * z
    with diff = positions - v in `scratch`, an array of the positions' shape;
    the result, a new array, holds the drift first."""
    diff = np.subtract(positions, v, out=scratch)
    drift = np.multiply(lam * dt, diff)
    noise = np.multiply(np.multiply(sigma * _sqrt(dt), diff, out=diff), z, out=diff)
    return np.add(np.subtract(positions, drift, out=drift), noise, out=drift)


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


def _exact_gates(fx, fp, fv):
    """The exact personal-best gates H(fx - fv) H(fp - fv) and
    H(fx - fp) H(fv - fp) as booleans, from comparisons and one difference,
    gap = fp - fv, whose negation is fv - fp bit for bit.

    a >= b gives what a - b >= 0 gives except where a and b are the same
    infinity, and there the gate's other factor is false too unless that
    infinity is -inf. So these are the gates of the differences wherever
    f(x) is not -inf, which `step` assumes."""
    gap = np.subtract(fp, fv)
    toward_v = fx >= fv
    toward_v &= gap >= 0.0
    toward_p = fx >= fp
    toward_p &= gap <= 0.0
    return toward_v, toward_p


def _one_call(size: int) -> bool:
    """Whether stacks of `size` numbers in all are evaluated in one call: at
    most SHARD_MIN_ELEMENTS, where a step pays mostly a call's fixed cost. A
    larger stack would add arrays of its size at the step's peak."""
    return size <= SHARD_MIN_ELEMENTS


def _owes(p: VariantParams, n: int, d: int) -> bool:
    """Whether a plain run of n particles in d dimensions owes each f(v) to
    its next objective call: the gates' on [x; p; v] for personal_best, else
    one on [x; v], while `_one_call` holds for it."""
    return _one_call((2 * n + 1 if p.variant == "personal_best" else n + 1) * d)


class OwedPoint:
    """A consensus point of `harness.run` whose value f(v) is owed: the run's
    next objective call evaluates v as its last row, and f_at_v is None until
    then. Only the run and the step it calls hold one."""

    __slots__ = ("v", "f_at_v")

    def __init__(self, v):
        self.v, self.f_at_v = v, None


def _with_f_at_v(f, cp, *stacks):
    """f at the rows of `stacks`, in order, in one array, and f(v) at cp,
    whose v is one more row, the last, where it is an OwedPoint; the point
    holds its value from then on. The rows take one call on their
    concatenation while `_one_call` holds, else one call per stack (v alone).
    f maps each row on its own, so either way the values are the same bits."""
    owed = cp.f_at_v is None
    if owed:
        stacks += (cp.v[None],)
    if len(stacks) == 1:
        values = f(stacks[0])
    else:
        size = 0
        for s in stacks:
            size += s.size
        values = (f(np.concatenate(stacks)) if _one_call(size)
                  else np.concatenate([f(s) for s in stacks]))
    if owed:
        cp.f_at_v, values = values.item(-1), values[:-1]
    return values, cp.f_at_v


def _update(e, f, p: VariantParams, z, mem, cp, scratch):
    """Euler-Maruyama update (X - drift) + noise of p.variant with the draw
    z, before the sphere renormalization, as a new array; its temporaries
    are in `scratch` and the update itself. personal_best's memory `mem` is
    updated in place."""
    if p.variant == "personal_best" and mem is None:
        raise ValueError("personal_best variant needs a PersonalBestMemory")
    if cp is None:
        cp = weighted_mean(e, f, p.alpha, scratch)
    x = e.positions
    if p.variant in ("anisotropic", "common_noise"):
        # a coordinate that matches the consensus stays put; common noise
        # shares one draw per coordinate, so coincident particles stay so
        return anisotropic_kick(x, cp.v, p.lam, p.sigma, p.dt, z, scratch)
    if p.variant == "original":
        gate = 1.0
        if p.heaviside_mode != "off":  # f(x) first: the kick's temporaries add no peak memory
            fx, fv = _with_f_at_v(f, cp, x)
            gate = heaviside(fx - fv, p.heaviside_mode, p.epsilon)[:, None]
        return isotropic_kick(x, cp.v, p.lam, math.sqrt(2.0) * p.sigma, p.dt, z, scratch, gate)
    diff = np.subtract(x, cp.v, out=scratch)
    sqrt_dt = math.sqrt(p.dt)
    if p.variant == "personal_best":
        # pure Heaviside gates pick the pull toward v (rate lam) or toward the
        # personal best (rate 1), whichever has the smaller objective value;
        # mode 'off' falls back to exact gating, since ungated dual drift
        # would pin particles in between
        values, fv = _with_f_at_v(f, cp, x, mem.p)
        fx, fp = values[:len(x)], values[len(x):]
        if p.heaviside_mode == "regularized":
            lam_gate = p.lam * gate_pair(fx - fv, fp - fv, "regularized", p.epsilon)
            mu_gate = gate_pair(fx - fp, fv - fp, "regularized", p.epsilon)
        else:  # 'off' and 'exact'
            lam_gate, mu_gate = _exact_gates(fx, fp, fv)
            lam_gate = float(p.lam) * lam_gate
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
    noise = _tangential(x, z, norms_sq, diff)  # diff is read by now
    np.multiply(p.sigma * sqrt_dt * np.sqrt(dist_sq)[:, None], noise, out=noise)
    new = np.add(np.subtract(x, drift, out=drift), noise, out=drift)
    # Ito correction along the outward normal: grad|x|=x/|x|, lap|x|=(d-1)/|x|;
    # it goes into the noise's buffer, which is read by now
    curvature = dist_sq * (e.dimension - 1.0) / norms_sq
    correction = np.multiply(0.5 * p.sigma**2 * p.dt * curvature[:, None], x, out=noise)
    return np.subtract(new, correction, out=new)


def step(
    e,
    f,
    p: VariantParams,
    z,
    mem: Optional[PersonalBestMemory] = None,
    cp: Optional[ConsensusPoint] = None,
    scratch: Optional[np.ndarray] = None,
) -> Ensemble:
    """Advance one step of p.variant with the normal draw z, of
    `noise_shape(p, e.positions.shape)`; returns the new ensemble.

    The caller draws z (`harness.run` takes step k's block of the
    STREAM_DIFFUSION stream), and the step only reads it. `cp` defaults to
    the weighted mean of `e`, which raises unless f is finite at every
    particle. A `cp` the caller gives skips that check, and the step then
    assumes f(x) is not -inf at any particle: personal_best's exact gates
    compare f(x) with f(v) and f(p), which is what the heaviside of their
    differences gives everywhere else. `harness.run` may give an
    `OwedPoint`, whose f(v) the gates of original and personal_best then
    evaluate as the last row of their call and write into it; the other
    variants do not read f(v). `mem` is required by the personal_best
    variant: the run's one memory set, `PersonalBestMemory.initial(e)` at
    the start, which each step updates in place by one left-endpoint
    rectangle of its weighted time integrals; the other variants ignore it.
    The sphere variant returns unit-norm rows, and its update assumes
    unit-norm rows on entry: rows off the sphere, as a sphere run from a box
    or gaussian init starts, take one step of the formulas and are then
    projected onto the sphere by the renormalization. `scratch`, an array
    of the positions' shape, takes the step's first temporaries; given
    none, the step makes its own. The new positions are the update, a new
    array that holds its second temporary first and aliases neither `mem`
    nor `scratch`; the sphere renormalizes it in place.
    """
    scratch = np.empty(e.positions.shape) if scratch is None else scratch
    new = _update(e, f, p, z, mem, cp, scratch)
    if p.variant == "sphere":  # the Ito correction in scratch is consumed by now
        norms = _row_norms(new, scratch)
        if np.any(norms < 1e-12):
            raise SingularityError(f"renormalization hit the origin at step {e.step_count}")
        np.divide(new, norms[:, None], out=new)
    return advance(e, new, p.dt)


def sphere_norm_drift(e, f, p, z, cp: Optional[ConsensusPoint] = None) -> float:
    """Max | |row| - 1 | of the sphere update with the draw z before
    renormalization; first-order consistency makes this O(dt)."""
    if p.variant != "sphere":
        raise ValueError("sphere_norm_drift needs the sphere variant")
    raw = _update(e, f, p, z, None, cp, np.empty(e.positions.shape))
    return float(np.max(np.abs(_row_norms(raw, raw) - 1.0)))  # raw is scratch: square it in place
