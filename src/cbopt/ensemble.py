"""Particle ensemble state, counter-based random streams, empirical moments.

Randomness is organized so that every draw is a pure function of
``(master_seed, stream, step)``: a Philox counter block is addressed by the
stream and step indices and laid out row-major over particles and
coordinates. Draws for distinct (particle, coordinate, step) triples are
therefore independent by construction, and a fixed master seed reproduces
the identical sequence no matter how many workers evaluate it or in which
order.

A plan builds one Philox generator on first use and repositions it at each
``generator(stream, step)`` call by writing the counter block into its
state, which gives the bits a freshly seeded generator would. The returned
generator is the plan's own and stays valid only until the plan's next
``generator`` or ``normal_block`` call, so draw from it before that call.
Only one thread calls a plan; a `DrawAhead` that draws blocks ahead on a
helper thread draws them from a copy of the plan, with its own generator.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import objectives

# Stream ids: each (stream, step) pair addresses a disjoint counter block.
STREAM_INIT = 0
STREAM_DIFFUSION = 1
STREAM_PERMUTATION = 2

_MASK64 = (1 << 64) - 1

INIT_KINDS = ("box", "gaussian", "sphere")


class FieldError(ValueError):
    """A config dataclass rejected a field: ``field`` is its name, dotted
    for a field of a nested config (``batching.batch_size``)."""

    def __init__(self, field: str, reason: str):
        super().__init__(field, reason)
        self.field, self.reason = field, reason

    def __str__(self) -> str:
        return f"{self.field} {self.reason}"


def check_choice(field: str, value, choices) -> None:
    if value not in choices:
        raise FieldError(field, f"must be one of {sorted(choices)}, got {value!r}")


@dataclass(frozen=True)
class RngPlan:
    """Reproducible random streams derived from one 64-bit master seed."""

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise FieldError("master_seed", "must be a 64-bit unsigned integer")

    def generator(self, stream: int, step: int) -> np.random.Generator:
        """Generator at the start of the (stream, step) block of the Philox
        counter: it draws bit for bit what a fresh
        ``Generator(Philox(key=master_seed, counter=[0, 0, step, stream]))``
        draws, with the counter as four uint64 words.

        It is the plan's own generator, repositioned on every call: it stays
        valid until the next `generator` or `normal_block` call on this plan,
        so draw from it before that call. One thread calls the plan; it may
        hand the generator to another thread to draw from, and then makes
        no call on the plan until that draw is done (`DrawAhead`).
        """
        # the cache is not a dataclass field, so ==, hash and repr ignore it
        if "_philox" not in self.__dict__:
            bitgen = np.random.Philox(key=int(self.master_seed))
            # a state with an empty 64-bit buffer (buffer_pos 4) and no
            # buffered 32-bit half (has_uint32 0), as a fresh generator has
            cache = (bitgen, np.random.Generator(bitgen), bitgen.state)
            object.__setattr__(self, "_philox", cache)
        bitgen, gen, state = self._philox
        state["state"]["counter"] = [0, 0, int(step), int(stream)]
        bitgen.state = state
        return gen

    def normal_block(self, stream: int, step: int, shape, out=None) -> np.ndarray:
        """Standard normals of `shape` from the start of the (stream, step)
        block, written into `out` (C-contiguous, of that shape) if given."""
        return self.generator(stream, step).standard_normal(shape, out=out)

    def __getstate__(self):
        # a copy or an unpickled plan builds its own generator
        return {"master_seed": self.master_seed}

    def run_seed(self, run_index: int) -> int:
        """Independent 64-bit master seed for run ``run_index`` of a campaign."""
        ss = np.random.SeedSequence((int(self.master_seed), int(run_index)))
        return int(ss.generate_state(1, np.uint64)[0])


class DrawAhead:
    """The normal blocks of one stream at a loop's consecutive steps:
    `block(step)` gives `plan.normal_block(stream, step, shape)`, bit for
    bit, in a buffer of its own that holds until the next `block` call.

    Where `objectives.threaded` allows (the rule of the objective chunks'
    helpers), handing out block k starts block k+1, up to block end - 1, into
    a second buffer on the helper pool, so the draw overlaps the caller's
    step. The draw takes one of the pool's threads, one per spare CPU, which
    it shares with the objective's chunk helpers: a helper queued behind it
    is cancelled by its call, which evaluates the chunks itself. Drawing
    ahead, it draws from a copy of `plan` with its own generator, which only
    the calling thread repositions, so the caller may draw from `plan` while
    a block is pending. `close`, or leaving a ``with`` block, waits for it.
    A loop that ends before block end - 1 has drawn one block it never uses,
    the known cost of drawing ahead.
    """

    def __init__(self, plan: RngPlan, stream: int, shape, end: int):
        self.stream, self.shape, self.end = stream, tuple(shape), end
        self.ahead = objectives.threaded(math.prod(self.shape))
        self.plan = copy.copy(plan) if self.ahead else plan  # a copy builds its own generator
        self.buffers = []  # made on first use: one, and a second to draw ahead into
        self.pending = None  # (step, future) of the block being drawn ahead

    def block(self, step: int) -> np.ndarray:
        z = self.close(step)
        if z is None:
            if not self.buffers:
                self.buffers.append(np.empty(self.shape))
            z = self.plan.normal_block(self.stream, step, self.shape, out=self.buffers[0])
        if self.ahead and step + 1 < self.end:
            if len(self.buffers) == 1:
                self.buffers.append(np.empty(self.shape))
            spare = self.buffers[z is self.buffers[0]]
            gen = self.plan.generator(self.stream, step + 1)
            draw = objectives.executor().submit(gen.standard_normal, self.shape, out=spare)
            self.pending = (step + 1, draw)
        return z

    def close(self, step=None):
        """Wait for the pending block, if any; return it if it is `step`'s."""
        if self.pending is None:
            return None
        (ahead, draw), self.pending = self.pending, None
        z = draw.result()
        return z if ahead == step else None

    def __enter__(self) -> "DrawAhead":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Ensemble:
    """Positions of N particles in R^d plus the simulation clock."""

    positions: np.ndarray
    time: float = 0.0
    step_count: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or min(self.positions.shape) < 1:
            raise ValueError("positions must be a nonempty (N, d) matrix")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        if self.time < 0.0 or self.step_count < 0:
            raise ValueError("time and step_count must be nonnegative")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class InitSpec:
    """Initial particle distribution.

    kind 'box' draws uniformly from [low, high]^d (low == high collapses all
    particles onto one point), 'gaussian' draws isotropically around `mean`
    with the given variance, and 'sphere' draws uniformly on the unit sphere.
    """

    kind: str = "box"
    low: float = -1.0
    high: float = 1.0
    mean: Union[float, tuple] = 0.0
    variance: float = 1.0

    def __post_init__(self):
        check_choice("kind", self.kind, INIT_KINDS)
        for name in ("low", "high", "mean", "variance"):
            if not np.isfinite(getattr(self, name)).all():
                raise FieldError(name, "must be finite")
        if self.kind == "box" and not self.low <= self.high:
            raise FieldError("low", "must not exceed high")
        if self.kind == "box" and not np.isfinite(self.high - self.low):
            raise FieldError("high", "minus low must be finite")
        if self.kind == "gaussian" and not self.variance > 0:
            raise FieldError("variance", "must be positive")


def init_ensemble(dist: InitSpec, n: int, d: int, rng: RngPlan) -> Ensemble:
    """Draw N i.i.d. initial positions; sphere rows come out unit-norm."""
    if n < 1 or d < 1:
        raise ValueError("need at least one particle and one dimension")
    gen = rng.generator(STREAM_INIT, 0)
    if dist.kind == "box":
        positions = gen.uniform(dist.low, dist.high, size=(n, d))
    elif dist.kind == "gaussian":
        mean = np.broadcast_to(np.asarray(dist.mean, dtype=float), (d,))
        positions = mean + np.sqrt(dist.variance) * gen.standard_normal((n, d))
    else:
        raw = gen.standard_normal((n, d))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("degenerate sphere draw")
        positions = raw / norms[:, None]
    return Ensemble(positions=positions, time=0.0, step_count=0)


def moments(e: Ensemble, scratch=None):
    """Empirical mean and half mean squared spread, ``(1/(2N)) sum |X - E|^2``;
    `scratch`, an array of the positions' shape, holds the centered positions
    and their squares if given (a run passes its scratch array)."""
    mean = e.positions.mean(axis=0)
    centered = np.subtract(e.positions, mean, out=scratch)
    variance = 0.5 * float(np.mean(np.sum(np.multiply(centered, centered, out=centered), axis=1)))
    return mean, variance


def mean_pairwise_sq_dist(positions, scratch=None):
    """Average of |X^i - X^j|^2 over all unordered pairs i != j of (N, d)
    positions, or of each ensemble in a (..., N, d) stack; `scratch`, an
    array of the positions' shape, holds the temporaries if given."""
    n = positions.shape[-2]
    if n < 2:
        raise ValueError("pairwise distance needs at least two particles")
    centered = np.subtract(positions, positions.mean(axis=-2, keepdims=True), out=scratch)
    # sum over pairs i<j equals N * sum_i |X^i - mean|^2
    return (2.0 / (n - 1)) * np.sum(np.multiply(centered, centered, out=centered), axis=(-2, -1))


def positions_to_csv(e: Ensemble) -> str:
    """Snapshot as CSV, one row per particle, shortest round-trip floats."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"x{k}" for k in range(e.dimension)])
    for row in e.positions:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()
