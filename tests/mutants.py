"""A fixed list of one-line mutants of ``src/cbopt``, each run against the
tests of the module it changes; prints which mutants the tests kill.

    python tests/mutants.py [text ...]

With arguments, only the mutants whose label contains one of them run.
Each mutant replaces one fragment, found exactly once, of one module in a
copy of ``src``, ``tests`` and ``pyproject.toml`` made in a temporary
directory (``tempfile``, so ``TMPDIR`` picks where); the checkout itself is
never changed. A mutant is killed when pytest (``-x``, hypothesis seed 0)
fails on its module's test files, and survives when they pass. A mutant
marked equivalent changes nothing a caller can see, for the reason given;
it runs too, and a kill shows the reason wrong. A mutant takes 1 to 45 s
and the whole list about ten minutes (2 vCPU).

The list holds the guards and boundaries the goldens cannot pin, since
they pin arithmetic: the 14 mutants of a first probe, the guards of the
chunked objective calls, four guards of the batch remainder, the worker
rule of the helper threads and the CLI's output and null keys; the two
buffer reuses of the sphere step's tail, which the goldens pin as well;
the plan a draw ahead draws from and the blocks of a batched run's draws;
the release of a chunked call's input; and the exact solvers' gamma guard,
sigma's square past the float range, and a run's integrator dispatch; and the guards of the
lean small step: the alpha and non-finite checks of the weights, the one
conversion of an objective's values and the weights' conversion of any
other values (a plain function's int array among them), the pending draw,
the square root of a stack's step sizes and personal_best's exact gates;
and a small personal_best step's one objective call, its split, with the
single-ensemble trims: the scalar minimum of the weights and the type tests
of the points' conversions; and f(v) as the last row of a plain run's next
objective call: the one size rule that decides a run's owing, the index of
the v row, an owed value evaluated twice, the gates' test for an owed
point, and zakharov's square and fourth power, which make one point the
bits of its row in a stack; and a batched run's f(v) only where it is read:
the group stop rule's first hit and its test, a record's and a fallback
point's value, evaluated alone, the member each is taken from, and the
group call that evaluates no consensus point; and the epoch plan of a
partial-mode run: a carried row's second batch, batch 0's tests against
the previous epoch's last batch and for a repeated row, batch 1 alone
after batch 0 and the record cuts, with the reposition's cached state,
which keeps a fresh generator's empty buffer, and a stack's coefficients
under a callable schedule. The script is a
measure, not a gate: a survivor that is not equivalent asks for a test that
fails on it.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]

# the test files of each module; the diagnostics of `harness` are tested
# beside the dynamics they check, `ensemble`'s draws ahead in runs, the
# exact solvers of `dynamics` on their own and the objective calls of a
# step in runs
MODULE_TESTS = {
    "batching": ("test_batching.py",),
    "cli": ("test_cli.py",),
    "consensus": ("test_consensus.py",),
    "dynamics": ("test_dynamics.py", "test_kernels.py", "test_integrators.py", "test_harness.py"),
    "ensemble": ("test_ensemble.py", "test_harness.py"),
    "harness": ("test_harness.py", "test_dynamics.py"),
    "objectives": ("test_objectives.py",),
}


class Mutant(NamedTuple):
    module: str
    label: str
    old: str
    new: str
    equivalent: Optional[str] = None  # why no caller can tell, if none can


MUTANTS = (
    # the first probe's 14
    Mutant("harness", "SuccessCriterion.met: <= to <",
           "return bool(dist <= self.tolerance)", "return bool(dist < self.tolerance)"),
    Mutant("dynamics", "consensus_condition: > to >=",
           "return 2.0 * p.lam > _square(p.sigma) * d",
           "return 2.0 * p.lam >= _square(p.sigma) * d"),
    Mutant("batching", "_sorted_rows, stacked branch: >= n to > n",
           "batch.max() >= n if batch.ndim > 1", "batch.max() > n if batch.ndim > 1"),
    Mutant("harness", "diagnostic_frozen_moment: n < 1000 to n < 100",
           "if n < 1000:", "if n < 100:"),
    Mutant("ensemble", "init_ensemble: degenerate sphere-draw guard removed",
           "if np.any(norms == 0.0):", "if False:"),
    Mutant("dynamics", "sphere renormalization: norms < 1e-12 to < 1e-300",
           "if np.any(norms < 1e-12):", "if np.any(norms < 1e-300):"),
    # the probe's shard guard (len(x) < 2 to < 1) is gone with the shards;
    # its place is the guard that keeps one point whole
    Mutant("objectives", "ObjectiveFunction: one point whole, ndim < 2 to < 1",
           "if x.ndim < 2 or x.size <= SHARD_MIN_ELEMENTS:",
           "if x.ndim < 1 or x.size <= SHARD_MIN_ELEMENTS:"),
    Mutant("batching", "stop_check: <= to <", "/ d <= eps)", "/ d < eps)"),
    Mutant("harness", "fit_decay_rate: 3-point guard to 2",
           "arr.shape[0] < 3", "arr.shape[0] < 2"),
    Mutant("consensus", "laplace_estimate: ddof 1 to 0",
           "np.std(shifted, ddof=1)", "np.std(shifted, ddof=0)"),
    Mutant("harness", "RunConfig: batch_size > n_particles to >=",
           "self.batching.batch_size > self.n_particles",
           "self.batching.batch_size >= self.n_particles"),
    Mutant("batching", "GeometricSchedule: the zero case of the overflow",
           "return self.initial * np.inf if self.initial else self.initial",
           "return self.initial * np.inf"),
    Mutant("harness", "_groups: no cut at the step budget",
           "            stops.add(budget - step)", "            pass"),
    Mutant("harness", "run_campaign: no worker cap",
           "workers = min(workers, runs, objectives._THREADS)", "workers = workers"),
    # the guards of the chunked objective calls
    Mutant("objectives", "ObjectiveFunction: no one-chunk short-circuit",
           "if x.ndim < 2 or x.size <= SHARD_MIN_ELEMENTS:", "if x.ndim < 2:"),
    Mutant("objectives", "ObjectiveFunction: wait for a queued helper too",
           "if not helper.cancel():", "if True:"),
    Mutant("objectives", "ObjectiveFunction: no wait for a running helper",
           "helper.result()", "None"),
    Mutant("objectives", "executor: a thread per CPU, not per spare CPU",
           "ThreadPoolExecutor(max(1, _THREADS - 1)", "ThreadPoolExecutor((_THREADS)"),
    Mutant("objectives", "ObjectiveFunction: helpers not stopped after a failed chunk",
           "for _ in todo:  # a chunk failed here", "for _ in ():  # a chunk failed here",
           equivalent="the helpers evaluate the chunks left and the call then raises the "
                      "same error; only their time is lost"),
    # guards beside the imports made at first use, and the CLI lines they came with
    Mutant("batching", "BatchState: no duplicate check on the remainder",
           " or len(set(remainder.tolist())) != remainder.size:", ":"),
    Mutant("objectives", "threaded: a campaign worker threads too",
           "and (mp is None or mp.parent_process() is None))", "and True)"),
    Mutant("cli", "_check_keys: a null value is kept",
           "            del node[name]", "            pass"),
    Mutant("cli", "_number: a non-finite float is written as is",
           "return value if math.isfinite(value) else None", "return value"),
    # the sphere step's tail, which reuses buffers the step already holds
    Mutant("dynamics", "sphere update: the Ito correction written over the drift buffer",
           "curvature[:, None], x, out=noise)", "curvature[:, None], x, out=new)"),
    Mutant("dynamics", "sphere renormalization: squares into the new positions",
           "norms = _row_norms(new, scratch)", "norms = _row_norms(new, new)"),
    # the one plan of a run, and the blocks of a batched run's draws
    Mutant("ensemble", "DrawAhead draws ahead from its caller's plan",
           "copy.copy(plan) if self.ahead else plan", "plan"),
    Mutant("ensemble", "DrawAhead.blocks: each member takes the block of the stack's first step",
           "zip(range(step, step + n), z)", "zip([step] * n, z)"),
    # a chunked call's input, which a cancelled helper's queued task would hold
    Mutant("objectives", "ObjectiveFunction: the input is not released",
           "x = None  # a cancelled helper", "pass  # a cancelled helper"),
    # the exact solvers and their dispatch
    Mutant("dynamics", "_check_gamma: not gamma > 0.0 to gamma < 0.0",
           "if not gamma > 0.0:", "if gamma < 0.0:"),
    Mutant("dynamics", "_square: inf past the float range to 0.0",
           "        return math.inf", "        return 0.0"),
    Mutant("harness", "_step: integrator == \"split\" to !=",
           'if integrator == "split":', 'if integrator != "split":'),
    # the guards of the lean small step: checks, conversions and exact gates
    Mutant("consensus", "exponentials: alpha < inf to <= inf",
           "if not 0.0 <= alpha < math.inf:", "if not 0.0 <= alpha <= math.inf:"),
    Mutant("consensus", "exponentials: a stack's least minimum from its first ensemble",
           "low = fmin.item(0) if one else", "low = fmin.item(0) if True else"),
    Mutant("objectives", "_floats: an ndarray of any dtype passes unconverted",
           "and values.dtype is _FLOAT:", "and True:"),
    Mutant("ensemble", "DrawAhead.block: the pending block is never taken",
           "z = None if self.pending is None else self.close(step)", "z = None"),
    Mutant("dynamics", "_sqrt: math.sqrt for a stack's step sizes too",
           "math.sqrt(dt) if type(dt) is float else", "math.sqrt(dt) if True else"),
    Mutant("dynamics", "_exact_gates: fx >= fv to >",
           "toward_v = fx >= fv", "toward_v = fx > fv"),
    Mutant("dynamics", "_exact_gates: fx >= fp to >",
           "toward_p = fx >= fp", "toward_p = fx > fp"),
    Mutant("consensus", "weighted_mean: a plain function's values are not converted",
           "fvals, alpha = _floats(fvals), float(alpha)",
           "fvals, alpha = (fvals if type(fvals) is np.ndarray else _floats(fvals)), float(alpha)"),
    Mutant("consensus", "exponentials: no _floats conversion",
           "fvals, alpha = _floats(fvals), float(alpha)", "fvals, alpha = fvals, float(alpha)"),
    Mutant("dynamics", "_exact_gates: gap <= 0 to <",
           "toward_p &= gap <= 0.0", "toward_p &= gap < 0.0"),
    Mutant("dynamics", "personal_best: exact mode takes the regularized gates",
           'if p.heaviside_mode == "regularized":', 'if p.heaviside_mode != "off":'),
    # a small personal_best step's one call on [x; p; v], and the single-ensemble trims
    Mutant("dynamics", "personal_best: the halves of the stacked values swapped",
           "fx, fp = values[:len(x)], values[len(x):]",
           "fx, fp = values[len(x):], values[:len(x)]"),
    Mutant("harness", "run: owing while (N + 1) d <= SHARD_MIN_ELEMENTS to <",
           "(config.n_particles + 1) * d <= SHARD_MIN_ELEMENTS",
           "(config.n_particles + 1) * d < SHARD_MIN_ELEMENTS"),
    Mutant("consensus", "exponentials: one ensemble's minimum low to top",
           "np.subtract(fvals, low if one else fmin)", "np.subtract(fvals, top if one else fmin)"),
    Mutant("objectives", "ObjectiveFunction: an int array of points passes unconverted",
           "        if type(x) is not _NDARRAY or x.dtype is not _FLOAT:",
           "        if type(x) is not _NDARRAY:"),
    Mutant("objectives", "_as_points: an int array passes unconverted",
           "    if type(x) is not _NDARRAY or x.dtype is not _FLOAT:  # float64 points",
           "    if type(x) is not _NDARRAY:  # float64 points"),
    # f(v) as the last row of a plain run's next objective call
    Mutant("dynamics", "_pay: the v row's index off by one",
           "owed.f_at_v = values.item(-1)", "owed.f_at_v = values.item(-2)"),
    Mutant("harness", "_paid: an owed value a call took in is evaluated again",
           "    if owed.f_at_v is None:\n", "    if True:\n"),
    # the mutant that owed personal_best's f(v) by the size of [x; v], not
    # [x; p; v], is gone: that size is now every variant's rule
    Mutant("dynamics", "original's gate: an owed point taken for a paid one",
           "_pay(f, cp, x) if cp.f_at_v is None else f(x)",
           "_pay(f, cp, x) if cp.f_at_v is not None else f(x)"),
    Mutant("dynamics", "personal_best's gates: an owed point taken for a paid one",
           "        if cp.f_at_v is None:\n            values = _pay(",
           "        if cp.f_at_v is not None:\n            values = _pay("),
    Mutant("objectives", "zakharov: one point's fourth power by C's pow again",
           "np.power(lin, 4.0)", "lin**4"),
    Mutant("objectives", "zakharov: one point's square by C's pow again",
           "np.square(lin)", "lin**2"),
    # a batched run's f(v) only where it is read, and a group's stop rule as one array
    Mutant("batching", "first_stop: <= to <",
           "axis=-1) / d <= eps", "axis=-1) / d < eps"),
    Mutant("batching", "first_stop: the first hit off by one",
           "(hits.index(True) + 1, True)", "(hits.index(True), True)"),
    Mutant("harness", "_finish: a record skips its f(v)",
           'object.__setattr__(pt, "f_at_v", _paid(f, pt.f_at_v))',
           'object.__setattr__(pt, "f_at_v", pt.f_at_v.f_at_v)'),
    Mutant("harness", "_finish: a fallback point skips its f(v)",
           "final_cp = ConsensusPoint(final_cp.v, _paid(f, final_cp))",
           "final_cp = ConsensusPoint(final_cp.v, final_cp.f_at_v)"),
    Mutant("harness", "run: a record holds the point of its group's last member",
           "OwedPoint(cps.v if q == 1 else cps.v[0])", "OwedPoint(cps.v if q == 1 else cps.v[-1])"),
    Mutant("harness", "run: the fallback point is its group's first member's",
           "else OwedPoint(cps.v[n - 1])", "else OwedPoint(cps.v[0])"),
    Mutant("harness", "_Unread: a group's consensus points are evaluated too",
           "            self.armed = False\n", "            pass\n"),
    # the epoch plan of a partial-mode run, the plain-int reposition, and a
    # stack's coefficients
    Mutant("harness", "_groups: a carried row's second batch off by one",
           "dealt = (r + np.argsort(pool[r:])[carried]) // m",
           "dealt = (r + np.argsort(pool[r:])[carried]) // m + 1"),
    Mutant("harness", "_groups: batch 0 not tested against the previous epoch's last batch",
           "alone = twice or not last.isdisjoint(batches[0].tolist())", "alone = twice"),
    Mutant("harness", "_groups: batch 0 not tested for a repeated row",
           "dealt.min() == 0", "False"),
    Mutant("harness", "_groups: batch 1 that meets batch 0 does not go alone",
           "            cuts.add(2)", "            pass"),
    Mutant("harness", "_groups: a record cut one step early",
           "range(-step % every or every, q, every)",
           "range((-step - 1) % every or every, q, every)"),
    Mutant("ensemble", "generator: the cached state keeps the buffer a draw leaves",
           "bitgen.state = state", 'bitgen.state = {**bitgen.state, "state": state["state"]}'),
    Mutant("batching", "batch_update: a callable's stack takes its first member's coefficients",
           "if q > 1 and not {type(bp.gamma_schedule), type(bp.sigma_schedule)} <= _BY_EPOCH:",
           "if False:"),
)


def mutated_copy(mutant: Mutant, into: Path) -> None:
    """src, tests and pyproject.toml of the checkout in `into`, with `mutant` applied."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)
    path = into / "src" / "cbopt" / f"{mutant.module}.py"
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.label}: {mutant.old!r} is not in {mutant.module}.py once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant, timeout: float = 900.0) -> bool:
    """Whether the module's tests fail on the mutant; a run past `timeout`
    seconds is killed with every process it started, and counts as a kill."""
    with tempfile.TemporaryDirectory(prefix="cbopt-mutant-") as tmp:
        copy = Path(tmp)
        mutated_copy(mutant, copy)
        files = [f"tests/{name}" for name in MODULE_TESTS[mutant.module]]
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *files],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = child.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return True
    if code not in (0, 1):
        raise SystemExit(f"{mutant.label}: pytest exited {code}")
    return code == 1


def main(args) -> None:
    selected = [m for m in MUTANTS if not args or any(a in m.label for a in args)]
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for mutant in selected:
        start = time.perf_counter()
        dead = killed(mutant)
        if mutant.equivalent is None:
            verdict, note = ("killed" if dead else "survived"), ""
        elif dead:
            verdict, note = "killed", "  (listed as equivalent)"
        else:
            verdict, note = "equivalent", f"  ({mutant.equivalent})"
        counts[verdict] += 1
        print(f"{verdict:10s} {mutant.module:10s} {mutant.label}  "
              f"[{time.perf_counter() - start:.0f} s]{note}", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
