"""Golden outputs: sha256 of `cbopt run` stdout and ensemble.csv for one
small config per variant, integrator, batch mode, way a run ends and
command-line override, of `cbopt bench` summary.csv and runs.jsonl at
one and at two workers, of `cbopt diagnose` stdout for the suites that run
in seconds, and of the float64 bytes the pairwise and frozen-moment
diagnostics return at a small size.

The hashes pin results bit for bit. Generator streams are not guaranteed
stable across numpy releases, and the float64 bits of `exp`, `log1p` and
`log` depend on which SIMD kernels numpy picks on the running CPU (and on
the C library). So hashes.json holds one hash set per numpy version and
math fingerprint (`math_fingerprint`), and the tests skip, naming both,
when no set matches the running pair. ``PYTHONPATH=src python
tests/test_golden.py`` records the set of the running pair and leaves the
others as they are: run it on unchanged code to add a missing set, or
under each recorded `NPY_DISABLE_CPU_FEATURES` value after a deliberate
change of results.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cbopt.cli import main
from cbopt.harness import diagnostic_frozen_moment, diagnostic_pairwise_decay

HASHES = Path(__file__).resolve().parent / "golden" / "hashes.json"

_RUN = """\
objective: {{name: {objective}, dimension: {dimension}}}
variant: {{kind: {kind}, heaviside: {heaviside}, integrator: {integrator}}}
params: {{lambda: 1.0, sigma: {sigma}, alpha: {alpha}, dt: {dt}, beta: 10.0}}
harness:
  n_particles: {n}
  init: {init}
  max_steps: {max_steps}
  seed: 7{harness_extra}
output: {{record_every: 10}}
"""

_BOX = "{kind: box, low: -2.0, high: 2.0}"


def _yaml(batching="", harness_extra="", **overrides):
    fields = dict(
        objective="ackley", dimension=3, kind="anisotropic", heaviside="off",
        integrator="euler", sigma=0.7, alpha=30.0, dt=0.01, n=12, init=_BOX, max_steps=60,
        harness_extra=harness_extra,
    )
    fields.update(overrides)
    return _RUN.format(**fields) + batching


# case name -> (config YAML, terminated_by, exit code)
RUN_CASES = {
    "original_exact": (_yaml(kind="original", heaviside="exact", sigma=0.3), "max_steps", 0),
    "anisotropic": (_yaml(), "max_steps", 0),
    "common_noise": (_yaml(kind="common_noise"), "max_steps", 0),
    "personal_best": (_yaml(kind="personal_best"), "max_steps", 0),
    "sphere": (_yaml(kind="sphere", init="{kind: sphere}", sigma=0.5), "max_steps", 0),
    "anisotropic_split": (_yaml(integrator="split"), "max_steps", 0),
    "anisotropic_frozen": (_yaml(integrator="frozen"), "max_steps", 0),
    "batch_partial": (
        _yaml(alpha=2.0, batching="batching: {batch_size: 4, update_mode: partial,"
              " gamma: 0.05, stop_eps: 1.0e-300, max_epochs: 100}\n"),
        "max_steps", 0,
    ),
    "batch_full": (
        _yaml(alpha=2.0, batching="batching: {batch_size: 4, update_mode: full,"
              " gamma: 0.05, stop_eps: 1.0e-300, max_epochs: 100}\n"),
        "max_steps", 0,
    ),
    "plain_stop_eps": (
        _yaml(alpha=2.0, max_steps=2000, harness_extra="\n  stop_eps: 1.0e-6"),
        "stop_criterion", 0,
    ),
    "batch_stop_eps": (
        _yaml(alpha=2.0, max_steps=2000, batching="batching: {batch_size: 4, gamma: 0.05,"
              " stop_eps: 1.0e-6, max_epochs: 1000}\n"),
        "stop_criterion", 0,
    ),
    # 12 = 2 x 5 + 2: batch 0 of later epochs carries the remainder, which
    # overlaps the batches after it and can repeat an index of its own; the
    # step budget ends the run inside an epoch
    "batch_partial_remainder": (
        _yaml(alpha=2.0, max_steps=23, batching="batching: {batch_size: 5, update_mode: partial,"
              " gamma: 0.05, stop_eps: 1.0e-300, max_epochs: 100}\n"),
        "max_steps", 0,
    ),
    # the objective overflows inside an epoch (step 25, its second batch)
    "batch_divergence_objective": (
        _yaml(objective="rastrigin", dimension=2, alpha=1.0, max_steps=200,
              init="{kind: box, low: -5.0, high: 10.0}",
              batching="batching: {batch_size: 3, update_mode: partial, gamma: 0.05,"
              " sigma: 1.0e+30, stop_eps: 1.0e-300, max_epochs: 1000}\n"),
        "divergence", 2,
    ),
    # the kick overflows at the third batch of the second epoch (step 6)
    "batch_divergence_kick": (
        _yaml(objective="rastrigin", dimension=2, alpha=1.0, max_steps=200,
              init="{kind: box, low: -5.0, high: 10.0}",
              batching="batching: {batch_size: 3, update_mode: partial, gamma: 0.05,"
              " sigma: {kind: geometric, initial: 0.7, decay: 1.0e+308},"
              " stop_eps: 1.0e-300, max_epochs: 1000}\n"),
        "divergence", 2,
    ),
    "max_steps": (_yaml(kind="common_noise", max_steps=37), "max_steps", 0),
    "divergence": (
        _yaml(objective="zakharov", dimension=2, sigma=40.0, dt=10.0, max_steps=5000,
              init="{kind: box, low: -5.0, high: 10.0}"),
        "divergence", 2,
    ),
}

# case name -> (config YAML, command-line flags that override its keys,
# terminated_by, exit code)
FLAG_CASES = {
    "flags_seed_record_every": (_yaml(), ["--seed", "11", "--record-every", "5"], "max_steps", 0),
    "flags_batch": (
        _yaml(alpha=2.0),
        ["--batch-size", "5", "--max-epochs", "3", "--update-mode", "full"],
        "max_steps", 0,
    ),
    "flags_batch_stop_eps": (
        _yaml(alpha=2.0, max_steps=2000, batching="batching: {batch_size: 4, gamma: 0.05,"
              " stop_eps: 1.0e-300, max_epochs: 1000}\n"),
        ["--stop-eps", "1e-6"],
        "stop_criterion", 0,
    ),
}

BENCH = """\
objective: {name: rastrigin, dimension: 3}
variant: {kind: anisotropic}
params: {lambda: 1.0, sigma: 0.8, alpha: 30.0, dt: 0.01, beta: 10.0}
harness:
  n_particles: 10
  init: {kind: box, low: -2.0, high: 2.0}
  max_steps: 80
  seed: 11
  stop_eps: 1.0e-12
  campaign: {runs: 4, tolerance: 0.25, norm: infinity, variants: [personal_best, anisotropic]}
output: {record_every: 1000}
"""


# case name -> (arguments after `diagnose`, config YAML or None, exit code).
# The `pairwise` suite and `moments` at its default size take tens of
# seconds, so `moments` is pinned on a small config (where it prints FAIL)
# and the pairwise law through DIAGNOSTIC_CASES.
DIAGNOSE_CASES = {
    "laplace": (["laplace", "--seed", "3"], None, 0),
    "variance": (["variance", "--seed", "5"], None, 0),
    "moments_small": (
        ["moments"],
        "objective: {name: ackley, dimension: 3}\nparams: {dt: 0.01}\nharness: {n_particles: 1000}\n",
        3,
    ),
}

# case name -> the library diagnostic whose float64 result is pinned
DIAGNOSTIC_CASES = {
    "pairwise_decay": lambda: diagnostic_pairwise_decay(1.0, 0.5, 1e-3, 20, 50, 0.05, seed=3),
    "frozen_moment_isotropic": lambda: diagnostic_frozen_moment(
        "isotropic", 1.0, 0.3, 5, 1000, 1e-2, 0.5, 3
    ),
    "frozen_moment_anisotropic": lambda: diagnostic_frozen_moment(
        "anisotropic", 1.0, 0.3, 5, 1000, 1e-2, 0.5, 3
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv):
    """Exit code and stdout of one in-process `cbopt` invocation."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    return code, stdout.getvalue()


def run_case(name, tmp_path):
    """Hashes of one `cbopt run` case, checking how the run ended."""
    if name in FLAG_CASES:
        text, flags, terminated_by, expected_code = FLAG_CASES[name]
    else:
        (text, terminated_by, expected_code), flags = RUN_CASES[name], []
    config = tmp_path / f"{name}.yaml"
    config.write_text(text)
    out = tmp_path / name
    code, stdout = _main(["run", "--config", str(config), "--out", str(out), *flags])
    assert code == expected_code
    assert json.loads(stdout.splitlines()[-1])["summary"]["terminated_by"] == terminated_by
    return {
        "stdout": _sha(stdout.encode()),
        "ensemble.csv": _sha((out / "ensemble.csv").read_bytes()),
    }


def bench_case(threads, tmp_path):
    """Hashes of the `cbopt bench` files at a given worker cap."""
    config = tmp_path / "bench.yaml"
    config.write_text(BENCH)
    out = tmp_path / f"bench{threads}"
    with mock.patch.dict(os.environ, {"CBO_THREADS": str(threads)}):
        code, _ = _main(["bench", "--config", str(config), "--out", str(out)])
    assert code == 0
    return {name: _sha((out / name).read_bytes()) for name in ("summary.csv", "runs.jsonl")}


def diagnose_case(name, tmp_path):
    """Hash of one `cbopt diagnose` stdout, checking its exit code."""
    argv, text, expected_code = DIAGNOSE_CASES[name]
    if text is not None:
        config = tmp_path / f"{name}.yaml"
        config.write_text(text)
        argv = [*argv, "--config", str(config)]
    code, stdout = _main(["diagnose", *argv])
    assert code == expected_code
    return _sha(stdout.encode())


def diagnostic_case(name):
    """Hash of the float64 bytes of one diagnostic's result."""
    return _sha(np.asarray(DIAGNOSTIC_CASES[name](), dtype=np.float64).tobytes())


@functools.cache
def math_fingerprint() -> str:
    """sha256 of the float64 bits of exp, log1p, log, cos, tanh and sqrt
    over one fixed probe vector of 2**16 points spread over (-30, 30), the
    range the objectives and the weights feed them (the logarithms and the
    root take its absolute values, which are never 0)."""
    probe = (np.arange(2**16) - 2**15 + 0.5) * (30.0 / 2**15)
    size = np.abs(probe)
    digest = hashlib.sha256()
    for values in (np.exp(probe), np.log1p(size), np.log(size), np.cos(probe), np.tanh(probe),
                   np.sqrt(size)):
        digest.update(values.tobytes())
    return digest.hexdigest()


def _matches(entry) -> bool:
    return entry["numpy"] == np.__version__ and entry["fingerprint"] == math_fingerprint()


def recorded_set():
    """The hash set recorded for the running numpy and math fingerprint, or None."""
    return next((entry for entry in json.loads(HASHES.read_text()) if _matches(entry)), None)


def missing_set_reason():
    """None when a hash set is recorded for the running numpy and math
    fingerprint, else why not, naming the running pair."""
    if recorded_set() is not None:
        return None
    versions = sorted({entry["numpy"] for entry in json.loads(HASHES.read_text())})
    if np.__version__ not in versions:
        return (f"golden hashes were recorded with numpy {', '.join(versions)}, "
                f"running numpy {np.__version__}")
    return (f"no golden hash set is recorded for numpy {np.__version__} with math fingerprint "
            f"{math_fingerprint()}; record it on unchanged code with "
            "`PYTHONPATH=src python tests/test_golden.py`")


@pytest.fixture(scope="module")
def golden():
    recorded = recorded_set()
    if recorded is None:
        pytest.skip(missing_set_reason())
    return recorded


@pytest.mark.parametrize("name", sorted(RUN_CASES) + sorted(FLAG_CASES))
def test_run_output_matches_golden(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden["run"][name]


@pytest.mark.parametrize("threads", [1, 2])
def test_bench_output_matches_golden(threads, golden, tmp_path):
    assert bench_case(threads, tmp_path) == golden["bench"]


@pytest.mark.parametrize("name", sorted(DIAGNOSE_CASES))
def test_diagnose_output_matches_golden(name, golden, tmp_path):
    assert diagnose_case(name, tmp_path) == golden["diagnose"][name]


@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_CASES))
def test_diagnostic_values_match_golden(name, golden):
    assert diagnostic_case(name) == golden["diagnostic"][name]


def _record():
    """Run every case and rewrite the hash set of the running numpy and math
    fingerprint in hashes.json, keeping the other sets."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_case(name, Path(tmp)) for name in sorted([*RUN_CASES, *FLAG_CASES])}
        bench = [bench_case(threads, Path(tmp)) for threads in (1, 2)]
        diagnose = {name: diagnose_case(name, Path(tmp)) for name in sorted(DIAGNOSE_CASES)}
    diagnostic = {name: diagnostic_case(name) for name in sorted(DIAGNOSTIC_CASES)}
    if bench[0] != bench[1]:
        raise SystemExit("bench output differs between one and two workers")
    entry = {
        "numpy": np.__version__, "fingerprint": math_fingerprint(),
        "npy_disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
        "run": runs, "bench": bench[0], "diagnose": diagnose, "diagnostic": diagnostic,
    }
    sets = json.loads(HASHES.read_text()) if HASHES.exists() else []
    sets = [other for other in sets if not _matches(other)] + [entry]
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(sets, indent=2) + "\n")
    print(f"wrote the set for numpy {np.__version__}, math fingerprint {math_fingerprint()}, "
          f"to {HASHES}")


if __name__ == "__main__":
    _record()
