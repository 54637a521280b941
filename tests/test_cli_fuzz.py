"""A config fuzz built from `cli.SCHEMA`: config documents drawn key by key,
with valid values, edge values, wrong types, nulls, unknown keys and the
flags, run through `cli.main` in-process for `run` and `bench` on tiny
budgets (N <= 8, max_steps <= 20, runs <= 2) with every warning an error.

Properties: `main` returns 0, 1, 2 or 3 and raises nothing; exit 1 writes
one `config error:` line that names a SCHEMA path (or the section or
unknown key it drew), or `--out`, or one `usage error:` line that names a
flag argparse rejected (a value of the wrong type or an unknown choice);
exit 0 or 2 writes the same stdout bytes when called again; every stdout
line of `run` is strict JSON. No draw raised when the fuzz was written,
here or in 9000 more examples at three random seeds; an input that does,
once mended, goes in as an `@example`."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbopt import cli
from cbopt.cli import SCHEMA, main

LEAVES = [k for k in SCHEMA if not isinstance(k.read, type)]
SECTIONS = sorted({k.path.rpartition(".")[0] for k in SCHEMA} - {""})
NAMED = {k.path for k in SCHEMA} | set(SECTIONS) | {  # and the fields of a schedule mapping
    f"{k.path}.{name}" for k in SCHEMA if k.read is cli._schedule
    for name in ("kind", "value", "initial", "decay")}
# the keys whose value sets how much work a run does, and their tiny valid ranges
BUDGETS = {
    "objective.dimension": st.integers(1, 4),
    "harness.n_particles": st.integers(1, 8),
    "harness.max_steps": st.integers(0, 20),
    "harness.campaign.runs": st.integers(1, 2),
    "batching.batch_size": st.integers(1, 8),
}
EDGES = [0, 1, -1, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
BIG = [2**64 + 1, -(2**64) - 1]
WRONG = ["x", True, [1.0], {"a": 1}, None]


def numbers():
    return st.one_of(st.sampled_from([0.01, 0.1, 0.5, 1.0, 2.0, 30.0]),
                     st.floats(-10.0, 10.0), st.sampled_from(EDGES))


def schedules():
    return st.one_of(
        numbers(),
        st.builds(lambda v: {"kind": "constant", "value": v}, numbers()),
        st.builds(lambda i, d: {"kind": "geometric", "initial": i, "decay": d},
                  numbers(), numbers()),
        st.builds(lambda k, v: {"kind": k, "value": v, "rate": v},
                  st.sampled_from(["constant", "linear"]), numbers()),
    )


def valid(key):
    """Values of the key's own type, mostly in range."""
    if key.path in BUDGETS:
        return BUDGETS[key.path]
    if key.path == "harness.campaign.variants":
        return st.lists(st.sampled_from(key.choices), min_size=1, max_size=3)
    if key.choices:
        return st.sampled_from(key.choices)
    if key.read is cli._int:
        return st.integers(0, 2**64 - 1) if key.path == "harness.seed" else st.integers(0, 30)
    if key.read is cli._schedule:
        return schedules()
    if key.read is cli._numbers:
        return st.one_of(numbers(), st.lists(numbers(), min_size=1, max_size=5))
    return numbers()


def values(key):
    """A valid value, an edge, a wrong type or a null; no huge budget, and
    no null budget either, which would leave its larger default."""
    if key.path in BUDGETS:
        edges, wrong = EDGES, WRONG[:-1]
    else:
        edges, wrong = EDGES + BIG, WRONG
    return st.one_of(valid(key), valid(key), valid(key), st.sampled_from(edges),
                     st.sampled_from(wrong))


@st.composite
def documents(draw):
    """(document, the unknown paths it holds): a small valid run, then
    chosen keys with drawn values, and now and then an unknown key or a
    section that is no mapping."""
    document = {"objective": {"name": draw(st.sampled_from(cli.benchmark_names())),
                              "dimension": 2},
                "harness": {"n_particles": 6, "max_steps": 10, "campaign": {"runs": 2}}}
    unknown = set()
    for key in draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=6, unique=True)):
        *parents, leaf = key.path.split(".")
        node = document
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = draw(values(key))
    if "batching" in document:  # mostly a batch size, which a batched run needs
        document["batching"].setdefault("batch_size", draw(st.sampled_from([2, 4, None])))
    if draw(st.integers(0, 4)) == 4:
        section = draw(st.sampled_from(["", *SECTIONS]))
        node = document
        for part in filter(None, section.split(".")):
            node = node.setdefault(part, {})
        node["bogus"] = 1
        unknown.add(f"{section}.bogus".lstrip("."))
    if draw(st.integers(0, 9)) == 9:
        document[draw(st.sampled_from(SECTIONS)).split(".")[0]] = draw(st.sampled_from([3, "x"]))
    for part in ("batching", "gamma"), ("batching", "sigma"):  # a schedule's unknown key
        node = document.get(part[0])
        if isinstance(node, dict) and isinstance(node.get(part[1]), dict) \
                and "rate" in node[part[1]]:
            unknown.add(".".join(part) + ".rate")
    return document, unknown


FLAG_VALUES = {
    "--seed": st.sampled_from(["0", "7", "-1", str(2**64 - 1), str(2**64 + 1)]),
    "--stop-eps": st.sampled_from(["1e-8", "0", "-1", "1e308", "5e-324", "inf", "nan"]),
    "--batch-size": st.sampled_from(["1", "4", "0", "-1", "9"]),
    "--update-mode": st.sampled_from(cli.UPDATE_MODES),
    "--max-epochs": st.sampled_from(["1", "3", "0", "-1", str(2**64 + 1)]),
    "--record-every": st.sampled_from(["1", "3", "0", "-1", str(2**64 + 1)]),
}
# values argparse rejects: the wrong type, or not one of the choices
REJECTED = {
    "--seed": ["abc", "1.5"],
    "--stop-eps": ["x", ""],
    "--batch-size": ["2.5"],
    "--update-mode": ["bogus", "Full"],
    "--max-epochs": ["1e3"],
    "--record-every": ["one"],
}


@st.composite
def flags(draw, command):
    argv = []
    for flag, keys in cli._FLAGS.items():
        if command in keys[0].commands and draw(st.integers(0, 5)) == 5:
            rejected = draw(st.integers(0, 4)) == 4
            argv += [flag, draw(st.sampled_from(REJECTED[flag]) if rejected else FLAG_VALUES[flag])]
    if draw(st.integers(0, 7)) == 7:
        argv += ["--out", draw(st.sampled_from(["CONFIG", "OUT"]))]
    return argv


def call(argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(line):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(line, parse_constant=reject)


def names_a_path(message, unknown):
    """Whether a config error line names a SCHEMA path or section, a drawn
    unknown key, or --out."""
    if message.startswith("--out "):
        return True
    return any(word in NAMED or word in unknown
               for word in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", message))


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(["run", "bench"]), drawn=documents(), data=st.data())
def test_config_fuzz(command, drawn, data):
    document, unknown = drawn
    argv_flags = data.draw(flags(command))
    with tempfile.TemporaryDirectory(prefix="cbopt-fuzz-") as tmp, \
            mock.patch.dict(os.environ, {"CBO_THREADS": "1"}), warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(document))
        argv = [command, "--config", str(config)] + [
            {"CONFIG": str(config), "OUT": str(Path(tmp) / "out")}.get(a, a) for a in argv_flags]
        code, out, err = call(argv)
        assert code in (0, 1, 2, 3), (code, err)
        rejected = [flag for flag, value in zip(argv, argv[1:]) if value in REJECTED.get(flag, ())]
        if code == 1 and err.startswith("usage error: "):
            assert out == "" and err.count("\n") == 1 and rejected, err
            assert err.startswith(f"usage error: argument {rejected[0]}: "), err
            return
        assert not rejected, (code, err)
        if code == 1:
            assert out == "" and err.startswith("config error: ") and err.count("\n") == 1, err
            assert names_a_path(err[len("config error: "):], unknown), err
            return
        if code in (0, 2):
            assert call(argv)[1] == out
        if command == "run":
            for line in out.splitlines():
                strict_json(line)
