"""Every numeric flag of the four commands at the edges of float64.

Each run must end in exit 0, 1 or 2, with no traceback.  The suite turns a
RuntimeWarning raised in gsqg into an error, so a value that NumPy warns
about before it is refused fails here too.  One flag varies per case; the
other inputs are small (a 1e-2 x pitch, a 0.1 time span, three t_ini), and
the step budget is cut to 10^3 as in `test_step_budget_failure`: at the
default budget `simulate --t1 -1e308` on the collapse config, a burst
backward in time that never reaches its end, takes 10^6 steps before its
step failure.
"""

import contextlib
import io
import json
import re

import pytest

import gsqg
from gsqg.cli import main

from conftest import THM_X

EDGES = ["0", "-0", "5e-324", "1e-320", "1e-300", "nan", "inf", "-inf", "1e308", "-1e308"]

# (command and the other flags, flag under test, its in-range values)
FLAGS = [
    (["find-config", "--x", "0.7"], "--alpha", ["0.5", "1.0", "2.5"]),
    (["find-config", "--auto"], "--alpha", ["1.5"]),
    (["find-config", "--alpha", "1.0"], "--x", ["0.05", str(THM_X), "0.99"]),
    (["find-config", "--alpha", "0.5"], "--x", ["0.7"]),
    (["sweep", "--alpha-max", "1.502", "--x-coarse", "1e-2"], "--alpha-min", ["1.49", "1.5"]),
    (["sweep", "--alpha-min", "1.5", "--x-coarse", "1e-2"], "--alpha-max", ["1.5", "1.51"]),
    (["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502", "--x-coarse", "1e-2"],
     "--alpha-step", ["1e-3"]),
    (["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502"], "--x-coarse", ["0.5", "2e-2"]),
    (["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502", "--x-coarse", "1e-2"],
     "--refine-tol", ["1e-7"]),
    # integer flag: the float edges fail to parse, and no case starts a pool
    (["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502", "--x-coarse", "1e-2"],
     "--jobs", ["1"]),
    (["simulate", "--config", "{cfg}", "--t1", "0.1", "--rel-tol", "1e-6"], "--t0", ["-1", "1"]),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", ["-0.1", "3"]),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--t1", "0.1"], "--rel-tol",
     ["1e-2", "1e-8"]),
    (["burst", "--scenario", "{scenario}"], "--rel-tol", ["1e-6"]),
]
CASES = [pytest.param(base, flag, value, id=" ".join(base + [flag, value]))
         for base, flag, values in FLAGS for value in EDGES + values]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    cen = gsqg.center(gsqg.oriented_config(1.0, THM_X))
    paths = {"cfg": d / "collapse.json", "scenario": d / "scenario.json"}
    # the reference collapse: t* = 2.7095 from t = 0
    paths["cfg"].write_text(gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=1.0).to_json())
    paths["scenario"].write_text(gsqg.BurstScenario(
        triple=cen, background=((1.0 + 0j, 1.0),), t_ini_sequence=(1e-4, 5e-5, 2.5e-5),
        horizon=5e-4).to_json())
    return paths


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse refusing the value
            code = e.code
    return code, err.getvalue()


@pytest.mark.parametrize("base, flag, value", CASES)
def test_numeric_flag_edge_ends_in_an_exit_code(tmp_path, monkeypatch, inputs, base, flag,
                                                value):
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", 1000)
    # --flag=value; the space form of a negative value has its own test below
    argv = [a.format(**inputs) for a in base] + [f"{flag}={value}", "--out", str(tmp_path / "o")]
    code, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("gsqg "), err


# a negative value after a space, in the forms argparse alone reads as an
# unknown option: it reaches the command's own checks
SPACE_CASES = [
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-1e-3", None),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-1e3", None),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-.5E-3",
     None),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-inf",
     "gsqg simulate: t1 must be finite, got -inf"),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-Infinity",
     "gsqg simulate: t1 must be finite, got -inf"),
    (["simulate", "--config", "{cfg}", "--t0", "0", "--rel-tol", "1e-6"], "--t1", "-nan",
     "gsqg simulate: t1 must be finite, got nan"),
    (["simulate", "--config", "{cfg}", "--t1", "0.1", "--rel-tol", "1e-6"], "--t0", "-1e-3",
     None),
    (["find-config", "--x", "0.7"], "--alpha", "-1e-3",
     "gsqg find-config: alpha must lie in (0, 3), got -0.001"),
    (["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502"], "--x-coarse", "-1e-2",
     "gsqg sweep: coarse x grid pitch must lie in [1e-06, 1), got -0.01"),
]


@pytest.mark.parametrize("base, flag, value, message", [
    pytest.param(*case, id=" ".join(case[0] + [case[1], case[2]])) for case in SPACE_CASES])
def test_negative_value_after_a_space(tmp_path, monkeypatch, inputs, base, flag, value,
                                      message):
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", 1000)
    out = tmp_path / "o.csv"
    code, err = _run([a.format(**inputs) for a in base] + [flag, value, "--out", str(out)])
    if message is None:     # the run took the value: its manifest records it
        assert code in (0, 2), err
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["parameters"][flag[2:]] == float(value)
    else:
        assert code == 1
        assert err.startswith(message), err


@pytest.mark.parametrize("command", ["find-config", "simulate", "burst"])
@pytest.mark.parametrize("case", ["directory", "under a file"])
def test_unwritable_out_is_a_usage_error(tmp_path, inputs, command, case):
    # an output path that is a directory, or one whose parent is a file
    argv = {"find-config": ["find-config", "--alpha", "1", "--x", str(THM_X)],
            "simulate": ["simulate", "--config", str(inputs["cfg"]), "--t0", "0",
                         "--t1", "0.1", "--rel-tol", "1e-6"],
            "burst": ["burst", "--scenario", str(inputs["scenario"]), "--rel-tol", "1e-6"]}
    (tmp_path / "file").write_text("")
    if case == "under a file":
        out = tmp_path / "file" / "x.json"
        path = out / "trajectory_tini_0.0001.csv" if command == "burst" else out
    elif command != "burst":
        out = path = tmp_path
    else:
        out = tmp_path / "run"
        path = out / "diagnostics.json"
        path.mkdir(parents=True)
    code, err = _run(argv[command] + ["--out", str(out)])
    assert code == 1
    assert err.startswith(f"gsqg {command}: cannot write {path}: "), err


@pytest.mark.parametrize("command", ["simulate", "burst"])
def test_start_inside_the_kernel_guard_is_a_usage_error(tmp_path, command):
    # a pair 1e-13 apart in a triple of unit size, and the reference triple
    # (0.02 across) among a background reaching 1e12: the guard is 5e-13 x the
    # diameter, so the first RHS call would raise; VortexState accepts both
    path = tmp_path / "in.json"
    if command == "simulate":
        path.write_text(json.dumps({"alpha": 1.0, "positions": [[0, 0], [1e-13, 0], [1, 0]],
                                    "intensities": [1, 1, -0.4]}))
        argv = ["simulate", "--config", str(path), "--t0", "0", "--t1", "1"]
    else:
        path.write_text(gsqg.BurstScenario(triple=gsqg.oriented_config(1.0, THM_X),
                                           background=((1, 1.0), (1e12, 1.0))).to_json())
        argv = ["burst", "--scenario", str(path)]
    out = tmp_path / "out"
    code, err = _run(argv + ["--out", str(out)])
    assert code == 1, err
    assert re.fullmatch(rf"gsqg {command}: a start state lies inside the kernel guard: closest "
                        r"pairwise distances \[[^]]+\] below guards \[[^]]+\]\n", err), err
    assert not out.exists()
