"""Every non-manifest output of one seed-1 pass of the benchmark workloads
(`sweep`, `orbits` and `crowd` of `perfbench/workloads.py`) keeps its sha256,
and so does the CSV of one collapse that stops at the guard radius.

The pass runs in-process through the workloads' own `write_inputs` and `ops`.
The workloads read the dense output only through differences of two dense
outputs, in the Cauchy gaps of `burst`, and a shift common to both leaves
those exact; their collapse stops by step underflow. The guard collapse
writes the bisected crossing, a dense-output value, as its last row.
A change that alters output bytes on purpose regenerates the recorded hashes
with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in CHANGES.md what changed and by how much.
"""

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import gsqg.cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # registered first: its dataclasses look it up
    return module


def _versions() -> dict:
    """The NumPy and BLAS builds the output bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):      # NumPy < 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _host() -> dict:
    """What else sets the output bits and is not recorded: the SIMD targets NumPy
    dispatches to on this host, and the core its bundled OpenBLAS picked."""
    try:
        from numpy._core import _multiarray_umath as umath
        dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):      # NumPy < 2
        dispatch = "unknown"
    try:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (StopIteration, OSError, AttributeError):    # no bundled scipy-openblas
        core = "unknown"
    return {"numpy_dispatch": dispatch, "openblas_core": core}


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = gsqg.cli.main(argv)
    return code, stdout.getvalue()


def output_hashes(work: Path) -> dict[str, str]:
    """sha256 of each non-manifest output of one pass, keyed by workload and
    path; every command must exit 0 and pass its workload check."""
    wl = _workloads()
    hashes = {}
    for name in wl.WORKLOADS + ("guard_collapse",):
        in_dir, out_dir = work / name / "in", work / name / "out"
        if name == "guard_collapse":
            in_dir.mkdir(parents=True)
            cen = gsqg.center(gsqg.oriented_config(2.5, 0.7))
            (in_dir / "c.json").write_text(
                gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=2.5).to_json())
            code, stdout = _run(["simulate", "--config", str(in_dir / "c.json"), "--t0", "0",
                                 "--t1", "7", "--rel-tol", "1e-8",
                                 "--out", str(out_dir / "collapse.csv")])
            assert code == 0 and "collapse detected" in stdout, stdout
        else:
            ref = wl.write_inputs(name, SEED, in_dir)
            for op in wl.ops(name, in_dir, out_dir, ref):
                failure = op.check(*_run(list(op.argv)))
                assert failure is None, f"{name}: {' '.join(op.argv)}: {failure}"
        for f in sorted(out_dir.rglob("*")):
            if f.is_file() and not f.name.endswith(".manifest.json"):
                key = f"{name}/{f.relative_to(out_dir).as_posix()}"
                hashes[key] = hashlib.sha256(f.read_bytes()).hexdigest()
    return hashes


def test_workload_outputs_keep_their_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = output_hashes(tmp_path)
    want = golden["sha256"]
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    if changed or missing or extra:
        now = _versions()
        versions = ("" if now == golden["versions"] else
                    f"; recorded with {golden['versions']}, this run has {now}")
        raise AssertionError(f"changed {changed}, missing {missing}, new {extra}{versions}"
                             f"; this host has {_host()}")


def test_host_fingerprint_names_dispatch_targets_and_blas_core():
    # read only when the outputs differ, so checked here on its own
    host = _host()
    assert host["numpy_dispatch"] == "unknown" or all(
        isinstance(t, str) for t in host["numpy_dispatch"])
    assert isinstance(host["openblas_core"], str) and host["openblas_core"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        hashes = output_hashes(Path(work))
    GOLDEN.write_text(json.dumps({"seed": SEED, "versions": _versions(), "sha256": hashes},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
