"""Tracemalloc peak of each phase of one `gsqg burst` command.

    PYTHONPATH=TREE/src python3 tools/burst_peaks.py [--workload W] [--seed S] [--out FILE]

Writes the burst scenario of the benchmark workload W (`crowd`, N = 99, the
default, or `orbits`, N = 4) at seed S with `perfbench/workloads.py`, runs
`gsqg.cli.main(["burst", ...])` on it once untraced, then once more under
tracemalloc with wrappers that mark where each phase ends and the next
begins:

- "integration": each call of the lockstep integration
  (`burstsim.integrate_batch`), a study making one call per batch, and the
  stretch from the command's start to the first call, argument parsing
  included;
- "cauchy gaps": the rest of `convergence_study`, between and after those
  calls: the runs' diagnostics, grid values and gaps;
- one phase per trajectory CSV, named after the file: from the call of
  `Trajectory.to_csv` or `Trajectory.csv_blocks` that makes its text until
  the `cli` writer of the file returns, so formatting and writing both count;
- "other": the rest, the diagnostics and manifest JSONs among it.

A phase's peak is the highest traced memory inside it less what was traced
when it began, the largest of its stretches for a phase met more than once,
in MB of 10^6 bytes; "command" is the highest traced memory of the whole
command less what was traced when it began.  Each CSV also
gets its size and its peak per byte.  The import path picks the tree
measured, so parent and change run the same script; functions a tree lacks
are not wrapped.  The JSON goes to FILE, or to stdout.  Standard library
and NumPy only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads                                    # noqa: E402
from gsqg import burstsim, cli, integrator          # noqa: E402

OTHER = "other"
CSV = "csv"     # a CSV phase before its writer names the file


class Phases:
    """Contiguous phases of one traced command: each mark ends the current
    phase, keeping its peak, and begins the next."""

    def __init__(self):
        self.peak = {}
        self.name, self.base, self.start, self.top = OTHER, 0, 0, 0

    def begin(self, name: str):
        tracemalloc.start()
        self.name, self.start = name, tracemalloc.get_traced_memory()[0]
        self.base = self.start

    def mark(self, name: str, next_name: str = OTHER):
        current, peak = tracemalloc.get_traced_memory()
        self.peak[name] = max(self.peak.get(name, 0), peak - self.base)
        self.top = max(self.top, peak)
        self.name, self.base = next_name, current
        tracemalloc.reset_peak()

    def after(self, fn, name: str, next_name: str = OTHER):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mark(name, next_name)
            return result
        return wrapped

    def around(self, fn, name: str, next_name: str = OTHER):
        def wrapped(*args, **kwargs):
            self.mark(self.name, name)
            return self.after(fn, name, next_name)(*args, **kwargs)
        return wrapped

    def csv_starts(self, fn):
        def wrapped(*args, **kwargs):
            self.mark(self.name, CSV)
            return fn(*args, **kwargs)
        return wrapped

    def csv_ends(self, fn):
        def wrapped(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if self.name == CSV:
                self.mark(Path(path).name)
            return result
        return wrapped


def wrappers(ph: Phases) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) of each phase boundary this tree has."""
    out = [(burstsim, "integrate_batch",
            ph.around(burstsim.integrate_batch, "integration", "cauchy gaps")),
           (burstsim, "convergence_study", ph.after(burstsim.convergence_study, "cauchy gaps"))]
    for attr in ("to_csv", "csv_blocks"):
        if hasattr(integrator.Trajectory, attr):
            out.append((integrator.Trajectory, attr,
                        ph.csv_starts(getattr(integrator.Trajectory, attr))))
    for attr in ("_write", "_write_blocks"):
        if hasattr(cli, attr):
            out.append((cli, attr, ph.csv_ends(getattr(cli, attr))))
    return out


def measure(workload: str, seed: int, work: Path) -> dict:
    workloads.write_inputs(workload, seed, work / "in")
    argv = ["burst", "--scenario", str(work / "in" / "scenario.json"),
            "--out", str(work / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:     # warm-up, untraced
            sys.exit("burst_peaks: the burst command failed")
    ph = Phases()
    patches = wrappers(ph)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    try:
        gc.collect()
        ph.begin("integration")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        ph.mark(ph.name)
        tracemalloc.stop()
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    if code != 0:
        sys.exit("burst_peaks: the traced burst command failed")
    phases = {}
    for name, peak in ph.peak.items():
        entry = {"peak_mb": peak / 1e6}
        path = work / "out" / name
        if name.endswith(".csv") and path.is_file():
            size = path.stat().st_size
            entry.update(bytes=size, peak_per_byte=peak / size)
        phases[name] = entry
    return {"command_peak_mb": (ph.top - ph.start) / 1e6, "phases": phases}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("crowd", "orbits"), default="crowd")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        result = measure(args.workload, args.seed, Path(work))
    text = json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "cpus": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        **result,
    }, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
