"""Median time and tracemalloc peak of each stage of one margin-grid scan.

    PYTHONPATH=TREE/src python3 tools/margin_stages.py [--repeats R] [--out FILE]

Scans the 10001-point x grid of `x_interval` at its default pitch (the
desk grid) with `search._margin_grid` at alpha = 1 and 2.13, with each
stage function the scan calls wrapped by a timer: the triangle screen
(`_past_triangle`), the side solve (`_y_solve_grid`), the triple
(`_reduced_triple`), centering (`centered`), pair terms (`pair_terms`),
rates (`vortex_rates`), L terms (`l_terms`) and the quartic
(`quartic_coefficients` and `quartic_mu2`).  "rest" is the rest of the
scan, the lines of `_margin_grid` itself: K, c_alpha, the subset of x that
pass the screen, the validity mask and the scatter into the output.  The
import path picks the tree measured, so parent and change run the same
script.

Times are medians over R scans, and "scan" is the median of R unwrapped
scans.  Peaks come from one more wrapped scan under tracemalloc: the
highest traced memory during each stage, less what was traced when the
scan began, in MB of 10^6 bytes.  The JSON goes to FILE, or to stdout.
Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from gsqg import search

ALPHAS = (1.0, 2.13)
# the grid of x_interval at coarse = 1e-4
GRID = np.concatenate([[5e-5], np.arange(1e-4, 1.0 - 1e-12, 1e-4), [1.0 - 1e-12]])
STAGES = {"screen": ("_past_triangle",), "side solve": ("_y_solve_grid",),
          "triple": ("_reduced_triple",), "centering": ("centered",),
          "pair terms": ("pair_terms",), "rates": ("vortex_rates",),
          "L terms": ("l_terms",), "quartic": ("quartic_coefficients", "quartic_mu2")}
REST = "rest"


class Stages:
    """Wraps the stage functions of `search` while active; collects each
    stage's seconds per scan, and its peak when tracing."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.peak = defaultdict(int)
        self.base = 0

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            self.gap()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - t0
                self.note(stage)
        return timed

    def note(self, stage):
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] - self.base
            self.peak[stage] = max(self.peak[stage], peak)
            tracemalloc.reset_peak()

    def gap(self):
        self.note(REST)

    def __enter__(self):
        self.saved = {name: getattr(search, name) for names in STAGES.values() for name in names}
        for stage, names in STAGES.items():
            for name in names:
                setattr(search, name, self.wrap(stage, self.saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(search, name, fn)


def scan(alpha: float) -> float:
    t0 = time.perf_counter()
    search._margin_grid(alpha, GRID)
    return time.perf_counter() - t0


def measure(alpha: float, repeats: int) -> dict:
    scan(alpha)     # warm-up
    total = [scan(alpha) for _ in range(repeats)]
    per_stage = defaultdict(list)
    for _ in range(repeats):
        with Stages() as st:
            whole = scan(alpha)
        for stage in STAGES:
            per_stage[stage].append(st.seconds[stage])
        per_stage[REST].append(whole - sum(st.seconds.values()))
    with Stages() as st:
        tracemalloc.start()
        st.base = tracemalloc.get_traced_memory()[0]
        out = search._margin_grid(alpha, GRID)
        st.gap()
        scan_peak = max(st.peak.values())
        tracemalloc.stop()
    return {
        "finite": int(np.count_nonzero(np.isfinite(out[0]))),
        "scan": {"median_us": statistics.median(total) * 1e6, "peak_mb": scan_peak / 1e6},
        "stages": {stage: {"median_us": statistics.median(per_stage[stage]) * 1e6,
                           "peak_mb": st.peak[stage] / 1e6}
                   for stage in [*STAGES, REST]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=200)
    p.add_argument("--out")
    args = p.parse_args(argv)
    text = json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "cpus": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "grid_points": len(GRID), "repeats": args.repeats,
        "alphas": {str(a): measure(a, args.repeats) for a in ALPHAS},
    }, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
