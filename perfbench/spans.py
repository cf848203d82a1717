"""Span wrappers around the gsqg layers, installed from outside the package.

A wrapper replaces a function at every place it is looked up at call time:
each module attribute of the ``gsqg`` package bound to the function, or
the method on its class.  Spans (name, parent, start, end, info) are kept
in memory; ``layer_metrics`` turns them into per-layer counts and self
times.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter_ns

import gsqg
import gsqg.burstsim
import gsqg.cli
import gsqg.integrator
import gsqg.kernel
import gsqg.search
import gsqg.selfsimilar
import gsqg.stability

NAME, PARENT, START, END, INFO = range(5)
RAISED = "raised"


def _vortex_count(args, result):
    return len(args[0].z)


def _steps(args, result):
    return len(result.segments)


def _points(args, result):
    return len(args[1])


def _empty(args, result):
    return result.empty


def _records(args, result):
    return len(result.records)


def _t_ini(args, result):
    return args[1]


def _csv_size(args, result):
    return len(args[0].times), len(result)


def _output_bytes(args, result):
    # a manifest records its own wall time, so its size is not a count
    if str(args[0]).endswith(".manifest.json"):
        return 0
    return len(args[1].encode())


# (span name, owner, attribute, info extractor)
TARGETS = (
    ("kernel.rhs", gsqg.kernel, "rhs", _vortex_count),
    ("kernel.state", gsqg.kernel.VortexState, "__post_init__", None),
    ("kernel.conserved", gsqg.kernel, "conserved", None),
    ("integrator.integrate", gsqg.integrator, "integrate", _steps),
    ("integrator.eval", gsqg.integrator.Trajectory, "eval", None),
    ("integrator.to_csv", gsqg.integrator.Trajectory, "to_csv", _csv_size),
    ("integrator.collapse_fit", gsqg.integrator, "collapse_time_fit", None),
    ("selfsimilar.rate", gsqg.selfsimilar, "selfsimilar_rate", None),
    ("stability.check", gsqg.stability, "hypothesis_a_check", None),
    ("search.sweep", gsqg.search, "sweep", _records),
    ("search.x_interval", gsqg.search, "x_interval", _empty),
    ("search.margin_grid", gsqg.search, "_margin_grid", _points),
    ("search.y_solve", gsqg.search, "_y_solve_grid", None),
    ("burstsim.run_burst", gsqg.burstsim, "run_burst", _t_ini),
    ("burstsim.study", gsqg.burstsim, "convergence_study", None),
    ("cli.write", gsqg.cli, "_write", _output_bytes),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[INFO] = (RAISED, type(exc).__name__)
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each target by its wrapper, and
        restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, info in TARGETS:
                fn = getattr(owner, attr)
                wrapped = self.wrap(name, fn, info)
                if isinstance(owner, type):
                    bindings = [owner]
                else:
                    bindings = [m for key, m in sorted(sys.modules.items())
                                if (key == "gsqg" or key.startswith("gsqg."))
                                and getattr(m, attr, None) is fn]
                for holder in bindings:
                    saved.append((holder, attr, fn))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)


def _durations(spans):
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (times in seconds
    unless the name says otherwise; 0 where a layer did not run).  The
    ``*.self_s`` times are self times; the other times (per-call,
    per-step and per-point costs, point_calls_s) include the spans below
    the call."""
    dur, self_ns = _durations(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(values, name):
        return sum(values[i] for i in idx(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    rhs = idx("kernel.rhs")
    # a call that raised has no vortex count; it is timed but not per pair
    done = [i for i in rhs if isinstance(spans[i][INFO], int)]
    m["kernel.rhs.calls"] = len(rhs)
    m["kernel.rhs.self_s"] = total(self_ns, "kernel.rhs") * 1e-9
    m["kernel.rhs.ns_per_pair"] = ratio(
        sum(self_ns[i] for i in done),
        sum(spans[i][INFO] * (spans[i][INFO] - 1) for i in done))
    m["kernel.rhs.singular"] = sum(
        1 for i in rhs if spans[i][INFO] == (RAISED, "SingularityError"))
    for layer in ("kernel.state", "kernel.conserved"):
        m[f"{layer}.calls"] = len(idx(layer))
        m[f"{layer}.self_s"] = total(self_ns, layer) * 1e-9

    integ = set(idx("integrator.integrate"))
    steps = sum(spans[i][INFO] for i in integ)
    m["integrator.integrate.calls"] = len(integ)
    m["integrator.integrate.self_s"] = total(self_ns, "integrator.integrate") * 1e-9
    m["integrator.steps"] = steps
    m["integrator.us_per_step"] = ratio(total(dur, "integrator.integrate") * 1e-3, steps)
    m["integrator.rhs_per_step"] = ratio(
        sum(1 for i in rhs if spans[i][PARENT] in integ), steps)
    m["integrator.eval.calls"] = len(idx("integrator.eval"))
    m["integrator.eval.us_per_call"] = ratio(
        total(dur, "integrator.eval") * 1e-3, len(idx("integrator.eval")))
    csv = idx("integrator.to_csv")
    m["integrator.to_csv.rows"] = sum(spans[i][INFO][0] for i in csv)
    m["integrator.to_csv.bytes"] = sum(spans[i][INFO][1] for i in csv)
    m["integrator.to_csv.self_s"] = total(self_ns, "integrator.to_csv") * 1e-9
    m["integrator.collapse_fit.self_s"] = total(self_ns, "integrator.collapse_fit") * 1e-9

    m["selfsimilar.rate.calls"] = len(idx("selfsimilar.rate"))
    m["selfsimilar.rate.self_s"] = total(self_ns, "selfsimilar.rate") * 1e-9
    m["stability.check.calls"] = len(idx("stability.check"))
    m["stability.check.us_per_call"] = ratio(
        total(dur, "stability.check") * 1e-3, len(idx("stability.check")))

    xint = idx("search.x_interval")
    empty = [i for i in xint if spans[i][INFO] is True]
    full = [i for i in xint if spans[i][INFO] is False]
    sweeps = set(idx("search.sweep"))
    m["search.x_interval.calls"] = len(xint)
    m["search.x_interval.empty"] = len(empty)
    m["search.x_interval.ms_interval"] = ratio(sum(dur[i] for i in full) * 1e-6, len(full))
    m["search.x_interval.ms_empty"] = ratio(sum(dur[i] for i in empty) * 1e-6, len(empty))
    m["search.alpha_probes"] = (sum(1 for i in xint if spans[i][PARENT] in sweeps)
                                - sum(spans[i][INFO] for i in sweeps))
    grid = idx("search.margin_grid")
    multi = [i for i in grid if spans[i][INFO] > 1]
    single = [i for i in grid if spans[i][INFO] == 1]
    m["search.margin_grid.calls"] = len(grid)
    m["search.margin_grid.points"] = sum(spans[i][INFO] for i in grid)
    m["search.margin_grid.ns_per_point"] = ratio(
        sum(dur[i] for i in multi), sum(spans[i][INFO] for i in multi))
    m["search.margin_grid.point_calls"] = len(single)
    m["search.margin_grid.point_calls_s"] = sum(dur[i] for i in single) * 1e-9
    m["search.y_solve.self_s"] = total(self_ns, "search.y_solve") * 1e-9

    runs = idx("burstsim.run_burst")
    distinct = {(_root(spans, i), spans[i][INFO]) for i in runs}
    m["burstsim.run_burst.calls"] = len(runs)
    m["burstsim.run_burst.self_s"] = total(self_ns, "burstsim.run_burst") * 1e-9
    m["burstsim.rerun_ratio"] = ratio(len(runs), len(distinct))
    m["burstsim.study.self_s"] = total(self_ns, "burstsim.study") * 1e-9

    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    m["cli.self_s"] = sum(self_ns[i] for i in roots) * 1e-9
    m["cli.write.bytes"] = sum(spans[i][INFO] for i in idx("cli.write"))
    m["cli.write.self_s"] = total(self_ns, "cli.write") * 1e-9
    return m


def _root(spans, i: int) -> int:
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
    return i


COUNTS = ("calls", "singular", "steps", "rows", "bytes", "empty",
          "alpha_probes", "points", "point_calls")


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNTS


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts of the first pass and the median of every time or ratio."""
    return {k: passes[0][k] if is_count(k)
            else statistics.median(p[k] for p in passes) for k in passes[0]}


def write_spans(path, passes: list[list[list]]) -> None:
    """Write the spans of every traced pass as CSV."""
    with open(path, "w") as fh:
        fh.write("pass,id,parent,name,start_ns,end_ns,info\n")
        for p, spans in enumerate(passes):
            for i, s in enumerate(spans):
                info = "" if s[INFO] is None else str(s[INFO]).replace(",", ";")
                fh.write(f"{p},{i},{s[PARENT]},{s[NAME]},{s[START]},{s[END]},{info}\n")
