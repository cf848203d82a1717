"""Benchmark of the gsqg command-line toolkit.

    python3 perfbench/run.py --workload {sweep,orbits,crowd} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree: the package is imported from ./src
and nothing is installed.  Inputs are generated from the seed into
.perfbench_out/<workload>/in, and each pass runs the workload's gsqg
invocations in this process through ``gsqg.cli.main`` (sweeps with
``--jobs 1``), checks every output, and checks that each output file has
the same sha256 in every pass.  Passes repeat until the next one would end
after S seconds.  BLAS and OpenMP pools get one thread unless the
caller's environment sets their sizes.

--trace 0 reports the end-to-end metrics, measured untraced:
  setup_s      median time from spawning a fresh interpreter to inputs ready
               (interpreter start, ``import gsqg``, input generation)
  job_s        median wall time of one pass over the workload's invocations
  peak_rss_mb  peak resident memory of this process
Both times are speed-normalized seconds.  The speed of a shared host
drifts by tens of percent within minutes, so every probe process (spawned
every PROBE_EVERY_S between invocations) also times ``reference_work``, a
fixed computation that shares no code with gsqg, and each time is scaled
by REF_S / (reference time measured beside it).  The process pins itself
to one CPU so that probes and passes share it.  The raw wall times are in
the environment record.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py, the untraced per-command times, and the tracing
overhead; traced outputs must be byte-identical to untraced ones and the
counts must repeat exactly between traced passes.  Spans are written to
.perfbench_out/<workload>/spans.csv.

The line before the last holds the environment record and the sample
count of each metric; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_UNTRACED = 3
PROBE_EVERY_S = 2.0
# reference_work time to which normalized seconds are scaled: close to its
# median time on a 2-vCPU Intel Xeon VM at 2.0 GHz
REF_S = 0.25
DEFAULT_SEED = 1
# One workload runs on one core: BLAS and OpenMP pools get one thread unless
# the caller chose otherwise (at N = 99 a second OpenBLAS thread only spins).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_METRICS = {"sweep": "sweep_s", "find-config": "find_config_s",
                   "simulate": "simulate_s", "burst": "burst_s"}


def import_gsqg():
    """Import gsqg from this tree's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gsqg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gsqg from {SRC}: {exc}")
    if not Path(gsqg.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: gsqg imported from {gsqg.__file__}, not {SRC}")
    return gsqg


def reference_work() -> float:
    """Time a fixed mix of the work gsqg does: Python objects, small-array
    NumPy calls and NumPy passes over arrays larger than the L2 cache."""
    import numpy as np
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    keys = rng.random(200_000).tolist()
    objs = sorted(((k, str(i)) for i, k in enumerate(keys)), key=lambda t: t[0])
    acc = sum(k for k, _ in objs[::7])
    a = rng.standard_normal(400_000) + 1j * rng.standard_normal(400_000)
    for _ in range(6):
        acc += float(np.abs(a * np.conj(a[::-1]) + a).sum())
    z = np.exp(2j * np.pi * np.arange(4) / 4)
    for _ in range(1500):
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1.0)
        acc += float(np.abs(d).min())
    if not np.isfinite(acc):
        raise ArithmeticError("reference computation went non-finite")
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int, in_dir: Path) -> None:
    import_gsqg()
    import workloads
    workloads.write_inputs(workload, seed, in_dir)
    print("ready", flush=True)
    print(reference_work(), flush=True)


def probe(workload: str, seed: int, probe_dir: Path) -> tuple[float, float]:
    """Set-up time of a fresh interpreter (spawn to its 'ready' line) and
    the reference_work time it then measures."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        reference = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: setup probe failed ({proc.returncode})")
    return elapsed, float(reference)


def output_files(path: Path) -> list[Path]:
    """Files an invocation wrote, without its manifest (which carries the
    wall time and so differs between repetitions)."""
    if path.is_dir():
        files = path.rglob("*")
    else:
        files = path.parent.glob(path.stem + ".*")
    return sorted(p for p in files
                  if p.is_file() and not p.name.endswith(".manifest.json"))


def digest(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in output_files(path)}


def run_pass(gsqg, ops, out_dir: Path, tracer=None, before_op=None) -> list[dict]:
    """Run every invocation once; time, check and hash each.  before_op,
    if given, runs before each invocation and returns the index of the
    probe that precedes it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    results = []
    for op in ops:
        probe_index = before_op() if before_op is not None else None
        stdout, stderr = io.StringIO(), io.StringIO()
        main = (tracer.wrap(f"cli.{op.command}", gsqg.cli.main)
                if tracer is not None else gsqg.cli.main)
        failure = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:      # a crash is a failed operation
                failure = f"raised {exc!r}"
            seconds = time.perf_counter() - t0
        if failure is None:
            try:
                failure = op.check(code, stdout.getvalue())
            except Exception as exc:      # unreadable output is a failure too
                failure = f"check raised {exc!r}"
        if failure is not None and stderr.getvalue():
            failure += f" ({stderr.getvalue().strip()[-300:]})"
        results.append({"command": op.command, "seconds": seconds, "probe": probe_index,
                        "failure": failure, "digest": digest(op.outputs)})
    return results


def environment(gsqg, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "gsqg": gsqg.__version__, "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # passes and probes share one CPU, so a probe's reference time measures
    # the CPU (and its load from outside) that the passes beside it ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    gsqg = import_gsqg()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    ref = workloads.write_inputs(args.workload, args.seed, base / "in")
    ops = workloads.ops(args.workload, base / "in", base / "out", ref)

    # trace 0: untraced passes only, with a probe before any invocation
    # that starts PROBE_EVERY_S or more after the last probe, and one after
    # the last pass.  trace 1: one untraced pass (whose digests the traced
    # passes must reproduce), two traced passes, then untraced and traced
    # in turn.  A pass starts only if, timed like the last pass of its
    # kind, it ends within the budget.
    probes: list[tuple[float, float]] = []
    probed_at = -math.inf

    def run_probe() -> int:
        nonlocal probed_at
        probes.append(probe(args.workload, args.seed, base / f"setup{len(probes)}"))
        probed_at = time.perf_counter()
        return len(probes) - 1

    def before_op() -> int:
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            return run_probe()
        return len(probes) - 1

    prefix = [False, True, True] if args.trace else [False] * MIN_UNTRACED
    passes: list[tuple[bool, list[dict]]] = []
    traced_spans: list[list] = []
    last = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        if len(passes) < len(prefix):
            traced = prefix[len(passes)]
        else:
            traced = bool(args.trace) and not passes[-1][0]
            if time.perf_counter() - start + last[traced] > args.seconds:
                break
        if traced:
            tracer = spans.Tracer()
            with tracer.installed():
                res = run_pass(gsqg, ops, base / "out", tracer)
            traced_spans.append(tracer.spans)
        else:
            res = run_pass(gsqg, ops, base / "out",
                           before_op=None if args.trace else before_op)
        last[traced] = sum(r["seconds"] for r in res)
        passes.append((traced, res))
    if not args.trace:
        run_probe()

    reference = passes[0][1]
    failures = []
    for n, (was_traced, res) in enumerate(passes):
        for r, r0 in zip(res, reference):
            if r["failure"] is None and r["digest"] != r0["digest"]:
                r["failure"] = "output bytes differ from the first pass"
            if r["failure"] is not None:
                failures.append(f"pass {n} ({'traced' if was_traced else 'untraced'}) "
                                f"{r['command']}: {r['failure']}")
    failed = len(failures)
    if args.trace:
        values, samples, moved = per_layer_metrics(passes, traced_spans)
        if moved:
            failures.append(f"counts differ between traced passes: {moved}")
        spans.write_spans(base / "spans.csv", traced_spans)
    else:
        values, samples = end_to_end_metrics(probes, passes)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    record = {
        "environment": environment(gsqg, args.workload, args.seed),
        "samples": samples,
        "pass_seconds": {"untraced": job_times(passes, False),
                         "traced": job_times(passes, True)},
        "probe_seconds": {"setup": [p[0] for p in probes],
                          "reference": [p[1] for p in probes]},
        "failures": failures,
    }
    sweep_csvs = sorted((base / "out").glob("sweep_*.csv"))
    if sweep_csvs:
        rows = [r for f in sweep_csvs for r in f.read_text().splitlines()[1:]]
        record["empty_alphas"] = f"{sum(r.endswith(',empty') for r in rows)}/{len(rows)}"
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": sum(len(res) for _, res in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def job_times(passes, traced: bool) -> list[float]:
    return [sum(r["seconds"] for r in res) for t, res in passes if t == traced]


def end_to_end_metrics(probes: list[tuple[float, float]], passes):
    """Values and sample counts of the end-to-end metrics.

    probes holds (set-up, reference) times; an invocation whose result
    names probe k ran between probes k and k + 1 and is normalized by the
    mean of their reference times."""
    setup = [REF_S * s / r for s, r in probes]
    ref = [r for _, r in probes]
    job = [sum(REF_S * r["seconds"] * 2.0 / (ref[r["probe"]] + ref[r["probe"] + 1])
               for r in res) for traced, res in passes if not traced]
    values = {"setup_s": statistics.median(setup),
              "job_s": statistics.median(job),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return values, {"setup_s": len(setup), "job_s": len(job), "peak_rss_mb": 1}


def per_layer_metrics(passes, traced_spans):
    """Values and sample counts of the per-layer metrics, and the names of
    counts that differ between traced passes."""
    import spans
    layer_passes = [spans.layer_metrics(s) for s in traced_spans]
    values = spans.combine(layer_passes)
    samples = {k: 1 if spans.is_count(k) else len(layer_passes) for k in values}
    moved = sorted({k for k in values if spans.is_count(k)
                    for other in layer_passes[1:] if other[k] != values[k]})
    for command, name in COMMAND_METRICS.items():
        per_pass = [sum(r["seconds"] for r in res if r["command"] == command)
                    for t, res in passes if not t]
        values[name] = float(statistics.median(per_pass))
        samples[name] = len(per_pass)
    values["trace.overhead_ratio"] = (statistics.median(job_times(passes, True))
                                      / statistics.median(job_times(passes, False)))
    samples["trace.overhead_ratio"] = len(passes)
    return values, samples, moved


if __name__ == "__main__":
    sys.exit(main())
