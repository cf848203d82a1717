"""Alternating parent/change pairs of benchmark runs, with output identity.

    python3 tools/bench_pairs.py --parent REV --change REV --workload W \\
        [--seed S] [--pairs P] [--seconds T] [--work DIR] --out FILE

Each revision is exported with `git archive` into DIR/parent and
DIR/change, and each run moves its side's tree to DIR/tree and back, so
both sides run from one path: the path of a tree moves the peak_rss_mb
reading.  Pair k runs the parent first when k is even and the
change first when k is odd; a run is `perfbench/run.py --trace 0` of the
exported tree, unmodified.  FILE gets, per end-to-end metric, each side's
runs, median and quartiles (inclusive method) and the pairs the change
wins, each run's pass count, the medians of each run's raw (unnormalized)
pass, set-up and reference_work seconds, and the sha256 of every
non-manifest output file of each side's last run.

A 30 s run keeps every pass's results, so its peak_rss_mb grows with the
number of passes that fit in it, and a faster tree reads more memory.  So
after the pairs, each tree also runs K passes of its own, unmodified
`perfbench/run.py` `run_pass` in a fresh process with PYTHONHASHSEED=0,
keeping the results as `run.py` does; K is the parent's median pass count,
and RSS_RUNS such processes per side alternate sides.  FILE gets each
side's peak RSS of those processes, in MB as peak_rss_mb.

A run that fails ends the script with the tail of its stderr, and so does a
DIR left over from an earlier invocation, named.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

SIDES = ("parent", "change")
# lines of a failed run's stderr shown in the exit message
STDERR_TAIL = 20
# fixed-pass processes per side
RSS_RUNS = 3
# one fixed-pass process: argv is workload, seed, pass count; the set-up is
# that of run.py's main without its probes
FIXED_PASSES = """
import json, os, resource, shutil, sys
sys.path.insert(0, "perfbench")
import run
workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for var in run.THREAD_VARS:
    os.environ.setdefault(var, "1")
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
gsqg = run.import_gsqg()
import spans, workloads
base = run.OUT / workload
shutil.rmtree(base, ignore_errors=True)
ref = workloads.write_inputs(workload, seed, base / "in")
ops = workloads.ops(workload, base / "in", base / "out", ref)
passes = [run.run_pass(gsqg, ops, base / "out") for _ in range(count)]
print(json.dumps({"ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "failures": [r["failure"] for res in passes for r in res
                               if r["failure"] is not None][:3]}))
"""


def export(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                         capture_output=True).stdout
    try:
        dest.mkdir(parents=True)
    except FileExistsError:
        sys.exit(f"bench_pairs: {dest} exists from an earlier run; remove it or pass "
                 "another --work")
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return commit


@contextlib.contextmanager
def placed(tree: Path, at: Path):
    """Move tree to at for the length of the block, and back after it."""
    tree.rename(at)
    try:
        yield at
    finally:
        at.rename(tree)


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int, dict]:
    """Metric values, untraced pass count and median raw times of one
    benchmark run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        sys.exit(f"bench_pairs: {tree} run exited {proc.returncode}:\n{tail}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        sys.exit(f"bench_pairs: {tree} failed: {record['failures'][:3]}")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    untraced, probes = record["pass_seconds"]["untraced"], record["probe_seconds"]
    raw = {"pass_s": statistics.median(untraced), "setup_s": statistics.median(probes["setup"]),
           "reference_s": statistics.median(probes["reference"])}
    return values, len(untraced), raw


def fixed_pass_rss(tree: Path, workload: str, seed: int, count: int) -> float:
    """Peak RSS in MB of a fresh process that runs count passes."""
    proc = subprocess.run([sys.executable, "-c", FIXED_PASSES, workload, str(seed), str(count)],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        sys.exit(f"bench_pairs: {tree} fixed-pass run exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failures"]:
        sys.exit(f"bench_pairs: {tree} fixed-pass run failed: {result['failures']}")
    return result["ru_maxrss_kb"] / 1024.0


def outputs(tree: Path, workload: str) -> dict[str, str]:
    base = tree / ".perfbench_out" / workload / "out"
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*"))
            if p.is_file() and not p.name.endswith(".manifest.json")}


def summary(runs: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--work", type=Path, default=Path(".bench_pairs"))
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {side: args.work / side for side in SIDES}
    at = args.work / "tree"
    commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {side: [] for side in SIDES}
    passes = {side: [] for side in SIDES}
    raw = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            with placed(trees[side], at):
                values, n, times = run(at, args.workload, args.seed, args.seconds)
            runs[side].append(values)
            passes[side].append(n)
            raw[side].append(times)
    metrics = {}
    for m in declared:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        series = {side: [v[name] for v in runs[side]] for side in SIDES}
        wins = sum(sign * c < sign * q for q, c in zip(series["parent"], series["change"]))
        metrics[name] = {**{side: summary(series[side]) for side in SIDES},
                         "change_better_pairs": wins, "pairs": args.pairs}
    digests = {side: outputs(trees[side], args.workload) for side in SIDES}
    count = statistics.median_low(passes["parent"])
    rss = {side: [] for side in SIDES}
    for k in range(RSS_RUNS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            with placed(trees[side], at):
                rss[side].append(fixed_pass_rss(at, args.workload, args.seed, count))
    args.out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "commits": commits, "metrics": metrics, "passes": passes,
        "raw_seconds": {side: {name: summary([t[name] for t in raw[side]])
                               for name in raw[side][0]} for side in SIDES},
        "fixed_pass_rss_mb": {"passes": count, "hash_seed": 0,
                              **{side: summary(rss[side]) for side in SIDES}},
        "outputs": {**digests, "identical": digests["parent"] == digests["change"],
                    "files": len(digests["change"])},
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
