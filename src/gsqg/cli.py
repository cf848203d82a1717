"""Command-line toolkit.

Subcommands: find-config (construct and check one triple), sweep (the
alpha admissibility sweep behind the x_-/x_+ curves), simulate (integrate
a triple and export the trajectory), burst (seeded burst runs from a
scenario file).  Every command writes a RunManifest JSON next to its
outputs; outputs are deterministic for identical manifests.

Exit codes: 0 success, 1 usage error, 2 negative scientific result
(failed stability check or empty admissible interval).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from . import __version__
from .burstsim import BurstScenario, convergence_study
from .integrator import IntegratorConfig, Status, collapse_time_fit, integrate
from .kernel import DomainError, VortexState, check_alpha
from .selfsimilar import Classification, TripleConfig, center, classify
from .search import oriented_config, sweep, sweep_csv, x_interval
from .stability import hypothesis_a_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse default exits 2; keep 2 for science
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _read_input(kind: str, path: str, parse):
    """Parse an input file; a missing or malformed one is a usage error."""
    try:
        return parse(Path(path).read_text())
    except DomainError:
        raise
    except OSError as e:
        raise DomainError(f"cannot read {kind} {path}: {e.strerror}") from e
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise DomainError(f"malformed {kind} {path}: {e!r}") from e


def _manifest(command: str, params: dict, outputs: list[Path], t0: float) -> None:
    base = outputs[0] if outputs else Path(f"{command}.out")
    man = {
        "command": command,
        "parameters": params,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "outputs": [str(p) for p in outputs],
    }
    _write(base.with_suffix(base.suffix + ".manifest.json"), json.dumps(man, indent=2))


def cmd_find_config(args) -> int:
    t_start = time.monotonic()
    out = Path(args.out)
    check_alpha(args.alpha)     # a usage error, not a failed construction
    if args.auto:
        rec = x_interval(args.alpha, coarse=args.x_coarse, refine_tol=args.refine_tol)
        if rec.empty:
            print(f"gsqg find-config: no admissible x at alpha={args.alpha}", file=sys.stderr)
            return EXIT_NEGATIVE
        x = 0.5 * (rec.x_minus + rec.x_plus)
    else:
        x = args.x
        if not 0.0 < x < 1.0:
            raise DomainError(f"--x must lie in (0, 1), got {x}")
    try:
        cfg = oriented_config(args.alpha, x)
    except DomainError as e:
        print(f"gsqg find-config: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    report = hypothesis_a_check(cfg)
    outputs = [
        _write(out, cfg.to_json()),
        _write(out.with_suffix(".report.json"), report.to_json()),
    ]
    _manifest("find-config", {"alpha": args.alpha, "x": x, "auto": args.auto,
                              "x_coarse": args.x_coarse, "refine_tol": args.refine_tol},
              outputs, t_start)
    print(f"x = {x:.12g}: hypothesis {'PASS' if report.passed else 'FAIL'}"
          f" ({report.details})")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_sweep(args) -> int:
    t_start = time.monotonic()
    lo, hi = args.alpha_min, args.alpha_max
    check_alpha(lo)
    check_alpha(hi)
    res = sweep(lo, hi, alpha_step=args.alpha_step, coarse=args.x_coarse,
                refine_tol=args.refine_tol, jobs=args.jobs)
    out = Path(args.out)
    outputs = [
        _write(out, sweep_csv(res)),
        _write(out.with_suffix(".endpoints.json"),
               json.dumps({"alpha_minus": res.alpha_minus,
                           "alpha_plus": res.alpha_plus}, indent=2)),
    ]
    _manifest("sweep", {
        "alpha_min": lo, "alpha_max": hi, "alpha_step": args.alpha_step,
        "x_coarse": args.x_coarse, "refine_tol": args.refine_tol,
        "jobs": args.jobs,
    }, outputs, t_start)
    print(f"alpha_minus = {res.alpha_minus}, alpha_plus = {res.alpha_plus}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    t_start = time.monotonic()
    cfg = _read_input("config", args.config, TripleConfig.from_json)
    cen = center(cfg)
    state0 = VortexState(t=args.t0, z=cen.a, xi=cen.xi, alpha=cen.alpha)
    icfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.rel_tol * 1e-3)
    kind = classify(cen)
    traj = integrate(state0, args.t1, icfg)
    t_star = None
    if kind is Classification.COLLAPSE and traj.status is Status.COLLAPSE_DETECTED:
        t_star, _ = collapse_time_fit(traj)
        print(f"collapse detected; fitted t* = {t_star:.12g}")
    out = Path(args.out)
    outputs = [_write(out, traj.to_csv())]
    _manifest("simulate", {
        "config": str(args.config), "t0": args.t0, "t1": args.t1,
        "rel_tol": args.rel_tol, "classification": kind.value,
        "t_star": t_star, "status": traj.status.value,
    }, outputs, t_start)
    print(f"status = {traj.status.value}, samples = {len(traj.times)}")
    return EXIT_OK if traj.status is not Status.STEP_FAILURE else EXIT_NEGATIVE


def cmd_burst(args) -> int:
    t_start = time.monotonic()
    scenario = _read_input("scenario", args.scenario, BurstScenario.from_json)
    icfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.rel_tol * 1e-3)
    try:
        diag = convergence_study(scenario, icfg)
    except RuntimeError as e:   # a step failure, as simulate's, is a negative result
        print(f"gsqg burst: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    out_dir = Path(args.out)
    outputs = [_write(out_dir / f"trajectory_tini_{t_ini:.6g}.csv", traj.to_csv())
               for t_ini, traj in zip(scenario.t_ini_sequence, diag.runs)]
    outputs.append(_write(out_dir / "diagnostics.json", json.dumps({
        "exponent_fit": diag.exponent_fit,
        "cauchy_gaps": list(diag.cauchy_gaps),
        "background_drift": diag.background_drift,
        "merged_intensity": scenario.merged_intensity,
    }, indent=2)))
    _manifest("burst", {"scenario": str(args.scenario), "rel_tol": args.rel_tol},
              outputs, t_start)
    print(f"exponent_fit = {diag.exponent_fit:.6g}, "
          f"cauchy_gaps = {[f'{g:.3e}' for g in diag.cauchy_gaps]}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="gsqg", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("find-config", help="construct and check one triple")
    fc.add_argument("--alpha", type=float, required=True)
    which = fc.add_mutually_exclusive_group(required=True)
    which.add_argument("--x", type=float)
    which.add_argument("--auto", action="store_true",
                       help="pick the midpoint of the admissible interval")
    fc.add_argument("--x-coarse", type=float, default=1e-4)
    fc.add_argument("--refine-tol", type=float, default=1e-7)
    fc.add_argument("--out", type=str, required=True)
    fc.set_defaults(func=cmd_find_config)

    sw = sub.add_parser("sweep", help="admissibility sweep over alpha")
    sw.add_argument("--alpha-min", type=float, required=True)
    sw.add_argument("--alpha-max", type=float, required=True)
    sw.add_argument("--alpha-step", type=float, default=1e-3)
    sw.add_argument("--x-coarse", type=float, default=1e-4)
    sw.add_argument("--refine-tol", type=float, default=1e-7)
    sw.add_argument("--jobs", type=int, default=1, help="worker processes")
    sw.add_argument("--out", type=str, required=True)
    sw.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="integrate a triple configuration")
    sim.add_argument("--config", type=str, required=True)
    sim.add_argument("--t0", type=float, required=True)
    sim.add_argument("--t1", type=float, required=True)
    sim.add_argument("--rel-tol", type=float, default=1e-10)
    sim.add_argument("--out", type=str, required=True)
    sim.set_defaults(func=cmd_simulate)

    bu = sub.add_parser("burst", help="seeded burst runs from a scenario file")
    bu.add_argument("--scenario", type=str, required=True)
    bu.add_argument("--rel-tol", type=float, default=1e-10)
    bu.add_argument("--out", type=str, required=True)
    bu.set_defaults(func=cmd_burst)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the parser is a few hundred objects in reference cycles: free it now,
    # before a process that calls main repeatedly promotes it to the oldest
    # generation, which only a full collection empties
    gc.collect(1)
    try:
        return args.func(args)
    except DomainError as e:
        print(f"gsqg {args.command}: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
