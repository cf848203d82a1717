"""Seeded inputs, per-pass command lists and output checks of the workloads.

Every workload drives ``gsqg.cli.main`` with argument lists, exactly as a
user of the ``gsqg`` command would.  The seed only shapes the generated
input files; the command lists are fixed.

- ``sweep``: two admissibility sweeps whose ranges cross the critical
  exponents (0.9708, 2.1343), then ``find-config --auto`` at twelve alphas
  inside the admissible windows.  The integrator never runs here.
- ``orbits``: a collapse ``simulate`` of the reference triple through its
  singular time, then the criterion-7 ``burst`` (one background vortex,
  N = 4).  Per-call and per-step overhead dominates.
- ``crowd``: the same burst among 96 background vortices (N = 99).  O(N^2)
  kernel arithmetic dominates at about the same step count.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gsqg

REF_ALPHA = 1.0
REF_X = 0.70190
# measured critical exponents of this pipeline, pinned by the acceptance suite
ALPHA_MINUS = 0.9708
ALPHA_PLUS = 2.1343
ALPHA_TOL = 1e-3
# (output name, alpha range, endpoint the range pins, its measured value)
SWEEP_RANGES = (("sweep_lo", 0.95, 1.05, "alpha_minus", ALPHA_MINUS),
                ("sweep_hi", 2.10, 2.16, "alpha_plus", ALPHA_PLUS))
FIND_CONFIG_ALPHAS = (0.975, 0.99, 1.005, 1.02, 1.035, 1.05,
                      2.102, 2.107, 2.112, 2.117, 2.122, 2.127)
SIM_T1 = 3.0
T_STAR_RTOL = 1e-4
T_INI = (1e-4, 5e-5, 2.5e-5, 1.25e-5)
HORIZON = 1e-3
RHO_SEP = 0.5
EXPONENT_TOL = 5e-3
LATTICE_PITCH = 0.6
LATTICE_SIDE = 10
LATTICE_JITTER = 0.045

WORKLOADS = ("sweep", "orbits", "crowd")


@dataclass(frozen=True)
class Op:
    """One gsqg invocation of a pass and the check of what it wrote."""

    command: str
    argv: tuple[str, ...]
    outputs: Path                  # file or directory the command writes
    check: Callable[[int, str], str | None]   # (exit code, stdout) -> failure


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _burst_triple(theta: float) -> gsqg.TripleConfig:
    cfg = gsqg.center(gsqg.oriented_config(REF_ALPHA, REF_X))
    return gsqg.TripleConfig(a=cfg.a * np.exp(1j * theta), xi=cfg.xi,
                             alpha=REF_ALPHA)


def collapse_config(theta: float) -> gsqg.TripleConfig:
    """The reference triple with negated intensities (collapse
    orientation), rotated by theta.  At t = 0 its scale factor is 1."""
    burst = _burst_triple(theta)
    return gsqg.TripleConfig(a=burst.a, xi=-burst.xi, alpha=REF_ALPHA)


def singular_time(cfg: gsqg.TripleConfig) -> float:
    """Closed-form collapse time of cfg started at t = 0 from its shape."""
    return -gsqg.reference_time(gsqg.motion_from_config(gsqg.center(cfg)))


def crowd_background(rng: np.random.Generator) -> tuple[tuple[complex, float], ...]:
    """96 vortices on a jittered square lattice around the burst site.

    The four lattice points nearest the site are left out; a jitter of at
    most LATTICE_JITTER per coordinate keeps every pair, and the site,
    at least RHO_SEP apart.  Intensities are +-U[0.4, 1.6].
    """
    ticks = (np.arange(LATTICE_SIDE) - (LATTICE_SIDE - 1) / 2.0) * LATTICE_PITCH
    grid = (ticks[None, :] + 1j * ticks[:, None]).ravel()
    grid = grid[np.argsort(np.abs(grid), kind="stable")][4:]
    jitter = rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, (2, len(grid)))
    pos = grid + jitter[0] + 1j * jitter[1]
    xi = rng.uniform(0.4, 1.6, len(pos)) * rng.choice([-1.0, 1.0], len(pos))
    pts = np.concatenate([[0.0], pos])
    gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)]
    if gaps.min() < RHO_SEP:
        raise ValueError("lattice jitter broke the rho_sep separation")
    return tuple((complex(p), float(w)) for p, w in zip(pos, xi))


def write_inputs(workload: str, seed: int, in_dir: Path) -> dict:
    """Generate the workload's input files from the seed; returns the
    reference values the output checks compare against."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        return {}
    theta = float(_rng(seed, workload).uniform(0.0, 2.0 * math.pi))
    triple = _burst_triple(theta)
    if workload == "orbits":
        cfg = collapse_config(theta)
        (in_dir / "collapse.json").write_text(cfg.to_json())
        background = ((complex(np.exp(1j * theta)), 1.0),)
        ref = {"t_star": singular_time(cfg)}
    elif workload == "crowd":
        background = crowd_background(_rng(seed, workload))
        ref = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    scen = gsqg.BurstScenario(triple=triple, background=background,
                              t_ini_sequence=T_INI, horizon=HORIZON,
                              rho_sep=RHO_SEP)
    (in_dir / "scenario.json").write_text(scen.to_json())
    return ref


def _sweep_check(out: Path, key: str, target: float):
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        ends = json.loads(out.with_suffix(".endpoints.json").read_text())
        got = ends[key]
        if got is None or abs(got - target) > ALPHA_TOL:
            return f"{key} = {got}, expected {target} +- {ALPHA_TOL}"
        return None
    return check


def _find_config_check(code, stdout):
    if code != 0:
        return f"exit code {code}"
    return None if "hypothesis PASS" in stdout else f"no PASS in {stdout!r}"


def _simulate_check(out: Path, t_star: float):
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        man = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        par = man["parameters"]
        if par["status"] != "collapse_detected":
            return f"status {par['status']}"
        if abs(par["t_star"] - t_star) > T_STAR_RTOL * t_star:
            return f"t* = {par['t_star']}, closed form {t_star}"
        return None
    return check


def _burst_check(out: Path, max_drift: float | None):
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        diag = json.loads((out / "diagnostics.json").read_text())
        gaps = diag["cauchy_gaps"]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            return f"Cauchy gaps not decreasing: {gaps}"
        if abs(diag["exponent_fit"] - 1.0 / 3.0) > EXPONENT_TOL:
            return f"exponent {diag['exponent_fit']} not within {EXPONENT_TOL} of 1/3"
        if max_drift is not None and diag["background_drift"] > max_drift:
            return f"background drift {diag['background_drift']} > {max_drift}"
        if len(list(out.glob("trajectory_tini_*.csv"))) != len(T_INI):
            return "missing trajectory files"
        return None
    return check


def ops(workload: str, in_dir: Path, out_dir: Path, ref: dict) -> list[Op]:
    """The gsqg invocations of one pass of the workload."""
    if workload == "sweep":
        res = []
        for name, lo, hi, key, target in SWEEP_RANGES:
            out = out_dir / f"{name}.csv"
            res.append(Op("sweep", (
                "sweep", "--alpha-min", str(lo), "--alpha-max", str(hi),
                "--alpha-step", "1e-3", "--x-coarse", "1e-4",
                "--refine-tol", "1e-7", "--jobs", "1", "--out", str(out)),
                out, _sweep_check(out, key, target)))
        for alpha in FIND_CONFIG_ALPHAS:
            out = out_dir / f"config_{alpha}.json"
            res.append(Op("find-config", (
                "find-config", "--alpha", str(alpha), "--auto",
                "--out", str(out)), out, _find_config_check))
        return res
    if workload == "orbits":
        sim_out = out_dir / "collapse.csv"
        burst_out = out_dir / "burst"
        return [
            Op("simulate", ("simulate", "--config", str(in_dir / "collapse.json"),
                            "--t0", "0", "--t1", str(SIM_T1), "--out", str(sim_out)),
               sim_out, _simulate_check(sim_out, ref["t_star"])),
            Op("burst", ("burst", "--scenario", str(in_dir / "scenario.json"),
                         "--out", str(burst_out)),
               burst_out, _burst_check(burst_out, None)),
        ]
    if workload == "crowd":
        burst_out = out_dir / "burst"
        return [Op("burst", ("burst", "--scenario", str(in_dir / "scenario.json"),
                             "--out", str(burst_out)),
                   burst_out, _burst_check(burst_out, RHO_SEP / 2.0))]
    raise ValueError(f"unknown workload {workload!r}")
