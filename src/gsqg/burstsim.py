"""Bursts seeded among background vortices, and their time reversals.

A Hypothesis-A triple placed at the origin with its self-similar scale
Z(t_ini), surrounded by well-separated background vortices, is integrated
under the full N-vortex dynamics (translation invariant, so the origin
loses nothing).  Shrinking t_ini toward the singular time produces runs
that converge to the limiting burst solution; the Cauchy gaps between
successive runs are the numerical evidence for that limit (the
construction itself is an existence argument, not an algorithm, so the
study is evidence rather than proof).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .integrator import IntegratorConfig, Status, Trajectory, integrate, integrate_batch, pair_rows
from .kernel import DomainError, VortexState, max_pair_distance, min_pair_distance
from .selfsimilar import (Classification, SelfSimilarMotion, TripleConfig,
                          center, known_keys, motion_from_config, zeta)

RHO_SEP_DEFAULT = 0.5
# points of the log-spaced time grid of the Cauchy study
CAUCHY_GRID = 120


@dataclass(frozen=True)
class BurstScenario:
    triple: TripleConfig                      # centered on construction
    background: tuple[tuple[complex, float], ...] = ()
    t_ini_sequence: tuple[float, ...] = (1e-4, 5e-5, 2.5e-5, 1.25e-5)
    horizon: float = 1e-3
    rho_sep: float = RHO_SEP_DEFAULT
    motion: SelfSimilarMotion = field(init=False)

    def __post_init__(self):
        cen = center(self.triple)
        object.__setattr__(self, "triple", cen)
        object.__setattr__(self, "motion", motion_from_config(cen))
        if self.motion.classification() is Classification.RELATIVE_EQUILIBRIUM:
            raise DomainError("triple is a relative equilibrium, not a burst or a collapse")
        t_ini = tuple(float(t) for t in self.t_ini_sequence)
        if not all(0.0 < t < np.inf for t in t_ini) or any(
            t_ini[i] <= t_ini[i + 1] for i in range(len(t_ini) - 1)
        ):
            raise DomainError("t_ini_sequence must be finite, positive and decreasing")
        object.__setattr__(self, "t_ini_sequence", t_ini)
        if not max(t_ini, default=0.0) < self.horizon < np.inf:
            raise DomainError(f"horizon must be finite and past every t_ini, got {self.horizon}")
        if not 0.0 < self.rho_sep < np.inf:
            raise DomainError(f"rho_sep must be finite and positive, got {self.rho_sep}")
        try:    # the vortex-set checks: finite positions, finite nonzero intensities
            VortexState(t=0.0, z=[p for p, _ in self.background],
                        xi=[w for _, w in self.background], alpha=self.triple.alpha)
        except DomainError as e:
            raise DomainError(f"background: {e}") from None
        pts = np.array([0.0] + [p for p, _ in self.background], dtype=complex)
        if min_pair_distance(pts) < self.rho_sep:
            raise DomainError(
                "background vortices must stay rho_sep away from each "
                "other and from the triple at the origin"
            )

    @property
    def merged_intensity(self) -> float:
        """Intensity of the vortex the triple merges into at the singular time."""
        return float(np.sum(self.triple.xi))

    def to_json(self) -> str:
        return json.dumps(
            {
                "triple": json.loads(self.triple.to_json()),
                "background": [
                    {"position": [p.real, p.imag], "intensity": z}
                    for p, z in self.background
                ],
                "t_ini": list(self.t_ini_sequence),
                "horizon": self.horizon,
                "rho_sep": self.rho_sep,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BurstScenario":
        o = known_keys(json.loads(text), {"triple", "background", "t_ini", "horizon",
                                          "rho_sep"}, "scenario")
        triple = TripleConfig.from_json(json.dumps(o["triple"]))
        entries = [known_keys(b, {"position", "intensity"}, "background entry")
                   for b in o.get("background", [])]
        bg = tuple((complex(b["position"][0], b["position"][1]), float(b["intensity"]))
                   for b in entries)
        return cls(
            triple=triple, background=bg, t_ini_sequence=tuple(o["t_ini"]),
            horizon=float(o["horizon"]), rho_sep=float(o.get("rho_sep", RHO_SEP_DEFAULT)),
        )


@dataclass(frozen=True)
class BurstDiagnostics:
    exponent_fit: float
    cauchy_gaps: tuple[float, ...]
    background_drift: float
    runs: tuple[Trajectory, ...] = field(default=(), compare=False, repr=False)


def make_burst_initial(s: BurstScenario, t_ini: float) -> VortexState:
    """Full N-vortex state with the triple at a_j Z(t), where t = t_ini
    for a burst and t = -t_ini for a collapse."""
    if t_ini <= 0.0:
        raise DomainError("t_ini must be positive")
    t = t_ini if s.motion.a_rate > 0.0 else -t_ini
    Z = zeta(s.motion, t)
    triple_pos = s.triple.a * Z
    spread = float(max_pair_distance(triple_pos))
    if spread > s.rho_sep / 2.0:
        raise DomainError(
            f"triple spread {spread:.3e} at t_ini={t_ini} exceeds rho_sep/2"
        )
    z = np.concatenate([triple_pos, np.array([p for p, _ in s.background])])
    xi = np.concatenate([s.triple.xi, np.array([w for _, w in s.background])])
    return VortexState(t=t, z=z, xi=xi, alpha=s.triple.alpha)


def _fit_exponent(times: np.ndarray, spread: np.ndarray) -> float:
    """Log-log slope over the last two decades of |t| (skips the early
    transient from background forcing)."""
    tt = np.abs(times)
    sel = (tt >= tt.max() / 100.0) & (spread > 0)
    if sel.sum() < 4:
        sel = spread > 0
    slope, _ = np.polyfit(np.log(tt[sel]), np.log(spread[sel]), 1)
    return float(slope)


def _diagnostics(s: BurstScenario, t_ini: float, traj: Trajectory) -> BurstDiagnostics:
    """Triple-spread exponent and background drift of one seeded run."""
    if traj.status is Status.STEP_FAILURE:
        raise RuntimeError(f"integration failed at t={traj.times[-1]} (t_ini={t_ini})")
    expo = _fit_exponent(traj.times, max_pair_distance(traj.positions[:, :3]))
    drift = np.max(np.abs(traj.positions[-1, 3:] - [p for p, _ in s.background]), initial=0.0)
    return BurstDiagnostics(exponent_fit=expo, cauchy_gaps=(), background_drift=float(drift))


def run_burst(s: BurstScenario, t_ini: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> tuple[Trajectory, BurstDiagnostics]:
    """Integrate one seeded run and fit the triple-spread scaling.

    A burst runs from t_ini out to the horizon; a collapse runs from
    -horizon in toward -t_ini (the spread then shrinks).
    """
    if s.motion.a_rate < 0.0:
        traj = integrate(make_burst_initial(s, s.horizon), -t_ini, cfg)
    else:
        traj = integrate(make_burst_initial(s, t_ini), s.horizon, cfg)
    return traj, _diagnostics(s, t_ini, traj)


def convergence_study(s: BurstScenario,
                      cfg: IntegratorConfig = IntegratorConfig()) -> BurstDiagnostics:
    """Cauchy study over the t_ini refinement sequence.

    Successive runs, integrated in lockstep with the bits of their `run_burst`,
    are compared in the sup norm over a shared log-spaced time grid;
    decreasing gaps are the numerical evidence that the seeded runs converge
    to a limiting burst among the background vortices.  A run that fails or
    stops before the horizon ends the study.  The trajectories come back in
    the `runs` field, in t_ini order, with no dense output or grid values.
    """
    if len(s.t_ini_sequence) < 3:
        raise DomainError("need at least three t_ini values")
    if s.motion.a_rate < 0.0:
        raise DomainError("convergence study is defined on the burst orientation")
    states = [make_burst_initial(s, t_ini) for t_ini in s.t_ini_sequence]
    grid = np.geomspace(s.t_ini_sequence[0], s.horizon, CAUCHY_GRID)
    size, runs, gaps, prev = pair_rows(states[0].n), [], [], None
    # a batch at a time, in t_ini order so a failure names the first failing run;
    # each run evaluates the grid as it steps, and its values live until its next gap
    for a in range(0, len(states), size):
        for t_ini, traj in zip(s.t_ini_sequence[a:],
                               integrate_batch(states[a:a + size], s.horizon, cfg, grid)):
            diag = _diagnostics(s, t_ini, traj)
            if traj.status is not Status.COMPLETED:
                raise RuntimeError(f"run stopped with {traj.status.value} at t={traj.times[-1]}"
                                   f" before the horizon {s.horizon} (t_ini={t_ini})")
            if prev is not None:
                gaps.append(max(np.abs(prev - traj.values).max(axis=1).tolist()))
            prev, traj.values = traj.values, None
            runs.append(traj)
    # exponent and drift come from the run closest to the singular time
    return replace(diag, cauchy_gaps=tuple(gaps), runs=tuple(runs))


def collapse_scenario(s: BurstScenario) -> BurstScenario:
    """Time inversion: negate every intensity, which turns a burst into
    a collapse and back.  Applying it twice returns the original scenario."""
    triple = TripleConfig(a=s.triple.a, xi=-s.triple.xi, alpha=s.triple.alpha)
    background = tuple((p, -w) for p, w in s.background)
    return BurstScenario(
        triple=triple, background=background, t_ini_sequence=s.t_ini_sequence,
        horizon=s.horizon, rho_sep=s.rho_sep,
    )
