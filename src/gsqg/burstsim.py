"""Bursts seeded among background vortices, and their time reversals.

A Hypothesis-A triple placed at a burst site with its self-similar scale
Z(t_ini), surrounded by well-separated background vortices, is integrated
under the full N-vortex dynamics.  Shrinking t_ini toward the singular
time produces runs that converge to the limiting burst solution; the
Cauchy gaps between successive runs are the numerical evidence for that
limit (the construction itself is an existence argument, not an
algorithm, so the study is evidence rather than proof).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .integrator import IntegratorConfig, Status, Trajectory, integrate
from .kernel import DomainError, VortexState, max_pair_distance, min_pair_distance
from .selfsimilar import (Classification, SelfSimilarMotion, TripleConfig,
                          center, motion_from_config, zeta)

RHO_SEP_DEFAULT = 0.5
# points of the log-spaced time grid of the Cauchy study
CAUCHY_GRID = 120


@dataclass(frozen=True)
class BurstScenario:
    triple: TripleConfig                      # centered on construction
    background: tuple[tuple[complex, float], ...] = ()
    burst_site: complex = 0.0 + 0.0j
    t_ini_sequence: tuple[float, ...] = (1e-4, 5e-5, 2.5e-5, 1.25e-5)
    horizon: float = 1e-3
    rho_sep: float = RHO_SEP_DEFAULT
    time_reversed: bool = False
    motion: SelfSimilarMotion = field(init=False)

    def __post_init__(self):
        cen = center(self.triple)
        object.__setattr__(self, "triple", cen)
        object.__setattr__(self, "motion", motion_from_config(cen))
        want = Classification.COLLAPSE if self.time_reversed else Classification.BURST
        if self.motion.classification() is not want:
            raise DomainError(
                f"triple classifies as {self.motion.classification().value}, "
                f"scenario needs a {want.value}"
            )
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
        if not np.isfinite(self.burst_site):
            raise DomainError(f"burst_site must be finite, got {self.burst_site}")
        try:    # the vortex-set checks: finite positions, finite nonzero intensities
            VortexState(t=0.0, z=[p for p, _ in self.background],
                        xi=[w for _, w in self.background], alpha=self.triple.alpha)
        except DomainError as e:
            raise DomainError(f"background: {e}") from None
        pts = np.array([self.burst_site] + [p for p, _ in self.background], dtype=complex)
        if min_pair_distance(pts) < self.rho_sep:
            raise DomainError(
                "background vortices must stay rho_sep away from each "
                "other and from the burst site"
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
                "site": [self.burst_site.real, self.burst_site.imag],
                "rho_sep": self.rho_sep,
                "time_reversed": self.time_reversed,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BurstScenario":
        o = json.loads(text)
        triple = TripleConfig.from_json(json.dumps(o["triple"]))
        bg = tuple(
            (complex(b["position"][0], b["position"][1]), float(b["intensity"]))
            for b in o.get("background", [])
        )
        site = complex(*o.get("site", [0.0, 0.0]))
        reversed_ = o.get("time_reversed", False)
        if not isinstance(reversed_, bool):
            raise DomainError(f"time_reversed must be a JSON boolean, got {reversed_!r}")
        return cls(
            triple=triple, background=bg, burst_site=site,
            t_ini_sequence=tuple(o["t_ini"]), horizon=float(o["horizon"]),
            rho_sep=float(o.get("rho_sep", RHO_SEP_DEFAULT)),
            time_reversed=reversed_,
        )


@dataclass(frozen=True)
class BurstDiagnostics:
    exponent_fit: float
    cauchy_gaps: tuple[float, ...]
    background_drift: float
    runs: tuple[Trajectory, ...] = field(default=(), compare=False, repr=False)


def _signed_time(s: BurstScenario, t: float) -> float:
    return -t if s.time_reversed else t


def make_burst_initial(s: BurstScenario, t_ini: float) -> VortexState:
    """Full N-vortex state with the triple at site + a_j Z(t_ini)."""
    if t_ini <= 0.0:
        raise DomainError("t_ini must be positive")
    t = _signed_time(s, t_ini)
    Z = zeta(s.motion, t)
    triple_pos = s.burst_site + s.triple.a * Z
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


def run_burst(s: BurstScenario, t_ini: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> tuple[Trajectory, BurstDiagnostics]:
    """Integrate one seeded run and fit the triple-spread scaling.

    A burst runs from t_ini out to the horizon; a time-reversed scenario
    runs from -horizon in toward -t_ini (the spread then shrinks).
    """
    if s.time_reversed:
        state0 = make_burst_initial(s, s.horizon)
        t_end = -t_ini
    else:
        state0 = make_burst_initial(s, t_ini)
        t_end = s.horizon
    traj = integrate(state0, t_end, cfg)
    if traj.status is Status.STEP_FAILURE:
        raise RuntimeError(f"integration failed at t={traj.t_event}")
    expo = _fit_exponent(traj.times, max_pair_distance(traj.positions[:, :3]))
    drift = 0.0
    if s.background:
        bg0 = np.array([p for p, _ in s.background])
        drift = float(np.max(np.abs(traj.positions[-1, 3:] - bg0)))
    return traj, BurstDiagnostics(
        exponent_fit=expo, cauchy_gaps=(), background_drift=drift
    )


def convergence_study(s: BurstScenario,
                      cfg: IntegratorConfig = IntegratorConfig()) -> BurstDiagnostics:
    """Cauchy study over the t_ini refinement sequence.

    Successive runs are compared in the sup norm over a shared log-spaced
    time grid; decreasing gaps are the numerical evidence that the seeded
    runs converge to a limiting burst among the background vortices.  The
    trajectories come back in the `runs` field, in t_ini order.
    """
    if len(s.t_ini_sequence) < 3:
        raise DomainError("need at least three t_ini values")
    if s.time_reversed:
        raise DomainError("convergence study is defined on the burst orientation")
    runs = [run_burst(s, t_ini, cfg) for t_ini in s.t_ini_sequence]
    trajs = tuple(traj for traj, _ in runs)
    grid = [float(t) for t in np.geomspace(s.t_ini_sequence[0], s.horizon, CAUCHY_GRID)]
    gaps = tuple(max(float(np.max(np.abs(a.eval(t) - b.eval(t)))) for t in grid)
                 for a, b in zip(trajs, trajs[1:]))
    # exponent and drift come from the run closest to the singular time
    return replace(runs[-1][1], cauchy_gaps=gaps, runs=trajs)


def collapse_scenario(s: BurstScenario) -> BurstScenario:
    """Time inversion: negate every intensity and flip the orientation
    flag.  Applying it twice returns the original scenario."""
    triple = TripleConfig(a=s.triple.a, xi=-s.triple.xi, alpha=s.triple.alpha)
    background = tuple((p, -w) for p, w in s.background)
    return BurstScenario(
        triple=triple, background=background, burst_site=s.burst_site,
        t_ini_sequence=s.t_ini_sequence, horizon=s.horizon,
        rho_sep=s.rho_sep, time_reversed=not s.time_reversed,
    )
