"""Adaptive integration of the point-vortex ODE.

Dormand-Prince 5(4) embedded pair with PI step-size control, FSAL, and
the standard fourth-order dense-output interpolant.  The vortex dynamics
blows up in finite time along collapse orbits, so the stepper watches the
minimum pairwise distance and stops with a CollapseDetected status at the
guard radius, or at a step-size underflow after a heavy contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernel import (DomainError, SingularityError, VortexState, coupling_constant,
                     make_conserved, make_rhs, min_pair_distance)

# Dormand-Prince 5(4) tableau (the RHS is autonomous, so no nodes c_i), stored
# complex like the stages it weighs.  Row 7 of A is b5: stage 7 is the end point.
_A = [np.array(row, dtype=complex) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
# b5 - b4: local error estimator weights, then the dense-output weights
_E, _D = (np.array(w, dtype=complex) for w in (
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
))


class Status(Enum):
    COMPLETED = "completed"
    COLLAPSE_DETECTED = "collapse_detected"
    STEP_FAILURE = "step_failure"


# Step budget of one run: accepted and rejected steps, and retries after
# a SingularityError, all count.
MAX_STEPS = 1_000_000
# Collapse-detection radius as a fraction of the initial minimum pairwise
# distance (the kernel's own hard guard of 1e-12 x diameter is far below
# anything reachable in finite float time along a collapse orbit).
GUARD_FRACTION = 1e-6
# pair values per block of rows that `Trajectory.to_csv` computes and formats
# in one call (one row per block once a row has more pairs)
CSV_BLOCK = 256


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of `integrate`: rel_tol, and abs_tol = 1e-3 rel_tol."""

    rel_tol: float = 1e-10
    abs_tol: float = field(init=False)

    def __post_init__(self):
        abs_tol = self.rel_tol * 1e-3      # _error_norm divides by it: keep it normal
        tiny = float(np.finfo(float).tiny)
        if not (tiny <= abs_tol and self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must lie in [{tiny / 1e-3:.17g}, 1e-2], "
                              f"got {self.rel_tol}")
        object.__setattr__(self, "abs_tol", abs_tol)


def _dense(r: np.ndarray, s: float) -> np.ndarray:
    """Dense output of one step from its (5, n) coefficients r, at
    s = (t - step start) / step size."""
    s1 = 1.0 - s
    return r[0] + s * (r[1] + s1 * (r[2] + s * (r[3] + s1 * r[4])))


@dataclass
class Trajectory:
    """Accepted-step samples plus dense output of one integration run.
    Step k starts at times[k], has size h[k] and the dense-output
    coefficients segments[k], so len(times) == len(segments) + 1.  A run
    that stops early ends at its stop time."""

    times: np.ndarray                 # strictly monotone
    positions: np.ndarray             # (len(times), n) complex
    xi: np.ndarray
    alpha: float
    status: Status
    h: np.ndarray                     # signed step sizes
    segments: list[np.ndarray] = field(repr=False)   # (5, n) complex per step

    def final_state(self) -> VortexState:
        return VortexState(t=float(self.times[-1]), z=self.positions[-1],
                           xi=self.xi, alpha=self.alpha)

    def eval(self, t: float) -> np.ndarray:
        """Dense-output positions at time t inside the covered span, from
        the first step covering t (the last step if none does), so a step
        boundary belongs to the earlier step."""
        if not self.segments:
            raise ValueError("trajectory carries no dense output")
        lo, hi = self.times[0], self.times[-1]
        if not (min(lo, hi) - 1e-12 <= t <= max(lo, hi) + 1e-12):
            raise ValueError(f"t={t} outside trajectory span [{lo}, {hi}]")
        s = (t - self.times[:-1]) / self.h
        covers = (-1e-12 <= s) & (s <= 1.0 + 1e-12)
        k = int(np.argmax(covers))
        if not covers[k]:
            k = -1
        return _dense(self.segments[k], s[k])

    def min_distances(self) -> np.ndarray:
        return min_pair_distance(self.positions)

    def to_csv(self) -> str:
        """t, per-vortex positions and the conserved quantities, at 17
        significant digits.  Rows go in blocks of about CSV_BLOCK pair
        values: one conserved-quantity call and one `str.format` call per
        block, each row with the bits of that row alone."""
        n = self.positions.shape[1]
        cols = (["t"] + [f"{part}_z{j}" for j in range(1, n + 1) for part in ("re", "im")]
                + ["H", "L", "C_re", "C_im"])
        row = ",".join(["{:.17g}"] * len(cols)) + "\n"
        q = make_conserved(self.xi, self.alpha, coupling_constant(self.alpha))
        rows = max(1, CSV_BLOCK // max(n * (n - 1) // 2, 1))
        parts = [",".join(cols) + "\n"]
        for a in range(0, len(self.times), rows):
            z = self.positions[a:a + rows]
            C, H, L = q(z)
            # a complex row viewed as floats interleaves re and im
            block = np.column_stack((self.times[a:a + rows], z.view(float), H, L,
                                     C.real, C.imag))
            parts.append((row * len(block)).format(*block.ravel().tolist()))
        return "".join(parts)


def _error_norm(err: np.ndarray, z0: np.ndarray, z1: np.ndarray,
                cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z0), np.abs(z1))
    return math.sqrt((np.abs(err / scale) ** 2).sum() / len(err))


@np.errstate(over="ignore")    # norms that overflow at a tiny tolerance give no ratio
def _initial_step(f0: np.ndarray, z0: np.ndarray, span: float,
                  cfg: IntegratorConfig) -> float:
    d0 = _error_norm(z0, z0, z0, cfg)
    d1 = _error_norm(f0, z0, z0, cfg)
    h0 = 0.01 * d0 / d1 if 1e-5 <= d0 < np.inf and 1e-5 <= d1 < np.inf else 1e-6
    return float(min(h0, abs(span)))


@np.errstate(over="ignore")    # an error norm that overflows rejects its step
def integrate(state0: VortexState, t1: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the vortex system from state0.t to t1 (either direction).

    Stops early with CollapseDetected when the minimum pairwise distance
    falls below the guard radius (the crossing, located by bisection on the
    dense output, is the last sample), or when the step size underflows
    while that distance is below max(1e3 x guard radius, 1e-2 x initial
    distance).  Stops with StepFailure when the step size underflows
    without such a contraction, or when the step budget is exhausted.
    """
    t0 = state0.t
    if not np.isfinite(t1):
        raise DomainError(f"t1 must be finite, got {t1}")
    if t1 == t0:
        raise DomainError("t1 must differ from the initial time")
    direction = 1.0 if t1 > t0 else -1.0
    xi, alpha = state0.xi.copy(), state0.alpha
    d_init = state0.min_distance()
    dmin = max(GUARD_FRACTION * d_init, state0.dmin())
    f = make_rhs(xi, alpha, state0.c_alpha, dmin * 0.5)

    t = t0
    z = state0.z.astype(complex)
    # z is never written in place: every accepted step makes a new array
    times, zs = [t], [z]
    hs: list[float] = []
    segments: list[np.ndarray] = []

    # one stage buffer per run; row 0 holds f(z)
    k = np.empty((7, len(z)), dtype=complex)
    k[0] = f(z)[0]
    h = direction * _initial_step(k[0], z, t1 - t0, cfg)
    err_prev = 1.0
    n_steps = 0
    status = Status.COMPLETED
    h_floor = 16.0 * np.finfo(float).eps

    while direction * (t1 - t) > 0.0:
        if n_steps >= MAX_STEPS:
            status = Status.STEP_FAILURE
            break
        if abs(h) < h_floor * max(abs(t), 1.0):
            # step underflow next to a heavy contraction is the collapse
            # signature even when the exact guard radius was not reached
            status = (Status.COLLAPSE_DETECTED
                      if min_pair_distance(z) < max(1e3 * dmin, 1e-2 * d_init)
                      else Status.STEP_FAILURE)
            break
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        n_steps += 1
        try:
            # after the last stage z1 is the end point of the step and md
            # its minimum pairwise distance
            for i, a in enumerate(_A, 1):
                z1 = z + h * (a @ k[:i])
                k[i], md = f(z1)
        except SingularityError:
            h *= 0.25
            continue
        err = _error_norm(h * (_E @ k), z, z1, cfg)
        if not err <= 1.0:
            # rejected (a NaN error norm too): shrink with the plain controller
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        # accepted step: dense output coefficients
        dz = z1 - z
        rcont = np.empty((5, len(z)), dtype=complex)
        rcont[0] = z
        rcont[1] = dz
        rcont[2] = h * k[0] - dz
        rcont[3] = dz - h * k[6] - rcont[2]
        rcont[4] = h * (_D @ k)
        hs.append(h)
        segments.append(rcont)

        if md < dmin:
            # locate the guard crossing inside the step by bisection on
            # the dense output (the interpolant stays parameterized by the
            # original step length; s is taken from the absolute time, as
            # eval takes it)
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if min_pair_distance(_dense(rcont, (t + mid * h - t) / h)) < dmin:
                    hi = mid
                else:
                    lo = mid
            t_event = t + hi * h
            z_event = _dense(rcont, (t_event - t) / h) if t_event != t else z1
            times.append(t_event)
            zs.append(z_event)
            status = Status.COLLAPSE_DETECTED
            break

        t = t + h
        z = z1
        k[0] = k[6]        # FSAL, copied: a retried step rewrites row 6
        times.append(t)
        zs.append(z)
        # PI controller
        fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
        h *= min(10.0, max(0.2, fac))
        err_prev = max(err, 1e-10)

    return Trajectory(times=np.array(times), positions=np.array(zs), xi=xi,
                      alpha=alpha, status=status, h=np.array(hs),
                      segments=segments)


def collapse_time_fit(traj: Trajectory) -> tuple[float, float]:
    """Extrapolated collapse time and scaling exponent from a trajectory.

    The minimum pairwise distance of a self-similar collapse satisfies
    d(t)^(4-alpha) proportional to (t* - t); a linear fit of d^(4-alpha)
    against t over the final decade of the run pins t*, after which the
    log-log slope of d against (t* - t) estimates the exponent
    (1/(4-alpha) for the exact law).
    """
    d = traj.min_distances()
    t = traj.times
    if len(t) < 8:
        raise ValueError("too few samples to fit a collapse law")
    p = 4.0 - traj.alpha
    # linear fit of d^p against t pins t*; iterate, shrinking the fit
    # window to the final decade before the current estimate
    sel = d > 0
    t_star = t[-1] + (t[-1] - t[0]) * 1e-3
    for _ in range(3):
        m, q = np.polyfit(t[sel], d[sel] ** p, 1)
        if m >= 0.0:
            raise ValueError("distances not shrinking: no collapse law to fit")
        t_star = -q / m
        gap_last = max(t_star - t[-1], 1e-300)
        window = (t_star - t <= 10.0 * gap_last) & (t_star - t > 0) & (d > 0)
        if window.sum() >= 4:
            sel = window
    # samples at or after a fitted t* have no log(t* - t)
    sel = sel & (t_star - t > 0)
    if sel.sum() < 4:
        raise ValueError(f"only {sel.sum()} samples precede the fitted collapse time "
                         f"t* = {t_star:.6g}: too few to fit the exponent")
    span = t_star - t[sel]
    slope, _ = np.polyfit(np.log(span), np.log(d[sel]), 1)
    return float(t_star), float(slope)

