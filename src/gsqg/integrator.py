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
# pair values per block of rows that one array call takes: a study's batch of runs,
# a CSV block and an `eval` block of times; `pair_rows` alone reads it
PAIR_BLOCK = 256


def pair_rows(n: int) -> int:
    """Rows of n vortices to a block of PAIR_BLOCK pair values, at least one."""
    return max(1, PAIR_BLOCK // max(n * (n - 1) // 2, 1))


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


def _check_span(t: np.ndarray, t0: float, t1: float) -> None:
    """Refuse times more than 1e-12 outside the span from t0 to t1."""
    if not ((min(t0, t1) - 1e-12 <= t) & (t <= max(t0, t1) + 1e-12)).all():
        raise DomainError(f"t={t} outside trajectory span [{t0}, {t1}]")


@dataclass
class Trajectory:
    """Accepted-step samples plus dense output of one integration run.
    Step k starts at times[k], has size h[k] and the dense-output
    coefficients segments[k], so len(times) == len(segments) + 1.  A run
    that stops early ends at its stop time, after len(h) accepted steps."""

    times: np.ndarray                 # strictly monotone
    positions: np.ndarray             # (len(times), n) complex
    xi: np.ndarray
    alpha: float
    status: Status
    h: np.ndarray                     # signed step sizes
    segments: list[np.ndarray] = field(repr=False)   # (5, n) complex per step
    rejected: int = 0                 # refused by the error test
    singular: int = 0                 # retried after a SingularityError
    values: np.ndarray | None = None  # given `at`: eval(at), NaN past a stop, no segments

    def final_state(self) -> VortexState:
        return VortexState(t=float(self.times[-1]), z=self.positions[-1],
                           xi=self.xi, alpha=self.alpha)

    def eval(self, t) -> np.ndarray:
        """Dense-output positions (t.shape + (n,), so empty for no t) at times t in
        the span, each from the first step k with (t - times[k]) / h[k] <= 1 + 1e-12
        or else the last, so a step boundary belongs to the earlier step."""
        if not self.segments:
            raise ValueError("trajectory carries no dense output")
        t = np.asarray(t, dtype=float)
        _check_span(t, self.times[0], self.times[-1])
        ts, n = t.reshape(-1, 1), self.positions.shape[1]
        rows, z = pair_rows(n), np.empty((len(ts), n), dtype=complex)
        for a in range(0, len(ts), rows):
            s = (ts[a:a + rows] - self.times[:-1]) / self.h
            covers = s <= 1.0 + 1e-12
            k = np.where(covers.any(axis=1), np.argmax(covers, axis=1), -1)
            r = np.stack([self.segments[j] for j in k.tolist()], axis=1)
            z[a:a + rows] = _dense(r, s[np.arange(len(k)), k][:, None])
        return z.reshape(t.shape + (n,))

    def csv_blocks(self):
        """The header, then rows made block by block as asked for: t, positions and
        conserved quantities at 17 significant digits, one conserved-quantity and one
        `str.format` call per PAIR_BLOCK pair values, each row with its bits alone."""
        n = self.positions.shape[1]
        cols = (["t"] + [f"{part}_z{j}" for j in range(1, n + 1) for part in ("re", "im")]
                + ["H", "L", "C_re", "C_im"])
        row = ",".join(["{:.17g}"] * len(cols)) + "\n"
        q = make_conserved(self.xi, self.alpha, coupling_constant(self.alpha))
        rows = pair_rows(n)
        yield ",".join(cols) + "\n"
        for a in range(0, len(self.times), rows):
            z = self.positions[a:a + rows]
            C, H, L = q(z)
            # a complex row viewed as floats interleaves re and im
            block = np.column_stack((self.times[a:a + rows], z.view(float), H, L,
                                     C.real, C.imag))
            yield (row * len(block)).format(*block.ravel().tolist())

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())


def _error_norm(err: np.ndarray, z0: np.ndarray, z1: np.ndarray,
                cfg: IntegratorConfig) -> list[float]:
    """Scaled RMS norm of each row of err (b, n)."""
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z0), np.abs(z1))
    sq = np.add.reduce(np.abs(err / scale) ** 2, axis=-1).tolist()
    return [math.sqrt(s / err.shape[-1]) for s in sq]


@np.errstate(over="ignore")    # norms that overflow at a tiny tolerance give no ratio
def _initial_step(f0: np.ndarray, z0: np.ndarray, span: float,
                  cfg: IntegratorConfig) -> float:
    (d0,), (d1,) = (_error_norm(x[None], z0[None], z0[None], cfg) for x in (z0, f0))
    h0 = 0.01 * d0 / d1 if 1e-5 <= d0 < np.inf and 1e-5 <= d1 < np.inf else 1e-6
    return float(min(h0, abs(span)))


def integrate(state0: VortexState, t1: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the vortex system from state0.t to t1 (either direction).

    Stops early with CollapseDetected when the minimum pairwise distance falls
    below the guard radius (the crossing, located by bisection on the dense output,
    is the last sample), or when the step size underflows while that distance is
    below max(1e3 x guard radius, 1e-2 x initial distance).  Stops with StepFailure
    when the step size underflows without such a contraction, or when the step
    budget is exhausted.  Refuses a start state whose closest pair lies inside the
    kernel guard, half its `dmin()`, with DomainError."""
    return integrate_batch([state0], t1, cfg)[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflowing or NaN error norm rejects its step
def integrate_batch(states: list[VortexState], t1: float,
                    cfg: IntegratorConfig = IntegratorConfig(), at=None) -> list[Trajectory]:
    """`integrate` of states sharing xi and alpha, each with the bits it has alone, in
    one lockstep batch: a pass does the array math of all live runs at once and the step
    control run by run.  Given times `at`, each run forms `eval(at)` and keeps no segments."""
    if not np.isfinite(t1):
        raise DomainError(f"t1 must be finite, got {t1}")
    if any(st.t == t1 for st in states):
        raise DomainError("t1 must differ from the initial time")
    xi, alpha, c_alpha, n = states[0].xi.copy(), states[0].alpha, states[0].c_alpha, states[0].n
    if any(st.alpha != alpha or not np.array_equal(st.xi, xi) for st in states):
        raise DomainError("the states of a batch must share xi and alpha")
    ts = np.asarray([] if at is None else at, dtype=float).reshape(-1)
    for st in states:       # eval's span check, then the order of integration
        _check_span(ts, st.t, t1)
    ts = ts.tolist()
    if any((t1 - st.t) * (b - a) < 0.0 for st in states for a, b in zip(ts, ts[1:])):
        raise DomainError("at must be sorted in the direction of integration")

    def finish(r):      # a stopped run's times left within 1e-12 of its end: eval's last step
        while r.hs and r.p < len(ts) and r.sign * (ts[r.p] - r.times[-1]) <= 1e-12:
            r.values[r.p], r.p = _dense(r.last, (ts[r.p] - r.times[-2]) / r.hs[-1]), r.p + 1

    def batch(runs, k):     # the live runs' RHS; per stage: tableau row, stages weighed, row
        return (make_rhs(xi, alpha, c_alpha, [r.dmin * 0.5 for r in runs]),
                [(a, k[:, :i], k[:, i]) for i, a in enumerate(_A, 1)])
    out = runs = [_Run(st, t1, None if at is None else len(ts)) for st in states]
    # z is never written in place once read; stage buffer row 0 holds f(z)
    z, k = np.array([st.z for st in states]), np.empty((len(runs), 7, n), dtype=complex)
    f, stages = batch(runs, k)
    try:
        k[:, 0] = f(z)[0]
    except SingularityError as e:
        raise DomainError(f"a start state lies inside the kernel guard: {e}") from None
    for r, st, f0 in zip(runs, states, k[:, 0]):
        r.h = r.sign * _initial_step(f0, st.z, t1 - st.t, cfg)
    # row j: live run j's h in every column (a float or (b, 1) array costs more per product)
    h = np.empty(z.shape, dtype=complex)
    while True:
        live = []
        for m, r in enumerate(runs):
            if r.status is not None:
                continue
            if not r.sign * (t1 - r.t) > 0.0:
                r.status = Status.COMPLETED
            elif len(r.hs) + r.rejected + r.singular >= MAX_STEPS:
                r.status = Status.STEP_FAILURE
            elif abs(r.h) < 16 * 2.0 ** -52 * max(abs(r.t), 1.0):     # 16 eps
                # step underflow next to a heavy contraction is the collapse
                # signature even when the exact guard radius was not reached
                r.status = (Status.COLLAPSE_DETECTED
                            if min_pair_distance(z[m]) < max(1e3 * r.dmin, 1e-2 * r.d_init)
                            else Status.STEP_FAILURE)
            else:   # the last step ends at t1
                r.h = t1 - r.t if r.sign * (r.t + r.h - t1) > 0.0 else r.h
                h[len(live)] = r.h
                live.append(m)
                continue
            r.z = z[m]
            finish(r)
        if len(live) < len(runs):
            if not live:
                break
            runs, z, k, h = [runs[m] for m in live], z[live], k[live], h[:len(live)]
            f, stages = batch(runs, k)
        try:
            # after the last stage z1 is the end point of each step and md
            # its minimum pairwise distance
            for a, earlier, row in stages:
                z1 = z + h * (a @ earlier)
                row[...], md = f(z1)
        except SingularityError as e:
            for m in e.members:
                runs[m].h *= 0.25
                runs[m].singular += 1
            continue
        errs = _error_norm(h * (_E @ k), z, z1, cfg)
        # dense output of every step: c[j] writes coefficient j, rcont[m] is run m's
        rcont = np.empty((len(runs), 5, n), dtype=complex)
        c = rcont.transpose(1, 0, 2)
        c[0] = z
        dz = np.subtract(z1, z, out=c[1])
        c[2] = h * k[:, 0] - dz
        c[3] = dz - h * k[:, 6] - c[2]
        c[4] = h * (_D @ k)
        for m, (r, err) in enumerate(zip(runs, errs)):
            if not err <= 1.0:
                # rejected (a NaN error norm too): shrink with the plain controller
                r.h *= max(0.2, 0.9 * err ** (-0.2))
                r.rejected += 1
                z1[m] = z[m]
                continue
            r.hs.append(r.h)
            r.segments.append(rcont[m].copy() if at is None else z[m].copy())     # not views
            r.last = rcont[m]
            if md[m] < r.dmin:
                # the guard crossing inside the step, by bisection on the dense
                # output; s is taken from the absolute time, as eval takes it
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if min_pair_distance(_dense(rcont[m], (r.t + mid * r.h - r.t) / r.h)) < r.dmin:
                        hi = mid
                    else:
                        lo = mid
                t_event = r.t + hi * r.h
                r.times.append(t_event)
                r.z = _dense(rcont[m], (t_event - r.t) / r.h) if t_event != r.t else z1[m]
                r.status = Status.COLLAPSE_DETECTED
                finish(r)
                continue
            # the times this step covers that no earlier one did, as eval takes them
            while r.p < len(ts) and (s := (ts[r.p] - r.t) / r.h) <= 1.0 + 1e-12:
                r.values[r.p], r.p = _dense(rcont[m], s), r.p + 1
            r.t = r.t + r.h
            k[m, 0] = k[m, 6]     # FSAL, copied: a retried step rewrites row 6
            r.times.append(r.t)
            # PI controller; a zero error takes its limit as err -> 0+, the largest growth
            fac = 0.9 * err ** (-0.7 / 5.0) * r.err_prev ** (0.4 / 5.0) if err > 0.0 else 10.0
            r.h *= min(10.0, max(0.2, fac))
            r.err_prev = max(err, 1e-10)
        z = z1
    # a step starts at its sample: positions[k] is segments[k][0], or given `at` segments[k]
    return [Trajectory(np.array(r.times), np.array(
        ([seg[0] for seg in r.segments] if at is None else r.segments) + [r.z]), xi, alpha,
        r.status, np.array(r.hs), r.segments if at is None else [], r.rejected, r.singular,
        r.values) for r in out]


class _Run:
    """Step control of one run of a lockstep batch, in Python floats."""

    def __init__(self, st: VortexState, t1: float, n_at: int | None):
        self.t, self.sign, self.err_prev = st.t, 1.0 if t1 > st.t else -1.0, 1.0
        self.d_init = st.min_distance()
        self.dmin = max(GUARD_FRACTION * self.d_init, st.dmin())
        self.times, self.hs, self.segments, self.rejected, self.singular = [st.t], [], [], 0, 0
        # status and its end z are set when it stops; last: its last step's dense output
        self.status = self.z = self.last = None
        # its values at the n_at times `at`, the first p of them formed
        self.p, self.values = 0, None if n_at is None else np.full((n_at, st.n), np.nan, complex)


def collapse_time_fit(traj: Trajectory) -> tuple[float, float]:
    """Extrapolated collapse time and scaling exponent from a trajectory.

    The minimum pairwise distance of a self-similar collapse satisfies
    d(t)^(4-alpha) proportional to (t* - t); a linear fit of d^(4-alpha)
    against t over the final decade of the run pins t*, after which the
    log-log slope of d against (t* - t) estimates the exponent
    (1/(4-alpha) for the exact law).
    """
    d = min_pair_distance(traj.positions)
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

