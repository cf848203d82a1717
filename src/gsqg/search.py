"""Reduced parameterization and the admissibility sweep.

Normalizing a_1 = 1/2, a_2 = -1/2 and xi_1 = xi_2 = 1, a self-similar
triple with H = L = 0 is determined by the side lengths x = |a_1 - a_3|
and y = |a_2 - a_3| through

    x^(alpha-2) + y^(alpha-2) = x^2 + y^2,
    xi_3 = -1 / (x^2 + y^2),
    a_3  = (y^2 - x^2)/2 +- i sqrt(y^2 - (x^2 - y^2 - 1)^2 / 4),

with the imaginary branch picking burst (growing) versus collapse
(shrinking) orientation.  A parameter x is admissible at a given alpha
when the constructed burst triple also satisfies the eigenvalue condition
of the linearized dynamics; this holds on an interval (x_-(alpha),
x_+(alpha)) which closes at two critical exponents alpha_- and alpha_+.
"""

from __future__ import annotations

import concurrent.futures
import functools
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernel import ALPHA_GUARD, DomainError, coupling_constant
from .selfsimilar import (TripleConfig, center, centered, check_H_L_zero, pair_terms,
                          selfsimilar_rate, vortex_rates)
from .stability import l_terms, quartic_coefficients, quartic_mu2

EPS_Y = 1e-6
YMAX = 10.0
# residual tolerance and iteration cap of the y(x) Newton solve
Y_TOL = 1e-12
Y_MAX_ITER = 90
# relative slack of the triangle screen y(x) > (1 + x)(1 + slack)
TRIANGLE_SLACK = 1e-9
# sub-brackets per bracket and round of boundary refinement
K_SECTION = 32
# most alpha steps in one sweep (the desk sweep takes 1298)
MAX_ALPHAS = 10**6
# most x grid points per alpha (the default pitch 1e-4 takes 10001)
MAX_GRID = 10**6


class NoRootError(DomainError):
    """The side-length equation has no root in the search bracket."""


# ---------------------------------------------------------------------------
# side-length equation
# ---------------------------------------------------------------------------

def _side_residual(xs: np.ndarray, alpha: float):
    """The side-length equation at fixed x as g(y) = 0, with
    g(y) = y^2 - y^(alpha-2) - K and K = x^(alpha-2) - x^2.

    For x in (0, 1) and alpha in (0, 3), g has one positive root and
    increases on [1, inf): everywhere for alpha < 2, and past its minimum
    at ((alpha-2)/2)^(1/(4-alpha)) < 1, with g(0) = -K < 0, for alpha > 2.
    """
    K = xs ** (alpha - 2.0) - xs**2

    def g(y):
        return y**2 - y ** (alpha - 2.0) - K

    return g


def _past_triangle(xs: np.ndarray, alpha: float) -> np.ndarray:
    """Mask of the x whose side y(x) lies beyond 1 + x, where no triangle
    exists.  g < 0 at u = (1 + x)(1 + TRIANGLE_SLACK) >= 1 puts the root
    past u; the slack dwarfs the Newton residual and the rounding of the
    triangle test, so every masked x is rejected by `_reduced_triple` at
    the y of `_y_solve_grid` too."""
    return _side_residual(xs, alpha)((1.0 + xs) * (1.0 + TRIANGLE_SLACK)) < 0.0


def _y_solve_grid(xs: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized safeguarded Newton for y(x) on a grid.

    Solves y^2 - y^(alpha-2) = x^(alpha-2) - x^2 on [max(1-x, EPS_Y), YMAX].
    Returns (y, valid); invalid entries have no sign change in the bracket
    (root below the triangle bound or beyond YMAX).
    """
    xs = np.asarray(xs, dtype=float)
    g = _side_residual(xs, alpha)
    lo = np.maximum(1.0 - xs, EPS_Y)
    hi = np.full_like(xs, YMAX)

    def gp(y):
        return 2.0 * y - (alpha - 2.0) * y ** (alpha - 3.0)

    glo, ghi = g(lo), g(hi)
    valid = (glo < 0.0) & (ghi > 0.0)
    y = 0.5 * (lo + hi)
    for _ in range(Y_MAX_ITER):
        gy = g(y)
        done = np.abs(gy) <= Y_TOL
        if np.all(done | ~valid):
            break
        # maintain the bracket
        lo = np.where((gy < 0.0) & valid, y, lo)
        hi = np.where((gy >= 0.0) & valid, y, hi)
        with np.errstate(all="ignore"):
            step = gy / gp(y)
            yn = y - step
        inside = (yn > lo) & (yn < hi) & np.isfinite(yn)
        y = np.where(valid & ~done, np.where(inside, yn, 0.5 * (lo + hi)), y)
    return y, valid


def y_from_x(x: float, alpha: float) -> float:
    """Side length y solving x^(alpha-2) + y^(alpha-2) = x^2 + y^2 with
    y > max(0, 1 - x), by safeguarded Newton with bisection fallback."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0, 1], got {x}")
    coupling_constant(alpha)
    y, valid = _y_solve_grid(np.array([x]), alpha)
    if not valid[0]:
        raise NoRootError(
            f"no sign change for y(x) in [max(1-x, {EPS_Y}), {YMAX}] at x={x}, alpha={alpha}"
        )
    return float(y[0])


def cardano_y(x: float) -> float:
    """Closed-form y(x) at alpha = 1 from the cubic y^3 + ((x^3-1)/x) y - 1 = 0.

    y = cbrt(1/2 + sqrt(D)) + cbrt(1/2 - sqrt(D)),
    D = 1/4 - (1 - x^3)^3 / (27 x^3), valid for x in (1/2, 1] where D > 0.
    """
    if not 0.5 < x <= 1.0:
        raise DomainError(f"cardano_y requires x in (1/2, 1], got {x}")
    D = cardano_discriminant(x)
    if D <= 0.0:
        raise DomainError(f"non-positive cubic discriminant D={D} at x={x}")
    s = np.sqrt(D)
    return float(np.cbrt(0.5 + s) + np.cbrt(0.5 - s))


def cardano_discriminant(x) -> float:
    return 0.25 - (1.0 - np.asarray(x) ** 3) ** 3 / (27.0 * np.asarray(x) ** 3)


# ---------------------------------------------------------------------------
# configuration construction
# ---------------------------------------------------------------------------

def _reduced_triple(x: np.ndarray, y: np.ndarray, branch: int) -> tuple[np.ndarray, ...]:
    """Normalized triples for arrays of sides x and y, vortex axis first:
    positions (1/2, -1/2, a_3) with sign(Im a_3) = branch, intensities
    (1, 1, xi_3), and the mask of proper triangles with xi_3 > -2."""
    with np.errstate(all="ignore"):
        valid = y > 1.0 - x
        im2 = y**2 - (x**2 - y**2 - 1.0) ** 2 / 4.0
        valid &= im2 > 0.0
        xi3 = -1.0 / (x**2 + y**2)
        valid &= xi3 > -2.0
        a3 = (y**2 - x**2) / 2.0 + branch * 1j * np.sqrt(np.where(valid, im2, 1.0))
    z = np.stack([np.full_like(a3, 0.5), np.full_like(a3, -0.5), a3])
    xi = np.stack([np.ones_like(x), np.ones_like(x), xi3])
    return z, xi, valid


def reduced_config(alpha: float, x: float, y: float, branch: int) -> TripleConfig:
    """Build the normalized triple with sides (x, y) whose third vortex
    has sign(Im a_3) = branch.

    Checks the side-length equation residual, builds a_3 so that
    |a_1 - a_3| = x and |a_2 - a_3| = y hold exactly, and verifies the
    H = L = 0 identity of the construction.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    if branch not in (-1, 1):
        raise DomainError("branch must be +1 or -1")
    z, xi, valid = _reduced_triple(np.array([x]), np.array([y]), branch)
    if not valid[0]:
        raise DomainError(f"sides x={x}, y={y} give no proper triangle "
                          "(y > 1 - x, positive height) with xi_3 > -2")
    resid = abs(_side_residual(x, alpha)(y))
    if resid > 1e-10 * max(1.0, x**2 + y**2):
        raise DomainError(f"side-length equation violated (residual {resid:.2e})")
    cfg = TripleConfig(a=z[:, 0], xi=xi[:, 0], alpha=alpha)
    H, L = check_H_L_zero(cfg)
    if abs(H) > 1e-8 or abs(L) > 1e-8:
        raise DomainError(f"constructed configuration has H={H:.2e}, L={L:.2e} != 0")
    return cfg


def oriented_config(alpha: float, x: float) -> TripleConfig:
    """Reduced configuration with side y(x) on the burst branch.

    The rate a flips sign with the imaginary branch of a_3, so exactly one
    branch gives a > 0.  For alpha < 2 the burst branch has Im(a_3) < 0;
    the sign flips across alpha = 2 together with the coupling constant.
    """
    y = y_from_x(x, alpha)
    cfg = reduced_config(alpha, x, y, -1)
    a_rate, _, _ = selfsimilar_rate(center(cfg))
    if a_rate < 0.0:
        cfg = reduced_config(alpha, x, y, +1)
    return cfg


# ---------------------------------------------------------------------------
# admissibility margin
# ---------------------------------------------------------------------------

def _margin_grid(alpha: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized admissibility margin components (disc, lo2) on an x grid,
    as the rows of a (2, len(xs)) array.

    Both are positive exactly where the one-point check
    `hypothesis_a_check(oriented_config(alpha, x))` passes; -inf marks
    geometric rejection.  Only the x that pass the triangle screen enter
    the side solve, and only proper triangles enter the stability
    pipeline; every element depends on its own triple alone, so the rows
    have the bits of `quartic_mu2` on that check's (b_rate, c1, c2), in
    any batch.
    """
    ca = coupling_constant(alpha)
    xs = np.asarray(xs, dtype=float)
    out = np.full((2, len(xs)), -np.inf)
    at = np.flatnonzero(~_past_triangle(xs, alpha))
    y, valid = _y_solve_grid(xs[at], alpha)
    # branch Im(a3) < 0; the other branch only flips the sign of a
    z, xi, shaped = _reduced_triple(xs[at], y, -1)
    ok = valid & shaped
    at, z, xi = at[ok], z[:, ok], xi[:, ok]
    with np.errstate(all="ignore"):
        z = centered(z, xi)
        kern, bracket = pair_terms(z, alpha)
        b = -np.imag(vortex_rates(z, xi, ca, kern)[1])       # branch-independent
        del kern    # keeps the peak memory of a grid down
        disc, lo2, _ = quartic_mu2(b, *quartic_coefficients(*l_terms(z, xi, ca, bracket)))
        ok = np.isfinite(np.minimum(disc, lo2))
    out[0, at[ok]], out[1, at[ok]] = disc[ok], lo2[ok]
    return out


# ---------------------------------------------------------------------------
# interval location and the sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    x_minus: float | None
    x_plus: float | None
    status: str                       # "interval" or "empty"
    runs: tuple = field(default=(), compare=False)

    @property
    def empty(self) -> bool:
        return self.status == "empty"


def _refine(alpha: float, lo: np.ndarray, hi: np.ndarray, comp: np.ndarray,
            up: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """K-section of sign changes of the margin components.

    Bracket k holds a sign change of component comp[k] (0 for disc, 1 for
    lo2), which is positive at hi[k] where up[k] and at lo[k] otherwise.
    Each round evaluates the K_SECTION - 1 evenly spaced interior points of
    every open bracket in one _margin_grid call and keeps the sub-bracket
    of the first sign change.  A bracket closes at width tol, except while
    it overlaps a bracket of the other component, so boundaries of
    different components end up ordered; at adjacent floats it always
    closes.  Returns the final (lo, hi).
    """
    lo, hi = lo.copy(), hi.copy()
    other = comp[:, None] != comp[None, :]
    while True:
        overlap = (other & (lo[:, None] < hi[None, :]) & (lo[None, :] < hi[:, None])).any(axis=1)
        live = (np.nextafter(lo, hi) < hi) & ((hi - lo > tol) | overlap)
        if not live.any():
            return lo, hi
        # brackets of disc and lo2 in one cell coincide until they separate;
        # each distinct bracket is evaluated once
        ends, inv = np.unique(np.column_stack([lo[live], hi[live]]), axis=0,
                              return_inverse=True)
        t = np.linspace(ends[:, 0], ends[:, 1], K_SECTION + 1, axis=1)
        m = _margin_grid(alpha, t[:, 1:-1].ravel()).reshape(2, len(t), K_SECTION - 1)
        inv = inv.reshape(-1)       # NumPy 2.0.0 returns it 2-D
        t, m = t[inv], m[:, inv]
        rows = np.arange(len(t))
        # t[j + 1] is the first point past lo with the sign of hi; -inf is
        # not positive, so a validity edge is a sign change like any other
        j = np.argmax(np.column_stack([m[comp[live], rows] > 0.0, up[live]])
                      == up[live, None], axis=1)
        lo[live], hi[live] = t[rows, j], t[rows, j + 1]


def _check_grid(coarse: float, refine_tol: float) -> None:
    if not (0.0 < coarse < 1.0 and 1.0 / coarse <= MAX_GRID):
        raise DomainError(f"coarse x grid pitch must lie in [{1.0 / MAX_GRID:g}, 1), "
                          f"got {coarse}")
    if not 0.0 < refine_tol < np.inf:
        raise DomainError(f"refine_tol must be finite and positive, got {refine_tol}")


def x_interval(alpha: float, coarse: float = 1e-4,
               refine_tol: float = 1e-7) -> SweepRecord:
    """Locate the admissible x interval at one alpha.

    The admissible set is the overlap of the sets where the margin
    components disc and lo2 are positive.  Both are evaluated on the grid
    [coarse/2, coarse, 2 coarse, ..., 1 - 1e-12], ends included, and every
    sign change of either is refined by `_refine` to width `refine_tol`.
    A window is bounded by a root of disc or lo2, or by a grid end; one
    thinner than the pitch lies between two roots in one grid cell, where
    refinement goes on until the two are ordered.  When several disjoint
    runs appear, all are recorded and the widest is reported.
    """
    coupling_constant(alpha)
    _check_grid(coarse, refine_tol)
    # the interior stops short of the closing point, so the grid increases
    # strictly for every pitch (np.arange(c, 1.0, c) may end at 1.0)
    xs = np.concatenate([[coarse * 0.5], np.arange(coarse, 1.0 - 1e-12, coarse),
                         [1.0 - 1e-12]])
    pos = _margin_grid(alpha, xs) > 0.0
    # a component's runs of positive grid points begin and end at the sign
    # changes of its mask padded with False: edge e lies between xs[e - 1]
    # and xs[e], or at a grid end for e = 0 and e = len(xs)
    comp, edge = np.nonzero(np.diff(pos, prepend=False, append=False))
    inner = (edge > 0) & (edge < len(xs))
    e, c = edge[inner], comp[inner]
    lo, hi = _refine(alpha, xs[e - 1], xs[e], c, pos[c, e], refine_tol)
    bound = xs[np.minimum(edge, len(xs) - 1)]
    bound[inner] = 0.5 * (lo + hi)
    # each component's runs in x order; overlaps of a disc run and a lo2
    # run come out in x order too
    ends = bound.reshape(-1, 2)
    disc, lo2 = ends[comp[0::2] == 0], ends[comp[0::2] == 1]
    start = np.maximum(disc[:, None, 0], lo2[None, :, 0])
    stop = np.minimum(disc[:, None, 1], lo2[None, :, 1])
    keep = start < stop
    runs = list(zip(start[keep].tolist(), stop[keep].tolist()))
    if not runs:
        return SweepRecord(alpha, None, None, "empty")
    if len(runs) > 1:
        warnings.warn(
            f"admissible set at alpha={alpha} looks disconnected "
            f"({len(runs)} runs); reporting the widest", stacklevel=2)
    widest = max(runs, key=lambda r: r[1] - r[0])
    return SweepRecord(alpha, widest[0], widest[1], "interval", runs=tuple(runs))


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    alpha_minus: float | None
    alpha_plus: float | None


def sweep(alpha_min: float, alpha_max: float, alpha_step: float = 1e-3,
          coarse: float = 1e-4, refine_tol: float = 1e-7,
          jobs: int = 1) -> SweepResult:
    """Admissibility sweep over alpha in (0, 3), skipping the guard band
    around 2.

    Runs x_interval per alpha (in parallel for jobs > 1, with output
    deterministically ordered by alpha).  A critical exponent alpha_-/alpha_+
    is the midpoint between the outermost nonempty record and its empty
    neighbour, so it resolves the emptiness edge to +- alpha_step/2; where
    the sweep ends on a nonempty record, it is that record's alpha.
    """
    if not 0.0 < alpha_min <= alpha_max < 3.0:
        raise DomainError(f"need 0 < alpha_min <= alpha_max < 3, got [{alpha_min}, {alpha_max}]")
    if not 0.0 < alpha_step < np.inf:
        raise DomainError(f"alpha_step must be finite and positive, got {alpha_step}")
    if not (alpha_max - alpha_min) / alpha_step <= MAX_ALPHAS:
        raise DomainError(f"alpha_step {alpha_step} gives more than {MAX_ALPHAS} alphas")
    _check_grid(coarse, refine_tol)
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    n = int(round((alpha_max - alpha_min) / alpha_step))
    alphas = [alpha_min + k * alpha_step for k in range(n + 1)]
    # rounding n may take the last alpha past alpha_max
    alphas = [a for a in alphas if a < 3.0 and abs(a - 2.0) > ALPHA_GUARD]
    run = functools.partial(x_interval, coarse=coarse, refine_tol=refine_tol)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            records = list(ex.map(run, alphas, chunksize=8))
    else:
        records = [run(a) for a in alphas]

    def edge(i: int, j: int) -> float:
        """Critical alpha between the nonempty record i and its outer
        neighbour j, or record i's alpha where the sweep ends there."""
        if not 0 <= j < len(records):
            return records[i].alpha
        return 0.5 * (records[i].alpha + records[j].alpha)

    nonempty = [i for i, r in enumerate(records) if not r.empty]
    a_minus = edge(nonempty[0], nonempty[0] - 1) if nonempty else None
    a_plus = edge(nonempty[-1], nonempty[-1] + 1) if nonempty else None
    return SweepResult(tuple(records), a_minus, a_plus)


def sweep_csv(result: SweepResult) -> str:
    """Plot-ready CSV: alpha, x_minus, x_plus, status (12 significant digits)."""
    buf = io.StringIO()
    buf.write("alpha,x_minus,x_plus,status\n")
    for r in result.records:
        if r.empty:
            buf.write(f"{r.alpha:.12g},,,empty\n")
        else:
            buf.write(f"{r.alpha:.12g},{r.x_minus:.12g},{r.x_plus:.12g},interval\n")
    return buf.getvalue()
