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
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernel import ALPHA_GUARD, DomainError, coupling_constant
from .selfsimilar import Classification, TripleConfig, check_H_L_zero
from .stability import HypothesisReport, hypothesis_a_check

EPS_Y = 1e-6
YMAX = 10.0


class NoRootError(DomainError):
    """The side-length equation has no root in the search bracket."""


# ---------------------------------------------------------------------------
# side-length equation
# ---------------------------------------------------------------------------

def _y_solve_grid(xs: np.ndarray, alpha: float, tol: float = 1e-12,
                  max_iter: int = 90) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized safeguarded Newton for y(x) on a grid.

    Solves y^2 - y^(alpha-2) = x^(alpha-2) - x^2 on [max(1-x, EPS_Y), YMAX].
    Returns (y, valid); invalid entries have no sign change in the bracket
    (root below the triangle bound or beyond YMAX).
    """
    xs = np.asarray(xs, dtype=float)
    K = xs ** (alpha - 2.0) - xs**2
    lo = np.maximum(1.0 - xs, EPS_Y)
    hi = np.full_like(xs, YMAX)

    def g(y):
        return y**2 - y ** (alpha - 2.0) - K

    def gp(y):
        return 2.0 * y - (alpha - 2.0) * y ** (alpha - 3.0)

    glo, ghi = g(lo), g(hi)
    valid = (glo < 0.0) & (ghi > 0.0)
    y = 0.5 * (lo + hi)
    for _ in range(max_iter):
        gy = g(y)
        done = np.abs(gy) <= tol
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


def y_from_x(x: float, alpha: float, tol: float = 1e-12) -> float:
    """Side length y solving x^(alpha-2) + y^(alpha-2) = x^2 + y^2 with
    y > max(0, 1 - x), by safeguarded Newton with bisection fallback."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0, 1], got {x}")
    coupling_constant(alpha)
    y, valid = _y_solve_grid(np.array([x]), alpha, tol=tol)
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

@dataclass(frozen=True)
class ReducedParams:
    """Sides (x, y) and imaginary branch of the third vortex."""

    alpha: float
    x: float
    y: float
    branch: int      # sign of Im(a_3)

    def __post_init__(self):
        if not 0.0 < self.x < 1.0:
            raise DomainError(f"x must lie in (0, 1), got {self.x}")
        if self.y <= 1.0 - self.x:
            raise DomainError("triangle inequality y > 1 - x violated")
        if 4.0 * self.y**2 <= (self.x**2 - self.y**2 - 1.0) ** 2:
            raise DomainError("collinear configuration (degenerate triangle)")
        if self.branch not in (-1, 1):
            raise DomainError("branch must be +1 or -1")


def reduced_config(p: ReducedParams, check_tol: float = 1e-10) -> TripleConfig:
    """Build the normalized triple from reduced parameters.

    Checks the side-length equation residual, builds a_3 so that
    |a_1 - a_3| = x and |a_2 - a_3| = y hold exactly, and verifies the
    H = L = 0 identity of the construction.
    """
    x, y, alpha = p.x, p.y, p.alpha
    checked = np.isfinite(check_tol)
    if checked:
        resid = abs(x ** (alpha - 2.0) + y ** (alpha - 2.0) - x**2 - y**2)
        if resid > check_tol * max(1.0, x**2 + y**2):
            raise DomainError(f"side-length equation violated (residual {resid:.2e})")
    im2 = y**2 - (x**2 - y**2 - 1.0) ** 2 / 4.0
    if im2 <= 0.0:
        raise DomainError("collinear configuration (vanishing height)")
    xi3 = -1.0 / (x**2 + y**2)
    if xi3 <= -2.0:
        raise DomainError(f"xi_3 = {xi3} <= -2: nonpositive total intensity")
    a3 = (y**2 - x**2) / 2.0 + p.branch * 1j * np.sqrt(im2)
    cfg = TripleConfig(a=np.array([0.5, -0.5, a3]), xi=np.array([1.0, 1.0, xi3]),
                       alpha=alpha)
    if checked:
        H, L = check_H_L_zero(cfg)
        if abs(H) > 1e-8 or abs(L) > 1e-8:
            raise DomainError(f"constructed configuration has H={H:.2e}, L={L:.2e} != 0")
    return cfg


def oriented_config(alpha: float, x: float, y: float | None = None,
                    want: Classification = Classification.BURST) -> TripleConfig:
    """Reduced configuration on the branch realizing the requested
    orientation (burst by default).

    The rate a flips sign with the imaginary branch of a_3, so exactly one
    branch gives a > 0.  For alpha < 2 the burst branch has Im(a_3) < 0;
    the sign flips across alpha = 2 together with the coupling constant.
    """
    from .selfsimilar import center, selfsimilar_rate

    if want not in (Classification.BURST, Classification.COLLAPSE):
        raise DomainError("orientation must be burst or collapse")
    if y is None:
        y = y_from_x(x, alpha)
    cfg = reduced_config(ReducedParams(alpha=alpha, x=x, y=y, branch=-1))
    a_rate, _, _ = selfsimilar_rate(center(cfg))
    wanted_sign = 1.0 if want is Classification.BURST else -1.0
    if a_rate * wanted_sign < 0.0:
        cfg = reduced_config(ReducedParams(alpha=alpha, x=x, y=y, branch=+1))
    return cfg


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str
    margin: float                      # min(disc, 2b^2 - c1 - sqrt(disc)); <= 0 iff not ok
    x: float
    alpha: float
    y: float | None = None
    config: TripleConfig | None = None
    report: HypothesisReport | None = None


def admissible(x: float, alpha: float) -> Admissibility:
    """Full admissibility check of one parameter point, with diagnostics."""
    try:
        y = y_from_x(x, alpha)
    except DomainError as e:
        return Admissibility(False, f"no side solution: {e}", -np.inf, x, alpha)
    try:
        cfg = oriented_config(alpha, x, y, want=Classification.BURST)
    except DomainError as e:
        return Admissibility(False, f"invalid configuration: {e}", -np.inf, x, alpha, y)
    report = hypothesis_a_check(cfg)
    if not (report.selfsimilar_ok and report.a_positive):
        return Admissibility(False, f"no burst orientation: {report.details}",
                             -np.inf, x, alpha, y, cfg, report)
    disc = report.c1**2 - 4.0 * report.c2
    m2 = 2.0 * report.b_rate**2 - report.c1 - np.sqrt(max(disc, 0.0))
    margin = min(disc, m2)
    return Admissibility(report.passed, report.mu.failure or "eigenvalue condition holds",
                         margin, x, alpha, y, cfg, report)


def _margin_grid(alpha: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized admissibility margin on an x grid.

    margin > 0 exactly where `admissible` passes; -inf marks geometric
    rejection.  Mirrors the scalar pipeline: construct, center, rates on
    the burst branch, linearization, quartic inequalities.
    """
    ca = coupling_constant(alpha)
    xs = np.asarray(xs, dtype=float)
    y, valid = _y_solve_grid(xs, alpha)
    margin = np.full_like(xs, -np.inf)
    with np.errstate(all="ignore"):
        valid &= y > 1.0 - xs
        im2 = y**2 - (xs**2 - y**2 - 1.0) ** 2 / 4.0
        valid &= im2 > 0.0
        xi3 = -1.0 / (xs**2 + y**2)
        valid &= xi3 > -2.0
        im = np.sqrt(np.where(valid, im2, 1.0))
        # branch Im(a3) < 0 first; the other branch only flips the sign of a
        a3 = (y**2 - xs**2) / 2.0 - 1j * im
        z1 = np.full_like(a3, 0.5)
        z2 = np.full_like(a3, -0.5)
        ximat = np.stack([np.ones_like(xs), np.ones_like(xs), xi3])
        shift = xi3 * a3 / (2.0 + xi3)
        c1_, c2_, c3_ = z1 - shift, z2 - shift, a3 - shift

        def kern(d):
            return np.abs(d) ** (alpha - 2.0) / d

        d12, d13, d23 = c1_ - c2_, c1_ - c3_, c2_ - c3_
        vb1 = 1j * ca * (ximat[1] * kern(d12) + ximat[2] * kern(d13))
        vb2 = 1j * ca * (ximat[0] * kern(-d12) + ximat[2] * kern(d23))
        vb3 = 1j * ca * (ximat[0] * kern(-d13) + ximat[1] * kern(-d23))
        q = (vb1 / np.conj(c1_) + vb2 / np.conj(c2_) + vb3 / np.conj(c3_)) / 3.0
        b = -np.imag(q)       # branch-independent
        # eigenvalue-condition coefficients at the centered positions
        pre = -1j * ca / np.abs(c1_) ** 2

        def term(m, d):
            br = (alpha - 2.0) * np.abs(d) ** (alpha - 4.0) - np.abs(d) ** (alpha - 2.0) / d**2
            return pre * np.conj(c1_**2 * m * br)

        L13 = term(ximat[2], c2_ - c3_) + term(ximat[0], c2_ - c1_) \
            + (c2_ / c1_) * term(ximat[1], c1_ - c2_)
        L14 = term(ximat[2], c2_ - c3_) + (c2_ / c1_) * term(ximat[2], c1_ - c3_)
        L23 = term(ximat[1], c3_ - c2_) + (c3_ / c1_) * term(ximat[1], c1_ - c2_)
        L24 = term(ximat[1], c3_ - c2_) + term(ximat[0], c3_ - c1_) \
            + (c3_ / c1_) * term(ximat[1], c1_ - c3_)
        c1c = np.abs(L13) ** 2 + np.abs(L24) ** 2 + 2.0 * np.real(L23 * np.conj(L14))
        c2c = (np.abs(L13) ** 2 * np.abs(L24) ** 2 + np.abs(L23) ** 2 * np.abs(L14) ** 2
               - 2.0 * np.real(L14 * np.conj(L13) * L23 * np.conj(L24)))
        disc = c1c * c1c - 4.0 * c2c
        m2 = 2.0 * b * b - c1c - np.sqrt(np.where(disc > 0.0, disc, 0.0))
        m = np.minimum(disc, m2)
        margin = np.where(valid & np.isfinite(m), m, -np.inf)
    return margin


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


def _refine_boundary(alpha: float, x_in: float, x_out: float, tol: float) -> float:
    """Bisect the admissibility predicate between an admissible point x_in
    and an inadmissible point x_out, to interval width tol."""
    f_in = _margin_grid(alpha, np.array([x_in]))[0] > 0.0
    assert f_in
    while abs(x_out - x_in) > tol:
        mid = 0.5 * (x_in + x_out)
        if _margin_grid(alpha, np.array([mid]))[0] > 0.0:
            x_in = mid
        else:
            x_out = mid
    return 0.5 * (x_in + x_out)


def _peak_rescue(alpha: float, xs: np.ndarray, margin: np.ndarray,
                 tol: float) -> float | None:
    """Golden-section search for a positive margin around the best
    near-miss grid points; catches admissible windows thinner than the
    grid pitch.  Returns an admissible x or None."""
    finite = np.where(np.isfinite(margin))[0]
    if len(finite) == 0:
        return None
    order = finite[np.argsort(margin[finite])[::-1][:3]]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in order:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, len(xs) - 1)]
        a_, b_ = lo, hi
        c_ = b_ - invphi * (b_ - a_)
        d_ = a_ + invphi * (b_ - a_)
        fc = _margin_grid(alpha, np.array([c_]))[0]
        fd = _margin_grid(alpha, np.array([d_]))[0]
        while b_ - a_ > max(tol * 0.1, 1e-13):
            if fc > 0.0:
                return float(c_)
            if fd > 0.0:
                return float(d_)
            if fc > fd:
                b_, d_, fd = d_, c_, fc
                c_ = b_ - invphi * (b_ - a_)
                fc = _margin_grid(alpha, np.array([c_]))[0]
            else:
                a_, c_, fc = c_, d_, fd
                d_ = a_ + invphi * (b_ - a_)
                fd = _margin_grid(alpha, np.array([d_]))[0]
    return None


def x_interval(alpha: float, coarse: float = 1e-4,
               refine_tol: float = 1e-7) -> SweepRecord:
    """Locate the admissible x interval at one alpha.

    Scans a grid of pitch `coarse`, refines each run boundary by bisection
    to width `refine_tol`, and falls back to a margin-peak search when the
    admissible window is thinner than the grid pitch.  When several
    disjoint runs appear, all are recorded and the widest is reported.
    """
    coupling_constant(alpha)
    xs = np.arange(coarse, 1.0, coarse)
    margin = _margin_grid(alpha, xs)
    adm = margin > 0.0
    runs: list[tuple[float, float]] = []
    idx = np.where(adm)[0]
    if len(idx) == 0:
        x_star = _peak_rescue(alpha, xs, margin, refine_tol)
        if x_star is None:
            return SweepRecord(alpha, None, None, "empty")
        lo = _refine_boundary(alpha, x_star, max(x_star - coarse, coarse * 0.5), refine_tol)
        hi = _refine_boundary(alpha, x_star, min(x_star + coarse, 1.0 - 1e-12), refine_tol)
        runs.append((lo, hi))
    else:
        breaks = np.where(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(idx) - 1]])
        for s, e in zip(starts, ends):
            i0, i1 = idx[s], idx[e]
            lo_out = xs[i0 - 1] if i0 > 0 else coarse * 0.5
            hi_out = xs[i1 + 1] if i1 + 1 < len(xs) else 1.0 - 1e-12
            lo = _refine_boundary(alpha, xs[i0], lo_out, refine_tol)
            hi = _refine_boundary(alpha, xs[i1], hi_out, refine_tol)
            runs.append((lo, hi))
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


def _sweep_one(args) -> SweepRecord:
    alpha, coarse, refine_tol = args
    return x_interval(alpha, coarse, refine_tol)


def sweep(alpha_min: float, alpha_max: float, alpha_step: float = 1e-3,
          coarse: float = 1e-4, refine_tol: float = 1e-7,
          jobs: int = 1) -> SweepResult:
    """Admissibility sweep over alpha, skipping the guard band around 2.

    Runs x_interval per alpha (in parallel for jobs > 1, with output
    deterministically ordered by alpha) and refines the critical exponents
    alpha_-/alpha_+ by bisection on interval emptiness to width alpha_step.
    """
    if alpha_min > alpha_max:
        raise DomainError("alpha_min must not exceed alpha_max")
    n = int(round((alpha_max - alpha_min) / alpha_step))
    alphas = [alpha_min + k * alpha_step for k in range(n + 1)]
    alphas = [a for a in alphas if 0.0 < a < 3.0 and abs(a - 2.0) > ALPHA_GUARD]
    tasks = [(a, coarse, refine_tol) for a in alphas]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            records = list(ex.map(_sweep_one, tasks, chunksize=8))
    else:
        records = [_sweep_one(t) for t in tasks]

    nonempty = [i for i, r in enumerate(records) if not r.empty]
    a_minus = a_plus = None
    if nonempty:
        i0, i1 = nonempty[0], nonempty[-1]

        def probe(a):
            return not x_interval(a, coarse, refine_tol).empty

        if i0 > 0:
            a_minus = _bisect_alpha(records[i0 - 1].alpha, records[i0].alpha,
                                    probe, alpha_step)
        else:
            a_minus = records[i0].alpha
        if i1 + 1 < len(records):
            a_plus = _bisect_alpha(records[i1 + 1].alpha, records[i1].alpha,
                                   probe, alpha_step)
        else:
            a_plus = records[i1].alpha
    return SweepResult(tuple(records), a_minus, a_plus)


def _bisect_alpha(a_empty: float, a_full: float, probe, width: float) -> float:
    """Bisect between an empty and a nonempty alpha to the given width."""
    while abs(a_full - a_empty) > width:
        mid = 0.5 * (a_empty + a_full)
        if probe(mid):
            a_full = mid
        else:
            a_empty = mid
    return 0.5 * (a_empty + a_full)


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
