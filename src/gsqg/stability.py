"""Linearized stability of self-similar triples.

Around a centered self-similar triple with rates (a, b), the shape
perturbation (x_2, x_3, conj x_2, conj x_3) evolves to linear order under
the 4x4 complex matrix

    L = [ -a-ib    0      L13    L14 ]
        [   0    -a-ib    L23    L24 ]
        [ conj(L13) conj(L14) -a+ib   0 ]
        [ conj(L23) conj(L24)   0   -a+ib ]

The stability requirement is that every eigenvalue of L has real part
exactly -a, which holds precisely when the quartic

    mu^4 + mu^2 (c1 - 2 b^2) + b^4 - b^2 c1 + c2 = 0

has four distinct real roots mu (the eigenvalues are then -a + i mu).
Solving for mu^2 reduces this to two explicit inequalities:

    c1^2 - 4 c2 > 0    and    2 b^2 - c1 - sqrt(c1^2 - 4 c2) > 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernel import (DMIN_FACTOR, DomainError, SingularityError, coupling_constant,
                     max_pair_distance, min_pair_distance)
from .selfsimilar import (RATE_TOL, SS_TOL, TripleConfig, center, pair_terms,
                          selfsimilar_rate)

EIG_TOL = 1e-8


@dataclass(frozen=True)
class StabilityMatrix:
    entries: np.ndarray     # 4x4 complex
    a_rate: float
    off: tuple[complex, complex, complex, complex]   # (L13, L14, L23, L24)


@dataclass(frozen=True)
class MuRoots:
    """Roots of the eigenvalue quartic, or the reason there are none."""

    roots: np.ndarray | None       # 4 reals, ascending, when successful
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.roots is not None


@dataclass(frozen=True)
class HypothesisReport:
    selfsimilar_ok: bool
    a_positive: bool
    mu: MuRoots
    eigen_ok: bool
    distinct: bool
    details: str
    a_rate: float = np.nan
    b_rate: float = np.nan
    matrix: StabilityMatrix | None = None
    c1: float = np.nan
    c2: float = np.nan
    eigenvalues: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return (self.selfsimilar_ok and self.a_positive and self.mu.ok
                and self.eigen_ok and self.distinct)

    def to_json(self) -> str:
        def f(v):
            return float(f"{v:.17g}")

        def c(v):
            return [f(v.real), f(v.imag)]

        obj = {
            "passed": self.passed,
            "selfsimilar_ok": self.selfsimilar_ok,
            "a_positive": self.a_positive,
            "eigen_ok": self.eigen_ok,
            "distinct": self.distinct,
            "details": self.details,
            "a": f(self.a_rate),
            "b": f(self.b_rate),
            "c1": f(self.c1),
            "c2": f(self.c2),
            "mu": [f(m) for m in self.mu.roots] if self.mu.ok else None,
            "mu_failure": self.mu.failure,
            "L": {k: c(v) for k, v in zip(("L13", "L14", "L23", "L24"),
                                          self.matrix.off)} if self.matrix else None,
            "eigenvalues": [c(e) for e in self.eigenvalues]
            if self.eigenvalues is not None else None,
        }
        return json.dumps(obj, indent=2)


def l_terms(z: np.ndarray, xi: np.ndarray, c_alpha: float,
            br: dict) -> tuple[np.ndarray, ...]:
    """Off-diagonal coefficients (L13, L14, L23, L24) of a centered triple
    given vortex axis first, with brackets `br` from `pair_terms`.

    Each is a sum of terms

        -(i c_alpha / |a1|^2) conj(a1^2 xi_m ((alpha-2)|d|^(alpha-4)
                                              - |d|^(alpha-2) / d^2))

    over the interactions that perturb each shape coordinate, with a2/a1
    or a3/a1 prefactors on the contributions routed through vortex 1.  The
    ten terms take seven distinct values; each is computed once and summed
    in the operand order of the ten-term form, so every element keeps its bits.
    """
    pre = -1j * c_alpha / np.abs(z[0]) ** 2
    z1sq = z[0] ** 2

    def term(m, bracket):
        return pre * np.conj(z1sq * m * bracket)

    # terms dropped after their last use, r3 built after r2: a scan peaks in vortex_rates
    r2, t212, t101 = z[1] / z[0], term(xi[2], br[1, 2]), term(xi[1], br[0, 1])
    L13 = t212 + term(xi[0], br[0, 1]) + r2 * t101
    L14 = t212 + r2 * term(xi[2], br[0, 2])
    del r2, t212
    r3, t112 = z[2] / z[0], term(xi[1], br[1, 2])
    L23 = t112 + r3 * t101
    del t101
    L24 = t112 + term(xi[0], br[0, 2]) + r3 * term(xi[1], br[0, 2])
    return L13, L14, L23, L24


def quartic_coefficients(L13, L14, L23, L24) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c1, c2) of the eigenvalue quartic, in real arithmetic:

    c1 = |L13|^2 + |L24|^2 + 2 Re(L23 conj(L14)),
    c2 = |L13|^2 |L24|^2 + |L23|^2 |L14|^2 - 2 Re(L14 conj(L13) L23 conj(L24)).
    """
    s13, s24 = np.abs(L13) ** 2, np.abs(L24) ** 2
    c1 = s13 + s24 + 2.0 * np.real(L23 * np.conj(L14))
    c2 = (s13 * s24 + np.abs(L23) ** 2 * np.abs(L14) ** 2
          - 2.0 * np.real(L14 * np.conj(L13) * L23 * np.conj(L24)))
    return c1, c2


def quartic_mu2(b, c1, c2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """disc = c1^2 - 4 c2 and twice the roots in mu^2, 2 b^2 - c1 -+ sqrt(disc)
    (with sqrt(disc) read as 0 where disc <= 0)."""
    disc = c1 * c1 - 4.0 * c2
    base = 2.0 * b * b - c1
    s = np.sqrt(np.where(disc > 0.0, disc, 0.0))
    return disc, base - s, base + s


def mu_distinct(mu: np.ndarray) -> bool:
    gaps = np.diff(np.sort(mu))
    return bool(np.all(gaps > 1e-9 * (1.0 + np.max(np.abs(mu)))))


def hypothesis_a_check(cfg: TripleConfig) -> HypothesisReport:
    """Full stability check of a candidate triple.

    Pipeline: center -> self-similarity rates (residual <= SS_TOL and
    a > 0 required) -> `l_terms`, `quartic_coefficients` and `quartic_mu2`
    on a batch of one -> four distinct real mu, cross-checked against the
    eigenvalues of the assembled matrix by a general dense solver (LAPACK).
    """
    cen = center(cfg)
    a_rate, b_rate, residual = selfsimilar_rate(cen)
    ss_ok = residual <= SS_TOL
    a_pos = a_rate > RATE_TOL     # a relative equilibrium (a = 0) is not a burst
    if not (ss_ok and a_pos):
        detail = f"residual={residual:.3e}, a={a_rate:.6g}"
        return HypothesisReport(
            selfsimilar_ok=ss_ok, a_positive=a_pos,
            mu=MuRoots(None, failure="prerequisites failed"),
            eigen_ok=False, distinct=False, details=detail,
            a_rate=a_rate, b_rate=b_rate,
        )
    dmin = float(min_pair_distance(cen.a))
    if dmin < DMIN_FACTOR * max_pair_distance(cen.a):
        raise SingularityError(f"coincident vortices in linearization: |d|={dmin:.3e}")
    z = cen.a[:, None]
    L = l_terms(z, cen.xi[:, None], coupling_constant(cfg.alpha), pair_terms(z, cfg.alpha)[1])
    c1, c2 = quartic_coefficients(*L)
    disc, lo2, hi2 = (float(v[0]) for v in quartic_mu2(b_rate, c1, c2))
    off = tuple(complex(v[0]) for v in L)
    D = np.diag([-a_rate - 1j * b_rate] * 2)
    T = np.array(off).reshape(2, 2)
    M = StabilityMatrix(np.block([[D, T], [T.conj(), D.conj()]]), a_rate, off)
    eigs = np.linalg.eigvals(M.entries)
    eig_ok = distinct = False
    # four distinct real mu exist exactly when disc > 0 and lo2 > 0
    if disc <= 0.0:
        mu = MuRoots(None, failure=f"complex mu^2: c1^2 - 4 c2 = {disc:.6e} <= 0")
    elif lo2 <= 0.0:
        mu = MuRoots(None, failure=f"negative mu^2: 2 b^2 - c1 - sqrt(disc) = {lo2:.6e} <= 0")
    else:
        r = np.sqrt([lo2 / 2.0, hi2 / 2.0])
        mu = MuRoots(np.array([-r[1], -r[0], r[0], r[1]]))
    detail = mu.failure
    if mu.ok:
        # oracle agreement: eigenvalues must be -a + i mu_j
        predicted = -a_rate + 1j * mu.roots
        order_p = np.argsort(predicted.imag)
        order_e = np.argsort(eigs.imag)
        mismatch = float(np.max(np.abs(predicted[order_p] - eigs[order_e])))
        eig_ok = bool(mismatch <= EIG_TOL and np.max(np.abs(eigs.real + a_rate)) <= EIG_TOL)
        distinct = mu_distinct(mu.roots)
        detail = f"max |eig - (-a + i mu)| = {mismatch:.3e}"
    return HypothesisReport(
        selfsimilar_ok=True, a_positive=True, mu=mu, eigen_ok=eig_ok,
        distinct=distinct, details=detail, a_rate=a_rate, b_rate=b_rate,
        matrix=M, c1=float(c1[0]), c2=float(c2[0]), eigenvalues=eigs,
    )


def propagator_norm(M: StabilityMatrix, alpha: float, t: float) -> float:
    """Operator 2-norm of exp((log t / ((4-alpha) a)) L) for t in (0, 1].

    When every eigenvalue has real part -a the norm decays like
    t^(-1/(4-alpha)) up to a non-normality prefactor.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"propagator defined for t in (0, 1], got {t}")
    if M.a_rate == 0.0:
        raise DomainError("propagator scaling undefined for a = 0")
    import scipy.linalg     # here: no command needs its ~6 MB and ~25 ms of import
    tau = np.log(t) / ((4.0 - alpha) * M.a_rate)
    return float(np.linalg.norm(scipy.linalg.expm(tau * M.entries), 2))
